//! Arrival traces: the fully materialised input of one experiment run.

use crate::arrival::ArrivalEvent;
use jit_types::Timestamp;

/// A time-ordered sequence of arrival events across all sources.
///
/// Traces are generated once per experiment configuration and then replayed
/// against each execution mode (REF, DOE, JIT), guaranteeing that every mode
/// sees exactly the same input.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    events: Vec<ArrivalEvent>,
}

impl Trace {
    /// Build a trace from events, sorting them into temporal order.
    ///
    /// Ties on the timestamp are broken by source id and then sequence
    /// number so replay order is fully deterministic.
    pub fn new(mut events: Vec<ArrivalEvent>) -> Self {
        events.sort_by_key(|e| (e.ts, e.source, e.tuple.seq));
        Trace { events }
    }

    /// The empty trace.
    pub fn empty() -> Self {
        Trace::default()
    }

    /// Number of arrival events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Is the trace empty?
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterate over the events in replay order.
    pub fn iter(&self) -> impl Iterator<Item = &ArrivalEvent> {
        self.events.iter()
    }

    /// Keep only the events arriving strictly before `cutoff` — useful for
    /// scaling an experiment down without regenerating the workload.
    pub fn truncate_at(&self, cutoff: Timestamp) -> Trace {
        Trace {
            events: self
                .events
                .iter()
                .filter(|e| e.ts < cutoff)
                .cloned()
                .collect(),
        }
    }
}

impl IntoIterator for Trace {
    type Item = ArrivalEvent;
    type IntoIter = std::vec::IntoIter<ArrivalEvent>;
    fn into_iter(self) -> Self::IntoIter {
        self.events.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jit_types::{BaseTuple, SourceId, Value};
    use std::sync::Arc;

    fn ev(source: u16, seq: u64, ts_ms: u64) -> ArrivalEvent {
        let ts = Timestamp::from_millis(ts_ms);
        ArrivalEvent {
            ts,
            source: SourceId(source),
            tuple: Arc::new(BaseTuple::new(
                SourceId(source),
                seq,
                ts,
                vec![Value::int(1)],
            )),
        }
    }

    #[test]
    fn construction_sorts_events() {
        let t = Trace::new(vec![ev(1, 1, 500), ev(0, 1, 100), ev(0, 2, 300)]);
        let times: Vec<u64> = t.iter().map(|e| e.ts.as_millis()).collect();
        assert_eq!(times, vec![100, 300, 500]);
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
    }

    #[test]
    fn ties_break_by_source_then_seq() {
        let t = Trace::new(vec![ev(1, 5, 100), ev(0, 9, 100), ev(0, 2, 100)]);
        let order: Vec<(u16, u64)> = t.iter().map(|e| (e.source.0, e.tuple.seq)).collect();
        assert_eq!(order, vec![(0, 2), (0, 9), (1, 5)]);
    }

    #[test]
    fn empty_trace_properties() {
        let t = Trace::empty();
        assert!(t.is_empty());
    }

    #[test]
    fn truncate_keeps_prefix() {
        let t = Trace::new(vec![ev(0, 1, 10), ev(0, 2, 20), ev(0, 3, 30)]);
        let cut = t.truncate_at(Timestamp::from_millis(30));
        assert_eq!(cut.len(), 2);
        assert_eq!(
            cut.iter().last().map(|e| e.ts),
            Some(Timestamp::from_millis(20))
        );
    }

    #[test]
    fn into_iterator_consumes() {
        let t = Trace::new(vec![ev(0, 1, 10), ev(1, 1, 5)]);
        let v: Vec<ArrivalEvent> = t.into_iter().collect();
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].ts, Timestamp::from_millis(5));
    }
}
