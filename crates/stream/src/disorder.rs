//! Disorder injection: turn a timestamp-ordered trace into an arrival
//! sequence with bounded late arrivals.
//!
//! The paper's arrival model is in-order (arrival instant = tuple
//! timestamp). Real feeds are not: a fraction of tuples is delayed in
//! transit and shows up after younger tuples have already arrived. The
//! durability tier tolerates that with a watermark-driven reorder stage
//! (`jit_durable::ReorderBuffer`); this module generates the matching
//! workloads.
//!
//! Each selected event keeps its original timestamp but is assigned a
//! *virtual arrival instant* `ts + delay`; the output is the trace re-sorted
//! by that instant. Delays are drawn uniformly from `(0, max_delay]`, so a
//! reorder stage with a lateness bound of at least `max_delay` loses
//! nothing, while a tighter bound drops the tail of the delay distribution
//! — exactly the latency/completeness trade-off the bench sweeps.

use crate::arrival::ArrivalEvent;
use crate::trace::Trace;
use jit_types::Duration;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How much disorder to inject into a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DisorderSpec {
    /// Fraction of events delayed, in `[0, 1]` (the paper-adjacent sweeps
    /// use 1–10%).
    pub(crate) late_fraction: f64,
    /// Upper bound on the injected delay; a delayed event arrives at
    /// `ts + d` with `d` uniform in `(0, max_delay]`.
    pub(crate) max_delay: Duration,
    /// Seed for the (deterministic) selection and delay draws.
    pub(crate) seed: u64,
}

impl DisorderSpec {
    /// A spec delaying `late_fraction` of events by up to `max_delay`.
    pub fn new(late_fraction: f64, max_delay: Duration, seed: u64) -> Self {
        DisorderSpec {
            late_fraction,
            max_delay,
            seed,
        }
    }

    /// Apply the disorder to a trace: the same events, re-sequenced by
    /// virtual arrival instant. Timestamps are untouched — only the order
    /// (and hence each event's lateness relative to the max timestamp seen
    /// so far) changes. Deterministic given the spec.
    pub fn apply(&self, trace: &Trace) -> Vec<ArrivalEvent> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let max_delay_ms = self.max_delay.as_millis();
        let mut keyed: Vec<(u64, usize, ArrivalEvent)> = trace
            .iter()
            .enumerate()
            .map(|(idx, event)| {
                let late = max_delay_ms > 0 && rng.gen_bool(self.late_fraction);
                let delay = if late {
                    rng.gen_range(1..=max_delay_ms)
                } else {
                    0
                };
                (event.ts.as_millis() + delay, idx, event.clone())
            })
            .collect();
        // The original index breaks ties, so on-time runs keep trace order.
        keyed.sort_by_key(|(arrival, idx, _)| (*arrival, *idx));
        keyed.into_iter().map(|(_, _, event)| event).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jit_types::{BaseTuple, SourceId, Timestamp, Value};
    use std::sync::Arc;

    fn trace(n: u64) -> Trace {
        Trace::new(
            (0..n)
                .map(|i| {
                    let ts = Timestamp::from_millis(i * 100);
                    ArrivalEvent {
                        ts,
                        source: SourceId((i % 2) as u16),
                        tuple: Arc::new(BaseTuple::new(
                            SourceId((i % 2) as u16),
                            i,
                            ts,
                            vec![Value::int(i as i64)],
                        )),
                    }
                })
                .collect(),
        )
    }

    #[test]
    fn zero_fraction_preserves_order() {
        let t = trace(50);
        let spec = DisorderSpec::new(0.0, Duration::from_millis(500), 7);
        let out = spec.apply(&t);
        assert_eq!(out, t.iter().cloned().collect::<Vec<_>>());
    }

    #[test]
    fn disorder_permutes_but_keeps_every_event_and_timestamp() {
        let t = trace(200);
        let spec = DisorderSpec::new(0.1, Duration::from_millis(1_000), 7);
        let out = spec.apply(&t);
        assert_eq!(out.len(), t.len());
        // Same multiset of events…
        let mut seqs: Vec<u64> = out.iter().map(|e| e.tuple.seq).collect();
        seqs.sort();
        assert_eq!(seqs, (0..200).collect::<Vec<_>>());
        // …but no longer in timestamp order.
        assert!(out.windows(2).any(|w| w[0].ts > w[1].ts));
        // Timestamps are untouched.
        assert!(out.iter().all(|e| e.ts == e.tuple.ts));
    }

    #[test]
    fn lateness_is_bounded_by_max_delay() {
        let t = trace(500);
        let max_delay = Duration::from_millis(700);
        let out = DisorderSpec::new(0.2, max_delay, 11).apply(&t);
        let mut frontier = Timestamp::ZERO;
        for e in &out {
            // An event can trail the running max timestamp by at most the
            // injected delay bound.
            assert!(e.ts >= frontier.saturating_sub_duration(max_delay));
            frontier = frontier.max(e.ts);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let t = trace(100);
        let a = DisorderSpec::new(0.1, Duration::from_millis(300), 5).apply(&t);
        let b = DisorderSpec::new(0.1, Duration::from_millis(300), 5).apply(&t);
        assert_eq!(a, b);
        let c = DisorderSpec::new(0.1, Duration::from_millis(300), 6).apply(&t);
        assert_ne!(a, c);
    }
}
