//! The watermark-driven reorder stage.

use jit_types::{Duration, ExpiryQueue, Timestamp};
use serde::{Content, Serialize};
use std::collections::vec_deque::Drain;

/// How a session treats out-of-order arrivals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DisorderPolicy {
    /// The historical contract: any timestamp regression is an error.
    Strict,
    /// Tolerate arrivals up to this much later than the maximum timestamp
    /// seen. The watermark trails the maximum by the bound; tuples at or
    /// under the watermark are released downstream in timestamp order, and
    /// an arrival older than the watermark is dropped and counted (a typed
    /// [`PushOutcome::LateDrop`], never an error).
    Bounded(Duration),
}

impl DisorderPolicy {
    /// The lateness bound, if any.
    pub fn lateness(&self) -> Option<Duration> {
        match self {
            DisorderPolicy::Strict => None,
            DisorderPolicy::Bounded(l) => Some(*l),
        }
    }
}

/// What happened to one pushed arrival under a bounded-disorder policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "a LateDrop means the tuple was NOT processed"]
pub enum PushOutcome {
    /// The arrival was accepted (buffered, and released once the watermark
    /// passes it).
    Accepted,
    /// The arrival was accepted and was late (smaller timestamp than an
    /// earlier arrival) — it will still be released in correct order.
    AcceptedLate,
    /// The arrival was older than the watermark allows; it was dropped and
    /// counted, not processed.
    LateDrop,
}

impl PushOutcome {
    /// Was the tuple accepted for processing?
    pub fn is_accepted(&self) -> bool {
        !matches!(self, PushOutcome::LateDrop)
    }
}

/// A reorder buffer in front of a push-based backend.
///
/// Arrivals go in via [`ReorderBuffer::push`] in any order within the
/// lateness bound; [`ReorderBuffer::release`] hands back everything at or
/// under a watermark in timestamp order — ties release in arrival order, so
/// an already-sorted stream passes through unchanged.
///
/// The arrivals wait in a [`jit_types::ExpiryQueue`], the near-sorted queue
/// window states expire through: an in-order arrival is a tail append, a
/// release drains from the front, and a late arrival binary-searches its
/// slot behind its ties — no allocation per arrival and no per-release
/// container. Nothing is ever buffered under the released frontier.
///
/// The buffer is generic over the item carried with each timestamp; the
/// engine stores `(SourceId, Arc<BaseTuple>)`, tests store whatever is
/// convenient.
#[derive(Debug, Clone)]
pub struct ReorderBuffer<T> {
    lateness: Duration,
    /// Buffered arrivals in release order.
    buffered: ExpiryQueue<T>,
    /// Largest timestamp ever pushed.
    max_ts: Timestamp,
    /// The released frontier: everything at or under it has been handed
    /// out, and an arrival under it is too late.
    frontier: Timestamp,
    late_arrivals: u64,
    late_dropped: u64,
    peak: u64,
}

impl<T> ReorderBuffer<T> {
    /// An empty buffer with the given lateness bound.
    pub fn new(lateness: Duration) -> Self {
        ReorderBuffer {
            lateness,
            buffered: ExpiryQueue::default(),
            max_ts: Timestamp::ZERO,
            frontier: Timestamp::ZERO,
            late_arrivals: 0,
            late_dropped: 0,
            peak: 0,
        }
    }

    /// The configured lateness bound.
    pub fn lateness(&self) -> Duration {
        self.lateness
    }

    /// The released frontier (the current watermark).
    pub fn frontier(&self) -> Timestamp {
        self.frontier
    }

    /// The largest timestamp pushed so far.
    pub fn max_ts(&self) -> Timestamp {
        self.max_ts
    }

    /// Number of arrivals currently buffered.
    pub fn len(&self) -> usize {
        self.buffered.len()
    }

    /// Is the buffer empty?
    pub fn is_empty(&self) -> bool {
        self.buffered.is_empty()
    }

    /// Arrivals that came in with a timestamp smaller than an earlier one —
    /// reordered if within the bound, dropped if not (a superset of
    /// [`ReorderBuffer::late_dropped`]).
    pub fn late_arrivals(&self) -> u64 {
        self.late_arrivals
    }

    /// Arrivals older than the watermark, dropped and counted.
    pub fn late_dropped(&self) -> u64 {
        self.late_dropped
    }

    /// Largest number of arrivals ever buffered at once.
    pub fn peak(&self) -> u64 {
        self.peak
    }

    /// Accept one arrival. Too-late arrivals (timestamp under the released
    /// frontier) are dropped and counted; everything else is buffered.
    pub fn push(&mut self, ts: Timestamp, item: T) -> PushOutcome {
        if ts < self.frontier {
            // A drop is the extreme case of a late arrival: count it in
            // both, so `late_arrivals ≥ late_dropped` always holds.
            self.late_arrivals += 1;
            self.late_dropped += 1;
            return PushOutcome::LateDrop;
        }
        let late = ts < self.max_ts;
        if late {
            self.late_arrivals += 1;
        }
        self.max_ts = self.max_ts.max(ts);
        self.buffered.push(ts, item);
        self.peak = self.peak.max(self.buffered.len() as u64);
        if late {
            PushOutcome::AcceptedLate
        } else {
            PushOutcome::Accepted
        }
    }

    /// The watermark the stream has earned: the maximum timestamp seen minus
    /// the lateness bound, never behind the released frontier. Releasing at
    /// this point is safe because any future accepted arrival carries a
    /// timestamp above it.
    pub fn target_watermark(&self) -> Timestamp {
        self.max_ts
            .saturating_sub_duration(self.lateness)
            .max(self.frontier)
    }

    /// Release every buffered arrival with `ts <= watermark`, in timestamp
    /// order (ties in arrival order), and advance the frontier. The
    /// arrivals leave the buffer even if the iterator is dropped
    /// unconsumed. A watermark behind the frontier releases nothing
    /// (watermarks never move backwards, and nothing under the frontier is
    /// ever buffered).
    pub fn release(&mut self, watermark: Timestamp) -> Drain<'_, (Timestamp, T)> {
        debug_assert!(
            self.buffered
                .iter()
                .next()
                .is_none_or(|(ts, _)| ts >= self.frontier),
            "an arrival under the released frontier stayed buffered"
        );
        self.frontier = self.frontier.max(watermark);
        self.buffered.drain_through(watermark)
    }

    /// Release everything still buffered (end of stream), advancing the
    /// frontier to the maximum timestamp seen.
    pub fn flush(&mut self) -> Drain<'_, (Timestamp, T)> {
        self.release(self.max_ts.max(self.frontier))
    }

    /// Iterate the buffered arrivals in release order (for checkpointing).
    pub fn iter(&self) -> impl Iterator<Item = (Timestamp, &T)> {
        self.buffered.iter()
    }

    /// Serialise the buffer's control state (not the items — the caller
    /// serialises those via [`ReorderBuffer::iter`], since the item type is
    /// its own).
    pub fn checkpoint_control(&self) -> Content {
        Content::Map(vec![
            ("lateness".to_string(), self.lateness.to_content()),
            ("max_ts".to_string(), self.max_ts.to_content()),
            ("frontier".to_string(), self.frontier.to_content()),
            ("late_arrivals".to_string(), self.late_arrivals.to_content()),
            ("late_dropped".to_string(), self.late_dropped.to_content()),
            ("peak".to_string(), self.peak.to_content()),
        ])
    }

    /// Rebuild a buffer from [`ReorderBuffer::checkpoint_control`] plus the
    /// buffered items in release order, as [`ReorderBuffer::iter`] produced
    /// them. Items out of timestamp order, or outside
    /// `[frontier, max_ts]`, are an error: one under the frontier would be
    /// released behind a watermark the backend has already passed.
    pub fn restore(
        control: &Content,
        items: impl IntoIterator<Item = (Timestamp, T)>,
    ) -> Result<Self, serde::Error> {
        const TY: &str = "ReorderBuffer";
        let map = control
            .as_map()
            .ok_or_else(|| serde::Error::expected("object", TY))?;
        let mut buffer = ReorderBuffer::new(serde::field(map, "lateness", TY)?);
        buffer.max_ts = serde::field(map, "max_ts", TY)?;
        buffer.frontier = serde::field(map, "frontier", TY)?;
        buffer.late_arrivals = serde::field(map, "late_arrivals", TY)?;
        buffer.late_dropped = serde::field(map, "late_dropped", TY)?;
        buffer.peak = serde::field(map, "peak", TY)?;
        let mut floor = buffer.frontier;
        for (ts, item) in items {
            if ts < floor || ts > buffer.max_ts {
                return Err(serde::Error::msg(format!(
                    "buffered arrival at {ts} is out of release order or outside \
                     [frontier {}, max_ts {}]",
                    buffer.frontier, buffer.max_ts
                )));
            }
            floor = ts;
            buffer.buffered.push(ts, item);
        }
        Ok(buffer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Timestamp {
        Timestamp::from_millis(v)
    }

    fn ids<T>(released: Drain<'_, (Timestamp, T)>) -> Vec<T> {
        released.map(|(_, id)| id).collect()
    }

    #[test]
    fn in_order_stream_passes_through_unchanged() {
        let mut buf = ReorderBuffer::new(Duration::from_millis(100));
        for i in 0..10u64 {
            assert_eq!(buf.push(ms(i * 50), i), PushOutcome::Accepted);
        }
        // max_ts 450, bound 100 → watermark 350 releases ids 0..=7.
        let target = buf.target_watermark();
        assert_eq!(ids(buf.release(target)), (0..=7).collect::<Vec<_>>());
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.late_arrivals(), 0);
        assert_eq!(ids(buf.flush()), vec![8, 9]);
        assert_eq!(buf.frontier(), ms(450));
    }

    #[test]
    fn late_arrival_within_bound_is_reordered() {
        let mut buf = ReorderBuffer::new(Duration::from_millis(100));
        assert!(buf.push(ms(200), "a").is_accepted());
        assert_eq!(buf.push(ms(150), "late"), PushOutcome::AcceptedLate);
        assert_eq!(buf.late_arrivals(), 1);
        assert_eq!(ids(buf.flush()), vec!["late", "a"]);
    }

    #[test]
    fn equal_timestamps_release_in_arrival_order() {
        let mut buf = ReorderBuffer::new(Duration::from_millis(50));
        let _ = buf.push(ms(10), 1);
        let _ = buf.push(ms(20), 2);
        let _ = buf.push(ms(10), 3); // late, behind the earlier 10
        let _ = buf.push(ms(10), 4);
        assert_eq!(ids(buf.flush()), vec![1, 3, 4, 2]);
    }

    #[test]
    fn too_late_arrival_is_dropped_and_counted() {
        let mut buf = ReorderBuffer::new(Duration::from_millis(50));
        let _ = buf.push(ms(1_000), "a");
        let target = buf.target_watermark();
        assert_eq!(buf.release(target).len(), 0); // watermark 950 < ts 1000
        let _ = buf.push(ms(2_000), "b");
        let target = buf.target_watermark();
        assert_eq!(buf.release(target).len(), 1); // watermark 1950 releases "a"
        assert_eq!(buf.push(ms(900), "too-late"), PushOutcome::LateDrop);
        assert_eq!(buf.late_dropped(), 1);
        assert_eq!(buf.len(), 1); // only "b"
    }

    #[test]
    fn watermarks_never_move_backwards() {
        let mut buf = ReorderBuffer::new(Duration::ZERO);
        let _ = buf.push(ms(100), 1);
        assert_eq!(buf.release(ms(100)).len(), 1);
        assert_eq!(buf.release(ms(50)).len(), 0);
        assert_eq!(buf.frontier(), ms(100));
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let mut buf = ReorderBuffer::new(Duration::from_millis(1_000));
        for i in 0..5u64 {
            let _ = buf.push(ms(i), i);
        }
        let _ = buf.flush();
        let _ = buf.push(ms(2_000), 9);
        assert_eq!(buf.peak(), 5);
    }

    fn snapshot(buf: &ReorderBuffer<u64>) -> Vec<(Timestamp, u64)> {
        buf.iter().map(|(ts, &v)| (ts, v)).collect()
    }

    #[test]
    fn control_round_trips_through_checkpoint() {
        let mut buf = ReorderBuffer::new(Duration::from_millis(100));
        let _ = buf.push(ms(500), 7u64);
        let _ = buf.push(ms(450), 8u64);
        let _ = buf.push(ms(300), 9u64); // released below
        let target = buf.target_watermark();
        let _ = buf.release(target);
        let control = buf.checkpoint_control();
        let restored = ReorderBuffer::restore(&control, snapshot(&buf)).unwrap();
        assert_eq!(restored.frontier(), buf.frontier());
        assert_eq!(restored.max_ts(), buf.max_ts());
        assert_eq!(restored.late_arrivals(), buf.late_arrivals());
        assert_eq!(restored.peak(), buf.peak());
        assert_eq!(restored.len(), buf.len());
        assert_eq!(snapshot(&restored), snapshot(&buf));
    }

    #[test]
    fn restore_rejects_items_out_of_order_or_outside_the_frontier() {
        let mut buf = ReorderBuffer::new(Duration::from_millis(100));
        for (ts, id) in [(300, 1), (420, 2), (450, 3), (500, 4)] {
            let _ = buf.push(ms(ts), id);
        }
        let target = buf.target_watermark();
        let _ = buf.release(target); // frontier 400
        let control = buf.checkpoint_control();
        assert!(ReorderBuffer::restore(&control, snapshot(&buf)).is_ok());
        for items in [
            vec![(ms(450), 3), (ms(420), 2), (ms(500), 4)], // out of order
            vec![(ms(399), 2), (ms(450), 3), (ms(500), 4)], // under the frontier
            vec![(ms(420), 2), (ms(450), 3), (ms(501), 4)], // past max_ts
        ] {
            assert!(ReorderBuffer::restore(&control, items).is_err());
        }
    }

    #[test]
    fn strict_policy_has_no_lateness() {
        assert_eq!(DisorderPolicy::Strict.lateness(), None);
        assert_eq!(
            DisorderPolicy::Bounded(Duration::from_secs(1)).lateness(),
            Some(Duration::from_secs(1))
        );
    }

    /// The reorder stage against a naive model: a `Vec` stable-sorted by
    /// timestamp, released when `ts <= watermark`, dropping `ts < frontier`.
    mod model {
        use super::*;
        use proptest::prelude::*;
        use proptest::rand::{rngs::StdRng, Rng, SeedableRng};

        /// The naive stage, every step a scan.
        struct Model {
            lateness: u64,
            /// Buffered `(ts, id)` in arrival order.
            pending: Vec<(u64, u64)>,
            max_ts: u64,
            frontier: u64,
            late_arrivals: u64,
            late_dropped: u64,
            peak: u64,
        }

        impl Model {
            fn push(&mut self, ts: u64, id: u64) {
                if ts < self.frontier {
                    self.late_arrivals += 1;
                    self.late_dropped += 1;
                    return;
                }
                self.late_arrivals += u64::from(ts < self.max_ts);
                self.max_ts = self.max_ts.max(ts);
                self.pending.push((ts, id));
                self.peak = self.peak.max(self.pending.len() as u64);
            }

            fn target(&self) -> u64 {
                self.max_ts.saturating_sub(self.lateness).max(self.frontier)
            }

            fn release(&mut self, watermark: u64) -> Vec<u64> {
                self.frontier = self.frontier.max(watermark);
                // Stable: ties keep arrival order.
                self.pending.sort_by_key(|&(ts, _)| ts);
                let due = self
                    .pending
                    .iter()
                    .filter(|&&(ts, _)| ts <= watermark)
                    .count();
                self.pending.drain(..due).map(|(_, id)| id).collect()
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

            #[test]
            fn stage_matches_stable_sort_model(seed in 0u64..1_000_000) {
                let mut rng = StdRng::seed_from_u64(seed);
                let lateness = rng.gen_range(0u64..60);
                let mut buf = ReorderBuffer::new(Duration::from_millis(lateness));
                let mut model = Model {
                    lateness,
                    pending: Vec::new(),
                    max_ts: 0,
                    frontier: 0,
                    late_arrivals: 0,
                    late_dropped: 0,
                    peak: 0,
                };
                let (mut released, mut expected) = (Vec::new(), Vec::new());
                let mut clock = 0u64;
                for id in 0..400u64 {
                    // Coarse steps make ties common; delays reach up to twice
                    // the bound, so some arrivals are reordered and some are
                    // too late.
                    clock += rng.gen_range(0u64..4) * 5;
                    let ts = if rng.gen_bool(0.3) {
                        clock.saturating_sub(rng.gen_range(0..=2 * lateness + 5))
                    } else {
                        clock
                    };
                    let outcome = buf.push(ms(ts), id);
                    let dropped = ts < model.frontier;
                    prop_assert_eq!(outcome == PushOutcome::LateDrop, dropped, "arrival {}", id);
                    model.push(ts, id);
                    // Release the way `Session::push` does.
                    let target = buf.target_watermark();
                    prop_assert_eq!(target.as_millis(), model.target());
                    if target > buf.frontier() {
                        released.extend(buf.release(target).map(|(_, id)| id));
                        expected.extend(model.release(target.as_millis()));
                    }
                    prop_assert!(buf.iter().all(|(ts, _)| ts >= buf.frontier()));
                    if rng.gen_bool(0.05) {
                        // Checkpoint and restore at a random cut.
                        let control = buf.checkpoint_control();
                        let items: Vec<(Timestamp, u64)> =
                            buf.iter().map(|(ts, &v)| (ts, v)).collect();
                        buf = ReorderBuffer::restore(&control, items).expect("restores");
                    }
                    prop_assert_eq!(
                        (buf.late_arrivals(), buf.late_dropped(), buf.peak()),
                        (model.late_arrivals, model.late_dropped, model.peak),
                        "counters after arrival {}", id
                    );
                }
                released.extend(buf.flush().map(|(_, id)| id));
                expected.extend(model.release(model.max_ts.max(model.frontier)));
                prop_assert_eq!(released, expected);
                prop_assert!(buf.is_empty());
                // A zero bound drops every late arrival; any other also
                // reorders some.
                prop_assert!(
                    model.late_dropped > 0
                        && (lateness == 0 || model.late_arrivals > model.late_dropped),
                    "seed {}: the stream must exercise reordering and drops", seed
                );
            }
        }
    }
}
