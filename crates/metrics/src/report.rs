//! Measurement snapshots and run-level metric bundles.

use crate::cost::{CostKind, CostTracker};
use crate::counters::ExecStats;
use crate::memory::{MemComponentId, MemoryTracker};
use serde::Serialize;

/// Everything an execution mutates while running: counters, cost tracker and
/// memory tracker. The executor owns one of these and threads `&mut` access
/// through every operator call.
#[derive(Debug, Default, Clone)]
pub struct RunMetrics {
    /// Event counters.
    pub stats: ExecStats,
    /// CPU cost accounting (abstract units + wall clock).
    pub(crate) cost: CostTracker,
    /// Analytical memory accounting.
    pub memory: MemoryTracker,
}

impl RunMetrics {
    /// Fresh metrics with the default cost model.
    pub fn new() -> Self {
        RunMetrics::default()
    }

    /// Charge `count` operations of `kind` to the cost model **and** add
    /// `count` to the statistic that kind feeds, so a charge and its counter
    /// cannot drift apart. This match is the only place that pairing is
    /// written down; the three kinds in its last arm have no 1:1 statistic
    /// (see [`CostKind`]) and their call sites count explicitly.
    #[inline]
    pub fn charge(&mut self, kind: CostKind, count: u64) {
        self.cost.charge(kind, count);
        let stats = &mut self.stats;
        match kind {
            CostKind::ProbePair => stats.probe_pairs += count,
            CostKind::PredicateEval => stats.predicate_evals += count,
            CostKind::StateInsert => stats.state_insertions += count,
            CostKind::StatePurge => stats.purged_tuples += count,
            CostKind::QueueOp => stats.queued_tuples += count,
            CostKind::MnsBufferProbe => stats.mns_buffer_probes += count,
            CostKind::LatticeNode => stats.lattice_nodes_visited += count,
            CostKind::BloomCheck => stats.bloom_checks += count,
            CostKind::TaskDispatch => stats.tasks_executed += count,
            CostKind::ResultBuild | CostKind::FeedbackHandle | CostKind::BlacklistMove => {}
        }
    }

    /// Register a memory component.
    pub fn register_memory(&mut self) -> MemComponentId {
        self.memory.register()
    }

    /// Freeze the wall clock and produce an immutable snapshot.
    pub fn finish(mut self) -> MetricsSnapshot {
        self.cost.stop_wall_clock();
        self.snapshot()
    }

    /// Produce a snapshot without consuming the metrics (wall clock keeps
    /// running).
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            stats: self.stats,
            cost_units: self.cost.total_units(),
            steady_cost_units: self.cost.total_units(),
            wall_seconds: self.cost.wall_seconds(),
            peak_memory_bytes: self.memory.peak_bytes(),
            steady_peak_memory_bytes: self.memory.peak_bytes(),
            final_memory_bytes: self.memory.current_bytes(),
            late_arrivals: 0,
            late_dropped: 0,
            reorder_buffer_peak: 0,
            checkpoint_bytes: 0,
            checkpoint_millis: 0,
        }
    }
}

/// An immutable summary of one execution, serialisable for reports.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MetricsSnapshot {
    /// Event counters.
    pub stats: ExecStats,
    /// Total abstract CPU cost units, including any end-of-stream flush.
    pub cost_units: u64,
    /// Cost units spent *before* the end-of-stream flush (the steady-state
    /// figure: what an unbounded stream would keep paying per unit of input;
    /// the flush is a one-time artefact of a finite trace ending). Equals
    /// [`MetricsSnapshot::cost_units`] when no flush happened.
    pub steady_cost_units: u64,
    /// Wall-clock seconds.
    pub wall_seconds: f64,
    /// Peak analytical memory in bytes over the whole run.
    pub peak_memory_bytes: usize,
    /// Peak analytical memory before the end-of-stream flush (steady-state
    /// figure). Equals [`MetricsSnapshot::peak_memory_bytes`] without one.
    pub steady_peak_memory_bytes: usize,
    /// Memory still held at the end of the run, in bytes.
    pub final_memory_bytes: usize,
    /// Arrivals that came in behind the stream's high-water timestamp (out
    /// of order) but within the lateness bound — reordered, not dropped.
    /// Always 0 under `DisorderPolicy::Strict` (disorder is a hard error
    /// there) and for executions without a reorder buffer.
    pub late_arrivals: u64,
    /// Arrivals later than the lateness bound, dropped and counted (the
    /// `LateDrop` outcome of a bounded-disorder push).
    pub late_dropped: u64,
    /// Peak number of tuples held in the reorder buffer at any instant.
    pub reorder_buffer_peak: u64,
    /// Bytes written by the most recent state checkpoint (0 if none taken).
    pub checkpoint_bytes: u64,
    /// Wall-clock milliseconds spent writing the most recent checkpoint.
    pub checkpoint_millis: u64,
}

impl MetricsSnapshot {
    /// Peak memory in kilobytes (paper plots use KB).
    pub fn peak_memory_kb(&self) -> f64 {
        self.peak_memory_bytes as f64 / 1024.0
    }

    /// Cost units scaled to pseudo-seconds for readability
    /// (1 M units ≈ 1 pseudo-second; purely a display convention).
    pub fn cost_pseudo_seconds(&self) -> f64 {
        self.cost_units as f64 / 1.0e6
    }

    /// A snapshot with every quantity at zero (the identity of
    /// [`MetricsSnapshot::absorb_parallel`]).
    pub fn zero() -> MetricsSnapshot {
        MetricsSnapshot {
            stats: ExecStats::default(),
            cost_units: 0,
            steady_cost_units: 0,
            wall_seconds: 0.0,
            peak_memory_bytes: 0,
            steady_peak_memory_bytes: 0,
            final_memory_bytes: 0,
            late_arrivals: 0,
            late_dropped: 0,
            reorder_buffer_peak: 0,
            checkpoint_bytes: 0,
            checkpoint_millis: 0,
        }
    }

    /// Fold another snapshot, taken by a *concurrently running* execution,
    /// into this one:
    ///
    /// * counters and cost units add up (total work performed);
    /// * wall-clock takes the maximum (parallel executions overlap);
    /// * memory adds up (shards hold their states simultaneously, so the sum
    ///   of per-shard peaks is the relevant upper bound).
    pub fn absorb_parallel(&mut self, other: &MetricsSnapshot) {
        self.stats += other.stats;
        self.cost_units += other.cost_units;
        self.steady_cost_units += other.steady_cost_units;
        self.wall_seconds = self.wall_seconds.max(other.wall_seconds);
        self.peak_memory_bytes += other.peak_memory_bytes;
        self.steady_peak_memory_bytes += other.steady_peak_memory_bytes;
        self.final_memory_bytes += other.final_memory_bytes;
        self.late_arrivals += other.late_arrivals;
        self.late_dropped += other.late_dropped;
        // Reorder buffering happens in front of the fan-out, so per-shard
        // peaks never overlap in time; the max is the relevant bound.
        self.reorder_buffer_peak = self.reorder_buffer_peak.max(other.reorder_buffer_peak);
        self.checkpoint_bytes += other.checkpoint_bytes;
        self.checkpoint_millis += other.checkpoint_millis;
    }

    /// Aggregate the snapshots of N parallel executions into one run-level
    /// snapshot (see [`MetricsSnapshot::absorb_parallel`] for the rules).
    pub fn aggregate_parallel<'a>(
        snapshots: impl IntoIterator<Item = &'a MetricsSnapshot>,
    ) -> MetricsSnapshot {
        let mut total = MetricsSnapshot::zero();
        for snapshot in snapshots {
            total.absorb_parallel(snapshot);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_aggregation_rules() {
        let mut a = MetricsSnapshot::zero();
        a.stats.tuples_arrived = 10;
        a.cost_units = 100;
        a.wall_seconds = 2.0;
        a.peak_memory_bytes = 4096;
        a.final_memory_bytes = 64;
        let mut b = MetricsSnapshot::zero();
        b.stats.tuples_arrived = 5;
        b.cost_units = 50;
        b.wall_seconds = 3.0;
        b.peak_memory_bytes = 1024;
        b.final_memory_bytes = 32;

        let total = MetricsSnapshot::aggregate_parallel([&a, &b]);
        assert_eq!(total.stats.tuples_arrived, 15);
        assert_eq!(total.cost_units, 150);
        assert_eq!(total.wall_seconds, 3.0); // max, not sum
        assert_eq!(total.peak_memory_bytes, 5120);
        assert_eq!(total.final_memory_bytes, 96);

        // Zero is the identity.
        let same = MetricsSnapshot::aggregate_parallel([&total, &MetricsSnapshot::zero()]);
        assert_eq!(same, total);
    }

    #[test]
    fn charge_moves_cost_units_and_exactly_the_documented_statistic() {
        type Field = fn(&mut ExecStats) -> &mut u64;
        let table: [(CostKind, Option<Field>); 12] = [
            (CostKind::ProbePair, Some(|s| &mut s.probe_pairs)),
            (CostKind::PredicateEval, Some(|s| &mut s.predicate_evals)),
            (CostKind::ResultBuild, None),
            (CostKind::StateInsert, Some(|s| &mut s.state_insertions)),
            (CostKind::StatePurge, Some(|s| &mut s.purged_tuples)),
            (CostKind::QueueOp, Some(|s| &mut s.queued_tuples)),
            (CostKind::MnsBufferProbe, Some(|s| &mut s.mns_buffer_probes)),
            (
                CostKind::LatticeNode,
                Some(|s| &mut s.lattice_nodes_visited),
            ),
            (CostKind::BloomCheck, Some(|s| &mut s.bloom_checks)),
            (CostKind::FeedbackHandle, None),
            (CostKind::BlacklistMove, None),
            (CostKind::TaskDispatch, Some(|s| &mut s.tasks_executed)),
        ];
        for (kind, field) in table {
            let mut m = RunMetrics::new();
            m.charge(kind, 7);
            assert_eq!(m.cost.total_units(), kind.weight() * 7, "{kind:?}");
            let mut expected = ExecStats::default();
            if let Some(field) = field {
                *field(&mut expected) = 7;
            }
            assert_eq!(m.stats, expected, "{kind:?}");
        }
    }

    #[test]
    fn finish_produces_consistent_snapshot() {
        let mut m = RunMetrics::new();
        m.stats.tuples_arrived = 3;
        m.charge(CostKind::ProbePair, 4);
        let s_id = m.register_memory();
        m.memory.set(s_id, 2048);
        m.memory.set(s_id, 1024);
        let snap = m.finish();
        assert_eq!(snap.stats.tuples_arrived, 3);
        assert!(snap.cost_units > 0);
        assert_eq!(snap.peak_memory_bytes, 2048);
        assert_eq!(snap.final_memory_bytes, 1024);
        assert!(snap.wall_seconds >= 0.0);
        assert!((snap.peak_memory_kb() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn snapshot_without_consuming() {
        let mut m = RunMetrics::new();
        m.charge(CostKind::ResultBuild, 1);
        let first = m.snapshot();
        m.charge(CostKind::ResultBuild, 1);
        let second = m.snapshot();
        assert!(second.cost_units > first.cost_units);
    }

    #[test]
    fn snapshot_serialises() {
        let mut m = RunMetrics::new();
        m.charge(CostKind::ProbePair, 3);
        let json = serde_json::to_string(&m.finish()).unwrap();
        assert!(json.contains("\"cost_units\":6"), "{json}");
        assert!(json.contains("\"probe_pairs\":3"), "{json}");
    }
}
