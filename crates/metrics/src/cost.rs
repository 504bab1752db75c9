//! Deterministic CPU cost model and wall-clock timing.
//!
//! The paper reports CPU seconds on a specific 2008-era machine. To make the
//! JIT vs REF comparison reproducible on any hardware, the substrate charges
//! every elementary operation (tuple comparison, state insertion, feedback
//! handling, …) a fixed number of abstract *cost units*. The ratio between
//! two executions' cost totals tracks the ratio of their real CPU times,
//! because both systems execute the same kinds of elementary operations —
//! only in different quantities. Wall-clock time is captured alongside.

use serde::{Deserialize, Serialize};
use std::time::Instant;

/// The elementary operations charged by the cost model.
///
/// `RunMetrics::charge` also adds the charged count to the `ExecStats`
/// field named on each variant, so call sites never count those events
/// themselves. `ResultBuild`, `FeedbackHandle` and `BlacklistMove` feed no
/// statistic through `charge`: their counters depend on something the kind
/// does not carry, and the call sites keep explicit `stats` statements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CostKind {
    /// Examining one *candidate* stored tuple while probing a state: every
    /// live tuple under a nested-loop scan, only the hash partition (plus
    /// unindexable overflow) under indexed states. Charged once per
    /// candidate actually examined. Feeds `probe_pairs`.
    ProbePair,
    /// Evaluating one equi-join or filter predicate. Feeds
    /// `predicate_evals`.
    PredicateEval,
    /// Materialising one (partial or final) result tuple. No statistic:
    /// whether it counts as `intermediate_produced` or `results_emitted` is
    /// decided where the result is routed, not where it is built.
    ResultBuild,
    /// Inserting a tuple into an operator state. Feeds `state_insertions`.
    StateInsert,
    /// Removing an expired tuple from an operator state. Feeds
    /// `purged_tuples`.
    StatePurge,
    /// Enqueuing / dequeuing a tuple on an inter-operator queue. Feeds
    /// `queued_tuples`.
    QueueOp,
    /// Probing an MNS buffer entry. Feeds `mns_buffer_probes`.
    MnsBufferProbe,
    /// Visiting a node of the CNS lattice during `Identify_MNS`. Feeds
    /// `lattice_nodes_visited`.
    LatticeNode,
    /// One Bloom filter hash-and-test. Feeds `bloom_checks`.
    BloomCheck,
    /// Creating or handling one feedback message. No statistic: the
    /// `feedback_*` counters are per command and counted where the message
    /// is sent.
    FeedbackHandle,
    /// Moving one tuple between a state and a blacklist (either direction).
    /// No statistic: the direction picks `blacklisted_tuples` or
    /// `resumed_tuples`.
    BlacklistMove,
    /// Scheduler task dispatch overhead. Feeds `tasks_executed`.
    TaskDispatch,
}

/// Weights (in abstract units) for each [`CostKind`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Cost of a nested-loop probe step.
    pub probe_pair: u64,
    /// Cost of one predicate evaluation.
    pub predicate_eval: u64,
    /// Cost of materialising a result.
    pub result_build: u64,
    /// Cost of a state insertion.
    pub state_insert: u64,
    /// Cost of purging one tuple.
    pub state_purge: u64,
    /// Cost of a queue operation.
    pub queue_op: u64,
    /// Cost of probing one MNS buffer entry.
    pub mns_buffer_probe: u64,
    /// Cost of visiting one lattice node.
    pub lattice_node: u64,
    /// Cost of one Bloom filter check.
    pub bloom_check: u64,
    /// Cost of handling one feedback message.
    pub feedback_handle: u64,
    /// Cost of one blacklist move.
    pub blacklist_move: u64,
    /// Cost of dispatching one scheduler task.
    pub task_dispatch: u64,
}

impl Default for CostModel {
    /// Weights roughly proportional to the work each operation performs in
    /// the substrate: building and inserting tuples is more expensive than a
    /// comparison; bookkeeping operations are cheap.
    fn default() -> Self {
        CostModel {
            probe_pair: 2,
            predicate_eval: 1,
            result_build: 6,
            state_insert: 3,
            state_purge: 2,
            queue_op: 1,
            mns_buffer_probe: 2,
            lattice_node: 1,
            bloom_check: 1,
            feedback_handle: 4,
            blacklist_move: 3,
            task_dispatch: 1,
        }
    }
}

impl CostModel {
    /// The weight for a given operation kind.
    #[inline]
    pub fn weight(&self, kind: CostKind) -> u64 {
        match kind {
            CostKind::ProbePair => self.probe_pair,
            CostKind::PredicateEval => self.predicate_eval,
            CostKind::ResultBuild => self.result_build,
            CostKind::StateInsert => self.state_insert,
            CostKind::StatePurge => self.state_purge,
            CostKind::QueueOp => self.queue_op,
            CostKind::MnsBufferProbe => self.mns_buffer_probe,
            CostKind::LatticeNode => self.lattice_node,
            CostKind::BloomCheck => self.bloom_check,
            CostKind::FeedbackHandle => self.feedback_handle,
            CostKind::BlacklistMove => self.blacklist_move,
            CostKind::TaskDispatch => self.task_dispatch,
        }
    }
}

/// Accumulates cost units and wall-clock time over one execution.
#[derive(Debug, Clone)]
pub struct CostTracker {
    model: CostModel,
    total_units: u64,
    started: Instant,
    wall_seconds: f64,
}

impl Default for CostTracker {
    fn default() -> Self {
        CostTracker::new(CostModel::default())
    }
}

impl CostTracker {
    /// Create a tracker using the given weights; the wall clock starts now.
    pub fn new(model: CostModel) -> Self {
        CostTracker {
            model,
            total_units: 0,
            #[expect(
                clippy::disallowed_methods,
                reason = "wall-clock throughput reporting is this crate's purpose; the reading never reaches the data plane"
            )]
            started: Instant::now(),
            wall_seconds: 0.0,
        }
    }

    /// Charge `count` operations of the given kind.
    #[inline]
    pub fn charge(&mut self, kind: CostKind, count: u64) {
        self.total_units += self.model.weight(kind) * count;
    }

    /// Total abstract cost units charged so far.
    pub fn total_units(&self) -> u64 {
        self.total_units
    }

    /// Freeze the wall clock (call once at the end of the run).
    pub fn stop_wall_clock(&mut self) {
        self.wall_seconds = self.started.elapsed().as_secs_f64();
    }

    /// Wall-clock seconds between construction and [`CostTracker::stop_wall_clock`]
    /// (or until now, if the clock was never stopped).
    pub fn wall_seconds(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.wall_seconds
        } else {
            self.started.elapsed().as_secs_f64()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_weights_are_positive() {
        let m = CostModel::default();
        for kind in [
            CostKind::ProbePair,
            CostKind::PredicateEval,
            CostKind::ResultBuild,
            CostKind::StateInsert,
            CostKind::StatePurge,
            CostKind::QueueOp,
            CostKind::MnsBufferProbe,
            CostKind::LatticeNode,
            CostKind::BloomCheck,
            CostKind::FeedbackHandle,
            CostKind::BlacklistMove,
            CostKind::TaskDispatch,
        ] {
            assert!(m.weight(kind) > 0, "{kind:?}");
        }
    }

    #[test]
    fn charge_accumulates_weighted_units() {
        let mut t = CostTracker::default();
        t.charge(CostKind::ProbePair, 10);
        t.charge(CostKind::ResultBuild, 1);
        let expected = CostModel::default().probe_pair * 10 + CostModel::default().result_build;
        assert_eq!(t.total_units(), expected);
    }

    #[test]
    fn charging_zero_is_free() {
        let mut t = CostTracker::default();
        t.charge(CostKind::FeedbackHandle, 0);
        assert_eq!(t.total_units(), 0);
    }

    #[test]
    fn wall_clock_monotone() {
        let mut t = CostTracker::default();
        let first = t.wall_seconds();
        t.stop_wall_clock();
        let stopped = t.wall_seconds();
        assert!(stopped >= first);
        // After stopping, the value is frozen.
        assert_eq!(t.wall_seconds(), stopped);
    }

    #[test]
    fn custom_model_changes_totals() {
        let cheap = CostModel {
            probe_pair: 1,
            ..CostModel::default()
        };
        let costly = CostModel {
            probe_pair: 100,
            ..CostModel::default()
        };
        let mut a = CostTracker::new(cheap);
        let mut b = CostTracker::new(costly);
        a.charge(CostKind::ProbePair, 5);
        b.charge(CostKind::ProbePair, 5);
        assert!(b.total_units() > a.total_units());
    }
}
