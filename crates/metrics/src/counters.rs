//! Execution event counters.

use serde::Serialize;
use std::ops::AddAssign;

/// Raw counts of the events that matter for the paper's analysis.
///
/// All counters are cumulative over one query execution. The interesting
/// derived quantities are:
///
/// * `intermediate_produced` — partial results generated by non-top operators
///   (what REF wastes work on);
/// * `intermediate_suppressed` — partial results JIT avoided generating;
/// * `probe_pairs` — tuple pairs examined during state probes (the dominant
///   CPU term under nested-loop joins);
/// * `feedback_*` — the overhead JIT pays for its savings.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ExecStats {
    /// Base tuples ingested from the sources.
    pub tuples_arrived: u64,
    /// Probe operations (one per input tuple per probed state).
    pub state_probes: u64,
    /// Tuple pairs examined while probing states.
    pub probe_pairs: u64,
    /// Individual equi-predicate evaluations.
    pub predicate_evals: u64,
    /// Tuples inserted into operator states.
    pub state_insertions: u64,
    /// Tuples removed from operator states by window purges.
    pub purged_tuples: u64,
    /// Partial (intermediate) results produced by non-top operators.
    pub intermediate_produced: u64,
    /// Partial results whose generation JIT suppressed.
    pub intermediate_suppressed: u64,
    /// Final results emitted by the top operator.
    pub results_emitted: u64,
    /// MNSs detected by consumers.
    pub mns_detected: u64,
    /// Suspension feedback messages sent.
    pub feedback_suspend: u64,
    /// Resumption feedback messages sent.
    pub feedback_resume: u64,
    /// Feedback messages propagated to upstream operators.
    pub feedback_propagated: u64,
    /// Tuples moved from an operator state into a blacklist.
    pub blacklisted_tuples: u64,
    /// Tuples moved back from a blacklist into an operator state.
    pub resumed_tuples: u64,
    /// Tuples enqueued on inter-operator queues.
    pub queued_tuples: u64,
    /// Probes against MNS buffers.
    pub mns_buffer_probes: u64,
    /// Lattice nodes visited by `Identify_MNS`.
    pub lattice_nodes_visited: u64,
    /// Bloom-filter membership checks.
    pub bloom_checks: u64,
    /// Scheduler tasks executed.
    pub tasks_executed: u64,
}

impl ExecStats {
    /// Total feedback messages of any kind sent.
    pub fn feedback_total(&self) -> u64 {
        self.feedback_suspend + self.feedback_resume
    }

    /// Fraction of intermediate results suppressed, in `[0, 1]`.
    ///
    /// Returns 0 when no intermediate results would have been produced.
    pub fn suppression_ratio(&self) -> f64 {
        let total = self.intermediate_produced + self.intermediate_suppressed;
        if total == 0 {
            0.0
        } else {
            self.intermediate_suppressed as f64 / total as f64
        }
    }
}

impl AddAssign for ExecStats {
    fn add_assign(&mut self, rhs: Self) {
        self.tuples_arrived += rhs.tuples_arrived;
        self.state_probes += rhs.state_probes;
        self.probe_pairs += rhs.probe_pairs;
        self.predicate_evals += rhs.predicate_evals;
        self.state_insertions += rhs.state_insertions;
        self.purged_tuples += rhs.purged_tuples;
        self.intermediate_produced += rhs.intermediate_produced;
        self.intermediate_suppressed += rhs.intermediate_suppressed;
        self.results_emitted += rhs.results_emitted;
        self.mns_detected += rhs.mns_detected;
        self.feedback_suspend += rhs.feedback_suspend;
        self.feedback_resume += rhs.feedback_resume;
        self.feedback_propagated += rhs.feedback_propagated;
        self.blacklisted_tuples += rhs.blacklisted_tuples;
        self.resumed_tuples += rhs.resumed_tuples;
        self.queued_tuples += rhs.queued_tuples;
        self.mns_buffer_probes += rhs.mns_buffer_probes;
        self.lattice_nodes_visited += rhs.lattice_nodes_visited;
        self.bloom_checks += rhs.bloom_checks;
        self.tasks_executed += rhs.tasks_executed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zero() {
        let s = ExecStats::default();
        assert_eq!(s.tuples_arrived, 0);
        assert_eq!(s.feedback_total(), 0);
        assert_eq!(s.suppression_ratio(), 0.0);
    }

    #[test]
    fn feedback_total_sums_all_kinds() {
        let s = ExecStats {
            feedback_suspend: 2,
            feedback_resume: 3,
            ..ExecStats::default()
        };
        assert_eq!(s.feedback_total(), 5);
    }

    #[test]
    fn suppression_ratio_bounds() {
        let s = ExecStats {
            intermediate_produced: 25,
            intermediate_suppressed: 75,
            ..ExecStats::default()
        };
        assert!((s.suppression_ratio() - 0.75).abs() < 1e-12);
        let all = ExecStats {
            intermediate_produced: 0,
            intermediate_suppressed: 10,
            ..ExecStats::default()
        };
        assert_eq!(all.suppression_ratio(), 1.0);
    }

    #[test]
    fn add_assign_merges_every_field() {
        let mut a = ExecStats {
            tuples_arrived: 1,
            probe_pairs: 2,
            results_emitted: 3,
            ..ExecStats::default()
        };
        let b = ExecStats {
            tuples_arrived: 10,
            probe_pairs: 20,
            results_emitted: 30,
            lattice_nodes_visited: 5,
            ..ExecStats::default()
        };
        a += b;
        assert_eq!(a.tuples_arrived, 11);
        assert_eq!(a.probe_pairs, 22);
        assert_eq!(a.results_emitted, 33);
        assert_eq!(a.lattice_nodes_visited, 5);
    }

    #[test]
    fn serialises_to_json() {
        let s = ExecStats {
            tuples_arrived: 4,
            ..ExecStats::default()
        };
        let json = serde_json::to_string(&s).unwrap();
        assert!(json.contains("\"tuples_arrived\":4"));
    }
}
