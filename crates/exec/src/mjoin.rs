//! M-Join half-join operators (Figure 2a).
//!
//! An M-Join plan evaluates an m-way join without storing intermediate
//! results: tuples from each source travel along a linear path of `m − 1`
//! *half-join* operators, each holding the state of one other source. A
//! half-join has two inputs: the pipeline input carrying (possibly composite)
//! tuples to probe, and a maintenance input carrying the tuples of the source
//! whose state it owns.

use crate::operator::{DataMessage, OpContext, Operator, OperatorOutput, Port, LEFT, RIGHT};
use crate::state::{JoinKeySpec, OperatorState, StateIndexMode};
use jit_metrics::{CostKind, RunMetrics};
use jit_types::{PredicateSet, SourceSet, Window};
use serde::Content;

/// Port on which tuples to probe arrive.
pub const PROBE_PORT: Port = LEFT;
/// Port on which the state's own source tuples arrive.
pub const MAINTENANCE_PORT: Port = RIGHT;

/// A half-join: probes its single state with pipeline tuples and maintains
/// that state from its own source. It stores no intermediate results.
#[derive(Debug)]
pub struct HalfJoinOperator {
    name: String,
    pipeline_schema: SourceSet,
    state_schema: SourceSet,
    state: OperatorState,
    predicates: PredicateSet,
    window: Window,
    probe_spec: JoinKeySpec,
}

impl HalfJoinOperator {
    /// Create a half-join probing tuples covering `pipeline_schema` against
    /// the state of the source(s) in `state_schema`.
    pub fn new(
        name: impl Into<String>,
        pipeline_schema: SourceSet,
        state_schema: SourceSet,
        predicates: PredicateSet,
        window: Window,
    ) -> Self {
        let name = name.into();
        HalfJoinOperator {
            state: OperatorState::new(format!("{name}.S")),
            probe_spec: JoinKeySpec::between(&predicates, state_schema, pipeline_schema),
            name,
            pipeline_schema,
            state_schema,
            predicates,
            window,
        }
    }

    /// Select how the maintained state answers probes (default
    /// [`StateIndexMode::Hashed`]).
    pub fn with_state_index(mut self, mode: StateIndexMode) -> Self {
        self.state.set_index_mode(mode);
        self
    }

    /// Number of tuples currently in the maintained state.
    pub fn state_len(&self) -> usize {
        self.state.len()
    }
}

impl Operator for HalfJoinOperator {
    fn name(&self) -> &str {
        &self.name
    }

    fn output_schema(&self) -> SourceSet {
        self.pipeline_schema.union(self.state_schema)
    }

    fn num_ports(&self) -> usize {
        2
    }

    fn process(
        &mut self,
        port: Port,
        msg: &DataMessage,
        ctx: &mut OpContext<'_>,
    ) -> OperatorOutput {
        let now = ctx.now;
        let purged = self.state.purge(self.window, now);
        ctx.metrics.charge(CostKind::StatePurge, purged as u64);

        match port {
            MAINTENANCE_PORT => {
                // Maintain the state; produce nothing.
                self.state.insert(msg.tuple.clone(), now);
                ctx.metrics.charge(CostKind::StateInsert, 1);
                OperatorOutput::empty()
            }
            _ => {
                // Probe the state with the pipeline tuple; do not store it.
                // The scan baseline iterates the slab directly.
                ctx.metrics.stats.state_probes += 1;
                let mut results = Vec::new();
                let mut evals = 0u64;
                let window = self.window;
                let predicates = &self.predicates;
                {
                    let mut examine =
                        |entry: &crate::state::StoredTuple, metrics: &mut RunMetrics| {
                            metrics.charge(CostKind::ProbePair, 1);
                            if window.can_join(msg.tuple.ts(), entry.tuple.ts())
                                && predicates.join_matches(&msg.tuple, &entry.tuple, &mut evals)
                            {
                                // `join` fails exactly when the coverages overlap.
                                if let Ok(tuple) = msg.tuple.join(&entry.tuple) {
                                    metrics.charge(CostKind::ResultBuild, 1);
                                    results.push(DataMessage {
                                        tuple,
                                        marked: msg.marked,
                                    });
                                }
                            }
                        };
                    if self.state.index_mode() == StateIndexMode::Scan {
                        for entry in self.state.iter() {
                            examine(entry, ctx.metrics);
                        }
                    } else {
                        for seq in self.state.probe(&self.probe_spec, &msg.tuple) {
                            if let Some(entry) = self.state.get(seq) {
                                examine(entry, ctx.metrics);
                            }
                        }
                    }
                }
                ctx.metrics.charge(CostKind::PredicateEval, evals);
                OperatorOutput::with_results(results)
            }
        }
    }

    fn memory_bytes(&self) -> usize {
        self.state.size_bytes()
    }

    fn checkpoint(&self) -> Content {
        self.state.checkpoint()
    }

    fn restore(&mut self, state: &Content) -> Result<(), serde::Error> {
        self.state.restore_checkpoint(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jit_metrics::RunMetrics;
    use jit_types::{BaseTuple, Duration, SourceId, Timestamp, Tuple, Value};
    use std::sync::Arc;

    fn msg(source: u16, seq: u64, ts_ms: u64, vals: &[i64]) -> DataMessage {
        DataMessage::new(Tuple::from_base(Arc::new(BaseTuple::new(
            SourceId(source),
            seq,
            Timestamp::from_millis(ts_ms),
            vals.iter().map(|&v| Value::int(v)).collect(),
        ))))
    }

    fn half_join() -> HalfJoinOperator {
        // Probing A tuples against S_B under the 2-source clique predicate.
        HalfJoinOperator::new(
            "A⋉S_B",
            SourceSet::single(SourceId(0)),
            SourceSet::single(SourceId(1)),
            PredicateSet::clique(2),
            Window::new(Duration::from_secs(60)),
        )
    }

    #[test]
    fn maintenance_inserts_without_output() {
        let mut op = half_join();
        let mut metrics = RunMetrics::new();
        let mut ctx = OpContext::new(Timestamp::ZERO, &mut metrics);
        let out = op.process(MAINTENANCE_PORT, &msg(1, 0, 0, &[7]), &mut ctx);
        assert!(out.results.is_empty());
        assert_eq!(op.state_len(), 1);
        assert!(op.memory_bytes() > 0);
    }

    #[test]
    fn probe_joins_but_does_not_store() {
        let mut op = half_join();
        let mut metrics = RunMetrics::new();
        let mut ctx = OpContext::new(Timestamp::ZERO, &mut metrics);
        op.process(MAINTENANCE_PORT, &msg(1, 0, 0, &[7]), &mut ctx);
        op.process(MAINTENANCE_PORT, &msg(1, 1, 10, &[8]), &mut ctx);
        let mut ctx = OpContext::new(Timestamp::from_millis(100), &mut metrics);
        let out = op.process(PROBE_PORT, &msg(0, 0, 100, &[7]), &mut ctx);
        // One row: the probe tuple joined with its only partner, b0.
        assert_eq!(out.results.len(), 1);
        assert_eq!(
            out.results[0].tuple.key(),
            jit_types::TupleKey::from_iter([(0, 0), (1, 0)])
        );
        assert!(!out.results[0].marked);
        // The probe tuple is NOT inserted — the M-Join stores no intermediates.
        assert_eq!(op.state_len(), 2);
    }

    #[test]
    fn expired_state_tuples_are_purged_before_probing() {
        let mut op = half_join();
        let mut metrics = RunMetrics::new();
        let mut ctx = OpContext::new(Timestamp::ZERO, &mut metrics);
        op.process(MAINTENANCE_PORT, &msg(1, 0, 0, &[7]), &mut ctx);
        let mut ctx = OpContext::new(Timestamp::from_millis(120_000), &mut metrics);
        let out = op.process(PROBE_PORT, &msg(0, 0, 120_000, &[7]), &mut ctx);
        assert!(out.results.is_empty());
        assert_eq!(op.state_len(), 0);
    }

    #[test]
    fn schema_is_union() {
        let op = half_join();
        assert_eq!(op.output_schema(), SourceSet::first_n(2));
        assert_eq!(op.num_ports(), 2);
        assert!(op.name().contains('⋉'));
    }
}
