//! Join of a stream with a static relation.
//!
//! Section V (Figure 9b) has the consumer `Op2` join the producer's output
//! with a static relation `R_C` instead of another stream. The relation never
//! changes, so such a consumer can issue suspension feedback but never needs
//! resumption.

use crate::operator::{DataMessage, OpContext, Operator, OperatorOutput, Port};
use crate::state::{HashIndex, JoinKeySpec, StateIndexMode};
use jit_metrics::CostKind;
use jit_types::{BaseTuple, PredicateSet, SourceId, SourceSet, Tuple};
use std::sync::Arc;

/// Joins each streaming input tuple against a fixed, in-memory relation.
///
/// The relation never changes, so under [`StateIndexMode::Hashed`] (the
/// default) it is hash-partitioned once at construction on the equi-join key
/// facing the stream; probes then touch only the matching partition.
/// Relation tuples missing a key column are kept aside and scanned by every
/// probe, and a probe missing a key value falls back to the full scan —
/// exactly the [`crate::state::OperatorState`] fallback semantics.
#[derive(Debug)]
pub struct StaticJoinOperator {
    name: String,
    input_schema: SourceSet,
    relation_source: SourceId,
    relation: Vec<Arc<BaseTuple>>,
    relation_bytes: usize,
    predicates: PredicateSet,
    mode: StateIndexMode,
    probe_spec: JoinKeySpec,
    /// Relation positions (as handles) bucketed by their equi-join key,
    /// built once — the relation never changes.
    index: HashIndex,
}

impl StaticJoinOperator {
    /// Create the operator. `relation` plays the role of `R_C`; its tuples
    /// must all come from `relation_source`.
    pub fn new(
        name: impl Into<String>,
        input_schema: SourceSet,
        relation_source: SourceId,
        relation: Vec<Arc<BaseTuple>>,
        predicates: PredicateSet,
    ) -> Self {
        let relation_bytes = relation.iter().map(|t| t.size_bytes()).sum();
        let probe_spec = JoinKeySpec::between(
            &predicates,
            SourceSet::single(relation_source),
            input_schema,
        );
        let mut op = StaticJoinOperator {
            name: name.into(),
            input_schema,
            relation_source,
            relation,
            relation_bytes,
            predicates,
            mode: StateIndexMode::Hashed,
            probe_spec,
            index: HashIndex::default(),
        };
        op.rebuild_index();
        op
    }

    /// Select how the relation answers probes (default
    /// [`StateIndexMode::Hashed`]).
    pub fn with_state_index(mut self, mode: StateIndexMode) -> Self {
        self.mode = mode;
        self.rebuild_index();
        self
    }

    fn rebuild_index(&mut self) {
        self.index.clear();
        if self.mode == StateIndexMode::Scan || self.probe_spec.is_empty() {
            return;
        }
        let mut scratch = Vec::with_capacity(self.probe_spec.len());
        for (pos, rel_tuple) in self.relation.iter().enumerate() {
            let tuple = Tuple::from_base(rel_tuple.clone());
            self.index
                .file_with(&self.probe_spec, &tuple, pos as u64, &mut scratch);
        }
    }

    /// Positions of the candidate relation tuples for one probe, ascending.
    fn candidate_positions(&self, probe: &Tuple) -> Vec<usize> {
        if self.mode == StateIndexMode::Scan || self.probe_spec.is_empty() {
            return (0..self.relation.len()).collect();
        }
        let Some(key) = self.probe_spec.probe_key(probe) else {
            return (0..self.relation.len()).collect();
        };
        self.index
            .candidates(&key)
            .into_iter()
            .map(|handle| handle as usize)
            .collect()
    }

    /// Number of tuples in the static relation.
    pub fn relation_len(&self) -> usize {
        self.relation.len()
    }
}

impl Operator for StaticJoinOperator {
    fn name(&self) -> &str {
        &self.name
    }

    fn output_schema(&self) -> SourceSet {
        self.input_schema
            .union(SourceSet::single(self.relation_source))
    }

    fn num_ports(&self) -> usize {
        1
    }

    fn process(
        &mut self,
        _port: Port,
        msg: &DataMessage,
        ctx: &mut OpContext<'_>,
    ) -> OperatorOutput {
        ctx.metrics.stats.state_probes += 1;
        let mut results = Vec::new();
        let mut evals = 0u64;
        for pos in self.candidate_positions(&msg.tuple) {
            ctx.metrics.charge(CostKind::ProbePair, 1);
            let rel = Tuple::from_base(self.relation[pos].clone());
            if self.predicates.join_matches(&msg.tuple, &rel, &mut evals) {
                if let Ok(joined) = msg.tuple.join(&rel) {
                    ctx.metrics.charge(CostKind::ResultBuild, 1);
                    results.push(DataMessage {
                        tuple: joined,
                        marked: msg.marked,
                    });
                }
            }
        }
        ctx.metrics.charge(CostKind::PredicateEval, evals);
        OperatorOutput::with_results(results)
    }

    fn memory_bytes(&self) -> usize {
        self.relation_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jit_metrics::RunMetrics;
    use jit_types::{ColumnRef, EquiPredicate, Timestamp, Value};

    fn rel_tuple(seq: u64, val: i64) -> Arc<BaseTuple> {
        Arc::new(BaseTuple::new(
            SourceId(2),
            seq,
            Timestamp::ZERO,
            vec![Value::int(val)],
        ))
    }

    fn stream_msg(val: i64) -> DataMessage {
        DataMessage::new(Tuple::from_base(Arc::new(BaseTuple::new(
            SourceId(0),
            0,
            Timestamp::from_millis(10),
            vec![Value::int(val)],
        ))))
    }

    fn operator() -> StaticJoinOperator {
        // Predicate A.x0 = C.x0; relation holds values 1, 2, 2.
        StaticJoinOperator::new(
            "⋈ R_C",
            SourceSet::single(SourceId(0)),
            SourceId(2),
            vec![rel_tuple(0, 1), rel_tuple(1, 2), rel_tuple(2, 2)],
            PredicateSet::from_predicates(vec![EquiPredicate::new(
                ColumnRef::new(SourceId(0), 0),
                ColumnRef::new(SourceId(2), 0),
            )]),
        )
    }

    #[test]
    fn joins_against_every_matching_relation_tuple() {
        let mut op = operator();
        let mut metrics = RunMetrics::new();
        let mut ctx = OpContext::new(Timestamp::from_millis(10), &mut metrics);
        let out = op.process(0, &stream_msg(2), &mut ctx);
        assert_eq!(out.results.len(), 2);
        assert!(out.results.iter().all(|r| r.tuple.num_parts() == 2));
    }

    #[test]
    fn no_match_no_results() {
        let mut op = operator();
        let mut metrics = RunMetrics::new();
        let mut ctx = OpContext::new(Timestamp::from_millis(10), &mut metrics);
        let out = op.process(0, &stream_msg(7), &mut ctx);
        assert!(out.results.is_empty());
        // The hash partition for value 7 is empty — no pairs examined.
        assert_eq!(metrics.stats.probe_pairs, 0);
        // The scan baseline examines the whole relation.
        let mut op = operator().with_state_index(crate::state::StateIndexMode::Scan);
        let mut metrics = RunMetrics::new();
        let mut ctx = OpContext::new(Timestamp::from_millis(10), &mut metrics);
        let out = op.process(0, &stream_msg(7), &mut ctx);
        assert!(out.results.is_empty());
        assert_eq!(metrics.stats.probe_pairs, 3);
    }

    #[test]
    fn metadata_and_memory() {
        let op = operator();
        assert_eq!(op.relation_len(), 3);
        assert_eq!(op.num_ports(), 1);
        assert!(op.memory_bytes() > 0);
        assert_eq!(
            op.output_schema(),
            SourceSet::from_iter([SourceId(0), SourceId(2)])
        );
    }
}
