//! JIT-aware non-join consumers (Section V, Figure 9).
//!
//! A consumer does not need to be a join to benefit from JIT — it only needs
//! to detect MNSs. Two cases from the paper:
//!
//! * a **selection** (`σ A.x > 200`, Figure 9a): an input whose filtered
//!   component fails the predicate will never pass, no matter what arrives
//!   later, so that component is an MNS and the feedback is suspension-only;
//! * a **stream ⋈ static relation** (Figure 9b): components with no partner
//!   in the static relation can never obtain one, so again suspension-only
//!   feedback is issued.
//!
//! Neither consumer ever sends resumption feedback, which is why the paper
//! notes the producer may simply delete the suppressed tuples.

use crate::lattice::CnsLattice;
use jit_exec::operator::{DataMessage, OpContext, Operator, OperatorOutput, Port, LEFT};
use jit_metrics::CostKind;
use jit_types::{
    BaseTuple, FastSet, Feedback, FilterPredicate, PredicateSet, SourceId, SourceSet, Tuple,
};
use std::sync::Arc;

/// A selection that reports the failing component as an MNS to its producer.
pub struct JitSelectionOperator {
    name: String,
    predicate: FilterPredicate,
    input_schema: SourceSet,
    reported: FastSet<jit_types::TupleKey>,
    reported_bytes: usize,
}

impl JitSelectionOperator {
    /// Create a JIT selection over inputs covering `input_schema`.
    pub fn new(
        name: impl Into<String>,
        predicate: FilterPredicate,
        input_schema: SourceSet,
    ) -> Self {
        JitSelectionOperator {
            name: name.into(),
            predicate,
            input_schema,
            reported: FastSet::default(),
            reported_bytes: 0,
        }
    }

    /// Number of distinct MNSs reported so far.
    #[cfg(test)]
    fn reported_count(&self) -> usize {
        self.reported.len()
    }
}

impl Operator for JitSelectionOperator {
    fn name(&self) -> &str {
        &self.name
    }

    fn output_schema(&self) -> SourceSet {
        self.input_schema
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
        ctx.metrics.charge(CostKind::PredicateEval, 1);
        if self.predicate.holds_on(&msg.tuple).unwrap_or(false) {
            return OperatorOutput::with_results(vec![msg.clone()]);
        }
        // The component carrying the filtered column is non-demanded forever.
        let failing = msg
            .tuple
            .project(SourceSet::single(self.predicate.column.source));
        let mut output = OperatorOutput::empty();
        if !failing.is_empty() && self.reported.insert(failing.key()) {
            self.reported_bytes += failing.size_bytes();
            ctx.metrics.stats.mns_detected += 1;
            output
                .feedback
                .push((LEFT, Feedback::suspend(vec![failing])));
        }
        output
    }

    fn memory_bytes(&self) -> usize {
        self.reported_bytes
    }
}

/// A stream–static-relation join that reports stream components with no
/// partner in the relation as MNSs.
pub struct JitStaticJoinOperator {
    name: String,
    input_schema: SourceSet,
    relation_source: SourceId,
    relation: Vec<Arc<BaseTuple>>,
    relation_bytes: usize,
    predicates: PredicateSet,
    reported: FastSet<jit_types::TupleKey>,
    reported_bytes: usize,
}

impl JitStaticJoinOperator {
    /// Create the operator over the given static relation.
    pub fn new(
        name: impl Into<String>,
        input_schema: SourceSet,
        relation_source: SourceId,
        relation: Vec<Arc<BaseTuple>>,
        predicates: PredicateSet,
    ) -> Self {
        let relation_bytes = relation.iter().map(|t| t.size_bytes()).sum();
        JitStaticJoinOperator {
            name: name.into(),
            input_schema,
            relation_source,
            relation,
            relation_bytes,
            predicates,
            reported: FastSet::default(),
            reported_bytes: 0,
        }
    }
}

impl Operator for JitStaticJoinOperator {
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
        let rel_schema = SourceSet::single(self.relation_source);
        let candidates = self
            .predicates
            .sources_facing(msg.tuple.sources(), rel_schema);
        let mut lattice = if candidates.is_empty() || self.relation.is_empty() {
            None
        } else {
            Some(CnsLattice::new(candidates))
        };
        ctx.metrics.stats.state_probes += 1;
        let mut results = Vec::new();
        let mut evals = 0u64;
        for rel_tuple in &self.relation {
            ctx.metrics.charge(CostKind::ProbePair, 1);
            let rel = Tuple::from_base(rel_tuple.clone());
            // Per-component matching feeds the lattice and the join result.
            let mut matched = SourceSet::EMPTY;
            for source in candidates.iter() {
                let component = msg.tuple.project(SourceSet::single(source));
                let mut ok = true;
                for p in self.predicates.predicates() {
                    if p.spans(SourceSet::single(source), rel_schema) {
                        evals += 1;
                        if p.holds_across(&component, &rel) == Some(false) {
                            ok = false;
                            break;
                        }
                    }
                }
                if ok {
                    matched.insert(source);
                }
            }
            if let Some(l) = lattice.as_mut() {
                l.observe(matched, ctx.metrics);
            }
            if matched == candidates {
                // `join` fails exactly when the coverages overlap.
                if let Ok(tuple) = msg.tuple.join(&rel) {
                    ctx.metrics.charge(CostKind::ResultBuild, 1);
                    results.push(DataMessage::new(tuple));
                }
            }
        }
        ctx.metrics.charge(CostKind::PredicateEval, evals);

        // Report MNSs; the relation never changes, so suspension is final.
        let detected: Vec<Tuple> = if self.relation.is_empty() {
            vec![Tuple::empty()]
        } else {
            lattice
                .map(|l| {
                    l.minimal_alive()
                        .into_iter()
                        .map(|s| msg.tuple.project(s))
                        .collect()
                })
                .unwrap_or_default()
        };
        let mut fresh = Vec::new();
        for mns in detected {
            if self.reported.insert(mns.key()) {
                self.reported_bytes += mns.size_bytes();
                ctx.metrics.stats.mns_detected += 1;
                fresh.push(mns);
            }
        }
        let mut output = OperatorOutput::with_results(results);
        if !fresh.is_empty() {
            output.feedback.push((LEFT, Feedback::suspend(fresh)));
        }
        output
    }

    fn memory_bytes(&self) -> usize {
        self.relation_bytes + self.reported_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jit_metrics::RunMetrics;
    use jit_types::{ColumnRef, EquiPredicate, FeedbackCommand, Timestamp, Value};

    fn a_msg(seq: u64, x: i64) -> DataMessage {
        DataMessage::new(Tuple::from_base(Arc::new(BaseTuple::new(
            SourceId(0),
            seq,
            Timestamp::from_millis(seq * 10),
            vec![Value::int(x)],
        ))))
    }

    fn ab_msg(a_seq: u64, x: i64, b_seq: u64) -> DataMessage {
        let a = Tuple::from_base(Arc::new(BaseTuple::new(
            SourceId(0),
            a_seq,
            Timestamp::from_millis(a_seq * 10),
            vec![Value::int(x)],
        )));
        let b = Tuple::from_base(Arc::new(BaseTuple::new(
            SourceId(1),
            b_seq,
            Timestamp::from_millis(b_seq * 10),
            vec![Value::int(1)],
        )));
        DataMessage::new(a.join(&b).unwrap())
    }

    #[test]
    fn selection_passes_and_suspends() {
        let mut op = JitSelectionOperator::new(
            "σ A.x0>200",
            FilterPredicate::gt(ColumnRef::new(SourceId(0), 0), 200),
            SourceSet::first_n(2),
        );
        let mut metrics = RunMetrics::new();
        let mut ctx = OpContext::new(Timestamp::ZERO, &mut metrics);
        // Passing tuple: forwarded, no feedback.
        let out = op.process(0, &ab_msg(1, 500, 1), &mut ctx);
        assert_eq!(out.results.len(), 1);
        assert!(out.feedback.is_empty());
        // Failing tuple: dropped, the A component is reported once.
        let out = op.process(0, &ab_msg(2, 100, 1), &mut ctx);
        assert!(out.results.is_empty());
        assert_eq!(out.feedback.len(), 1);
        assert_eq!(out.feedback[0].1.command, FeedbackCommand::Suspend);
        assert_eq!(
            out.feedback[0].1.mns_set[0].sources(),
            SourceSet::single(SourceId(0))
        );
        // The same failing component is not reported twice.
        let out = op.process(0, &ab_msg(2, 100, 2), &mut ctx);
        assert!(out.feedback.is_empty());
        assert_eq!(op.reported_count(), 1);
        assert!(op.memory_bytes() > 0);
    }

    #[test]
    fn static_join_joins_and_suspends_missing_components() {
        // Relation R_C over source 2 with values {1, 2}; predicate A.x0 = C.x0.
        let relation = vec![
            Arc::new(BaseTuple::new(
                SourceId(2),
                0,
                Timestamp::ZERO,
                vec![Value::int(1)],
            )),
            Arc::new(BaseTuple::new(
                SourceId(2),
                1,
                Timestamp::ZERO,
                vec![Value::int(2)],
            )),
        ];
        let preds = PredicateSet::from_predicates(vec![EquiPredicate::new(
            ColumnRef::new(SourceId(0), 0),
            ColumnRef::new(SourceId(2), 0),
        )]);
        let mut op = JitStaticJoinOperator::new(
            "⋈ R_C",
            SourceSet::single(SourceId(0)),
            SourceId(2),
            relation,
            preds,
        );
        let mut metrics = RunMetrics::new();
        let mut ctx = OpContext::new(Timestamp::ZERO, &mut metrics);
        // Matching stream tuple joins, no feedback.
        let out = op.process(0, &a_msg(1, 2), &mut ctx);
        // One row: a1 joined with the relation tuple carrying x = 2.
        assert_eq!(out.results.len(), 1);
        assert_eq!(
            out.results[0].tuple.key(),
            jit_types::TupleKey::from_iter([(0, 1), (2, 1)])
        );
        assert!(out.feedback.is_empty());
        // Non-matching tuple: no results, suspension naming the component.
        let out = op.process(0, &a_msg(2, 9), &mut ctx);
        assert!(out.results.is_empty());
        assert_eq!(out.feedback.len(), 1);
        assert_eq!(out.feedback[0].1.command, FeedbackCommand::Suspend);
        assert_eq!(
            op.output_schema(),
            SourceSet::from_iter([SourceId(0), SourceId(2)])
        );
        assert!(op.memory_bytes() > 0);
    }

    #[test]
    fn static_join_with_empty_relation_reports_empty_mns() {
        let preds = PredicateSet::new();
        let mut op = JitStaticJoinOperator::new(
            "⋈ ∅",
            SourceSet::single(SourceId(0)),
            SourceId(2),
            Vec::new(),
            preds,
        );
        let mut metrics = RunMetrics::new();
        let mut ctx = OpContext::new(Timestamp::ZERO, &mut metrics);
        let out = op.process(0, &a_msg(1, 1), &mut ctx);
        assert!(out.results.is_empty());
        assert_eq!(out.feedback.len(), 1);
        assert!(out.feedback[0].1.mns_set[0].is_empty());
        // Reported only once.
        let out = op.process(0, &a_msg(2, 1), &mut ctx);
        assert!(out.feedback.is_empty());
    }
}
