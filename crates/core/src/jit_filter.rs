//! A JIT-aware non-join consumer (Section V, Figure 9a).
//!
//! A consumer does not need to be a join to benefit from JIT — it only needs
//! to detect MNSs. For a **selection** (`σ A.x > 200`), an input whose
//! filtered component fails the predicate will never pass, no matter what
//! arrives later, so that component is an MNS and the feedback is
//! suspension-only. The selection never sends resumption feedback, which is
//! why the paper notes the producer may simply delete the suppressed tuples.

use jit_exec::operator::{DataMessage, OpContext, Operator, OperatorOutput, Port, LEFT};
use jit_metrics::CostKind;
use jit_types::{FastSet, Feedback, FilterPredicate, SourceSet};

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

#[cfg(test)]
mod tests {
    use super::*;
    use jit_metrics::RunMetrics;
    use jit_types::{BaseTuple, ColumnRef, FeedbackCommand, SourceId, Timestamp, Tuple, Value};
    use std::sync::Arc;

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
}
