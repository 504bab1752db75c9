//! Selection (filter) operators.
//!
//! Section V (Figure 9a) uses a selection as the consumer of a join to show
//! that JIT consumers need not be joins. This module provides the plain
//! (REF) selection; the MNS-detecting variant lives in `jit-core`.

use crate::operator::{DataMessage, OpContext, Operator, OperatorOutput, Port};
use jit_metrics::CostKind;
use jit_types::{FilterPredicate, SourceSet};

/// A stateless filter that forwards only the tuples satisfying its predicate.
#[derive(Debug)]
pub struct SelectionOperator {
    name: String,
    predicate: FilterPredicate,
    input_schema: SourceSet,
}

impl SelectionOperator {
    /// Create a selection over inputs covering `input_schema`.
    pub fn new(
        name: impl Into<String>,
        predicate: FilterPredicate,
        input_schema: SourceSet,
    ) -> Self {
        SelectionOperator {
            name: name.into(),
            predicate,
            input_schema,
        }
    }
}

impl Operator for SelectionOperator {
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
        // A tuple that does not cover the filtered column cannot satisfy the
        // filter; treat "not applicable" as rejection.
        if self.predicate.holds_on(&msg.tuple).unwrap_or(false) {
            OperatorOutput::with_results(vec![msg.clone()])
        } else {
            OperatorOutput::empty()
        }
    }

    fn memory_bytes(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jit_metrics::RunMetrics;
    use jit_types::{BaseTuple, ColumnRef, SourceId, Timestamp, Tuple, Value};
    use std::sync::Arc;

    fn msg(val: i64) -> DataMessage {
        DataMessage::new(Tuple::from_base(Arc::new(BaseTuple::new(
            SourceId(0),
            0,
            Timestamp::ZERO,
            vec![Value::int(val)],
        ))))
    }

    fn selection() -> SelectionOperator {
        // σ A.x0 > 200, as in Figure 9a.
        SelectionOperator::new(
            "σ A.x0>200",
            FilterPredicate::gt(ColumnRef::new(SourceId(0), 0), 200),
            SourceSet::single(SourceId(0)),
        )
    }

    #[test]
    fn passes_matching_tuples() {
        let mut op = selection();
        let mut metrics = RunMetrics::new();
        let mut ctx = OpContext::new(Timestamp::ZERO, &mut metrics);
        let out = op.process(0, &msg(250), &mut ctx);
        assert_eq!(out.results.len(), 1);
    }

    #[test]
    fn drops_non_matching_tuples() {
        let mut op = selection();
        let mut metrics = RunMetrics::new();
        let mut ctx = OpContext::new(Timestamp::ZERO, &mut metrics);
        assert!(op.process(0, &msg(150), &mut ctx).results.is_empty());
        assert_eq!(metrics.stats.predicate_evals, 1);
    }

    #[test]
    fn not_applicable_is_rejected() {
        let mut op = selection();
        let mut metrics = RunMetrics::new();
        let mut ctx = OpContext::new(Timestamp::ZERO, &mut metrics);
        // Tuple from a different source: the filter column is absent.
        let other = DataMessage::new(Tuple::from_base(Arc::new(BaseTuple::new(
            SourceId(3),
            0,
            Timestamp::ZERO,
            vec![Value::int(999)],
        ))));
        assert!(op.process(0, &other, &mut ctx).results.is_empty());
    }

    #[test]
    fn metadata() {
        let op = selection();
        assert_eq!(op.num_ports(), 1);
        assert_eq!(op.memory_bytes(), 0);
        assert_eq!(op.output_schema(), SourceSet::single(SourceId(0)));
        assert!(op.name().contains('σ'));
        assert!(op.predicate.holds_on(&msg(300).tuple).unwrap());
    }
}
