//! The operator abstraction.
//!
//! Operators are the nodes of an execution plan. They receive
//! [`DataMessage`]s on numbered input ports, may produce result messages for
//! their consumers, and may send [`Feedback`] to the producer feeding one of
//! their ports. Producers in turn handle feedback via
//! [`Operator::handle_feedback`], possibly emitting *resumed* results and
//! propagating feedback further upstream (Section III-C of the paper).

use jit_metrics::RunMetrics;
use jit_types::{BaseTuple, Feedback, SourceId, SourceSet, Timestamp, Tuple};
use serde::Content;
use std::fmt;
use std::sync::Arc;

/// Index of an operator input port. Binary operators use [`LEFT`] and
/// [`RIGHT`]; a unary operator (a selection) reads port 0.
pub type Port = usize;

/// The left input port of a binary operator.
pub const LEFT: Port = 0;
/// The right input port of a binary operator.
pub const RIGHT: Port = 1;

/// Identifier of an operator within an [`crate::plan::ExecutablePlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OperatorId(pub usize);

impl fmt::Display for OperatorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Op{}", self.0)
    }
}

/// A tuple flowing downstream from a producer to a consumer: the tuple and
/// nothing else.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataMessage {
    /// The (possibly composite) tuple.
    pub tuple: Tuple,
}

impl DataMessage {
    /// A data message carrying `tuple`.
    pub fn new(tuple: Tuple) -> Self {
        DataMessage { tuple }
    }

    /// Approximate footprint in bytes (for queue accounting).
    pub fn size_bytes(&self) -> usize {
        self.tuple.size_bytes()
    }
}

/// Per-source component columns for the matches of one operator call:
/// `columns[c][r]` is row `r`'s component from `sources[c]`.
///
/// No operator or executor code uses this: results are assembled as rows by
/// [`Tuple::join`]. The type and its four methods are retained solely for
/// `bench_e2e/src/layers.rs`, which times [`ResultBlock::push_join`] for
/// the `exec.result_assembly_ns_per_row` layer metric.
#[derive(Debug, Default, Clone)]
pub struct ResultBlock {
    /// One component column per covered source, sources ascending, all of
    /// equal length; fixed by the first pushed match.
    columns: Vec<(SourceId, Vec<Arc<BaseTuple>>)>,
    /// Per row: the result timestamp (max component timestamp).
    rows: Vec<Timestamp>,
}

impl ResultBlock {
    /// An empty block.
    pub fn new() -> Self {
        ResultBlock::default()
    }

    /// Number of result rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Is the block empty?
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Append the join of two tuples with disjoint source coverage:
    /// components are distributed to their source columns. The `bool` is
    /// ignored; it stays only because the layer drive passes one.
    pub fn push_join(&mut self, a: &Tuple, b: &Tuple, _: bool) {
        debug_assert!(a.sources().is_disjoint(b.sources()));
        let mut ai = a.parts().iter().peekable();
        let mut bi = b.parts().iter().peekable();
        if self.columns.is_empty() {
            // First match fixes the layout: merge the two sorted part lists.
            self.columns.reserve_exact(a.num_parts() + b.num_parts());
            while ai.peek().is_some() || bi.peek().is_some() {
                let from_a = match (ai.peek(), bi.peek()) {
                    (Some(x), Some(y)) => x.source < y.source,
                    (Some(_), None) => true,
                    _ => false,
                };
                let part = if from_a {
                    #[expect(
                        clippy::expect_used,
                        reason = "INVARIANT: from_a is true only when ai peeked Some."
                    )]
                    ai.next().expect("peeked")
                } else {
                    #[expect(
                        clippy::expect_used,
                        reason = "INVARIANT: the loop condition plus !from_a imply bi peeked Some."
                    )]
                    bi.next().expect("peeked")
                };
                self.columns.push((part.source, vec![part.clone()]));
            }
        } else {
            for (source, column) in &mut self.columns {
                #[expect(
                    clippy::panic,
                    reason = "INVARIANT: join results only combine blocks covering the operator's schema; a missing source is a planner bug, so stop loudly."
                )]
                let part = if ai.peek().is_some_and(|p| p.source == *source) {
                    #[expect(
                        clippy::expect_used,
                        reason = "INVARIANT: the branch condition peeked Some on ai."
                    )]
                    ai.next().expect("peeked")
                } else if bi.peek().is_some_and(|p| p.source == *source) {
                    #[expect(
                        clippy::expect_used,
                        reason = "INVARIANT: the branch condition peeked Some on bi."
                    )]
                    bi.next().expect("peeked")
                } else {
                    panic!("match does not cover block source {source}");
                };
                column.push(part.clone());
            }
            debug_assert!(ai.next().is_none() && bi.next().is_none());
        }
        self.rows.push(a.ts().max(b.ts()));
    }
}

/// Everything an operator returns from processing one input message.
#[derive(Debug, Default, Clone)]
pub struct OperatorOutput {
    /// Result messages to forward to the operator's consumers.
    pub results: Vec<DataMessage>,
    /// Feedback to send to the producer feeding the given port.
    pub feedback: Vec<(Port, Feedback)>,
}

impl OperatorOutput {
    /// No results, no feedback.
    pub fn empty() -> Self {
        OperatorOutput::default()
    }

    /// Only results.
    pub fn with_results(results: Vec<DataMessage>) -> Self {
        OperatorOutput {
            results,
            feedback: Vec::new(),
        }
    }

    /// Is there nothing to deliver?
    pub fn is_empty(&self) -> bool {
        self.results.is_empty() && self.feedback.is_empty()
    }
}

/// Everything a producer returns from handling a feedback message.
#[derive(Debug, Default, Clone)]
pub struct FeedbackOutcome {
    /// Super-tuples produced in response to a resumption, to be delivered to
    /// the operator's consumers ahead of regular work.
    pub resumed: Vec<DataMessage>,
    /// Feedback to propagate to the operators feeding the given ports
    /// (Section III-C: "an operator always propagates a feedback before
    /// handling it").
    pub propagate: Vec<(Port, Feedback)>,
}

impl FeedbackOutcome {
    /// Nothing to do.
    pub fn empty() -> Self {
        FeedbackOutcome::default()
    }

    /// Is there nothing to deliver?
    pub fn is_empty(&self) -> bool {
        self.resumed.is_empty() && self.propagate.is_empty()
    }
}

/// Per-call execution context handed to operators: the current application
/// time and mutable access to the run's metrics.
pub struct OpContext<'a> {
    /// Application time of the arrival that started the current cascade.
    pub now: Timestamp,
    /// Counters, cost model and memory accounting for the run.
    pub metrics: &'a mut RunMetrics,
}

impl<'a> OpContext<'a> {
    /// Create a context for the given instant.
    pub fn new(now: Timestamp, metrics: &'a mut RunMetrics) -> Self {
        OpContext { now, metrics }
    }
}

/// A plan operator.
///
/// Implementations must be deterministic: the same sequence of `process` and
/// `handle_feedback` calls must yield the same outputs, so REF/JIT
/// comparisons and property tests are reproducible.
///
/// `Send` is a supertrait so that a fully built [`crate::plan::ExecutablePlan`]
/// can be moved onto a worker thread — the sharded runtime builds every
/// shard's plan on the caller's thread and ships each one to its shard.
pub trait Operator: Send {
    /// Human-readable name, e.g. `"A⋈B"`.
    fn name(&self) -> &str;

    /// The set of sources covered by this operator's output tuples.
    fn output_schema(&self) -> SourceSet;

    /// Number of input ports.
    fn num_ports(&self) -> usize;

    /// Process one data message arriving on `port`.
    fn process(&mut self, port: Port, msg: &DataMessage, ctx: &mut OpContext<'_>)
        -> OperatorOutput;

    /// Handle a feedback message sent by a downstream consumer.
    ///
    /// The default implementation ignores feedback, which is always legal:
    /// Section III-A notes a producer "may decide to ignore the message and
    /// keep producing NPRs". The REF baseline relies on this default.
    fn handle_feedback(&mut self, fb: &Feedback, ctx: &mut OpContext<'_>) -> FeedbackOutcome {
        let _ = (fb, ctx);
        FeedbackOutcome::empty()
    }

    /// Current analytical memory footprint of all containers held by the
    /// operator (states, MNS buffers, blacklists, …). Must be O(1).
    fn memory_bytes(&self) -> usize;

    /// Is the operator currently suspended (used by the DOE baseline and by
    /// scheduling diagnostics)?
    fn is_suspended(&self) -> bool {
        false
    }

    /// End-of-stream flush: release every suppressed production the operator
    /// is still holding back (suspended tuples, Ø-buffered inputs), exactly
    /// as if every pending suspension had been resumed.
    ///
    /// Called by the executor when the input is exhausted — the streaming
    /// analogue of a watermark/close: suppressed-but-still-demandable
    /// results must be materialised before the run's output is final. On an
    /// unbounded stream the same release happens incrementally through
    /// MNS-expiry resumption; the flush is what bounds the delay on a
    /// *finite* trace whose end arrives before the window does.
    ///
    /// The default is a no-op: operators that never withhold production
    /// (the REF baseline, selections) have nothing to flush.
    fn flush(&mut self, ctx: &mut OpContext<'_>) -> FeedbackOutcome {
        let _ = ctx;
        FeedbackOutcome::empty()
    }

    /// Watermark advance: the executor's clock has just moved forward to
    /// `ctx.now` *without* a data arrival (the watermark-clock regime of
    /// bounded-disorder execution). Operators whose time-driven work is
    /// normally piggybacked on arrivals — JIT's MNS-expiry resumption in
    /// particular — perform it here, so suppressed productions are released
    /// at watermark boundaries rather than waiting for the next tuple.
    ///
    /// The default is a no-op, which is sound for operators whose only
    /// time-driven work is state purging: purge-at-probe is based on tuple
    /// timestamps and every probe re-checks the window, so deferring the
    /// purge to the next arrival changes no results.
    fn on_watermark(&mut self, ctx: &mut OpContext<'_>) -> OperatorOutput {
        let _ = ctx;
        OperatorOutput::empty()
    }

    /// Serialise the operator's resumable dynamic state (window contents,
    /// buffers, blacklists, …) as a [`Content`] blob for a checkpoint.
    ///
    /// Static configuration (schemas, predicates, windows) is *not*
    /// serialised — a restore reconstructs the plan from the query and then
    /// replays each operator's blob into the freshly built instance. The
    /// default returns [`Content::Null`], correct for stateless operators.
    fn checkpoint(&self) -> Content {
        Content::Null
    }

    /// Rebuild the operator's dynamic state from a blob produced by
    /// [`Operator::checkpoint`] on an identically configured instance.
    ///
    /// The default accepts only [`Content::Null`] (the stateless checkpoint)
    /// and rejects anything else — a stateful blob reaching a stateless
    /// operator means the checkpoint and the plan disagree.
    fn restore(&mut self, state: &Content) -> Result<(), serde::Error> {
        match state {
            Content::Null => Ok(()),
            _ => Err(serde::Error::msg(format!(
                "operator `{}` holds no dynamic state but the checkpoint has some",
                self.name()
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jit_types::{BaseTuple, SourceId, Value};
    use std::sync::Arc;

    fn tuple(source: u16, seq: u64) -> Tuple {
        Tuple::from_base(Arc::new(BaseTuple::new(
            SourceId(source),
            seq,
            Timestamp::from_millis(seq),
            vec![Value::int(1)],
        )))
    }

    /// A trivial pass-through operator used to exercise the trait defaults.
    struct PassThrough {
        name: String,
    }

    impl Operator for PassThrough {
        fn name(&self) -> &str {
            &self.name
        }
        fn output_schema(&self) -> SourceSet {
            SourceSet::single(SourceId(0))
        }
        fn num_ports(&self) -> usize {
            1
        }
        fn process(
            &mut self,
            _port: Port,
            msg: &DataMessage,
            _ctx: &mut OpContext<'_>,
        ) -> OperatorOutput {
            OperatorOutput::with_results(vec![msg.clone()])
        }
        fn memory_bytes(&self) -> usize {
            0
        }
    }

    #[test]
    fn data_message_size_is_its_tuple_size() {
        let t = tuple(0, 1);
        assert_eq!(DataMessage::new(t.clone()).size_bytes(), t.size_bytes());
    }

    #[test]
    fn output_and_outcome_emptiness() {
        assert!(OperatorOutput::empty().is_empty());
        assert!(FeedbackOutcome::empty().is_empty());
        let out = OperatorOutput::with_results(vec![DataMessage::new(tuple(0, 1))]);
        assert!(!out.is_empty());
        let outcome = FeedbackOutcome {
            resumed: vec![DataMessage::new(tuple(0, 1))],
            propagate: Vec::new(),
        };
        assert!(!outcome.is_empty());
    }

    #[test]
    fn default_feedback_handling_is_a_noop() {
        let mut op = PassThrough {
            name: "pass".into(),
        };
        let mut metrics = RunMetrics::new();
        let mut ctx = OpContext::new(Timestamp::ZERO, &mut metrics);
        let outcome = op.handle_feedback(&Feedback::suspend(vec![tuple(0, 1)]), &mut ctx);
        assert!(outcome.is_empty());
        assert!(!op.is_suspended());
    }

    #[test]
    fn pass_through_processes() {
        let mut op = PassThrough {
            name: "pass".into(),
        };
        let mut metrics = RunMetrics::new();
        let mut ctx = OpContext::new(Timestamp::from_millis(5), &mut metrics);
        let out = op.process(LEFT, &DataMessage::new(tuple(0, 3)), &mut ctx);
        assert_eq!(out.results.len(), 1);
        assert_eq!(ctx.now, Timestamp::from_millis(5));
        assert_eq!(op.name(), "pass");
        assert_eq!(op.num_ports(), 1);
    }

    #[test]
    fn operator_id_display() {
        assert_eq!(OperatorId(3).to_string(), "Op3");
    }
}
