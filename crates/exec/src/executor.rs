//! The cascade executor.
//!
//! The executor owns an [`ExecutablePlan`] and drives arrival events through
//! it. Processing one source arrival to quiescence is called a *cascade*:
//! the arrival is delivered to every operator subscribed to the source, their
//! outputs are scheduled for their consumers, feedback is routed upstream
//! with pre-emptive priority, and the cascade ends when no tasks remain.
//! Arrivals are processed strictly in timestamp order, so result timestamps
//! are non-decreasing at the sinks (the temporal-order requirement of
//! Section II).

use crate::operator::{DataMessage, OpContext, OperatorId, OperatorOutput, Port};
use crate::plan::{ExecutablePlan, Input, OperatorSlot};
use crate::scheduler::{Priority, Scheduler, Task, TaskKind};
use jit_metrics::{CostKind, MemComponentId, MetricsSnapshot, RunMetrics};
use jit_types::{BaseTuple, FeedbackCommand, SourceId, Timestamp, Tuple};
use serde::{Content, Serialize};
use std::sync::Arc;

/// Execution options.
#[derive(Debug, Clone)]
pub struct ExecutorConfig {
    /// Keep every final result tuple in memory (needed for correctness
    /// checks; disable for long benchmark runs).
    pub collect_results: bool,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            collect_results: true,
        }
    }
}

/// Drives a plan over a stream of arrivals and accumulates metrics.
pub struct Executor {
    slots: Vec<OperatorSlot>,
    source_subscribers: Vec<Vec<(OperatorId, Port)>>,
    scheduler: Scheduler,
    metrics: RunMetrics,
    op_mem: Vec<MemComponentId>,
    queue_mem: MemComponentId,
    results: Vec<Tuple>,
    results_count: u64,
    last_result_ts: Timestamp,
    order_violations: u64,
    config: ExecutorConfig,
    current_time: Timestamp,
    /// When set, the executor's clock is driven *only* by
    /// [`Executor::advance_watermark`]: arrivals are processed at the current
    /// watermark frontier even if their own timestamp is ahead of it (they
    /// were released by a reorder buffer that has not advanced the frontier
    /// past them yet), and the in-order `ingest` assertion is waived. This is
    /// the execution regime of `DisorderPolicy::Bounded`.
    watermark_clock: bool,
    /// An operator ran outside a dispatched task (`on_watermark`, `flush`)
    /// and has not been sampled since: the next sample sweeps every
    /// operator instead of only the one that just ran.
    memory_stale: bool,
}

impl Executor {
    /// Create an executor for a plan with the given configuration.
    pub fn new(plan: ExecutablePlan, config: ExecutorConfig) -> Self {
        let mut metrics = RunMetrics::new();
        let op_mem = plan
            .slots
            .iter()
            .enumerate()
            .map(|(i, s)| metrics.register_memory(format!("op{} {}", i, s.operator.name())))
            .collect();
        let queue_mem = metrics.register_memory("inter-operator queues");
        Executor {
            slots: plan.slots,
            source_subscribers: plan.source_subscribers,
            scheduler: Scheduler::new(),
            metrics,
            op_mem,
            queue_mem,
            results: Vec::new(),
            results_count: 0,
            last_result_ts: Timestamp::ZERO,
            order_violations: 0,
            config,
            current_time: Timestamp::ZERO,
            watermark_clock: false,
            memory_stale: false,
        }
    }

    /// Create an executor with default configuration.
    pub fn with_defaults(plan: ExecutablePlan) -> Self {
        Executor::new(plan, ExecutorConfig::default())
    }

    /// Switch the executor onto the watermark clock (see the field docs on
    /// [`Executor`]): time advances only via [`Executor::advance_watermark`].
    /// Must be set before the first arrival.
    pub fn set_watermark_clock(&mut self, enabled: bool) {
        debug_assert_eq!(
            self.current_time,
            Timestamp::ZERO,
            "the clock regime must be chosen before the first arrival"
        );
        self.watermark_clock = enabled;
    }

    /// Ingest one base tuple from a source and run the cascade to
    /// completion.
    pub fn ingest(&mut self, source: SourceId, tuple: Arc<BaseTuple>) {
        if !self.watermark_clock {
            debug_assert!(
                tuple.ts >= self.current_time,
                "arrivals must be ingested in timestamp order"
            );
            self.current_time = tuple.ts;
        }
        self.metrics.stats.tuples_arrived += 1;
        let msg = DataMessage::new(Tuple::from_base(tuple));
        let subscribers = self.source_subscribers.get(source.index());
        for i in 0..subscribers.map_or(0, Vec::len) {
            let (op, port) = self.source_subscribers[source.index()][i];
            self.metrics.charge(CostKind::QueueOp, 1);
            self.scheduler.push(
                Task {
                    to: op,
                    kind: TaskKind::Data {
                        port,
                        msg: msg.clone(),
                    },
                },
                Priority::Normal,
            );
        }
        self.run_cascade();
    }

    /// Advance the executor clock to watermark `w` and give every operator
    /// its [`crate::operator::Operator::on_watermark`] turn (expiry-driven
    /// resumption in particular), running the resulting cascades.
    ///
    /// The caller must deliver this *after* pushing the tuples released up
    /// to `w`: those tuples are processed at the previous frontier, so a
    /// late-but-admissible probe still finds every stored partner the old
    /// frontier kept alive. Watermarks never move backwards.
    pub fn advance_watermark(&mut self, w: Timestamp) {
        if w <= self.current_time {
            return;
        }
        self.current_time = w;
        for idx in 0..self.slots.len() {
            let output = {
                let slot = &mut self.slots[idx];
                let mut ctx = OpContext::new(w, &mut self.metrics);
                slot.operator.on_watermark(&mut ctx)
            };
            self.memory_stale = true;
            self.route_output(OperatorId(idx), output, Priority::Resumed);
            self.run_cascade();
        }
    }

    /// Run scheduled tasks until the cascade is drained.
    fn run_cascade(&mut self) {
        while let Some(task) = self.scheduler.pop() {
            let ran = task.to.0;
            self.metrics.charge(CostKind::TaskDispatch, 1);
            self.dispatch(task);
            // A task changes the memory of the operator it ran on and of the
            // queues, nothing else — unless an operator has also run outside
            // a task since the last sweep.
            if self.memory_stale {
                self.sample_memory();
            } else {
                self.sample_operator(ran);
            }
        }
    }

    /// Execute one task.
    fn dispatch(&mut self, task: Task) {
        let op_idx = task.to.0;
        let now = self.current_time;
        match task.kind {
            TaskKind::Data { port, msg } => {
                let output = {
                    let slot = &mut self.slots[op_idx];
                    let mut ctx = OpContext::new(now, &mut self.metrics);
                    slot.operator.process(port, &msg, &mut ctx)
                };
                self.route_output(task.to, output, Priority::Normal);
            }
            TaskKind::Feedback(fb) => {
                let outcome = {
                    let slot = &mut self.slots[op_idx];
                    let mut ctx = OpContext::new(now, &mut self.metrics);
                    ctx.metrics.charge(CostKind::FeedbackHandle, 1);
                    slot.operator.handle_feedback(&fb, &mut ctx)
                };
                // Resumed production is delivered ahead of regular work
                // (producer-over-consumer priority, Section III-B).
                self.route_results(task.to, outcome.resumed, Priority::Resumed);
                self.route_feedback(task.to, outcome.propagate);
            }
        }
    }

    /// Route everything in an [`OperatorOutput`]: results first, then
    /// feedback (matching the order the operator produced them in).
    fn route_output(&mut self, from: OperatorId, output: OperatorOutput, priority: Priority) {
        self.route_results(from, output.results, priority);
        self.route_feedback(from, output.feedback);
    }

    /// Forward an operator's results to its consumers (or record them as
    /// final output if the operator is a sink).
    fn route_results(&mut self, from: OperatorId, results: Vec<DataMessage>, priority: Priority) {
        if results.is_empty() {
            return;
        }
        // Borrow dance: take the consumer list out of the slot for the
        // duration of the scheduler pushes (which need `&mut self`) instead
        // of cloning it on every call — this runs once per produced message.
        let (is_sink, consumers) = {
            let slot = &mut self.slots[from.0];
            (slot.is_sink, std::mem::take(&mut slot.consumers))
        };
        if is_sink {
            for msg in results {
                self.results_count += 1;
                self.metrics.stats.results_emitted += 1;
                if msg.tuple.ts() < self.last_result_ts {
                    self.order_violations += 1;
                }
                self.last_result_ts = self.last_result_ts.max(msg.tuple.ts());
                if self.config.collect_results {
                    self.results.push(msg.tuple);
                }
            }
        } else {
            self.metrics.stats.intermediate_produced += results.len() as u64;
            for msg in results {
                for (consumer, port) in &consumers {
                    self.metrics.charge(CostKind::QueueOp, 1);
                    self.scheduler.push(
                        Task {
                            to: *consumer,
                            kind: TaskKind::Data {
                                port: *port,
                                msg: msg.clone(),
                            },
                        },
                        priority,
                    );
                }
            }
        }
        self.slots[from.0].consumers = consumers;
    }

    /// Send feedback emitted by `from` to the producers feeding the named
    /// ports. Feedback addressed to a raw source is dropped (a source has no
    /// production to control).
    fn route_feedback(&mut self, from: OperatorId, feedback: Vec<(Port, jit_types::Feedback)>) {
        for (port, fb) in feedback {
            match self.slots[from.0].inputs.get(port) {
                Some(Input::Operator(producer)) => {
                    match fb.command {
                        FeedbackCommand::Suspend => self.metrics.stats.feedback_suspend += 1,
                        FeedbackCommand::Resume => self.metrics.stats.feedback_resume += 1,
                    }
                    self.scheduler.push(
                        Task {
                            to: *producer,
                            kind: TaskKind::Feedback(fb),
                        },
                        Priority::Control,
                    );
                }
                Some(Input::Source(_)) | None => {
                    // No producer operator to notify; the feedback is simply
                    // dropped, which is always legal.
                }
            }
        }
    }

    /// Refresh the memory accounting of every operator and of the queues.
    fn sample_memory(&mut self) {
        for (i, slot) in self.slots.iter().enumerate() {
            self.metrics
                .memory
                .set(self.op_mem[i], slot.operator.memory_bytes());
        }
        self.metrics
            .memory
            .set(self.queue_mem, self.scheduler.queued_bytes());
        self.memory_stale = false;
    }

    /// Refresh the memory accounting of one operator and of the queues.
    fn sample_operator(&mut self, idx: usize) {
        self.metrics
            .memory
            .set(self.op_mem[idx], self.slots[idx].operator.memory_bytes());
        self.metrics
            .memory
            .set(self.queue_mem, self.scheduler.queued_bytes());
    }

    /// The metrics accumulated so far.
    pub fn metrics(&self) -> &RunMetrics {
        &self.metrics
    }

    /// Results collected so far (empty if `collect_results` is off).
    pub fn results(&self) -> &[Tuple] {
        &self.results
    }

    /// Drain the results collected since the last drain (empty if
    /// `collect_results` is off). Incremental consumers — push-based
    /// sessions, the sharded runtime's result streaming — use this to hand
    /// results onward without holding the whole run in the executor;
    /// [`Executor::finish`] then returns only what was never drained.
    pub fn take_results(&mut self) -> Vec<Tuple> {
        std::mem::take(&mut self.results)
    }

    /// Total number of final results emitted (counted even when collection
    /// is disabled).
    pub fn results_count(&self) -> u64 {
        self.results_count
    }

    /// Number of temporal-order violations observed at the sinks (should be
    /// zero for a correct execution).
    pub fn order_violations(&self) -> u64 {
        self.order_violations
    }

    /// Application time of the most recent arrival.
    pub fn current_time(&self) -> Timestamp {
        self.current_time
    }

    /// Immutable access to an operator.
    #[cfg(test)]
    fn operator(&self, id: OperatorId) -> &dyn crate::operator::Operator {
        self.slots[id.0].operator.as_ref()
    }

    /// Serialise the executor's resumable state: the clock, the sink
    /// bookkeeping, any collected-but-undrained results, and one blob per
    /// operator (validated by name on restore).
    ///
    /// Must be taken between cascades (the scheduler is always drained
    /// then), so there is no in-flight task or feedback to persist. Metrics
    /// are deliberately *not* checkpointed: a restored run restarts its
    /// counters, which keeps cost accounting attributable to the process
    /// that actually paid it.
    pub fn checkpoint(&self) -> Content {
        debug_assert!(
            self.scheduler.is_empty(),
            "checkpoints are taken between cascades"
        );
        Content::Map(vec![
            ("current_time".to_string(), self.current_time.to_content()),
            (
                "last_result_ts".to_string(),
                self.last_result_ts.to_content(),
            ),
            ("results_count".to_string(), self.results_count.to_content()),
            (
                "order_violations".to_string(),
                self.order_violations.to_content(),
            ),
            ("pending_results".to_string(), self.results.to_content()),
            (
                "operators".to_string(),
                Content::Seq(
                    self.slots
                        .iter()
                        .map(|slot| {
                            Content::Map(vec![
                                (
                                    "name".to_string(),
                                    Content::Str(slot.operator.name().to_string()),
                                ),
                                ("state".to_string(), slot.operator.checkpoint()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Rebuild the executor's dynamic state from an [`Executor::checkpoint`]
    /// blob. The executor must have been freshly constructed from the same
    /// plan (operator count and names are validated). Results that were
    /// collected but never drained at checkpoint time are reinstated, so the
    /// first `take_results` after a restore returns exactly what the
    /// original session would have returned.
    pub fn restore_checkpoint(&mut self, content: &Content) -> Result<(), serde::Error> {
        let map = content
            .as_map()
            .ok_or_else(|| serde::Error::expected("object", "Executor"))?;
        let operators = serde::field::<Content>(map, "operators", "Executor")?;
        let operators = operators
            .as_seq()
            .ok_or_else(|| serde::Error::expected("array", "Executor::operators"))?;
        if operators.len() != self.slots.len() {
            return Err(serde::Error::msg(format!(
                "checkpoint has {} operators but the plan has {}",
                operators.len(),
                self.slots.len()
            )));
        }
        for (slot, blob) in self.slots.iter_mut().zip(operators) {
            let entry = blob
                .as_map()
                .ok_or_else(|| serde::Error::expected("object", "operator checkpoint"))?;
            let name: String = serde::field(entry, "name", "operator checkpoint")?;
            if name != slot.operator.name() {
                return Err(serde::Error::msg(format!(
                    "operator mismatch: checkpoint holds `{name}`, plan expects `{}`",
                    slot.operator.name()
                )));
            }
            let state: Content = serde::field(entry, "state", "operator checkpoint")?;
            slot.operator.restore(&state)?;
        }
        self.current_time = serde::field(map, "current_time", "Executor")?;
        self.last_result_ts = serde::field(map, "last_result_ts", "Executor")?;
        self.results_count = serde::field(map, "results_count", "Executor")?;
        self.order_violations = serde::field(map, "order_violations", "Executor")?;
        self.results = serde::field(map, "pending_results", "Executor")?;
        self.sample_memory();
        Ok(())
    }

    /// Finish the run: flush suppressed production, freeze the wall clock
    /// and return results + metrics.
    ///
    /// The returned snapshot carries both total figures (including the
    /// end-of-stream flush) and steady-state figures captured before the
    /// flush (`steady_cost_units`, `steady_peak_memory_bytes`) — the
    /// latter are what an unbounded stream would keep paying and what the
    /// experiment harness reports.
    pub fn finish(mut self) -> (Vec<Tuple>, MetricsSnapshot) {
        self.sample_memory();
        let steady = self.metrics.snapshot();
        self.flush_suspended();
        self.sample_memory();
        let mut snapshot = self.metrics.finish();
        snapshot.steady_cost_units = steady.cost_units;
        snapshot.steady_peak_memory_bytes = steady.peak_memory_bytes;
        (self.results, snapshot)
    }

    /// End-of-stream flush: ask every operator to release the production it
    /// is still withholding (suspended tuples, Ø-buffered inputs) and run
    /// the resulting cascades, repeating until the plan is quiescent.
    ///
    /// Regenerated intermediates may themselves trigger fresh suspensions
    /// downstream mid-flush, so one pass is not always enough; every
    /// tuple pair is regenerated at most once (the operators' presence
    /// bookkeeping guarantees that), which bounds the number of productive
    /// rounds. The iteration cap is a defensive backstop only.
    fn flush_suspended(&mut self) {
        const MAX_ROUNDS: usize = 64;
        let now = self.current_time;
        for _ in 0..MAX_ROUNDS {
            let mut quiescent = true;
            for idx in 0..self.slots.len() {
                let outcome = {
                    let slot = &mut self.slots[idx];
                    let mut ctx = OpContext::new(now, &mut self.metrics);
                    slot.operator.flush(&mut ctx)
                };
                self.memory_stale = true;
                if !outcome.resumed.is_empty() || !outcome.propagate.is_empty() {
                    quiescent = false;
                }
                self.route_results(OperatorId(idx), outcome.resumed, Priority::Resumed);
                self.route_feedback(OperatorId(idx), outcome.propagate);
                self.run_cascade();
            }
            if quiescent {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{Operator, OperatorOutput, LEFT};
    use crate::plan::PlanBuilder;
    use jit_types::{Feedback, SourceSet, Value};

    /// Forwards every input; counts feedback received.
    struct Forward {
        name: String,
        feedback_seen: usize,
        suspended: bool,
    }

    impl Forward {
        fn boxed(name: &str) -> Box<dyn Operator> {
            Box::new(Forward {
                name: name.to_string(),
                feedback_seen: 0,
                suspended: false,
            })
        }
    }

    impl Operator for Forward {
        fn name(&self) -> &str {
            &self.name
        }
        fn output_schema(&self) -> SourceSet {
            SourceSet::first_n(1)
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
        fn handle_feedback(
            &mut self,
            _fb: &Feedback,
            _ctx: &mut OpContext<'_>,
        ) -> crate::operator::FeedbackOutcome {
            self.feedback_seen += 1;
            self.suspended = true;
            crate::operator::FeedbackOutcome::empty()
        }
        fn memory_bytes(&self) -> usize {
            64
        }
        fn is_suspended(&self) -> bool {
            self.suspended
        }
    }

    /// Sends a suspension feedback upstream for every input it sees.
    struct Complainer {
        name: String,
    }

    impl Operator for Complainer {
        fn name(&self) -> &str {
            &self.name
        }
        fn output_schema(&self) -> SourceSet {
            SourceSet::first_n(1)
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
            OperatorOutput {
                results: vec![msg.clone()],
                feedback: vec![(LEFT, Feedback::suspend(vec![msg.tuple.clone()]))],
            }
        }
        fn memory_bytes(&self) -> usize {
            0
        }
    }

    fn base(source: u16, seq: u64, ts: u64) -> Arc<BaseTuple> {
        Arc::new(BaseTuple::new(
            SourceId(source),
            seq,
            Timestamp::from_millis(ts),
            vec![Value::int(1)],
        ))
    }

    #[test]
    fn single_operator_chain_delivers_to_sink() {
        let mut b = PlanBuilder::new();
        let first = b.add_operator(Forward::boxed("first"), vec![Input::Source(SourceId(0))]);
        let _second = b.add_operator(Forward::boxed("second"), vec![Input::Operator(first)]);
        let mut exec = Executor::with_defaults(b.build().unwrap());

        exec.ingest(SourceId(0), base(0, 0, 10));
        exec.ingest(SourceId(0), base(0, 1, 20));

        assert_eq!(exec.results_count(), 2);
        assert_eq!(exec.results().len(), 2);
        assert_eq!(exec.metrics().stats.tuples_arrived, 2);
        // first's outputs are intermediate, second's are final
        assert_eq!(exec.metrics().stats.intermediate_produced, 2);
        assert_eq!(exec.metrics().stats.results_emitted, 2);
        assert_eq!(exec.order_violations(), 0);
        assert_eq!(exec.current_time(), Timestamp::from_millis(20));
        let (results, snapshot) = exec.finish();
        assert_eq!(results.len(), 2);
        assert!(snapshot.cost_units > 0);
        assert!(snapshot.peak_memory_bytes >= 64);
    }

    #[test]
    fn feedback_is_routed_to_the_producer() {
        let mut b = PlanBuilder::new();
        let producer = b.add_operator(Forward::boxed("producer"), vec![Input::Source(SourceId(0))]);
        let _consumer = b.add_operator(
            Box::new(Complainer {
                name: "consumer".into(),
            }),
            vec![Input::Operator(producer)],
        );
        let mut exec = Executor::with_defaults(b.build().unwrap());
        exec.ingest(SourceId(0), base(0, 0, 10));
        assert_eq!(exec.metrics().stats.feedback_suspend, 1);
        assert!(exec.operator(producer).is_suspended());
    }

    #[test]
    fn feedback_to_a_source_is_dropped() {
        let mut b = PlanBuilder::new();
        let _only = b.add_operator(
            Box::new(Complainer {
                name: "consumer".into(),
            }),
            vec![Input::Source(SourceId(0))],
        );
        let mut exec = Executor::with_defaults(b.build().unwrap());
        exec.ingest(SourceId(0), base(0, 0, 10));
        // The feedback had nowhere to go but the execution completes cleanly.
        assert_eq!(exec.metrics().stats.feedback_suspend, 0);
        assert_eq!(exec.results_count(), 1);
    }

    /// Holds 100 bytes until its first `on_watermark`, 10 after; counts how
    /// often the executor reads its memory.
    struct Shrinker {
        bytes: usize,
        reads: Arc<std::sync::atomic::AtomicUsize>,
    }

    impl Operator for Shrinker {
        fn name(&self) -> &str {
            "shrinker"
        }
        fn output_schema(&self) -> SourceSet {
            SourceSet::first_n(1)
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
        fn on_watermark(&mut self, _ctx: &mut OpContext<'_>) -> OperatorOutput {
            self.bytes = 10;
            OperatorOutput::empty()
        }
        fn memory_bytes(&self) -> usize {
            self.reads
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.bytes
        }
    }

    #[test]
    fn a_task_samples_the_operator_it_ran_on_and_a_watermark_resamples_all() {
        let reads = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let read_count = || reads.load(std::sync::atomic::Ordering::Relaxed);
        let mut b = PlanBuilder::new();
        b.add_operator(
            Box::new(Shrinker {
                bytes: 100,
                reads: reads.clone(),
            }),
            vec![Input::Source(SourceId(0))],
        );
        b.add_operator(Forward::boxed("other"), vec![Input::Source(SourceId(1))]);
        let mut exec = Executor::with_defaults(b.build().unwrap());
        exec.set_watermark_clock(true);

        exec.ingest(SourceId(0), base(0, 0, 10));
        assert_eq!(
            (read_count(), exec.metrics().memory.current_bytes()),
            (1, 100)
        );
        // Tasks on the other operator leave the shrinker unread.
        exec.ingest(SourceId(1), base(1, 0, 20));
        exec.ingest(SourceId(1), base(1, 1, 30));
        assert_eq!(
            (read_count(), exec.metrics().memory.current_bytes()),
            (1, 164)
        );
        // It shrinks outside a task: the next task, on whichever operator,
        // sweeps them all, and the peak keeps what was actually held.
        exec.advance_watermark(Timestamp::from_millis(40));
        exec.ingest(SourceId(1), base(1, 2, 50));
        assert_eq!(
            (read_count(), exec.metrics().memory.current_bytes()),
            (2, 74)
        );
        exec.ingest(SourceId(1), base(1, 3, 60));
        assert_eq!(read_count(), 2);
        assert_eq!(exec.metrics().memory.peak_bytes(), 164);
    }

    #[test]
    fn results_can_be_left_uncollected() {
        let mut b = PlanBuilder::new();
        b.add_operator(Forward::boxed("only"), vec![Input::Source(SourceId(0))]);
        let mut exec = Executor::new(
            b.build().unwrap(),
            ExecutorConfig {
                collect_results: false,
            },
        );
        exec.ingest(SourceId(0), base(0, 0, 10));
        assert_eq!(exec.results_count(), 1);
        assert!(exec.results().is_empty());
    }

    /// Emits two rows per input — a later-stamped copy, then the input —
    /// so a sink sees one temporal-order violation per call.
    struct Doubler;

    impl Operator for Doubler {
        fn name(&self) -> &str {
            "doubler"
        }
        fn output_schema(&self) -> SourceSet {
            SourceSet::first_n(1)
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
            let later = base(0, 100, msg.tuple.ts().as_millis() + 5);
            OperatorOutput::with_results(vec![
                DataMessage::new(Tuple::from_base(later)),
                msg.clone(),
            ])
        }
        fn memory_bytes(&self) -> usize {
            0
        }
    }

    /// Logs `(own name, seq of the row it was handed)`, in dispatch order.
    struct Recorder {
        name: &'static str,
        log: Arc<std::sync::Mutex<Vec<(&'static str, u64)>>>,
    }

    impl Operator for Recorder {
        fn name(&self) -> &str {
            self.name
        }
        fn output_schema(&self) -> SourceSet {
            SourceSet::first_n(1)
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
            let mut log = self.log.lock().expect("no recorder panicked");
            log.push((self.name, msg.tuple.parts()[0].seq));
            OperatorOutput::empty()
        }
        fn memory_bytes(&self) -> usize {
            0
        }
    }

    #[test]
    fn each_row_is_queued_once_per_consumer_in_row_major_order() {
        let log = Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut b = PlanBuilder::new();
        let producer = b.add_operator(Box::new(Doubler), vec![Input::Source(SourceId(0))]);
        for name in ["c1", "c2"] {
            let log = log.clone();
            b.add_operator(
                Box::new(Recorder { name, log }),
                vec![Input::Operator(producer)],
            );
        }
        let mut exec = Executor::with_defaults(b.build().unwrap());
        exec.ingest(SourceId(0), base(0, 0, 10));
        assert_eq!(
            *log.lock().unwrap(),
            [("c1", 100), ("c2", 100), ("c1", 0), ("c2", 0)]
        );
        assert_eq!(exec.metrics().stats.intermediate_produced, 2);
        // One queue operation for the arrival, one per (row, consumer) pair.
        assert_eq!(exec.metrics().stats.queued_tuples, 1 + 4);
        assert_eq!(exec.results_count(), 0);
    }

    #[test]
    fn an_uncollecting_sink_counts_and_order_checks_every_row() {
        let mut b = PlanBuilder::new();
        b.add_operator(Box::new(Doubler), vec![Input::Source(SourceId(0))]);
        let mut exec = Executor::new(
            b.build().unwrap(),
            ExecutorConfig {
                collect_results: false,
            },
        );
        exec.ingest(SourceId(0), base(0, 0, 10));
        assert_eq!(exec.results_count(), 2);
        assert_eq!(exec.metrics().stats.results_emitted, 2);
        assert_eq!(exec.order_violations(), 1);
        assert!(exec.results().is_empty());
    }

    #[test]
    fn unsubscribed_source_is_ignored() {
        let mut b = PlanBuilder::new();
        b.add_operator(Forward::boxed("only"), vec![Input::Source(SourceId(0))]);
        let mut exec = Executor::with_defaults(b.build().unwrap());
        exec.ingest(SourceId(5), base(5, 0, 10));
        assert_eq!(exec.results_count(), 0);
        assert_eq!(exec.metrics().stats.tuples_arrived, 1);
    }
}
