//! Push-based sharded execution: long-lived worker threads fed one arrival
//! at a time.
//!
//! A [`ShardedSession`] spawns its workers up front (each with its own plan
//! instance, built on the caller's thread and *moved* to the worker), and
//! the caller then pushes arrivals incrementally. What the caller pushes
//! is grouped into chunks of `batch_size` *steps* per shard and sent over a
//! *bounded* channel, so a slow shard blocks the pusher instead of queueing
//! unboundedly.
//!
//! A step is an arrival or a watermark advance
//! ([`ShardedSession::advance_watermark`], the clock of bounded-disorder
//! execution). Watermarks travel *in-band*: one is appended to every shard's
//! partial chunk behind the arrivals already pushed, and the worker replays
//! a chunk in order, so each executor sees exactly the interleaving of
//! ingests and advances the caller produced — and a session whose watermark
//! moves after nearly every push still ships full chunks, one message and
//! one acknowledgement per `batch_size` steps. A partial chunk is sent by
//! the next poll, metrics read, checkpoint or finish; that is the latency
//! contract of arrivals and watermarks alike.
//!
//! Two things flow back while the session runs:
//!
//! * **Results.** After every chunk a worker drains its executor's collected
//!   results and ships them to the session. [`ShardedSession::poll_results`]
//!   releases them in globally merged timestamp order under a *watermark*:
//!   a result is released only once every shard is known to have processed
//!   past its timestamp, so the concatenation of all polls (plus the final
//!   outcome) is exactly the k-way merge of the per-shard result streams.
//!   How many results each individual poll returns depends on worker timing;
//!   the order and the overall set do not.
//! * **Metrics.** Each chunk's acknowledgement also carries a point-in-time
//!   [`MetricsSnapshot`]; [`ShardedSession::metrics_snapshot`] aggregates
//!   the latest one per shard, giving a live view of cost and memory.
//!
//! [`ShardedSession::finish`] sends the partial chunks, closes the channels
//! (each worker then runs the end-of-stream flush of `Executor::finish`),
//! joins the workers and returns the [`ParallelOutcome`] — minus any
//! results already handed out through `poll_results`, which are never
//! duplicated.

use crate::merge::merge_by_timestamp;
use crate::sharded::{panic_message, ParallelOutcome, RuntimeError, ShardOutcome, ShardedRuntime};
use jit_exec::{ExecutablePlan, Executor, ExecutorConfig, PlanError};
use jit_metrics::MetricsSnapshot;
use jit_stream::{ArrivalEvent, ShardPartitioner};
use jit_types::{Timestamp, Tuple};
use serde::{Content, Serialize};
use std::collections::VecDeque;
use std::sync::mpsc;
use std::thread::JoinHandle;

/// One step of a shard's chunk. The worker replays a chunk's steps in the
/// order the session queued them, so each executor sees exactly the
/// interleaving of arrivals and watermark advances the caller produced.
enum Step {
    /// Ingest this arrival.
    Arrival(ArrivalEvent),
    /// Advance the executor's watermark clock (expiry runs here when the
    /// session was started with the watermark clock enabled).
    Watermark(Timestamp),
}

/// One instruction to a shard worker. Every message is acknowledged with
/// exactly one [`ShardChunk`], so `batches_sent == chunks_seen` remains the
/// caught-up test for all message kinds.
enum WorkerMsg {
    /// Replay these steps in order.
    Chunk(Vec<Step>),
    /// Reply with a serialised snapshot of the executor's full state.
    Checkpoint,
}

/// What a worker reports back after handling one message.
struct ShardChunk {
    shard: usize,
    /// Results collected at this shard's sink since the previous chunk.
    results: Vec<Tuple>,
    /// The shard has processed every arrival up to (and including) this
    /// application time.
    processed_through: Timestamp,
    /// Point-in-time metrics of the shard's executor.
    snapshot: MetricsSnapshot,
    /// Serialised executor state; present only in reply to
    /// [`WorkerMsg::Checkpoint`].
    state: Option<Content>,
}

impl ShardedRuntime {
    /// Spawn the shard workers and return a push-based [`ShardedSession`].
    ///
    /// `plan_factory` is called once per shard *on the calling thread* (plan
    /// errors surface here, before any thread exists); each fresh plan
    /// instance is then moved onto its worker thread — operators are
    /// stateful, so shards never share one.
    ///
    /// `watermark_clock` enables the executors' *watermark clock*: ingestion
    /// then does not advance operator time, and the caller drives expiry
    /// explicitly through [`ShardedSession::advance_watermark`] (the
    /// disorder-tolerant engine path does this after each reorder-buffer
    /// release).
    pub fn start<F>(
        &self,
        exec_config: ExecutorConfig,
        watermark_clock: bool,
        mut plan_factory: F,
    ) -> Result<ShardedSession, RuntimeError>
    where
        F: FnMut(usize) -> Result<ExecutablePlan, PlanError>,
    {
        let shards = self.config().shards;
        let mut executors = Vec::with_capacity(shards);
        for shard in 0..shards {
            let mut executor = Executor::new(plan_factory(shard)?, exec_config.clone());
            executor.set_watermark_clock(watermark_clock);
            executors.push(executor);
        }
        Ok(self.launch(executors))
    }

    /// Rebuild a session from a [`ShardedSession::checkpoint`] blob.
    ///
    /// `plan_factory` must produce the same per-shard plans the
    /// checkpointed session ran (restore replays serialised operator state
    /// into freshly built plans; a mismatch in shard count or operator
    /// layout is a typed [`RuntimeError::Restore`], never silent
    /// corruption). Executors are built and restored *on the calling
    /// thread*, so every restore error surfaces here before any worker
    /// thread exists.
    pub fn start_restored<F>(
        &self,
        exec_config: ExecutorConfig,
        watermark_clock: bool,
        checkpoint: &Content,
        mut plan_factory: F,
    ) -> Result<ShardedSession, RuntimeError>
    where
        F: FnMut(usize) -> Result<ExecutablePlan, PlanError>,
    {
        const TY: &str = "ShardedSession checkpoint";
        let restore_err = |e: serde::Error| RuntimeError::Restore(e.to_string());
        let map = checkpoint
            .as_map()
            .ok_or_else(|| RuntimeError::Restore("checkpoint body is not an object".to_string()))?;
        let shards: u64 = serde::field(map, "shards", TY).map_err(restore_err)?;
        if shards as usize != self.config().shards {
            return Err(RuntimeError::Restore(format!(
                "checkpoint holds {shards} shards, runtime is configured for {}",
                self.config().shards
            )));
        }
        let shards = shards as usize;
        let states = serde::field::<Content>(map, "states", TY).map_err(restore_err)?;
        let states = states.as_seq_n(shards, TY).map_err(restore_err)?;
        let buffered: Vec<Vec<Tuple>> = serde::field(map, "buffered", TY).map_err(restore_err)?;
        let progress: Vec<Timestamp> = serde::field(map, "progress", TY).map_err(restore_err)?;
        let last_push_ts: Timestamp = serde::field(map, "last_push_ts", TY).map_err(restore_err)?;
        if buffered.len() != shards || progress.len() != shards {
            return Err(RuntimeError::Restore(format!(
                "checkpoint carries {} buffered streams / {} progress marks for {shards} shards",
                buffered.len(),
                progress.len()
            )));
        }
        let mut executors = Vec::with_capacity(shards);
        for (shard, state) in states.iter().enumerate() {
            let mut executor = Executor::new(plan_factory(shard)?, exec_config.clone());
            executor.set_watermark_clock(watermark_clock);
            executor
                .restore_checkpoint(state)
                .map_err(|e| RuntimeError::Restore(format!("shard {shard}: {e}")))?;
            executors.push(executor);
        }
        let mut session = self.launch(executors);
        session.buffered = buffered.into_iter().map(VecDeque::from).collect();
        // Every step queued before the barrier was acknowledged by it, so
        // each restored executor's clock stands at its progress mark: a
        // watermark at or below the lowest of them advances none.
        session.queued_watermark = progress.iter().copied().min().unwrap_or(Timestamp::ZERO);
        session.progress = progress;
        session.last_push_ts = last_push_ts;
        Ok(session)
    }

    /// Move the prepared executors onto their worker threads.
    fn launch(&self, executors: Vec<Executor>) -> ShardedSession {
        let shards = executors.len();
        #[expect(
            clippy::disallowed_methods,
            reason = "result-return path from shard workers to the merger; the workers' input channels are bounded sync_channels that provide the backpressure, and bounding the return path too would recreate the push/poll deadlock the runtime was restructured to avoid"
        )]
        let (chunk_tx, chunk_rx) = mpsc::channel::<ShardChunk>();
        let mut senders = Vec::with_capacity(shards);
        let mut workers = Vec::with_capacity(shards);
        for (shard, mut executor) in executors.into_iter().enumerate() {
            let (tx, rx) = mpsc::sync_channel::<WorkerMsg>(self.config().channel_capacity);
            let chunk_tx = chunk_tx.clone();
            #[expect(
                clippy::expect_used,
                reason = "INVARIANT: thread spawn fails only on resource exhaustion at session startup — there is no meaningful recovery path."
            )]
            let handle = std::thread::Builder::new()
                .name(format!("jit-shard-{shard}"))
                .spawn(move || {
                    let mut arrivals = 0u64;
                    while let Ok(msg) = rx.recv() {
                        // One chunk per message: progress for the watermark,
                        // drained results, and a point-in-time snapshot.
                        // The snapshot is a handful of scalar reads —
                        // measured noise next to ingesting a batch — and
                        // the channel holds at most one small chunk header
                        // per batch beyond the results the executor would
                        // otherwise have buffered itself. A send error
                        // means the session stopped listening; results
                        // still reach it through the join below.
                        let state = match msg {
                            WorkerMsg::Chunk(steps) => {
                                for step in steps {
                                    match step {
                                        Step::Arrival(event) => {
                                            arrivals += 1;
                                            executor.ingest(event.source, event.tuple);
                                        }
                                        Step::Watermark(w) => executor.advance_watermark(w),
                                    }
                                }
                                None
                            }
                            WorkerMsg::Checkpoint => Some(executor.checkpoint()),
                        };
                        let _ = chunk_tx.send(ShardChunk {
                            shard,
                            results: executor.take_results(),
                            processed_through: executor.current_time(),
                            snapshot: executor.metrics().snapshot(),
                            state,
                        });
                    }
                    let results_count = executor.results_count();
                    let order_violations = executor.order_violations();
                    let (results, snapshot) = executor.finish();
                    ShardOutcome {
                        shard,
                        arrivals,
                        results,
                        results_count,
                        order_violations,
                        snapshot,
                    }
                })
                .expect("spawning a shard worker thread");
            senders.push(Some(tx));
            workers.push(Some(handle));
        }
        drop(chunk_tx); // the receiver disconnects once every worker exits
        ShardedSession {
            partitioner: self.partitioner().clone(),
            batch_size: self.config().batch_size,
            senders,
            pending: std::iter::repeat_with(Vec::new).take(shards).collect(),
            queued_watermark: Timestamp::ZERO,
            chunks: chunk_rx,
            workers,
            buffered: vec![VecDeque::new(); shards],
            progress: vec![Timestamp::ZERO; shards],
            batches_sent: vec![0; shards],
            chunks_seen: vec![0; shards],
            latest: vec![MetricsSnapshot::zero(); shards],
            last_push_ts: Timestamp::ZERO,
        }
    }
}

/// A live sharded execution accepting arrivals one at a time.
///
/// Created by [`ShardedRuntime::start`]; see the module docs for the
/// streaming-result and watermark semantics.
pub struct ShardedSession {
    partitioner: ShardPartitioner,
    batch_size: usize,
    senders: Vec<Option<mpsc::SyncSender<WorkerMsg>>>,
    /// Each shard's partial chunk: the steps queued since its last dispatch.
    pending: Vec<Vec<Step>>,
    /// The latest watermark queued (every shard gets each one); a watermark
    /// at or below it would be discarded by every executor anyway, so it is
    /// never queued.
    queued_watermark: Timestamp,
    chunks: mpsc::Receiver<ShardChunk>,
    workers: Vec<Option<JoinHandle<ShardOutcome>>>,
    /// Results received from each shard but not yet released by a poll.
    buffered: Vec<VecDeque<Tuple>>,
    /// Application time each shard has confirmed processing through.
    progress: Vec<Timestamp>,
    batches_sent: Vec<u64>,
    chunks_seen: Vec<u64>,
    /// Most recent point-in-time snapshot per shard.
    latest: Vec<MetricsSnapshot>,
    last_push_ts: Timestamp,
}

impl std::fmt::Debug for ShardedSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedSession")
            .field("shards", &self.workers.len())
            .field("batch_size", &self.batch_size)
            .field("last_push_ts", &self.last_push_ts)
            .finish()
    }
}

impl ShardedSession {
    /// Route one arrival to its shard.
    ///
    /// Arrivals must be pushed in non-decreasing timestamp order (the same
    /// contract as `Executor::ingest`). The send blocks when the shard's
    /// bounded channel is full — backpressure.
    pub fn push(&mut self, event: ArrivalEvent) {
        self.last_push_ts = self.last_push_ts.max(event.ts);
        let shard = self.partitioner.shard_of(&event.tuple);
        self.queue(shard, Step::Arrival(event));
    }

    /// Append one step to shard `shard`'s partial chunk and send the chunk
    /// once it holds `batch_size` steps. The bound counts steps, not
    /// arrivals: a shard that is routed no arrivals still ships (and frees)
    /// its queued watermarks every `batch_size` advances.
    fn queue(&mut self, shard: usize, step: Step) {
        self.pending[shard].push(step);
        if self.pending[shard].len() >= self.batch_size {
            self.dispatch(shard);
        }
    }

    /// Send shard `shard`'s partial chunk. A send failure means the worker
    /// died early (it panicked); the panic surfaces at [`Self::finish`].
    fn dispatch(&mut self, shard: usize) {
        let steps = std::mem::take(&mut self.pending[shard]);
        if steps.is_empty() {
            return;
        }
        self.send(shard, WorkerMsg::Chunk(steps));
    }

    /// Send every shard's partial chunk. Every observation of worker state
    /// (poll, metrics, finish) starts here, so an arrival never waits for
    /// `batch_size − 1` successors before it is processed.
    fn dispatch_all(&mut self) {
        for shard in 0..self.workers.len() {
            self.dispatch(shard);
        }
    }

    /// Send one message to shard `shard`, maintaining the
    /// one-chunk-per-message accounting.
    fn send(&mut self, shard: usize, msg: WorkerMsg) {
        if let Some(tx) = &self.senders[shard] {
            if tx.send(msg).is_err() {
                self.senders[shard] = None;
            } else {
                self.batches_sent[shard] += 1;
            }
        }
    }

    /// Record one chunk's results, progress and metrics; returns the
    /// serialised state when the chunk answers a checkpoint marker.
    fn absorb(&mut self, chunk: ShardChunk) -> Option<(usize, Content)> {
        self.buffered[chunk.shard].extend(chunk.results);
        self.progress[chunk.shard] = self.progress[chunk.shard].max(chunk.processed_through);
        self.latest[chunk.shard] = chunk.snapshot;
        self.chunks_seen[chunk.shard] += 1;
        chunk.state.map(|state| (chunk.shard, state))
    }

    /// Absorb every chunk the workers have reported so far.
    fn drain_chunks(&mut self) {
        while let Ok(chunk) = self.chunks.try_recv() {
            self.absorb(chunk);
        }
    }

    /// The timestamp below which every shard's output is complete. A shard
    /// that is fully caught up (no queued step, every sent chunk acked)
    /// is credited with the session-wide push time: any arrival it receives
    /// later must carry a larger timestamp, so it can no longer produce an
    /// earlier result (JIT's documented late re-emissions excepted — those
    /// pass through a poll exactly as they pass through the k-way merge).
    fn watermark(&self) -> Timestamp {
        let mut watermark = None::<Timestamp>;
        for shard in 0..self.workers.len() {
            let caught_up = self.pending[shard].is_empty()
                && self.batches_sent[shard] == self.chunks_seen[shard];
            let progress = if caught_up {
                self.progress[shard].max(self.last_push_ts)
            } else {
                self.progress[shard]
            };
            watermark = Some(watermark.map_or(progress, |w| w.min(progress)));
        }
        watermark.unwrap_or(Timestamp::ZERO)
    }

    /// Release every result that is safe to emit in global timestamp order.
    /// Partial chunks are sent to their shards first.
    ///
    /// Returns the newly released results (empty when `collect_results` is
    /// off or nothing has been confirmed past the watermark yet). Across the
    /// lifetime of the session, the concatenation of all polls followed by
    /// the final outcome's results is the k-way timestamp merge of the
    /// per-shard result streams.
    ///
    /// Release is *strictly below* the watermark: pushes at exactly the
    /// watermark timestamp are still legal (the contract is non-decreasing,
    /// not increasing), and releasing a tied result early would invert the
    /// merge's deterministic (timestamp, shard) tie-break against a
    /// same-timestamp result a lower shard produces later. Tied results
    /// are released together once the watermark moves past them (or by
    /// [`Self::finish`]).
    pub fn poll_results(&mut self) -> Vec<Tuple> {
        self.dispatch_all();
        self.drain_chunks();
        let watermark = self.watermark();
        let mut released = Vec::new();
        loop {
            // Smallest (front timestamp, shard) among the shard buffers —
            // the same tie-break as `merge_by_timestamp`.
            let next = self
                .buffered
                .iter()
                .enumerate()
                .filter_map(|(shard, buf)| buf.front().map(|t| (t.ts(), shard)))
                .min();
            let Some((ts, shard)) = next else { break };
            if ts >= watermark {
                break;
            }
            // Batch-frontier run release: the other shards' fronts cannot
            // change while we pop from `shard`, so every element strictly
            // below that frontier (or tied against a higher shard) leaves
            // in one run — the merge scans per *run*, not per tuple, which
            // reproduces the per-tuple `(timestamp, shard)` order exactly.
            let frontier = self
                .buffered
                .iter()
                .enumerate()
                .filter(|&(other, _)| other != shard)
                .filter_map(|(other, buf)| buf.front().map(|t| (t.ts(), other)))
                .min();
            loop {
                #[expect(
                    clippy::expect_used,
                    reason = "INVARIANT: `next` proved this shard's front exists, and only this loop pops from it."
                )]
                released.push(self.buffered[shard].pop_front().expect("front exists"));
                let keep_going = self.buffered[shard].front().is_some_and(|t| {
                    t.ts() < watermark
                        && frontier.is_none_or(|(fts, fshard)| {
                            t.ts() < fts || (t.ts() == fts && shard < fshard)
                        })
                });
                if !keep_going {
                    break;
                }
            }
        }
        released
    }

    /// Queue a watermark for every shard.
    ///
    /// The watermark travels *in-band*: it is appended to each shard's
    /// partial chunk behind the arrivals already pushed, and the worker
    /// replays the chunk in that order — so each executor processes every
    /// earlier arrival *before* it purges state at `w`, the push-then-advance
    /// ordering `Executor::advance_watermark` documents, and a session that
    /// advances after every push still ships `batch_size`-step chunks. Like
    /// an arrival, a queued watermark reaches its executor when the chunk
    /// fills or at the next [`Self::poll_results`] /
    /// [`Self::metrics_snapshot`] / [`Self::checkpoint`] / [`Self::finish`].
    /// Under the watermark clock this is what drives expiry; without it the
    /// call still advances the session's progress floor.
    ///
    /// Every advancing watermark is delivered: under JIT an advance that
    /// expires MNSs sends its own resume feedback, so two consecutive
    /// advances are not one (`tests/watermark_steps.rs`). A watermark that
    /// does not advance past the last one is dropped here — the executors
    /// would ignore it.
    pub fn advance_watermark(&mut self, w: Timestamp) {
        self.last_push_ts = self.last_push_ts.max(w);
        if w <= self.queued_watermark {
            return;
        }
        self.queued_watermark = w;
        for shard in 0..self.workers.len() {
            self.queue(shard, Step::Watermark(w));
        }
    }

    /// Take a consistent snapshot of the whole sharded execution.
    ///
    /// Dispatches anything pending, sends a checkpoint marker down every
    /// shard channel, and blocks until each shard has acknowledged every
    /// message up to and including the marker. Per-shard FIFO ordering makes
    /// the set of replies a consistent cut: every shard's state reflects
    /// exactly the arrivals and watermarks queued before this call, and the
    /// session's own buffers cover everything those executors emitted.
    ///
    /// The returned blob (shard states plus the session's unpolled results,
    /// progress marks and push frontier) feeds
    /// [`ShardedRuntime::start_restored`].
    pub fn checkpoint(&mut self) -> Result<Content, RuntimeError> {
        let shards = self.workers.len();
        let mut states: Vec<Option<Content>> = Vec::new();
        states.resize_with(shards, || None);
        for shard in 0..shards {
            self.dispatch(shard);
            self.send(shard, WorkerMsg::Checkpoint);
            if self.senders[shard].is_none() {
                return Err(RuntimeError::Restore(format!(
                    "shard {shard} is no longer running; cannot checkpoint"
                )));
            }
        }
        while states.iter().any(|s| s.is_none()) {
            let chunk = self.chunks.recv().map_err(|_| {
                RuntimeError::Restore("a shard worker exited during checkpoint".to_string())
            })?;
            if let Some((shard, state)) = self.absorb(chunk) {
                states[shard] = Some(state);
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "INVARIANT: the checkpoint barrier above collected exactly one state chunk per shard."
        )]
        let states: Vec<Content> = states.into_iter().map(|s| s.expect("barrier")).collect();
        let buffered: Vec<Vec<Tuple>> = self
            .buffered
            .iter()
            .map(|b| b.iter().cloned().collect())
            .collect();
        Ok(Content::Map(vec![
            ("shards".to_string(), Content::U64(shards as u64)),
            ("states".to_string(), Content::Seq(states)),
            ("buffered".to_string(), buffered.to_content()),
            ("progress".to_string(), self.progress.to_content()),
            ("last_push_ts".to_string(), self.last_push_ts.to_content()),
        ]))
    }

    /// A live aggregate of the workers' most recently reported metrics
    /// (counters and cost summed, wall-clock maxed, memory summed — the
    /// same rules as the final [`ParallelOutcome::snapshot`]). Partial chunks
    /// are sent to their shards first; shards that have not completed a
    /// batch yet contribute zeros.
    pub fn metrics_snapshot(&mut self) -> MetricsSnapshot {
        self.dispatch_all();
        self.drain_chunks();
        MetricsSnapshot::aggregate_parallel(self.latest.iter())
    }

    /// Analytical bytes the shards' plans held when each last acknowledged a
    /// chunk. Unlike [`Self::metrics_snapshot`] it sends and receives
    /// nothing, so it trails the steps still queued or in flight.
    pub fn state_bytes(&self) -> usize {
        self.latest.iter().map(|s| s.final_memory_bytes).sum()
    }

    /// Close the session: flush pending batches, end every shard's stream
    /// (which triggers the executor's end-of-stream flush), join the
    /// workers, and merge what remains.
    ///
    /// The returned outcome's `results` (and each `per_shard` stream)
    /// exclude anything already handed out by [`Self::poll_results`]; no
    /// result is ever delivered twice. Counters (`results_count`,
    /// `order_violations`, metrics) always cover the whole run.
    pub fn finish(mut self) -> Result<ParallelOutcome, RuntimeError> {
        self.dispatch_all();
        self.senders.clear(); // close every channel: workers drain and exit
        let joined: Vec<Result<ShardOutcome, RuntimeError>> = self
            .workers
            .iter_mut()
            .enumerate()
            .map(|(shard, handle)| {
                #[expect(clippy::expect_used, reason = "INVARIANT: finish() runs once and is the only taker of worker handles.")]
                handle
                    .take()
                    .expect("worker joined once")
                    .join()
                    .map_err(|payload| RuntimeError::ShardPanicked {
                        shard,
                        message: panic_message(payload.as_ref()),
                    })
            })
            .collect();
        // Workers have exited, so the chunk channel holds everything ever
        // sent; absorb it before assembling the per-shard streams.
        self.drain_chunks();
        let mut per_shard = Vec::with_capacity(joined.len());
        for outcome in joined {
            per_shard.push(outcome?);
        }
        for outcome in per_shard.iter_mut() {
            // Un-polled streamed results come first (ingest order), then the
            // executor's end-of-stream flush output.
            let mut stream: Vec<Tuple> = std::mem::take(&mut self.buffered[outcome.shard]).into();
            stream.append(&mut outcome.results);
            outcome.results = stream;
        }
        let snapshot = MetricsSnapshot::aggregate_parallel(per_shard.iter().map(|s| &s.snapshot));
        let results_count = per_shard.iter().map(|s| s.results_count).sum();
        let order_violations = per_shard.iter().map(|s| s.order_violations).sum();
        let streams: Vec<Vec<Tuple>> = per_shard
            .iter_mut()
            .map(|s| std::mem::take(&mut s.results))
            .collect();
        let results = merge_by_timestamp(&streams);
        for (shard, stream) in per_shard.iter_mut().zip(streams) {
            shard.results = stream;
        }
        Ok(ParallelOutcome {
            results,
            results_count,
            order_violations,
            snapshot,
            per_shard,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RuntimeConfig;
    use jit_exec::operator::{DataMessage, OpContext, Operator, OperatorOutput, Port};
    use jit_exec::{Input, PlanBuilder};
    use jit_stream::Trace;
    use jit_types::{BaseTuple, SourceId, SourceSet, Value};
    use std::sync::Arc;

    struct Forward;

    impl Operator for Forward {
        fn name(&self) -> &str {
            "forward"
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
        fn memory_bytes(&self) -> usize {
            32
        }
    }

    fn forward_plan() -> Result<ExecutablePlan, PlanError> {
        let mut builder = PlanBuilder::new();
        builder.add_operator(Box::new(Forward), vec![Input::Source(SourceId(0))]);
        builder.build()
    }

    fn event(i: u64) -> ArrivalEvent {
        keyed_event(i, i as i64)
    }

    /// The `i`-th arrival, routed by `key` instead of by its own index.
    fn keyed_event(i: u64, key: i64) -> ArrivalEvent {
        let ts = Timestamp::from_millis(i * 10);
        ArrivalEvent {
            ts,
            source: SourceId(0),
            tuple: Arc::new(BaseTuple::new(SourceId(0), i, ts, vec![Value::int(key)])),
        }
    }

    fn session(shards: usize, batch: usize) -> ShardedSession {
        ShardedRuntime::new(RuntimeConfig::with_shards(shards).with_batch_size(batch))
            .start(ExecutorConfig::default(), false, |_| forward_plan())
            .unwrap()
    }

    #[test]
    fn polls_release_a_prefix_of_the_merged_stream_exactly_once() {
        let trace = Trace::new((0..400).map(event).collect());
        let mut live = session(4, 8);
        let mut polled = Vec::new();
        for (i, e) in trace.iter().enumerate() {
            live.push(e.clone());
            if i % 97 == 0 {
                polled.extend(live.poll_results());
            }
        }
        let outcome = live.finish().unwrap();
        polled.extend(outcome.results);
        assert_eq!(polled.len(), 400);
        assert!(polled.windows(2).all(|w| w[0].ts() <= w[1].ts()));
        assert_eq!(outcome.results_count, 400);
    }

    #[test]
    fn polled_results_respect_the_watermark_mid_run() {
        let mut live = session(2, 1);
        for i in 0..50 {
            live.push(event(i));
        }
        // Give the workers a moment, then poll: anything released must be
        // globally ordered and complete up to its own horizon.
        let mut seen = Vec::new();
        for _ in 0..100 {
            seen.extend(live.poll_results());
            if seen.len() >= 50 {
                break;
            }
            std::thread::yield_now();
        }
        let outcome = live.finish().unwrap();
        seen.extend(outcome.results);
        assert_eq!(seen.len(), 50);
        assert!(seen.windows(2).all(|w| w[0].ts() <= w[1].ts()));
    }

    /// Retry `done` for up to ~5 s (the workers run on their own threads).
    fn eventually(mut done: impl FnMut() -> bool) -> bool {
        for _ in 0..5_000 {
            if done() {
                return true;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        false
    }

    /// A slow stream under a wide channel chunk: fewer arrivals than
    /// `batch_size` are pushed, so no chunk ever fills. Polling must still
    /// get them processed — without `finish`.
    #[test]
    fn polling_dispatches_partial_chunks() {
        let mut live = session(2, 1024);
        for i in 0..50 {
            live.push(event(i));
        }
        // The last arrival ties with the watermark and stays buffered (a
        // same-timestamp push is still legal); the 49 before it come out.
        let mut seen = Vec::new();
        assert!(eventually(|| {
            seen.extend(live.poll_results());
            seen.len() >= 49
        }));
        assert_eq!(seen.len(), 49);
        assert!(seen.windows(2).all(|w| w[0].ts() <= w[1].ts()));
        assert_eq!(live.finish().unwrap().results.len(), 1);
    }

    /// Same slow stream, observed through the metrics only.
    #[test]
    fn metrics_snapshot_dispatches_partial_chunks() {
        let mut live = session(2, 1024);
        for i in 0..50 {
            live.push(event(i));
        }
        assert!(eventually(
            || live.metrics_snapshot().stats.tuples_arrived == 50
        ));
        live.finish().unwrap();
    }

    /// Block until every message sent so far is acknowledged — a barrier,
    /// not a sleep.
    fn settle(live: &mut ShardedSession) {
        while live.chunks_seen != live.batches_sent {
            let chunk = live.chunks.recv().expect("workers are running");
            live.absorb(chunk);
        }
    }

    /// The bounded-disorder engine path advances the watermark after nearly
    /// every push. Watermarks ride in the chunks, so the message count is
    /// steps / chunk size — not three messages per arrival.
    #[test]
    fn a_watermark_after_every_push_still_ships_full_chunks() {
        const CHUNK: usize = 1024;
        let mut live = session(2, CHUNK);
        let n = 3_000u64;
        let mut steps = [n as usize; 2]; // every watermark reaches every shard
        for i in 1..=n {
            let e = event(i);
            steps[live.partitioner.shard_of(&e.tuple)] += 1;
            let ts = e.ts;
            live.push(e);
            live.advance_watermark(ts);
        }
        let queued = |live: &ShardedSession| live.pending.iter().map(Vec::len).collect::<Vec<_>>();
        assert_eq!(live.batches_sent, steps.map(|s| (s / CHUNK) as u64));
        assert_eq!(queued(&live), steps.map(|s| s % CHUNK));
        // A watermark that does not advance is not queued.
        live.advance_watermark(Timestamp::from_millis(n * 10));
        live.advance_watermark(Timestamp::from_millis(10));
        assert_eq!(queued(&live), steps.map(|s| s % CHUNK));
        // An explicit poll sends each partial chunk: one more message per
        // shard, and nothing when nothing is pending.
        let mut seen = live.poll_results().len();
        assert_eq!(live.batches_sent, steps.map(|s| s.div_ceil(CHUNK) as u64));
        let sent = live.batches_sent.clone();
        seen += live.poll_results().len();
        assert_eq!(live.batches_sent, sent);
        let outcome = live.finish().unwrap();
        assert_eq!(seen + outcome.results.len(), n as usize);
        assert_eq!(outcome.results_count, n);
    }

    /// Every arrival routes to one shard; the other receives watermarks
    /// only. Its partial chunk is bounded by the chunk size all the same,
    /// and a poll brings it to the last watermark.
    #[test]
    fn a_shard_fed_only_watermarks_ships_at_the_chunk_bound() {
        const CHUNK: usize = 1024;
        let mut live = session(2, CHUNK);
        let busy = live.partitioner.shard_of(&keyed_event(0, 7).tuple);
        let idle = 1 - busy;
        let n = 2_500u64;
        for i in 1..=n {
            let e = keyed_event(i, 7);
            let ts = e.ts;
            live.push(e);
            live.advance_watermark(ts);
        }
        assert_eq!(live.batches_sent[idle], n / CHUNK as u64);
        assert_eq!(live.pending[idle].len(), n as usize % CHUNK);
        live.poll_results();
        settle(&mut live);
        let last = Timestamp::from_millis(n * 10);
        assert_eq!(live.progress, vec![last; 2]);
        assert_eq!(live.finish().unwrap().per_shard[idle].arrivals, 0);
    }

    #[test]
    fn live_metrics_converge_to_the_final_snapshot() {
        let mut live = session(2, 4);
        for i in 0..120 {
            live.push(event(i));
        }
        let mid = live.metrics_snapshot();
        assert!(mid.stats.tuples_arrived <= 120);
        let outcome = live.finish().unwrap();
        assert_eq!(outcome.snapshot.stats.tuples_arrived, 120);
        assert!(mid.cost_units <= outcome.snapshot.cost_units);
    }

    #[test]
    fn checkpoint_restores_mid_stream_and_replays_the_tail() {
        let runtime = ShardedRuntime::new(RuntimeConfig::with_shards(2).with_batch_size(4));
        let mut live = runtime
            .start(ExecutorConfig::default(), false, |_| forward_plan())
            .unwrap();
        for i in 0..40 {
            live.push(event(i));
        }
        let ckpt = live.checkpoint().unwrap();
        drop(live); // simulated crash: channels close, workers exit
        let mut restored = runtime
            .start_restored(ExecutorConfig::default(), false, &ckpt, |_| forward_plan())
            .unwrap();
        for i in 40..80 {
            restored.push(event(i));
        }
        let outcome = restored.finish().unwrap();
        assert_eq!(outcome.results.len(), 80);
        assert!(outcome.results.windows(2).all(|w| w[0].ts() <= w[1].ts()));
        assert_eq!(outcome.results_count, 80); // counter carried across restore
    }

    #[test]
    fn restore_rejects_a_shard_count_mismatch() {
        let two = ShardedRuntime::new(RuntimeConfig::with_shards(2));
        let mut live = two
            .start(ExecutorConfig::default(), false, |_| forward_plan())
            .unwrap();
        let ckpt = live.checkpoint().unwrap();
        let three = ShardedRuntime::new(RuntimeConfig::with_shards(3));
        let err = three
            .start_restored(ExecutorConfig::default(), false, &ckpt, |_| forward_plan())
            .unwrap_err();
        assert!(matches!(err, RuntimeError::Restore(_)), "{err}");
    }

    #[test]
    fn plan_error_surfaces_before_any_thread_spawns() {
        let runtime = ShardedRuntime::new(RuntimeConfig::with_shards(2));
        let result = runtime.start(ExecutorConfig::default(), false, |shard| {
            if shard == 1 {
                PlanBuilder::new().build()
            } else {
                forward_plan()
            }
        });
        assert!(matches!(result, Err(RuntimeError::Plan(_))));
    }
}
