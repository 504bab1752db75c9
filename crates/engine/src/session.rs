//! Live push-based query sessions.

use crate::backend::{Backend, EngineOutcome};
use crate::error::EngineError;
use jit_durable::{write_checkpoint, CheckpointStats, PushOutcome, ReorderBuffer};
use jit_metrics::MetricsSnapshot;
use jit_stream::arrival::ArrivalEvent;
use jit_stream::Trace;
use jit_types::{BaseTuple, SourceId, Timestamp, Tuple};
use serde::{Content, Serialize};
use std::path::Path;
use std::sync::Arc;

/// What the session's reorder stage carries per buffered arrival.
type Buffered = (SourceId, Arc<BaseTuple>);

/// A live execution of one engine's query.
///
/// Data goes in tuple by tuple ([`Session::push`] /
/// [`Session::push_batch`]); results and metrics come out incrementally
/// ([`Session::poll_results`], [`Session::metrics_snapshot`]); and
/// [`Session::finish`] closes the stream with the end-of-stream flush
/// semantics of PR 1 (suppressed production is drained to quiescence before
/// the outcome is final).
///
/// ## Arrival order
///
/// Under the default [`jit_durable::DisorderPolicy::Strict`] the session
/// enforces the paper's arrival contract: tuples must be pushed in
/// non-decreasing timestamp order, and a violation is a typed
/// [`EngineError::OutOfOrder`]. Under
/// [`jit_durable::DisorderPolicy::Bounded`] a [`ReorderBuffer`] sits in
/// front of the backend: arrivals within the lateness bound are buffered
/// and released downstream in timestamp order as the watermark (max seen
/// timestamp minus the bound) advances, and arrivals older than the
/// watermark are dropped and counted ([`PushOutcome::LateDrop`]) instead of
/// erroring. Each release pushes the ready tuples *first* and advances the
/// backend's watermark clock *second*, so a released tuple always probes
/// the state as it stood before any expiry at its watermark. On the sharded
/// backend both travel in the same per-shard chunks, in that order
/// ([`Backend::advance_watermark`]), so a bounded-disorder session batches
/// exactly as a strict one does: what has been pushed is processed, and its
/// results become pollable, when a chunk fills or at the next poll.
///
/// ## Durability
///
/// [`Session::checkpoint`] serialises everything needed to resume — backend
/// operator state, the reorder stage, and the push/progress frontier — and
/// [`crate::Engine::restore`] rebuilds a session from it. The contract is
/// exactly-once with respect to the input stream: after a restore, replay
/// the source stream from arrival index [`Session::pushed`] onward and the
/// concatenation of polled plus final results equals an uninterrupted run's.
pub struct Session {
    backend: Box<dyn Backend>,
    last_push_ts: Timestamp,
    pushed: u64,
    /// The reorder stage; present only under a bounded disorder policy.
    disorder: Option<ReorderBuffer<Buffered>>,
    /// Cumulative checkpoint-file cost, surfaced through metrics.
    ckpt_bytes: u64,
    ckpt_millis: u64,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("pushed", &self.pushed)
            .field("last_push_ts", &self.last_push_ts)
            .field("disorder", &self.disorder.is_some())
            .finish()
    }
}

impl Session {
    /// Wrap a backend (done by [`crate::Engine::session`]).
    pub(crate) fn new(
        backend: Box<dyn Backend>,
        disorder: Option<ReorderBuffer<Buffered>>,
    ) -> Self {
        Session {
            backend,
            last_push_ts: Timestamp::ZERO,
            pushed: 0,
            disorder,
            ckpt_bytes: 0,
            ckpt_millis: 0,
        }
    }

    /// Rebuild a session from checkpointed control state (done by
    /// [`crate::Engine::restore`]).
    pub(crate) fn restored(
        backend: Box<dyn Backend>,
        pushed: u64,
        last_push_ts: Timestamp,
        disorder: Option<ReorderBuffer<Buffered>>,
        ckpt_bytes: u64,
        ckpt_millis: u64,
    ) -> Self {
        Session {
            backend,
            last_push_ts,
            pushed,
            disorder,
            ckpt_bytes,
            ckpt_millis,
        }
    }

    /// Push one base tuple arriving on `source`.
    ///
    /// Strict policy: rejects a timestamp regression with
    /// [`EngineError::OutOfOrder`] and otherwise returns
    /// [`PushOutcome::Accepted`]. Bounded policy: never errors — the
    /// outcome says whether the tuple was accepted (possibly reordered) or
    /// dropped as too late.
    ///
    /// On the sharded backend a full ingestion channel blocks the call —
    /// backpressure, never unbounded queueing.
    pub fn push(
        &mut self,
        source: SourceId,
        tuple: Arc<BaseTuple>,
    ) -> Result<PushOutcome, EngineError> {
        // Every arrival, accepted or dropped, advances the replay cursor:
        // `pushed` is the index into the *input* stream, which is what a
        // post-restore replay must resume from.
        self.pushed += 1;
        let Some(buffer) = &mut self.disorder else {
            if tuple.ts < self.last_push_ts {
                self.pushed -= 1; // a rejected push is not consumed
                return Err(EngineError::OutOfOrder {
                    pushed: tuple.ts,
                    last: self.last_push_ts,
                });
            }
            self.last_push_ts = tuple.ts;
            self.backend.push(source, tuple);
            return Ok(PushOutcome::Accepted);
        };
        let ts = tuple.ts;
        let outcome = buffer.push(ts, (source, tuple));
        self.last_push_ts = buffer.max_ts();
        let target = buffer.target_watermark();
        if target > buffer.frontier() {
            // Push first, advance second: the released tuples must probe
            // state as of the previous watermark before any expiry at the
            // new one runs.
            for (_ts, (source, tuple)) in buffer.release(target) {
                self.backend.push(source, tuple);
            }
            self.backend.advance_watermark(target);
        }
        Ok(outcome)
    }

    /// Push one arrival event.
    pub fn push_event(&mut self, event: ArrivalEvent) -> Result<PushOutcome, EngineError> {
        self.push(event.source, event.tuple)
    }

    /// Push a sequence of arrivals.
    pub fn push_batch(
        &mut self,
        events: impl IntoIterator<Item = ArrivalEvent>,
    ) -> Result<(), EngineError> {
        for event in events {
            // Batch pushes surface drops through the metrics counters, not
            // per-tuple outcomes.
            let _ = self.push_event(event)?;
        }
        Ok(())
    }

    /// Replay a whole pre-generated trace.
    pub fn push_trace(&mut self, trace: &Trace) -> Result<(), EngineError> {
        self.push_batch(trace.iter().cloned())
    }

    /// Number of input arrivals consumed so far (accepted *or* dropped as
    /// late — this is the replay cursor into the input stream, not a count
    /// of processed tuples).
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Drain the results that are ready: everything emitted since the last
    /// poll (single-threaded), or everything complete up to the cross-shard
    /// watermark (sharded). Polled results are excluded from the final
    /// outcome — nothing is ever delivered twice.
    pub fn poll_results(&mut self) -> Vec<Tuple> {
        self.backend.poll_results()
    }

    /// A live metrics aggregate (cost, memory, counters) for the work done
    /// so far, including the session's own disorder and checkpoint counters.
    pub fn metrics_snapshot(&mut self) -> MetricsSnapshot {
        let mut snapshot = self.backend.metrics_snapshot();
        self.overlay(&mut snapshot);
        snapshot
    }

    /// Add the session-level counters (reorder stage, checkpoint cost) the
    /// backend cannot know about.
    fn overlay(&self, snapshot: &mut MetricsSnapshot) {
        if let Some(buffer) = &self.disorder {
            snapshot.late_arrivals = buffer.late_arrivals();
            snapshot.late_dropped = buffer.late_dropped();
            snapshot.reorder_buffer_peak = snapshot.reorder_buffer_peak.max(buffer.peak());
        }
        snapshot.checkpoint_bytes += self.ckpt_bytes;
        snapshot.checkpoint_millis += self.ckpt_millis;
    }

    /// Analytical bytes the running plan currently holds, without touching
    /// the backend (see [`Backend::state_bytes`]): exact on the
    /// single-threaded backend, as of each shard's last acknowledged chunk
    /// on the sharded one.
    pub fn state_bytes(&self) -> usize {
        self.backend.state_bytes()
    }

    /// Serialise the session's full resumable state as a checkpoint body
    /// for [`crate::Engine::restore`]. On the sharded backend this blocks
    /// until every shard reaches the checkpoint barrier (a consistent cut).
    ///
    /// The blob holds the backend's operator state, the reorder stage
    /// (control counters plus every buffered arrival), and the
    /// push/progress frontier. Wrap it in a file with
    /// [`Session::checkpoint_to`] or `jit_durable::write_checkpoint`.
    pub fn checkpoint(&mut self) -> Result<Content, EngineError> {
        let backend_state = self.backend.checkpoint()?;
        let disorder = match &self.disorder {
            None => Content::Null,
            Some(buffer) => {
                let items: Vec<(Timestamp, Buffered)> =
                    buffer.iter().map(|(ts, item)| (ts, item.clone())).collect();
                Content::Map(vec![
                    ("control".to_string(), buffer.checkpoint_control()),
                    ("items".to_string(), items.to_content()),
                ])
            }
        };
        Ok(Content::Map(vec![
            ("pushed".to_string(), Content::U64(self.pushed)),
            ("last_push_ts".to_string(), self.last_push_ts.to_content()),
            ("disorder".to_string(), disorder),
            ("ckpt_bytes".to_string(), Content::U64(self.ckpt_bytes)),
            ("ckpt_millis".to_string(), Content::U64(self.ckpt_millis)),
            ("backend".to_string(), backend_state),
        ]))
    }

    /// Checkpoint straight to a file (see [`Session::checkpoint`]), and
    /// fold the write cost into this session's metrics
    /// (`checkpoint_bytes` / `checkpoint_millis`).
    pub fn checkpoint_to(
        &mut self,
        path: impl AsRef<Path>,
    ) -> Result<CheckpointStats, EngineError> {
        let body = self.checkpoint()?;
        let stats = write_checkpoint(path, &body)?;
        self.ckpt_bytes += stats.bytes;
        self.ckpt_millis += stats.millis;
        Ok(stats)
    }

    /// End the stream: release anything still held by the reorder stage,
    /// flush suppressed production to quiescence (watermark/close
    /// semantics), join any workers, and return the remaining results plus
    /// final metrics.
    pub fn finish(mut self) -> Result<EngineOutcome, EngineError> {
        if let Some(buffer) = &mut self.disorder {
            for (_ts, (source, tuple)) in buffer.flush() {
                self.backend.push(source, tuple);
            }
            self.backend.advance_watermark(buffer.frontier());
        }
        let backend = std::mem::replace(&mut self.backend, Box::new(NullBackend));
        let mut outcome = backend.finish()?;
        self.overlay(&mut outcome.snapshot);
        Ok(outcome)
    }
}

/// Placeholder backend left behind while [`Session::finish`] consumes the
/// real one (never pushed to — `finish` takes `self` by value).
struct NullBackend;

impl Backend for NullBackend {
    #[expect(
        clippy::unreachable,
        reason = "INVARIANT: finish() consumes the session while swapping this in, so no push can follow."
    )]
    fn push(&mut self, _source: SourceId, _tuple: Arc<BaseTuple>) {
        unreachable!("NullBackend is never pushed to")
    }
    fn poll_results(&mut self) -> Vec<Tuple> {
        Vec::new()
    }
    fn metrics_snapshot(&mut self) -> MetricsSnapshot {
        MetricsSnapshot::zero()
    }
    fn state_bytes(&self) -> usize {
        0
    }
    fn advance_watermark(&mut self, _w: Timestamp) {}
    fn checkpoint(&mut self) -> Result<Content, EngineError> {
        Ok(Content::Null)
    }
    #[expect(
        clippy::unreachable,
        reason = "INVARIANT: finish() consumes the session while swapping this in, so no second finish can follow."
    )]
    fn finish(self: Box<Self>) -> Result<EngineOutcome, EngineError> {
        unreachable!("NullBackend is never finished")
    }
}
