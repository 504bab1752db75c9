//! The backend seam: one push-based contract, two executors behind it.
//!
//! [`Backend`] is the trait-level seam between the public [`crate::Session`]
//! API and the machinery that actually runs the plan. Two implementations
//! exist, selected purely by configuration on the [`crate::EngineBuilder`]:
//!
//! * [`SingleThreadBackend`] — the paper's cascade [`Executor`], processing
//!   every arrival inline on the pushing thread.
//! * [`ShardedBackend`] — the hash-partitioned multi-core
//!   [`jit_runtime::ShardedSession`], routing each arrival to its shard's
//!   worker thread.
//!
//! Both honour the same semantics: arrivals are pushed in timestamp order,
//! `poll_results` releases results incrementally, and `finish` runs the
//! end-of-stream flush (PR-1 watermark/close semantics) and returns the
//! remaining results plus final metrics.

use crate::error::EngineError;
use jit_exec::executor::Executor;
use jit_metrics::MetricsSnapshot;
use jit_runtime::{ShardOutcome, ShardedSession};
use jit_stream::arrival::ArrivalEvent;
use jit_types::{BaseTuple, SourceId, Timestamp, Tuple};
use serde::Content;
use std::sync::Arc;

/// Everything one finished engine session produced.
#[derive(Debug, Clone)]
pub struct EngineOutcome {
    /// Label of the execution mode that ran (`"REF"`, `"DOE"`, `"JIT"`).
    pub mode_label: &'static str,
    /// Results never handed out through `poll_results`, in the backend's
    /// emission order (globally timestamp-merged for the sharded backend).
    /// A session that never polls gets the complete result stream here.
    pub results: Vec<Tuple>,
    /// Total results emitted over the whole run, polled or not (counted
    /// even when result collection is disabled).
    pub results_count: u64,
    /// Temporal-order violations observed at the sinks (0 for a correct
    /// run).
    pub order_violations: u64,
    /// Final metrics: totals plus pre-flush steady-state figures.
    pub snapshot: MetricsSnapshot,
    /// Per-shard outcomes (empty for the single-threaded backend).
    pub per_shard: Vec<ShardOutcome>,
}

impl EngineOutcome {
    /// Largest shard's share of all arrivals, in `[0, 1]` — a quick skew
    /// diagnostic (1/N is perfect balance; 0 for the single-threaded
    /// backend, which has no shards).
    pub fn max_shard_load(&self) -> f64 {
        let total: u64 = self.per_shard.iter().map(|s| s.arrivals).sum();
        if total == 0 {
            return 0.0;
        }
        let max = self.per_shard.iter().map(|s| s.arrivals).max().unwrap_or(0);
        max as f64 / total as f64
    }
}

/// A push-based execution backend.
///
/// The trait is public so callers (and the cross-backend equivalence tests)
/// can drive the two implementations through one generic seam, but ordinary
/// use goes through [`crate::Session`], which adds ordering validation on
/// top.
pub trait Backend {
    /// Ingest one base tuple from `source`. Arrivals must be pushed in
    /// non-decreasing timestamp order.
    fn push(&mut self, source: SourceId, tuple: Arc<BaseTuple>);

    /// Drain the results that are ready to hand out. For the sharded
    /// backend this releases only what is complete up to the cross-shard
    /// watermark, so the stream stays globally timestamp-merged.
    fn poll_results(&mut self) -> Vec<Tuple>;

    /// A live point-in-time metrics aggregate.
    fn metrics_snapshot(&mut self) -> MetricsSnapshot;

    /// Analytical bytes the plan's containers currently hold (states, MNS
    /// buffers, blacklists). Never a round trip: the sharded backend sums
    /// what each shard last acknowledged, so the figure trails the pushes
    /// still in flight.
    fn state_bytes(&self) -> usize;

    /// Advance the backend's watermark clock: operators purge state expired
    /// at `w` and application time becomes `w`. Meaningful when the backend
    /// was built with the watermark clock enabled (the bounded-disorder
    /// path); the session calls it *after* pushing every tuple released at
    /// or under `w`, never before.
    ///
    /// The advance is ordered against `push`, not immediate: every executor
    /// applies it after the pushes that preceded the call and before those
    /// that follow. The single-threaded backend does so inline; the sharded
    /// backend queues it in each shard's chunk like an arrival, so it takes
    /// effect when the chunk fills or at the next `poll_results`,
    /// `metrics_snapshot`, `checkpoint` or `finish`.
    fn advance_watermark(&mut self, w: Timestamp);

    /// Serialise the backend's full resumable state (operator state,
    /// progress, unpolled results) as a checkpoint blob.
    fn checkpoint(&mut self) -> Result<Content, EngineError>;

    /// End the stream: flush suppressed production to quiescence and return
    /// the outcome.
    fn finish(self: Box<Self>) -> Result<EngineOutcome, EngineError>;
}

/// The paper's single-threaded cascade executor behind the [`Backend`] seam.
pub struct SingleThreadBackend {
    executor: Executor,
    mode_label: &'static str,
}

impl SingleThreadBackend {
    /// Wrap an executor.
    pub fn new(executor: Executor, mode_label: &'static str) -> Self {
        SingleThreadBackend {
            executor,
            mode_label,
        }
    }
}

impl Backend for SingleThreadBackend {
    fn push(&mut self, source: SourceId, tuple: Arc<BaseTuple>) {
        self.executor.ingest(source, tuple);
    }

    fn poll_results(&mut self) -> Vec<Tuple> {
        self.executor.take_results()
    }

    fn metrics_snapshot(&mut self) -> MetricsSnapshot {
        self.executor.metrics().snapshot()
    }

    fn state_bytes(&self) -> usize {
        self.executor.metrics().memory.current_bytes()
    }

    fn advance_watermark(&mut self, w: Timestamp) {
        self.executor.advance_watermark(w);
    }

    fn checkpoint(&mut self) -> Result<Content, EngineError> {
        Ok(self.executor.checkpoint())
    }

    fn finish(self: Box<Self>) -> Result<EngineOutcome, EngineError> {
        let results_count = self.executor.results_count();
        let order_violations = self.executor.order_violations();
        let (results, snapshot) = self.executor.finish();
        Ok(EngineOutcome {
            mode_label: self.mode_label,
            results,
            results_count,
            order_violations,
            snapshot,
            per_shard: Vec::new(),
        })
    }
}

/// The hash-partitioned multi-core runtime behind the [`Backend`] seam.
pub struct ShardedBackend {
    session: ShardedSession,
    mode_label: &'static str,
}

impl ShardedBackend {
    /// Wrap a live sharded session.
    pub fn new(session: ShardedSession, mode_label: &'static str) -> Self {
        ShardedBackend {
            session,
            mode_label,
        }
    }
}

impl Backend for ShardedBackend {
    fn push(&mut self, source: SourceId, tuple: Arc<BaseTuple>) {
        self.session.push(ArrivalEvent {
            ts: tuple.ts,
            source,
            tuple,
        });
    }

    fn poll_results(&mut self) -> Vec<Tuple> {
        self.session.poll_results()
    }

    fn metrics_snapshot(&mut self) -> MetricsSnapshot {
        self.session.metrics_snapshot()
    }

    fn state_bytes(&self) -> usize {
        self.session.state_bytes()
    }

    fn advance_watermark(&mut self, w: Timestamp) {
        self.session.advance_watermark(w);
    }

    fn checkpoint(&mut self) -> Result<Content, EngineError> {
        Ok(self.session.checkpoint()?)
    }

    fn finish(self: Box<Self>) -> Result<EngineOutcome, EngineError> {
        let outcome = self.session.finish()?;
        Ok(EngineOutcome {
            mode_label: self.mode_label,
            results: outcome.results,
            results_count: outcome.results_count,
            order_violations: outcome.order_violations,
            snapshot: outcome.snapshot,
            per_shard: outcome.per_shard,
        })
    }
}
