//! # jit-runtime
//!
//! The sharded parallel runtime: hash-partitioned multi-core execution of
//! JIT cascades.
//!
//! The paper evaluates its mechanism on a single-threaded cascade executor
//! (`jit-exec`). This crate scales that executor across cores without
//! touching its internals:
//!
//! * [`RuntimeConfig`] — the knobs: `shards` (worker threads),
//!   `batch_size` (steps per shard chunk: arrivals and watermark advances)
//!   and `channel_capacity` (bound of each shard's ingestion channel, in
//!   chunks).
//! * [`ShardPartitioner`] — assigns each arrival to a
//!   shard by hashing its join-key column; key-equal tuples always share a
//!   shard, so key-partitionable workloads shard losslessly.
//! * [`ShardedRuntime`] — one independent `Executor` per shard on
//!   its own OS thread, each with its own plan instance; the caller's thread
//!   pushes chunks of steps through *bounded* MPSC channels (backpressure,
//!   not unbounded queues).
//! * [`merge_by_timestamp`] — a timestamp-ordered k-way merge of the per-shard result
//!   streams, restoring the paper's global temporal-order guarantee at the
//!   sink; per-shard metrics aggregate into a single `MetricsSnapshot`.
//!
//! The crate is mode-agnostic: REF, DOE and JIT plans all shard the same
//! way. This is also the seam later work builds on: async backends
//! replace the thread-per-shard worker, NUMA placement pins shards, and
//! distributed sharding swaps the channel for a network transport.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod config;
mod merge;
mod session;
mod sharded;

pub use config::{ConfigError, RuntimeConfig};
pub use jit_stream::ShardPartitioner;
pub use merge::merge_by_timestamp;
pub use session::ShardedSession;
pub use sharded::{ParallelOutcome, RuntimeError, ShardOutcome, ShardedRuntime};
