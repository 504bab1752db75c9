//! The key-partitionable workload preset of the sharded experiments.
//!
//! Sharding is lossless only for a *key-partitionable* workload: every join
//! predicate reduces to key equality. Run one through the engine:
//!
//! ```ignore
//! let outcome = Engine::builder()
//!     .workload(&parallel_workload(4, 200), &shape)
//!     .mode(mode)
//!     .sharded(RuntimeConfig::with_shards(8))
//!     .build()?
//!     .run_trace(&trace)?;
//! ```
//!
//! A workload that is neither shared-key nor statically partitionable is
//! rejected with `jit_engine::EngineError::NotPartitionable`. The
//! shard-determinism integration tests assert set-equality against the
//! single-threaded executor for shard counts 1, 2 and 4.

use jit_stream::WorkloadSpec;

/// A Table-III-style workload that is safe to shard: shared-key mode on,
/// with a key domain of `dmax`.
pub fn parallel_workload(num_sources: usize, dmax: u64) -> WorkloadSpec {
    WorkloadSpec::bushy_default()
        .with_sources(num_sources)
        .with_dmax(dmax)
        .with_shared_key()
}
