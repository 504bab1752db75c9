//! Parallel experiment entry point: workload → sharded engine → outcome.
//!
//! Legacy shims. [`run_parallel`] and [`run_parallel_trace`] predate the
//! unified engine API and survive as thin wrappers over
//! `jit_engine::Engine` with a `.sharded(...)` backend — prefer building
//! the engine directly:
//!
//! ```ignore
//! let outcome = Engine::builder()
//!     .workload(&spec, &shape)
//!     .mode(mode)
//!     .sharded(RuntimeConfig::with_shards(8))
//!     .build()?
//!     .run_trace(&trace)?;
//! ```
//!
//! Correctness requires a *key-partitionable* workload — use
//! [`parallel_workload`] (or `WorkloadSpec::with_shared_key`) so that every
//! join predicate reduces to key equality and sharding is lossless. Unlike
//! the pre-engine entry points, a workload that is neither shared-key nor
//! statically partitionable is now rejected with
//! [`jit_engine::EngineError::NotPartitionable`] instead of silently losing
//! results. The shard-determinism integration tests assert set-equality
//! against the single-threaded executor for shard counts 1, 2 and 4.

use jit_core::policy::ExecutionMode;
use jit_engine::{Engine, EngineError};
use jit_exec::executor::ExecutorConfig;
use jit_plan::shapes::PlanShape;
use jit_runtime::{ParallelOutcome, RuntimeConfig};
use jit_stream::{Trace, WorkloadGenerator, WorkloadSpec};

/// A Table-III-style workload that is safe to shard: shared-key mode on,
/// with a key domain of `dmax`.
pub fn parallel_workload(num_sources: usize, dmax: u64) -> WorkloadSpec {
    WorkloadSpec::bushy_default()
        .with_sources(num_sources)
        .with_dmax(dmax)
        .with_shared_key()
}

/// Generate the workload described by `spec` and execute it across shards.
///
/// Equivalent to [`run_parallel_trace`] on a freshly generated trace.
pub fn run_parallel(
    spec: &WorkloadSpec,
    shape: &PlanShape,
    mode: ExecutionMode,
    exec_config: ExecutorConfig,
    runtime_config: RuntimeConfig,
) -> Result<ParallelOutcome, EngineError> {
    let trace = WorkloadGenerator::generate(spec);
    run_parallel_trace(&trace, spec, shape, mode, exec_config, runtime_config)
}

/// Execute a pre-generated trace across shards (so different shard counts
/// and modes see identical input).
///
/// Each shard's worker owns its own instance of the plan described by
/// `shape` + `spec` under `mode` — operators are stateful, so instances are
/// never shared.
pub fn run_parallel_trace(
    trace: &Trace,
    spec: &WorkloadSpec,
    shape: &PlanShape,
    mode: ExecutionMode,
    exec_config: ExecutorConfig,
    runtime_config: RuntimeConfig,
) -> Result<ParallelOutcome, EngineError> {
    let outcome = Engine::builder()
        .workload(spec, shape)
        .mode(mode)
        .executor_config(exec_config)
        .sharded(runtime_config)
        .build()?
        .run_trace(trace)?;
    Ok(ParallelOutcome {
        results: outcome.results,
        results_count: outcome.results_count,
        order_violations: outcome.order_violations,
        snapshot: outcome.snapshot,
        per_shard: outcome.per_shard,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use jit_exec::output;
    use jit_types::Duration;

    fn small_spec() -> WorkloadSpec {
        parallel_workload(3, 20)
            .with_rate(1.0)
            .with_window_minutes(2.0)
            .with_duration(Duration::from_secs(120))
            .with_seed(17)
    }

    #[test]
    fn parallel_ref_matches_sequential_ref() {
        let spec = small_spec();
        let shape = PlanShape::bushy(3);
        let trace = WorkloadGenerator::generate(&spec);
        let sequential = Engine::builder()
            .workload(&spec, &shape)
            .build()
            .unwrap()
            .run_trace(&trace)
            .unwrap();
        let parallel = run_parallel_trace(
            &trace,
            &spec,
            &shape,
            ExecutionMode::Ref,
            ExecutorConfig::default(),
            RuntimeConfig::with_shards(3),
        )
        .unwrap();
        assert!(
            sequential.results_count > 0,
            "workload must produce results"
        );
        assert_eq!(parallel.results_count, sequential.results_count);
        assert!(output::same_results(&sequential.results, &parallel.results));
        assert!(output::is_temporally_ordered(&parallel.results));
        assert_eq!(parallel.order_violations, 0);
        assert_eq!(parallel.snapshot.stats.tuples_arrived, trace.len() as u64);
    }

    #[test]
    fn run_parallel_generates_and_runs() {
        let outcome = run_parallel(
            &small_spec(),
            &PlanShape::left_deep(3),
            ExecutionMode::Ref,
            ExecutorConfig::default(),
            RuntimeConfig::with_shards(2),
        )
        .unwrap();
        assert_eq!(outcome.per_shard.len(), 2);
        assert!(outcome.snapshot.stats.tuples_arrived > 0);
    }

    #[test]
    fn non_partitionable_workload_is_rejected_not_silently_wrong() {
        // No shared key: the clique predicates cannot be hash-sharded.
        let spec = WorkloadSpec::bushy_default()
            .with_sources(3)
            .with_duration(Duration::from_secs(30));
        let result = run_parallel(
            &spec,
            &PlanShape::bushy(3),
            ExecutionMode::Ref,
            ExecutorConfig::default(),
            RuntimeConfig::with_shards(2),
        );
        assert!(matches!(result, Err(EngineError::NotPartitionable { .. })));
    }
}
