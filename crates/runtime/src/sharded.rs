//! The sharded parallel runtime.
//!
//! A [`ShardedRuntime`] hash-partitions the join-key space of what is pushed
//! into its session ([`ShardedRuntime::start`]) over `N` shards, runs one
//! independent [`Executor`](jit_exec::Executor) per shard on its
//! own OS thread (each with its own instance of the plan, built by a
//! caller-supplied factory), feeds every shard through a *bounded* MPSC
//! channel in chunks of steps (a full channel blocks the feeder — backpressure
//! instead of unbounded queueing), and finally merges the per-shard result
//! streams into one globally timestamp-ordered stream while aggregating
//! per-shard metrics into a single [`MetricsSnapshot`].
//!
//! ## Correctness
//!
//! Sharding is transparent exactly when the workload is *key-partitionable*:
//! every pair of tuples that can satisfy the join predicates must be
//! assigned to the same shard. The [`ShardPartitioner`] guarantees this for
//! workloads whose predicates all reduce to equality on the partitioning
//! key (see `jit_stream::WorkloadSpec::shared_key`); under that premise the
//! union of per-shard results equals the single-executor result set.
//! Whenever each shard preserves temporal order at its sink (REF always
//! does), the k-way merge restores the global temporal-order guarantee of
//! Section II; JIT's documented late-re-emission deviation carries through
//! the merge exactly as it does on a single executor.

use crate::config::RuntimeConfig;
use jit_exec::PlanError;
use jit_metrics::MetricsSnapshot;
use jit_stream::ShardPartitioner;
use jit_types::Tuple;
use std::fmt;

/// Why a parallel run failed.
#[derive(Debug)]
pub enum RuntimeError {
    /// Building the plan for a shard failed.
    Plan(PlanError),
    /// A shard worker panicked (the panic message is preserved when it was a
    /// string).
    ShardPanicked {
        /// Index of the failed shard.
        shard: usize,
        /// Panic payload, if it was a string.
        message: String,
    },
    /// A checkpoint did not match this runtime's configuration, or its
    /// per-shard state failed to deserialise.
    Restore(String),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Plan(e) => write!(f, "plan construction failed: {e}"),
            RuntimeError::ShardPanicked { shard, message } => {
                write!(f, "shard {shard} panicked: {message}")
            }
            RuntimeError::Restore(detail) => {
                write!(f, "restoring a sharded checkpoint failed: {detail}")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<PlanError> for RuntimeError {
    fn from(e: PlanError) -> Self {
        RuntimeError::Plan(e)
    }
}

/// What one shard produced.
#[derive(Debug, Clone)]
pub struct ShardOutcome {
    /// The shard index.
    pub shard: usize,
    /// Arrivals this shard ingested.
    pub arrivals: u64,
    /// Results collected at this shard's sink (empty when collection is off).
    pub(crate) results: Vec<Tuple>,
    /// Number of results emitted at this shard's sink.
    pub results_count: u64,
    /// Temporal-order violations at this shard's sink.
    pub(crate) order_violations: u64,
    /// This shard's metrics.
    pub snapshot: MetricsSnapshot,
}

/// The merged outcome of one parallel run.
#[derive(Debug, Clone)]
pub struct ParallelOutcome {
    /// Merged results (empty when collection is disabled in the executor
    /// configuration). Globally timestamp-ordered whenever every shard's
    /// own stream is — always true under REF; single-threaded JIT may
    /// re-emit a suppressed result late (a documented deviation), and the
    /// merge hands that deviation through rather than re-sorting.
    pub results: Vec<Tuple>,
    /// Total results emitted across all shards.
    pub results_count: u64,
    /// Total per-shard sink order violations (0 for a correct run).
    pub order_violations: u64,
    /// Aggregated metrics: counters and cost summed, wall-clock maxed,
    /// memory summed (see `MetricsSnapshot::absorb_parallel`).
    pub snapshot: MetricsSnapshot,
    /// Per-shard outcomes, indexed by shard.
    pub per_shard: Vec<ShardOutcome>,
}

/// Hash-partitioned multi-core executor of JIT cascades.
#[derive(Debug, Clone)]
pub struct ShardedRuntime {
    config: RuntimeConfig,
    partitioner: ShardPartitioner,
}

impl ShardedRuntime {
    /// A runtime with the given configuration, partitioning on column 0.
    pub fn new(config: RuntimeConfig) -> Self {
        let config = config.normalized();
        let partitioner = ShardPartitioner::new(config.shards);
        ShardedRuntime {
            config,
            partitioner,
        }
    }

    /// Replace the partitioner (e.g. to key on a different column). The
    /// partitioner's shard count must match the configuration.
    ///
    /// # Panics
    /// Panics if the shard counts disagree.
    pub fn with_partitioner(mut self, partitioner: ShardPartitioner) -> Self {
        assert_eq!(
            partitioner.num_shards(),
            self.config.shards,
            "partitioner and runtime must agree on the shard count"
        );
        self.partitioner = partitioner;
        self
    }

    /// The runtime's configuration.
    pub(crate) fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// The partitioner in use.
    pub(crate) fn partitioner(&self) -> &ShardPartitioner {
        &self.partitioner
    }
}

pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jit_exec::operator::{DataMessage, OpContext, Operator, OperatorOutput, Port};
    use jit_exec::{ExecutablePlan, ExecutorConfig, Input, PlanBuilder};
    use jit_stream::{ArrivalEvent, Trace};
    use jit_types::{BaseTuple, SourceId, SourceSet, Timestamp, Value};
    use std::sync::Arc;

    /// Forwards every input tuple to its consumer (or the sink).
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

    fn keyed_trace(n: u64) -> Trace {
        Trace::new(
            (0..n)
                .map(|i| {
                    let ts = Timestamp::from_millis(i * 10);
                    ArrivalEvent {
                        ts,
                        source: SourceId(0),
                        tuple: Arc::new(BaseTuple::new(
                            SourceId(0),
                            i,
                            ts,
                            vec![Value::int(i as i64)],
                        )),
                    }
                })
                .collect(),
        )
    }

    /// Replay `trace` through a fresh forwarding session and close it.
    fn run(
        runtime: &ShardedRuntime,
        trace: &Trace,
        exec_config: ExecutorConfig,
    ) -> ParallelOutcome {
        let mut session = runtime
            .start(exec_config, false, |_| forward_plan())
            .unwrap();
        for event in trace.iter() {
            session.push(event.clone());
        }
        session.finish().unwrap()
    }

    #[test]
    fn all_arrivals_reach_exactly_one_shard() {
        let runtime = ShardedRuntime::new(
            RuntimeConfig::with_shards(4)
                .with_batch_size(8)
                .with_channel_capacity(2),
        );
        let outcome = run(&runtime, &keyed_trace(500), ExecutorConfig::default());
        assert_eq!(outcome.results_count, 500);
        assert_eq!(outcome.results.len(), 500);
        assert_eq!(outcome.snapshot.stats.tuples_arrived, 500);
        let per_shard_total: u64 = outcome.per_shard.iter().map(|s| s.arrivals).sum();
        assert_eq!(per_shard_total, 500);
        assert_eq!(outcome.order_violations, 0);
        // The merged stream is globally timestamp-ordered.
        assert!(outcome.results.windows(2).all(|w| w[0].ts() <= w[1].ts()));
        // With 500 distinct keys over 4 shards, no shard should dominate.
        let max_shard = outcome.per_shard.iter().map(|s| s.arrivals).max();
        assert!(max_shard < Some(250));
    }

    #[test]
    fn tiny_channel_exerts_backpressure_without_loss() {
        // channel_capacity 1 and batch_size 1: the feeder blocks constantly,
        // yet every arrival must still come through exactly once.
        let runtime = ShardedRuntime::new(
            RuntimeConfig::with_shards(2)
                .with_batch_size(1)
                .with_channel_capacity(1),
        );
        let outcome = run(&runtime, &keyed_trace(300), ExecutorConfig::default());
        assert_eq!(outcome.results_count, 300);
    }

    #[test]
    fn single_shard_degenerates_to_sequential() {
        let runtime = ShardedRuntime::new(RuntimeConfig::with_shards(1));
        let outcome = run(&runtime, &keyed_trace(50), ExecutorConfig::default());
        assert_eq!(outcome.per_shard.len(), 1);
        assert_eq!(outcome.per_shard[0].arrivals, 50);
        assert_eq!(outcome.results_count, 50);
    }

    #[test]
    fn plan_error_is_propagated() {
        let runtime = ShardedRuntime::new(RuntimeConfig::with_shards(2));
        let result = runtime.start(ExecutorConfig::default(), false, |shard| {
            if shard == 1 {
                PlanBuilder::new().build() // empty plan → error
            } else {
                forward_plan()
            }
        });
        assert!(matches!(result, Err(RuntimeError::Plan(_))));
    }

    #[test]
    fn results_collection_can_be_disabled() {
        let runtime = ShardedRuntime::new(RuntimeConfig::with_shards(2));
        let outcome = run(
            &runtime,
            &keyed_trace(80),
            ExecutorConfig {
                collect_results: false,
            },
        );
        assert!(outcome.results.is_empty());
        assert_eq!(outcome.results_count, 80);
    }

    #[test]
    fn partitioner_mismatch_panics() {
        let result = std::panic::catch_unwind(|| {
            ShardedRuntime::new(RuntimeConfig::with_shards(2))
                .with_partitioner(ShardPartitioner::new(3))
        });
        assert!(result.is_err());
    }
}
