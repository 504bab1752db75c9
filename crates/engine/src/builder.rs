//! Building engines: validated configuration in, runnable [`Engine`] out.

use crate::backend::{Backend, EngineOutcome, ShardedBackend, SingleThreadBackend};
use crate::error::EngineError;
use crate::partition::check_key_partitionable;
use crate::query::{QuerySpec, ResolvedQuery};
use crate::session::Session;
use jit_core::policy::ExecutionMode;
use jit_durable::{read_checkpoint, CheckpointError, DisorderPolicy, ReorderBuffer};
use jit_exec::executor::{Executor, ExecutorConfig};
use jit_exec::state::StateIndexMode;
use jit_plan::builder::{build_tree_plan_with, PlanOptions};
use jit_plan::shapes::PlanShape;
use jit_runtime::{RuntimeConfig, ShardPartitioner, ShardedRuntime};
use jit_stream::{Trace, WorkloadSpec};
use jit_types::{BaseTuple, BatchPolicy, PredicateSet, SourceId, Timestamp, Window};
use serde::Content;
use std::path::Path;
use std::sync::Arc;

/// Typed, defaulted construction of an [`Engine`].
///
/// The query comes in as CQL *or* as a plan shape + predicates, the
/// execution mode and executor knobs default sensibly, and a single
/// [`EngineBuilder::sharded`] call switches the same program from the
/// single-threaded executor to the hash-partitioned multi-core runtime.
///
/// Every input is validated at [`EngineBuilder::build`] time with a typed
/// [`EngineError`] — including the key-partitionability of the workload when
/// the sharded backend is requested, which previously could silently lose
/// results.
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    query: Option<QuerySpec>,
    mode: ExecutionMode,
    exec_config: ExecutorConfig,
    runtime: Option<RuntimeConfig>,
    key_column: usize,
    assume_partitionable: bool,
    state_index: StateIndexMode,
    disorder: DisorderPolicy,
    batch: BatchPolicy,
}

impl Default for EngineBuilder {
    fn default() -> Self {
        EngineBuilder {
            query: None,
            mode: ExecutionMode::Ref,
            exec_config: ExecutorConfig::default(),
            runtime: None,
            key_column: 0,
            assume_partitionable: false,
            state_index: StateIndexMode::default(),
            disorder: DisorderPolicy::Strict,
            batch: BatchPolicy::default(),
        }
    }
}

impl EngineBuilder {
    /// A fresh builder: REF mode, default executor configuration,
    /// single-threaded backend, no query yet.
    pub fn new() -> Self {
        EngineBuilder::default()
    }

    /// Define the query with a CQL-subset string (parsed and resolved at
    /// [`EngineBuilder::build`]; the plan is the left-deep tree over the
    /// declared sources).
    pub fn query_cql(mut self, text: impl Into<String>) -> Self {
        self.query = Some(QuerySpec::Cql(text.into()));
        self
    }

    /// Define the query explicitly: a Table-II plan shape, the equi-join
    /// predicates, and the sliding window.
    pub fn query_shape(
        mut self,
        shape: PlanShape,
        predicates: PredicateSet,
        window: Window,
    ) -> Self {
        self.query = Some(QuerySpec::Shape {
            shape,
            predicates,
            window,
        });
        self
    }

    /// Define the query from a synthetic [`WorkloadSpec`] and a plan shape —
    /// the form every experiment uses. The partitionability assumption is
    /// taken *from the spec*: shared-key workloads assert their data-level
    /// partitionability (see [`EngineBuilder::assume_key_partitionable`]),
    /// and a non-shared-key spec clears any earlier assumption so a reused
    /// builder cannot smuggle the flag onto a workload it is not true for.
    /// Call `assume_key_partitionable()` *after* `workload()` to override.
    pub fn workload(mut self, spec: &WorkloadSpec, shape: &PlanShape) -> Self {
        self.assume_partitionable = spec.shared_key;
        self.query_shape(*shape, spec.predicates(), spec.window())
    }

    /// Set the execution mode (REF / DOE / JIT with a policy). Default REF.
    pub fn mode(mut self, mode: ExecutionMode) -> Self {
        self.mode = mode;
        self
    }

    /// Set the per-executor options (result collection, temporal-order
    /// checking).
    pub fn executor_config(mut self, config: ExecutorConfig) -> Self {
        self.exec_config = config;
        self
    }

    /// Use the sharded multi-core backend with the given runtime
    /// configuration. The workload must be key-partitionable (statically
    /// provable from the predicates, or asserted via
    /// [`EngineBuilder::assume_key_partitionable`]) whenever more than one
    /// shard is configured.
    pub fn sharded(mut self, config: RuntimeConfig) -> Self {
        self.runtime = Some(config);
        self
    }

    /// Use the single-threaded cascade executor (the default).
    pub fn single_threaded(mut self) -> Self {
        self.runtime = None;
        self
    }

    /// Hash this column (of every source) for shard assignment. Default 0.
    pub fn partition_key_column(mut self, column: usize) -> Self {
        self.key_column = column;
        self
    }

    /// Select how every operator state answers probes:
    /// [`StateIndexMode::Hashed`] (the default — hash-partitioned on the
    /// equi-join key, with a scan fallback when no hashable key spans two
    /// inputs) or [`StateIndexMode::Scan`] (the paper's nested-loop
    /// baseline, used by the figure harness and the equivalence suite).
    /// Both modes produce byte-identical result sets; only the probe cost
    /// differs.
    pub fn state_index(mut self, mode: StateIndexMode) -> Self {
        self.state_index = mode;
        self
    }

    /// Set how sessions treat out-of-order arrivals. The default,
    /// [`DisorderPolicy::Strict`], keeps the paper's contract: a timestamp
    /// regression is a typed [`EngineError::OutOfOrder`].
    /// [`DisorderPolicy::Bounded`] puts a watermark-driven reorder buffer
    /// in front of the backend: arrivals within the lateness bound are
    /// buffered and released in timestamp order; older ones are dropped and
    /// counted, never errors (see `jit_durable` for the full protocol).
    pub fn disorder(mut self, policy: DisorderPolicy) -> Self {
        self.disorder = policy;
        self
    }

    /// Set the batching policy. Operators always process one arrival at a
    /// time, so the policy has exactly one effect: on the **sharded**
    /// backend, arrivals — and, under [`DisorderPolicy::Bounded`], the
    /// watermark advances between them — travel to each shard worker in
    /// channel chunks of `max(RuntimeConfig::batch_size, policy.max_rows)`
    /// steps (a partial chunk is sent before every poll, metrics read,
    /// checkpoint and finish). On the **single-threaded** backend the
    /// policy is inert.
    /// Results, their order and every counter are identical for every
    /// policy; only shard-channel synchronisation per arrival changes.
    pub fn batch_policy(mut self, policy: BatchPolicy) -> Self {
        self.batch = policy;
        self
    }

    /// Assert that the workload is key-partitionable as a *data* invariant
    /// even though the predicates do not prove it — the generator's
    /// shared-key mode replicates one key value into every column, so the
    /// clique predicates all reduce to key equality at runtime. With this
    /// set, [`EngineBuilder::build`] skips the static partitionability
    /// check.
    pub fn assume_key_partitionable(mut self) -> Self {
        self.assume_partitionable = true;
        self
    }

    /// Validate everything and produce a reusable [`Engine`].
    ///
    /// Typed failures: missing/malformed/unsupported queries, illegal
    /// runtime knobs ([`jit_runtime::ConfigError`]), plan-construction
    /// errors, and — for the sharded backend with more than one shard — a
    /// workload whose join predicates do not all reduce to equality on the
    /// partition key ([`EngineError::NotPartitionable`]).
    pub fn build(self) -> Result<Engine, EngineError> {
        let spec = self.query.ok_or(EngineError::MissingQuery)?;
        let query = spec.resolve()?;
        if let Some(config) = &self.runtime {
            config.validate()?;
            if config.shards > 1 && !self.assume_partitionable {
                check_key_partitionable(
                    &query.predicates,
                    query.shape.num_sources,
                    self.key_column,
                )
                .map_err(|detail| EngineError::NotPartitionable { detail })?;
            }
        }
        // Dry-build one plan instance so plan errors also surface now, not
        // at the first session.
        let options = PlanOptions {
            index_mode: self.state_index,
            filters: query.filters.clone(),
        };
        build_tree_plan_with(
            &query.shape,
            &query.predicates,
            query.window,
            self.mode,
            &options,
        )?;
        Ok(Engine {
            query,
            mode: self.mode,
            exec_config: self.exec_config,
            runtime: self.runtime,
            key_column: self.key_column,
            state_index: self.state_index,
            disorder: self.disorder,
            batch: self.batch,
        })
    }

    /// Run the same trace once per mode (on otherwise identical engines)
    /// and return the outcomes in mode order. At least one mode is required
    /// ([`EngineError::EmptyModes`]).
    pub fn compare(
        &self,
        trace: &Trace,
        modes: &[ExecutionMode],
    ) -> Result<Vec<EngineOutcome>, EngineError> {
        if modes.is_empty() {
            return Err(EngineError::EmptyModes);
        }
        modes
            .iter()
            .map(|mode| self.clone().mode(*mode).build()?.run_trace(trace))
            .collect()
    }
}

/// A validated continuous-query engine.
///
/// The engine itself is passive configuration; [`Engine::session`] opens a
/// live push-based [`Session`] on the configured backend (any number of
/// sessions may be opened, sequentially or concurrently — each gets fresh
/// operator state).
#[derive(Debug, Clone)]
pub struct Engine {
    query: ResolvedQuery,
    mode: ExecutionMode,
    exec_config: ExecutorConfig,
    runtime: Option<RuntimeConfig>,
    key_column: usize,
    state_index: StateIndexMode,
    disorder: DisorderPolicy,
    batch: BatchPolicy,
}

impl Engine {
    /// Start building an engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::new()
    }

    /// The resolved query (shape, predicates, window).
    pub fn query(&self) -> &ResolvedQuery {
        &self.query
    }

    /// Does this engine run on the sharded multi-core backend?
    #[cfg(test)]
    fn is_sharded(&self) -> bool {
        self.runtime.is_some()
    }

    /// The disorder policy every session runs under.
    pub fn disorder(&self) -> DisorderPolicy {
        self.disorder
    }

    /// The batching policy (see [`EngineBuilder::batch_policy`]).
    pub fn batch_policy(&self) -> BatchPolicy {
        self.batch
    }

    /// Open a live session: instantiate the plan(s), spawn shard workers if
    /// sharded, and return the push-based handle.
    pub fn session(&self) -> Result<Session, EngineError> {
        let backend = self.backend(None)?;
        let buffer = self.disorder.lateness().map(ReorderBuffer::new);
        Ok(Session::new(backend, buffer))
    }

    /// Build the configured backend; with `restore` set, rebuild it from a
    /// checkpointed backend blob instead of starting fresh. The watermark
    /// clock is enabled exactly when the disorder policy is bounded — under
    /// it the session drives operator time through explicit watermarks
    /// instead of per-ingest timestamps.
    fn backend(&self, restore: Option<&Content>) -> Result<Box<dyn Backend>, EngineError> {
        let options = PlanOptions {
            index_mode: self.state_index,
            filters: self.query.filters.clone(),
        };
        let watermark_clock = matches!(self.disorder, DisorderPolicy::Bounded(_));
        let backend: Box<dyn Backend> = match &self.runtime {
            None => {
                let plan = build_tree_plan_with(
                    &self.query.shape,
                    &self.query.predicates,
                    self.query.window,
                    self.mode,
                    &options,
                )?;
                let mut executor = Executor::new(plan, self.exec_config.clone());
                executor.set_watermark_clock(watermark_clock);
                if let Some(state) = restore {
                    executor
                        .restore_checkpoint(state)
                        .map_err(|e| EngineError::Checkpoint(CheckpointError::Serde(e)))?;
                }
                Box::new(SingleThreadBackend::new(executor, self.mode.label()))
            }
            Some(config) => {
                // Channel chunks are at least one policy batch wide.
                let config = config
                    .clone()
                    .with_batch_size(config.batch_size.max(self.batch.max_rows));
                let runtime = ShardedRuntime::new(config.clone()).with_partitioner(
                    ShardPartitioner::new(config.shards).with_key_column(self.key_column),
                );
                let factory = |_shard: usize| {
                    build_tree_plan_with(
                        &self.query.shape,
                        &self.query.predicates,
                        self.query.window,
                        self.mode,
                        &options,
                    )
                };
                let session = match restore {
                    None => {
                        runtime.start_opts(self.exec_config.clone(), watermark_clock, factory)?
                    }
                    Some(state) => runtime.start_restored(
                        self.exec_config.clone(),
                        watermark_clock,
                        state,
                        factory,
                    )?,
                };
                Box::new(ShardedBackend::new(session, self.mode.label()))
            }
        };
        Ok(backend)
    }

    /// Rebuild a live [`Session`] from a checkpoint body produced by
    /// [`Session::checkpoint`] (or read back with
    /// `jit_durable::read_checkpoint`).
    ///
    /// The engine must be configured identically to the one that produced
    /// the checkpoint (same query, mode, backend and disorder policy) —
    /// operator state is replayed into freshly built plans, and any
    /// structural mismatch is a typed
    /// [`EngineError::Checkpoint`]. After the restore, resume pushing the
    /// input stream from arrival index [`Session::pushed`]; the results
    /// from then on are exactly those an uninterrupted run would have
    /// produced.
    pub fn restore(&self, checkpoint: &Content) -> Result<Session, EngineError> {
        const TY: &str = "Session checkpoint";
        let corrupt = |e: serde::Error| EngineError::Checkpoint(CheckpointError::Serde(e));
        let map = checkpoint.as_map().ok_or_else(|| {
            EngineError::Checkpoint(CheckpointError::Corrupt(
                "checkpoint body is not an object".to_string(),
            ))
        })?;
        let pushed: u64 = serde::field(map, "pushed", TY).map_err(corrupt)?;
        let last_push_ts: Timestamp = serde::field(map, "last_push_ts", TY).map_err(corrupt)?;
        let ckpt_bytes: u64 = serde::field(map, "ckpt_bytes", TY).map_err(corrupt)?;
        let ckpt_millis: u64 = serde::field(map, "ckpt_millis", TY).map_err(corrupt)?;
        let disorder_state = serde::field::<Content>(map, "disorder", TY).map_err(corrupt)?;
        let buffer = match (&disorder_state, self.disorder) {
            (Content::Null, DisorderPolicy::Strict) => None,
            (Content::Null, DisorderPolicy::Bounded(_)) => {
                return Err(EngineError::Checkpoint(CheckpointError::Mismatch(
                    "checkpoint was taken under the strict policy, engine is bounded".to_string(),
                )))
            }
            (_, DisorderPolicy::Strict) => {
                return Err(EngineError::Checkpoint(CheckpointError::Mismatch(
                    "checkpoint was taken under a bounded policy, engine is strict".to_string(),
                )))
            }
            (state, DisorderPolicy::Bounded(lateness)) => {
                let dmap = state.as_map().ok_or_else(|| {
                    EngineError::Checkpoint(CheckpointError::Corrupt(
                        "disorder state is not an object".to_string(),
                    ))
                })?;
                let control = serde::field::<Content>(dmap, "control", TY).map_err(corrupt)?;
                let items: Vec<(Timestamp, (SourceId, Arc<BaseTuple>))> =
                    serde::field(dmap, "items", TY).map_err(corrupt)?;
                let buffer = ReorderBuffer::restore(&control, items).map_err(corrupt)?;
                if buffer.lateness() != lateness {
                    return Err(EngineError::Checkpoint(CheckpointError::Mismatch(format!(
                        "checkpoint was taken with lateness {}, engine has {lateness}",
                        buffer.lateness()
                    ))));
                }
                Some(buffer)
            }
        };
        let backend_state = serde::field::<Content>(map, "backend", TY).map_err(corrupt)?;
        let backend = self.backend(Some(&backend_state))?;
        Ok(Session::restored(
            backend,
            pushed,
            last_push_ts,
            buffer,
            ckpt_bytes,
            ckpt_millis,
        ))
    }

    /// [`Engine::restore`] from a checkpoint *file* written by
    /// [`Session::checkpoint_to`] — validates the magic header and format
    /// version before touching the body.
    pub fn restore_file(&self, path: impl AsRef<Path>) -> Result<Session, EngineError> {
        let body = read_checkpoint(path)?;
        self.restore(&body)
    }

    /// One-shot convenience: open a session, replay `trace`, finish.
    pub fn run_trace(&self, trace: &Trace) -> Result<EngineOutcome, EngineError> {
        let mut session = self.session()?;
        session.push_trace(trace)?;
        session.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jit_types::{ColumnRef, EquiPredicate, SourceId};

    fn keyed_predicates(n: usize) -> PredicateSet {
        PredicateSet::from_predicates(
            (1..n)
                .map(|s| {
                    EquiPredicate::new(
                        ColumnRef::new(SourceId(0), 0),
                        ColumnRef::new(SourceId(s as u16), 0),
                    )
                })
                .collect(),
        )
    }

    #[test]
    fn missing_query_is_a_typed_error() {
        assert!(matches!(
            Engine::builder().build(),
            Err(EngineError::MissingQuery)
        ));
    }

    #[test]
    fn illegal_runtime_knobs_are_typed_errors() {
        let base = Engine::builder().query_shape(
            PlanShape::left_deep(2),
            keyed_predicates(2),
            Window::minutes(1.0),
        );
        let zero_shards = base
            .clone()
            .sharded(RuntimeConfig {
                shards: 0,
                batch_size: 8,
                channel_capacity: 8,
            })
            .build();
        match zero_shards {
            Err(EngineError::Config(e)) => assert_eq!(e.field, "shards"),
            other => panic!("expected Config error, got {other:?}"),
        }
        let zero_batch = base
            .sharded(RuntimeConfig {
                shards: 2,
                batch_size: 0,
                channel_capacity: 8,
            })
            .build();
        assert!(matches!(zero_batch, Err(EngineError::Config(_))));
    }

    #[test]
    fn sharded_rejects_non_partitionable_predicates() {
        let err = Engine::builder()
            .query_shape(
                PlanShape::bushy(3),
                PredicateSet::clique(3),
                Window::minutes(1.0),
            )
            .sharded(RuntimeConfig::with_shards(4))
            .build();
        assert!(matches!(err, Err(EngineError::NotPartitionable { .. })));
    }

    #[test]
    fn statically_keyed_predicates_shard_without_assumption() {
        let engine = Engine::builder()
            .query_shape(
                PlanShape::left_deep(3),
                keyed_predicates(3),
                Window::minutes(1.0),
            )
            .sharded(RuntimeConfig::with_shards(4))
            .build();
        assert!(engine.is_ok());
    }

    #[test]
    fn one_shard_needs_no_partitionability() {
        let engine = Engine::builder()
            .query_shape(
                PlanShape::bushy(3),
                PredicateSet::clique(3),
                Window::minutes(1.0),
            )
            .sharded(RuntimeConfig::with_shards(1))
            .build();
        assert!(engine.unwrap().is_sharded());
    }

    #[test]
    fn workload_resets_a_stale_partitionability_assumption() {
        use jit_stream::WorkloadSpec;
        let shared = WorkloadSpec::bushy_default()
            .with_sources(3)
            .with_shared_key();
        let clique = WorkloadSpec::bushy_default().with_sources(3);
        let shape = PlanShape::bushy(3);
        // A builder that earlier saw a shared-key workload must not carry
        // the assumption onto a non-shared-key one.
        let reused = Engine::builder()
            .workload(&shared, &shape)
            .workload(&clique, &shape)
            .sharded(RuntimeConfig::with_shards(4))
            .build();
        assert!(matches!(reused, Err(EngineError::NotPartitionable { .. })));
        // An explicit assertion after workload() still wins.
        assert!(Engine::builder()
            .workload(&clique, &shape)
            .assume_key_partitionable()
            .sharded(RuntimeConfig::with_shards(4))
            .build()
            .is_ok());
    }

    #[test]
    fn batch_policy_is_carried_and_observably_equivalent() {
        use jit_stream::{WorkloadGenerator, WorkloadSpec};
        let spec = WorkloadSpec::bushy_default()
            .with_sources(2)
            .with_duration(jit_types::Duration::from_secs(20));
        let trace = WorkloadGenerator::generate(&spec);
        let shape = PlanShape::left_deep(2);
        let builder = Engine::builder().workload(&spec, &shape);
        let tuple_mode = builder.clone().build().unwrap();
        assert_eq!(tuple_mode.batch_policy(), BatchPolicy::default());
        let batched = builder.batch_policy(BatchPolicy::rows(64)).build().unwrap();
        assert_eq!(batched.batch_policy(), BatchPolicy::rows(64));
        let a = tuple_mode.run_trace(&trace).unwrap();
        let b = batched.run_trace(&trace).unwrap();
        assert_eq!(a.results_count, b.results_count);
        assert_eq!(a.results.len(), b.results.len());
        assert!(a
            .results
            .iter()
            .zip(&b.results)
            .all(|(x, y)| x.ts() == y.ts()));
        assert_eq!(b.order_violations, 0);
        assert_eq!(a.snapshot.stats.probe_pairs, b.snapshot.stats.probe_pairs);
    }

    #[test]
    fn compared_modes_agree_on_results() {
        use jit_core::policy::JitPolicy;
        use jit_exec::output;
        use jit_stream::{WorkloadGenerator, WorkloadSpec};
        let spec = WorkloadSpec::bushy_default()
            .with_sources(3)
            .with_rate(1.0)
            .with_dmax(10)
            .with_window_minutes(2.0)
            .with_duration(jit_types::Duration::from_secs(180))
            .with_seed(11);
        let outcomes = Engine::builder()
            .workload(&spec, &PlanShape::left_deep(3))
            .compare(
                &WorkloadGenerator::generate(&spec),
                &[
                    ExecutionMode::Ref,
                    ExecutionMode::Jit(JitPolicy::full()),
                    ExecutionMode::Doe,
                ],
            )
            .unwrap();
        let [ref_run, jit_run, doe_run] = &outcomes[..] else {
            panic!("expected three outcomes");
        };
        assert_eq!(ref_run.mode_label, "REF");
        assert!(ref_run.results_count > 0, "workload produced no results");
        assert!(output::same_results(&ref_run.results, &jit_run.results));
        assert!(output::same_results(&ref_run.results, &doe_run.results));
        assert_eq!(jit_run.order_violations, 0);
        assert!(!output::has_duplicates(&jit_run.results));
    }

    #[test]
    fn jit_suppresses_intermediates_on_a_selective_workload() {
        // High selectivity (large dmax relative to window content) is where
        // the paper's savings come from.
        use jit_core::policy::JitPolicy;
        use jit_stream::{WorkloadGenerator, WorkloadSpec};
        let spec = WorkloadSpec::bushy_default()
            .with_sources(4)
            .with_rate(1.0)
            .with_dmax(200)
            .with_window_minutes(5.0)
            .with_duration(jit_types::Duration::from_secs(300))
            .with_seed(3);
        let outcomes = Engine::builder()
            .workload(&spec, &PlanShape::bushy(4))
            .executor_config(ExecutorConfig {
                collect_results: false,
                check_temporal_order: true,
            })
            .compare(
                &WorkloadGenerator::generate(&spec),
                &[ExecutionMode::Ref, ExecutionMode::Jit(JitPolicy::full())],
            )
            .unwrap();
        let (ref_run, jit_run) = (&outcomes[0], &outcomes[1]);
        assert!(
            jit_run.snapshot.stats.intermediate_produced
                <= ref_run.snapshot.stats.intermediate_produced
        );
        assert!(jit_run.snapshot.stats.intermediate_suppressed > 0);
    }

    #[test]
    fn empty_modes_comparison_is_rejected() {
        let builder = Engine::builder().query_shape(
            PlanShape::left_deep(2),
            keyed_predicates(2),
            Window::minutes(1.0),
        );
        assert!(matches!(
            builder.compare(&Trace::empty(), &[]),
            Err(EngineError::EmptyModes)
        ));
    }
}
