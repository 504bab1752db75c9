//! # jit-dsms — facade crate
//!
//! Re-exports the whole JIT continuous-query processing workspace behind a
//! single dependency, so examples, integration tests and downstream users can
//! write `use jit_dsms::...` without tracking individual crates.
//!
//! The workspace reproduces Yang & Papadias, *Just-In-Time Processing of
//! Continuous Queries* (ICDE 2008):
//!
//! * [`types`] — tuples, windows, predicates, feedback messages.
//! * [`metrics`] — cost model, analytical memory accounting, counters.
//! * [`stream`] — synthetic clique-join workload generation (Section VI).
//! * [`exec`] — the DSMS substrate: operators, states, queues, scheduler.
//! * [`core`] — the JIT mechanism: MNS detection, blacklists, feedback,
//!   dynamic production control, plus the DOE baseline.
//! * [`plan`] — plan construction (bushy and left-deep join trees).
//! * [`runtime`] — the sharded parallel runtime: hash-partitioned
//!   multi-core execution of the same plans.
//! * [`durable`] — the durability subsystem: watermark-driven disorder
//!   tolerance (reorder buffer, bounded-lateness policies) and versioned
//!   state checkpointing for crash recovery.
//! * [`engine`] — **the public entry point**: the push-based
//!   `EngineBuilder` → `Engine` → `Session` API serving both the
//!   single-threaded executor and the sharded runtime behind one
//!   `Backend` seam.
//! * [`serve`] — the multi-query serving tier: a runtime `QueryRegistry`
//!   sharing pipelines, selection pushdown, arriving base tuples and result
//!   batches across many standing queries over one pushed stream.
//! * [`harness`] — experiment harness regenerating the paper's figures,
//!   plus the key-partitionable workload preset of the sharded runs.
//!
//! See `examples/quickstart.rs` for a five-minute tour,
//! `examples/live_session.rs` for push-based live ingestion,
//! `examples/parallel_quickstart.rs` for the multi-core version, and
//! `examples/serving_tier.rs` for multi-query serving.

pub use jit_core as core;
pub use jit_durable as durable;
pub use jit_engine as engine;
pub use jit_exec as exec;
pub use jit_harness as harness;
pub use jit_metrics as metrics;
pub use jit_plan as plan;
pub use jit_runtime as runtime;
pub use jit_serve as serve;
pub use jit_stream as stream;
pub use jit_types as types;

/// A convenient prelude importing the names used by virtually every program
/// built on the library.
pub mod prelude {
    pub use jit_core::policy::{ExecutionMode, JitPolicy, MnsDetection};
    pub use jit_engine::{
        Backend, CheckpointError, CheckpointStats, DisorderPolicy, Engine, EngineBuilder,
        EngineError, EngineOutcome, PushOutcome, Session,
    };
    pub use jit_exec::executor::{Executor, ExecutorConfig};
    pub use jit_exec::output;
    pub use jit_exec::state::{JoinKeySpec, StateIndexMode};
    pub use jit_harness::config::ExperimentConfig;
    pub use jit_harness::figures::{run_figure, FigureSpec};
    pub use jit_harness::parallel::parallel_workload;
    pub use jit_plan::cql::parse_cql;
    pub use jit_plan::shapes::{PlanShape, TreeShape};
    pub use jit_runtime::{ParallelOutcome, RuntimeConfig, ShardedRuntime, ShardedSession};
    pub use jit_serve::{QueryId, QueryRegistry, ServeOptions};
    pub use jit_stream::arrival::ArrivalEvent;
    pub use jit_stream::workload::WorkloadSpec;
    pub use jit_stream::{DisorderSpec, ShardPartitioner, Trace, WorkloadGenerator};
    pub use jit_types::{
        BaseTuple, BatchPolicy, Catalog, ColumnRef, Duration, EquiPredicate, Feedback,
        FeedbackCommand, PredicateSet, SourceId, SourceSet, Timestamp, Tuple, Value, Window,
    };
}
