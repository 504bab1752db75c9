//! # jit-dsms — facade crate
//!
//! The user API of the JIT continuous-query processing workspace behind a
//! single dependency. The workspace reproduces Yang & Papadias,
//! *Just-In-Time Processing of Continuous Queries* (ICDE 2008).
//!
//! * [`EngineBuilder`] → [`Engine`] → [`Session`] — **the entry point**: a
//!   push-based session over the single-threaded executor or the sharded
//!   runtime, with disorder tolerance ([`DisorderPolicy`]) and
//!   checkpoint/restore ([`CheckpointError`], [`CheckpointStats`]).
//! * [`QueryRegistry`] — the multi-query serving tier: many standing queries
//!   over one pushed stream, sharing pipelines, selections and results.
//! * [`parse_cql`] — the CQL front end, returning a [`CqlQuery`] or a typed
//!   [`CqlError`].
//! * The values a program pushes and reads back: [`BaseTuple`], [`Tuple`],
//!   [`Value`], [`Timestamp`], [`Duration`], [`Window`], [`SourceId`],
//!   [`Catalog`], and the run's [`MetricsSnapshot`].
//! * [`output`] — result-set comparisons (multiset equality, duplicates,
//!   order, window validity).
//! * [`prelude`] — the names virtually every program, example and test
//!   uses, including the workload generator.
//!
//! Code that reaches an engine internal (an operator, a state, a plan
//! builder) depends on the member crate that defines it.
//!
//! See `examples/quickstart.rs` for a five-minute tour,
//! `examples/live_session.rs` for push-based live ingestion,
//! `examples/parallel_quickstart.rs` for the multi-core version, and
//! `examples/serving_tier.rs` for multi-query serving.

pub use jit_engine::{
    CheckpointError, CheckpointStats, DisorderPolicy, Engine, EngineBuilder, EngineError,
    EngineOutcome, PushOutcome, Session,
};
pub use jit_metrics::MetricsSnapshot;
pub use jit_plan::{parse_cql, CqlError, CqlQuery};
pub use jit_serve::{QueryId, QueryRegistry, ServeError, ServeOptions, SharingReport};
pub use jit_types::{
    BaseTuple, BatchPolicy, Catalog, ColumnRef, Duration, SourceId, SourceSet, Timestamp, Tuple,
    Value, Window,
};

/// Result-set comparisons: multiset equality, missing results, duplicates,
/// temporal order and window validity.
pub mod output {
    pub use jit_exec::{
        all_within_window, has_duplicates, is_temporally_ordered, missing_from, result_multiset,
        same_results,
    };
}

/// A convenient prelude importing the names used by virtually every program
/// built on the library.
pub mod prelude {
    pub use crate::output;
    pub use jit_core::policy::{ExecutionMode, JitPolicy, MnsDetection};
    pub use jit_engine::{
        CheckpointError, CheckpointStats, DisorderPolicy, Engine, EngineBuilder, EngineError,
        EngineOutcome, PushOutcome, Session,
    };
    pub use jit_exec::{Executor, ExecutorConfig, JoinKeySpec, StateIndexMode};
    pub use jit_plan::parse_cql;
    pub use jit_plan::shapes::{PlanShape, TreeShape};
    pub use jit_runtime::{ParallelOutcome, RuntimeConfig, ShardedRuntime, ShardedSession};
    pub use jit_serve::{QueryId, QueryRegistry, ServeOptions};
    pub use jit_stream::{
        ArrivalEvent, DisorderSpec, ShardPartitioner, Trace, WorkloadGenerator, WorkloadSpec,
    };
    pub use jit_types::{
        BaseTuple, BatchPolicy, Catalog, ColumnRef, Duration, EquiPredicate, Feedback,
        FeedbackCommand, PredicateSet, SourceId, SourceSet, Timestamp, Tuple, Value, Window,
    };
}
