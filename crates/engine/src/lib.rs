//! # jit-engine
//!
//! The unified, push-based entry point of the workspace: one
//! [`EngineBuilder`] → [`Engine`] → [`Session`] pipeline serving both the
//! paper's single-threaded cascade executor and the sharded multi-core
//! runtime behind one crate-internal backend seam.
//!
//! The JIT mechanism is inherently *online* — MNS detection, feedback and
//! blacklists react tuple by tuple — so the API is too:
//!
//! ```
//! use jit_core::policy::{ExecutionMode, JitPolicy};
//! use jit_engine::Engine;
//! use jit_stream::{WorkloadGenerator, WorkloadSpec};
//! use jit_plan::shapes::PlanShape;
//!
//! let spec = WorkloadSpec::bushy_default()
//!     .with_sources(3)
//!     .with_duration(jit_types::Duration::from_secs(60));
//! let engine = Engine::builder()
//!     .workload(&spec, &PlanShape::left_deep(3))
//!     .mode(ExecutionMode::Jit(JitPolicy::full()))
//!     .build()
//!     .unwrap();
//! let mut session = engine.session().unwrap();
//! for event in WorkloadGenerator::generate(&spec).iter() {
//!     session.push_event(event.clone()).unwrap();
//! }
//! let outcome = session.finish().unwrap();
//! assert_eq!(outcome.mode_label, "JIT");
//! ```
//!
//! Switching the same program onto every core is one builder call —
//! `.sharded(RuntimeConfig::with_shards(8))` — and the builder *rejects*
//! workloads the hash partitioner cannot shard losslessly with a typed
//! [`EngineError::NotPartitionable`] instead of silently losing results.
//!
//! * [`EngineBuilder`] (typed, defaulted configuration) and the reusable
//!   [`Engine`].
//! * [`Session`] — the live push/poll/finish session, ending in an
//!   [`EngineOutcome`].
//! * [`ResolvedQuery`] — a CQL-or-shape query resolved and validated.
//! * [`EngineError`] — the typed build, push and restore errors.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod backend;
mod builder;
mod error;
mod partition;
mod query;
mod session;

pub use backend::EngineOutcome;
pub use builder::{Engine, EngineBuilder};
pub use error::EngineError;
pub use jit_durable::{CheckpointError, CheckpointStats, DisorderPolicy, PushOutcome};
pub use query::ResolvedQuery;
pub use session::Session;
