//! # jit-types
//!
//! Foundational data types for the JIT continuous-query processing system
//! (reproduction of Yang & Papadias, *Just-In-Time Processing of Continuous
//! Queries*, ICDE 2008).
//!
//! This crate defines the vocabulary every other crate speaks:
//!
//! * [`Value`] — column values carried by stream tuples.
//! * [`Timestamp`], [`Duration`], [`Window`] — the sliding-window time model,
//!   and [`ExpiryQueue`], the near-sorted timestamp queue that window expiry
//!   and the reorder stage share.
//! * [`SourceId`], [`SourceSet`], [`ColumnRef`], [`Catalog`] — schema metadata.
//! * [`BaseTuple`], [`Tuple`] — source tuples and composite (joined) tuples,
//!   including the *sub-tuple* / *super-tuple* relation central to the paper.
//! * [`EquiPredicate`], [`PredicateSet`], [`FilterPredicate`] — join and
//!   selection predicates.
//! * [`Signature`] — the join-attribute fingerprint of a sub-tuple, used to
//!   recognise "similar" tuples (e.g. `a2` sharing `a1`'s join values).
//! * [`Feedback`] — the consumer→producer control messages
//!   (`suspend` / `resume`).
//! * [`ArrayImpl`], [`Batch`], [`Block`], [`BatchPolicy`] — the columnar
//!   batch data plane: typed column arrays and the vectorized arrival
//!   containers built from them.
//! * [`kernel`] — SIMD-friendly predicate and probe-key kernels over the
//!   typed arrays, writing a packed [`kernel::BitMask`].
//!
//! The crate is deliberately free of any execution logic so that the operator
//! framework (`jit-exec`) and the JIT mechanism (`jit-core`) can evolve
//! independently of the data model.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod array;
mod batch;
mod error;
mod feedback;
mod hash;
pub mod kernel;
mod predicate;
mod schema;
mod signature;
mod timestamp;
mod tuple;
mod value;

pub use array::ArrayImpl;
pub use batch::{Batch, BatchPolicy, Block, BlockBuilder};
pub use error::TypeError;
pub use feedback::{Feedback, FeedbackCommand};
pub use hash::{FastHasher, FastMap, FastSet};
pub use predicate::{CompareOp, EquiPredicate, FilterPredicate, PredicateSet};
pub use schema::{Catalog, ColumnRef, SourceId, SourceSchema, SourceSet};
pub use signature::Signature;
pub use timestamp::{Duration, ExpiryQueue, Timestamp, Window};
pub use tuple::{BaseTuple, Tuple, TupleKey};
pub use value::Value;
