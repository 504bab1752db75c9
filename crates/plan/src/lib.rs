//! # jit-plan
//!
//! Query-plan construction.
//!
//! * [`shapes`] — the plan shapes of Table II (bushy and left-deep binary
//!   join trees for `N = 3..8`).
//! * [`builder`] — turns a shape + predicates + window + execution mode
//!   (REF / DOE / JIT) into an executable plan of `jit-exec` operators.
//! * [`parse_cql`] — a small CQL-subset parser for queries like the one in
//!   Figure 1a (`SELECT * FROM A [RANGE 5 minutes], … WHERE A.x = B.x …`).
//! * [`CanonicalQuery`] — resolves a parsed query against a global catalog
//!   and normalizes it to a hashable [`CanonicalKey`], so a multi-query
//!   serving tier can detect queries that denote the same computation and
//!   share one pipeline between them.
//!
//! Plans are driven through `jit_engine::Engine`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod builder;
mod canonical;
mod cql;
pub mod shapes;

pub use canonical::{CanonicalKey, CanonicalQuery, FilterTerm};
pub use cql::{parse_cql, CqlError, CqlQuery};
