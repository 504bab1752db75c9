//! # jit-plan
//!
//! Query-plan construction.
//!
//! * [`shapes`] — the plan shapes of Table II (bushy and left-deep binary
//!   join trees for `N = 3..8`).
//! * [`builder`] — turns a shape + predicates + window + execution mode
//!   (REF / DOE / JIT) into an executable plan of `jit-exec` operators.
//! * [`cql`] — a small CQL-subset parser for queries like the one in
//!   Figure 1a (`SELECT * FROM A [RANGE 5 minutes], … WHERE A.x = B.x …`).
//! * [`canonical`] — resolves a parsed query against a global catalog and
//!   normalizes it to a hashable [`canonical::CanonicalKey`], so a
//!   multi-query serving tier can detect queries that denote the same
//!   computation and share one pipeline between them.
//!
//! Plans are driven through `jit_engine::Engine`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod builder;
pub mod canonical;
pub mod cql;
pub mod shapes;

pub use builder::{build_tree_plan, build_tree_plan_with, PlanOptions};
pub use canonical::{CanonicalKey, CanonicalQuery, FilterTerm};
pub use cql::{parse_cql, CqlQuery};
pub use shapes::{JoinNode, PlanInput, PlanShape, TreeShape};
