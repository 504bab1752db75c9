//! # jit-exec
//!
//! The DSMS execution substrate the JIT mechanism plugs into: a small,
//! self-contained continuous-query engine in the spirit of PIPES (the
//! framework the paper's C++ prototype was built on).
//!
//! The substrate provides:
//!
//! * [`operator::Operator`] — the operator abstraction. Operators receive
//!   data messages on numbered input ports, may emit result messages and
//!   upstream [`jit_types::Feedback`], and can be asked to handle feedback
//!   coming from their consumers.
//! * [`OperatorState`] — indexed sliding-window operator state:
//!   hash-partitioned probing on the equi-join key ([`JoinKeySpec`]) with a
//!   scan fallback, timestamp-ordered O(expired) purging, and running byte
//!   accounting.
//! * [`RefJoinOperator`] — the reference (REF) binary window join: plain
//!   purge–probe–insert with no feedback, exactly the baseline the paper
//!   compares against.
//! * [`SelectionOperator`] — the stateless constant filter that plans wire
//!   in front of a join port.
//! * [`PlanBuilder`] → [`ExecutablePlan`] — executable plan graphs wiring
//!   operators to sources and to each other.
//! * [`Executor`] — drives arrival events through the plan one cascade at a
//!   time, routes feedback, collects results and metrics. Its priority task
//!   scheduler implements the policies of Section III-B (feedback pre-empts
//!   data processing; resumed production is delivered ahead of regular
//!   work).
//!
//! Everything here is JIT-agnostic: the REF baseline runs purely on this
//! crate, and `jit-core` layers MNS detection, blacklists and dynamic
//! production control on top by implementing the same [`operator::Operator`]
//! trait.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod executor;
mod join;
pub mod operator;
mod output;
mod plan;
mod scheduler;
mod selection;
mod state;

pub use executor::{Executor, ExecutorConfig};
pub use join::RefJoinOperator;
pub use output::{
    all_within_window, has_duplicates, is_temporally_ordered, missing_from, result_multiset,
    same_results,
};
pub use plan::{ExecutablePlan, Input, PlanBuilder, PlanError};
pub use selection::SelectionOperator;
pub use state::{
    read_envelope, write_envelope, HashIndex, JoinKeySpec, OperatorState, Slab, SpecHits,
    StateIndexMode, StoredTuple,
};
