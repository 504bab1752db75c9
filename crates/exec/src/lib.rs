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
//! * [`state::OperatorState`] — indexed sliding-window operator state:
//!   hash-partitioned probing on the equi-join key ([`state::JoinKeySpec`])
//!   with a scan fallback, timestamp-ordered O(expired) purging, and
//!   running byte accounting.
//! * [`join::RefJoinOperator`] — the reference (REF) binary window join:
//!   plain purge–probe–insert with no feedback, exactly the baseline the
//!   paper compares against.
//! * [`selection::SelectionOperator`] — the stateless constant filter that
//!   plans wire in front of a join port.
//! * [`plan`] — executable plan graphs wiring operators to sources and to
//!   each other.
//! * [`scheduler`] — the priority task scheduler implementing the policies
//!   of Section III-B (feedback pre-empts data processing; resumed
//!   production is delivered ahead of regular work).
//! * [`executor::Executor`] — drives arrival events through the plan one
//!   cascade at a time, routes feedback, collects results and metrics.
//!
//! Everything here is JIT-agnostic: the REF baseline runs purely on this
//! crate, and `jit-core` layers MNS detection, blacklists and dynamic
//! production control on top by implementing the same [`operator::Operator`]
//! trait.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod executor;
pub mod join;
pub mod operator;
pub mod output;
pub mod plan;
pub mod scheduler;
pub mod selection;
pub mod state;

pub use executor::{Executor, ExecutorConfig};
pub use join::RefJoinOperator;
pub use operator::{
    DataMessage, FeedbackOutcome, OpContext, Operator, OperatorId, OperatorOutput, Port, LEFT,
    RIGHT,
};
pub use plan::{ExecutablePlan, Input, PlanBuilder, PlanError};
pub use scheduler::{Priority, Scheduler, Task, TaskKind};
pub use state::{JoinKeySpec, OperatorState, StateIndexMode, StoredTuple};
