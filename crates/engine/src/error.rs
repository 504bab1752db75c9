//! The engine's typed error.

use jit_durable::CheckpointError;
use jit_exec::PlanError;
use jit_plan::CqlError;
use jit_runtime::{ConfigError, RuntimeError};
use jit_types::Timestamp;
use std::fmt;

/// Why building or running an [`crate::Engine`] failed.
///
/// Every failure mode a caller can provoke is typed: misconfigured knobs,
/// malformed or unsupported queries, non-partitionable workloads handed to
/// the sharded backend, and out-of-order pushes all surface here instead of
/// panicking (or worse, silently losing results) downstream.
#[derive(Debug)]
pub enum EngineError {
    /// The builder was finalised without a query
    /// ([`crate::EngineBuilder::query_cql`] or
    /// [`crate::EngineBuilder::query_shape`]).
    MissingQuery,
    /// The query is structurally invalid for plan construction (too few
    /// sources, a bushy shape outside Table II's 3–8 range, a zero-length
    /// window, …).
    InvalidQuery(String),
    /// The query parses but uses a feature the engine cannot execute yet.
    Unsupported(String),
    /// A runtime configuration knob is out of range.
    Config(ConfigError),
    /// A mode list was empty where at least one execution mode is required.
    EmptyModes,
    /// The CQL text failed to parse or resolve.
    Cql(CqlError),
    /// Plan construction failed.
    Plan(PlanError),
    /// The parallel runtime failed (a shard panicked, …).
    Runtime(RuntimeError),
    /// The sharded backend was requested for a workload whose join
    /// predicates do not all reduce to equality on the partition key, so
    /// hash-partitioning would silently lose results.
    NotPartitionable {
        /// Which source/column broke the key-equivalence requirement.
        detail: String,
    },
    /// A tuple was pushed with a timestamp smaller than an earlier push;
    /// sessions require non-decreasing application time (Section II).
    /// Raised only under [`jit_durable::DisorderPolicy::Strict`] — the
    /// bounded policy turns bounded lateness into reordering and unbounded
    /// lateness into a counted drop, never an error.
    OutOfOrder {
        /// Timestamp of the rejected tuple.
        pushed: Timestamp,
        /// Largest timestamp pushed so far.
        last: Timestamp,
    },
    /// Writing, reading or applying a durability checkpoint failed (I/O,
    /// corruption, format-version or configuration mismatch).
    Checkpoint(CheckpointError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::MissingQuery => {
                write!(f, "no query configured: call query_cql() or query_shape()")
            }
            EngineError::InvalidQuery(detail) => write!(f, "invalid query: {detail}"),
            EngineError::Unsupported(detail) => write!(f, "unsupported query: {detail}"),
            EngineError::Config(e) => write!(f, "{e}"),
            EngineError::EmptyModes => {
                write!(
                    f,
                    "at least one execution mode is required (modes was empty)"
                )
            }
            EngineError::Cql(e) => write!(f, "{e}"),
            EngineError::Plan(e) => write!(f, "plan construction failed: {e}"),
            EngineError::Runtime(e) => write!(f, "{e}"),
            EngineError::NotPartitionable { detail } => write!(
                f,
                "workload is not key-partitionable, sharded execution would lose results: {detail}"
            ),
            EngineError::OutOfOrder { pushed, last } => write!(
                f,
                "out-of-order push: timestamp {pushed} after {last}; sessions require \
                 non-decreasing application time"
            ),
            EngineError::Checkpoint(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Config(e) => Some(e),
            EngineError::Cql(e) => Some(e),
            EngineError::Plan(e) => Some(e),
            EngineError::Runtime(e) => Some(e),
            EngineError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ConfigError> for EngineError {
    fn from(e: ConfigError) -> Self {
        EngineError::Config(e)
    }
}

impl From<CqlError> for EngineError {
    fn from(e: CqlError) -> Self {
        EngineError::Cql(e)
    }
}

impl From<PlanError> for EngineError {
    fn from(e: PlanError) -> Self {
        EngineError::Plan(e)
    }
}

impl From<RuntimeError> for EngineError {
    fn from(e: RuntimeError) -> Self {
        EngineError::Runtime(e)
    }
}

impl From<CheckpointError> for EngineError {
    fn from(e: CheckpointError) -> Self {
        EngineError::Checkpoint(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        assert!(EngineError::MissingQuery.to_string().contains("query_cql"));
        assert!(EngineError::NotPartitionable {
            detail: "source S2".into()
        }
        .to_string()
        .contains("S2"));
        let oo = EngineError::OutOfOrder {
            pushed: Timestamp::from_millis(5),
            last: Timestamp::from_millis(9),
        };
        assert!(oo.to_string().contains("out-of-order"));
    }
}
