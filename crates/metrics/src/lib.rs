//! # jit-metrics
//!
//! Measurement infrastructure for the JIT reproduction.
//!
//! The paper evaluates JIT against REF on two axes: **total CPU time** and
//! **peak memory consumption** (Section VI). Reproducing absolute seconds on
//! different hardware is meaningless, so this crate provides:
//!
//! * [`ExecStats`] — raw event counters (probes, predicate evaluations,
//!   partial results produced / suppressed, feedback traffic).
//! * [`RunMetrics::charge`] — a deterministic cost model that converts each
//!   counted operation ([`CostKind`]) into simulated CPU work, so the
//!   JIT/REF *ratio* is hardware-independent; wall-clock time is also
//!   recorded for reference.
//! * [`MemoryTracker`] — analytical memory accounting: every container that
//!   stores tuples (operator states, inter-operator queues, MNS buffers,
//!   blacklists) reports its size, and the tracker maintains the running
//!   total and the peak, which is the quantity Figures 10b–17b plot.
//! * [`MetricsSnapshot`] — the serialisable measurement snapshot the
//!   harness, the engine and the benches report.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod cost;
mod counters;
mod memory;
mod report;

pub use cost::CostKind;
pub use counters::ExecStats;
pub use memory::{MemComponentId, MemoryTracker};
pub use report::{MetricsSnapshot, RunMetrics};
