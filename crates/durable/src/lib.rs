//! Durability subsystem: disorder tolerance and checkpoint files.
//!
//! The paper's arrival contract (Section II) requires tuples in
//! non-decreasing timestamp order, and until this crate the engine enforced
//! it with a hard error. Real feeds are *almost* ordered: a small fraction
//! of arrivals lags by a bounded amount. This crate adds the two pieces the
//! rest of the workspace composes into end-to-end durability:
//!
//! * **Disorder tolerance** — [`DisorderPolicy`] and [`ReorderBuffer`]: a
//!   watermark-driven reorder stage in front of a backend. Arrivals within
//!   the configured lateness bound are buffered and released in timestamp
//!   order once the watermark (max seen timestamp minus the bound) passes
//!   them; arrivals older than the watermark are dropped and counted, never
//!   silently reordered past a release. The buffer is the near-sorted
//!   [`jit_types::ExpiryQueue`] window states expire through, so the stage
//!   costs O(1) per in-order arrival and allocates nothing per arrival.
//! * **Checkpoint files** — [`write_checkpoint`] / [`read_checkpoint`]: a
//!   versioned on-disk format (magic header + JSON body over the local
//!   `serde::Content` model) with typed corruption and version-mismatch
//!   errors ([`CheckpointError`]), plus [`CheckpointStats`] so callers can
//!   surface checkpoint size/latency in their metrics.
//!
//! What goes *into* a checkpoint body is owned by the layer being
//! checkpointed (executor, sharded session, serving registry); this crate
//! deliberately knows nothing about operators.

mod checkpoint;
mod reorder;

pub use checkpoint::{
    read_checkpoint, write_checkpoint, CheckpointError, CheckpointStats, FORMAT_VERSION, MAGIC,
};
pub use reorder::{DisorderPolicy, PushOutcome, ReorderBuffer};
