//! # jit-core
//!
//! The paper's primary contribution: **Just-In-Time processing of continuous
//! queries** — a feedback mechanism between consumer and producer operators
//! that suppresses the generation of *non-demanded partial results* (NPRs)
//! and resumes their production exactly when a matching partner appears.
//!
//! The crate implements, on top of the `jit-exec` substrate:
//!
//! * [`CnsLattice`] — the CNS lattice and the `Identify_MNS` algorithm
//!   (Section IV-A, Figure 8).
//! * [`BloomFilter`] — Bloom-filter-accelerated MNS detection (Section IV-A).
//! * [`MnsBuffer`] — the consumer-side buffer of detected MNSs, probed by
//!   arriving tuples to trigger resumption feedback.
//! * [`Blacklist`] — the producer-side blacklist holding suspended tuples,
//!   including "similar" tuples with identical join-attribute signatures.
//! * [`JitJoinOperator`] — the JIT-enabled binary window join combining the
//!   consumer role (`Process_Input`, Figure 6) and the producer role
//!   (`Handle_Feedback`: suspend / resume / propagate, Section IV-B).
//! * [`JitSelectionOperator`] — the JIT-aware selection consumer (Section V,
//!   Figure 9a), which issues suspension-only feedback.
//! * [`policy`] — configuration knobs ([`policy::JitPolicy`]): detection
//!   strategy (full lattice / Bloom / empty-state-only), similar-tuple
//!   capture, feedback propagation. The *empty-state-only* preset is exactly
//!   the DOE baseline the paper subsumes.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod blacklist;
mod bloom;
mod jit_filter;
mod jit_join;
mod lattice;
mod mns_buffer;
pub mod policy;

pub use blacklist::{Blacklist, SuspendMode};
pub use bloom::BloomFilter;
pub use jit_filter::JitSelectionOperator;
pub use jit_join::{JitJoinOperator, Producer};
pub use lattice::CnsLattice;
pub use mns_buffer::MnsBuffer;
pub use policy::{ExecutionMode, JitPolicy};
