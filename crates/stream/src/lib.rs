//! # jit-stream
//!
//! Synthetic stream workload generation, reproducing the experimental setup
//! of Section VI of the paper:
//!
//! * `N` streaming sources, each with an average arrival rate of `λ` tuples
//!   per second (Poisson arrivals).
//! * Every tuple carries `N − 1` integer columns, one per partner source,
//!   with values drawn uniformly from `[1..dmax]`; the last source's domain
//!   factor widens its range (the left-deep experiments feed it values from
//!   `[1..100·dmax]`).
//! * A clique equi-join predicate connects every pair of sources.
//!
//! The generator is fully deterministic given a seed, so every experiment is
//! reproducible and REF / DOE / JIT executions of the same configuration see
//! exactly the same arrival trace.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod arrival;
mod disorder;
mod generator;
mod partition;
mod trace;
mod workload;

pub use arrival::ArrivalEvent;
pub use disorder::DisorderSpec;
pub use generator::WorkloadGenerator;
pub use partition::ShardPartitioner;
pub use trace::Trace;
pub use workload::WorkloadSpec;
