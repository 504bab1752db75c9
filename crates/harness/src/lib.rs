//! # jit-harness
//!
//! The experiment harness that regenerates the paper's evaluation
//! (Section VI): every figure is a parameter sweep comparing JIT against REF
//! (and optionally DOE) on synthetic clique-join workloads, reporting CPU
//! cost and peak memory.
//!
//! * [`config`] — experiment configuration: plan shape, workload, modes and
//!   a duration scale (the paper runs 5 hours of application time per point;
//!   the harness defaults to minutes and scales linearly).
//! * [`figures`] — the definitions of Figures 10–17 (which parameter is
//!   swept, over which values, on which plan family) and the sweep runner.
//! * [`table_out`] — plain-text and CSV rendering of the measured series,
//!   mirroring the "rows/series the paper reports".
//! * [`parallel`] — the key-partitionable workload preset the sharded
//!   experiments run (through `jit_engine::Engine` with a sharded backend).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod figures;
pub mod parallel;
pub mod table_out;

pub use config::ExperimentConfig;
pub use figures::{run_figure, FigureResult, FigureRow, FigureSpec, SweepParameter};
pub use parallel::parallel_workload;
pub use table_out::{render_csv, render_table};
