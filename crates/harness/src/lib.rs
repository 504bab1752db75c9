//! # jit-harness
//!
//! The experiment harness that regenerates the paper's evaluation
//! (Section VI): every figure is a parameter sweep comparing JIT against REF
//! (and optionally DOE) on synthetic clique-join workloads, reporting CPU
//! cost and peak memory.
//!
//! * [`ExperimentConfig`] — experiment configuration: plan shape, workload,
//!   modes and a duration scale (the paper runs 5 hours of application time
//!   per point; the harness defaults to minutes and scales linearly).
//! * [`FigureSpec`] and [`run_figure`] — the definitions of Figures 10–17
//!   (which parameter is swept, over which values, on which plan family) and
//!   the sweep runner.
//! * [`render_table`] and [`render_csv`] — plain-text and CSV rendering of
//!   the measured series, mirroring the "rows/series the paper reports".
//! * [`parallel_workload`] — the key-partitionable workload preset the
//!   sharded experiments run (through `jit_engine::Engine` with a sharded
//!   backend).
//!
//! Two targets drive the library: the `run_figures` binary regenerates every
//! figure, checks it against the paper's expectations and exits 1 on a
//! violation (`cargo run -p jit-harness --release --bin run_figures --
//! --figure fig10 --scale 0.3`), and the `figures` criterion bench times each
//! figure's default point under REF and JIT (`cargo bench -p jit-harness`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod config;
mod figures;
mod parallel;
mod table_out;

pub use config::ExperimentConfig;
pub use figures::{
    check_expectations, run_figure, FigureResult, FigureSpec, MEMORY_CHECK_MIN_SCALE,
};
pub use parallel::parallel_workload;
pub use table_out::{render_csv, render_table};
