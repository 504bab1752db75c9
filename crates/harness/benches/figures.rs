//! Figures 10–17: CPU time and memory vs one swept workload parameter, on
//! the bushy (10–13) and left-deep (14–17) plans.
//!
//! One criterion group per figure. Each measures wall-clock execution of
//! the figure's *default* swept point under REF and JIT on identical
//! traces; in addition it regenerates the figure's full series (scaled
//! down) once and prints the table, so the bench log contains the same rows
//! the paper plots.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use jit_core::policy::{ExecutionMode, JitPolicy};
use jit_engine::Engine;
use jit_exec::ExecutorConfig;
use jit_harness::{render_table, run_figure, FigureSpec};
use jit_stream::WorkloadGenerator;

/// Duration scale of the benches. The paper runs 5 hours of application
/// time per point (scale 5.0); a small fraction keeps a full `cargo bench`
/// to minutes while preserving the relative JIT/REF behaviour.
const BENCH_DURATION_SCALE: f64 = 0.05;

/// Seed shared by all benches so numbers are comparable across runs.
const BENCH_SEED: u64 = 20080415;

fn bench(c: &mut Criterion) {
    for spec in FigureSpec::all() {
        // Print the full (scaled) series once so the figure can be read off the log.
        let result = run_figure(&spec, BENCH_DURATION_SCALE, BENCH_SEED);
        println!("{}", render_table(&result));

        // Benchmark the default point (the middle of the sweep) under both modes.
        let default_value = spec.values[spec.values.len() / 2];
        let config = spec
            .config_for(default_value)
            .with_duration_scale(BENCH_DURATION_SCALE)
            .with_seed(BENCH_SEED);
        let trace = WorkloadGenerator::generate(&config.workload);
        let builder = Engine::builder()
            .workload(&config.workload, &config.shape)
            .executor_config(ExecutorConfig {
                collect_results: false,
            });
        let mut group = c.benchmark_group(&spec.id);
        group.sample_size(10);
        for (label, mode) in [
            ("REF", ExecutionMode::Ref),
            ("JIT", ExecutionMode::Jit(JitPolicy::full())),
        ] {
            let engine = builder.clone().mode(mode).build().expect("plan builds");
            group.bench_function(label, |b| {
                b.iter_batched(
                    || trace.clone(),
                    |t| engine.run_trace(&t).expect("trace runs"),
                    BatchSize::LargeInput,
                )
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
