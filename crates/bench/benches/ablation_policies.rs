//! Ablation bench: how much of JIT's benefit comes from each design choice?
//!
//! Compares, on the bushy default workload (scaled down):
//!
//! * REF — no feedback at all;
//! * DOE — only Ø (empty-state) suspension, the baseline JIT subsumes;
//! * JIT (Bloom) — Bloom-filter MNS detection (cheaper, incomplete);
//! * JIT (no similar capture) — full lattice but no signature-based capture
//!   of tuples like `a2`;
//! * JIT (no propagation) — feedback affects only the immediate producer;
//! * JIT (full) — the paper's configuration.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use jit_bench::{BENCH_DURATION_SCALE, BENCH_SEED};
use jit_core::policy::{ExecutionMode, JitPolicy};
use jit_engine::Engine;
use jit_exec::executor::ExecutorConfig;
use jit_harness::config::ExperimentConfig;
use jit_stream::WorkloadGenerator;

fn bench(c: &mut Criterion) {
    let config = ExperimentConfig::bushy_default()
        .with_duration_scale(BENCH_DURATION_SCALE)
        .with_seed(BENCH_SEED);
    let trace = WorkloadGenerator::generate(&config.workload);
    let builder = Engine::builder()
        .workload(&config.workload, &config.shape)
        .executor_config(ExecutorConfig {
            collect_results: false,
            check_temporal_order: false,
        });
    let variants: Vec<(&str, Engine)> = [
        ("REF", ExecutionMode::Ref),
        ("DOE", ExecutionMode::Doe),
        ("JIT-bloom", ExecutionMode::Jit(JitPolicy::bloom())),
        (
            "JIT-no-similar",
            ExecutionMode::Jit(JitPolicy::full().without_similar_capture()),
        ),
        (
            "JIT-no-propagation",
            ExecutionMode::Jit(JitPolicy::full().without_propagation()),
        ),
        ("JIT-full", ExecutionMode::Jit(JitPolicy::full())),
    ]
    .into_iter()
    .map(|(label, mode)| {
        let engine = builder.clone().mode(mode).build().expect("plan builds");
        (label, engine)
    })
    .collect();

    // Print the per-variant counters once so the ablation can be read off the
    // bench log (intermediate results produced / suppressed, feedback volume).
    println!("ablation on {} ({}):", config.name, config.shape.label());
    for (label, engine) in &variants {
        let outcome = engine.run_trace(&trace).expect("trace runs");
        println!(
            "  {:>18}: cost {:>12} u, peak mem {:>9.1} KB, intermediates {:>8}, suppressed {:>8}, feedback {:>6}, results {}",
            label,
            outcome.snapshot.cost_units,
            outcome.snapshot.peak_memory_kb(),
            outcome.snapshot.stats.intermediate_produced,
            outcome.snapshot.stats.intermediate_suppressed,
            outcome.snapshot.stats.feedback_total(),
            outcome.results_count,
        );
    }

    let mut group = c.benchmark_group("ablation_policies");
    group.sample_size(10);
    for (label, engine) in &variants {
        group.bench_function(*label, |b| {
            b.iter_batched(
                || trace.clone(),
                |t| engine.run_trace(&t).expect("trace runs"),
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
