//! Multi-core quickstart: one engine builder, one `.sharded(...)` call.
//!
//! Generates a key-partitionable clique-join workload, builds two engines
//! from the *same* builder — one on the single-threaded executor, one
//! across four hash-partitioned shards — and shows that the result sets
//! agree while the work spreads over cores.
//!
//! ```text
//! cargo run --release --example parallel_quickstart
//! ```

use jit_dsms::prelude::*;

fn main() {
    // A workload whose join predicates all reduce to key equality
    // (shared-key mode), which makes hash-sharding lossless. The engine
    // checks this at build time: a non-partitionable workload would be a
    // typed `EngineError::NotPartitionable`, not silently missing results.
    let spec = WorkloadSpec::bushy_default()
        .with_sources(4)
        .with_dmax(50)
        .with_shared_key()
        .with_rate(2.0)
        .with_window_minutes(3.0)
        .with_duration(Duration::from_mins(4))
        .with_seed(7);
    let shape = PlanShape::bushy(4);
    let trace = WorkloadGenerator::generate(&spec);
    println!(
        "workload: {} sources, {} arrivals, shared join key in [1..{}]",
        spec.num_sources,
        trace.len(),
        spec.dmax
    );

    let builder = Engine::builder()
        .workload(&spec, &shape)
        .mode(ExecutionMode::Jit(JitPolicy::full()));

    // Baseline: the paper's single-threaded cascade executor.
    let sequential = builder
        .clone()
        .build()
        .expect("engine builds")
        .run_trace(&trace)
        .expect("single-threaded run succeeds");
    println!(
        "single-threaded JIT: {} results, {:.2} pseudo-seconds of CPU cost",
        sequential.results_count,
        sequential.snapshot.cost_pseudo_seconds()
    );

    // The same trace across four shards: one executor per core, bounded
    // channels in between, timestamp-ordered merge at the sink. Switching
    // backends is configuration, not code.
    let parallel = builder
        .sharded(
            RuntimeConfig::with_shards(4)
                .with_batch_size(64)
                .with_channel_capacity(32),
        )
        .build()
        .expect("shared-key workload shards")
        .run_trace(&trace)
        .expect("parallel run succeeds");
    println!(
        "sharded JIT (4 shards): {} results, max shard load {:.0}%",
        parallel.results_count,
        parallel.max_shard_load() * 100.0
    );
    for shard in &parallel.per_shard {
        println!(
            "  shard {}: {} arrivals → {} results, peak memory {:.1} KB",
            shard.shard,
            shard.arrivals,
            shard.results_count,
            shard.snapshot.peak_memory_kb()
        );
    }

    // Same result set, globally timestamp-ordered after the k-way merge.
    assert!(output::same_results(&sequential.results, &parallel.results));
    println!("sequential and sharded result sets are identical ✓");
}
