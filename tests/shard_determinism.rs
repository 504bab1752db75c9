//! Shard determinism: the sharded parallel runtime must be transparent.
//!
//! For every shard count N ∈ {1, 2, 4}, executing a key-partitionable
//! workload across N hash-partitioned shards must produce exactly the same
//! result multiset as the single-threaded `Executor` on the same trace, and
//! the merged stream must be globally timestamp-ordered (the paper's
//! temporal-order requirement, Section II). The run must also be
//! deterministic: repeating it yields byte-identical result sequences.

use jit_dsms::prelude::*;

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

fn spec(sources: usize, seed: u64) -> WorkloadSpec {
    WorkloadSpec::bushy_default()
        .with_sources(sources)
        .with_dmax(16)
        .with_shared_key()
        .with_rate(1.0)
        .with_window_minutes(2.0)
        .with_duration(Duration::from_secs(110))
        .with_seed(seed)
}

/// Run `trace` through the engine on the sharded backend.
fn run_sharded(
    trace: &Trace,
    spec: &WorkloadSpec,
    shape: &PlanShape,
    mode: ExecutionMode,
    config: RuntimeConfig,
) -> EngineOutcome {
    Engine::builder()
        .workload(spec, shape)
        .mode(mode)
        .sharded(config)
        .build()
        .expect("sharded plan builds")
        .run_trace(trace)
        .expect("parallel run succeeds")
}

fn check_against_sequential(spec: &WorkloadSpec, shape: &PlanShape, mode: ExecutionMode) {
    let trace = WorkloadGenerator::generate(spec);
    let sequential = Engine::builder()
        .workload(spec, shape)
        .mode(mode)
        .build()
        .expect("sequential plan builds")
        .run_trace(&trace)
        .expect("sequential run succeeds");
    assert!(
        sequential.results_count > 0,
        "workload must produce results for the comparison to mean anything"
    );
    for shards in SHARD_COUNTS {
        let parallel = run_sharded(
            &trace,
            spec,
            shape,
            mode,
            RuntimeConfig::with_shards(shards),
        );
        // Set equality against the single-threaded executor.
        assert!(
            output::same_results(&sequential.results, &parallel.results),
            "{} shards diverged from sequential {} on {}: missing {}, extra {}",
            shards,
            sequential.mode_label,
            shape.label(),
            output::missing_from(&sequential.results, &parallel.results).len(),
            output::missing_from(&parallel.results, &sequential.results).len(),
        );
        assert_eq!(parallel.results_count, sequential.results_count);
        assert!(!output::has_duplicates(&parallel.results));
        // The merged sink preserves the global temporal-order guarantee.
        assert!(
            output::is_temporally_ordered(&parallel.results),
            "merged results out of timestamp order at {shards} shards"
        );
        assert_eq!(parallel.order_violations, 0);
        // Every arrival was ingested by exactly one shard.
        assert_eq!(parallel.snapshot.stats.tuples_arrived, trace.len() as u64);
        assert_eq!(parallel.per_shard.len(), shards);
    }
}

#[test]
fn ref_bushy_matches_sequential_across_shard_counts() {
    check_against_sequential(&spec(4, 42), &PlanShape::bushy(4), ExecutionMode::Ref);
}

#[test]
fn ref_leftdeep_matches_sequential_across_shard_counts() {
    check_against_sequential(&spec(3, 1889), &PlanShape::left_deep(3), ExecutionMode::Ref);
}

#[test]
fn jit_matches_sequential_ref_result_set() {
    // JIT may emit a resumed result late (documented deviation), so compare
    // result *sets* against sequential REF rather than asserting order.
    let spec = spec(4, 7);
    let shape = PlanShape::bushy(4);
    let trace = WorkloadGenerator::generate(&spec);
    let reference = Engine::builder()
        .workload(&spec, &shape)
        .build()
        .expect("plan builds")
        .run_trace(&trace)
        .expect("sequential REF runs");
    assert!(reference.results_count > 0);
    for shards in SHARD_COUNTS {
        let parallel = run_sharded(
            &trace,
            &spec,
            &shape,
            ExecutionMode::Jit(JitPolicy::full()),
            RuntimeConfig::with_shards(shards),
        );
        assert!(
            output::same_results(&reference.results, &parallel.results),
            "sharded JIT at {} shards diverged from REF: missing {}, extra {}",
            shards,
            output::missing_from(&reference.results, &parallel.results).len(),
            output::missing_from(&parallel.results, &reference.results).len(),
        );
        assert!(!output::has_duplicates(&parallel.results));
    }
}

#[test]
fn bounded_watermark_clock_pins_jit_exactly_at_every_shard_count() {
    // Under the strict policy, sharded JIT can differ from single-threaded
    // JIT at the expiry margin (per-shard suppression state). The bounded
    // disorder policy replaces per-arrival expiry with watermark-driven
    // expiry, which is identical on every backend — so JIT equality becomes
    // exact at every shard count even with windows expiring mid-stream.
    let spec = spec(4, 7).with_duration(Duration::from_secs(150));
    let shape = PlanShape::bushy(4);
    let lateness = Duration::from_secs(3);
    let trace = WorkloadGenerator::generate(&spec);
    let events = DisorderSpec::new(0.05, lateness, 13).apply(&trace);

    let run = |builder: EngineBuilder| {
        let mut session = builder.build().unwrap().session().unwrap();
        for event in &events {
            let _ = session.push_event(event.clone()).unwrap();
        }
        session.finish().unwrap()
    };
    let builder = Engine::builder()
        .workload(&spec, &shape)
        .mode(ExecutionMode::Jit(JitPolicy::full()))
        .disorder(DisorderPolicy::Bounded(lateness));
    let single = run(builder.clone());
    assert!(single.results_count > 0);
    assert!(
        single.snapshot.stats.purged_tuples > 0,
        "expiry must be active for this test to pin anything new"
    );
    for shards in SHARD_COUNTS {
        let parallel = run(builder.clone().sharded(RuntimeConfig::with_shards(shards)));
        assert!(
            output::same_results(&single.results, &parallel.results),
            "bounded JIT at {} shards diverged: missing {}, extra {}",
            shards,
            output::missing_from(&single.results, &parallel.results).len(),
            output::missing_from(&parallel.results, &single.results).len(),
        );
        assert_eq!(parallel.results_count, single.results_count);
        assert!(!output::has_duplicates(&parallel.results));
        assert!(output::is_temporally_ordered(&parallel.results));
    }
}

#[test]
fn parallel_runs_are_deterministic() {
    let spec = spec(3, 99);
    let shape = PlanShape::bushy(3);
    let trace = WorkloadGenerator::generate(&spec);
    let run = || {
        run_sharded(
            &trace,
            &spec,
            &shape,
            ExecutionMode::Ref,
            RuntimeConfig::with_shards(4)
                .with_batch_size(3)
                .with_channel_capacity(2),
        )
    };
    let first = run();
    let second = run();
    // Thread interleaving must not leak into the output: the merged result
    // sequence is identical run to run.
    let keys = |o: &EngineOutcome| -> Vec<_> { o.results.iter().map(|t| t.key()).collect() };
    assert_eq!(keys(&first), keys(&second));
    assert_eq!(first.results_count, second.results_count);
    assert_eq!(
        first.snapshot.stats.results_emitted,
        second.snapshot.stats.results_emitted
    );
}

#[test]
fn batching_knobs_do_not_change_results() {
    let spec = spec(3, 5);
    let shape = PlanShape::left_deep(3);
    let trace = WorkloadGenerator::generate(&spec);
    let baseline = run_sharded(
        &trace,
        &spec,
        &shape,
        ExecutionMode::Ref,
        RuntimeConfig::with_shards(2),
    );
    for (batch, capacity) in [(1, 1), (7, 2), (256, 64)] {
        let outcome = run_sharded(
            &trace,
            &spec,
            &shape,
            ExecutionMode::Ref,
            RuntimeConfig::with_shards(2)
                .with_batch_size(batch)
                .with_channel_capacity(capacity),
        );
        assert!(output::same_results(&baseline.results, &outcome.results));
        assert!(output::is_temporally_ordered(&outcome.results));
    }
}
