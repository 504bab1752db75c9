//! The unified `Engine`/`Session` API: cross-backend equivalence and typed
//! build-time rejection.
//!
//! The headline test drives the *same* pushed tuple sequence through both
//! `Backend` implementations — the single-threaded executor and the sharded
//! runtime at 1 and 4 shards — purely by builder configuration, and asserts
//! set-equal, timestamp-ordered results and matching steady-state metrics,
//! with the single-threaded backend as the reference.

use jit_dsms::prelude::*;
use std::sync::Arc;

fn shared_key_spec() -> WorkloadSpec {
    parallel_workload(4, 16)
        .with_rate(1.0)
        .with_window_minutes(2.0)
        .with_duration(Duration::from_secs(120))
        .with_seed(4242)
}

/// Push `trace` tuple by tuple through an engine built from `builder`.
fn push_through(builder: EngineBuilder, trace: &Trace) -> EngineOutcome {
    let engine = builder.build().expect("engine builds");
    let mut session = engine.session().expect("session opens");
    for event in trace.iter() {
        let _ = session.push_event(event.clone()).expect("in-order push");
    }
    session.finish().expect("session finishes")
}

#[test]
fn same_pushed_sequence_through_both_backends_matches() {
    let spec = shared_key_spec();
    let shape = PlanShape::bushy(4);
    let trace = WorkloadGenerator::generate(&spec);

    let builder = Engine::builder().workload(&spec, &shape); // REF by default
    let single = push_through(builder.clone(), &trace);
    assert!(single.results_count > 0, "workload must produce results");
    assert!(output::is_temporally_ordered(&single.results));
    assert_eq!(single.order_violations, 0);
    let one_shard = push_through(
        builder.clone().sharded(RuntimeConfig::with_shards(1)),
        &trace,
    );
    let four_shards = push_through(
        builder.clone().sharded(RuntimeConfig::with_shards(4)),
        &trace,
    );

    for (label, outcome) in [("1 shard", &one_shard), ("4 shards", &four_shards)] {
        assert!(
            output::same_results(&single.results, &outcome.results),
            "{label} diverged from the single-threaded backend: missing {}, extra {}",
            output::missing_from(&single.results, &outcome.results).len(),
            output::missing_from(&outcome.results, &single.results).len(),
        );
        assert!(
            output::is_temporally_ordered(&outcome.results),
            "{label} results out of timestamp order"
        );
        assert_eq!(outcome.order_violations, 0, "{label}");
        assert_eq!(outcome.results_count, single.results_count, "{label}");
    }

    // Steady-state metrics. The single-threaded backend and the one-shard
    // sharded backend run the identical executor over the identical
    // sequence, so every deterministic metric matches exactly (wall-clock
    // is the one nondeterministic field).
    assert_eq!(one_shard.snapshot.stats, single.snapshot.stats);
    assert_eq!(
        one_shard.snapshot.steady_cost_units,
        single.snapshot.steady_cost_units
    );
    assert_eq!(one_shard.snapshot.cost_units, single.snapshot.cost_units);
    assert_eq!(
        one_shard.snapshot.steady_peak_memory_bytes,
        single.snapshot.steady_peak_memory_bytes
    );
    // At 4 shards the partition-invariant counters still agree (per-probe
    // cost shrinks with per-shard state, so cost units legitimately drop).
    assert_eq!(
        four_shards.snapshot.stats.tuples_arrived,
        single.snapshot.stats.tuples_arrived
    );
    assert_eq!(
        four_shards.snapshot.stats.results_emitted,
        single.snapshot.stats.results_emitted
    );
    assert_eq!(four_shards.per_shard.len(), 4);
}

#[test]
fn jit_mode_agrees_across_backends_in_the_no_expiry_regime() {
    // Window longer than the stream: nothing expires, so JIT's result set
    // equals REF's exactly and per-shard suppression state cannot shift the
    // margin — both backends must agree to the tuple.
    let spec = shared_key_spec()
        .with_window_minutes(30.0)
        .with_duration(Duration::from_secs(90));
    let shape = PlanShape::bushy(4);
    let trace = WorkloadGenerator::generate(&spec);
    let builder = Engine::builder()
        .workload(&spec, &shape)
        .mode(ExecutionMode::Jit(JitPolicy::full()));
    let single = push_through(builder.clone(), &trace);
    let sharded = push_through(
        builder.clone().sharded(RuntimeConfig::with_shards(4)),
        &trace,
    );
    assert!(single.results_count > 0);
    assert!(output::same_results(&single.results, &sharded.results));
    assert!(!output::has_duplicates(&sharded.results));
    assert_eq!(single.mode_label, "JIT");
    assert_eq!(sharded.mode_label, "JIT");
}

#[test]
fn bounded_policy_jit_is_exact_across_backends_even_under_expiry() {
    // The no-expiry caveat of the previous test is a strict-policy
    // artefact: under `DisorderPolicy::Bounded` the watermark clock drives
    // expiry at the same logical instants on every backend, so sharded and
    // single-threaded JIT agree exactly *with* windows expiring mid-stream
    // — and stay exact per watermark while results stream out.
    let spec = shared_key_spec()
        .with_window_minutes(1.0)
        .with_duration(Duration::from_secs(150));
    let shape = PlanShape::bushy(4);
    let lateness = Duration::from_secs(3);
    let trace = WorkloadGenerator::generate(&spec);
    let events = DisorderSpec::new(0.05, lateness, 77).apply(&trace);

    let builder = Engine::builder()
        .workload(&spec, &shape)
        .mode(ExecutionMode::Jit(JitPolicy::full()))
        .disorder(DisorderPolicy::Bounded(lateness));
    let mut single = builder.clone().build().unwrap().session().unwrap();
    let mut sharded = builder
        .clone()
        .sharded(RuntimeConfig::with_shards(4))
        .build()
        .unwrap()
        .session()
        .unwrap();

    let mut single_seen: Vec<Tuple> = Vec::new();
    let mut sharded_seen: Vec<Tuple> = Vec::new();
    for (i, event) in events.iter().enumerate() {
        let _ = single.push_event(event.clone()).unwrap();
        let _ = sharded.push_event(event.clone()).unwrap();
        if i % 25 == 0 {
            single_seen.extend(single.poll_results());
            sharded_seen.extend(sharded.poll_results());
            // Exact per watermark: everything the sharded backend has
            // released, the single-threaded one has already released too.
            assert!(
                output::missing_from(&sharded_seen, &single_seen).is_empty(),
                "sharded JIT released a result single-threaded JIT has not (push {i})"
            );
        }
    }
    let single_out = single.finish().unwrap();
    let sharded_out = sharded.finish().unwrap();
    single_seen.extend(single_out.results);
    sharded_seen.extend(sharded_out.results);

    assert!(single_out.snapshot.late_arrivals > 0, "disorder must bite");
    assert!(
        single_out.snapshot.stats.purged_tuples > 0,
        "sanity: expiry is active (windows do not hold the whole stream)"
    );
    assert!(
        output::same_results(&single_seen, &sharded_seen),
        "bounded JIT diverged across backends: missing {}, extra {}",
        output::missing_from(&single_seen, &sharded_seen).len(),
        output::missing_from(&sharded_seen, &single_seen).len()
    );
    assert!(!output::has_duplicates(&sharded_seen));
    assert_eq!(single_out.results_count, sharded_out.results_count);
}

#[test]
fn non_partitionable_workload_on_sharded_backend_is_a_typed_build_error() {
    // No shared key: the clique predicates equate *different* columns of
    // each source pair, so no single hash column is safe.
    let spec = WorkloadSpec::bushy_default()
        .with_sources(4)
        .with_duration(Duration::from_secs(30));
    let result = Engine::builder()
        .workload(&spec, &PlanShape::bushy(4))
        .sharded(RuntimeConfig::with_shards(4))
        .build();
    match result {
        Err(EngineError::NotPartitionable { detail }) => {
            assert!(detail.contains("partition key"), "detail: {detail}");
        }
        other => panic!("expected NotPartitionable, got {other:?}"),
    }
    // The identical builder works single-threaded…
    assert!(Engine::builder()
        .workload(&spec, &PlanShape::bushy(4))
        .build()
        .is_ok());
    // …and at one shard, where nothing can be lost.
    assert!(Engine::builder()
        .workload(&spec, &PlanShape::bushy(4))
        .sharded(RuntimeConfig::with_shards(1))
        .build()
        .is_ok());
}

#[test]
fn cql_round_trip_parse_engine_results() {
    // Parse → engine → push hand-made tuples → results. A and B each carry
    // one column (x); the 60-second window separates the two join pairs.
    let engine = Engine::builder()
        .query_cql(
            "SELECT * FROM A [RANGE 60 seconds], B [RANGE 60 seconds] \
             WHERE A.x = B.x",
        )
        .mode(ExecutionMode::Jit(JitPolicy::full()))
        .build()
        .expect("CQL query builds");
    assert_eq!(engine.query().shape, PlanShape::left_deep(2));
    let mut session = engine.session().expect("session opens");

    let tuple = |source: u16, seq: u64, ts_s: u64, x: i64| {
        Arc::new(BaseTuple::new(
            SourceId(source),
            seq,
            Timestamp::from_secs(ts_s),
            vec![Value::int(x)],
        ))
    };
    let _ = session.push(SourceId(0), tuple(0, 0, 0, 7)).unwrap();
    let _ = session.push(SourceId(1), tuple(1, 0, 1, 7)).unwrap(); // joins a0
    let _ = session.push(SourceId(1), tuple(1, 1, 2, 9)).unwrap(); // no partner yet
    let early = session.poll_results();
    assert_eq!(early.len(), 1, "the x=7 pair is available immediately");
    let _ = session.push(SourceId(0), tuple(0, 1, 70, 9)).unwrap(); // b1 expired (68s > 60s)
    let _ = session.push(SourceId(1), tuple(1, 2, 75, 9)).unwrap(); // joins a1 (5s apart)
    let outcome = session.finish().expect("session finishes");
    assert_eq!(outcome.results_count, 2, "x=7 pair and the fresh x=9 pair");
    assert_eq!(outcome.results.len(), 1, "one result was already polled");
    assert_eq!(outcome.order_violations, 0);
}

#[test]
fn out_of_order_push_is_a_typed_error() {
    let engine = Engine::builder()
        .query_cql("SELECT * FROM A [RANGE 60 seconds], B [RANGE 60 seconds] WHERE A.x = B.x")
        .build()
        .unwrap();
    let mut session = engine.session().unwrap();
    let tuple = |ts_s: u64| {
        Arc::new(BaseTuple::new(
            SourceId(0),
            0,
            Timestamp::from_secs(ts_s),
            vec![Value::int(1)],
        ))
    };
    let _ = session.push(SourceId(0), tuple(10)).unwrap();
    let err = session.push(SourceId(0), tuple(5));
    assert!(matches!(err, Err(EngineError::OutOfOrder { .. })));
    // The session remains usable for in-order pushes.
    let _ = session.push(SourceId(0), tuple(10)).unwrap();
    session.finish().unwrap();
}

#[test]
fn polled_and_final_results_partition_the_stream() {
    // Polling mid-run must never duplicate or drop results relative to a
    // poll-free run, on either backend.
    let spec = shared_key_spec();
    let shape = PlanShape::bushy(4);
    let trace = WorkloadGenerator::generate(&spec);
    for builder in [
        Engine::builder().workload(&spec, &shape),
        Engine::builder()
            .workload(&spec, &shape)
            .sharded(RuntimeConfig::with_shards(3)),
    ] {
        let baseline = push_through(builder.clone(), &trace);
        let engine = builder.build().unwrap();
        let mut session = engine.session().unwrap();
        let mut streamed = Vec::new();
        for (i, event) in trace.iter().enumerate() {
            let _ = session.push_event(event.clone()).unwrap();
            if i % 50 == 0 {
                streamed.extend(session.poll_results());
            }
        }
        let outcome = session.finish().unwrap();
        streamed.extend(outcome.results.iter().cloned());
        assert_eq!(streamed.len() as u64, outcome.results_count);
        assert!(output::same_results(&baseline.results, &streamed));
        assert!(output::is_temporally_ordered(&streamed));
    }
}
