//! Indexed vs scanned operator states must be observably identical except
//! for probe cost: same ordered result stream, same byte accounting, same
//! purge counts — across REF and JIT modes and across both backends — while
//! examining far fewer candidate pairs (the acceptance bar on the paper's
//! 3-source clique workload is a ≥ 10× `probe_pairs` reduction).

use jit_dsms::metrics::MetricsSnapshot;
use jit_dsms::prelude::*;
use proptest::prelude::*;

/// Run one (mode, index-mode, batch-size) combination over a shared trace.
fn run_config(
    spec: &WorkloadSpec,
    shape: &PlanShape,
    trace: &Trace,
    mode: ExecutionMode,
    index: StateIndexMode,
    shards: Option<usize>,
    batch: BatchPolicy,
) -> EngineOutcome {
    let mut builder = Engine::builder()
        .workload(spec, shape)
        .mode(mode)
        .state_index(index)
        .batch_policy(batch);
    if let Some(shards) = shards {
        builder = builder.sharded(RuntimeConfig::with_shards(shards));
    }
    builder
        .build()
        .expect("engine builds")
        .run_trace(trace)
        .expect("trace runs")
}

/// Run one (mode, index-mode) combination over a shared trace.
fn run_with_index(
    spec: &WorkloadSpec,
    shape: &PlanShape,
    trace: &Trace,
    mode: ExecutionMode,
    index: StateIndexMode,
    shards: Option<usize>,
) -> EngineOutcome {
    run_config(
        spec,
        shape,
        trace,
        mode,
        index,
        shards,
        BatchPolicy::default(),
    )
}

/// Everything that must not change when the index layer switches on.
fn assert_observably_equal(scan: &EngineOutcome, hashed: &EngineOutcome, label: &str) {
    assert_eq!(
        scan.results, hashed.results,
        "{label}: result streams must be identical (content and order)"
    );
    assert_eq!(scan.results_count, hashed.results_count, "{label}: counts");
    assert_eq!(
        scan.snapshot.stats.purged_tuples, hashed.snapshot.stats.purged_tuples,
        "{label}: purge counts"
    );
    assert_eq!(
        scan.snapshot.stats.state_insertions, hashed.snapshot.stats.state_insertions,
        "{label}: state insertions"
    );
    assert_eq!(
        scan.snapshot.stats.results_emitted, hashed.snapshot.stats.results_emitted,
        "{label}: results emitted"
    );
    // Byte accounting: index bookkeeping is never charged, so the
    // analytical memory trajectory is identical.
    assert_eq!(
        scan.snapshot.peak_memory_bytes, hashed.snapshot.peak_memory_bytes,
        "{label}: peak memory"
    );
    assert_eq!(
        scan.snapshot.final_memory_bytes, hashed.snapshot.final_memory_bytes,
        "{label}: final memory"
    );
    assert!(
        hashed.snapshot.stats.probe_pairs <= scan.snapshot.stats.probe_pairs,
        "{label}: indexed probing must not examine more pairs ({} > {})",
        hashed.snapshot.stats.probe_pairs,
        scan.snapshot.stats.probe_pairs
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Random equi-join workloads through indexed vs scan states, REF and
    /// JIT, including the expiring regime (window shorter than the trace)
    /// so ordered expiry is exercised against the retain-scan semantics.
    /// Up to five sources: a JIT port with three or four candidate sources
    /// composes its probe from as many per-source indexes, and settles
    /// multi-source lattice nodes from them.
    #[test]
    fn random_workloads_indexed_equals_scan(
        sources in 2usize..=5,
        dmax in 3u64..=15,
        window_s in 40u64..=160,
        duration_s in 60u64..=140,
        seed in 0u64..10_000,
        left_deep in proptest::bool::ANY,
    ) {
        // A dense clique's intermediate results grow with the fan-in: four
        // and five sources run a third and a quarter as long.
        let duration_s = match sources {
            4 => duration_s / 3,
            5 => duration_s / 4,
            _ => duration_s,
        };
        let spec = WorkloadSpec::bushy_default()
            .with_sources(sources)
            .with_window_minutes(window_s as f64 / 60.0)
            .with_rate(1.5)
            .with_dmax(dmax)
            .with_duration(Duration::from_secs(duration_s))
            .with_seed(seed);
        let shape = if left_deep || sources < 3 {
            PlanShape::left_deep(sources)
        } else {
            PlanShape::bushy(sources)
        };
        let trace = WorkloadGenerator::generate(&spec);
        for mode in [ExecutionMode::Ref, ExecutionMode::Jit(JitPolicy::full())] {
            let scan =
                run_with_index(&spec, &shape, &trace, mode, StateIndexMode::Scan, None);
            let hashed =
                run_with_index(&spec, &shape, &trace, mode, StateIndexMode::Hashed, None);
            assert_observably_equal(&scan, &hashed, mode.label());
        }
    }
}

/// The paper's 3-source clique figure workload, shortened: indexed states
/// must cut `probe_pairs` by at least 10× with byte-identical result sets,
/// in REF and JIT modes, on the single-threaded and the sharded backend.
#[test]
fn clique3_indexed_probes_are_10x_cheaper_on_both_backends() {
    // The figure workload's dmax = 200 produces almost no 3-way matches in
    // a trace short enough for a test; dmax = 40 keeps the same clique
    // structure with enough matches to compare result streams.
    let spec = WorkloadSpec::bushy_default()
        .with_sources(3)
        .with_dmax(40)
        .with_duration(Duration::from_mins(3))
        .with_seed(20080415);
    let shape = PlanShape::bushy(3);
    let trace = WorkloadGenerator::generate(&spec);
    // The 3-source clique is not key-partitionable, so the sharded backend
    // runs single-sharded (the general multi-shard case is covered by
    // `sharded_keyed_workload_indexed_equals_scan` below).
    for shards in [None, Some(1)] {
        for mode in [ExecutionMode::Ref, ExecutionMode::Jit(JitPolicy::full())] {
            let scan = run_with_index(&spec, &shape, &trace, mode, StateIndexMode::Scan, shards);
            let hashed =
                run_with_index(&spec, &shape, &trace, mode, StateIndexMode::Hashed, shards);
            assert_observably_equal(&scan, &hashed, mode.label());
            assert!(scan.results_count > 0, "workload must produce results");
            let (scanned, indexed) = (
                scan.snapshot.stats.probe_pairs,
                hashed.snapshot.stats.probe_pairs,
            );
            assert!(
                indexed * 10 <= scanned,
                "{} (shards {shards:?}): expected >= 10x probe reduction, got {scanned} -> {indexed}",
                mode.label(),
            );
        }
    }
}

/// Multi-shard coverage: a key-partitionable workload behaves identically
/// under indexed and scanned states on 4 shards.
#[test]
fn sharded_keyed_workload_indexed_equals_scan() {
    let spec = WorkloadSpec::bushy_default()
        .with_sources(3)
        .with_shared_key()
        .with_dmax(40)
        .with_duration(Duration::from_mins(2))
        .with_seed(7);
    let shape = PlanShape::left_deep(3);
    let trace = WorkloadGenerator::generate(&spec);
    for mode in [ExecutionMode::Ref, ExecutionMode::Jit(JitPolicy::full())] {
        let scan = run_with_index(&spec, &shape, &trace, mode, StateIndexMode::Scan, Some(4));
        let hashed = run_with_index(&spec, &shape, &trace, mode, StateIndexMode::Hashed, Some(4));
        assert_observably_equal(&scan, &hashed, mode.label());
    }
}

/// A batch policy only widens the sharded runtime's channel chunks, so a
/// run at any batch size must equal the `rows(1)` run on the ordered result
/// stream and on the whole [`MetricsSnapshot`] — every `ExecStats` counter,
/// total and steady cost units, peak/steady/final memory — wall-clock
/// seconds aside.
fn assert_batch_size_invisible(rows1: &EngineOutcome, batched: &EngineOutcome, label: &str) {
    assert_eq!(
        rows1.results, batched.results,
        "{label}: result streams must be identical (content and order)"
    );
    assert_eq!(
        rows1.results_count, batched.results_count,
        "{label}: counts"
    );
    assert_eq!(batched.order_violations, 0, "{label}: temporal order");
    let timeless = |outcome: &EngineOutcome| MetricsSnapshot {
        wall_seconds: 0.0,
        ..outcome.snapshot.clone()
    };
    assert_eq!(timeless(rows1), timeless(batched), "{label}: metrics");
}

/// The batch sizes the equivalence axis sweeps against `rows(1)`.
fn batch_sizes() -> [BatchPolicy; 2] {
    [BatchPolicy::rows(64), BatchPolicy::rows(1024)]
}

/// The batch-size axis on the key-partitionable 3-source workload, REF and
/// JIT, on one backend. With a `lateness` the session runs under
/// `DisorderPolicy::Bounded` over a disordered replay of the same trace
/// (5% of the arrivals up to `lateness` late, windows short enough to
/// expire mid-stream): the watermark then advances after nearly every push
/// and travels in the same chunks as the arrivals.
fn sweep_batch_sizes(shards: Option<usize>, lateness: Option<Duration>) {
    let mut spec = WorkloadSpec::bushy_default()
        .with_sources(3)
        .with_shared_key()
        .with_dmax(40)
        .with_duration(Duration::from_mins(2))
        .with_seed(7);
    if lateness.is_some() {
        spec = spec.with_window_minutes(0.5);
    }
    let shape = PlanShape::left_deep(3);
    let trace = WorkloadGenerator::generate(&spec);
    let disordered = lateness.map(|l| (l, DisorderSpec::new(0.05, l, 13).apply(&trace)));
    for mode in [ExecutionMode::Ref, ExecutionMode::Jit(JitPolicy::full())] {
        let run = |policy| match &disordered {
            Some((lateness, events)) => {
                let mut builder = Engine::builder()
                    .workload(&spec, &shape)
                    .mode(mode)
                    .batch_policy(policy)
                    .disorder(DisorderPolicy::Bounded(*lateness));
                if let Some(shards) = shards {
                    builder = builder.sharded(RuntimeConfig::with_shards(shards));
                }
                let mut session = builder
                    .build()
                    .expect("engine builds")
                    .session()
                    .expect("session opens");
                session
                    .push_batch(events.iter().cloned())
                    .expect("a bounded session accepts every push");
                session.finish().expect("session finishes")
            }
            None => run_config(
                &spec,
                &shape,
                &trace,
                mode,
                StateIndexMode::Hashed,
                shards,
                policy,
            ),
        };
        let rows1 = run(BatchPolicy::rows(1));
        assert!(rows1.results_count > 0, "workload must produce results");
        if lateness.is_some() {
            assert_eq!(rows1.snapshot.late_dropped, 0, "the bound covers the delay");
            assert!(rows1.snapshot.late_arrivals > 0, "disorder must be present");
            assert!(
                rows1.snapshot.stats.purged_tuples > 0,
                "expiry must be active"
            );
        }
        for policy in batch_sizes() {
            let label = format!(
                "{} shards={shards:?} lateness={lateness:?} {policy:?}",
                mode.label()
            );
            assert_batch_size_invisible(&rows1, &run(policy), &label);
        }
    }
}

#[test]
fn batch_size_is_invisible_single_threaded() {
    sweep_batch_sizes(None, None);
}

#[test]
fn batch_size_is_invisible_on_4_shards() {
    sweep_batch_sizes(Some(4), None);
}

#[test]
fn batch_size_is_invisible_under_bounded_disorder_on_4_shards() {
    sweep_batch_sizes(Some(4), Some(Duration::from_secs(3)));
}

/// Push a fixed arrival script through a CQL query. Sequence numbers are
/// assigned per source in push order.
fn run_cql_pushes(
    cql: &str,
    mode: ExecutionMode,
    pushes: &[(u16, u64, Vec<Value>)],
) -> EngineOutcome {
    let engine = Engine::builder()
        .query_cql(cql)
        .mode(mode)
        .build()
        .expect("CQL engine builds");
    let mut session = engine.session().expect("session opens");
    let mut seqs = std::collections::HashMap::new();
    for (source, ts_ms, values) in pushes {
        let seq = seqs.entry(*source).or_insert(0u64);
        let tuple = std::sync::Arc::new(BaseTuple::new(
            SourceId(*source),
            *seq,
            Timestamp::from_millis(*ts_ms),
            values.clone(),
        ));
        *seq += 1;
        let _ = session
            .push(SourceId(*source), tuple)
            .expect("push accepted");
    }
    session.finish().expect("run finishes")
}

/// String join keys, and a key column mixing `Int` and `Str` rows: a string
/// joins a string only, and REF and JIT agree on the result stream.
#[test]
fn utf8_and_mixed_type_keys_join() {
    let cql = "SELECT * FROM A [RANGE 5 minutes], B [RANGE 5 minutes] WHERE A.x = B.x";
    let mut pushes: Vec<(u16, u64, Vec<Value>)> = Vec::new();
    for i in 0..30u64 {
        pushes.push((0, i * 500, vec![Value::str(format!("k{}", i % 5))]));
        let b_key = if i % 3 == 0 {
            Value::int((i % 5) as i64)
        } else {
            Value::str(format!("k{}", i % 5))
        };
        pushes.push((1, i * 500 + 10, vec![b_key]));
    }
    let reference = run_cql_pushes(cql, ExecutionMode::Ref, &pushes);
    // Every A row meets the 20 Str-keyed B rows at 4 per key value.
    assert_eq!(reference.results_count, 30 * 4);
    let jit = run_cql_pushes(cql, ExecutionMode::Jit(JitPolicy::full()), &pushes);
    assert_eq!(jit.results_count, reference.results_count);
}

/// CQL constant filters pass exactly the rows the predicate admits —
/// including the extreme where the selection rejects every arrival.
#[test]
fn cql_constant_filters_apply() {
    let pushes: Vec<(u16, u64, Vec<Value>)> = (1..=10i64)
        .flat_map(|v| {
            [
                (0u16, v as u64 * 1_000, vec![Value::int(v)]),
                (1u16, v as u64 * 1_000 + 10, vec![Value::int(v)]),
            ]
        })
        .collect();
    let filtered = "SELECT * FROM A [RANGE 5 minutes], B [RANGE 5 minutes] \
                    WHERE A.x = B.x AND A.x > 5";
    let nothing_passes = "SELECT * FROM A [RANGE 5 minutes], B [RANGE 5 minutes] \
                          WHERE A.x = B.x AND A.x > 1000";
    for mode in [ExecutionMode::Ref, ExecutionMode::Jit(JitPolicy::full())] {
        let outcome = run_cql_pushes(filtered, mode, &pushes);
        assert_eq!(outcome.results_count, 5, "{}: v in 6..=10", mode.label());
        let outcome = run_cql_pushes(nothing_passes, mode, &pushes);
        assert_eq!(outcome.results_count, 0);
        assert_eq!(outcome.snapshot.stats.tuples_arrived, 20);
    }
}

/// Degenerate inputs: an empty stream and a single arrival finish cleanly.
#[test]
fn empty_and_single_arrival_streams_finish() {
    let cql = "SELECT * FROM A [RANGE 5 minutes], B [RANGE 5 minutes] WHERE A.x = B.x";
    for mode in [ExecutionMode::Ref, ExecutionMode::Jit(JitPolicy::full())] {
        let empty = run_cql_pushes(cql, mode, &[]);
        assert_eq!(empty.results_count, 0);
        assert_eq!(empty.snapshot.stats.tuples_arrived, 0);

        let single = run_cql_pushes(cql, mode, &[(0u16, 1_000u64, vec![Value::int(7)])]);
        assert_eq!(single.results_count, 0);
        assert_eq!(single.snapshot.stats.tuples_arrived, 1);
        assert_eq!(single.snapshot.stats.state_insertions, 1);
    }
}

/// JIT feedback behaviour (suppression, blacklisting, resumption) must be
/// bit-for-bit identical between the two probe paths — the index only
/// changes how candidates are found, never which MNSs are detected. Left-deep
/// N = 5 gives the top join four candidate sources: a 4-way intersection for
/// its probe and ten multi-source lattice nodes settled from it.
#[test]
fn jit_feedback_counters_match_between_index_modes() {
    let bushy3 = WorkloadSpec::bushy_default()
        .with_sources(3)
        .with_dmax(25)
        .with_window_minutes(1.0)
        .with_duration(Duration::from_mins(3))
        .with_seed(99);
    let left_deep5 = WorkloadSpec::bushy_default()
        .with_sources(5)
        .with_dmax(6)
        .with_window_minutes(1.0)
        .with_duration(Duration::from_secs(90))
        .with_seed(99);
    let cases = [
        (bushy3, PlanShape::bushy(3)),
        (left_deep5, PlanShape::left_deep(5)),
    ];
    for (spec, shape) in cases {
        let trace = WorkloadGenerator::generate(&spec);
        let mode = ExecutionMode::Jit(JitPolicy::full());
        let scan = run_with_index(&spec, &shape, &trace, mode, StateIndexMode::Scan, None);
        let hashed = run_with_index(&spec, &shape, &trace, mode, StateIndexMode::Hashed, None);
        let label = format!("JIT {shape:?}");
        assert_observably_equal(&scan, &hashed, &label);
        let (s, h) = (&scan.snapshot.stats, &hashed.snapshot.stats);
        assert!(
            s.mns_detected > 0 && s.resumed_tuples > 0,
            "{label}: workload must trigger MNS detection and resumption"
        );
        assert_eq!(s.mns_detected, h.mns_detected, "{label}: MNS detection");
        assert_eq!(
            s.feedback_suspend, h.feedback_suspend,
            "{label}: suspensions"
        );
        assert_eq!(s.feedback_resume, h.feedback_resume, "{label}: resumptions");
        assert_eq!(
            s.blacklisted_tuples, h.blacklisted_tuples,
            "{label}: blacklist moves"
        );
        assert_eq!(s.resumed_tuples, h.resumed_tuples, "{label}: restores");
        assert_eq!(
            s.intermediate_suppressed, h.intermediate_suppressed,
            "{label}: suppression"
        );
    }
}

/// The `bench_e2e` shared-key shape (3 sources on one key, 5000 key values,
/// half-minute windows, 150 arrivals/s) under full JIT, long enough that
/// every producer holds thousands of blacklist entries and suspended tuples
/// — the size at which a per-feedback scan of the blacklist or of the
/// drained state would dominate, and which the small fixed-seed cases above
/// never reach.
fn sharedkey_jit_builder(shards: Option<usize>) -> (EngineBuilder, Trace) {
    let spec = WorkloadSpec::bushy_default()
        .with_sources(3)
        .with_shared_key()
        .with_window_minutes(0.5)
        .with_dmax(5000)
        .with_rate(50.0)
        .with_duration(Duration::from_secs(140))
        .with_seed(7);
    let trace = WorkloadGenerator::generate(&spec);
    assert!(trace.len() >= 20_000, "only {} arrivals", trace.len());
    let mut builder = Engine::builder()
        .workload(&spec, &PlanShape::left_deep(3))
        .mode(ExecutionMode::Jit(JitPolicy::full()));
    if let Some(shards) = shards {
        builder = builder.sharded(RuntimeConfig::with_shards(shards));
    }
    (builder, trace)
}

/// Hashed and Scan agree on the ordered results and on the whole
/// [`MetricsSnapshot`] except what counts candidates examined: the index
/// narrows which stored tuples and buffered MNSs a probe looks at, so
/// `probe_pairs`, `predicate_evals`, `mns_buffer_probes`,
/// `lattice_nodes_visited` (one observation per examined tuple under Scan,
/// one per settled node under Hashed) and the cost units charged per
/// candidate differ by design — and nothing else does. In
/// particular suspension, diversion, purge and resumption move the same
/// tuples in the same order.
fn assert_sharedkey_jit_modes_agree(shards: Option<usize>) {
    let (builder, trace) = sharedkey_jit_builder(shards);
    let run = |index| {
        let engine = builder.clone().state_index(index).build();
        engine
            .expect("engine builds")
            .run_trace(&trace)
            .expect("trace runs")
    };
    let (scan, hashed) = (run(StateIndexMode::Scan), run(StateIndexMode::Hashed));
    assert_eq!(scan.results, hashed.results, "ordered result streams");
    assert_eq!(hashed.order_violations, 0);
    let beside_candidate_counts = |outcome: &EngineOutcome| {
        let mut snapshot = outcome.snapshot.clone();
        snapshot.wall_seconds = 0.0;
        snapshot.cost_units = 0;
        snapshot.steady_cost_units = 0;
        snapshot.stats.probe_pairs = 0;
        snapshot.stats.predicate_evals = 0;
        snapshot.stats.mns_buffer_probes = 0;
        snapshot.stats.lattice_nodes_visited = 0;
        snapshot
    };
    assert_eq!(
        beside_candidate_counts(&scan),
        beside_candidate_counts(&hashed),
        "shards={shards:?}"
    );
    let stats = &hashed.snapshot.stats;
    assert!(
        stats.blacklisted_tuples > 2_000 && stats.resumed_tuples > 100,
        "the producer path must be exercised at size: {stats:?}"
    );
    assert!(hashed.snapshot.stats.probe_pairs < scan.snapshot.stats.probe_pairs);
}

#[test]
fn sharedkey_jit_at_bench_size_modes_agree_single_threaded() {
    assert_sharedkey_jit_modes_agree(None);
}

#[test]
fn sharedkey_jit_at_bench_size_modes_agree_on_4_shards() {
    assert_sharedkey_jit_modes_agree(Some(4));
}

/// A checkpoint taken mid-stream at that size — blacklists, presence
/// bookkeeping and MNS buffers all populated — restores and replays to the
/// uninterrupted result stream, single-threaded and on 4 shards.
#[test]
fn sharedkey_jit_at_bench_size_survives_a_mid_stream_checkpoint() {
    for shards in [None, Some(4)] {
        let (builder, trace) = sharedkey_jit_builder(shards);
        let events: Vec<ArrivalEvent> = trace.iter().cloned().collect();
        let engine = builder.clone().build().expect("engine builds");
        let straight = engine.run_trace(&trace).expect("trace runs").results;

        let mut path = std::env::temp_dir();
        path.push(format!(
            "jit-dsms-sharedkey-{}-{shards:?}.ckpt",
            std::process::id()
        ));
        let cut = events.len() / 2;
        let mut session = engine.session().expect("session opens");
        for event in &events[..cut] {
            let _ = session.push_event(event.clone()).expect("push");
        }
        let mut recovered = session.poll_results();
        session.checkpoint_to(&path).expect("checkpoint writes");
        drop(session);
        let engine = builder.build().expect("engine rebuilds");
        let mut session = engine.restore_file(&path).expect("restore");
        for event in &events[cut..] {
            let _ = session.push_event(event.clone()).expect("replayed push");
        }
        recovered.extend(session.finish().expect("finish").results);
        std::fs::remove_file(&path).ok();
        assert_eq!(straight, recovered, "shards={shards:?}");
    }
}
