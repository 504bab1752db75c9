//! Cross-crate correctness: JIT and DOE must produce exactly the same results
//! as REF, with no duplicates, across plan shapes, policies and randomised
//! workloads. (Temporal order is asserted for REF; JIT may re-emit a
//! previously suppressed result late, after a resumption — a documented
//! deviation that does not change the result set.)
//!
//! Two regimes are exercised:
//!
//! * **No-expiry workloads** (trace shorter than the window): every execution
//!   mode must produce *exactly* the same result multiset — there is no
//!   window corner case to hide behind.
//! * **Expiring workloads**: JIT's results must be a subset of REF's, free of
//!   duplicates, and any result REF has but JIT lacks must contain a pair of
//!   base tuples at least a full window apart (the X-Join artefact discussed
//!   in DESIGN.md: REF "freezes" expired components inside stored
//!   intermediate results, while JIT regenerates them only while all
//!   components are mutually alive).

use jit_dsms::prelude::*;
use proptest::prelude::*;

fn run_modes(
    spec: &WorkloadSpec,
    shape: &PlanShape,
    modes: &[ExecutionMode],
) -> Vec<EngineOutcome> {
    let trace = WorkloadGenerator::generate(spec);
    Engine::builder()
        .workload(spec, shape)
        .compare(&trace, modes)
        .expect("engine builds")
}

fn all_modes() -> Vec<ExecutionMode> {
    vec![
        ExecutionMode::Ref,
        ExecutionMode::Doe,
        ExecutionMode::Jit(JitPolicy::full()),
        ExecutionMode::Jit(JitPolicy::bloom()),
        ExecutionMode::Jit(JitPolicy::full().without_similar_capture()),
    ]
}

/// Every pair of base tuples in `t` is strictly within the window.
fn strictly_within_window(t: &Tuple, window: Window) -> bool {
    t.ts().saturating_sub(t.min_ts()) < window.length
}

#[test]
fn no_expiry_workload_all_modes_agree_exactly() {
    // 2 minutes of stream, 30-minute window: nothing ever expires.
    let spec = WorkloadSpec::bushy_default()
        .with_sources(4)
        .with_window_minutes(30.0)
        .with_rate(1.0)
        .with_dmax(12)
        .with_duration(Duration::from_secs(90))
        .with_seed(101);
    for shape in [PlanShape::bushy(4), PlanShape::left_deep(4)] {
        let outcomes = run_modes(&spec, &shape, &all_modes());
        let reference = &outcomes[0];
        assert!(reference.results_count > 0, "workload must produce results");
        for other in &outcomes[1..] {
            assert!(
                output::same_results(&reference.results, &other.results),
                "{} differs from REF on {}: missing {:?} / extra {:?}",
                other.mode_label,
                shape.label(),
                output::missing_from(&reference.results, &other.results).len(),
                output::missing_from(&other.results, &reference.results).len(),
            );
            assert!(!output::has_duplicates(&other.results));
            // Temporal order is only guaranteed for REF: JIT may re-emit a
            // suppressed result after results with larger timestamps once a
            // resumption arrives (see DESIGN.md, "known deviations"). The
            // result *set* is identical, which is what we assert above.
        }
    }
}

#[test]
fn expiring_workload_jit_is_duplicate_free_subset() {
    let spec = WorkloadSpec::bushy_default()
        .with_sources(3)
        .with_window_minutes(1.0)
        .with_rate(2.0)
        .with_dmax(8)
        .with_duration(Duration::from_secs(300))
        .with_seed(77);
    let window = spec.window();
    let shape = PlanShape::left_deep(3);
    let outcomes = run_modes(
        &spec,
        &shape,
        &[ExecutionMode::Ref, ExecutionMode::Jit(JitPolicy::full())],
    );
    let (ref_run, jit_run) = (&outcomes[0], &outcomes[1]);
    assert!(ref_run.results_count > 0);
    assert!(!output::has_duplicates(&jit_run.results));
    // JIT ⊆ REF.
    assert!(
        output::missing_from(&jit_run.results, &ref_run.results).is_empty(),
        "JIT produced results REF does not have"
    );
    // Anything REF-only must involve an expired component pair.
    let jit_keys: std::collections::BTreeSet<_> = jit_run.results.iter().map(|t| t.key()).collect();
    for result in &ref_run.results {
        if !jit_keys.contains(&result.key()) {
            assert!(
                !strictly_within_window(result, window),
                "REF-only result {} has all components strictly within the window",
                result.key()
            );
        }
    }
    // Conversely, every strictly-in-window REF result is found by JIT.
    for result in &ref_run.results {
        if strictly_within_window(result, window) {
            assert!(
                jit_keys.contains(&result.key()),
                "JIT missed in-window result {}",
                result.key()
            );
        }
    }
}

/// A known deviation, written as a test (README, "Known deviations":
/// end-of-stream flush). On `bench_e2e`'s `bushy_jit` shape two MNSs on
/// opposite inputs of the top join can hide each other's awaited partner, so
/// neither resumption fires. Each result below is in-window, REF emits it,
/// and it completes before any of its parts expires; JIT emits it only
/// through the end-of-stream flush on a 280 s prefix of the trace, and on
/// this 600 s prefix — its parts long expired — never. The MNS-expiry
/// resumption does not rescue it. When ROADMAP item 1 fixes the cause, the
/// difference empties and this test flips.
#[test]
fn cross_suppressed_results_are_lost_once_their_parts_expire() {
    let lost = [
        (886, "⟨A15 B262 C149 D173⟩@275.526s"),
        (903, "⟨A144 B11 C223 D256⟩@274.506s"),
    ];
    for (seed, result) in lost {
        let spec = WorkloadSpec::bushy_default()
            .with_sources(4)
            .with_dmax(25)
            .with_window_minutes(5.0)
            .with_duration(Duration::from_secs(7_500))
            .with_seed(seed);
        let trace = WorkloadGenerator::generate(&spec);
        let builder = Engine::builder().workload(&spec, &PlanShape::bushy(4));
        let jit = ExecutionMode::Jit(JitPolicy::full());

        // 280 s: only the end-of-stream flush emits it.
        let engine = builder.clone().mode(jit).build().expect("engine builds");
        let mut session = engine.session().expect("session opens");
        session
            .push_trace(&trace.truncate_at(Timestamp::from_secs(280)))
            .expect("in-order trace");
        let shows = |results: &[Tuple]| results.iter().any(|t| t.to_string() == result);
        assert!(
            !shows(&session.poll_results()),
            "seed {seed}: before the flush"
        );
        let flushed = session.finish().expect("session finishes").results;
        assert!(shows(&flushed), "seed {seed}: the flush emits it");

        // 600 s: never.
        let outcomes = builder
            .compare(
                &trace.truncate_at(Timestamp::from_secs(600)),
                &[ExecutionMode::Ref, jit],
            )
            .expect("engine builds");
        let (ref_run, jit_run) = (&outcomes[0], &outcomes[1]);
        let jit_keys: std::collections::BTreeSet<_> =
            jit_run.results.iter().map(|t| t.key()).collect();
        let missing: Vec<String> = ref_run
            .results
            .iter()
            .filter(|t| strictly_within_window(t, spec.window()) && !jit_keys.contains(&t.key()))
            .map(ToString::to_string)
            .collect();
        assert_eq!(missing, [result], "seed {seed}");
    }
}

/// A known defect, written as a test (ROADMAP item 20): while one source is
/// silent, JIT holds every arrival of the others. On `A⋈B⋈C` with C silent
/// the top join's C state is empty, so its consumer reports Ø to the `A⋈B`
/// producer, which from then on buffers each A and B arrival unprocessed
/// (`JitJoinOperator::pending`) until C's first push: neither the Ø MNS nor
/// the buffer ever expires. REF keeps one window of A and B. Once C wakes
/// the results agree. When item 20 bounds the buffer, JIT's state stays
/// within 2× REF's and the first assertion fails: flip it then.
#[test]
fn a_silent_source_makes_jit_hold_every_arrival_until_it_wakes() {
    let cql = "SELECT * FROM A [RANGE 1 seconds], B [RANGE 1 seconds], C [RANGE 1 seconds] \
               WHERE A.x = B.x AND B.x = C.x";
    let run = |mode: ExecutionMode| {
        let engine = Engine::builder().query_cql(cql).mode(mode).build();
        let mut session = engine
            .expect("query builds")
            .session()
            .expect("session opens");
        // One arrival every 15 ms (≈ 67/s), the sources in turns; the
        // arrivals of each 45 ms share a key, cycling over 50 values. First
        // 300 s of A and B while C is silent, then 30 s of all three.
        let arrivals = |sources: u64, from_ms: u64, to_ms: u64| {
            (from_ms..to_ms)
                .step_by(15)
                .map(move |ts_ms| (sources, ts_ms))
        };
        let mut after_silence = 0;
        let schedule = arrivals(2, 0, 300_000).chain(arrivals(3, 300_000, 330_000));
        for (seq, (sources, ts_ms)) in (0u64..).zip(schedule) {
            if sources == 3 && after_silence == 0 {
                after_silence = session.state_bytes();
            }
            let source = SourceId((seq % sources) as u16);
            let key = Value::int((ts_ms / 45 % 50) as i64);
            let at = Timestamp::from_millis(ts_ms);
            let tuple = std::sync::Arc::new(BaseTuple::new(source, seq, at, vec![key]));
            let _ = session.push(source, tuple).expect("in-order arrival");
        }
        let results = session.finish().expect("session finishes").results;
        (after_silence, results)
    };
    let (ref_bytes, ref_results) = run(ExecutionMode::Ref);
    let (jit_bytes, jit_results) = run(ExecutionMode::Jit(JitPolicy::full()));
    assert!(
        jit_bytes > 100 * ref_bytes,
        "JIT holds {jit_bytes} B after the silence, REF {ref_bytes} B"
    );
    assert!(!ref_results.is_empty());
    assert!(output::same_results(&ref_results, &jit_results));
}

#[test]
fn results_are_window_valid_and_ordered() {
    let spec = WorkloadSpec::leftdeep_default()
        .with_sources(4)
        .with_window_minutes(2.0)
        .with_rate(1.0)
        .with_dmax(12)
        .with_duration(Duration::from_secs(240))
        .with_seed(5);
    let shape = PlanShape::left_deep(4);
    let trace = WorkloadGenerator::generate(&spec);
    for mode in [ExecutionMode::Ref, ExecutionMode::Jit(JitPolicy::full())] {
        let outcome = Engine::builder()
            .workload(&spec, &shape)
            .mode(mode)
            .build()
            .unwrap()
            .run_trace(&trace)
            .unwrap();
        if matches!(mode, ExecutionMode::Ref) {
            // Prompt processing emits in timestamp order; JIT may re-emit a
            // suppressed result late (documented deviation).
            assert!(output::is_temporally_ordered(&outcome.results));
            assert_eq!(outcome.order_violations, 0);
        }
        // Every result's components pairwise within the *per-operator*
        // window; since the same window applies everywhere, max-min ≤ w.
        assert!(output::all_within_window(&outcome.results, spec.window()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 6,
        .. ProptestConfig::default()
    })]

    /// Randomised no-expiry workloads: exact equality between REF, DOE and
    /// JIT for random source counts, selectivities, rates and shapes.
    #[test]
    fn prop_no_expiry_equivalence(
        seed in 0u64..1_000,
        n in 3usize..=4,
        dmax in 3u64..30,
        rate in 1u64..=2,
        bushy in proptest::bool::ANY,
        duration_s in 45u64..100,
    ) {
        let spec = WorkloadSpec::bushy_default()
            .with_sources(n)
            .with_window_minutes(60.0) // longer than any generated trace
            .with_rate(rate as f64)
            .with_dmax(dmax)
            .with_duration(Duration::from_secs(duration_s))
            .with_seed(seed);
        let shape = if bushy { PlanShape::bushy(n) } else { PlanShape::left_deep(n) };
        let outcomes = run_modes(&spec, &shape, &[
            ExecutionMode::Ref,
            ExecutionMode::Doe,
            ExecutionMode::Jit(JitPolicy::full()),
        ]);
        let reference = &outcomes[0];
        for other in &outcomes[1..] {
            prop_assert!(output::same_results(&reference.results, &other.results),
                "{} diverged from REF (missing {}, extra {})",
                other.mode_label,
                output::missing_from(&reference.results, &other.results).len(),
                output::missing_from(&other.results, &reference.results).len());
            prop_assert!(!output::has_duplicates(&other.results));
        }
    }

    /// Randomised expiring workloads: JIT stays a duplicate-free subset of
    /// REF and finds every strictly-in-window result.
    #[test]
    fn prop_expiring_subset(
        seed in 0u64..1_000,
        dmax in 4u64..20,
        window_s in 30u64..80,
    ) {
        let spec = WorkloadSpec::bushy_default()
            .with_sources(3)
            .with_window_minutes(window_s as f64 / 60.0)
            .with_rate(1.5)
            .with_dmax(dmax)
            .with_duration(Duration::from_secs(180))
            .with_seed(seed);
        let window = spec.window();
        let shape = PlanShape::left_deep(3);
        let outcomes = run_modes(&spec, &shape, &[
            ExecutionMode::Ref,
            ExecutionMode::Jit(JitPolicy::full()),
        ]);
        let (ref_run, jit_run) = (&outcomes[0], &outcomes[1]);
        prop_assert!(!output::has_duplicates(&jit_run.results));
        prop_assert!(output::missing_from(&jit_run.results, &ref_run.results).is_empty());
        let jit_keys: std::collections::BTreeSet<_> =
            jit_run.results.iter().map(|t| t.key()).collect();
        for result in &ref_run.results {
            if strictly_within_window(result, window) {
                prop_assert!(jit_keys.contains(&result.key()),
                    "JIT missed in-window result {}", result.key());
            }
        }
    }
}
