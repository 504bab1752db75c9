//! Durability: crash recovery from checkpoints and bounded disorder
//! tolerance.
//!
//! The headline contract is exactly-once recovery: push a prefix of a trace,
//! checkpoint to a file, drop the session ("crash"), restore from the file,
//! replay the tail from the replay cursor (`Session::pushed`), and the
//! concatenation of everything polled plus the final flush equals an
//! uninterrupted run's results byte for byte — on both backends, in both
//! REF and JIT mode, under both disorder policies.

use jit_dsms::prelude::*;
use serde::Content;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;

fn spec() -> WorkloadSpec {
    parallel_workload(3, 16)
        .with_rate(1.0)
        .with_window_minutes(2.0)
        .with_duration(Duration::from_secs(100))
        .with_seed(905)
}

/// A unique checkpoint path per test (the workspace has no tempfile dep).
fn ckpt_path(tag: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("jit-dsms-test-{}-{tag}.ckpt", std::process::id()));
    path
}

/// Uninterrupted oracle: push everything, polling periodically.
fn run_straight(builder: &EngineBuilder, events: &[ArrivalEvent]) -> Vec<Tuple> {
    let engine = builder.clone().build().expect("engine builds");
    let mut session = engine.session().expect("session opens");
    let mut out = Vec::new();
    for (i, event) in events.iter().enumerate() {
        let _ = session.push_event(event.clone()).expect("push");
        if i % 40 == 0 {
            out.extend(session.poll_results());
        }
    }
    let outcome = session.finish().expect("finish");
    out.extend(outcome.results);
    out
}

/// Crash-recovery run: push a prefix, checkpoint, drop the session, restore
/// from the file and replay the tail from the replay cursor.
fn run_with_crash(
    builder: &EngineBuilder,
    events: &[ArrivalEvent],
    cut: usize,
    tag: &str,
) -> Vec<Tuple> {
    let path = ckpt_path(tag);
    let engine = builder.clone().build().expect("engine builds");
    let mut session = engine.session().expect("session opens");
    let mut out = Vec::new();
    for (i, event) in events.iter().take(cut).enumerate() {
        let _ = session.push_event(event.clone()).expect("push");
        if i % 40 == 0 {
            out.extend(session.poll_results());
        }
    }
    session.checkpoint_to(&path).expect("checkpoint writes");
    drop(session); // crash: all in-memory state is gone

    let engine = builder.clone().build().expect("engine rebuilds");
    let mut session = engine.restore_file(&path).expect("restore");
    // The replay cursor counts every consumed arrival, dropped or not.
    assert_eq!(session.pushed() as usize, cut, "replay cursor survived");
    for event in events.iter().skip(cut) {
        let _ = session.push_event(event.clone()).expect("replayed push");
    }
    let outcome = session.finish().expect("finish");
    out.extend(outcome.results);
    std::fs::remove_file(&path).ok();
    out
}

#[test]
fn crash_recovery_is_exactly_once_on_every_backend_and_mode() {
    let spec = spec();
    let shape = PlanShape::bushy(3);
    let trace = WorkloadGenerator::generate(&spec);
    let events: Vec<ArrivalEvent> = trace.iter().cloned().collect();
    let cut = events.len() / 2;
    assert!(cut > 10, "workload too small to mean anything");

    for (mode_tag, mode) in [
        ("ref", ExecutionMode::Ref),
        ("jit", ExecutionMode::Jit(JitPolicy::full())),
    ] {
        for (backend_tag, builder) in [
            (
                "single",
                Engine::builder().workload(&spec, &shape).mode(mode),
            ),
            (
                "sharded",
                Engine::builder()
                    .workload(&spec, &shape)
                    .mode(mode)
                    .sharded(RuntimeConfig::with_shards(3)),
            ),
        ] {
            let straight = run_straight(&builder, &events);
            assert!(!straight.is_empty(), "{mode_tag}/{backend_tag}: no results");
            let recovered =
                run_with_crash(&builder, &events, cut, &format!("{mode_tag}-{backend_tag}"));
            assert_eq!(
                straight, recovered,
                "{mode_tag}/{backend_tag}: recovery diverged from the uninterrupted run"
            );
        }
    }
}

#[test]
fn crash_recovery_under_bounded_disorder_keeps_the_reorder_stage() {
    let spec = spec();
    let shape = PlanShape::bushy(3);
    let trace = WorkloadGenerator::generate(&spec);
    let lateness = Duration::from_secs(5);
    // Disorder the trace with delays under the bound: nothing is dropped,
    // but at any cut some arrivals sit buffered in the reorder stage.
    let events = DisorderSpec::new(0.1, lateness, 31).apply(&trace);
    let builder = Engine::builder()
        .workload(&spec, &shape)
        .disorder(DisorderPolicy::Bounded(lateness));
    let straight = run_straight(&builder, &events);
    assert!(!straight.is_empty());
    // Cut at an odd index to make a non-empty buffer at the cut likely.
    let recovered = run_with_crash(&builder, &events, events.len() / 2 + 3, "disorder");
    assert_eq!(straight, recovered);

    let sharded = builder.sharded(RuntimeConfig::with_shards(2));
    let straight = run_straight(&sharded, &events);
    let recovered = run_with_crash(&sharded, &events, events.len() / 2 + 3, "disorder-sharded");
    assert_eq!(straight, recovered);
}

/// The sharded backend queues watermark advances in the shard chunks. With
/// 1024-step chunks none ever fills on this trace, so at a cut between two
/// polls every shard holds a partial chunk of interleaved arrivals and
/// watermarks: the checkpoint barrier must ship it ahead of the marker.
#[test]
fn crash_recovery_with_watermark_steps_pending_in_a_wide_chunk() {
    let spec = spec();
    let shape = PlanShape::bushy(3);
    let trace = WorkloadGenerator::generate(&spec);
    let lateness = Duration::from_secs(5);
    let events = DisorderSpec::new(0.1, lateness, 31).apply(&trace);
    let cut = events.len() / 2 + 3;
    assert_ne!((cut - 1) % 40, 0, "the cut must not follow a poll");
    for mode in [ExecutionMode::Ref, ExecutionMode::Jit(JitPolicy::full())] {
        let builder = Engine::builder()
            .workload(&spec, &shape)
            .mode(mode)
            .disorder(DisorderPolicy::Bounded(lateness))
            .batch_policy(BatchPolicy::rows(1024))
            .sharded(RuntimeConfig::with_shards(2));
        let straight = run_straight(&builder, &events);
        assert!(!straight.is_empty());
        let tag = format!("wide-chunk-{}", mode.label());
        assert_eq!(straight, run_with_crash(&builder, &events, cut, &tag));
    }
}

#[test]
fn bounded_policy_tolerates_disorder_within_the_bound_exactly() {
    // In-order strict run vs disordered bounded run with lateness ≥ the
    // injected delay bound: the same result multiset, nothing dropped.
    let spec = spec();
    let shape = PlanShape::bushy(3);
    let trace = WorkloadGenerator::generate(&spec);
    let max_delay = Duration::from_secs(4);
    let disordered = DisorderSpec::new(0.08, max_delay, 17).apply(&trace);
    assert!(
        disordered.windows(2).any(|w| w[0].ts > w[1].ts),
        "the disordered trace must actually be out of order"
    );

    let in_order: Vec<ArrivalEvent> = trace.iter().cloned().collect();
    let strict = run_straight(&Engine::builder().workload(&spec, &shape), &in_order);

    let bounded = Engine::builder()
        .workload(&spec, &shape)
        .disorder(DisorderPolicy::Bounded(max_delay));
    let engine = bounded.build().unwrap();
    let mut session = engine.session().unwrap();
    for event in &disordered {
        let outcome = session.push_event(event.clone()).unwrap();
        assert!(outcome.is_accepted(), "no drop within the bound");
    }
    let outcome = session.finish().unwrap();
    assert_eq!(outcome.snapshot.late_dropped, 0);
    assert!(outcome.snapshot.late_arrivals > 0);
    assert!(outcome.snapshot.reorder_buffer_peak > 0);
    assert!(
        output::same_results(&strict, &outcome.results),
        "bounded reordering changed the result set: missing {}, extra {}",
        output::missing_from(&strict, &outcome.results).len(),
        output::missing_from(&outcome.results, &strict).len()
    );
    assert!(output::is_temporally_ordered(&outcome.results));
}

#[test]
fn arrivals_beyond_the_bound_are_typed_drops_not_errors() {
    let spec = spec();
    let shape = PlanShape::bushy(3);
    let trace = WorkloadGenerator::generate(&spec);
    // Delays up to 30 s against lateness bounds from 1 s up: the tail of the
    // delay distribution beyond the bound must be dropped, visibly and
    // without erroring, and a wider bound never drops more.
    let disordered = DisorderSpec::new(0.15, Duration::from_secs(30), 23).apply(&trace);
    let mut previous = u64::MAX;
    for bound_ms in [1_000, 2_500, 5_000, 10_000, 30_000] {
        let engine = Engine::builder()
            .workload(&spec, &shape)
            .disorder(DisorderPolicy::Bounded(Duration::from_millis(bound_ms)))
            .build()
            .unwrap();
        let mut session = engine.session().unwrap();
        let mut drops = 0u64;
        for event in &disordered {
            if session.push_event(event.clone()).unwrap() == PushOutcome::LateDrop {
                drops += 1;
            }
        }
        if bound_ms == 1_000 {
            assert!(drops > 0, "the workload must exercise the drop path");
        }
        let outcome = session.finish().unwrap();
        assert_eq!(outcome.snapshot.late_dropped, drops);
        assert!(outcome.snapshot.late_arrivals >= drops);
        assert!(output::is_temporally_ordered(&outcome.results));
        assert!(
            drops <= previous,
            "bound {bound_ms} ms dropped {drops}, a tighter one {previous}"
        );
        previous = drops;
    }
    assert_eq!(previous, 0, "a bound covering every delay drops nothing");
}

#[test]
fn corrupted_and_mismatched_checkpoint_files_are_typed_errors() {
    let spec = spec();
    let shape = PlanShape::bushy(3);
    let builder = Engine::builder().workload(&spec, &shape);
    let engine = builder.clone().build().unwrap();

    // Not a checkpoint at all.
    let path = ckpt_path("garbage");
    std::fs::write(&path, "not a checkpoint").unwrap();
    assert!(matches!(
        engine.restore_file(&path),
        Err(EngineError::Checkpoint(CheckpointError::Corrupt(_)))
    ));

    // Right magic, unsupported version.
    std::fs::write(&path, "JITDSMS-CHECKPOINT v99\n{}").unwrap();
    match engine.restore_file(&path) {
        Err(EngineError::Checkpoint(CheckpointError::VersionMismatch { found, supported })) => {
            assert_eq!((found, supported), (99, 1));
        }
        other => panic!("expected VersionMismatch, got {other:?}"),
    }

    // Valid header, truncated body.
    std::fs::write(&path, "JITDSMS-CHECKPOINT v1\n{\"pushed\": 3,").unwrap();
    assert!(matches!(
        engine.restore_file(&path),
        Err(EngineError::Checkpoint(CheckpointError::Corrupt(_)))
    ));

    // A checkpoint from a strict engine cannot restore into a bounded one.
    let trace = WorkloadGenerator::generate(&spec);
    let mut session = engine.session().unwrap();
    for event in trace.iter().take(20) {
        let _ = session.push_event(event.clone()).unwrap();
    }
    session.checkpoint_to(&path).unwrap();
    let bounded = builder
        .disorder(DisorderPolicy::Bounded(Duration::from_secs(1)))
        .build()
        .unwrap();
    assert!(matches!(
        bounded.restore_file(&path),
        Err(EngineError::Checkpoint(CheckpointError::Mismatch(_)))
    ));
    std::fs::remove_file(&path).ok();
}

/// A checkpoint taken without a crash reports its cost and changes nothing:
/// the session goes on to the uninterrupted run's results.
#[test]
fn checkpoint_cost_is_visible_in_metrics() {
    let spec = spec();
    let events: Vec<ArrivalEvent> = WorkloadGenerator::generate(&spec).iter().cloned().collect();
    let single = Engine::builder().workload(&spec, &PlanShape::bushy(3));
    for builder in [
        single.clone(),
        single.sharded(RuntimeConfig::with_shards(2)),
    ] {
        let mut session = builder.clone().build().unwrap().session().unwrap();
        let mut results = Vec::new();
        for (i, event) in events.iter().enumerate() {
            let _ = session.push_event(event.clone()).unwrap();
            if i == 49 {
                let path = ckpt_path("metrics");
                let stats = session.checkpoint_to(&path).unwrap();
                std::fs::remove_file(&path).ok();
                assert!(stats.bytes > 0);
                let snapshot = session.metrics_snapshot();
                assert_eq!(snapshot.checkpoint_bytes, stats.bytes);
                assert!(snapshot.checkpoint_millis >= stats.millis);
            }
            if i % 40 == 0 {
                results.extend(session.poll_results());
            }
        }
        results.extend(session.finish().unwrap().results);
        assert_eq!(results, run_straight(&builder, &events));
    }
}

/// The workload the committed v1 fixtures were cut from.
fn fixture_spec() -> WorkloadSpec {
    WorkloadSpec::bushy_default()
        .with_sources(4)
        .with_rate(1.0)
        .with_dmax(5)
        .with_window_minutes(0.3)
        .with_duration(Duration::from_secs(60))
        .with_seed(907)
}

/// Buffered MNSs per operator and port of a single-threaded JIT session,
/// read off its checkpoint body.
fn buffered_mnss(session: &mut Session) -> Vec<[usize; 2]> {
    fn field(content: &Content, name: &str) -> Content {
        let map = content.as_map().expect("a checkpoint object");
        serde::field(map, name, "checkpoint").expect(name)
    }
    let body = session.checkpoint().expect("checkpoint");
    let operators = field(&field(&body, "backend"), "operators");
    let operators = operators.as_seq().expect("operator list");
    operators
        .iter()
        .map(|op| {
            let buffers = field(&field(op, "state"), "mns_buffers");
            let sides = buffers.as_seq_n(2, "mns_buffers").expect("one per port");
            [0, 1].map(|port| {
                field(&sides[port], "entries")
                    .as_seq()
                    .expect("entries")
                    .len()
            })
        })
        .collect()
}

/// `tests/fixtures/checkpoint_v1_{ref,jit}.ckpt` were written by the build
/// at commit cd7d7d4 (PR 15): `Session::checkpoint_to` on the
/// single-threaded backend after the first three fifths of
/// `fixture_spec()`'s trace on `PlanShape::bushy(4)`, nothing polled. They
/// are never regenerated: a build that cannot restore them has changed the
/// v1 format and must bump the version instead.
///
/// That build detected every MNS on every port: the JIT fixture's top join
/// buffers 45 + 66 of them, 43 + 63 spanning both inputs of `A⋈B` / `C⋈D`.
/// A port no longer looks for those, and restoring drops them (the
/// source-fed ports of operators 0 and 1 happen to hold none at this cut,
/// and must not gain any).
#[test]
fn v1_checkpoints_written_by_an_earlier_build_restore() {
    let spec = fixture_spec();
    let shape = PlanShape::bushy(4);
    let trace = WorkloadGenerator::generate(&spec);
    let events: Vec<ArrivalEvent> = trace.iter().cloned().collect();
    for (mode_tag, mode) in [
        ("ref", ExecutionMode::Ref),
        ("jit", ExecutionMode::Jit(JitPolicy::full())),
    ] {
        let builder = Engine::builder().workload(&spec, &shape).mode(mode);
        let straight = run_straight(&builder, &events);
        assert!(!straight.is_empty(), "{mode_tag}: no results");

        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join(format!("tests/fixtures/checkpoint_v1_{mode_tag}.ckpt"));
        let engine = builder.build().expect("engine builds");
        let mut session = engine.restore_file(&path).expect("v1 fixture restores");
        let cut = session.pushed() as usize;
        assert_eq!(cut, events.len() * 3 / 5, "{mode_tag}: replay cursor");
        let one_window_on = events[cut].ts + spec.window().length;
        let jit = mode_tag == "jit";
        if jit {
            assert_eq!(buffered_mnss(&mut session), [[0, 0], [0, 0], [2, 3]]);
        }
        let mut buffers_checked = !jit;
        for event in events.iter().skip(cut) {
            if !buffers_checked && event.ts > one_window_on {
                let buffered = buffered_mnss(&mut session);
                assert_eq!(buffered.len(), 3);
                assert_eq!(
                    buffered[..2],
                    [[0, 0]; 2],
                    "source-fed ports buffer nothing"
                );
                buffers_checked = true;
            }
            let _ = session.push_event(event.clone()).expect("replayed push");
        }
        assert!(buffers_checked, "the tail is shorter than a window");
        let outcome = session.finish().expect("finish");
        assert_eq!(
            straight, outcome.results,
            "{mode_tag}: fixture + tail diverged from the uninterrupted run"
        );
    }
}

/// The lateness bound and disordered arrivals of the Bounded v1 fixture.
fn bounded_fixture() -> (EngineBuilder, Duration, Vec<ArrivalEvent>) {
    let spec = fixture_spec();
    let trace = WorkloadGenerator::generate(&spec);
    let lateness = Duration::from_secs(5);
    let events = DisorderSpec::new(0.2, lateness, 911).apply(&trace);
    let builder = Engine::builder()
        .workload(&spec, &PlanShape::bushy(4))
        .mode(ExecutionMode::Ref)
        .disorder(DisorderPolicy::Bounded(lateness));
    (builder, lateness, events)
}

fn bounded_fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/checkpoint_v1_bounded.ckpt")
}

/// The named field of a checkpoint object, for editing.
fn field_mut<'a>(content: &'a mut Content, name: &str) -> &'a mut Content {
    let Content::Map(fields) = content else {
        panic!("`{name}`: not a checkpoint object");
    };
    let (_, value) = fields.iter_mut().find(|(key, _)| key == name).expect(name);
    value
}

/// `tests/fixtures/checkpoint_v1_bounded.ckpt` was written by the build at
/// commit 2c9ea09, whose reorder stage was a B-tree: `Session::checkpoint_to`
/// on the single-threaded REF backend under `Bounded(5 s)`, after the first
/// three fifths of `fixture_spec()`'s trace disordered by
/// `DisorderSpec::new(0.2, 5 s, 911)` on `PlanShape::bushy(4)`, nothing
/// polled. Twenty arrivals sit in its reorder stage. It is never
/// regenerated: a build that cannot restore it has changed the v1 format
/// and must bump the version instead.
#[test]
fn v1_checkpoint_with_a_live_reorder_stage_restores() {
    let (builder, _, events) = bounded_fixture();
    let straight = run_straight(&builder, &events);
    assert!(!straight.is_empty());

    let engine = builder.build().expect("engine builds");
    let mut session = engine
        .restore_file(bounded_fixture_path())
        .expect("v1 Bounded fixture restores");
    let cut = session.pushed() as usize;
    assert_eq!(cut, events.len() * 3 / 5, "replay cursor");
    let mut body = session.checkpoint().expect("checkpoint");
    let buffered = field_mut(field_mut(&mut body, "disorder"), "items");
    assert_eq!(buffered.as_seq().expect("items").len(), 20);
    for event in events.iter().skip(cut) {
        let outcome = session.push_event(event.clone()).expect("replayed push");
        assert!(outcome.is_accepted(), "the bound covers every delay");
    }
    let outcome = session.finish().expect("finish");
    assert_eq!(
        straight, outcome.results,
        "fixture + tail diverged from the uninterrupted run"
    );
    assert_eq!(outcome.snapshot.late_dropped, 0);
}

fn bounded_fixture_body() -> Content {
    jit_dsms::durable::read_checkpoint(bounded_fixture_path()).expect("fixture reads")
}

/// A session restored under another lateness bound would keep the
/// checkpoint's bound while its engine reports its own.
#[test]
fn restoring_a_reorder_stage_under_another_bound_is_a_mismatch() {
    let (builder, lateness, _) = bounded_fixture();
    let body = bounded_fixture_body();
    let tighter = builder
        .clone()
        .disorder(DisorderPolicy::Bounded(Duration::from_secs(2)))
        .build()
        .unwrap();
    assert!(matches!(
        tighter.restore(&body),
        Err(EngineError::Checkpoint(CheckpointError::Mismatch(_)))
    ));
    let engine = builder.build().unwrap();
    assert_eq!(engine.disorder(), DisorderPolicy::Bounded(lateness));
    assert!(engine.restore(&body).is_ok());
}

/// A buffered arrival under the frontier would be released behind a
/// watermark the backend has already passed.
#[test]
fn a_buffered_arrival_under_the_frontier_is_a_typed_error() {
    let (builder, _, _) = bounded_fixture();
    let mut body = bounded_fixture_body();
    let disorder = field_mut(&mut body, "disorder");
    let Content::U64(frontier) = *field_mut(field_mut(disorder, "control"), "frontier") else {
        panic!("frontier is not an integer");
    };
    let Content::Seq(items) = field_mut(disorder, "items") else {
        panic!("items are not a list");
    };
    let Content::Seq(first) = &mut items[0] else {
        panic!("an item is a (timestamp, arrival) pair");
    };
    first[0] = Content::U64(frontier - 1);
    assert!(matches!(
        builder.build().unwrap().restore(&body),
        Err(EngineError::Checkpoint(CheckpointError::Serde(_)))
    ));
}

/// Copies of the three v1 fixtures, each truncated at every offset of its
/// header line and at 64 evenly spaced body offsets, or with the byte at
/// one of those offsets changed in its lowest bit (which keeps the file
/// UTF-8, so the damage reaches past the JSON parser into the restore), give
/// a session or a typed [`EngineError::Checkpoint`], never a panic. A
/// session that restores is driven on: the fixture's tail is pushed and the
/// session finished, and neither may panic either (a push or the finish may
/// still fail typed, e.g. on a flipped replay cursor).
#[test]
fn corrupt_v1_fixtures_restore_or_fail_typed() {
    let trace = WorkloadGenerator::generate(&fixture_spec());
    let unordered = |mode| {
        let builder = Engine::builder().workload(&fixture_spec(), &PlanShape::bushy(4));
        (builder.mode(mode), trace.iter().cloned().collect())
    };
    let (bounded, _, disordered) = bounded_fixture();
    let fixtures = [
        ("ref", unordered(ExecutionMode::Ref)),
        ("jit", unordered(ExecutionMode::Jit(JitPolicy::full()))),
        ("bounded", (bounded, disordered)),
    ];
    let path = ckpt_path("corrupt-v1");
    let (mut restored, mut failures) = (0, Vec::new());
    for (tag, (builder, events)) in fixtures {
        let engine = builder.build().expect("engine builds");
        let root = env!("CARGO_MANIFEST_DIR");
        let bytes = std::fs::read(format!("{root}/tests/fixtures/checkpoint_v1_{tag}.ckpt"));
        let bytes = bytes.expect("fixture reads");
        let header = 1 + bytes
            .iter()
            .position(|&b| b == b'\n')
            .expect("a header line");
        let body = bytes.len() - header;
        for at in (0..header).chain((0..64).map(|i| header + i * body / 64)) {
            let mut flipped = bytes.clone();
            flipped[at] ^= 1;
            for (damage, file) in [("truncated", &bytes[..at]), ("flipped", &flipped[..])] {
                std::fs::write(&path, file).expect("corrupt copy writes");
                let run = || {
                    let mut session = engine.restore_file(&path)?;
                    for event in events.iter().skip(session.pushed() as usize) {
                        let _ = session.push_event(event.clone());
                    }
                    let _ = session.finish();
                    Ok(())
                };
                match panic::catch_unwind(AssertUnwindSafe(run)) {
                    Ok(Ok(())) => restored += 1,
                    Ok(Err(EngineError::Checkpoint(_))) => {}
                    Ok(Err(other)) => failures.push(format!("{tag} {damage} at {at}: {other}")),
                    Err(_) => failures.push(format!("{tag} {damage} at {at}: panicked")),
                }
            }
        }
    }
    std::fs::remove_file(&path).ok();
    assert!(failures.is_empty(), "{failures:#?}");
    // Some flipped bits land where any value restores (a digit of a count).
    assert!(restored > 0);
}

/// FNV-1a over `bytes`: a hash no toolchain or platform changes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The write path, pinned beside the fixtures' read path: the file a
/// single-threaded session writes at the v1 fixtures' cut — the first three
/// fifths of `fixture_spec()`'s trace on `PlanShape::bushy(4)`, nothing
/// polled — under REF, under JIT, and under REF behind the Bounded(5 s)
/// reorder stage of `bounded_fixture()`. The hashes were computed by the
/// build at commit 41ef34a, whose operator states, MNS buffers and
/// blacklists each wrote their own `{name, entries}` envelope; a build that
/// moves one byte of what these sessions hold changes them. The JIT file
/// holds buffered MNSs and blacklisted tuples, so all three containers'
/// envelopes are in it.
#[test]
fn checkpoint_files_at_the_fixture_cut_are_byte_stable() {
    let spec = fixture_spec();
    let unordered = |mode| {
        let builder = Engine::builder().workload(&spec, &PlanShape::bushy(4));
        let events: Vec<ArrivalEvent> =
            WorkloadGenerator::generate(&spec).iter().cloned().collect();
        (builder.mode(mode), events)
    };
    let (bounded, _, disordered) = bounded_fixture();
    let cases = [
        ("ref", unordered(ExecutionMode::Ref), 0xc33c_5804_a9bf_8dee),
        (
            "jit",
            unordered(ExecutionMode::Jit(JitPolicy::full())),
            0xd3f3_2868_bc8a_1cbd,
        ),
        ("bounded", (bounded, disordered), 0xde1b_22f0_6ab3_2dcb),
    ];
    let path = ckpt_path("write-path");
    for (tag, (builder, events), expected) in cases {
        let engine = builder.build().expect("engine builds");
        let mut session = engine.session().expect("session opens");
        for event in &events[..events.len() * 3 / 5] {
            let _ = session.push_event(event.clone()).expect("push");
        }
        session.checkpoint_to(&path).expect("checkpoint writes");
        let bytes = std::fs::read(&path).expect("checkpoint reads");
        let text = String::from_utf8_lossy(&bytes);
        if tag == "jit" {
            for container in [
                "\"mns_buffers\"",
                "\"blacklists\"",
                "\"detected_at\"",
                "\"suspended_at\"",
            ] {
                assert!(
                    text.contains(container),
                    "{tag}: no {container} in the file"
                );
            }
        }
        assert_eq!(fnv1a(&bytes), expected, "{tag}: the checkpoint file moved");
    }
    std::fs::remove_file(&path).ok();
}
