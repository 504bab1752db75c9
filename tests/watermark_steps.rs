//! Are two consecutive watermark advances one advance?
//!
//! The sharded backend carries watermarks in-band, as steps of a shard's
//! chunk. Overwriting a queued watermark step with a later one would be
//! legal only if `advance_watermark(a); advance_watermark(b)` and
//! `advance_watermark(b)` (`a < b`, no ingest between) were indistinguishable
//! on everything a run reports. They are under REF, whose operators do no
//! work at a watermark, and are not under JIT, where each advance that
//! expires MNSs sends its own resume feedback and resumes production at its
//! own instant — so `ShardedSession::advance_watermark` delivers every mark.

use jit_dsms::prelude::*;
use jit_plan::builder::{build_tree_plan_with, PlanOptions};

/// Everything a run reports that does not depend on the wall clock.
#[derive(Debug, PartialEq)]
struct Observed {
    /// Result identities, in emission order.
    results: Vec<String>,
    stats: jit_metrics::ExecStats,
    cost_units: u64,
    peak_memory_bytes: usize,
    /// The executor's checkpoint at the end of the drive, before `finish`.
    checkpoint: String,
}

/// The golden-counters clique workload: 4 sources, one-minute windows, 200 s
/// of stream — long enough for states, blacklists and MNS buffers to fill
/// and expire several times over.
fn workload() -> (WorkloadSpec, Trace) {
    let spec = WorkloadSpec::bushy_default()
        .with_sources(4)
        .with_rate(1.0)
        .with_dmax(12)
        .with_window_minutes(1.0)
        .with_duration(Duration::from_secs(200))
        .with_seed(41);
    let trace = WorkloadGenerator::generate(&spec);
    (spec, trace)
}

/// Drive one executor under the watermark clock: arrivals in groups of
/// `group`, the watermark advanced to the group's last timestamp after each
/// — directly, or with a stop at `split` of the way there first.
fn drive(
    spec: &WorkloadSpec,
    trace: &Trace,
    shape: &PlanShape,
    mode: ExecutionMode,
    index: StateIndexMode,
    group: usize,
    split: Option<f64>,
) -> Observed {
    let plan = build_tree_plan_with(
        shape,
        &spec.predicates(),
        spec.window(),
        mode,
        &PlanOptions::with_index_mode(index),
    )
    .expect("plan builds");
    let mut executor = Executor::new(plan, ExecutorConfig::default());
    executor.set_watermark_clock(true);
    let events: Vec<&ArrivalEvent> = trace.iter().collect();
    let mut frontier = Timestamp::ZERO;
    for chunk in events.chunks(group) {
        for event in chunk {
            executor.ingest(event.source, event.tuple.clone());
        }
        let target = chunk.last().expect("chunks are non-empty").ts;
        if let Some(split) = split {
            let span = target.as_millis().saturating_sub(frontier.as_millis());
            let stop = frontier.as_millis() + (span as f64 * split) as u64;
            executor.advance_watermark(Timestamp::from_millis(stop));
        }
        executor.advance_watermark(target);
        frontier = target;
    }
    let checkpoint = format!("{:?}", executor.checkpoint());
    let stats = executor.metrics().stats;
    let (results, snapshot) = executor.finish();
    Observed {
        results: results.iter().map(|t| format!("{:?}", t.key())).collect(),
        stats,
        cost_units: snapshot.cost_units,
        peak_memory_bytes: snapshot.peak_memory_bytes,
        checkpoint,
    }
}

fn shapes() -> [PlanShape; 2] {
    [PlanShape::bushy(4), PlanShape::left_deep(4)]
}

const INDEX_MODES: [StateIndexMode; 2] = [StateIndexMode::Hashed, StateIndexMode::Scan];
/// Arrivals between two watermark advances: small enough that most advances
/// expire nothing, large enough that tuples, blacklist entries and buffered
/// MNSs expire on both sides of the intermediate stop.
const GROUPS: [usize; 2] = [7, 90];

#[test]
fn ref_cannot_tell_two_advances_from_one() {
    let (spec, trace) = workload();
    for shape in shapes() {
        for index in INDEX_MODES {
            for group in GROUPS {
                let drive = |split| {
                    drive(
                        &spec,
                        &trace,
                        &shape,
                        ExecutionMode::Ref,
                        index,
                        group,
                        split,
                    )
                };
                let one = drive(None);
                assert!(one.stats.purged_tuples > 0, "expiry must be active");
                assert_eq!(one, drive(Some(0.5)), "{} {index:?} {group}", shape.label());
            }
        }
    }
}

/// The reason watermark steps are never merged. If this starts failing —
/// JIT has become indifferent to intermediate advances in every
/// configuration — consecutive watermark steps of a chunk may collapse.
#[test]
fn jit_can_tell_two_advances_from_one() {
    let (spec, trace) = workload();
    for policy in [JitPolicy::full(), JitPolicy::bloom()] {
        let mode = ExecutionMode::Jit(policy);
        let mut resume_messages_differ = false;
        for shape in shapes() {
            for index in INDEX_MODES {
                for group in GROUPS {
                    let drive = |split| drive(&spec, &trace, &shape, mode, index, group, split);
                    let (one, two) = (drive(None), drive(Some(0.5)));
                    assert!(one.stats.feedback_resume > 0, "MNSs must expire");
                    resume_messages_differ |=
                        one.stats.feedback_resume != two.stats.feedback_resume;
                }
            }
        }
        assert!(
            resume_messages_differ,
            "{policy:?}: an advance that expires MNSs sends its own resume message"
        );
    }
}
