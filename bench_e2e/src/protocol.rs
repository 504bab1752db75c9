//! The run protocol: the same phases, in the same order, for every workload.
//!
//! 1. **Generate** the inputs from the seed (`stream.generate_s`).
//! 2. **Set up** at least [`SETUP_REPS`] times; `setup_s` is the median.
//! 3. **Reference run**: REF, single-threaded, one row per flush, strict
//!    order, in-order trace — the result multiset everything is checked
//!    against.
//! 4. **Warm-up**: one full untimed replay, checked against the reference;
//!    it is the uninterrupted run the later phases are compared with. A
//!    sharded configuration also runs once on the single-threaded backend.
//! 5. Then, by `--trace`:
//!    * `0` — closed-loop **max-rate replays** (at least [`MIN_REPLAYS`],
//!      until `--seconds` is spent), one **checkpoint cycle** (checked, not
//!      timed), and the **heap replay** with the counting allocator armed.
//!      These give the end-to-end metrics; spans are off throughout and the
//!      allocator counts only in the heap replay, which is not timed.
//!    * `1` — one more untraced replay, the **traced replay** (spans on,
//!      allocator armed), the open-loop **paced replay** (emission latency,
//!      generator lateness), the checkpoint cycle repeated and split into its
//!      four steps, and the **layer drives** of [`crate::layers`]. These give
//!      the per-layer metrics.
//!
//! `throughput_tps` and the checkpoint timings report the fastest repetition
//! ([`stats::best`]): on a shared box interference only adds time.

use crate::alloc;
use crate::layers;
use crate::metrics::Values;
use crate::stats::{self, Diff, Multiset, Pacer};
use crate::target::{dedicated_results, Finished, Live, Pushed, Tagged, Target};
use crate::trace::{Recorder, CHUNK};
use crate::workloads::{Kind, Prepared, Workload};
use jit_durable::{read_checkpoint, write_checkpoint};
use jit_stream::ArrivalEvent;
use jit_types::{Duration, PredicateSet, Tuple};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Fewest setups timed per run; `setup_s` is the median of all of them.
pub const SETUP_REPS: usize = 20;
/// Setups go on past [`SETUP_REPS`] until this much time is spent: an engine
/// builds in microseconds, and a median of twenty such timings jumps about.
const SETUP_SECONDS: f64 = 0.25;
/// Fewest max-rate replays behind `throughput_tps`.
pub const MIN_REPLAYS: usize = 3;
/// Checkpoint/restore pairs timed at the 50% cut of `--trace 1`: at least
/// the first number, then more, up to the second, while their share of
/// `--seconds` lasts. `--trace 0` makes one pair, for the check alone.
pub const CHECKPOINT_REPS: (usize, usize) = (4, 30);
/// Arrivals between two result drains of a max-rate replay.
pub const POLL_EVERY: usize = 4096;
/// Most pushes between two polls of the paced replay.
pub const PACED_POLL_EVERY: usize = 256;
/// Shares of `--seconds` in `--trace 1`: the optional checkpoint repetitions
/// and the paced replay. (`--trace 0` spends all of it on max-rate replays.)
const CHECKPOINT_SHARE: f64 = 0.3;
const PACED_SHARE: f64 = 0.25;

/// Which metric family a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `--trace 0`: the end-to-end metrics.
    EndToEnd,
    /// `--trace 1`: the per-layer metrics.
    Layers,
}

/// Parameters of one run.
pub struct RunConfig {
    /// Workload seed.
    pub seed: u64,
    /// Measuring time.
    pub seconds: f64,
    /// Metric family.
    pub mode: Mode,
    /// Where checkpoint files and span traces go.
    pub scratch: PathBuf,
}

/// Everything one run of one workload produced.
pub struct Outcome {
    /// Metric values by name.
    pub values: Values,
    /// Arrivals pushed plus reference results expected.
    pub attempted: u64,
    /// Pushes refused or dropped, results missing, spurious or duplicated
    /// beyond what the configuration's contract allows, sharded-against-single
    /// differences, checkpoint-replay mismatches.
    pub failed: u64,
    /// No internal contradiction was found.
    pub correct: bool,
    /// Human-readable detail: sample counts, failure split, contradictions.
    pub notes: Vec<String>,
}

/// Span names of the traced replay, by kind of system under test.
#[derive(Clone, Copy)]
pub struct SpanNames {
    pub push_chunk: &'static str,
    pub push: &'static str,
    pub poll: &'static str,
    pub finish: &'static str,
}

const ENGINE_SPANS: SpanNames = SpanNames {
    push_chunk: "engine.push_chunk",
    push: "engine.push",
    poll: "engine.poll",
    finish: "engine.finish",
};

const SERVE_SPANS: SpanNames = SpanNames {
    push_chunk: "serve.push_chunk",
    push: "serve.push",
    poll: "serve.poll",
    finish: "serve.finish",
};

/// 64-bit identity of a delivered result: the query it went to and the
/// (source, sequence) pairs of its parts, which arrive sorted by source.
pub fn result_hash((tag, tuple): &Tagged) -> u64 {
    use stats::mix64 as mix;
    tuple
        .parts()
        .iter()
        .fold(mix(u64::from(*tag) + 1), |h, part| {
            mix(h ^ mix((u64::from(part.source.0) << 48) ^ part.seq))
        })
}

fn hashed(results: &[Tagged]) -> Multiset {
    stats::multiset(results.iter().map(result_hash))
}

/// Maps a result back to the arrival that completed it.
pub struct ArrivalIndex {
    /// Per source: arrival position by sequence number.
    position: Vec<Vec<u32>>,
    /// Per arrival: the stream instant (ms) it is scheduled at — its
    /// timestamp, or for a late arrival the newest timestamp pushed before
    /// it, which is when the disordered stream delivers it.
    pub sched_ms: Vec<u64>,
}

impl ArrivalIndex {
    /// Index `arrivals` (sequence numbers are dense per source).
    pub fn new(arrivals: &[ArrivalEvent]) -> Self {
        let mut position: Vec<Vec<u32>> = Vec::new();
        let mut sched_ms = Vec::with_capacity(arrivals.len());
        let mut newest = 0u64;
        for (i, event) in arrivals.iter().enumerate() {
            let source = event.source.0 as usize;
            if position.len() <= source {
                position.resize(source + 1, Vec::new());
            }
            let seq = event.tuple.seq as usize;
            if position[source].len() <= seq {
                position[source].resize(seq + 1, u32::MAX);
            }
            position[source][seq] = i as u32;
            newest = newest.max(event.ts.as_millis());
            sched_ms.push(newest);
        }
        ArrivalIndex { position, sched_ms }
    }

    /// Position of the latest arrival contributing to `result`.
    pub fn latest_contributor(&self, result: &Tuple) -> usize {
        result
            .parts()
            .iter()
            .map(|p| self.position[p.source.0 as usize][p.seq as usize])
            .max()
            .expect("a result has at least one part") as usize
    }
}

/// One closed-loop replay.
pub struct Replay {
    /// Wall of push-all plus finish, seconds.
    pub wall_s: f64,
    /// Every checked result delivered, in delivery order (empty when the
    /// replay was told not to keep them).
    pub results: Vec<Tagged>,
    /// Results delivered in all, checked or not.
    pub delivered: usize,
    /// The part of `delivered` that polls, not the finish, returned.
    pub polled: usize,
    /// Pushes refused with an error.
    pub refused: u64,
    /// Pushes dropped as too late.
    pub dropped: u64,
    /// Final engine figures.
    pub finished: Finished,
}

/// Push `arrivals` as fast as the system takes them, draining results every
/// [`POLL_EVERY`] arrivals, then finish. With `keep` unset the drained
/// results are dropped at once, so they never count as heap.
pub fn replay(
    target: &dyn Target,
    arrivals: &[ArrivalEvent],
    names: SpanNames,
    rec: &mut Recorder,
    keep: bool,
) -> Replay {
    let mut live = target.open();
    let mut results = Vec::new();
    let (mut delivered, mut refused, mut dropped) = (0usize, 0u64, 0u64);
    let start = Instant::now();
    rec.begin("bench.replay");
    let mut pushed = 0usize;
    for chunk in arrivals.chunks(CHUNK) {
        rec.begin(names.push_chunk);
        for event in chunk {
            match rec.call(names.push, || live.push(event)) {
                Pushed::Accepted => {}
                Pushed::Dropped => dropped += 1,
                Pushed::Refused => refused += 1,
            }
        }
        rec.end();
        pushed += chunk.len();
        if pushed.is_multiple_of(POLL_EVERY) {
            delivered += rec.span(names.poll, || live.poll(&mut results));
            if !keep {
                results.clear();
            }
        }
    }
    let (n, finished) = rec.span(names.finish, || live.finish(&mut results));
    rec.end();
    let wall_s = start.elapsed().as_secs_f64();
    let polled = delivered;
    delivered += n;
    if !keep {
        results.clear();
    }
    Replay {
        wall_s,
        results,
        delivered,
        polled,
        refused,
        dropped,
        finished,
    }
}

/// Open-loop replay figures.
pub struct Paced {
    /// Emission latencies of the polled results, microseconds, ascending.
    pub latency_us: Vec<f64>,
    /// How late the generator ran.
    pub lateness: stats::Lateness,
    /// Pushes refused or dropped.
    pub refused: u64,
}

/// Play a prefix of `arrivals` on the pacer's schedule whether or not the
/// system keeps up. Polls whenever the generator is idle and at least every
/// [`PACED_POLL_EVERY`] pushes; each result is stamped when the poll that
/// returned it returns, and its latency runs from the *due* time of the
/// latest arrival contributing to it.
pub fn paced_replay(
    target: &dyn Target,
    arrivals: &[ArrivalEvent],
    index: &ArrivalIndex,
    rate_tps: f64,
    yield_when_idle: bool,
) -> Paced {
    let n = arrivals.len();
    let pacer = Pacer::new(index.sched_ms[0], index.sched_ms[n - 1], n, rate_tps);
    let mut live = target.open();
    let mut results: Vec<Tagged> = Vec::new();
    // (wall ns at which the poll returned, results delivered by then)
    let mut stamps: Vec<(u64, usize)> = Vec::new();
    let mut lags_ns = Vec::with_capacity(n);
    let mut refused = 0u64;
    let mut since_poll = 0usize;
    let start = Instant::now();
    let now_ns = |start: &Instant| start.elapsed().as_nanos() as u64;
    let mut poll = |live: &mut Box<dyn Live>, results: &mut Vec<Tagged>| {
        let before = results.len();
        live.poll(results);
        if results.len() > before {
            stamps.push((now_ns(&start), results.len()));
        }
    };
    for (event, &sched_ms) in arrivals.iter().zip(&index.sched_ms) {
        let due = pacer.due_ns(sched_ms);
        loop {
            let now = now_ns(&start);
            if now >= due {
                lags_ns.push(now - due);
                break;
            }
            // Idle until the next arrival is due: drain results and, where
            // the system has threads of its own, let them have the core.
            poll(&mut live, &mut results);
            since_poll = 0;
            if yield_when_idle {
                std::thread::yield_now();
            }
        }
        if live.push(event) != Pushed::Accepted {
            refused += 1;
        }
        since_poll += 1;
        if since_poll >= PACED_POLL_EVERY {
            poll(&mut live, &mut results);
            since_poll = 0;
        }
    }
    poll(&mut live, &mut results);
    let polled = results.len();
    // Results only the end-of-stream flush releases are not emissions of the
    // running system; they are drained to stop the workers, not timed.
    live.finish(&mut results);

    let mut latency_us = Vec::with_capacity(polled);
    let mut next = 0usize;
    for (stamp_ns, upto) in stamps {
        for (_, tuple) in &results[next..upto] {
            let due = pacer.due_ns(index.sched_ms[index.latest_contributor(tuple)]);
            latency_us.push(stamp_ns.saturating_sub(due) as f64 / 1e3);
        }
        next = upto;
    }
    latency_us.sort_by(f64::total_cmp);
    Paced {
        latency_us,
        lateness: stats::lateness(&mut lags_ns),
        refused,
    }
}

/// The checkpoint cycle at the 50% cut.
pub struct Cycle {
    /// Per repetition: serialise the state, milliseconds.
    pub encode_ms: Vec<f64>,
    /// Per repetition: write the file (atomic, synced), milliseconds.
    pub write_ms: Vec<f64>,
    /// Per repetition: read and validate the file, milliseconds.
    pub read_ms: Vec<f64>,
    /// Per repetition: rebuild the system, rehydrate it and get the first
    /// push of the tail accepted, milliseconds.
    pub apply_ms: Vec<f64>,
    /// Checkpoint file size.
    pub bytes: u64,
    /// Results of the interrupted run: polled before the cut plus everything
    /// the restored system delivered.
    pub results: Vec<Tagged>,
    /// Pushes refused or dropped on either side of the cut.
    pub refused: u64,
}

/// Push half of the arrivals, drain, then `reps.0` to `reps.1` times (the
/// optional ones while `budget_s` lasts) checkpoint to `path` and restore
/// from it; the last restored system replays the tail from its replay cursor
/// and finishes.
pub fn checkpoint_cycle(
    target: &dyn Target,
    arrivals: &[ArrivalEvent],
    path: &Path,
    reps: (usize, usize),
    budget_s: f64,
) -> Cycle {
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let cut = arrivals.len() / 2;
    let mut refused = 0u64;
    let mut results = Vec::new();
    let mut live = target.open();
    for (i, event) in arrivals[..cut].iter().enumerate() {
        if live.push(event) != Pushed::Accepted {
            refused += 1;
        }
        if (i + 1) % POLL_EVERY == 0 {
            live.poll(&mut results);
        }
    }
    // The contract: poll before a checkpoint, or the restore re-delivers.
    live.poll(&mut results);

    let mut cycle = Cycle {
        encode_ms: Vec::new(),
        write_ms: Vec::new(),
        read_ms: Vec::new(),
        apply_ms: Vec::new(),
        bytes: 0,
        results: Vec::new(),
        refused: 0,
    };
    let mut restored: Option<Box<dyn Live>> = None;
    let started = Instant::now();
    for rep in 0..reps.1 {
        if rep >= reps.0 && started.elapsed().as_secs_f64() > budget_s {
            break;
        }
        let t = Instant::now();
        let body = live.checkpoint();
        cycle.encode_ms.push(ms(t));
        let t = Instant::now();
        cycle.bytes = write_checkpoint(path, &body)
            .expect("bench checkpoint writes")
            .bytes;
        cycle.write_ms.push(ms(t));
        drop(body);

        let t = Instant::now();
        let body = read_checkpoint(path).expect("bench checkpoint reads");
        cycle.read_ms.push(ms(t));
        let t = Instant::now();
        let mut back = target.restore(&body);
        let cursor = back.pushed() as usize;
        let first = back.push(&arrivals[cursor]);
        cycle.apply_ms.push(ms(t));
        assert_eq!(cursor, cut, "the replay cursor is the cut");
        if first != Pushed::Accepted {
            refused += 1;
        }
        if let Some(previous) = restored.replace(back) {
            previous.finish(&mut Vec::new()); // stops its workers
        }
    }
    live.finish(&mut Vec::new());
    let mut back = restored.expect("at least one checkpoint repetition");
    for (i, event) in arrivals[cut + 1..].iter().enumerate() {
        if back.push(event) != Pushed::Accepted {
            refused += 1;
        }
        if (i + 1) % POLL_EVERY == 0 {
            back.poll(&mut results);
        }
    }
    back.finish(&mut results);
    std::fs::remove_file(path).ok();
    cycle.results = results;
    cycle.refused = refused;
    cycle
}

/// The reference computation: its result multiset and how long it took.
struct Reference {
    expected: Multiset,
    /// The part of `expected` whose base tuples all lie strictly within one
    /// window of each other: the results every execution mode owes.
    in_window: Multiset,
    total: u64,
    wall_s: f64,
    /// Cost units the reference engine charged (0 for dedicated engines).
    cost_units: u64,
}

fn reference_run(prepared: &Prepared) -> Reference {
    let start = Instant::now();
    let (results, cost_units, window) = match &prepared.kind {
        Kind::Engine(setup) => {
            let trace = if setup.in_order.is_empty() {
                &prepared.arrivals
            } else {
                &setup.in_order
            };
            let target = crate::target::EngineTarget {
                builder: setup.reference_builder(),
            };
            let run = replay(
                &target,
                trace,
                ENGINE_SPANS,
                &mut Recorder::new("", false),
                true,
            );
            assert_eq!(
                run.refused + run.dropped,
                0,
                "the reference takes every arrival"
            );
            (
                run.results,
                run.finished.snapshot.cost_units,
                Some(setup.spec.window().length),
            )
        }
        Kind::Serve(setup) => {
            let mut results = Vec::new();
            for &s in &setup.sentinels {
                let own = dedicated_results(&setup.queries[s], &setup.catalog, &prepared.arrivals);
                results.extend(own.into_iter().map(|t| (s as u32, t)));
            }
            // Each sentinel has a window of its own; the serving tier runs
            // strict REF and owes the whole reference whatever the span.
            (results, 0, None)
        }
    };
    let wall_s = start.elapsed().as_secs_f64();
    let in_window = match window {
        Some(w) => stats::multiset(
            results
                .iter()
                .filter(|(_, t)| within_window(t, w))
                .map(result_hash),
        ),
        None => Multiset::new(),
    };
    Reference {
        total: results.len() as u64,
        expected: hashed(&results),
        in_window,
        wall_s,
        cost_units,
    }
}

/// Failure accounting and contradiction checks shared by both modes.
struct Verdict {
    notes: Vec<String>,
    failed: u64,
    correct: bool,
}

impl Verdict {
    fn contradiction(&mut self, what: String) {
        self.notes.push(format!("CONTRADICTION: {what}"));
        self.correct = false;
    }
}

/// Run one workload once and measure the family of metrics `config` asks for.
pub fn run_workload(workload: &'static Workload, config: &RunConfig) -> Outcome {
    let mut values = Values::default();
    let mut verdict = Verdict {
        notes: Vec::new(),
        failed: 0,
        correct: true,
    };
    let off = &mut Recorder::new(workload.name, false);

    // 1. Inputs from the seed.
    let t = Instant::now();
    let prepared = (workload.prepare)(config.seed);
    let generate_s = t.elapsed().as_secs_f64();
    let target = prepared.target.as_ref();
    let arrivals = &prepared.arrivals[..];
    let names = match prepared.kind {
        Kind::Engine(_) => ENGINE_SPANS,
        Kind::Serve(_) => SERVE_SPANS,
    };
    let contract = match &prepared.kind {
        Kind::Engine(s) if s.lateness.is_some() => Contract::ReferencePlusMargin {
            window: s.spec.window().length,
            predicates: s.spec.predicates(),
        },
        Kind::Engine(s) if s.mode.policy().is_some() => Contract::InWindowOfReference,
        _ => Contract::EqualsReference,
    };

    // 2. Set-up.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let started = Instant::now();
    while setups.len() < SETUP_REPS || started.elapsed().as_secs_f64() < SETUP_SECONDS {
        let t = Instant::now();
        let live = target.open();
        setups.push(t.elapsed().as_secs_f64());
        live.finish(&mut Vec::new());
    }
    let setup_s = stats::median(&setups);

    // 3. Reference run.
    let reference = reference_run(&prepared);

    // 4. Warm-up: one full untimed replay, which is also the uninterrupted
    // run everything else is compared with. (A 10% prefix leaves the
    // allocator and the page cache cold: the next two full replays ran up to
    // 35% slower than the ones after them.)
    let first = replay(target, arrivals, names, off, true);
    let uninterrupted = hashed(&first.results);
    let judged = judge(
        &contract,
        &reference.expected,
        &reference.in_window,
        &first.results,
    );
    account(&mut verdict, &first, judged);
    if matches!(contract, Contract::InWindowOfReference) {
        verdict.notes.push(format!(
            "of the reference's {} results {} have all parts strictly within the window and \
             are owed",
            reference.total,
            reference
                .in_window
                .values()
                .map(|&n| u64::from(n))
                .sum::<u64>()
        ));
    }
    // A sharded run must also equal the single-threaded run of the same
    // configuration: the reference decides what is right, the twin that
    // sharding changed nothing.
    let twin = match &prepared.kind {
        Kind::Engine(setup) if setup.runtime.is_some() => {
            let single = crate::target::EngineTarget {
                builder: setup.single_threaded_builder(),
            };
            let run = replay(&single, arrivals, names, off, true);
            let apart = stats::diff(&hashed(&run.results), &uninterrupted);
            if apart.failed() > 0 {
                verdict.failed += apart.failed();
                verdict.contradiction(format!(
                    "sharded and single-threaded runs of one configuration differ ({apart:?})"
                ));
            }
            Some(run)
        }
        _ => None,
    };

    let ckpt_path = config.scratch.join(format!("{}.ckpt", workload.name));
    std::fs::create_dir_all(&config.scratch).expect("scratch directory is writable");

    match config.mode {
        Mode::EndToEnd => {
            let mut walls = Vec::new();
            while walls.len() < MIN_REPLAYS || walls.iter().sum::<f64>() < config.seconds {
                // Results are dropped as they are drained, so the timed loop
                // carries none of the checker's bookkeeping.
                let again = replay(target, arrivals, names, off, false);
                if again.delivered != first.delivered {
                    verdict.contradiction(format!(
                        "max-rate replay {} delivered {} results, the first run {}",
                        walls.len() + 1,
                        again.delivered,
                        first.delivered
                    ));
                }
                walls.push(again.wall_s);
            }
            values.set(
                "throughput_tps",
                arrivals.len() as f64 / stats::best(&walls),
            );
            verdict.notes.push(format!(
                "throughput_tps from the best of walls {walls:.3?} s"
            ));

            let cycle = checkpoint_cycle(target, arrivals, &ckpt_path, (1, 1), 0.0);
            check_cycle(&mut verdict, &cycle, &uninterrupted);

            alloc::arm();
            replay(target, arrivals, names, off, false);
            values.set("heap_peak_mb", alloc::disarm() as f64 / 1e6);
            verdict.notes.push(format!(
                "analytical peak memory {:.3} MB; checkpoint file {:.3} MB",
                first.finished.snapshot.peak_memory_bytes as f64 / 1e6,
                cycle.bytes as f64 / 1e6
            ));
            values.set("setup_s", setup_s);
        }
        Mode::Layers => {
            values.set("stream.generate_s", generate_s);
            values.set(
                "bench.reference_mismatch_ratio",
                judged.diff.failed() as f64 / reference.total.max(1) as f64,
            );
            // The untraced twin of the traced replay: warm, results dropped.
            let mut untraced = replay(target, arrivals, names, off, false);
            untraced.results = first.results;
            let rec = &mut Recorder::new(workload.name, true);
            alloc::arm();
            let traced = replay(target, arrivals, names, rec, false);
            let heap_bytes = alloc::disarm();
            values.set(
                "bench.trace_overhead_ratio",
                traced.wall_s / untraced.wall_s,
            );

            let paced_arrivals = ((workload.paced_rate_tps * config.seconds * PACED_SHARE)
                as usize)
                .clamp(1, arrivals.len());
            let paced = paced_replay(
                target,
                &arrivals[..paced_arrivals],
                &ArrivalIndex::new(arrivals),
                workload.paced_rate_tps,
                twin.is_some(),
            );
            record_latency(&mut values, &mut verdict, &paced);
            values.set("stream.gen_lag_p99_us", paced.lateness.p99_us);
            values.set("stream.gen_lag_max_ms", paced.lateness.max_ms);

            let cycle = checkpoint_cycle(
                target,
                arrivals,
                &ckpt_path,
                CHECKPOINT_REPS,
                config.seconds * CHECKPOINT_SHARE,
            );
            check_cycle(&mut verdict, &cycle, &uninterrupted);
            let sums = |a: &[f64], b: &[f64]| -> Vec<f64> {
                a.iter().zip(b).map(|(x, y)| x + y).collect()
            };
            values.set(
                "durable.checkpoint_ms",
                stats::best(&sums(&cycle.encode_ms, &cycle.write_ms)),
            );
            values.set(
                "durable.restore_ms",
                stats::best(&sums(&cycle.read_ms, &cycle.apply_ms)),
            );
            values.set(
                "durable.checkpoint_encode_ms",
                stats::median(&cycle.encode_ms),
            );
            values.set(
                "durable.checkpoint_write_ms",
                stats::median(&cycle.write_ms),
            );
            values.set("durable.checkpoint_read_ms", stats::median(&cycle.read_ms));
            values.set("durable.restore_apply_ms", stats::median(&cycle.apply_ms));
            values.set("durable.checkpoint_bytes", cycle.bytes as f64);

            let context = layers::Context {
                prepared: &prepared,
                names,
                untraced: &untraced,
                traced: &traced,
                traced_heap_bytes: heap_bytes,
                reference_wall_s: reference.wall_s,
                reference_cost_units: reference.cost_units,
                twin: twin.as_ref(),
                setup_s,
            };
            layers::measure(&context, rec, &mut values);
            verdict.notes.push(format!(
                "traced replay: {:.3} s wall, {:.3} MB heap peak, {} results delivered",
                traced.wall_s,
                heap_bytes as f64 / 1e6,
                traced.delivered
            ));
            let path = config
                .scratch
                .join(format!("trace_{}.jsonl", workload.name));
            if let Err(e) = rec.write_jsonl(&path) {
                verdict.notes.push(format!("span trace not written: {e}"));
            }
        }
    }

    Outcome {
        values,
        attempted: arrivals.len() as u64 + reference.total,
        failed: verdict.failed,
        correct: verdict.correct,
        notes: verdict.notes,
    }
}

/// Do all base tuples of `result` lie strictly within one window of each
/// other? The sliding-window join owes exactly these results; a composite
/// whose parts are a full window apart exists only because some state
/// outlived the window (DESIGN.md's frozen composites), and the repository's
/// own equivalence tests draw the line at the same place.
fn within_window(result: &Tuple, window: Duration) -> bool {
    result.ts().saturating_sub(result.min_ts()) < window
}

/// What a configuration owes the reference run. Whatever its contract rules
/// out is a failed operation and a contradiction, so every workload starts
/// from zero failed operations; what it allows is printed with every run and
/// reported as `bench.reference_mismatch_ratio`.
enum Contract {
    /// Strict REF: the reference's own semantics, so exactly its results.
    EqualsReference,
    /// Strict JIT: every in-window reference result, exactly once. Of the
    /// reference's frozen composites JIT regenerates only those whose parts
    /// are still mutually alive at the resumption, so any of them may be
    /// absent; nothing is invented and nothing repeated.
    InWindowOfReference,
    /// REF behind a bounded-disorder reorder stage: the whole reference,
    /// exactly once each. The watermark clock expires state one release run
    /// later than per-tuple time does, so beyond the reference a few margin
    /// composites may appear: real join combinations (every predicate holds)
    /// whose parts are at least a window apart, each once.
    ReferencePlusMargin {
        window: Duration,
        predicates: PredicateSet,
    },
}

/// How one run's results stand against the reference under its contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Judged {
    /// Multiset difference against the whole reference.
    diff: Diff,
    /// The part of the difference the contract rules out: failed operations.
    violations: u64,
}

impl Judged {
    /// The part of the difference the contract allows.
    fn tolerated(&self) -> u64 {
        self.diff.failed() - self.violations
    }
}

fn judge(contract: &Contract, expected: &Multiset, in_window: &Multiset, got: &[Tagged]) -> Judged {
    let delivered = hashed(got);
    let diff = stats::diff(expected, &delivered);
    let violations = match contract {
        Contract::EqualsReference => diff.failed(),
        Contract::InWindowOfReference => {
            stats::diff(in_window, &delivered).missing + diff.spurious + diff.duplicated
        }
        Contract::ReferencePlusMargin { window, predicates } => {
            let mut seen = HashSet::new();
            let mut is_margin_composite = |tuple: &Tuple, hash: u64| {
                seen.insert(hash)
                    && !within_window(tuple, *window)
                    && predicates
                        .predicates()
                        .iter()
                        .all(|p| p.holds_on(tuple) == Some(true))
            };
            let invented = got
                .iter()
                .filter(|result| {
                    let hash = result_hash(result);
                    !expected.contains_key(&hash) && !is_margin_composite(&result.1, hash)
                })
                .count() as u64;
            diff.missing + diff.duplicated + invented
        }
    };
    Judged { diff, violations }
}

/// Count the first replay's failures against the reference and flag what the
/// configuration's contract rules out.
fn account(verdict: &mut Verdict, run: &Replay, judged: Judged) {
    let d = judged.diff;
    verdict.failed += run.refused + run.dropped + judged.violations;
    verdict.notes.push(format!(
        "pushes refused {} dropped {}; against the reference: results missing {} spurious {} \
         duplicated {}, of which the configuration's contract allows {}",
        run.refused,
        run.dropped,
        d.missing,
        d.spurious,
        d.duplicated,
        judged.tolerated()
    ));
    if judged.violations > 0 {
        verdict.contradiction(format!(
            "{} results differ from the reference beyond what the configuration's contract \
             allows ({d:?})",
            judged.violations
        ));
    }
}

fn check_cycle(verdict: &mut Verdict, cycle: &Cycle, uninterrupted: &Multiset) {
    let d = stats::diff(uninterrupted, &hashed(&cycle.results));
    verdict.failed += cycle.refused + d.failed();
    if cycle.refused + d.failed() > 0 {
        verdict.contradiction(format!(
            "checkpoint-replay differs from the uninterrupted run ({d:?}, {} pushes refused)",
            cycle.refused
        ));
    }
}

fn record_latency(values: &mut Values, verdict: &mut Verdict, paced: &Paced) {
    verdict.failed += paced.refused;
    if paced.latency_us.is_empty() {
        verdict
            .notes
            .push("paced replay delivered no result before the stream closed".to_string());
        return;
    }
    let tail = stats::tail_percentile(&paced.latency_us);
    values.set(
        "stream.emit_latency_p50_us",
        stats::percentile_of(&paced.latency_us, 50),
    );
    values.set("stream.emit_latency_p99_us", tail.value);
    verdict.notes.push(format!(
        "emit latency: {} samples, tail is p{}; generator lag p99 {:.1} us, max {:.3} ms",
        tail.samples, tail.percentile, paced.lateness.p99_us, paced.lateness.max_ms
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use jit_types::{BaseTuple, SourceId, Timestamp, Value};
    use std::sync::Arc;

    fn keyed(source: u16, seq: u64, ts_ms: u64, key: i64) -> ArrivalEvent {
        let ts = Timestamp::from_millis(ts_ms);
        ArrivalEvent {
            ts,
            source: SourceId(source),
            tuple: Arc::new(BaseTuple::new(
                SourceId(source),
                seq,
                ts,
                vec![Value::int(key)],
            )),
        }
    }

    fn event(source: u16, seq: u64, ts_ms: u64) -> ArrivalEvent {
        keyed(source, seq, ts_ms, 1)
    }

    /// A delivered A⋈B result of query 0.
    fn joined(a: &ArrivalEvent, b: &ArrivalEvent) -> Tagged {
        let pair = Tuple::from_base(a.tuple.clone())
            .join(&Tuple::from_base(b.tuple.clone()))
            .unwrap();
        (0, pair)
    }

    /// How `got` stands against a reference of one in-window result (`near`)
    /// and one frozen composite (`frozen`), under `contract`.
    fn violations(contract: &Contract, got: &[Tagged]) -> (u64, u64) {
        let (near, frozen) = reference_pair();
        let expected = hashed(&[near.clone(), frozen]);
        let judged = judge(contract, &expected, &hashed(&[near]), got);
        (judged.violations, judged.tolerated())
    }

    const WINDOW: Duration = Duration(1_000);

    fn reference_pair() -> (Tagged, Tagged) {
        let a = keyed(0, 0, 100, 7);
        (
            joined(&a, &keyed(1, 0, 1_099, 7)),
            joined(&a, &keyed(1, 1, 1_100, 7)),
        )
    }

    #[test]
    fn strict_ref_owes_the_reference_exactly() {
        let (near, frozen) = reference_pair();
        let contract = Contract::EqualsReference;
        assert_eq!(violations(&contract, &[near.clone(), frozen]), (0, 0));
        assert_eq!(violations(&contract, &[near]), (1, 0));
    }

    #[test]
    fn strict_jit_owes_every_in_window_result_once() {
        let (near, frozen) = reference_pair();
        let contract = Contract::InWindowOfReference;
        // A frozen composite may be absent; an in-window result may not.
        assert_eq!(violations(&contract, &[near.clone()]), (0, 1));
        assert_eq!(
            violations(&contract, &[near.clone(), frozen.clone()]),
            (0, 0)
        );
        assert_eq!(violations(&contract, &[frozen]), (1, 0));
        // Nothing is repeated, nothing invented.
        assert_eq!(violations(&contract, &[near.clone(), near.clone()]), (1, 1));
        let invented = joined(&keyed(0, 9, 100, 7), &keyed(1, 9, 200, 7));
        assert_eq!(violations(&contract, &[near, invented]), (1, 1));
    }

    #[test]
    fn bounded_disorder_owes_the_reference_plus_real_margin_composites() {
        let (near, frozen) = reference_pair();
        let contract = Contract::ReferencePlusMargin {
            window: WINDOW,
            predicates: PredicateSet::clique(2),
        };
        let whole = [near.clone(), frozen.clone()];
        let with = |extra: &[Tagged]| [&whole[..], extra].concat();
        assert_eq!(violations(&contract, &whole), (0, 0));
        // The whole reference is owed, frozen composites included.
        assert_eq!(violations(&contract, &[near]), (1, 0));
        // A margin composite: the keys match, the parts are a window apart.
        let margin = joined(&keyed(0, 5, 2_000, 3), &keyed(1, 5, 3_004, 3));
        assert_eq!(violations(&contract, &with(&[margin.clone()])), (0, 1));
        assert_eq!(
            violations(&contract, &with(&[margin.clone(), margin])),
            (1, 1)
        );
        // Inside the window the reference would have had it: invented.
        let inside = joined(&keyed(0, 6, 2_000, 3), &keyed(1, 6, 2_500, 3));
        assert_eq!(violations(&contract, &with(&[inside])), (1, 0));
        // Keys differ: not a join combination at all.
        let unmatched = joined(&keyed(0, 7, 2_000, 3), &keyed(1, 7, 3_004, 4));
        assert_eq!(violations(&contract, &with(&[unmatched])), (1, 0));
    }

    #[test]
    fn late_arrivals_are_scheduled_when_the_stream_delivers_them() {
        // The third arrival carries an old timestamp: it is due when it is
        // pushed, right after the arrival at 300 ms.
        let arrivals = [
            event(0, 0, 100),
            event(1, 0, 300),
            event(0, 1, 200),
            event(1, 1, 400),
        ];
        let index = ArrivalIndex::new(&arrivals);
        assert_eq!(index.sched_ms, vec![100, 300, 300, 400]);
        let joined = Tuple::from_base(arrivals[1].tuple.clone())
            .join(&Tuple::from_base(arrivals[2].tuple.clone()))
            .unwrap();
        assert_eq!(index.latest_contributor(&joined), 2);
    }

    #[test]
    fn result_hash_separates_queries_and_parts() {
        let a = Tuple::from_base(event(0, 5, 1).tuple);
        let b = Tuple::from_base(event(1, 5, 1).tuple);
        assert_ne!(result_hash(&(0, a.clone())), result_hash(&(1, a.clone())));
        assert_ne!(result_hash(&(0, a.clone())), result_hash(&(0, b.clone())));
        assert_eq!(
            result_hash(&(0, a.join(&b).unwrap())),
            result_hash(&(0, b.join(&a).unwrap()))
        );
    }
}
