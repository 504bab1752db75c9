//! Heap allocations per arrival in steady state and JIT's peak heap over
//! REF's, pinned by count.
//!
//! The JIT consumer path is meant to run without per-call heap traffic
//! (stable-handle MNS buffer, inline tuple identity, operator-owned probe
//! scratch); a wall clock can hide a regression there, a count cannot. This
//! binary installs its own counting allocator (so it must stay a test binary
//! of its own) and replays the `bench_e2e` engine shapes: after one window
//! of warm-up, the allocations of the pushing thread over the next windows
//! divided by the arrivals pushed must stay under a budget. The same
//! allocator sums the bytes the thread holds, so the most a JIT session ever
//! held over the most REF's held on the same arrivals is pinned beside it:
//! what JIT keeps per stored tuple beyond the tuple shows up there and
//! nowhere in the analytical accounting. One shape replays disordered
//! arrivals behind a bounded-disorder reorder stage, so the stage is held to
//! the same count. A second test holds the serving tier to a count and a peak
//! heap on `bench_e2e`'s 1000-query registry, where a copy made per pipeline
//! or per subscriber is multiplied by their number.
//!
//! Counts are deterministic: fixed seed, `FastHasher`, one thread.

use jit_dsms::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    /// Allocations made by this thread while `ARMED`.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static ARMED: Cell<bool> = const { Cell::new(false) };
    /// Bytes this thread has allocated and not freed since [`reset_live`],
    /// and their maximum. Signed: a block from before the reset may go.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn count() {
    if ARMED.with(Cell::get) {
        ALLOCS.with(|n| n.set(n.get() + 1));
    }
}

/// A block of this thread went from `from` to `to` bytes.
fn resized(from: usize, to: usize) {
    let live = LIVE.with(|live| {
        live.set(live.get() + to as i64 - from as i64);
        live.get()
    });
    PEAK.with(|peak| peak.set(peak.get().max(live)));
}

/// The heap as it stands is the baseline of the next [`PEAK`].
fn reset_live() {
    LIVE.with(|live| live.set(0));
    PEAK.with(|peak| peak.set(0));
}

#[expect(
    unsafe_code,
    reason = "a counting global allocator must implement the unsafe GlobalAlloc trait"
)]
// SAFETY: every method forwards the caller's pointer and layout unchanged to
// `System`, which upholds the `GlobalAlloc` contract; the thread-local
// counters are const-initialised `Cell`s without destructors, so touching
// them allocates nothing and never influences what is returned.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        resized(0, layout.size());
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        resized(0, layout.size());
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        resized(layout.size(), 0);
        // SAFETY: the caller guarantees `ptr` came from this allocator with
        // `layout`, and this allocator only ever hands out `System` blocks.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        resized(layout.size(), new_size);
        // SAFETY: same block, same layout, caller-checked `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Pushes between two polls, as in `bench_e2e`'s max-rate replay.
const POLL_EVERY: usize = 4096;
/// Windows measured after the warm-up window.
const WINDOWS: u64 = 6;

/// Allocations per arrival from `warm_until` on, and the most bytes engine
/// and session ever held (the arrivals are generated first and sit below
/// that baseline), replaying `arrivals` through `builder`'s session. A
/// `LateDrop` is an arrival like any other.
fn replay(builder: EngineBuilder, arrivals: &[ArrivalEvent], warm_until: Timestamp) -> (f64, f64) {
    reset_live();
    let engine = builder.build().expect("engine builds");
    let mut session = engine.session().expect("session opens");
    let mut measured = 0u64;
    for (i, event) in arrivals.iter().enumerate() {
        let warm = event.ts >= warm_until;
        ARMED.with(|a| a.set(warm));
        measured += u64::from(warm);
        let _ = session
            .push(event.source, event.tuple.clone())
            .expect("push");
        if (i + 1) % POLL_EVERY == 0 {
            drop(session.poll_results());
        }
    }
    ARMED.with(|a| a.set(false));
    let allocs = ALLOCS.with(|n| n.replace(0));
    session.finish().expect("session finishes");
    assert!(measured > 1_000, "only {measured} arrivals measured");
    (allocs as f64 / measured as f64, PEAK.with(Cell::get) as f64)
}

/// One test function for the engine shapes: they share the thread-local
/// counters and print their numbers together.
#[test]
fn steady_state_allocations_per_arrival_stay_in_budget() {
    // (a) `bench_e2e`'s bushy_jit shape.
    let bushy = WorkloadSpec::bushy_default()
        .with_sources(4)
        .with_dmax(25)
        .with_window_minutes(5.0)
        .with_seed(7);
    // (b), (c) `bench_e2e`'s shared-key shape under JIT and REF.
    let sharedkey = WorkloadSpec::bushy_default()
        .with_sources(3)
        .with_shared_key()
        .with_window_minutes(0.5)
        .with_dmax(5000)
        .with_rate(50.0)
        .with_seed(7);
    // (d), (e) `bench_e2e`'s sharded_disorder_ref inputs on the
    // single-threaded backend: the shared-key trace with 5 % of the arrivals
    // up to 2 s late, behind a reorder stage with a 2 s bound.
    let max_delay = Duration::from_secs(2);
    let jit = ExecutionMode::Jit(JitPolicy::full());
    // Per shape: the lateness bound of a disordered replay, the JIT
    // allocation budget, REF's, and the bound on JIT's peak heap over REF's.
    let shapes = [
        (
            "bushy",
            &bushy,
            PlanShape::bushy(4),
            None,
            [BUSHY_JIT_BUDGET, BUSHY_REF_BUDGET],
            BUSHY_HEAP_RATIO_BOUND,
        ),
        (
            "sharedkey",
            &sharedkey,
            PlanShape::left_deep(3),
            None,
            [SHAREDKEY_JIT_BUDGET, SHAREDKEY_REF_BUDGET],
            SHAREDKEY_HEAP_RATIO_BOUND,
        ),
        (
            "bounded",
            &sharedkey,
            PlanShape::left_deep(3),
            Some(max_delay),
            [BOUNDED_JIT_BUDGET, BOUNDED_REF_BUDGET],
            BOUNDED_HEAP_RATIO_BOUND,
        ),
    ];
    let mut over = Vec::new();
    for (shape_name, spec, shape, lateness, budgets, ratio_bound) in shapes {
        let window = spec.window().length;
        let spec = spec
            .clone()
            .with_duration(Duration::from_millis(window.as_millis() * (WINDOWS + 1)));
        let trace = WorkloadGenerator::generate(&spec);
        let arrivals: Vec<ArrivalEvent> = match lateness {
            Some(lateness) => DisorderSpec::new(0.05, lateness, 7).apply(&trace),
            None => trace.iter().cloned().collect(),
        };
        let warm_until = Timestamp::from_millis(window.as_millis());
        let mut peaks = Vec::new();
        let modes = [("jit", jit), ("ref", ExecutionMode::Ref)];
        for ((mode_name, mode), budget) in modes.into_iter().zip(budgets) {
            let mut builder = Engine::builder().workload(&spec, &shape).mode(mode);
            if let Some(lateness) = lateness {
                builder = builder.disorder(DisorderPolicy::Bounded(lateness));
            }
            let (per_arrival, peak) = replay(builder, &arrivals, warm_until);
            let name = format!("{shape_name}_{mode_name}");
            println!(
                "{name}: {per_arrival:.2} heap allocations per arrival (budget {budget}), \
                 {:.3} MB peak heap",
                peak / 1e6
            );
            if per_arrival > budget {
                over.push(format!("{name}: {per_arrival:.2} > {budget}"));
            }
            peaks.push(peak);
        }
        let ratio = peaks[0] / peaks[1];
        println!("{shape_name}: JIT peak heap / REF peak heap {ratio:.3} (bound {ratio_bound})");
        if ratio > ratio_bound {
            over.push(format!(
                "{shape_name} heap ratio: {ratio:.3} > {ratio_bound}"
            ));
        }
    }
    assert!(over.is_empty(), "over budget: {over:?}");
}

/// Queries on the serving shape, as in `bench_e2e`'s `serve_multiquery`.
const SERVE_QUERIES: usize = 1000;
/// Arrivals of the serving shape, and the warm-up before counting starts.
const SERVE_ARRIVALS: usize = 10 * POLL_EVERY;
const SERVE_WARM_UP: usize = 2 * POLL_EVERY;

/// `bench_e2e`'s `serve_query`: an A⋈B join on `k` with one of 8 filter
/// thresholds on `A.v` and one of 2 windows — 16 pipelines for 1000 queries.
fn serve_query(i: usize) -> String {
    let threshold = 5 * (i % 8);
    let minutes = 1 + (i / 8) % 2;
    format!(
        "SELECT * FROM A [RANGE {minutes} minutes], B [RANGE {minutes} minutes] \
         WHERE A.k = B.k AND A.v > {threshold}"
    )
}

/// A stream shaped like `bench_e2e`'s `serve_stream`: splitmix64-drawn
/// source (A or B), key in 0..5000, value in 0..100, gaps of 1–399 ms.
fn serve_stream(seed: u64, n: usize) -> Vec<Arc<BaseTuple>> {
    let mut state = seed;
    let mut seqs = [0u64; 2];
    let mut now_ms = 0u64;
    (0..n)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut r = state;
            r = (r ^ (r >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            r = (r ^ (r >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            r ^= r >> 31;
            let source = (r & 1) as usize;
            now_ms += 1 + (r >> 40) % 399;
            let seq = seqs[source];
            seqs[source] += 1;
            Arc::new(BaseTuple::new(
                SourceId(source as u16),
                seq,
                Timestamp::from_millis(now_ms),
                vec![
                    Value::int(((r >> 1) % 5000) as i64),
                    Value::int(((r >> 20) % 100) as i64),
                ],
            ))
        })
        .collect()
}

/// The serving tier by count: `bench_e2e`'s `serve_multiquery` registry,
/// every query polled every [`POLL_EVERY`] arrivals. Push and poll
/// allocations per arrival from [`SERVE_WARM_UP`] on, and the most bytes the
/// registry ever held.
#[test]
fn serving_tier_allocations_per_arrival_stay_in_budget() {
    let arrivals = serve_stream(7, SERVE_ARRIVALS);
    reset_live();
    let mut catalog = Catalog::new();
    catalog.add_source("A", vec!["k".into(), "v".into()]);
    catalog.add_source("B", vec!["k".into(), "v".into()]);
    let mut registry = QueryRegistry::new(catalog);
    let ids: Vec<QueryId> = (0..SERVE_QUERIES)
        .map(|i| registry.register(&serve_query(i)).expect("query registers"))
        .collect();
    let (mut push_allocs, mut poll_allocs) = (0u64, 0u64);
    for (i, tuple) in arrivals.iter().enumerate() {
        ARMED.with(|a| a.set(i >= SERVE_WARM_UP));
        registry.push(Arc::clone(tuple)).expect("push");
        push_allocs += ALLOCS.with(|n| n.replace(0));
        if (i + 1) % POLL_EVERY == 0 {
            for &id in &ids {
                drop(registry.poll_results(id).expect("poll"));
            }
            poll_allocs += ALLOCS.with(|n| n.replace(0));
        }
    }
    ARMED.with(|a| a.set(false));
    let peak = PEAK.with(Cell::get) as f64;
    registry.finish().expect("registry finishes");

    let measured = (SERVE_ARRIVALS - SERVE_WARM_UP) as f64;
    let (push, poll) = (push_allocs as f64 / measured, poll_allocs as f64 / measured);
    println!(
        "serve: {push:.2} push + {poll:.2} poll heap allocations per arrival \
         (budget {SERVE_BUDGET}), {:.3} MB peak heap (bound {SERVE_HEAP_BOUND_MB} MB)",
        peak / 1e6
    );
    assert!(
        push + poll <= SERVE_BUDGET,
        "serve: {:.2} allocations per arrival > {SERVE_BUDGET}",
        push + poll
    );
    assert!(
        peak / 1e6 <= SERVE_HEAP_BOUND_MB,
        "serve: {:.3} MB peak heap > {SERVE_HEAP_BOUND_MB} MB",
        peak / 1e6
    );
}

/// Budgets: the counts measured plus about 10 %. JIT reads 16.79 / 3.83 /
/// 3.91 on the bushy, shared-key and bounded shapes, REF 16.07 / 0.94 / 0.94,
/// debug and release alike, once the blacklist stores its entries in the
/// slab operator states use: a compaction renumbers its indexes in place
/// instead of re-filing them, and a purge pops into a buffer it reuses
/// (with a fresh `Vec` per purge the same binary reads 3.93 / 4.06). With
/// the blacklist's own slot vector JIT read 16.79 / 4.50 / 4.63, once a
/// settling port probes through one index per candidate source (no
/// full-key or multi-source node index to file into) and the blacklist's
/// diversion check forms its candidates and the arrival's signatures in
/// reused buffers, compares a captured signature in place and shares an
/// entry's column list; before those, JIT read 17.74 / 5.95 / 6.08. With
/// every key of two to four integer columns a heap `Vec<Value>`,
/// allocated when its bucket was created, the bushy and shared-key shapes
/// read 29.50 / 27.31 / 6.27 / 1.26. What is left per arrival: the shared
/// part slice of each result row, the `Vec` of rows an operator call returns
/// when it matched, and the `fresh` / feedback `Vec`s a detected MNS travels
/// in.
///
/// The bounded shape's REF count equals its in-order one once the reorder
/// stage buffers in the near-sorted expiry queue and releases by draining
/// it. With the stage a B-tree split per release into a fresh `Vec`, the
/// same binary read 9.38 / 4.24.
const BUSHY_JIT_BUDGET: f64 = 18.5;
const BUSHY_REF_BUDGET: f64 = 17.7;
const SHAREDKEY_JIT_BUDGET: f64 = 4.2;
const SHAREDKEY_REF_BUDGET: f64 = 1.05;
const BOUNDED_JIT_BUDGET: f64 = 4.3;
const BOUNDED_REF_BUDGET: f64 = 1.05;

/// JIT's peak heap over REF's, bound at the measured ratio plus about 7 %:
/// 0.685 (4.478 / 6.537 MB) on the bushy shape, 2.181 (2.670 / 1.224 MB) on
/// the shared-key shape and 2.167 (2.684 / 1.239 MB) on the bounded one,
/// once a settling port keeps one index per candidate source on the
/// opposite state: `AB⋈CD` no longer files every `AB` and `CD` under a
/// 4-column full key beside the two per-source keys, so JIT's bushy heap
/// falls below REF's, which holds the full-key indexes. With them the same
/// binary read 1.260 (8.239 / 6.537 MB), 2.412 and 2.395. Earlier: 1.216 and
/// 2.373 once a stored tuple's presence stamp rode in its state slot; 1.559
/// and 2.910 with the stamps in a map beside the states. ROADMAP's bar for
/// the bushy shape is 1.5 — a bound may be re-pinned lower, never higher.
/// Since MNS buffers and blacklists store their entries in the slab
/// operator states use, the same binary reads 0.687 (4.493 / 6.537 MB),
/// 2.229 (2.730 / 1.224 MB) and 2.216 (2.744 / 1.239 MB).
/// The serving shape reads 2.49 push + 0.25 poll = 2.74 allocations per
/// arrival and 2.628 MB peak heap, debug and release alike, once every
/// pipeline that reads a source under its global id holds the pushed
/// `Arc<BaseTuple>` itself and a pipeline poll's results are one batch that
/// every subscriber's mailbox points at. With a remapped base tuple built per
/// pipeline, the class verdicts re-hashed into a fresh map and the route list
/// cloned per arrival, and each result copied into every subscriber's
/// mailbox, the same binary read 18.51 + 0.24 = 18.75 and 8.173 MB.
const SERVE_BUDGET: f64 = 3.0;
const SERVE_HEAP_BOUND_MB: f64 = 2.9;

const BUSHY_HEAP_RATIO_BOUND: f64 = 0.73;
const SHAREDKEY_HEAP_RATIO_BOUND: f64 = 2.33;
const BOUNDED_HEAP_RATIO_BOUND: f64 = 2.32;
