//! Heap allocations per arrival in steady state, pinned by count.
//!
//! The JIT consumer path is meant to run without per-call heap traffic
//! (stable-handle MNS buffer, inline tuple identity, operator-owned probe
//! scratch); a wall clock can hide a regression there, a count cannot. This
//! binary installs its own counting allocator (so it must stay a test binary
//! of its own) and replays the three `bench_e2e` engine shapes: after one
//! window of warm-up, the allocations of the pushing thread over the next
//! windows divided by the arrivals pushed must stay under a budget.
//!
//! Counts are deterministic: fixed seed, `FastHasher`, one thread.

use jit_dsms::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread while `ARMED`.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static ARMED: Cell<bool> = const { Cell::new(false) };
}

struct CountingAlloc;

fn count() {
    if ARMED.with(Cell::get) {
        ALLOCS.with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards the caller's pointer and layout unchanged to
// `System`, which upholds the `GlobalAlloc` contract; the thread-local
// counters are const-initialised `Cell`s without destructors, so touching
// them allocates nothing and never influences what is returned.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator with
        // `layout`, and this allocator only ever hands out `System` blocks.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
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

/// Allocations per arrival over `WINDOWS` windows after one window of
/// warm-up, on the single-threaded backend.
fn allocs_per_arrival(spec: &WorkloadSpec, shape: &PlanShape, mode: ExecutionMode) -> f64 {
    let window = spec.window().length;
    let spec = spec
        .clone()
        .with_duration(Duration::from_millis(window.as_millis() * (WINDOWS + 1)));
    let trace = WorkloadGenerator::generate(&spec);
    let engine = Engine::builder()
        .workload(&spec, shape)
        .mode(mode)
        .build()
        .expect("engine builds");
    let mut session = engine.session().expect("session opens");
    let warm_until = Timestamp::from_millis(window.as_millis());
    let mut measured = 0u64;
    for (i, event) in trace.iter().enumerate() {
        let warm = event.ts >= warm_until;
        ARMED.with(|a| a.set(warm));
        measured += u64::from(warm);
        let _ = session
            .push(event.source, event.tuple.clone())
            .expect("in-order push");
        if (i + 1) % POLL_EVERY == 0 {
            drop(session.poll_results());
        }
    }
    ARMED.with(|a| a.set(false));
    let allocs = ALLOCS.with(|n| n.replace(0));
    session.finish().expect("session finishes");
    assert!(measured > 1_000, "only {measured} arrivals measured");
    allocs as f64 / measured as f64
}

/// One test function: the three shapes share the thread-local counter and
/// print their numbers together.
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
    let jit = ExecutionMode::Jit(JitPolicy::full());
    let cases = [
        (
            "bushy_jit",
            &bushy,
            PlanShape::bushy(4),
            jit,
            BUSHY_JIT_BUDGET,
        ),
        (
            "sharedkey_jit",
            &sharedkey,
            PlanShape::left_deep(3),
            jit,
            SHAREDKEY_JIT_BUDGET,
        ),
        (
            "sharedkey_ref",
            &sharedkey,
            PlanShape::left_deep(3),
            ExecutionMode::Ref,
            SHAREDKEY_REF_BUDGET,
        ),
    ];
    let mut over = Vec::new();
    for (name, spec, shape, mode, budget) in cases {
        let per_arrival = allocs_per_arrival(spec, &shape, mode);
        println!("{name}: {per_arrival:.2} heap allocations per arrival (budget {budget})");
        if per_arrival > budget {
            over.push(format!("{name}: {per_arrival:.2} > {budget}"));
        }
    }
    assert!(over.is_empty(), "over budget: {over:?}");
}

/// Budgets: the counts measured when ports stopped detecting, buffering and
/// reporting MNSs their producer cannot act on (51.66 / 7.39 / 2.55, debug
/// and release alike), plus 10 %. The commit before measured 87.90 / 10.07 /
/// 2.55 here.
const BUSHY_JIT_BUDGET: f64 = 56.8;
const SHAREDKEY_JIT_BUDGET: f64 = 8.1;
const SHAREDKEY_REF_BUDGET: f64 = 2.8;
