//! Multi-query serving bench: per-arrival cost versus registered queries.
//!
//! Registers N CQL queries (drawn from a small family of overlapping
//! two-way joins with constant filters, so they dedupe into a bounded set
//! of shared pipelines) on one [`jit_serve::QueryRegistry`], pushes one
//! mixed A/B stream, and measures the *serving* cost per arrival as N
//! grows. Writes `BENCH_multi_query.json` with registrations/sec,
//! arrivals/sec, µs/arrival and the state bytes the pipelines hold against
//! what one dedicated engine per query would hold.
//!
//! Usage:
//!
//! ```text
//! cargo run -p jit-bench --release --bin bench_multi_query [-- --quick] [--out PATH]
//! ```
//!
//! The run *asserts* (exiting non-zero otherwise) that
//!
//! * the pipelines hold strictly fewer state bytes than the isolated-serving
//!   baseline whenever queries outnumber pipelines (never more: the baseline
//!   is each pipeline's bytes times its subscribers);
//! * per-arrival cost grows sublinearly in the query count: going from the
//!   smallest to the largest N must cost well under half the proportional
//!   (linear) slowdown.
//!
//! `--quick` shrinks the stream for the CI smoke run; the assertions still
//! hold there.

use jit_serve::{QueryRegistry, ServeOptions, SharingReport};
use jit_types::{BaseTuple, Catalog, SourceId, Timestamp, Value};
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

/// One measured query-count point.
#[derive(Debug, Serialize)]
struct BenchPoint {
    queries: usize,
    pipelines: usize,
    filter_classes: usize,
    registration_seconds: f64,
    registrations_per_sec: f64,
    arrivals: u64,
    wall_seconds: f64,
    arrivals_per_sec: f64,
    micros_per_arrival: f64,
    routed: u64,
    classifications: u64,
    classifications_saved: u64,
    shared_state_bytes: usize,
    isolated_state_bytes: usize,
    /// `isolated / shared` — how many times over the isolated baseline
    /// would store the pipelines' state (≈ subscribers per pipeline).
    state_sharing_factor: f64,
    sentinel_results: usize,
}

/// Scaling summary between the smallest and largest point.
#[derive(Debug, Serialize)]
struct Sublinearity {
    base_queries: usize,
    peak_queries: usize,
    query_ratio: f64,
    base_micros_per_arrival: f64,
    peak_micros_per_arrival: f64,
    /// `peak_cost / base_cost`; linear scaling would put this at
    /// `query_ratio`.
    cost_ratio: f64,
}

/// The full report written to `BENCH_multi_query.json`.
#[derive(Debug, Serialize)]
struct BenchReport {
    workload: String,
    quick: bool,
    points: Vec<BenchPoint>,
    sublinearity: Sublinearity,
}

fn catalog() -> Catalog {
    let mut cat = Catalog::new();
    cat.add_source("A", vec!["k".into(), "v".into()]);
    cat.add_source("B", vec!["k".into(), "v".into()]);
    cat
}

/// The i-th registered query: an A⋈B join on `k`, one of 8 filter
/// thresholds on `A.v`, one of 2 windows — at most 16 distinct pipelines
/// however many queries register.
fn query_text(i: usize) -> String {
    let threshold = 5 * (i % 8);
    let minutes = 1 + (i / 8) % 2;
    format!(
        "SELECT * FROM A [RANGE {minutes} minutes], B [RANGE {minutes} minutes] \
         WHERE A.k = B.k AND A.v > {threshold}"
    )
}

/// Deterministic mixed A/B stream, 200 ms apart.
fn stream(n: usize) -> Vec<Arc<BaseTuple>> {
    let mut state: u64 = 0x2545_F491_4F6C_DD1D;
    let mut seqs = [0u64; 2];
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let source = i % 2;
        let k = ((state >> 33) % 100) as i64;
        let v = ((state >> 17) % 100) as i64;
        let seq = seqs[source];
        seqs[source] += 1;
        out.push(Arc::new(BaseTuple::new(
            SourceId(source as u16),
            seq,
            Timestamp((i as u64 + 1) * 200),
            vec![Value::int(k), Value::int(v)],
        )));
    }
    out
}

fn run_point(num_queries: usize, arrivals: &[Arc<BaseTuple>]) -> (BenchPoint, SharingReport) {
    let mut reg = QueryRegistry::with_options(catalog(), ServeOptions::default());
    let reg_start = Instant::now();
    let mut sentinel = None;
    for i in 0..num_queries {
        let qid = reg.register(&query_text(i)).expect("bench query registers");
        if i == 0 {
            sentinel = Some(qid);
        }
    }
    let registration_seconds = reg_start.elapsed().as_secs_f64().max(1e-9);

    let push_start = Instant::now();
    for arrival in arrivals {
        reg.push(arrival.clone()).expect("bench arrival pushes");
    }
    let wall_seconds = push_start.elapsed().as_secs_f64().max(1e-9);

    let sentinel_results = reg
        .poll_results(sentinel.expect("at least one query"))
        .expect("sentinel polls")
        .len();
    let report = reg.sharing_report();
    let point = BenchPoint {
        queries: report.queries,
        pipelines: report.pipelines,
        filter_classes: report.filter_classes,
        registration_seconds,
        registrations_per_sec: num_queries as f64 / registration_seconds,
        arrivals: report.arrivals,
        wall_seconds,
        arrivals_per_sec: arrivals.len() as f64 / wall_seconds,
        micros_per_arrival: wall_seconds * 1e6 / arrivals.len() as f64,
        routed: report.routed,
        classifications: report.classifications,
        classifications_saved: report.classifications_saved,
        shared_state_bytes: report.shared_state_bytes,
        isolated_state_bytes: report.isolated_state_bytes,
        state_sharing_factor: report.isolated_state_bytes as f64
            / report.shared_state_bytes.max(1) as f64,
        sentinel_results,
    };
    (point, report)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_multi_query.json".to_string());

    let num_arrivals = if quick { 2_000 } else { 10_000 };
    let query_counts = [10usize, 100, 1000];
    let arrivals = stream(num_arrivals);

    let mut points = Vec::new();
    let mut failures = Vec::new();
    for &n in &query_counts {
        let (point, report) = run_point(n, &arrivals);
        println!(
            "{n:>5} queries -> {:>2} pipelines: {:>9.0} arrivals/s ({:>6.2} µs/arrival), \
             {:>8.0} registrations/s, state shared {} B vs isolated {} B ({:.1}x)",
            point.pipelines,
            point.arrivals_per_sec,
            point.micros_per_arrival,
            point.registrations_per_sec,
            point.shared_state_bytes,
            point.isolated_state_bytes,
            point.state_sharing_factor,
        );
        if point.sentinel_results == 0 {
            failures.push(format!("{n} queries: sentinel query saw no results"));
        }
        if report.queries > report.pipelines
            && report.shared_state_bytes >= report.isolated_state_bytes
        {
            failures.push(format!(
                "{n} queries over {} pipelines: sharing saved no state bytes",
                report.pipelines
            ));
        }
        points.push(point);
    }

    let base = &points[0];
    let peak = &points[points.len() - 1];
    let query_ratio = peak.queries as f64 / base.queries as f64;
    let cost_ratio = peak.micros_per_arrival / base.micros_per_arrival.max(1e-9);
    let sublinearity = Sublinearity {
        base_queries: base.queries,
        peak_queries: peak.queries,
        query_ratio,
        base_micros_per_arrival: base.micros_per_arrival,
        peak_micros_per_arrival: peak.micros_per_arrival,
        cost_ratio,
    };
    println!(
        "scaling {}x queries cost {cost_ratio:.2}x per arrival (linear would be {query_ratio:.0}x)",
        query_ratio as u64
    );
    if cost_ratio >= query_ratio / 2.0 {
        failures.push(format!(
            "per-arrival cost ratio {cost_ratio:.2} not sublinear in query ratio {query_ratio:.0}"
        ));
    }

    let report = BenchReport {
        workload: format!(
            "A⋈B on k (k,v ∈ 0..100), {num_arrivals} arrivals 200ms apart, \
             query family: 8 filter thresholds × 2 windows"
        ),
        quick,
        points,
        sublinearity,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    std::fs::write(&out_path, json).expect("report written");
    println!("wrote {out_path}");

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}
