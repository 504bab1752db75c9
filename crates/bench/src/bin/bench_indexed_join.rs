//! Probe-scaling bench: hash-indexed vs scanned operator states.
//!
//! Runs the paper's 3-source clique figure workload through the engine with
//! [`StateIndexMode::Hashed`] and [`StateIndexMode::Scan`] in REF and JIT
//! modes, sweeping the stream duration so the state sizes (and with them the
//! nested-loop probe cost) grow, and writes `BENCH_indexed_join.json` with
//! tuples/sec and `probe_pairs` per point — the start of the perf
//! trajectory for the indexed state layer.
//!
//! Usage:
//!
//! ```text
//! cargo run -p jit-bench --release --bin bench_indexed_join [-- --quick] [--out PATH]
//! ```
//!
//! * `--quick`  one short point per mode (the CI smoke configuration); the
//!   run *asserts* that indexed probing examines strictly fewer pairs than
//!   the scan baseline with identical result counts, exiting non-zero
//!   otherwise.
//! * `--out PATH`  where to write the JSON report
//!   (default `BENCH_indexed_join.json`).

use jit_core::policy::{ExecutionMode, JitPolicy};
use jit_engine::Engine;
use jit_exec::executor::ExecutorConfig;
use jit_exec::state::StateIndexMode;
use jit_plan::shapes::PlanShape;
use jit_stream::{WorkloadGenerator, WorkloadSpec};
use jit_types::Duration;
use serde::Serialize;

/// One measured (mode, index, duration) point.
#[derive(Debug, Serialize)]
struct BenchPoint {
    mode: String,
    index: String,
    duration_secs: u64,
    arrivals: u64,
    results: u64,
    probe_pairs: u64,
    cost_units: u64,
    wall_seconds: f64,
    tuples_per_sec: f64,
}

/// The full report written to `BENCH_indexed_join.json`.
#[derive(Debug, Serialize)]
struct BenchReport {
    workload: String,
    quick: bool,
    points: Vec<BenchPoint>,
    /// `probe_pairs(scan) / probe_pairs(indexed)` per (mode, duration).
    probe_reduction: Vec<ProbeReduction>,
}

#[derive(Debug, Serialize)]
struct ProbeReduction {
    mode: String,
    duration_secs: u64,
    scan_probe_pairs: u64,
    indexed_probe_pairs: u64,
    reduction_factor: f64,
}

fn index_label(index: StateIndexMode) -> &'static str {
    match index {
        StateIndexMode::Hashed => "indexed",
        StateIndexMode::Scan => "scan",
    }
}

fn run_point(duration_secs: u64, mode: ExecutionMode, index: StateIndexMode) -> (BenchPoint, u64) {
    // The 3-source clique figure workload; dmax shrunk from the figure
    // default (200) so short sweeps still produce joins to verify against.
    let spec = WorkloadSpec::bushy_default()
        .with_sources(3)
        .with_dmax(40)
        .with_duration(Duration::from_secs(duration_secs))
        .with_seed(20080415);
    let trace = WorkloadGenerator::generate(&spec);
    let outcome = Engine::builder()
        .workload(&spec, &PlanShape::bushy(3))
        .mode(mode)
        .state_index(index)
        .executor_config(ExecutorConfig {
            collect_results: false,
            check_temporal_order: false,
        })
        .build()
        .expect("bench engine builds")
        .run_trace(&trace)
        .expect("bench trace runs");
    let arrivals = outcome.snapshot.stats.tuples_arrived;
    let wall = outcome.snapshot.wall_seconds.max(1e-9);
    (
        BenchPoint {
            mode: mode.label().to_string(),
            index: index_label(index).to_string(),
            duration_secs,
            arrivals,
            results: outcome.results_count,
            probe_pairs: outcome.snapshot.stats.probe_pairs,
            cost_units: outcome.snapshot.cost_units,
            wall_seconds: wall,
            tuples_per_sec: arrivals as f64 / wall,
        },
        outcome.results_count,
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_indexed_join.json".to_string());

    let durations: Vec<u64> = if quick {
        vec![120]
    } else {
        vec![120, 300, 600, 1200]
    };
    let modes = [ExecutionMode::Ref, ExecutionMode::Jit(JitPolicy::full())];

    let mut points = Vec::new();
    let mut reductions = Vec::new();
    let mut failures = Vec::new();
    for &duration in &durations {
        for mode in modes {
            let (scan_point, scan_results) = run_point(duration, mode, StateIndexMode::Scan);
            let (indexed_point, indexed_results) =
                run_point(duration, mode, StateIndexMode::Hashed);
            let factor = scan_point.probe_pairs as f64 / indexed_point.probe_pairs.max(1) as f64;
            println!(
                "{:>4} {}s: probe_pairs scan {:>10} -> indexed {:>8}  ({factor:.1}x), \
                 {:>9.0} vs {:>9.0} tuples/s",
                scan_point.mode,
                duration,
                scan_point.probe_pairs,
                indexed_point.probe_pairs,
                scan_point.tuples_per_sec,
                indexed_point.tuples_per_sec,
            );
            if scan_results != indexed_results {
                failures.push(format!(
                    "{} {duration}s: result counts diverge (scan {scan_results}, \
                     indexed {indexed_results})",
                    scan_point.mode
                ));
            }
            if indexed_point.probe_pairs >= scan_point.probe_pairs {
                failures.push(format!(
                    "{} {duration}s: indexed probe_pairs {} not below scan {}",
                    scan_point.mode, indexed_point.probe_pairs, scan_point.probe_pairs
                ));
            }
            reductions.push(ProbeReduction {
                mode: scan_point.mode.clone(),
                duration_secs: duration,
                scan_probe_pairs: scan_point.probe_pairs,
                indexed_probe_pairs: indexed_point.probe_pairs,
                reduction_factor: factor,
            });
            points.push(scan_point);
            points.push(indexed_point);
        }
    }

    let report = BenchReport {
        workload: "3-source clique, bushy plan, dmax 40, rate 1/s, seed 20080415".to_string(),
        quick,
        points,
        probe_reduction: reductions,
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
