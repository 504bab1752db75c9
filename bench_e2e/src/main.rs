//! `bench_e2e`: five named workloads, three end-to-end metrics, and an
//! outside-in attribution of the time to the engine's layers.
//!
//! ```text
//! bench_e2e --seed <u64> [--workload NAME] [--seconds N] [--trace 0|1]
//!           [--sets N] [--out PATH]
//! bench_e2e --compare A.json B.json
//! ```
//!
//! Without `--workload` every workload runs; without `--trace` both metric
//! families are measured. Every metric is printed by name with its unit,
//! followed — per workload and family — by the one-line JSON object the
//! benchmark driver reads. The machine-readable report of the whole
//! invocation goes to `--out` (default `BENCH_e2e.json`). See `README.md`.

mod alloc;
mod layers;
mod metrics;
mod protocol;
mod report;
mod stats;
mod target;
mod trace;
mod workloads;

use protocol::{Mode, RunConfig};
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Measuring time when `--seconds` is not given; `BENCHMARK.json` commits
/// the same number as `run_seconds`.
const DEFAULT_SECONDS: f64 = 10.0;

struct Args {
    seed: u64,
    workload: Option<String>,
    seconds: f64,
    modes: Vec<Mode>,
    sets: usize,
    out: PathBuf,
    compare: Option<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 1,
        workload: None,
        seconds: DEFAULT_SECONDS,
        modes: vec![Mode::EndToEnd, Mode::Layers],
        sets: 1,
        out: PathBuf::from("BENCH_e2e.json"),
        compare: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--workload" => args.workload = Some(value()?),
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                args.modes = match value()?.as_str() {
                    "0" => vec![Mode::EndToEnd],
                    "1" => vec![Mode::Layers],
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--sets" => {
                args.sets = value()?.parse().map_err(|e| format!("--sets: {e}"))?;
                if args.sets == 0 {
                    return Err("--sets must be at least 1".to_string());
                }
            }
            "--out" => args.out = PathBuf::from(value()?),
            "--compare" => args.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return match report::compare(a, b) {
            Ok(_) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("bench_e2e: {e}");
                ExitCode::from(2)
            }
        };
    }
    let selected: Vec<&'static workloads::Workload> = match &args.workload {
        None => workloads::WORKLOADS.iter().collect(),
        Some(name) => match workloads::find(name) {
            Some(w) => vec![w],
            None => {
                eprintln!("bench_e2e: unknown workload {name}");
                return ExitCode::from(2);
            }
        },
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Checkpoint files and span traces stay inside the benchmark's directory:
    // where `cargo run` says it is now, else where it was when this was built.
    let scratch = std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
        .join("out");

    let mut all_correct = true;
    let mut sets = Vec::new();
    for set in 0..args.sets {
        if args.sets > 1 {
            println!("# set {} of {}", set + 1, args.sets);
        }
        let mut entries = Vec::new();
        for workload in &selected {
            // Shard workers plus the caller need a core each to run side by
            // side; with fewer, no scaling claim is made.
            let oversubscribed = workload.workers > 0 && nproc < workload.workers + 1;
            let mut runs = Vec::new();
            for &mode in &args.modes {
                let config = RunConfig {
                    seed: args.seed,
                    seconds: args.seconds,
                    mode,
                    scratch: scratch.clone(),
                };
                let outcome = protocol::run_workload(workload, &config);
                all_correct &= outcome.correct;
                report::print_human(workload, mode, &outcome, nproc);
                if oversubscribed {
                    println!("  note: oversubscribed (nproc {nproc}); no scaling is claimed");
                }
                println!("{}", report::driver_line(mode, &outcome));
                runs.push((mode, outcome));
            }
            entries.push(report::workload_entry(workload, oversubscribed, &runs));
        }
        sets.push(entries);
    }
    let text = report::report_file(args.seed, args.seconds, nproc, sets);
    if let Err(e) = std::fs::write(&args.out, text) {
        eprintln!("bench_e2e: cannot write {}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("bench_e2e: internal contradiction (see CONTRADICTION notes)");
        ExitCode::from(1)
    }
}
