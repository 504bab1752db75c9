//! Regenerate every figure of the paper's evaluation (Figures 10–17).
//!
//! Usage:
//!
//! ```text
//! cargo run -p jit-harness --release --bin run_figures [-- --scale 0.25 --seed 1 --out results/ --figure fig10]
//! ```
//!
//! * `--scale S`   application-time scale: 1.0 = 60 minutes per point, the
//!   paper's 5-hour runs correspond to `--scale 5.0` (default 0.1).
//! * `--seed N`    workload RNG seed (default 20080415).
//! * `--out DIR`   also write per-figure CSV and JSON under `DIR`.
//! * `--figure ID` run a single figure (`fig10` … `fig17`) instead of all.
//! * `--doe`       additionally run the DOE baseline.
//!
//! Exits 1 if any figure violates its expectations, 2 on a bad argument.
#![expect(clippy::expect_used, reason = "a binary may exit with a message")]
#![expect(
    clippy::print_stdout,
    reason = "the figure tables are this binary's output"
)]

use jit_harness::figures::{check_expectations, run_figure, FigureSpec};
use jit_harness::table_out::{render_csv, render_table};
use std::path::PathBuf;
use std::str::FromStr;

const USAGE: &str = "run_figures [--scale S] [--seed N] [--out DIR] [--figure figNN] [--doe]";

struct Options {
    scale: f64,
    seed: u64,
    out_dir: Option<PathBuf>,
    only: Option<String>,
    with_doe: bool,
    help: bool,
}

/// The value after `flag`, parsed; a missing or malformed value is an error.
fn value<T: FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
    what: &str,
) -> Result<T, String> {
    let raw = args.next().ok_or_else(|| format!("{flag} needs {what}"))?;
    raw.parse()
        .map_err(|_| format!("{flag} needs {what}, got `{raw}`"))
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut options = Options {
        scale: 0.1,
        seed: 20080415,
        out_dir: None,
        only: None,
        with_doe: false,
        help: false,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => options.scale = value(&mut args, "--scale", "a number")?,
            "--seed" => options.seed = value(&mut args, "--seed", "an integer")?,
            "--out" => options.out_dir = Some(value(&mut args, "--out", "a path")?),
            "--figure" => options.only = Some(value(&mut args, "--figure", "an id")?),
            "--doe" => options.with_doe = true,
            "--help" | "-h" => options.help = true,
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(options)
}

fn main() {
    let options = parse_args(std::env::args().skip(1)).unwrap_or_else(|message| {
        eprintln!("{message}\nusage: {USAGE}");
        std::process::exit(2);
    });
    if options.help {
        println!("{USAGE}");
        return;
    }
    let figures: Vec<FigureSpec> = match &options.only {
        Some(id) => vec![FigureSpec::by_id(id).unwrap_or_else(|| {
            eprintln!("unknown figure {id}; expected fig10..fig17");
            std::process::exit(2);
        })],
        None => FigureSpec::all(),
    };
    if let Some(dir) = &options.out_dir {
        std::fs::create_dir_all(dir).expect("cannot create output directory");
    }
    println!(
        "Reproducing {} figure(s) at duration scale {} (1.0 = 60 min of application time; the paper uses 5.0)\n",
        figures.len(),
        options.scale
    );
    let mut all_ok = true;
    for mut spec in figures {
        if options.with_doe {
            spec.base = spec.base.clone().with_doe();
        }
        let result = run_figure(&spec, options.scale, options.seed);
        println!("{}", render_table(&result));
        let violations = check_expectations(&result, options.scale);
        if violations.is_empty() {
            if options.scale >= jit_harness::figures::MEMORY_CHECK_MIN_SCALE {
                println!(
                    "  ✓ expectations hold (JIT ≤ REF in cost and memory, result counts agree)\n"
                );
            } else {
                println!(
                    "  ✓ expectations hold (JIT ≤ REF in cost, result counts agree; memory not \
                     compared below scale {} — no-expiry regime)\n",
                    jit_harness::figures::MEMORY_CHECK_MIN_SCALE
                );
            }
        } else {
            all_ok = false;
            for v in &violations {
                println!("  ✗ {v}");
            }
            println!();
        }
        if let Some(dir) = &options.out_dir {
            std::fs::write(dir.join(format!("{}.csv", result.id)), render_csv(&result))
                .expect("cannot write CSV");
            std::fs::write(
                dir.join(format!("{}.json", result.id)),
                serde_json::to_string_pretty(&result).expect("figure result serialises"),
            )
            .expect("cannot write JSON");
        }
    }
    if !all_ok {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn malformed_arguments_are_errors_not_panics() {
        let parse = |args: &[&str]| parse_args(args.iter().map(|a| a.to_string()));
        let options = parse(&["--scale", "0.3", "--seed", "7"]).expect("valid arguments");
        assert_eq!((options.scale, options.seed), (0.3, 7));
        for (args, error) in [
            (&["--scale", "abc"][..], "--scale needs a number, got `abc`"),
            (&["--seed", "x"], "--seed needs an integer, got `x`"),
            (&["--figure", "fig10", "--out"], "--out needs a path"),
            (&["--scael", "0.3"], "unknown argument: --scael"),
        ] {
            assert_eq!(parse(args).err().as_deref(), Some(error), "{args:?}");
        }
    }
}
