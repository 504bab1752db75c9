//! CLI for the in-repo static-analysis pass.
//!
//! ```text
//! cargo run -p jit-analysis -- check                 # the CI gate
//! cargo run -p jit-analysis -- check --fix-baseline  # pin current findings
//! cargo run -p jit-analysis -- rules                 # list the catalog
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cmd = None;
    let mut fix_baseline = false;
    let mut root: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "check" | "rules" if cmd.is_none() => cmd = Some(a.clone()),
            "--fix-baseline" => fix_baseline = true,
            "--root" => root = it.next().map(PathBuf::from),
            other => {
                eprintln!("unknown argument `{other}`");
                return usage();
            }
        }
    }
    let Some(cmd) = cmd else {
        return usage();
    };
    let root = match root.or_else(find_workspace_root) {
        Some(r) => r,
        None => {
            eprintln!("could not find the workspace root (no Cargo.toml with [workspace] above the current directory); pass --root");
            return ExitCode::FAILURE;
        }
    };

    match cmd.as_str() {
        "rules" => {
            for rule in jit_analysis::rules::all_rules() {
                println!(
                    "{:<16} {:<9} {}",
                    rule.id(),
                    rule.severity().to_string(),
                    rule.describe()
                );
            }
            ExitCode::SUCCESS
        }
        "check" => {
            let report = jit_analysis::run(&root, &jit_analysis::Options { fix_baseline });
            for f in &report.failures {
                println!("{f}");
            }
            for s in &report.stale_baseline {
                println!("baseline.toml: stale entry — {s}");
            }
            for e in &report.errors {
                println!("error: {e}");
            }
            let waived: usize = report.waived.values().sum();
            println!(
                "jit-analysis: {} files, {} violation(s), {} waived, {} baselined{}",
                report.files_scanned,
                report.failures.len(),
                waived,
                report.baseline_covered,
                if report.stale_baseline.is_empty() {
                    String::new()
                } else {
                    format!(", {} stale baseline entr(ies)", report.stale_baseline.len())
                }
            );
            for (rule, n) in &report.waived {
                println!("  waivers[{rule}] = {n}");
            }
            if let Some(p) = &report.wrote_baseline {
                println!("wrote {}", p.display());
            }
            if report.ok() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        _ => usage(),
    }
}

fn usage() -> ExitCode {
    eprintln!("usage: jit-analysis <check [--fix-baseline] | rules> [--root DIR]");
    ExitCode::FAILURE
}

/// Walk up from the current directory to the first `Cargo.toml` declaring
/// `[workspace]`.
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
