//! `jit-analysis` — the workspace's own static-analysis pass.
//!
//! The engine's correctness story rests on invariants no compiler checks:
//! deterministic replay for checkpoint/recovery, provably unreachable
//! panic sites, and the hot-path hashing/allocation discipline
//! PRs 8–9 established. The equivalence suites catch violations only
//! after a workload runs; this pass catches them at CI time, lexically,
//! with zero external dependencies (the build environment has no
//! crates.io access, so dylint/clippy plugins are not an option).
//!
//! ## Architecture
//!
//! * [`lexer`] — hand-rolled Rust tokenizer (comments kept as trivia).
//! * [`source`] — per-file scope model: enclosing `fn`, test regions,
//!   annotation/waiver lookup, line fingerprints.
//! * [`rules`] — the rule engine and catalog; see the module docs for how
//!   to add a rule.
//! * [`baseline`] — the committed allowlist pinning pre-existing accepted
//!   findings of baseline-severity rules.
//! * [`config`] — scan roots and per-rule scopes (code, so reach changes
//!   review as diffs).
//!
//! ## Escape hatches, in order of preference
//!
//! 1. **Fix the code.**
//! 2. **Rule annotations** (deny rules): `// INVARIANT:` for
//!    panic-hygiene, `// SAFETY:` for unsafe-audit — proofs, not waivers.
//! 3. **Inline waiver** (baseline rules only):
//!    `// jit-analysis: allow(rule-id): justification` on the line or the
//!    two lines above. Unknown rule ids, missing justifications and
//!    waivers that match nothing are themselves violations.
//! 4. **Baseline entry** (baseline rules only): pinned in
//!    `crates/analysis/baseline.toml` via `--fix-baseline`.

pub mod baseline;
pub mod config;
pub mod diag;
pub mod lexer;
pub mod rules;
pub mod source;

use diag::{Diagnostic, Severity};
use source::SourceFile;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Run options.
#[derive(Debug, Default, Clone)]
pub struct Options {
    /// Rewrite `baseline.toml` from current baseline-rule findings
    /// (preserving justifications of entries that still match).
    pub fix_baseline: bool,
}

/// The outcome of a check run.
#[derive(Debug, Default)]
pub struct Report {
    /// Violations that fail the check, sorted by (file, line).
    pub failures: Vec<Diagnostic>,
    /// Waived findings per rule id.
    pub waived: BTreeMap<String, usize>,
    /// Findings absorbed by the committed baseline.
    pub baseline_covered: usize,
    /// Stale baseline entries (fail the check unless `--fix-baseline`).
    pub stale_baseline: Vec<String>,
    /// Files scanned.
    pub files_scanned: usize,
    /// Where the regenerated baseline was written, if `fix_baseline`.
    pub wrote_baseline: Option<PathBuf>,
    /// Configuration / IO errors (unreadable source tree, unparseable
    /// baseline, bad waivers) — always failures.
    pub errors: Vec<String>,
}

impl Report {
    /// Did the check pass?
    pub fn ok(&self) -> bool {
        self.failures.is_empty() && self.stale_baseline.is_empty() && self.errors.is_empty()
    }
}

/// Collect the `.rs` files under the configured scan roots, sorted.
pub fn scan_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for sr in config::SCAN_ROOTS {
        let dir = root.join(sr);
        if dir.is_dir() {
            walk(&dir, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            walk(&path, out)?;
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Load + parse every scanned file. Public for the fixture tests.
pub fn load_sources(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    scan_files(root)?
        .iter()
        .map(|p| SourceFile::load(root, p))
        .collect()
}

/// Run all rules over `sources` (no baseline/waiver handling) — the raw
/// diagnostic stream, used by the fixture tests and [`run`].
pub fn run_rules(sources: &[SourceFile]) -> Vec<Diagnostic> {
    let mut rules = rules::all_rules();
    let mut diags = Vec::new();
    for rule in &mut rules {
        for file in sources {
            rule.check_file(file, &mut diags);
        }
    }
    diags
}

/// The full check: scan, run rules, apply waivers and the baseline.
pub fn run(root: &Path, opts: &Options) -> Report {
    let mut report = Report::default();

    let sources = match load_sources(root) {
        Ok(s) => s,
        Err(e) => {
            report.errors.push(format!("scanning workspace: {e}"));
            return report;
        }
    };
    report.files_scanned = sources.len();
    let by_path: BTreeMap<&str, &SourceFile> =
        sources.iter().map(|s| (s.rel_path.as_str(), s)).collect();

    let diags = run_rules(&sources);

    // Waiver application. Track which waivers matched so unused ones can be
    // flagged (a waiver that waives nothing is a stale claim).
    let known_rules: Vec<&'static str> = rules::all_rules().iter().map(|r| r.id()).collect();
    let mut used_waivers: BTreeMap<(String, u32), usize> = BTreeMap::new();
    let mut deny_failures = Vec::new();
    let mut baseline_candidates = Vec::new();
    for d in diags {
        let waiver = by_path
            .get(d.file.as_str())
            .and_then(|f| f.waiver_for(d.rule, d.line));
        match (d.severity, waiver) {
            (Severity::Deny, Some(w)) => {
                // The waiver is itself a violation; the finding stands too.
                deny_failures.push(Diagnostic {
                    message: format!(
                        "rule `{}` is deny-severity: waivers are not permitted (fix the \
                         site or use the rule's own annotation)",
                        d.rule
                    ),
                    line: w.line,
                    fingerprint: String::new(),
                    ..d.clone()
                });
                deny_failures.push(d);
            }
            (Severity::Deny, None) => deny_failures.push(d),
            (Severity::Baseline, Some(w)) => {
                if w.justification.trim().is_empty() {
                    deny_failures.push(Diagnostic {
                        message: format!(
                            "waiver for `{}` has no justification — write why the site \
                             is accepted",
                            d.rule
                        ),
                        ..d
                    });
                } else {
                    *used_waivers.entry((d.file.clone(), w.line)).or_insert(0) += 1;
                    *report.waived.entry(d.rule.to_string()).or_insert(0) += 1;
                }
            }
            (Severity::Baseline, None) => baseline_candidates.push(d),
        }
    }

    // Waiver hygiene: unknown rule ids and waivers that matched nothing.
    for f in &sources {
        for w in &f.waivers {
            if !known_rules.contains(&w.rule.as_str()) {
                report.errors.push(format!(
                    "{}:{}: waiver for unknown rule `{}` (known: {})",
                    f.rel_path,
                    w.line,
                    w.rule,
                    known_rules.join(", ")
                ));
            } else if !used_waivers.contains_key(&(f.rel_path.clone(), w.line)) {
                report.errors.push(format!(
                    "{}:{}: waiver for `{}` matches no finding — remove it",
                    f.rel_path, w.line, w.rule
                ));
            }
        }
    }

    // Baseline.
    let baseline_path = root.join("crates/analysis/baseline.toml");
    let previous = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => match baseline::parse(&text) {
            Ok(entries) => entries,
            Err(e) => {
                report.errors.push(e);
                Vec::new()
            }
        },
        Err(_) => Vec::new(), // absent baseline = empty baseline
    };

    if opts.fix_baseline {
        let fresh = baseline::from_findings(&baseline_candidates, &previous);
        let text = baseline::render(&fresh);
        match std::fs::write(&baseline_path, text) {
            Ok(()) => report.wrote_baseline = Some(baseline_path),
            Err(e) => report
                .errors
                .push(format!("writing {}: {e}", baseline_path.display())),
        }
        report.baseline_covered = baseline_candidates.len();
    } else {
        let outcome = baseline::apply(&previous, baseline_candidates);
        report.baseline_covered = outcome.covered;
        report.stale_baseline = outcome.stale;
        deny_failures.extend(outcome.uncovered);
    }

    deny_failures.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    report.failures = deny_failures;
    report
}
