//! Fixture suite for the static-analysis pass.
//!
//! Each seeded violation under `tests/fixtures/violations/` must be
//! detected by its rule, the clean fixture must produce zero diagnostics
//! in every audited scope, the baseline must round-trip
//! (`--fix-baseline` → green → stale on fix), and the real workspace must
//! be green — so `cargo test` enforces the same gate CI does.

use jit_analysis::diag::Diagnostic;
use jit_analysis::source::SourceFile;
use jit_analysis::{run, run_rules, Options};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

/// Run the full rule catalog over one fixture presented at `rel_path`.
fn check_at(rel_path: &str, src: &str) -> Vec<Diagnostic> {
    let file = SourceFile::parse(rel_path, src);
    run_rules(&[file])
}

#[test]
fn hasher_violation_detected_in_data_plane_only() {
    let src = fixture("violations/hasher.rs");
    let diags = check_at("crates/exec/src/fx.rs", &src);
    assert!(
        diags.iter().any(|d| d.rule == "default-hasher"),
        "expected a default-hasher finding, got {diags:?}"
    );
    // The same file outside the data plane is not the hasher rule's business.
    let diags = check_at("crates/harness/src/fx.rs", &src);
    assert!(diags.iter().all(|d| d.rule != "default-hasher"));
}

#[test]
fn determinism_violation_detected_outside_allowed_trees() {
    let src = fixture("violations/determinism.rs");
    // The figure harness measures in cost units: no clock there either.
    for rel in ["crates/exec/src/fx.rs", "crates/harness/src/fx.rs"] {
        let diags = check_at(rel, &src);
        assert!(
            diags.iter().any(|d| d.rule == "determinism"),
            "expected a determinism finding at {rel}, got {diags:?}"
        );
    }
    // Metrics may read wall clocks.
    let diags = check_at("crates/metrics/src/fx.rs", &src);
    assert!(diags.iter().all(|d| d.rule != "determinism"));
}

#[test]
fn panic_hygiene_violations_detected_in_library_code_only() {
    let src = fixture("violations/panic_hygiene.rs");
    let diags = check_at("crates/exec/src/fx.rs", &src);
    let hits: Vec<_> = diags.iter().filter(|d| d.rule == "panic-hygiene").collect();
    assert_eq!(hits.len(), 2, "unwrap + panic! expected, got {diags:?}");
    // Binaries may exit noisily.
    let diags = check_at("crates/exec/src/bin/fx/main.rs", &src);
    assert!(diags.iter().all(|d| d.rule != "panic-hygiene"));
}

#[test]
fn unsafe_violation_detected_everywhere() {
    let src = fixture("violations/unsafety.rs");
    for rel in ["crates/exec/src/fx.rs", "crates/harness/src/fx.rs"] {
        let diags = check_at(rel, &src);
        assert!(
            diags.iter().any(|d| d.rule == "unsafe-audit"),
            "expected an unsafe-audit finding at {rel}, got {diags:?}"
        );
    }
}

#[test]
fn lock_violations_detected_in_runtime_scope() {
    let src = fixture("violations/locks.rs");
    let diags = check_at("crates/runtime/src/fx.rs", &src);
    let hits: Vec<_> = diags.iter().filter(|d| d.rule == "lock-order").collect();
    assert_eq!(
        hits.len(),
        2,
        "unbounded channel + nested lock expected, got {diags:?}"
    );
    // The stream crate is outside the lock-discipline scope.
    let diags = check_at("crates/stream/src/fx.rs", &src);
    assert!(diags.iter().all(|d| d.rule != "lock-order"));
}

#[test]
fn clean_fixture_passes_every_scope() {
    let src = fixture("clean/clean.rs");
    for rel in [
        "crates/exec/src/clean.rs",
        "crates/runtime/src/clean.rs",
        "crates/core/src/clean.rs",
    ] {
        let diags = check_at(rel, &src);
        assert!(diags.is_empty(), "clean fixture at {rel} got {diags:?}");
    }
}

#[test]
fn baseline_round_trips() {
    // A throwaway workspace with one baseline-severity violation.
    let root = std::env::temp_dir().join(format!("jit-analysis-rt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let src_dir = root.join("crates/exec/src");
    std::fs::create_dir_all(&src_dir).expect("temp dirs");
    std::fs::create_dir_all(root.join("crates/analysis")).expect("temp dirs");
    std::fs::write(src_dir.join("lib.rs"), fixture("violations/hasher.rs")).expect("write");

    // Unpinned, the violation fails the check.
    let report = run(&root, &Options::default());
    assert!(!report.ok(), "expected failures, got {report:?}");

    // `--fix-baseline` pins it…
    let report = run(&root, &Options { fix_baseline: true });
    assert!(report.wrote_baseline.is_some());

    // …and the next plain check is green, with the findings absorbed.
    let report = run(&root, &Options::default());
    assert!(report.ok(), "expected green, got {report:?}");
    assert!(report.baseline_covered >= 1);

    // Fixing the code makes the pinned entries stale — the check fails
    // until the baseline is regenerated.
    std::fs::write(src_dir.join("lib.rs"), "pub fn fixed() {}\n").expect("write");
    let report = run(&root, &Options::default());
    assert!(!report.ok());
    assert!(!report.stale_baseline.is_empty());

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn workspace_is_green() {
    // The same gate CI runs: the committed workspace, waivers and baseline
    // included, must pass. Deny-severity rules carry no waivers at all by
    // construction — the run fails if one appears.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let report = run(&root, &Options::default());
    assert!(
        report.ok(),
        "workspace check failed: {:?} {:?} {:?}",
        report.failures,
        report.stale_baseline,
        report.errors
    );
    assert!(report.files_scanned >= 80);
}
