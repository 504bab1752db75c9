//! What gets scanned, and each rule's scope and severity.
//!
//! The scan set and module classifications are code, not configuration
//! files, on purpose: changing them shows up in review as a diff to this
//! crate, next to the rule whose reach it changes.

/// Crate `src/` trees scanned by the pass. `crates/compat/**` is excluded:
/// those are offline API stubs of external crates (serde, rand, criterion,
/// proptest) — vendored surface, not this repo's data plane.
pub const SCAN_ROOTS: &[&str] = &[
    "src",
    "crates/types/src",
    "crates/metrics/src",
    "crates/stream/src",
    "crates/exec/src",
    "crates/core/src",
    "crates/plan/src",
    "crates/runtime/src",
    "crates/durable/src",
    "crates/engine/src",
    "crates/serve/src",
    "crates/harness/src",
    "crates/analysis/src",
];

/// Data-plane trees where the default (SipHash) hasher is banned
/// (rule `default-hasher`): maps here are probed per arriving tuple, and
/// PR 8 measured the SipHash tax at real multiples. Keys come from the data
/// plane of a trusted process, so `FastMap` / `FastSet` apply.
pub const DATA_PLANE_PREFIXES: &[&str] = &[
    "crates/types/src",
    "crates/exec/src",
    "crates/core/src",
    "crates/runtime/src",
    "crates/serve/src",
];

/// Trees allowed to read wall clocks / OS randomness (rule `determinism`).
/// Everything else must be deterministic so checkpoint/recovery replay and
/// the shard-equivalence suites stay exact.
pub const DETERMINISM_ALLOWED_PREFIXES: &[&str] = &[
    // Wall-clock throughput reporting is the crate's purpose.
    "crates/metrics/src",
    // Checkpoint writes record wall-clock duration as an operational stat
    // (never fed back into the data plane).
    "crates/durable/src/checkpoint.rs",
];

/// Trees audited for lock/channel discipline (rule `lock-order`): the
/// sharded backend, where the PR 1 deadlock class lived.
pub const LOCK_SCOPE_PREFIXES: &[&str] =
    &["crates/runtime/src", "crates/exec/src", "crates/serve/src"];

/// Is `rel_path` under any of `prefixes`?
pub fn under(rel_path: &str, prefixes: &[&str]) -> bool {
    prefixes
        .iter()
        .any(|p| rel_path == *p || rel_path.starts_with(&format!("{p}/")))
}

/// Is `rel_path` library code (rule `panic-hygiene` scope)? Binary targets
/// (`src/bin/**`, `main.rs`) may exit noisily; libraries must not.
pub fn is_library_code(rel_path: &str) -> bool {
    !rel_path.contains("/bin/") && !rel_path.ends_with("main.rs")
}
