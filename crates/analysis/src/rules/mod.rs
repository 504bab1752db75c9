//! The rule engine.
//!
//! # Adding a rule
//!
//! 1. Create `src/rules/<name>.rs` with a type implementing [`Rule`].
//!    [`Rule::check_file`] is called once per scanned [`SourceFile`]
//!    (alphabetical path order) and emits that file's findings.
//! 2. Pick a stable kebab-case id (it appears in waiver comments, the
//!    baseline and CI output) and a [`Severity`]:
//!    * `Deny` for invariants with an in-code escape hatch the rule itself
//!      recognises (`// INVARIANT:`, `// SAFETY:`) or none at all — these
//!      can never be waived or baselined.
//!    * `Baseline` for heuristics and migration rules where pre-existing
//!      sites are pinned in `baseline.toml` and new ones fail.
//! 3. Register it in [`all_rules`].
//! 4. Add a seeded-violation fixture under `tests/fixtures/violations/`
//!    and a passing construct in `tests/fixtures/clean/` — the fixture
//!    suite fails if a rule stops detecting its own catalog entry.
//!
//! Scope decisions (which trees a rule audits) live in [`crate::config`],
//! not in the rule, so reach changes review as config diffs.

use crate::diag::{Diagnostic, Severity};
use crate::source::SourceFile;

mod determinism;
mod hasher;
mod locks;
mod panic_hygiene;
mod unsafety;

/// One lint pass.
pub trait Rule {
    /// Stable kebab-case identifier.
    fn id(&self) -> &'static str;
    /// One-line description for `--list` output and docs.
    fn describe(&self) -> &'static str;
    fn severity(&self) -> Severity;
    /// Visit one file.
    fn check_file(&mut self, file: &SourceFile, out: &mut Vec<Diagnostic>);
}

/// Construct the full rule catalog.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(hasher::DefaultHasher),
        Box::new(determinism::Determinism),
        Box::new(panic_hygiene::PanicHygiene),
        Box::new(unsafety::UnsafeAudit),
        Box::new(locks::LockOrder),
    ]
}

/// Shared constructor keeping fingerprints consistent across rules.
pub(crate) fn diag(
    rule: &'static str,
    severity: Severity,
    file: &SourceFile,
    line: u32,
    message: String,
) -> Diagnostic {
    Diagnostic {
        rule,
        severity,
        file: file.rel_path.clone(),
        line,
        message,
        fingerprint: file.fingerprint(line),
    }
}
