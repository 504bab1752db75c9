//! `determinism`: no wall clocks or OS randomness outside sanctioned
//! modules.
//!
//! Checkpoint/recovery replay and the shard-equivalence suites assert
//! *byte-identical* reruns; one `Instant::now()` influencing data-plane
//! behaviour breaks them non-reproducibly. Wall-clock reads are confined to
//! `metrics` (throughput reporting) and `durable::checkpoint` (operational
//! stats); the figure harness measures in cost units and is held to the
//! rule too. Randomness must come from the seeded `rand` compat crate,
//! never `thread_rng`/entropy.

use super::{diag, Rule};
use crate::config::{under, DETERMINISM_ALLOWED_PREFIXES};
use crate::diag::{Diagnostic, Severity};
use crate::source::SourceFile;

pub struct Determinism;

impl Rule for Determinism {
    fn id(&self) -> &'static str {
        "determinism"
    }

    fn describe(&self) -> &'static str {
        "no Instant::now/SystemTime/thread_rng outside metrics, durable::checkpoint"
    }

    fn severity(&self) -> Severity {
        Severity::Deny
    }

    fn check_file(&mut self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        if under(&file.rel_path, DETERMINISM_ALLOWED_PREFIXES) {
            return;
        }
        let toks = &file.tokens;
        for (i, t) in toks.iter().enumerate() {
            if file.scopes[i].in_test {
                continue;
            }
            // `Instant::now(` — the type alone may appear in plumbing that
            // *transports* a caller-provided instant, which is fine.
            let bad = if t.is_ident("Instant")
                && toks.get(i + 1).map(|p| p.is_punct(':')).unwrap_or(false)
                && toks.get(i + 2).map(|p| p.is_punct(':')).unwrap_or(false)
                && toks.get(i + 3).map(|p| p.is_ident("now")).unwrap_or(false)
            {
                Some("Instant::now()")
            } else if t.is_ident("SystemTime") {
                Some("SystemTime")
            } else if t.is_ident("thread_rng") {
                Some("thread_rng")
            } else if t.is_ident("from_entropy") {
                Some("from_entropy")
            } else {
                None
            };
            if let Some(what) = bad {
                out.push(diag(
                    self.id(),
                    self.severity(),
                    file,
                    t.line,
                    format!(
                        "`{what}` breaks deterministic replay; use the executor clock / a \
                         seeded rng, or move the timing into metrics"
                    ),
                ));
            }
        }
    }
}
