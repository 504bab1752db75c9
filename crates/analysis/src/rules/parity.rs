//! `counter-parity`: audit cost/statistics counter sites against the
//! committed pairing map.
//!
//! The cost-unit figures every experiment reports are sums of per-site
//! charges, and the equivalence suites only catch a miscounted one *after*
//! a workload runs. This rule pins the charge sites at CI time, lexically:
//!
//! * every `charge(CostKind::X, …)` call and every `stats.field += …`
//!   mutation in the operator data plane (`exec`, `core`) is extracted as
//!   a site `(counter, file::fn)`;
//! * the observed site set must exactly equal the committed map in
//!   `crates/analysis/pairing.toml` — adding a charge without declaring it
//!   fails, as does a stale map entry;
//! * `charge(…)` with a non-literal `CostKind` defeats the audit and is
//!   rejected outright.

use super::{diag, Rule};
use crate::config::{under, COUNTER_SCOPE_PREFIXES};
use crate::diag::{Diagnostic, Severity};
use crate::pairing::PairingMap;
use crate::source::SourceFile;
use std::collections::BTreeMap;

pub struct CounterParity {
    map: PairingMap,
    /// counter → site (`file::fn`) → (first file, first line).
    observed: BTreeMap<String, BTreeMap<String, (String, u32)>>,
    /// Fingerprints for observed sites (for baseline addressing).
    fingerprints: BTreeMap<(String, String), String>,
}

impl CounterParity {
    pub fn new(map: PairingMap) -> Self {
        CounterParity {
            map,
            observed: BTreeMap::new(),
            fingerprints: BTreeMap::new(),
        }
    }
}

/// Extract every counter site in `file` as `(counter, fn, line)`.
fn extract_sites(file: &SourceFile) -> Vec<(String, String, u32)> {
    let toks = &file.tokens;
    let mut sites = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if file.scopes[i].in_test {
            continue;
        }
        let fn_name = file.scopes[i]
            .fn_name
            .clone()
            .unwrap_or_else(|| "<module>".to_string());

        // `charge(CostKind::X` — anything else after `charge(` is reported
        // as a non-literal kind by the caller (counter name `cost:?`).
        if t.is_ident("charge") && toks.get(i + 1).map(|p| p.is_punct('(')).unwrap_or(false) {
            // Skip `fn charge(` definitions — they forward, not charge.
            if i > 0 && toks[i - 1].is_ident("fn") {
                continue;
            }
            let kind = if toks
                .get(i + 2)
                .map(|k| k.is_ident("CostKind"))
                .unwrap_or(false)
                && toks.get(i + 3).map(|p| p.is_punct(':')).unwrap_or(false)
                && toks.get(i + 4).map(|p| p.is_punct(':')).unwrap_or(false)
            {
                toks.get(i + 5).map(|k| k.text.clone())
            } else {
                None
            };
            match kind {
                Some(k) => sites.push((format!("cost:{k}"), fn_name, t.line)),
                None => sites.push(("cost:?".to_string(), fn_name, t.line)),
            }
            continue;
        }

        // `stats . field += …`
        if t.is_ident("stats")
            && toks.get(i + 1).map(|p| p.is_punct('.')).unwrap_or(false)
            && toks
                .get(i + 2)
                .map(|f| matches!(f.kind, crate::lexer::TokenKind::Ident))
                .unwrap_or(false)
            && toks.get(i + 3).map(|p| p.is_punct('+')).unwrap_or(false)
            && toks.get(i + 4).map(|p| p.is_punct('=')).unwrap_or(false)
        {
            let field = toks[i + 2].text.clone();
            sites.push((format!("stat:{field}"), fn_name, t.line));
        }
    }
    sites
}

impl Rule for CounterParity {
    fn id(&self) -> &'static str {
        "counter-parity"
    }

    fn describe(&self) -> &'static str {
        "the cost/stat counter sites in exec and core must equal the set in pairing.toml"
    }

    fn severity(&self) -> Severity {
        Severity::Baseline
    }

    fn check_file(&mut self, file: &SourceFile, out: &mut Vec<Diagnostic>) {
        if !under(&file.rel_path, COUNTER_SCOPE_PREFIXES) {
            return;
        }
        for (counter, fn_name, line) in extract_sites(file) {
            if counter == "cost:?" {
                out.push(diag(
                    self.id(),
                    self.severity(),
                    file,
                    line,
                    format!(
                        "`charge(…)` in `{fn_name}` with a non-literal `CostKind` defeats \
                         the parity audit; charge a literal kind at each site"
                    ),
                ));
                continue;
            }
            let site = format!("{}::{}", file.rel_path, fn_name);
            self.fingerprints
                .entry((counter.clone(), site.clone()))
                .or_insert_with(|| file.fingerprint(line));
            self.observed
                .entry(counter)
                .or_default()
                .entry(site)
                .or_insert_with(|| (file.rel_path.clone(), line));
        }
    }

    fn finish(&mut self, out: &mut Vec<Diagnostic>) {
        let map_file = "crates/analysis/pairing.toml";
        // Observed sites missing from the map.
        for (counter, sites) in &self.observed {
            let entry = self.map.get(counter);
            for (site, (file, line)) in sites {
                let known = entry.is_some_and(|sites| sites.contains(site));
                if !known {
                    out.push(Diagnostic {
                        rule: self.id(),
                        severity: self.severity(),
                        file: file.clone(),
                        line: *line,
                        message: format!(
                            "counter `{counter}` charged at unmapped site `{site}`: declare \
                             it in {map_file}"
                        ),
                        fingerprint: self
                            .fingerprints
                            .get(&(counter.clone(), site.clone()))
                            .cloned()
                            .unwrap_or_default(),
                    });
                }
            }
        }
        // Stale map entries (site vanished or moved).
        for (counter, sites) in &self.map {
            let observed = self.observed.get(counter);
            for site in sites {
                let live = observed.map(|s| s.contains_key(site)).unwrap_or(false);
                if !live {
                    out.push(Diagnostic {
                        rule: self.id(),
                        severity: self.severity(),
                        file: map_file.to_string(),
                        line: 1,
                        message: format!(
                            "stale pairing entry: counter `{counter}` is no longer charged \
                             at `{site}` — remove or update the map"
                        ),
                        fingerprint: format!("stale:{counter}:{site}"),
                    });
                }
            }
        }
    }
}

/// Render `pairing.toml` from the workspace's current sites (the
/// `dump-pairing` subcommand). Review the diff against the committed map
/// before replacing it: every changed line is a counter whose meaning moved.
pub fn dump_pairing_skeleton(files: &[SourceFile]) -> String {
    use std::fmt::Write as _;
    let mut observed: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for file in files {
        if !under(&file.rel_path, COUNTER_SCOPE_PREFIXES) {
            continue;
        }
        for (counter, fn_name, _) in extract_sites(file) {
            let site = format!("{}::{}", file.rel_path, fn_name);
            let v = observed.entry(counter).or_default();
            if !v.contains(&site) {
                v.push(site);
            }
        }
    }
    let mut out =
        String::from("# pairing.toml as the code stands — review the diff before committing.\n");
    for (counter, sites) in observed {
        let _ = write!(out, "\n[[counter]]\nname = \"{counter}\"\nsites = [\n");
        for s in sites {
            let _ = writeln!(out, "  \"{s}\",");
        }
        out.push_str("]\n");
    }
    out
}
