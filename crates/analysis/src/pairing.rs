//! The counter pairing map (`crates/analysis/pairing.toml`).
//!
//! The counter-parity rule audits every cost-charge (`charge(CostKind::X)`)
//! and statistics-counter mutation (`stats.field += …`) site in the
//! operator data plane against this committed map. Each known counter lists
//! its sanctioned sites as `"file::fn"`, and the rule enforces set equality
//! per counter: a charge at an unmapped site fails (a counter that starts
//! being charged somewhere new changes what every cost figure means), and
//! so does a mapped site the code no longer charges.

use std::collections::{BTreeMap, BTreeSet};

/// The whole map: counter name (`cost:ProbePair`, `stat:probe_pairs`) → its
/// sanctioned sites (`"file::fn"`).
pub type PairingMap = BTreeMap<String, BTreeSet<String>>;

/// Parse `pairing.toml` text (strict hand-parsed TOML subset: `[[counter]]`
/// tables with `name` and a `sites` string array).
pub fn parse(text: &str) -> Result<PairingMap, String> {
    let mut map = PairingMap::new();
    let mut cur_name: Option<String> = None;
    let mut cur = BTreeSet::new();
    let mut in_sites = false;

    let mut flush =
        |name: &mut Option<String>, entry: &mut BTreeSet<String>| -> Result<(), String> {
            if let Some(n) = name.take() {
                if map.insert(n.clone(), std::mem::take(entry)).is_some() {
                    return Err(format!("pairing.toml: duplicate counter `{n}`"));
                }
            }
            Ok(())
        };

    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let err = |msg: &str| format!("pairing.toml line {}: {}", idx + 1, msg);
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if in_sites {
            if line == "]" {
                in_sites = false;
                continue;
            }
            let item = line.trim_end_matches(',').trim();
            let site = unquote(item).ok_or_else(|| err("expected quoted site string"))?;
            if !site.contains("::") || site.contains('=') {
                return Err(err("expected `file::fn`"));
            }
            if !cur.insert(site) {
                return Err(err("duplicate site"));
            }
            continue;
        }
        if line == "[[counter]]" {
            flush(&mut cur_name, &mut cur)?;
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| err("expected `key = value`"))?;
        match key.trim() {
            "name" => {
                if cur_name.is_some() {
                    return Err(err("second `name` in one [[counter]] table"));
                }
                cur_name = Some(unquote(value).ok_or_else(|| err("expected quoted string"))?);
            }
            "sites" => {
                if value.trim() != "[" {
                    return Err(err("sites must open a multi-line array: `sites = [`"));
                }
                in_sites = true;
            }
            other => return Err(err(&format!("unknown key `{other}`"))),
        }
    }
    if in_sites {
        return Err("pairing.toml: unterminated sites array".into());
    }
    flush(&mut cur_name, &mut cur)?;
    Ok(map)
}

fn unquote(v: &str) -> Option<String> {
    v.trim()
        .strip_prefix('"')?
        .strip_suffix('"')
        .map(str::to_string)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# comment
[[counter]]
name = "cost:ProbePair"
sites = [
  "crates/exec/src/join.rs::process",
  "crates/core/src/jit_join.rs::restore_suspended",
]

[[counter]]
name = "cost:TaskDispatch"
sites = [
  "crates/exec/src/executor.rs::run_cascade",
]
"#;

    #[test]
    fn parses_sample() {
        let map = parse(SAMPLE).expect("parses");
        assert_eq!(map.len(), 2);
        let pp = &map["cost:ProbePair"];
        assert!(pp.contains("crates/exec/src/join.rs::process"));
        assert!(pp.contains("crates/core/src/jit_join.rs::restore_suspended"));
        assert_eq!(map["cost:TaskDispatch"].len(), 1);
    }

    #[test]
    fn rejects_malformed_site() {
        let bad = "[[counter]]\nname = \"c\"\nsites = [\n\"f::g = shared\",\n]\n";
        assert!(parse(bad).is_err());
    }

    #[test]
    fn rejects_duplicate_counter() {
        let bad =
            "[[counter]]\nname = \"c\"\nsites = [\n]\n[[counter]]\nname = \"c\"\nsites = [\n]\n";
        assert!(parse(bad).is_err());
    }
}
