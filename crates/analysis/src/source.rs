//! Per-file source model: token stream plus the scope facts rules need.
//!
//! A single pass over the token stream computes, for every token, the
//! innermost enclosing function name and whether the token sits inside
//! test-only code (`#[cfg(test)] mod …`, `#[test]` / `#[cfg(test)]`
//! functions). Comments are indexed by line so rules can look for
//! `// SAFETY:` / `// INVARIANT:` annotations and waivers near a site.

use crate::lexer::{lex, Comment, Token};
use std::collections::BTreeMap;
use std::path::Path;

/// A waiver comment: `// jit-analysis: allow(rule-id): justification`.
#[derive(Debug, Clone)]
pub struct Waiver {
    pub rule: String,
    pub justification: String,
    pub line: u32,
}

/// One scanned file.
pub struct SourceFile {
    /// Workspace-relative path with `/` separators (stable across hosts —
    /// used in diagnostics and the baseline).
    pub rel_path: String,
    pub tokens: Vec<Token>,
    /// Per-token scope facts, same length as `tokens`.
    pub scopes: Vec<ScopeInfo>,
    /// Comments grouped by starting line.
    comments_by_line: BTreeMap<u32, Vec<Comment>>,
    /// Lines covered by a comment that spans multiple lines (block comments):
    /// maps every covered line to the comment's text.
    block_cover: BTreeMap<u32, String>,
    /// Parsed waivers.
    pub waivers: Vec<Waiver>,
    /// Raw source lines (for fingerprints).
    pub lines: Vec<String>,
}

/// Scope facts for one token.
#[derive(Debug, Clone, Default)]
pub struct ScopeInfo {
    /// Innermost enclosing `fn` name, if any.
    pub fn_name: Option<String>,
    /// Inside `#[cfg(test)]` module or `#[test]`-attributed item.
    pub in_test: bool,
}

impl SourceFile {
    /// Lex and scope-scan `src`.
    pub fn parse(rel_path: &str, src: &str) -> SourceFile {
        let lexed = lex(src);
        let scopes = compute_scopes(&lexed.tokens);
        let mut comments_by_line: BTreeMap<u32, Vec<Comment>> = BTreeMap::new();
        let mut block_cover = BTreeMap::new();
        let mut waivers = Vec::new();
        for c in &lexed.comments {
            for w in parse_waivers(c) {
                waivers.push(w);
            }
            let span = c.text.matches('\n').count() as u32;
            for l in c.line..=c.line + span {
                block_cover.insert(l, c.text.clone());
            }
            comments_by_line.entry(c.line).or_default().push(c.clone());
        }
        SourceFile {
            rel_path: rel_path.to_string(),
            tokens: lexed.tokens,
            scopes,
            comments_by_line,
            block_cover,
            waivers,
            lines: src.lines().map(str::to_string).collect(),
        }
    }

    /// Read and parse a file from disk; `root` anchors the relative path.
    pub fn load(root: &Path, path: &Path) -> std::io::Result<SourceFile> {
        let src = std::fs::read_to_string(path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        Ok(SourceFile::parse(&rel, &src))
    }

    /// Is any comment text containing `needle` present on `line` or within
    /// the `lookback` lines directly above it? Block comments count on
    /// every line they cover.
    pub fn annotated_near(&self, line: u32, needle: &str, lookback: u32) -> bool {
        let from = line.saturating_sub(lookback);
        for l in from..=line {
            if let Some(text) = self.block_cover.get(&l) {
                if text.contains(needle) {
                    return true;
                }
            }
            if let Some(cs) = self.comments_by_line.get(&l) {
                if cs.iter().any(|c| c.text.contains(needle)) {
                    return true;
                }
            }
        }
        false
    }

    /// Find a waiver for `rule` on `line` or up to two lines above.
    pub fn waiver_for(&self, rule: &str, line: u32) -> Option<&Waiver> {
        self.waivers
            .iter()
            .find(|w| w.rule == rule && w.line <= line && w.line + 2 >= line)
    }

    /// The trimmed source text of a 1-based line — the baseline fingerprint
    /// (content-addressed, so entries survive unrelated line drift).
    pub fn fingerprint(&self, line: u32) -> String {
        self.lines
            .get(line as usize - 1)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }
}

fn parse_waivers(c: &Comment) -> Vec<Waiver> {
    let mut out = Vec::new();
    // Doc comments (`///`, `//!`, `/**`) never carry waivers — they are
    // documentation *about* the syntax, not claims about adjacent code.
    if c.text.starts_with("///") || c.text.starts_with("//!") || c.text.starts_with("/**") {
        return out;
    }
    for (line, text) in (c.line..).zip(c.text.split('\n')) {
        if let Some(idx) = text.find("jit-analysis: allow(") {
            let rest = &text[idx + "jit-analysis: allow(".len()..];
            if let Some(close) = rest.find(')') {
                let rule = rest[..close].trim().to_string();
                let after = rest[close + 1..]
                    .trim_start_matches([':', ' ', '-'])
                    .trim()
                    .to_string();
                out.push(Waiver {
                    rule,
                    justification: after,
                    line,
                });
            }
        }
    }
    out
}

/// The scope pass. A pre-pass marks attribute spans (`#[…]` / `#![…]`) that
/// mention the ident `test`; the main pass tracks a brace stack where a
/// frame may carry a function name and/or a test marker. `#[cfg(test)]` /
/// `#[test]` attributes arm a pending test flag applied to the next item's
/// frame, so everything inside a `#[cfg(test)] mod` or a `#[test]` fn is
/// classified as test code.
fn compute_scopes(tokens: &[Token]) -> Vec<ScopeInfo> {
    // Pre-pass: token indexes where a test-mentioning attribute starts, and
    // the span of every attribute (so its brackets never confuse the main
    // pass — attribute bodies can contain `fn` in doc aliases etc.).
    let mut attr_span = vec![false; tokens.len()]; // token is inside an attr
    let mut test_attr_start = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_punct('#') {
            let mut j = i + 1;
            if tokens.get(j).map(|t| t.is_punct('!')).unwrap_or(false) {
                j += 1;
            }
            if tokens.get(j).map(|t| t.is_punct('[')).unwrap_or(false) {
                let mut depth = 0usize;
                let mut mentions_test = false;
                let start = i;
                while j < tokens.len() {
                    if tokens[j].is_punct('[') {
                        depth += 1;
                    } else if tokens[j].is_punct(']') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    } else if tokens[j].is_ident("test") {
                        mentions_test = true;
                    }
                    j += 1;
                }
                for flag in &mut attr_span[start..=j.min(tokens.len() - 1)] {
                    *flag = true;
                }
                if mentions_test {
                    test_attr_start[start] = true;
                }
                i = j + 1;
                continue;
            }
        }
        i += 1;
    }

    #[derive(Clone)]
    struct Frame {
        fn_name: Option<String>,
        test: bool,
    }
    let mut stack: Vec<Frame> = Vec::new();
    let mut out = Vec::with_capacity(tokens.len());
    // Armed by `fn ident` until its body `{` opens.
    let mut pending_fn: Option<String> = None;
    // Armed by a test attribute until the next `{` opens an item body.
    let mut pending_test = false;

    for (i, t) in tokens.iter().enumerate() {
        out.push(ScopeInfo {
            fn_name: pending_fn
                .clone()
                .or_else(|| stack.iter().rev().find_map(|f| f.fn_name.clone())),
            in_test: pending_test || stack.iter().any(|f| f.test),
        });

        if test_attr_start[i] {
            pending_test = true;
        }
        if attr_span[i] {
            continue;
        }

        if t.is_ident("fn") {
            // `fn name` — `fn(…)` pointer types have no name and are skipped.
            if let Some(name) = tokens
                .get(i + 1)
                .filter(|n| matches!(n.kind, crate::lexer::TokenKind::Ident))
            {
                pending_fn = Some(name.text.clone());
            }
        } else if t.is_punct('{') {
            stack.push(Frame {
                fn_name: pending_fn.take(),
                test: pending_test,
            });
            pending_test = false;
        } else if t.is_punct('}') {
            stack.pop();
        } else if t.is_punct(';') && stack.last().map(|f| f.fn_name.is_none()).unwrap_or(true) {
            // An item ended without a body (a `use`, a trait-method
            // declaration): clear pending state. Statement semicolons inside
            // a fn body leave the pending flags alone (they are already
            // consumed by the body's `{`).
            pending_fn = None;
            pending_test = false;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sf(src: &str) -> SourceFile {
        SourceFile::parse("lib.rs", src)
    }

    fn scope_of<'a>(f: &'a SourceFile, ident: &str) -> &'a ScopeInfo {
        let idx = f
            .tokens
            .iter()
            .position(|t| t.is_ident(ident))
            .unwrap_or_else(|| panic!("ident {ident} not found"));
        &f.scopes[idx]
    }

    #[test]
    fn fn_scopes_nest() {
        let f = sf("fn outer() { marker_a; fn inner() { marker_b; } marker_c; }");
        assert_eq!(scope_of(&f, "marker_a").fn_name.as_deref(), Some("outer"));
        assert_eq!(scope_of(&f, "marker_b").fn_name.as_deref(), Some("inner"));
        assert_eq!(scope_of(&f, "marker_c").fn_name.as_deref(), Some("outer"));
    }

    #[test]
    fn cfg_test_mod_is_test() {
        let f = sf("fn lib_code() { a; }\n#[cfg(test)]\nmod tests { fn t() { b; } }");
        assert!(!scope_of(&f, "a").in_test);
        assert!(scope_of(&f, "b").in_test);
    }

    #[test]
    fn test_attr_fn_is_test() {
        let f = sf("#[test]\nfn check() { x; }\nfn lib() { y; }");
        assert!(scope_of(&f, "x").in_test);
        assert!(!scope_of(&f, "y").in_test);
    }

    #[test]
    fn cfg_all_test_detected() {
        let f = sf("#[cfg(all(test, feature = \"x\"))]\nmod m { fn t() { z; } }");
        assert!(scope_of(&f, "z").in_test);
    }

    #[test]
    fn waiver_parsing() {
        let f = sf("// jit-analysis: allow(default-hasher): definition site\nuse x;\n");
        assert_eq!(f.waivers.len(), 1);
        assert_eq!(f.waivers[0].rule, "default-hasher");
        assert_eq!(f.waivers[0].justification, "definition site");
        assert!(f.waiver_for("default-hasher", 2).is_some());
        assert!(f.waiver_for("default-hasher", 5).is_none());
        assert!(f.waiver_for("determinism", 2).is_none());
    }

    #[test]
    fn annotations_near() {
        let f = sf("// SAFETY: slot is live\nlet x = 1;\nlet y = 2;\n");
        assert!(f.annotated_near(2, "SAFETY:", 1));
        assert!(!f.annotated_near(3, "SAFETY:", 1));
        assert!(f.annotated_near(3, "SAFETY:", 2));
    }

    #[test]
    fn use_clears_pending_fn() {
        // A trait method *declaration* must not leak its name onto the next
        // body.
        let f = sf("trait T { fn decl(&self); }\nfn real() { m; }");
        assert_eq!(scope_of(&f, "m").fn_name.as_deref(), Some("real"));
    }

    #[test]
    fn fingerprints_trim() {
        let f = sf("fn a() {\n    let x = y.unwrap();\n}\n");
        assert_eq!(f.fingerprint(2), "let x = y.unwrap();");
    }
}
