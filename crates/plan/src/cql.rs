//! A small CQL-subset parser.
//!
//! Supports the shape of query used throughout the paper (Figure 1a):
//!
//! ```text
//! SELECT * FROM A [RANGE 5 minutes], B [RANGE 5 minutes], C [RANGE 5 minutes]
//! WHERE A.x = B.x AND A.y = C.y AND A.x > 200
//! ```
//!
//! i.e. a list of windowed streaming sources, equi-join conditions between
//! source columns, and comparison filters against integer constants. The
//! parser produces a [`CqlQuery`] from which the catalog, the window, the
//! join [`PredicateSet`] and any [`FilterPredicate`]s can be derived.

use jit_types::{
    Catalog, ColumnRef, CompareOp, Duration, EquiPredicate, FilterPredicate, PredicateSet, Value,
    Window,
};
use std::collections::BTreeMap;
use std::fmt;

/// A parse error with a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CqlError(pub(crate) String);

impl fmt::Display for CqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CQL parse error: {}", self.0)
    }
}

impl std::error::Error for CqlError {}

fn err(msg: impl Into<String>) -> CqlError {
    CqlError(msg.into())
}

/// A parsed continuous query.
#[derive(Debug, Clone, PartialEq)]
pub struct CqlQuery {
    /// Source names in declaration order, with their window lengths.
    pub sources: Vec<(String, Duration)>,
    /// Equi-join conditions as `(source, column, source, column)` names.
    pub(crate) equi_joins: Vec<(String, String, String, String)>,
    /// Filters as `(source, column, op, constant)`.
    pub(crate) filters: Vec<(String, String, CompareOp, i64)>,
}

impl CqlQuery {
    /// The global window: the paper assumes a single window length; we take
    /// the maximum of the declared ranges.
    pub fn window(&self) -> Window {
        let length = self
            .sources
            .iter()
            .map(|(_, d)| *d)
            .max()
            .unwrap_or(Duration::ZERO);
        Window::new(length)
    }

    /// Build the catalog: one source per `FROM` entry, with exactly the
    /// columns mentioned in the predicates (in first-mention order).
    pub fn catalog(&self) -> Catalog {
        let mut columns: BTreeMap<String, Vec<String>> = BTreeMap::new();
        let mut note = |source: &str, column: &str| {
            let cols = columns.entry(source.to_string()).or_default();
            if !cols.iter().any(|c| c == column) {
                cols.push(column.to_string());
            }
        };
        for (s1, c1, s2, c2) in &self.equi_joins {
            note(s1, c1);
            note(s2, c2);
        }
        for (s, c, _, _) in &self.filters {
            note(s, c);
        }
        let mut catalog = Catalog::new();
        for (name, _) in &self.sources {
            let cols = columns.get(name).cloned().unwrap_or_default();
            catalog.add_source(name.clone(), cols);
        }
        catalog
    }

    /// The equi-join predicate set, resolved against [`CqlQuery::catalog`].
    pub fn predicates(&self) -> Result<PredicateSet, CqlError> {
        let catalog = self.catalog();
        let mut preds = PredicateSet::new();
        for (s1, c1, s2, c2) in &self.equi_joins {
            preds.push(EquiPredicate::new(
                resolve(&catalog, s1, c1)?,
                resolve(&catalog, s2, c2)?,
            ));
        }
        Ok(preds)
    }

    /// The filter predicates, resolved against [`CqlQuery::catalog`].
    pub fn filter_predicates(&self) -> Result<Vec<FilterPredicate>, CqlError> {
        let catalog = self.catalog();
        self.filters
            .iter()
            .map(|(s, c, op, v)| {
                Ok(FilterPredicate::new(
                    resolve(&catalog, s, c)?,
                    *op,
                    Value::int(*v),
                ))
            })
            .collect()
    }
}

fn resolve(catalog: &Catalog, source: &str, column: &str) -> Result<ColumnRef, CqlError> {
    let schema = catalog
        .source_by_name(source)
        .ok_or_else(|| err(format!("unknown source {source}")))?;
    schema
        .column_ref(column)
        .ok_or_else(|| err(format!("unknown column {source}.{column}")))
}

/// Parse a CQL-subset query string.
pub fn parse_cql(text: &str) -> Result<CqlQuery, CqlError> {
    let squashed = text.split_whitespace().collect::<Vec<_>>().join(" ");
    // ASCII folding keeps byte offsets, so a keyword found in `upper` slices
    // `squashed` at the same place; `to_uppercase` would not (`ı` → `I`).
    let upper = squashed.to_ascii_uppercase();
    if !upper.starts_with("SELECT * FROM ") {
        return Err(err("query must start with SELECT * FROM"));
    }
    let after_from = &squashed["SELECT * FROM ".len()..];
    let (from_part, where_part) = match upper.find(" WHERE ") {
        Some(idx) => {
            let idx = idx - "SELECT * FROM ".len();
            (
                &after_from[..idx],
                Some(&after_from[idx + " WHERE ".len()..]),
            )
        }
        None => (after_from, None),
    };

    let sources = parse_from(from_part)?;
    let mut equi_joins = Vec::new();
    let mut filters = Vec::new();
    if let Some(wp) = where_part {
        for clause in split_case_insensitive(wp, " AND ") {
            parse_clause(&clause, &mut equi_joins, &mut filters)?;
        }
    }
    if sources.is_empty() {
        return Err(err("no sources in FROM clause"));
    }
    Ok(CqlQuery {
        sources,
        equi_joins,
        filters,
    })
}

fn split_case_insensitive(text: &str, sep: &str) -> Vec<String> {
    let upper = text.to_ascii_uppercase();
    let sep_upper = sep.to_ascii_uppercase();
    let mut parts = Vec::new();
    let mut start = 0;
    while let Some(pos) = upper[start..].find(&sep_upper) {
        parts.push(text[start..start + pos].to_string());
        start += pos + sep.len();
    }
    parts.push(text[start..].to_string());
    parts
}

/// Source and column names: non-empty, alphanumeric/underscore only. This
/// is what turns "dangling" keywords into errors — `WHERE A.x = B.x AND`
/// would otherwise be read as a join against the column `"x AND"`.
fn valid_ident(name: &str) -> bool {
    !name.is_empty() && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn parse_from(text: &str) -> Result<Vec<(String, Duration)>, CqlError> {
    let mut sources: Vec<(String, Duration)> = Vec::new();
    for entry in text.split(',') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let (name, range) = match entry.find('[') {
            Some(idx) => {
                let name = entry[..idx].trim().to_string();
                let close = entry.find(']').ok_or_else(|| err("missing ] in window"))?;
                if !entry[close + 1..].trim().is_empty() {
                    return Err(err(format!("unexpected text after window in {entry:?}")));
                }
                let range = parse_range(entry[idx + 1..close].trim())?;
                (name, range)
            }
            None => (entry.to_string(), Duration::ZERO),
        };
        if !valid_ident(&name) {
            return Err(err(format!("invalid source name {name:?}")));
        }
        // Duplicate names would silently re-bind every predicate mention to
        // the first declaration (name resolution is first-match), leaving
        // the second source unconstrained — a cross product, not a join.
        // The check is case-insensitive, like the keywords: `A` and `a` in
        // one FROM clause are far more likely a typo than two streams, and
        // cross-query canonicalization must not treat them as distinct.
        if sources.iter().any(|(n, _)| n.eq_ignore_ascii_case(&name)) {
            return Err(err(format!("duplicate source {name} in FROM clause")));
        }
        sources.push((name, range));
    }
    Ok(sources)
}

fn parse_range(text: &str) -> Result<Duration, CqlError> {
    let upper = text.to_ascii_uppercase();
    let rest = upper
        .strip_prefix("RANGE")
        .ok_or_else(|| err(format!("expected RANGE …, got {text}")))?
        .trim();
    let mut parts = rest.split_whitespace();
    let amount: f64 = parts
        .next()
        .ok_or_else(|| err("missing window length"))?
        .parse()
        .map_err(|_| err(format!("bad window length in {text}")))?;
    let unit = parts.next().unwrap_or("SECONDS");
    let millis = match unit {
        u if u.starts_with("MIN") => amount * 60_000.0,
        u if u.starts_with("SEC") => amount * 1_000.0,
        u if u.starts_with("HOUR") => amount * 60.0 * 60_000.0,
        u if u.starts_with("MILLI") => amount.trunc(),
        other => return Err(err(format!("unknown window unit {other}"))),
    };
    // Refused by name: a NaN, infinite, negative or saturating length would
    // silently read as no window or as one that never expires. `u64::MAX as
    // f64` is 2^64, the first length that does not fit.
    let millis = millis.round();
    if !(0.0..u64::MAX as f64).contains(&millis) {
        return Err(err(format!(
            "window length is not a finite, non-negative u64 count of milliseconds in {text}"
        )));
    }
    Ok(Duration::from_millis(millis as u64))
}

fn parse_column(text: &str) -> Result<(String, String), CqlError> {
    let mut parts = text.trim().split('.');
    let source = parts.next().unwrap_or("").trim();
    let column = parts.next().unwrap_or("").trim();
    if !valid_ident(source) || !valid_ident(column) || parts.next().is_some() {
        return Err(err(format!("expected source.column, got {text}")));
    }
    Ok((source.to_string(), column.to_string()))
}

fn parse_clause(
    clause: &str,
    equi_joins: &mut Vec<(String, String, String, String)>,
    filters: &mut Vec<(String, String, CompareOp, i64)>,
) -> Result<(), CqlError> {
    let clause = clause.trim();
    // Find the comparison operator (longest first so <= is not read as <).
    for (symbol, op) in [
        ("<=", CompareOp::Le),
        (">=", CompareOp::Ge),
        ("<>", CompareOp::Ne),
        ("!=", CompareOp::Ne),
        ("=", CompareOp::Eq),
        ("<", CompareOp::Lt),
        (">", CompareOp::Gt),
    ] {
        if let Some(idx) = clause.find(symbol) {
            let left = clause[..idx].trim();
            let right = clause[idx + symbol.len()..].trim();
            let (ls, lc) = parse_column(left)?;
            // Right side: either a column (join) or an integer constant (filter).
            if let Ok(constant) = right.parse::<i64>() {
                filters.push((ls, lc, op, constant));
            } else {
                if op != CompareOp::Eq {
                    return Err(err(format!(
                        "only equality joins between columns are supported: {clause}"
                    )));
                }
                let (rs, rc) = parse_column(right)?;
                equi_joins.push((ls, lc, rs, rc));
            }
            return Ok(());
        }
    }
    Err(err(format!("unrecognised predicate: {clause}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIGURE_1A: &str = "SELECT * FROM \
        A [RANGE 5 minutes], B [RANGE 5 minutes], C [RANGE 5 minutes] \
        WHERE A.x = B.x AND A.y = C.y";

    #[test]
    fn parses_figure_1a() {
        let q = parse_cql(FIGURE_1A).unwrap();
        assert_eq!(q.sources.len(), 3);
        assert_eq!(q.sources[0].0, "A");
        assert_eq!(q.sources[0].1, Duration::from_mins(5));
        assert_eq!(q.equi_joins.len(), 2);
        assert!(q.filters.is_empty());
        assert_eq!(q.window().length, Duration::from_mins(5));
        let catalog = q.catalog();
        assert_eq!(catalog.num_sources(), 3);
        // A has columns x and y; B has x; C has y.
        assert_eq!(catalog.source_by_name("A").unwrap().arity(), 2);
        assert_eq!(catalog.source_by_name("B").unwrap().arity(), 1);
        let preds = q.predicates().unwrap();
        assert_eq!(preds.len(), 2);
    }

    #[test]
    fn parses_filters() {
        let q = parse_cql(
            "SELECT * FROM A [RANGE 90 seconds], B [RANGE 90 seconds] \
             WHERE A.x = B.x AND A.x > 200",
        )
        .unwrap();
        assert_eq!(q.filters.len(), 1);
        let filters = q.filter_predicates().unwrap();
        assert_eq!(filters.len(), 1);
        assert_eq!(filters[0].op, CompareOp::Gt);
        assert_eq!(q.window().length, Duration::from_secs(90));
    }

    #[test]
    fn case_insensitive_keywords() {
        let q = parse_cql("select * from S [range 2 minutes] where S.a > 7").unwrap();
        assert_eq!(q.sources[0].0, "S");
        assert_eq!(q.filters.len(), 1);
    }

    #[test]
    fn fractional_and_unusual_units() {
        let q = parse_cql("SELECT * FROM A [RANGE 7.5 minutes], B [RANGE 1 hour]").unwrap();
        assert_eq!(q.sources[0].1, Duration::from_millis(450_000));
        assert_eq!(q.sources[1].1, Duration::from_mins(60));
        // Window is the maximum declared range.
        assert_eq!(q.window().length, Duration::from_mins(60));
    }

    #[test]
    fn rejects_malformed_queries() {
        assert!(parse_cql("DELETE FROM A").is_err());
        assert!(parse_cql("SELECT * FROM ").is_err());
        assert!(parse_cql("SELECT * FROM A [RANGE five minutes]").is_err());
        assert!(parse_cql("SELECT * FROM A WHERE A.x ~ B.x").is_err());
        assert!(parse_cql("SELECT * FROM A WHERE A.x < B.x").is_err());
        assert!(parse_cql("SELECT * FROM A WHERE x = y.z.w").is_err());
    }

    #[test]
    fn unknown_source_in_predicate_fails_resolution() {
        let q = parse_cql("SELECT * FROM A [RANGE 1 minutes] WHERE A.x = Z.x").unwrap();
        let e = q.predicates().unwrap_err();
        assert!(e.to_string().contains("unknown source Z"), "{e}");
        // The same applies to a filter referencing an undeclared source.
        let q = parse_cql("SELECT * FROM A [RANGE 1 minutes] WHERE Z.x > 5").unwrap();
        assert!(q.filter_predicates().is_err());
    }

    #[test]
    fn bad_range_units_are_rejected() {
        for query in [
            "SELECT * FROM A [RANGE 5 fortnights]",
            "SELECT * FROM A [RANGE 5] invalid", // trailing junk after the window
            "SELECT * FROM A [RANGE]",
            "SELECT * FROM A [5 minutes]",
            "SELECT * FROM A [RANGE 5 minutes", // unclosed window
            "SELECT * FROM A [RANGE minutes 5]",
        ] {
            assert!(parse_cql(query).is_err(), "accepted: {query}");
        }
        // Default unit (seconds) and every supported unit still parse.
        assert!(parse_cql("SELECT * FROM A [RANGE 5]").is_ok());
        for unit in ["milliseconds", "seconds", "minutes", "hours", "MIN", "sec"] {
            assert!(
                parse_cql(&format!("SELECT * FROM A [RANGE 5 {unit}]")).is_ok(),
                "rejected unit {unit}"
            );
        }
    }

    #[test]
    fn dangling_and_is_rejected() {
        // A trailing AND must not be silently glued into a column name.
        for query in [
            "SELECT * FROM A [RANGE 1 minutes], B [RANGE 1 minutes] WHERE A.x = B.x AND",
            "SELECT * FROM A [RANGE 1 minutes], B [RANGE 1 minutes] WHERE A.x = B.x AND ",
            "SELECT * FROM A [RANGE 1 minutes], B [RANGE 1 minutes] WHERE AND A.x = B.x",
            "SELECT * FROM A [RANGE 1 minutes], B [RANGE 1 minutes] WHERE A.x = B.x AND AND B.x = A.x",
        ] {
            assert!(parse_cql(query).is_err(), "accepted: {query}");
        }
    }

    #[test]
    fn duplicate_sources_are_rejected() {
        let e = parse_cql("SELECT * FROM A [RANGE 1 minutes], A [RANGE 1 minutes] WHERE A.x = A.x")
            .unwrap_err();
        assert!(e.to_string().contains("duplicate source A"), "{e}");
    }

    #[test]
    fn duplicate_sources_differing_only_in_case_are_rejected() {
        // Keywords are case-insensitive, so `A` vs `a` in one FROM clause is
        // treated as the same (duplicated) stream, not two sources.
        let e = parse_cql("SELECT * FROM A [RANGE 1 minutes], a [RANGE 1 minutes] WHERE A.x = a.x")
            .unwrap_err();
        assert!(e.to_string().contains("duplicate source a"), "{e}");
        // Distinct names that merely share a prefix still parse.
        assert!(parse_cql(
            "SELECT * FROM Ab [RANGE 1 minutes], AB2 [RANGE 1 minutes] WHERE Ab.x = AB2.x"
        )
        .is_ok());
    }

    #[test]
    fn malformed_identifiers_are_rejected() {
        // Missing comma between sources: "A B" is not a source name.
        assert!(parse_cql("SELECT * FROM A [RANGE 1 minutes] B [RANGE 1 minutes]").is_err());
        // Underscored and numbered identifiers are legal.
        let q = parse_cql(
            "SELECT * FROM sensor_1 [RANGE 1 minutes], sensor_2 [RANGE 1 minutes] \
             WHERE sensor_1.zone_id = sensor_2.zone_id",
        )
        .unwrap();
        assert_eq!(q.sources[0].0, "sensor_1");
        assert_eq!(q.equi_joins.len(), 1);
    }

    /// Keywords fold as ASCII: `ı` uppercases to `I`, one byte shorter, which
    /// once shifted every keyword offset after it.
    #[test]
    fn non_ascii_identifiers_are_typed_errors() {
        for query in [
            "SELECT * FROM ıé WHERE A.x = 1",
            "SELECT * FROM A [RANGE 1 minutes], ıé [RANGE 1 minutes] WHERE A.x = 1 AND ıé.y = 2",
        ] {
            let e = parse_cql(query).unwrap_err();
            assert!(e.to_string().contains("invalid source name \"ıé\""), "{e}");
        }
    }

    #[test]
    fn error_display() {
        let e = parse_cql("nonsense").unwrap_err();
        assert!(e.to_string().contains("CQL parse error"));
    }
}
