//! Cross-query canonicalization of continuous queries.
//!
//! A multi-query serving tier (see the `jit-serve` crate) accepts many CQL
//! queries over one shared set of streams and wants to detect when two of
//! them are *the same computation* — same sources in the same `FROM` order,
//! same window, same join conjunction, same constant filters — even when the
//! query texts differ superficially (clause order, predicate orientation,
//! identifier case). Such queries can then share one executing pipeline.
//!
//! [`CanonicalQuery::from_cql`] resolves a parsed query against a *global*
//! [`Catalog`] (the registry's view of the world, where `A.x` has a fixed
//! column index regardless of which query mentions it) and normalizes it to a
//! hashable [`CanonicalKey`]:
//!
//! * **sources** — the referenced global [`SourceId`]s *in `FROM` order*.
//!   The order is part of the key on purpose: the plan shape and therefore
//!   the component order of result tuples follows the `FROM` sequence, so
//!   `FROM A, B` and `FROM B, A` are different computations even though they
//!   join the same streams.
//! * **window** — the global window (maximum declared `RANGE`), matching
//!   [`CqlQuery::window`].
//! * **predicates** — equi-join conditions rewritten into *local* source ids
//!   (`0, 1, …` by `FROM` position) and *global* column indices, each
//!   oriented so the smaller column reference is on the left, then sorted
//!   and deduplicated. Clause order and `A.x = B.x` vs `B.x = A.x` no longer
//!   matter.
//! * **filters** — constant filters normalized the same way and sorted.
//!
//! Keeping local source ids in the key (rather than global ids) means a
//! pipeline built from the canonical form runs in its own dense id space:
//! the serving tier remaps each arrival's source id to the pipeline-local id
//! while sharing the untouched value vector, and global column indices keep
//! working because the values keep their global layout.

use crate::cql::{parse_cql, CqlError, CqlQuery};
use crate::shapes::PlanShape;
use jit_types::{
    Catalog, ColumnRef, CompareOp, EquiPredicate, FilterPredicate, PredicateSet, SourceId,
    SourceSchema, Value, Window,
};

/// One normalized constant-filter term (`column op constant`).
///
/// The column's `source` is pipeline-local (`FROM` position) and its
/// `column` index is global-catalog-relative, like everything else in a
/// [`CanonicalKey`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FilterTerm {
    /// Column being tested (local source id, global column index).
    pub column: ColumnRef,
    /// Comparison operator.
    pub op: CompareOp,
    /// Constant operand.
    pub constant: Value,
}

impl FilterTerm {
    /// View as an executable [`FilterPredicate`].
    pub fn predicate(&self) -> FilterPredicate {
        FilterPredicate::new(self.column, self.op, self.constant.clone())
    }
}

/// Rank used to order [`CompareOp`]s deterministically (the enum itself does
/// not implement `Ord`).
fn op_rank(op: CompareOp) -> u8 {
    match op {
        CompareOp::Eq => 0,
        CompareOp::Ne => 1,
        CompareOp::Lt => 2,
        CompareOp::Le => 3,
        CompareOp::Gt => 4,
        CompareOp::Ge => 5,
    }
}

/// The hashable identity of a canonicalized query.
///
/// Two queries receive equal keys iff they denote the same computation over
/// the global catalog (see the module docs for exactly what is normalized
/// away). The key is the sharing index of the serving tier's pipeline map.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CanonicalKey {
    /// Referenced global source ids, in `FROM` order.
    pub(crate) sources: Vec<SourceId>,
    /// The global window.
    pub(crate) window: Window,
    /// Normalized equi-join predicates (local source ids, global columns).
    pub(crate) predicates: Vec<EquiPredicate>,
    /// Normalized constant filters (local source ids, global columns).
    pub(crate) filters: Vec<FilterTerm>,
}

/// A query resolved against a global [`Catalog`] and reduced to canonical
/// form. Wraps a [`CanonicalKey`] with the accessors a pipeline builder
/// needs (shape, local-space predicates and filters, id remapping).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonicalQuery {
    key: CanonicalKey,
}

impl CanonicalQuery {
    /// Parse a CQL string and canonicalize it against `catalog`.
    pub fn from_cql(text: &str, catalog: &Catalog) -> Result<Self, CqlError> {
        Self::from_parsed(&parse_cql(text)?, catalog)
    }

    /// Canonicalize an already-parsed query against `catalog`.
    ///
    /// Fails if a `FROM` entry names no catalog source or a predicate
    /// references a column the catalog does not declare.
    fn from_parsed(query: &CqlQuery, catalog: &Catalog) -> Result<Self, CqlError> {
        let mut sources = Vec::with_capacity(query.sources.len());
        for (name, _) in &query.sources {
            sources.push(lookup_source(catalog, name)?.id);
        }

        // Local id of a name = its FROM position; names are unique per the
        // parser's duplicate check, case-insensitively.
        let local_of = |name: &str| -> Result<SourceId, CqlError> {
            query
                .sources
                .iter()
                .position(|(n, _)| n.eq_ignore_ascii_case(name))
                .map(|i| SourceId(i as u16))
                .ok_or_else(|| err(format!("unknown source {name}")))
        };
        let resolve = |source: &str, column: &str| -> Result<ColumnRef, CqlError> {
            let local = local_of(source)?;
            let schema = lookup_source(catalog, source)?;
            let col = schema
                .column_index(column)
                .ok_or_else(|| err(format!("unknown column {source}.{column}")))?;
            Ok(ColumnRef::new(local, col))
        };

        let mut predicates = Vec::with_capacity(query.equi_joins.len());
        for (s1, c1, s2, c2) in &query.equi_joins {
            let a = resolve(s1, c1)?;
            let b = resolve(s2, c2)?;
            // Orient so the smaller column reference is on the left —
            // equality is symmetric, so `A.x = B.x` and `B.x = A.x` collapse.
            let (left, right) = if b < a { (b, a) } else { (a, b) };
            predicates.push(EquiPredicate::new(left, right));
        }
        predicates.sort_by_key(|p| (p.left, p.right));
        predicates.dedup();

        let mut filters = Vec::with_capacity(query.filters.len());
        for (s, c, op, v) in &query.filters {
            filters.push(FilterTerm {
                column: resolve(s, c)?,
                op: *op,
                constant: Value::int(*v),
            });
        }
        filters.sort_by(|a, b| {
            (a.column, op_rank(a.op))
                .cmp(&(b.column, op_rank(b.op)))
                .then_with(|| a.constant.cmp(&b.constant))
        });
        filters.dedup();

        Ok(CanonicalQuery {
            key: CanonicalKey {
                sources,
                window: query.window(),
                predicates,
                filters,
            },
        })
    }

    /// The hashable identity of this query.
    pub fn key(&self) -> &CanonicalKey {
        &self.key
    }

    /// Number of sources the query joins.
    pub(crate) fn num_sources(&self) -> usize {
        self.key.sources.len()
    }

    /// The referenced global source ids, in `FROM` order.
    pub fn sources(&self) -> &[SourceId] {
        &self.key.sources
    }

    /// The global window.
    pub fn window(&self) -> Window {
        self.key.window
    }

    /// The pipeline-local id of a global source, if the query references it.
    ///
    /// This is the remapping the serving tier applies to every arrival
    /// before pushing it into a shared pipeline.
    pub fn local_id(&self, global: SourceId) -> Option<SourceId> {
        self.key
            .sources
            .iter()
            .position(|&s| s == global)
            .map(|i| SourceId(i as u16))
    }

    /// The default plan shape: a left-deep tree over the `FROM` sequence,
    /// exactly what the single-query engine builds for a CQL query.
    pub fn shape(&self) -> PlanShape {
        PlanShape::left_deep(self.num_sources())
    }

    /// The join conjunction in local id space, ready for the plan builder.
    pub fn predicates(&self) -> PredicateSet {
        PredicateSet::from_predicates(self.key.predicates.clone())
    }

    /// The filter conjunction applied to one local source (empty if the
    /// source is unfiltered). This is the unit the serving tier deduplicates
    /// for shared selection pushdown: arrivals are classified once per
    /// distinct class, not once per query.
    pub fn filter_class(&self, local: SourceId) -> Vec<FilterTerm> {
        self.key
            .filters
            .iter()
            .filter(|t| t.column.source == local)
            .cloned()
            .collect()
    }
}

fn err(msg: String) -> CqlError {
    CqlError(msg)
}

/// Look up a source by name: exact match first, then unique case-insensitive
/// match (keywords and, per the parser's duplicate check, source names are
/// case-insensitive).
fn lookup_source<'a>(catalog: &'a Catalog, name: &str) -> Result<&'a SourceSchema, CqlError> {
    if let Some(s) = catalog.source_by_name(name) {
        return Ok(s);
    }
    let mut found = None;
    for s in catalog.sources() {
        if s.name.eq_ignore_ascii_case(name) {
            if found.is_some() {
                return Err(err(format!("ambiguous source name {name}")));
            }
            found = Some(s);
        }
    }
    found.ok_or_else(|| err(format!("unknown source {name}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.add_source("A", vec!["x".into(), "y".into(), "z".into()]);
        cat.add_source("B", vec!["x".into(), "y".into()]);
        cat.add_source("C", vec!["y".into()]);
        cat
    }

    fn canon(text: &str) -> CanonicalQuery {
        CanonicalQuery::from_cql(text, &catalog()).unwrap()
    }

    #[test]
    fn superficially_different_texts_share_a_key() {
        let base = canon(
            "SELECT * FROM A [RANGE 5 minutes], B [RANGE 5 minutes], C [RANGE 5 minutes] \
             WHERE A.x = B.x AND A.y = C.y AND A.z > 10",
        );
        // Reordered clauses, swapped predicate sides, case-varied keywords.
        let other = canon(
            "select * from A [range 5 minutes], B [range 5 minutes], C [range 5 minutes] \
             where A.z > 10 and C.y = A.y and B.x = A.x",
        );
        assert_eq!(base.key(), other.key());
        // A duplicated predicate collapses too.
        let dup = canon(
            "SELECT * FROM A [RANGE 5 minutes], B [RANGE 5 minutes], C [RANGE 5 minutes] \
             WHERE A.x = B.x AND B.x = A.x AND A.y = C.y AND A.z > 10",
        );
        assert_eq!(base.key(), dup.key());
    }

    #[test]
    fn from_order_window_and_filters_differentiate() {
        let base = canon("SELECT * FROM A [RANGE 5 minutes], B [RANGE 5 minutes] WHERE A.x = B.x");
        let swapped =
            canon("SELECT * FROM B [RANGE 5 minutes], A [RANGE 5 minutes] WHERE A.x = B.x");
        assert_ne!(base.key(), swapped.key(), "FROM order is part of the key");
        let longer =
            canon("SELECT * FROM A [RANGE 6 minutes], B [RANGE 6 minutes] WHERE A.x = B.x");
        assert_ne!(base.key(), longer.key());
        let filtered = canon(
            "SELECT * FROM A [RANGE 5 minutes], B [RANGE 5 minutes] \
             WHERE A.x = B.x AND A.y > 3",
        );
        assert_ne!(base.key(), filtered.key());
        // Filter order does not matter.
        let f1 = canon(
            "SELECT * FROM A [RANGE 5 minutes], B [RANGE 5 minutes] \
             WHERE A.x = B.x AND A.y > 3 AND B.x < 9",
        );
        let f2 = canon(
            "SELECT * FROM A [RANGE 5 minutes], B [RANGE 5 minutes] \
             WHERE B.x < 9 AND A.x = B.x AND A.y > 3",
        );
        assert_eq!(f1.key(), f2.key());
    }

    #[test]
    fn local_ids_follow_from_order_with_global_columns() {
        // FROM lists C then A: local 0 = global C(2), local 1 = global A(0).
        let q = canon("SELECT * FROM C [RANGE 1 minutes], A [RANGE 1 minutes] WHERE C.y = A.y");
        assert_eq!(q.sources(), &[SourceId(2), SourceId(0)]);
        assert_eq!(q.local_id(SourceId(2)), Some(SourceId(0)));
        assert_eq!(q.local_id(SourceId(0)), Some(SourceId(1)));
        assert_eq!(q.local_id(SourceId(1)), None);
        let preds = q.predicates();
        assert_eq!(preds.len(), 1);
        let p = preds.predicates()[0];
        // C.y is global column 0 of C; A.y is global column 1 of A.
        assert_eq!(p.left, ColumnRef::new(SourceId(0), 0));
        assert_eq!(p.right, ColumnRef::new(SourceId(1), 1));
        assert_eq!(q.shape(), PlanShape::left_deep(2));
    }

    #[test]
    fn filter_classes_group_by_local_source() {
        let q = canon(
            "SELECT * FROM A [RANGE 1 minutes], B [RANGE 1 minutes] \
             WHERE A.x = B.x AND A.y > 3 AND A.y < 9 AND B.y = 5",
        );
        let a_class = q.filter_class(SourceId(0));
        assert_eq!(a_class.len(), 2);
        assert!(a_class.iter().all(|t| t.column.source == SourceId(0)));
        assert_eq!(q.filter_class(SourceId(1)).len(), 1);
        assert_eq!(q.key.filters.len(), 3);
    }

    #[test]
    fn source_lookup_is_case_insensitive_against_the_catalog() {
        let q = CanonicalQuery::from_cql(
            "SELECT * FROM a [RANGE 1 minutes], b [RANGE 1 minutes] WHERE a.x = b.x",
            &catalog(),
        )
        .unwrap();
        assert_eq!(q.sources(), &[SourceId(0), SourceId(1)]);
    }

    #[test]
    fn unresolved_names_are_errors() {
        let cat = catalog();
        let e = CanonicalQuery::from_cql(
            "SELECT * FROM A [RANGE 1 minutes], Z [RANGE 1 minutes] WHERE A.x = Z.x",
            &cat,
        )
        .unwrap_err();
        assert!(e.to_string().contains("unknown source Z"), "{e}");
        let e = CanonicalQuery::from_cql(
            "SELECT * FROM A [RANGE 1 minutes], B [RANGE 1 minutes] WHERE A.q = B.x",
            &cat,
        )
        .unwrap_err();
        assert!(e.to_string().contains("unknown column A.q"), "{e}");
        // Ambiguous case-insensitive match: `Aa` could be `AA` or `aa`.
        let mut dup = Catalog::new();
        dup.add_source("AA", vec!["x".into()]);
        dup.add_source("aa", vec!["x".into()]);
        dup.add_source("T", vec!["x".into()]);
        let e = CanonicalQuery::from_cql(
            "SELECT * FROM Aa [RANGE 1 minutes], T [RANGE 1 minutes] WHERE Aa.x = T.x",
            &dup,
        )
        .unwrap_err();
        assert!(e.to_string().contains("ambiguous source name Aa"), "{e}");
        // An exact match wins even when another name matches loosely.
        let q = CanonicalQuery::from_cql(
            "SELECT * FROM aa [RANGE 1 minutes], T [RANGE 1 minutes] WHERE aa.x = T.x",
            &dup,
        )
        .unwrap();
        assert_eq!(q.sources()[0], SourceId(1));
    }
}
