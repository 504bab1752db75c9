//! Schema metadata: streaming sources, columns and source sets.
//!
//! A continuous query references a fixed set of streaming *sources*
//! (`A`, `B`, `C`, … in the paper). An operator's output schema is described
//! by the set of sources whose base tuples appear in its composite tuples —
//! e.g. the operator `A ⋈ B` in Figure 1b produces tuples covering `{A, B}`.
//! [`SourceSet`] is a bitmask over source ids (at most 64 sources, far beyond
//! the paper's N ≤ 8).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a streaming source (0-based, dense).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct SourceId(pub u16);

impl SourceId {
    /// The numeric index of this source.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Sources are conventionally named A, B, C, ... in the paper.
        if self.0 < 26 {
            write!(f, "{}", (b'A' + self.0 as u8) as char)
        } else {
            write!(f, "S{}", self.0)
        }
    }
}

/// A reference to a column of a specific source, e.g. `A.x1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ColumnRef {
    /// The source the column belongs to.
    pub source: SourceId,
    /// 0-based column index within that source's schema.
    pub column: u16,
}

impl ColumnRef {
    /// Construct a column reference.
    pub fn new(source: SourceId, column: u16) -> Self {
        ColumnRef { source, column }
    }
}

impl fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.x{}", self.source, self.column)
    }
}

/// A set of sources, represented as a bitmask (supports up to 64 sources).
///
/// Source sets describe composite-tuple coverage and operator schemas, and
/// they drive the sub-tuple / super-tuple relation: a tuple covering set `S`
/// is a sub-tuple of one covering `T` iff `S ⊆ T` and they agree on shared
/// components.
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct SourceSet(pub(crate) u64);

impl SourceSet {
    /// The empty set (schema of the empty tuple Ø).
    pub const EMPTY: SourceSet = SourceSet(0);

    /// Maximum number of distinct sources supported.
    pub(crate) const MAX_SOURCES: usize = 64;

    /// A singleton set containing only `source`.
    pub fn single(source: SourceId) -> Self {
        debug_assert!((source.0 as usize) < Self::MAX_SOURCES);
        SourceSet(1u64 << source.0)
    }

    /// Build a set from an iterator of source ids.
    ///
    /// An inherent method (not the `FromIterator` trait) so call sites can
    /// stay turbofish-free: `SourceSet::from_iter(ids)`.
    pub(crate) fn from_iter(ids: impl IntoIterator<Item = SourceId>) -> Self {
        let mut s = SourceSet::EMPTY;
        for id in ids {
            s.insert(id);
        }
        s
    }

    /// The set `{0, 1, …, n−1}` of the first `n` sources.
    pub fn first_n(n: usize) -> Self {
        debug_assert!(n <= Self::MAX_SOURCES);
        if n == 64 {
            SourceSet(u64::MAX)
        } else {
            SourceSet((1u64 << n) - 1)
        }
    }

    /// Is the set empty?
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of sources in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Does the set contain `source`?
    pub fn contains(self, source: SourceId) -> bool {
        self.0 & (1u64 << source.0) != 0
    }

    /// Add a source to the set.
    pub fn insert(&mut self, source: SourceId) {
        self.0 |= 1u64 << source.0;
    }

    /// Set union.
    pub fn union(self, other: SourceSet) -> SourceSet {
        SourceSet(self.0 | other.0)
    }

    /// Set difference (`self \ other`).
    pub fn difference(self, other: SourceSet) -> SourceSet {
        SourceSet(self.0 & !other.0)
    }

    /// Is `self` a subset of `other`?
    pub fn is_subset(self, other: SourceSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// Is `self` a superset of `other`?
    #[cfg(test)]
    fn is_superset(self, other: SourceSet) -> bool {
        other.is_subset(self)
    }

    /// Do the two sets share no source?
    pub fn is_disjoint(self, other: SourceSet) -> bool {
        self.0 & other.0 == 0
    }

    /// Iterate over the member source ids in increasing order.
    pub fn iter(self) -> impl Iterator<Item = SourceId> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let idx = bits.trailing_zeros() as u16;
                bits &= bits - 1;
                Some(SourceId(idx))
            }
        })
    }

    /// All non-empty subsets of this set, in increasing order of cardinality.
    ///
    /// Used to enumerate candidate non-demanded sub-tuples (CNSs) for the
    /// lattice of Section IV-A. The number of subsets is `2^len − 1`, so
    /// callers should restrict the base set to predicate-relevant sources
    /// first (as the paper does).
    pub fn non_empty_subsets(self) -> Vec<SourceSet> {
        let members: Vec<SourceId> = self.iter().collect();
        let n = members.len();
        let mut out = Vec::with_capacity((1usize << n).saturating_sub(1));
        for mask in 1u64..(1u64 << n) {
            let mut s = SourceSet::EMPTY;
            for (i, &m) in members.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    s.insert(m);
                }
            }
            out.push(s);
        }
        out.sort_by_key(|s| (s.len(), s.0));
        out
    }
}

impl fmt::Display for SourceSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, s) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{s}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<SourceId> for SourceSet {
    fn from_iter<T: IntoIterator<Item = SourceId>>(iter: T) -> Self {
        SourceSet::from_iter(iter)
    }
}

/// Schema of a single streaming source: a name and named columns.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SourceSchema {
    /// Dense identifier of the source.
    pub id: SourceId,
    /// Human-readable name (`"A"`, `"sensors"`, …).
    pub name: String,
    /// Column names, in declaration order.
    pub(crate) columns: Vec<String>,
}

impl SourceSchema {
    /// Create a schema with the given name and columns.
    pub(crate) fn new(id: SourceId, name: impl Into<String>, columns: Vec<String>) -> Self {
        SourceSchema {
            id,
            name: name.into(),
            columns,
        }
    }

    /// Number of columns in the source.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Look up a column index by name.
    pub fn column_index(&self, name: &str) -> Option<u16> {
        self.columns
            .iter()
            .position(|c| c == name)
            .map(|i| i as u16)
    }

    /// A [`ColumnRef`] for the named column, if it exists.
    pub fn column_ref(&self, name: &str) -> Option<ColumnRef> {
        self.column_index(name).map(|c| ColumnRef::new(self.id, c))
    }
}

/// The catalog of all sources referenced by a query.
#[derive(Debug, Default, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Catalog {
    sources: Vec<SourceSchema>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Register a source with the given name and column names; returns its id.
    ///
    /// Sources receive dense, increasing ids in registration order.
    pub fn add_source(&mut self, name: impl Into<String>, columns: Vec<String>) -> SourceId {
        let id = SourceId(self.sources.len() as u16);
        self.sources.push(SourceSchema::new(id, name, columns));
        id
    }

    /// Convenience: build the paper's experimental catalog of `n` sources
    /// named `A`, `B`, … each with `n − 1` join columns `x0 … x(n−2)`
    /// (one per other source, Section VI).
    pub fn clique(n: usize) -> Self {
        let mut cat = Catalog::new();
        for i in 0..n {
            let name = SourceId(i as u16).to_string();
            let columns = (0..n.saturating_sub(1)).map(|c| format!("x{c}")).collect();
            cat.add_source(name, columns);
        }
        cat
    }

    /// Number of registered sources.
    pub fn num_sources(&self) -> usize {
        self.sources.len()
    }

    /// All registered schemas.
    pub fn sources(&self) -> &[SourceSchema] {
        &self.sources
    }

    /// Schema of a particular source.
    pub fn source(&self, id: SourceId) -> Option<&SourceSchema> {
        self.sources.get(id.index())
    }

    /// Look up a source by name.
    pub fn source_by_name(&self, name: &str) -> Option<&SourceSchema> {
        self.sources.iter().find(|s| s.name == name)
    }

    /// The set of all source ids in the catalog.
    #[cfg(test)]
    fn all_sources(&self) -> SourceSet {
        SourceSet::first_n(self.sources.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_display_uses_letters() {
        assert_eq!(SourceId(0).to_string(), "A");
        assert_eq!(SourceId(7).to_string(), "H");
        assert_eq!(SourceId(30).to_string(), "S30");
    }

    #[test]
    fn column_ref_display() {
        assert_eq!(ColumnRef::new(SourceId(1), 2).to_string(), "B.x2");
    }

    #[test]
    fn source_set_basic_ops() {
        let mut s = SourceSet::EMPTY;
        assert!(s.is_empty());
        s.insert(SourceId(0));
        s.insert(SourceId(3));
        assert_eq!(s.len(), 2);
        assert!(s.contains(SourceId(3)));
        assert!(!s.contains(SourceId(1)));
        assert_eq!(s, SourceSet::from_iter([SourceId(0), SourceId(3)]));
    }

    #[test]
    fn source_set_algebra() {
        let a = SourceSet::from_iter([SourceId(0), SourceId(1)]);
        let b = SourceSet::from_iter([SourceId(1), SourceId(2)]);
        assert_eq!(a.union(b), SourceSet::first_n(3));
        assert_eq!(a.difference(b), SourceSet::single(SourceId(0)));
        assert!(SourceSet::single(SourceId(1)).is_subset(a));
        assert!(a.is_superset(SourceSet::single(SourceId(0))));
        assert!(!a.is_disjoint(b));
        assert!(a.is_disjoint(SourceSet::single(SourceId(5))));
    }

    #[test]
    fn source_set_iteration_is_sorted() {
        let s = SourceSet::from_iter([SourceId(5), SourceId(1), SourceId(3)]);
        let ids: Vec<u16> = s.iter().map(|x| x.0).collect();
        assert_eq!(ids, vec![1, 3, 5]);
    }

    #[test]
    fn first_n_covers_prefix() {
        let s = SourceSet::first_n(4);
        assert_eq!(s.len(), 4);
        assert!(s.contains(SourceId(3)));
        assert!(!s.contains(SourceId(4)));
        assert_eq!(SourceSet::first_n(0), SourceSet::EMPTY);
    }

    #[test]
    fn subsets_enumeration() {
        let s = SourceSet::from_iter([SourceId(0), SourceId(1), SourceId(2)]);
        let subs = s.non_empty_subsets();
        assert_eq!(subs.len(), 7);
        // Sorted by cardinality: three singletons first, the full set last.
        assert_eq!(subs[0].len(), 1);
        assert_eq!(subs[6], s);
        // All subsets are subsets of s and unique.
        let mut uniq = subs.clone();
        uniq.dedup();
        assert_eq!(uniq.len(), subs.len());
        assert!(subs.iter().all(|x| x.is_subset(s)));
    }

    #[test]
    fn display_source_set() {
        let s = SourceSet::from_iter([SourceId(0), SourceId(2)]);
        assert_eq!(s.to_string(), "{A,C}");
        assert_eq!(SourceSet::EMPTY.to_string(), "{}");
    }

    #[test]
    fn catalog_registration_and_lookup() {
        let mut cat = Catalog::new();
        let a = cat.add_source("A", vec!["x".into(), "y".into()]);
        let b = cat.add_source("B", vec!["x".into()]);
        assert_eq!(cat.num_sources(), 2);
        assert_eq!(a, SourceId(0));
        assert_eq!(b, SourceId(1));
        assert_eq!(cat.source(a).unwrap().arity(), 2);
        assert_eq!(cat.source_by_name("B").unwrap().id, b);
        assert_eq!(
            cat.source(a).unwrap().column_ref("y"),
            Some(ColumnRef::new(a, 1))
        );
        assert_eq!(cat.source(a).unwrap().column_ref("z"), None);
        assert_eq!(cat.all_sources(), SourceSet::first_n(2));
    }

    #[test]
    fn clique_catalog_matches_paper_setup() {
        // 4 sources, each with N-1 = 3 columns.
        let cat = Catalog::clique(4);
        assert_eq!(cat.num_sources(), 4);
        for s in cat.sources() {
            assert_eq!(s.arity(), 3);
        }
        assert_eq!(cat.source_by_name("D").unwrap().id, SourceId(3));
    }
}
