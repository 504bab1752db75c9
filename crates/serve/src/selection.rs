//! Shared selection pushdown: a registry-wide index of constant-filter
//! classes.
//!
//! Each registered query applies a (possibly empty) conjunction of constant
//! filters to every source it reads. Serving queries in isolation would
//! evaluate each query's conjunction on each arrival — cost linear in the
//! number of queries even when they all ask the same thing. The
//! [`SelectionIndex`] deduplicates the conjunctions into refcounted
//! *classes* (in the global catalog's column space): an arrival is
//! classified once per *distinct* class on its source, and every query
//! holding a reference to that class reuses the verdict.
//!
//! Class ids are never reused, so a released class cannot be confused with
//! a later one holding the same terms.

use jit_plan::FilterTerm;
use jit_types::{ColumnRef, CompareOp, FastMap, FilterPredicate, SourceId, Tuple, Value};

/// Stable handle to one deduplicated filter conjunction.
pub(crate) type ClassId = usize;

/// Hashable identity of a class: its normalized terms, in canonical order
/// (the canonicalizer sorts them, and all terms of one class share a source,
/// so rebasing local → global source ids preserves the order).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ClassKey(Vec<(ColumnRef, CompareOp, Value)>);

#[derive(Debug)]
struct ClassEntry {
    source: SourceId,
    predicates: Vec<FilterPredicate>,
    key: ClassKey,
    refcount: usize,
}

/// The registry-wide index of filter classes.
#[derive(Debug, Default)]
pub struct SelectionIndex {
    /// Slot per ever-created class; `None` once released to refcount 0.
    classes: Vec<Option<ClassEntry>>,
    by_key: FastMap<ClassKey, ClassId>,
    /// Global source id → live class ids on that source (ascending).
    by_source: FastMap<SourceId, Vec<ClassId>>,
    evaluations: u64,
}

impl SelectionIndex {
    /// An empty index.
    pub fn new() -> Self {
        SelectionIndex::default()
    }

    /// Take one reference on the class for `terms` (already rebased to the
    /// global column space, all on `source`), creating it on first use.
    /// An empty conjunction has no class: every arrival passes.
    pub fn acquire(&mut self, source: SourceId, terms: &[FilterTerm]) -> Option<ClassId> {
        if terms.is_empty() {
            return None;
        }
        debug_assert!(terms.iter().all(|t| t.column.source == source));
        let key = ClassKey(
            terms
                .iter()
                .map(|t| (t.column, t.op, t.constant.clone()))
                .collect(),
        );
        #[expect(
            clippy::expect_used,
            reason = "INVARIANT: by_key only references live class slots (removed together in release)."
        )]
        if let Some(&id) = self.by_key.get(&key) {
            self.classes[id].as_mut().expect("live class").refcount += 1;
            return Some(id);
        }
        let id = self.classes.len();
        self.classes.push(Some(ClassEntry {
            source,
            predicates: terms.iter().map(FilterTerm::predicate).collect(),
            key: key.clone(),
            refcount: 1,
        }));
        self.by_key.insert(key, id);
        self.by_source.entry(source).or_default().push(id);
        Some(id)
    }

    /// Drop one reference; the class disappears at refcount 0.
    pub(crate) fn release(&mut self, id: ClassId) {
        let Some(slot) = self.classes.get_mut(id) else {
            return;
        };
        let Some(entry) = slot else { return };
        entry.refcount -= 1;
        if entry.refcount == 0 {
            self.by_key.remove(&entry.key);
            let source = entry.source;
            if let Some(ids) = self.by_source.get_mut(&source) {
                ids.retain(|&c| c != id);
            }
            *slot = None;
        }
    }

    /// Evaluate every distinct class on `source` against one arrival, once
    /// each. Returns `(class, passed)` pairs; a missing column rejects, as
    /// in [`jit_exec::SelectionOperator`].
    pub fn classify(&mut self, source: SourceId, tuple: &Tuple) -> Vec<(ClassId, bool)> {
        let Some(ids) = self.by_source.get(&source) else {
            return Vec::new();
        };
        let mut verdicts = Vec::with_capacity(ids.len());
        for &id in ids {
            #[expect(
                clippy::expect_used,
                reason = "INVARIANT: by_source only references live class slots (removed together in release)."
            )]
            let entry = self.classes[id].as_ref().expect("live class");
            self.evaluations += 1;
            let passed = entry
                .predicates
                .iter()
                .all(|p| p.holds_on(tuple).unwrap_or(false));
            verdicts.push((id, passed));
        }
        verdicts
    }

    /// Number of references currently held on `id` (0 if released).
    pub(crate) fn refcount(&self, id: ClassId) -> usize {
        self.classes
            .get(id)
            .and_then(Option::as_ref)
            .map_or(0, |e| e.refcount)
    }

    /// Number of live classes.
    pub(crate) fn num_classes(&self) -> usize {
        self.classes.iter().flatten().count()
    }

    /// Total class evaluations performed so far.
    pub(crate) fn evaluations(&self) -> u64 {
        self.evaluations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jit_types::{BaseTuple, Timestamp};
    use std::sync::Arc;

    fn term(source: u16, column: u16, op: CompareOp, constant: i64) -> FilterTerm {
        FilterTerm {
            column: ColumnRef::new(SourceId(source), column),
            op,
            constant: Value::int(constant),
        }
    }

    fn tuple(source: u16, values: Vec<i64>) -> Tuple {
        Tuple::from_base(Arc::new(BaseTuple::new(
            SourceId(source),
            0,
            Timestamp::ZERO,
            values.into_iter().map(Value::int).collect(),
        )))
    }

    #[test]
    fn identical_conjunctions_share_one_class() {
        let mut index = SelectionIndex::new();
        let terms = vec![term(0, 0, CompareOp::Gt, 10)];
        let a = index.acquire(SourceId(0), &terms).unwrap();
        let b = index.acquire(SourceId(0), &terms).unwrap();
        assert_eq!(a, b);
        assert_eq!(index.refcount(a), 2);
        assert_eq!(index.num_classes(), 1);
        // A different constant is a different class.
        let c = index
            .acquire(SourceId(0), &[term(0, 0, CompareOp::Gt, 11)])
            .unwrap();
        assert_ne!(a, c);
        assert_eq!(index.num_classes(), 2);
        // The empty conjunction has no class at all.
        assert_eq!(index.acquire(SourceId(1), &[]), None);
    }

    #[test]
    fn classify_evaluates_each_class_once() {
        let mut index = SelectionIndex::new();
        let gt = index
            .acquire(SourceId(0), &[term(0, 0, CompareOp::Gt, 10)])
            .unwrap();
        index.acquire(SourceId(0), &[term(0, 0, CompareOp::Gt, 10)]);
        let lt = index
            .acquire(SourceId(0), &[term(0, 1, CompareOp::Lt, 5)])
            .unwrap();
        let verdicts = index.classify(SourceId(0), &tuple(0, vec![20, 9]));
        assert_eq!(verdicts, vec![(gt, true), (lt, false)]);
        // Two classes evaluated — not three, despite three references.
        assert_eq!(index.evaluations(), 2);
        // A source with no classes classifies to nothing.
        assert!(index.classify(SourceId(7), &tuple(7, vec![1])).is_empty());
        // A tuple missing the filtered column is rejected, not passed.
        let short = index.classify(SourceId(0), &tuple(0, vec![20]));
        assert_eq!(short, vec![(gt, true), (lt, false)]);
    }

    #[test]
    fn release_reclaims_at_zero_and_never_reuses_ids() {
        let mut index = SelectionIndex::new();
        let terms = vec![term(0, 0, CompareOp::Eq, 1)];
        let a = index.acquire(SourceId(0), &terms).unwrap();
        index.acquire(SourceId(0), &terms);
        index.release(a);
        assert_eq!(index.refcount(a), 1);
        index.release(a);
        assert_eq!(index.num_classes(), 0);
        assert!(index.classify(SourceId(0), &tuple(0, vec![1])).is_empty());
        // Re-acquiring the same terms mints a fresh id.
        let b = index.acquire(SourceId(0), &terms).unwrap();
        assert_ne!(a, b);
        // Releasing a dead id is a no-op.
        index.release(a);
        assert_eq!(index.refcount(b), 1);
    }
}
