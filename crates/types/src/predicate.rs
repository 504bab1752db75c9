//! Join and selection predicates.
//!
//! The paper's evaluation uses *clique* equi-join queries: there is an
//! equi-join condition between every pair of the `N` sources
//! (Section VI). [`PredicateSet::clique`] constructs exactly that predicate,
//! with the column layout described in the paper (each source carries `N − 1`
//! columns, one per partner source).
//!
//! [`FilterPredicate`] models single-tuple conditions used by selection
//! operators (CQL's constant filters, such as `A.x > 200`).

use crate::schema::{ColumnRef, SourceId, SourceSet};
use crate::tuple::Tuple;
use crate::value::Value;
use std::fmt;

/// An equality condition between two columns of different sources,
/// e.g. `A.x1 = B.x1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EquiPredicate {
    /// Left column.
    pub left: ColumnRef,
    /// Right column.
    pub right: ColumnRef,
}

impl EquiPredicate {
    /// Construct an equi-join predicate.
    pub fn new(left: ColumnRef, right: ColumnRef) -> Self {
        EquiPredicate { left, right }
    }

    /// Does the predicate connect a source in `a` with a source in `b`?
    pub fn spans(&self, a: SourceSet, b: SourceSet) -> bool {
        (a.contains(self.left.source) && b.contains(self.right.source))
            || (a.contains(self.right.source) && b.contains(self.left.source))
    }

    /// Evaluate the predicate over a single (composite) tuple.
    ///
    /// Returns `None` if the tuple does not cover both referenced sources
    /// (the predicate is then *not applicable*), otherwise whether the two
    /// values are equal.
    pub fn holds_on(&self, t: &Tuple) -> Option<bool> {
        let l = t.value(self.left)?;
        let r = t.value(self.right)?;
        Some(l == r)
    }

    /// Evaluate the predicate across two tuples (one column from each side).
    ///
    /// Returns `None` when the predicate does not span the two tuples.
    pub fn holds_across(&self, a: &Tuple, b: &Tuple) -> Option<bool> {
        let (va, vb) = match (a.value(self.left), b.value(self.right)) {
            (Some(x), Some(y)) => (x, y),
            _ => match (a.value(self.right), b.value(self.left)) {
                (Some(x), Some(y)) => (x, y),
                _ => return None,
            },
        };
        Some(va == vb)
    }
}

impl fmt::Display for EquiPredicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} = {}", self.left, self.right)
    }
}

/// A conjunction of equi-join predicates — the join condition of a query.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct PredicateSet {
    predicates: Vec<EquiPredicate>,
}

impl PredicateSet {
    /// An empty conjunction (always true — a cross product).
    pub fn new() -> Self {
        PredicateSet::default()
    }

    /// Build from an explicit list of predicates.
    pub fn from_predicates(predicates: Vec<EquiPredicate>) -> Self {
        PredicateSet { predicates }
    }

    /// The clique-join predicate over `n` sources used throughout Section VI.
    ///
    /// Each source carries `n − 1` columns, one per partner source; the
    /// column of source `i` that faces partner `j` is `j` if `j < i`, else
    /// `j − 1`. For every pair `i < j` there is one equi-join condition
    /// between the two facing columns, so all `n·(n−1)/2` conditions use
    /// distinct columns, exactly as in the paper's example for `N = 4`.
    pub fn clique(n: usize) -> Self {
        let mut predicates = Vec::with_capacity(n * n.saturating_sub(1) / 2);
        for i in 0..n {
            for j in (i + 1)..n {
                let left = ColumnRef::new(SourceId(i as u16), facing_column(i, j));
                let right = ColumnRef::new(SourceId(j as u16), facing_column(j, i));
                predicates.push(EquiPredicate::new(left, right));
            }
        }
        PredicateSet { predicates }
    }

    /// All predicates in the conjunction.
    pub fn predicates(&self) -> &[EquiPredicate] {
        &self.predicates
    }

    /// Number of predicates.
    pub fn len(&self) -> usize {
        self.predicates.len()
    }

    /// Is the conjunction empty (i.e. a cross product)?
    pub fn is_empty(&self) -> bool {
        self.predicates.is_empty()
    }

    /// Add a predicate to the conjunction.
    pub fn push(&mut self, p: EquiPredicate) {
        self.predicates.push(p);
    }

    /// Evaluate the *spanning* predicates between two tuples.
    ///
    /// Predicates entirely inside either tuple are assumed to have been
    /// checked when that tuple was produced; predicates referencing sources
    /// not covered by either tuple are ignored (they will be checked by a
    /// downstream operator). Returns `true` iff every applicable spanning
    /// predicate holds, and reports the number of predicate evaluations
    /// performed through `eval_count` (for the cost model).
    pub fn join_matches(&self, a: &Tuple, b: &Tuple, eval_count: &mut u64) -> bool {
        for p in &self.predicates {
            if p.spans(a.sources(), b.sources()) {
                *eval_count += 1;
                match p.holds_across(a, b) {
                    Some(true) => {}
                    Some(false) => return false,
                    None => {}
                }
            }
        }
        true
    }

    /// Like [`PredicateSet::join_matches`] without cost accounting.
    pub fn matches(&self, a: &Tuple, b: &Tuple) -> bool {
        let mut c = 0;
        self.join_matches(a, b, &mut c)
    }

    /// The sources in `side` that are referenced by a predicate reaching a
    /// source in `opposite`.
    ///
    /// These are the components eligible to appear in a candidate
    /// non-demanded sub-tuple (CNS) at a consumer whose opposite input has
    /// schema `opposite` (Section IV-A: "A CNS can only contain components
    /// that appear in the join predicate of O_C").
    pub fn sources_facing(&self, side: SourceSet, opposite: SourceSet) -> SourceSet {
        let mut out = SourceSet::EMPTY;
        for p in &self.predicates {
            if p.spans(side, opposite) {
                if side.contains(p.left.source) {
                    out.insert(p.left.source);
                }
                if side.contains(p.right.source) {
                    out.insert(p.right.source);
                }
            }
        }
        out
    }

    /// The columns of sources in `side` that participate in predicates
    /// reaching `opposite` — the *join attributes* of a sub-tuple with
    /// respect to this consumer. Sorted and deduplicated.
    pub fn join_columns(&self, side: SourceSet, opposite: SourceSet) -> Vec<ColumnRef> {
        let mut cols: Vec<ColumnRef> = Vec::new();
        for p in &self.predicates {
            if p.spans(side, opposite) {
                if side.contains(p.left.source) {
                    cols.push(p.left);
                }
                if side.contains(p.right.source) {
                    cols.push(p.right);
                }
            }
        }
        cols.sort();
        cols.dedup();
        cols
    }

    /// Union of all sources referenced by any predicate.
    pub fn referenced_sources(&self) -> SourceSet {
        let mut s = SourceSet::EMPTY;
        for p in &self.predicates {
            s.insert(p.left.source);
            s.insert(p.right.source);
        }
        s
    }
}

impl fmt::Display for PredicateSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.predicates.is_empty() {
            return write!(f, "TRUE");
        }
        for (i, p) in self.predicates.iter().enumerate() {
            if i > 0 {
                write!(f, " ∧ ")?;
            }
            write!(f, "({p})")?;
        }
        Ok(())
    }
}

/// The column of source `i` that faces partner source `j` in the clique
/// layout (each source has one column per partner, in partner-id order).
fn facing_column(i: usize, j: usize) -> u16 {
    debug_assert_ne!(i, j);
    if j < i {
        j as u16
    } else {
        (j - 1) as u16
    }
}

/// Comparison operators for selection predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompareOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Strictly less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Strictly greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

/// A single-tuple filter, e.g. `A.x > 200` (Figure 9a).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterPredicate {
    /// Column being tested.
    pub column: ColumnRef,
    /// Comparison operator.
    pub op: CompareOp,
    /// Constant operand.
    pub(crate) constant: Value,
}

impl FilterPredicate {
    /// Construct a filter predicate.
    pub fn new(column: ColumnRef, op: CompareOp, constant: Value) -> Self {
        FilterPredicate {
            column,
            op,
            constant,
        }
    }

    /// `column > constant`.
    pub fn gt(column: ColumnRef, constant: impl Into<Value>) -> Self {
        Self::new(column, CompareOp::Gt, constant.into())
    }

    /// Evaluate against a tuple. Returns `None` when the tuple does not cover
    /// the referenced column.
    pub fn holds_on(&self, t: &Tuple) -> Option<bool> {
        let v = t.value(self.column)?;
        Some(match self.op {
            CompareOp::Eq => *v == self.constant,
            CompareOp::Ne => *v != self.constant,
            CompareOp::Lt => *v < self.constant,
            CompareOp::Le => *v <= self.constant,
            CompareOp::Gt => *v > self.constant,
            CompareOp::Ge => *v >= self.constant,
        })
    }
}

impl fmt::Display for FilterPredicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let op = match self.op {
            CompareOp::Eq => "=",
            CompareOp::Ne => "<>",
            CompareOp::Lt => "<",
            CompareOp::Le => "<=",
            CompareOp::Gt => ">",
            CompareOp::Ge => ">=",
        };
        write!(f, "{} {} {}", self.column, op, self.constant)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timestamp::Timestamp;
    use crate::tuple::BaseTuple;
    use std::sync::Arc;

    fn tup(source: u16, seq: u64, vals: &[i64]) -> Tuple {
        Tuple::from_base(Arc::new(BaseTuple::new(
            SourceId(source),
            seq,
            Timestamp::from_millis(seq * 10),
            vals.iter().map(|&v| Value::int(v)).collect(),
        )))
    }

    #[test]
    fn facing_column_layout() {
        // Source 0 faces partners 1,2,3 with columns 0,1,2.
        assert_eq!(facing_column(0, 1), 0);
        assert_eq!(facing_column(0, 3), 2);
        // Source 2 faces partners 0,1 with columns 0,1 and partner 3 with 2.
        assert_eq!(facing_column(2, 0), 0);
        assert_eq!(facing_column(2, 1), 1);
        assert_eq!(facing_column(2, 3), 2);
    }

    #[test]
    fn clique_has_all_pairs() {
        let p = PredicateSet::clique(4);
        assert_eq!(p.len(), 6);
        assert_eq!(p.referenced_sources(), SourceSet::first_n(4));
        // every pair appears exactly once
        for i in 0..4u16 {
            for j in (i + 1)..4u16 {
                let count = p
                    .predicates()
                    .iter()
                    .filter(|pr| (pr.left.source, pr.right.source) == (SourceId(i), SourceId(j)))
                    .count();
                assert_eq!(count, 1, "pair ({i},{j})");
            }
        }
    }

    #[test]
    fn clique_columns_are_distinct_per_source() {
        let p = PredicateSet::clique(5);
        // Within one source, each predicate touching it uses a distinct column.
        for s in 0..5u16 {
            let mut cols: Vec<u16> = p
                .predicates()
                .iter()
                .flat_map(|pr| {
                    [pr.left, pr.right]
                        .into_iter()
                        .filter(|c| c.source == SourceId(s))
                        .map(|c| c.column)
                })
                .collect();
            cols.sort_unstable();
            let before = cols.len();
            cols.dedup();
            assert_eq!(cols.len(), before);
            assert_eq!(cols, (0..4).collect::<Vec<u16>>());
        }
    }

    #[test]
    fn spans_either_way() {
        let p = EquiPredicate::new(
            ColumnRef::new(SourceId(0), 0),
            ColumnRef::new(SourceId(1), 0),
        );
        let a = SourceSet::single(SourceId(0));
        let b = SourceSet::single(SourceId(1));
        assert!(p.spans(a, b));
        assert!(p.spans(b, a));
        assert!(!p.spans(a, a));
    }

    #[test]
    fn holds_across_matches_values() {
        // A.x0 = B.x0
        let p = EquiPredicate::new(
            ColumnRef::new(SourceId(0), 0),
            ColumnRef::new(SourceId(1), 0),
        );
        let a = tup(0, 1, &[7, 9]);
        let b_match = tup(1, 1, &[7]);
        let b_nomatch = tup(1, 2, &[8]);
        assert_eq!(p.holds_across(&a, &b_match), Some(true));
        assert_eq!(p.holds_across(&b_match, &a), Some(true));
        assert_eq!(p.holds_across(&a, &b_nomatch), Some(false));
        // Not applicable when one side is missing.
        let c = tup(2, 1, &[7]);
        assert_eq!(p.holds_across(&a, &c), None);
    }

    #[test]
    fn join_matches_checks_only_spanning_predicates() {
        let preds = PredicateSet::clique(3);
        // Source columns: each of the 3 sources has 2 columns.
        // A=(x0 toward B, x1 toward C), B=(x0 toward A, x1 toward C), C=(x0 toward A, x1 toward B)
        let a = tup(0, 1, &[5, 100]);
        let b = tup(1, 1, &[5, 200]);
        let c_match = tup(2, 1, &[100, 200]);
        let c_nomatch = tup(2, 2, &[100, 999]);
        let mut cost = 0;
        assert!(preds.join_matches(&a, &b, &mut cost));
        assert_eq!(cost, 1); // only A-B predicate spans
        let ab = a.join(&b).unwrap();
        assert!(preds.matches(&ab, &c_match));
        assert!(!preds.matches(&ab, &c_nomatch));
    }

    #[test]
    fn sources_facing_restricts_cns_components() {
        // 3-way query from Figure 1: A.x = B.x, A.y = C.y.
        let preds = PredicateSet::from_predicates(vec![
            EquiPredicate::new(
                ColumnRef::new(SourceId(0), 0),
                ColumnRef::new(SourceId(1), 0),
            ),
            EquiPredicate::new(
                ColumnRef::new(SourceId(0), 1),
                ColumnRef::new(SourceId(2), 0),
            ),
        ]);
        let ab = SourceSet::first_n(2);
        let c = SourceSet::single(SourceId(2));
        // Only A appears in the predicate of Op2 (A.y = C.y), so CNSs of an AB
        // input can only contain the A component — as in the paper.
        assert_eq!(preds.sources_facing(ab, c), SourceSet::single(SourceId(0)));
        let cols = preds.join_columns(ab, c);
        assert_eq!(cols, vec![ColumnRef::new(SourceId(0), 1)]);
    }

    #[test]
    fn filter_predicates_evaluate() {
        let a = tup(0, 1, &[250, 3]);
        let f = FilterPredicate::gt(ColumnRef::new(SourceId(0), 0), 200);
        assert_eq!(f.holds_on(&a), Some(true));
        let f = FilterPredicate::new(
            ColumnRef::new(SourceId(0), 0),
            CompareOp::Lt,
            Value::int(200),
        );
        assert_eq!(f.holds_on(&a), Some(false));
        let f = FilterPredicate::new(ColumnRef::new(SourceId(0), 1), CompareOp::Eq, Value::int(3));
        assert_eq!(f.holds_on(&a), Some(true));
        let f = FilterPredicate::new(ColumnRef::new(SourceId(5), 0), CompareOp::Eq, Value::int(3));
        assert_eq!(f.holds_on(&a), None);
        assert_eq!(
            FilterPredicate::gt(ColumnRef::new(SourceId(0), 0), 200).to_string(),
            "A.x0 > 200"
        );
    }

    #[test]
    fn display_predicate_set() {
        let p = PredicateSet::clique(3);
        let s = p.to_string();
        assert!(s.contains("A.x0 = B.x0"));
        assert!(s.contains('∧'));
        assert_eq!(PredicateSet::new().to_string(), "TRUE");
    }
}
