//! Static key-partitionability analysis.
//!
//! The sharded backend runs one independent executor per shard, so it is
//! only transparent when any two tuples that *could* join are guaranteed to
//! land in the same shard. With a [`jit_stream::ShardPartitioner`] hashing
//! one designated key column of every source, that holds exactly when the
//! join predicates force every source's key column to carry the same value
//! in any joining combination — i.e. when all the key columns sit in one
//! equivalence class of the predicate set's transitive column-equality
//! closure.
//!
//! [`check_key_partitionable`] computes that closure with a union–find over
//! the referenced columns. Workloads whose partitionability is a *data*
//! invariant rather than a predicate consequence (the generator's
//! shared-key mode replicates one key into every column, so the clique
//! predicates all reduce to key equality even though their column indices
//! differ) cannot be proven statically; callers assert the invariant with
//! [`crate::EngineBuilder::assume_key_partitionable`] instead.

use jit_types::{ColumnRef, PredicateSet, SourceId};
use std::collections::BTreeMap;

/// A tiny union–find over dense node ids.
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new() -> Self {
        UnionFind { parent: Vec::new() }
    }

    fn add(&mut self) -> usize {
        let id = self.parent.len();
        self.parent.push(id);
        id
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]]; // path halving
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[rb] = ra;
        }
    }
}

/// Verify that hashing column `key_column` of every source is a lossless
/// shard assignment for `predicates` over `num_sources` sources.
///
/// Returns `Err(detail)` naming the first source whose key column is not
/// transitively equated with source 0's — the witness that two joinable
/// tuples could disagree on the partition key and end up in different
/// shards.
pub(crate) fn check_key_partitionable(
    predicates: &PredicateSet,
    num_sources: usize,
    key_column: usize,
) -> Result<(), String> {
    if num_sources <= 1 {
        return Ok(()); // a single source never joins across shards
    }
    if predicates.is_empty() {
        return Err(format!(
            "the query has no join predicates (a cross product over {num_sources} sources \
             joins across any partitioning)"
        ));
    }
    let mut uf = UnionFind::new();
    let mut ids: BTreeMap<(u16, u16), usize> = BTreeMap::new();
    let mut id_of = |uf: &mut UnionFind, c: ColumnRef| {
        *ids.entry((c.source.0, c.column))
            .or_insert_with(|| uf.add())
    };
    for p in predicates.predicates() {
        let l = id_of(&mut uf, p.left);
        let r = id_of(&mut uf, p.right);
        uf.union(l, r);
    }
    let key = |s: usize| ColumnRef::new(SourceId(s as u16), key_column as u16);
    let anchor = id_of(&mut uf, key(0));
    let anchor = uf.find(anchor);
    for s in 1..num_sources {
        let k = id_of(&mut uf, key(s));
        if uf.find(k) != anchor {
            return Err(format!(
                "source {}'s partition key column {key_column} is not transitively equated \
                 with source {}'s by the join predicates",
                SourceId(s as u16),
                SourceId(0),
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use jit_types::EquiPredicate;

    fn col(s: u16, c: u16) -> ColumnRef {
        ColumnRef::new(SourceId(s), c)
    }

    #[test]
    fn chain_of_key_equalities_is_partitionable() {
        // A.0 = B.0 AND B.0 = C.0: one class covering every key column.
        let preds = PredicateSet::from_predicates(vec![
            EquiPredicate::new(col(0, 0), col(1, 0)),
            EquiPredicate::new(col(1, 0), col(2, 0)),
        ]);
        assert!(check_key_partitionable(&preds, 3, 0).is_ok());
    }

    #[test]
    fn transitive_closure_spans_intermediate_columns() {
        // A.0 = B.2 AND B.2 = B.0 is not expressible (predicates are
        // cross-source), but A.0 = B.0 AND A.0 = C.0 closes transitively.
        let preds = PredicateSet::from_predicates(vec![
            EquiPredicate::new(col(0, 0), col(1, 0)),
            EquiPredicate::new(col(0, 0), col(2, 0)),
        ]);
        assert!(check_key_partitionable(&preds, 3, 0).is_ok());
    }

    #[test]
    fn clique_predicates_are_not_statically_partitionable() {
        // The generator's clique joins equate *facing* columns with
        // different indices; only the shared-key data invariant makes them
        // partitionable, which a static check must not assume.
        let preds = PredicateSet::clique(3);
        let err = check_key_partitionable(&preds, 3, 0).unwrap_err();
        assert!(err.contains("partition key"), "{err}");
    }

    #[test]
    fn join_on_non_key_column_is_rejected() {
        let preds = PredicateSet::from_predicates(vec![EquiPredicate::new(col(0, 1), col(1, 1))]);
        assert!(check_key_partitionable(&preds, 2, 0).is_err());
    }

    #[test]
    fn cross_product_and_single_source_edge_cases() {
        assert!(check_key_partitionable(&PredicateSet::new(), 2, 0).is_err());
        assert!(check_key_partitionable(&PredicateSet::new(), 1, 0).is_ok());
    }

    #[test]
    fn alternative_key_column() {
        let preds = PredicateSet::from_predicates(vec![EquiPredicate::new(col(0, 1), col(1, 1))]);
        assert!(check_key_partitionable(&preds, 2, 1).is_ok());
        assert!(check_key_partitionable(&preds, 2, 0).is_err());
    }
}
