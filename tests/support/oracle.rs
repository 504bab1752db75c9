//! An oracle that is not the engine: the sliding-window multiway join of an
//! arrival trace, computed by nested loops over `Vec`s.
//!
//! It reads a `jit_stream` trace and `jit_types` values only — nothing from
//! the operators, states, plans or executors it checks. A result is one
//! tuple per source such that every join predicate whose two columns the
//! result covers holds, and whose parts all lie within the window of each
//! other: `ts() − min_ts() < w`, the half-open span rule (ROADMAP item 2).
//!
//! Partial results are extended one source at a time, and a partial whose
//! span already reaches `w` is dropped before it is extended, so the debug
//! build answers the golden grid in well under a second.

use jit_stream::Trace;
use jit_types::{Duration, PredicateSet, Tuple, TupleKey};

/// Does `tuple` lie within one window: `ts() − min_ts() < w`?
pub(crate) fn within_window(tuple: &Tuple, window: Duration) -> bool {
    tuple.ts().saturating_sub(tuple.min_ts()) < window
}

/// Does every predicate whose two columns `tuple` covers hold on it?
fn predicates_hold(predicates: &PredicateSet, tuple: &Tuple) -> bool {
    predicates
        .predicates()
        .iter()
        .all(|p| match (tuple.value(p.left), tuple.value(p.right)) {
            (Some(a), Some(b)) => a == b,
            _ => true,
        })
}

/// Every result of joining the `num_sources` sources of `trace` (source ids
/// `0..num_sources`) under `predicates` and a sliding window of length
/// `window`, as tuples in no particular order.
pub(crate) fn window_join(
    trace: &Trace,
    predicates: &PredicateSet,
    num_sources: usize,
    window: Duration,
) -> Vec<Tuple> {
    let mut by_source: Vec<Vec<Tuple>> = vec![Vec::new(); num_sources];
    for event in trace.iter() {
        by_source[usize::from(event.source.0)].push(Tuple::from_base(event.tuple.clone()));
    }
    let mut partial = by_source[0].clone();
    for tuples in &by_source[1..] {
        let mut extended = Vec::new();
        for prefix in &partial {
            for tuple in tuples {
                let joined = prefix.join(tuple).expect("one part per source");
                if within_window(&joined, window) && predicates_hold(predicates, &joined) {
                    extended.push(joined);
                }
            }
        }
        partial = extended;
    }
    partial
}

/// The identities of `results`, sorted: equal multisets give equal vectors.
pub(crate) fn identities<'a>(results: impl IntoIterator<Item = &'a Tuple>) -> Vec<TupleKey> {
    let mut keys: Vec<TupleKey> = results.into_iter().map(Tuple::key).collect();
    keys.sort();
    keys
}

/// What differs between two sorted identity lists: the identities only the
/// first holds (counting repeats), then those only the second holds.
pub(crate) fn difference(a: &[TupleKey], b: &[TupleKey]) -> (Vec<TupleKey>, Vec<TupleKey>) {
    let (mut only_a, mut only_b) = (Vec::new(), Vec::new());
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        match (a.get(i), b.get(j)) {
            (Some(x), Some(y)) if x == y => (i, j) = (i + 1, j + 1),
            (Some(x), Some(y)) if x < y => {
                only_a.push(x.clone());
                i += 1;
            }
            (Some(x), None) => {
                only_a.push(x.clone());
                i += 1;
            }
            (_, Some(y)) => {
                only_b.push(y.clone());
                j += 1;
            }
            (None, None) => break,
        }
    }
    (only_a, only_b)
}
