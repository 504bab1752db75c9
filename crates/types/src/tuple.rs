//! Base and composite tuples.
//!
//! A [`BaseTuple`] is a record arriving from one streaming source. A
//! [`Tuple`] is the composite of base tuples from *distinct* sources — the
//! unit that flows between operators of an execution plan. A base tuple is
//! simply a composite tuple with one component; the *empty tuple* Ø has no
//! components and is a sub-tuple of every tuple (Section III-A).
//!
//! The sub-tuple / super-tuple relation used throughout the paper is
//! implemented by [`Tuple::is_subtuple_of`]: `s` is a sub-tuple of `t` iff
//! every component (identified by source and per-source sequence number) of
//! `s` also appears in `t`.

use crate::schema::{ColumnRef, SourceId, SourceSet};
use crate::timestamp::Timestamp;
use crate::value::Value;
use crate::TypeError;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// A record arriving from a single streaming source.
///
/// Base tuples are immutable once created and shared by reference
/// (`Arc<BaseTuple>`) between operator states, composite tuples, MNS buffers
/// and blacklists, so a record arriving once is stored once.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BaseTuple {
    /// Which source produced the record.
    pub source: SourceId,
    /// Per-source sequence number; `(source, seq)` uniquely identifies the
    /// record for the lifetime of a run.
    pub seq: u64,
    /// Arrival timestamp (application time).
    pub ts: Timestamp,
    /// Column values, in the source schema's column order.
    pub values: Arc<[Value]>,
}

impl BaseTuple {
    /// Construct a base tuple.
    pub fn new(source: SourceId, seq: u64, ts: Timestamp, values: Vec<Value>) -> Self {
        BaseTuple {
            source,
            seq,
            ts,
            values: values.into(),
        }
    }

    /// Value of the `column`-th attribute, if present.
    pub fn value(&self, column: u16) -> Option<&Value> {
        self.values.get(column as usize)
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// Approximate footprint in bytes (struct + value payloads).
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.values.iter().map(Value::size_bytes).sum::<usize>()
    }
}

impl fmt::Display for BaseTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}(", self.source, self.seq)?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")@{}", self.ts)
    }
}

/// Identity of a composite tuple: the sorted list of `(source, seq)` pairs of
/// its components. Two tuples with equal keys represent the same join result.
///
/// Keys are built to look something up on every operator call, so up to
/// [`TupleKey::INLINE`] pairs live in the key itself; only wider composites
/// spill to the heap. Equality, ordering, hashing, `Debug`, `Display` and the
/// serialised form all read the key as its pair sequence, whichever way it is
/// stored.
#[derive(Clone)]
pub struct TupleKey(KeyPairs);

#[derive(Clone)]
enum KeyPairs {
    Inline {
        len: u8,
        pairs: [(u16, u64); TupleKey::INLINE],
    },
    Spilled(Vec<(u16, u64)>),
}

impl TupleKey {
    /// Most pairs a key holds without a heap allocation.
    pub const INLINE: usize = 4;

    /// The `(source, seq)` pairs, in the order they were given.
    pub fn pairs(&self) -> &[(u16, u64)] {
        match &self.0 {
            KeyPairs::Inline { len, pairs } => &pairs[..*len as usize],
            KeyPairs::Spilled(pairs) => pairs,
        }
    }
}

impl Default for TupleKey {
    fn default() -> Self {
        TupleKey(KeyPairs::Inline {
            len: 0,
            pairs: [(0, 0); TupleKey::INLINE],
        })
    }
}

impl FromIterator<(u16, u64)> for TupleKey {
    fn from_iter<I: IntoIterator<Item = (u16, u64)>>(iter: I) -> Self {
        let mut inline = [(0, 0); TupleKey::INLINE];
        let mut len = 0;
        let mut iter = iter.into_iter();
        while let Some(pair) = iter.next() {
            if len == TupleKey::INLINE {
                let mut spilled = inline.to_vec();
                spilled.push(pair);
                spilled.extend(iter);
                return TupleKey(KeyPairs::Spilled(spilled));
            }
            inline[len] = pair;
            len += 1;
        }
        TupleKey(KeyPairs::Inline {
            len: len as u8,
            pairs: inline,
        })
    }
}

impl PartialEq for TupleKey {
    fn eq(&self, other: &Self) -> bool {
        self.pairs() == other.pairs()
    }
}

impl Eq for TupleKey {}

impl PartialOrd for TupleKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TupleKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.pairs().cmp(other.pairs())
    }
}

impl std::hash::Hash for TupleKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.pairs().hash(state);
    }
}

impl fmt::Debug for TupleKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("TupleKey").field(&self.pairs()).finish()
    }
}

impl Serialize for TupleKey {
    fn to_content(&self) -> serde::Content {
        self.pairs().to_content()
    }
}

impl Deserialize for TupleKey {
    fn from_content(content: &serde::Content) -> Result<Self, serde::Error> {
        Vec::<(u16, u64)>::from_content(content).map(|pairs| pairs.into_iter().collect())
    }
}

impl fmt::Display for TupleKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, (s, q)) in self.pairs().iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{}{}", SourceId(*s), q)?;
        }
        write!(f, "]")
    }
}

/// A composite tuple: the combination of base tuples from distinct sources.
///
/// * The empty tuple Ø ([`Tuple::empty`]) has no components.
/// * A single-component tuple wraps one [`BaseTuple`].
/// * Join results combine the components of both inputs
///   ([`Tuple::join`]); the result timestamp is the maximum component
///   timestamp, per Section II.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize)]
pub struct Tuple {
    /// Components sorted by source id; each source appears at most once.
    parts: Parts,
    /// Cached set of covered sources.
    sources: SourceSet,
    /// Cached timestamp (max component timestamp; `Timestamp::ZERO` for Ø).
    ts: Timestamp,
}

/// Component storage for [`Tuple`].
///
/// The single-component case is the per-arrival hot path (every base tuple is
/// wrapped before entering the plan), so it stores the `Arc<BaseTuple>`
/// inline instead of behind an `Arc<[_]>` slice — one refcount bump instead
/// of a heap allocation. The two representations compare, hash and serialize
/// identically: everything goes through [`Parts::as_slice`].
#[derive(Debug, Clone)]
enum Parts {
    Single(Arc<BaseTuple>),
    Multi(Arc<[Arc<BaseTuple>]>),
}

impl Parts {
    #[inline]
    fn as_slice(&self) -> &[Arc<BaseTuple>] {
        match self {
            Parts::Single(p) => std::slice::from_ref(p),
            Parts::Multi(ps) => ps,
        }
    }

    fn from_vec(mut parts: Vec<Arc<BaseTuple>>) -> Self {
        if parts.len() == 1 {
            #[expect(clippy::expect_used, reason = "INVARIANT: len == 1 was just checked.")]
            Parts::Single(parts.pop().expect("len checked"))
        } else {
            Parts::Multi(Arc::from(parts))
        }
    }
}

impl PartialEq for Parts {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Parts {}

impl std::hash::Hash for Parts {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl Serialize for Parts {
    fn to_content(&self) -> serde::Content {
        serde::Content::Seq(self.as_slice().iter().map(Serialize::to_content).collect())
    }
}

/// A serialised tuple is rebuilt through `Tuple::from_parts`, so a blob
/// restores only a tuple this type could have built: parts strictly
/// ascending by source, every source below [`SourceSet::MAX_SOURCES`], and
/// the stored `sources` and `ts` equal to what the parts imply. Anything
/// else is an error here rather than a panic (or a silently malformed
/// tuple) at the first join that reads it.
impl Deserialize for Tuple {
    fn from_content(content: &serde::Content) -> Result<Self, serde::Error> {
        const TY: &str = "Tuple";
        let map = content
            .as_map()
            .ok_or_else(|| serde::Error::expected("object", TY))?;
        let parts: Vec<Arc<BaseTuple>> = serde::field(map, "parts", TY)?;
        let ascending = parts.windows(2).all(|w| w[0].source < w[1].source);
        if !ascending
            || parts
                .last()
                .is_some_and(|p| p.source.index() >= SourceSet::MAX_SOURCES)
        {
            return Err(serde::Error::expected(
                "parts ascending by source below 64",
                TY,
            ));
        }
        let tuple = Tuple::from_parts(parts).map_err(|e| serde::Error::msg(e.to_string()))?;
        let stored = (
            serde::field(map, "sources", TY)?,
            serde::field(map, "ts", TY)?,
        );
        if stored != (tuple.sources, tuple.ts) {
            return Err(serde::Error::msg(format!(
                "tuple {tuple} stored with (sources, ts) {stored:?}, not its parts'"
            )));
        }
        Ok(tuple)
    }
}

impl Tuple {
    /// The empty tuple Ø — sub-tuple of every tuple.
    pub fn empty() -> Self {
        Tuple {
            parts: Parts::Multi(Arc::from(Vec::new())),
            sources: SourceSet::EMPTY,
            ts: Timestamp::ZERO,
        }
    }

    /// Wrap a base tuple as a single-component composite tuple.
    ///
    /// This runs once per arrival and allocates nothing: the component is
    /// stored inline in the single-part variant of the internal parts enum.
    pub fn from_base(base: Arc<BaseTuple>) -> Self {
        let sources = SourceSet::single(base.source);
        let ts = base.ts;
        Tuple {
            parts: Parts::Single(base),
            sources,
            ts,
        }
    }

    /// Build a composite tuple from components.
    ///
    /// Returns an error if two components come from the same source.
    fn from_parts(mut parts: Vec<Arc<BaseTuple>>) -> Result<Self, TypeError> {
        parts.sort_by_key(|p| p.source);
        let mut sources = SourceSet::EMPTY;
        let mut ts = Timestamp::ZERO;
        for p in &parts {
            if sources.contains(p.source) {
                return Err(TypeError::DuplicateSource(p.source));
            }
            sources.insert(p.source);
            ts = ts.max(p.ts);
        }
        Ok(Tuple {
            parts: Parts::from_vec(parts),
            sources,
            ts,
        })
    }

    /// Join two tuples covering disjoint source sets.
    ///
    /// The result covers the union of sources and carries the later of the
    /// two timestamps. This is the one assembly path of every partial and
    /// final result. When one side's sources all precede the other's —
    /// every join of a bushy or left-deep plan — the two part lists chain
    /// straight into the shared slice, one allocation per result;
    /// interleaved sources merge the two sorted lists first.
    pub fn join(&self, other: &Tuple) -> Result<Tuple, TypeError> {
        if !self.sources.is_disjoint(other.sources) {
            return Err(TypeError::OverlappingSources {
                left: self.sources,
                right: other.sources,
            });
        }
        let (a, b) = (self.parts(), other.parts());
        let precedes = |x: &[Arc<BaseTuple>], y: &[Arc<BaseTuple>]| {
            x.last()
                .zip(y.first())
                .is_none_or(|(p, q)| p.source < q.source)
        };
        let parts: Arc<[Arc<BaseTuple>]> = if precedes(a, b) {
            a.iter().chain(b).cloned().collect()
        } else if precedes(b, a) {
            b.iter().chain(a).cloned().collect()
        } else {
            let mut merged = Vec::with_capacity(a.len() + b.len());
            let (mut i, mut j) = (0, 0);
            while i < a.len() && j < b.len() {
                if a[i].source < b[j].source {
                    merged.push(a[i].clone());
                    i += 1;
                } else {
                    merged.push(b[j].clone());
                    j += 1;
                }
            }
            merged.extend_from_slice(&a[i..]);
            merged.extend_from_slice(&b[j..]);
            Arc::from(merged)
        };
        debug_assert!(
            parts.windows(2).all(|w| w[0].source < w[1].source),
            "joined parts must be strictly ascending by source"
        );
        Ok(Tuple {
            parts: Parts::Multi(parts),
            sources: self.sources.union(other.sources),
            ts: self.ts.max(other.ts),
        })
    }

    /// The set of sources covered by this tuple.
    pub fn sources(&self) -> SourceSet {
        self.sources
    }

    /// The tuple's timestamp (maximum component timestamp).
    pub fn ts(&self) -> Timestamp {
        self.ts
    }

    /// The earliest component timestamp (`Timestamp::ZERO` for Ø).
    ///
    /// Useful for window-correctness checks: all components of a valid join
    /// result are pairwise within the window, hence
    /// `ts() − min_ts() ≤ w` must hold.
    pub fn min_ts(&self) -> Timestamp {
        self.parts()
            .iter()
            .map(|p| p.ts)
            .min()
            .unwrap_or(Timestamp::ZERO)
    }

    /// Is this the empty tuple Ø?
    pub fn is_empty(&self) -> bool {
        self.parts().is_empty()
    }

    /// Number of components.
    pub fn num_parts(&self) -> usize {
        self.parts().len()
    }

    /// The components, sorted by source id.
    pub fn parts(&self) -> &[Arc<BaseTuple>] {
        self.parts.as_slice()
    }

    /// The component contributed by `source`, if any.
    pub fn part(&self, source: SourceId) -> Option<&Arc<BaseTuple>> {
        self.parts().iter().find(|p| p.source == source)
    }

    /// Value of the referenced column, if this tuple covers the source.
    pub fn value(&self, col: ColumnRef) -> Option<&Value> {
        self.part(col.source).and_then(|p| p.value(col.column))
    }

    /// Restrict the tuple to the components whose source is in `keep`.
    ///
    /// Produces the (possibly empty) sub-tuple covering
    /// `self.sources() ∩ keep`.
    pub fn project(&self, keep: SourceSet) -> Tuple {
        if self.sources.is_subset(keep) {
            // Everything is kept (an MNS that is the whole input): share.
            return self.clone();
        }
        let mut kept = self.parts().iter().filter(|p| keep.contains(p.source));
        let (first, second) = (kept.next(), kept.next());
        if let (Some(only), None) = (first, second) {
            // One component (what nearly every MNS is): no part list to build.
            return Tuple::from_base(only.clone());
        }
        let parts: Vec<Arc<BaseTuple>> = first
            .into_iter()
            .chain(second)
            .chain(kept)
            .cloned()
            .collect();
        let mut sources = SourceSet::EMPTY;
        let mut ts = Timestamp::ZERO;
        for p in &parts {
            sources.insert(p.source);
            ts = ts.max(p.ts);
        }
        Tuple {
            parts: Parts::from_vec(parts),
            sources,
            ts,
        }
    }

    /// Is `self` a sub-tuple of `other`?
    ///
    /// True iff every component of `self` appears (same source, same sequence
    /// number) in `other`. The empty tuple is a sub-tuple of everything.
    pub fn is_subtuple_of(&self, other: &Tuple) -> bool {
        if !self.sources.is_subset(other.sources) {
            return false;
        }
        self.parts().iter().all(|p| {
            other
                .part(p.source)
                .map(|q| q.seq == p.seq)
                .unwrap_or(false)
        })
    }

    /// Is `self` a super-tuple of `other`?
    #[cfg(test)]
    fn is_supertuple_of(&self, other: &Tuple) -> bool {
        other.is_subtuple_of(self)
    }

    /// The identity key of the tuple (sorted `(source, seq)` pairs).
    pub fn key(&self) -> TupleKey {
        self.parts().iter().map(|p| (p.source.0, p.seq)).collect()
    }

    /// Approximate footprint in bytes.
    ///
    /// Components are shared via `Arc`, but the analytical memory model of
    /// the paper charges each *stored copy* of an intermediate result for its
    /// full payload (that is exactly the memory REF wastes on NPRs), so we
    /// deliberately count component payloads rather than pointer sizes.
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.parts().iter().map(|p| p.size_bytes()).sum::<usize>()
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "Ø");
        }
        write!(f, "⟨")?;
        for (i, p) in self.parts().iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{}{}", p.source, p.seq)?;
        }
        write!(f, "⟩@{}", self.ts)
    }
}

impl From<BaseTuple> for Tuple {
    fn from(b: BaseTuple) -> Self {
        Tuple::from_base(Arc::new(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base(source: u16, seq: u64, ts: u64, vals: &[i64]) -> Arc<BaseTuple> {
        Arc::new(BaseTuple::new(
            SourceId(source),
            seq,
            Timestamp::from_millis(ts),
            vals.iter().map(|&v| Value::int(v)).collect(),
        ))
    }

    #[test]
    fn base_tuple_accessors() {
        let b = base(0, 1, 500, &[7, 8]);
        assert_eq!(b.arity(), 2);
        assert_eq!(b.value(1), Some(&Value::int(8)));
        assert_eq!(b.value(2), None);
        assert!(b.size_bytes() > 0);
        assert!(b.to_string().starts_with("A1("));
    }

    #[test]
    fn empty_tuple_properties() {
        let e = Tuple::empty();
        assert!(e.is_empty());
        assert_eq!(e.num_parts(), 0);
        assert_eq!(e.ts(), Timestamp::ZERO);
        assert_eq!(e.sources(), SourceSet::EMPTY);
        assert_eq!(e.to_string(), "Ø");
    }

    #[test]
    fn from_base_covers_single_source() {
        let t = Tuple::from_base(base(2, 5, 100, &[1]));
        assert_eq!(t.num_parts(), 1);
        assert_eq!(t.sources(), SourceSet::single(SourceId(2)));
        assert_eq!(t.ts(), Timestamp::from_millis(100));
    }

    #[test]
    fn join_merges_and_takes_max_timestamp() {
        let a = Tuple::from_base(base(0, 1, 100, &[1]));
        let b = Tuple::from_base(base(1, 1, 300, &[1]));
        let ab = a.join(&b).unwrap();
        assert_eq!(ab.num_parts(), 2);
        assert_eq!(ab.ts(), Timestamp::from_millis(300));
        assert_eq!(ab.min_ts(), Timestamp::from_millis(100));
        assert!(ab.sources().contains(SourceId(0)));
        assert!(ab.sources().contains(SourceId(1)));
        // parts sorted by source regardless of join order
        let ba = b.join(&a).unwrap();
        assert_eq!(ab.key(), ba.key());
    }

    /// `a.join(&b)` is `from_parts(a.parts ++ b.parts)` with the parts
    /// strictly ascending, whichever way the two source sets lie.
    fn assert_join_is_sorted_union(a: &Tuple, b: &Tuple) {
        let joined = a.join(b).unwrap();
        let all = a.parts().iter().chain(b.parts()).cloned().collect();
        assert_eq!(joined, Tuple::from_parts(all).unwrap());
        assert!(joined.parts().windows(2).all(|w| w[0].source < w[1].source));
    }

    fn tuple_over(sources: &[u16]) -> Tuple {
        let parts = sources
            .iter()
            .map(|&s| base(s, s as u64 + 10, 7 * s as u64, &[1]));
        Tuple::from_parts(parts.collect()).unwrap()
    }

    #[test]
    fn join_orders_parts_for_every_layout_of_the_two_source_sets() {
        let e = Tuple::empty();
        for (a, b) in [
            (tuple_over(&[0, 1]), tuple_over(&[2, 3])), // a before b
            (tuple_over(&[4, 5]), tuple_over(&[1])),    // b before a
            (tuple_over(&[0, 2, 5]), tuple_over(&[1, 3, 4])), // interleaved: the merge branch
            (tuple_over(&[1, 2]), tuple_over(&[0, 3])), // b around a
            (tuple_over(&[3]), e.clone()),
            (e.clone(), tuple_over(&[0, 6])),
            (e.clone(), e.clone()),
        ] {
            assert_join_is_sorted_union(&a, &b);
            assert_join_is_sorted_union(&b, &a);
        }
    }

    proptest::proptest! {
        #[test]
        fn join_of_random_disjoint_source_sets_is_the_sorted_union(
            mask_a in 0u32..256, mask_b in 0u32..256
        ) {
            let over = |mask: u32| {
                let sources: Vec<u16> = (0..8).filter(|s| mask >> s & 1 == 1).collect();
                tuple_over(&sources)
            };
            // Make the sets disjoint: `b` keeps only what `a` does not cover.
            assert_join_is_sorted_union(&over(mask_a), &over(mask_b & !mask_a));
        }
    }

    #[test]
    fn join_rejects_overlapping_sources() {
        let a1 = Tuple::from_base(base(0, 1, 100, &[1]));
        let a2 = Tuple::from_base(base(0, 2, 200, &[2]));
        assert!(a1.join(&a2).is_err());
    }

    #[test]
    fn from_parts_rejects_duplicate_source() {
        let err = Tuple::from_parts(vec![base(0, 1, 0, &[1]), base(0, 2, 0, &[2])]);
        assert!(err.is_err());
    }

    #[test]
    fn join_with_empty_is_identity() {
        let a = Tuple::from_base(base(0, 1, 100, &[1]));
        let e = Tuple::empty();
        let j = a.join(&e).unwrap();
        assert_eq!(j.key(), a.key());
        assert_eq!(j.ts(), a.ts());
    }

    #[test]
    fn value_lookup_via_column_ref() {
        let a = Tuple::from_base(base(0, 1, 100, &[10, 20]));
        let b = Tuple::from_base(base(1, 1, 100, &[30]));
        let ab = a.join(&b).unwrap();
        assert_eq!(
            ab.value(ColumnRef::new(SourceId(0), 1)),
            Some(&Value::int(20))
        );
        assert_eq!(
            ab.value(ColumnRef::new(SourceId(1), 0)),
            Some(&Value::int(30))
        );
        assert_eq!(ab.value(ColumnRef::new(SourceId(2), 0)), None);
        assert_eq!(ab.value(ColumnRef::new(SourceId(0), 5)), None);
    }

    #[test]
    fn projection_produces_subtuple() {
        let a = Tuple::from_base(base(0, 1, 100, &[1]));
        let b = Tuple::from_base(base(1, 2, 200, &[2]));
        let c = Tuple::from_base(base(2, 3, 300, &[3]));
        let abc = a.join(&b).unwrap().join(&c).unwrap();
        let ac = abc.project(SourceSet::from_iter([SourceId(0), SourceId(2)]));
        assert_eq!(ac.num_parts(), 2);
        assert!(ac.is_subtuple_of(&abc));
        assert!(abc.is_supertuple_of(&ac));
        assert_eq!(ac.ts(), Timestamp::from_millis(300));
        // Projecting to a source not covered yields the empty tuple.
        let none = abc.project(SourceSet::single(SourceId(5)));
        assert!(none.is_empty());
        assert!(none.is_subtuple_of(&abc));
    }

    #[test]
    fn subtuple_requires_same_sequence_numbers() {
        let a1 = Tuple::from_base(base(0, 1, 100, &[1]));
        let a2 = Tuple::from_base(base(0, 2, 100, &[1]));
        let b = Tuple::from_base(base(1, 1, 100, &[1]));
        let a1b = a1.join(&b).unwrap();
        assert!(a1.is_subtuple_of(&a1b));
        // Same source, different record → not a sub-tuple.
        assert!(!a2.is_subtuple_of(&a1b));
    }

    #[test]
    fn empty_is_subtuple_of_everything() {
        let a = Tuple::from_base(base(0, 1, 100, &[1]));
        assert!(Tuple::empty().is_subtuple_of(&a));
        assert!(Tuple::empty().is_subtuple_of(&Tuple::empty()));
        assert!(!a.is_subtuple_of(&Tuple::empty()));
    }

    #[test]
    fn key_identifies_results() {
        let a = Tuple::from_base(base(0, 7, 100, &[1]));
        let b = Tuple::from_base(base(1, 9, 50, &[1]));
        let ab = a.join(&b).unwrap();
        assert_eq!(ab.key(), TupleKey::from_iter([(0, 7), (1, 9)]));
        assert_eq!(ab.key().to_string(), "[A7 B9]");
    }

    /// A key reads as its pair sequence whether it is stored inline or
    /// spilled: same equality, order, hash, `Debug` and serialised form as
    /// the `Vec` of pairs it replaces.
    #[test]
    fn key_is_its_pair_sequence_inline_or_spilled() {
        use std::hash::{Hash, Hasher};
        let hash = |v: &dyn Fn(&mut crate::FastHasher)| {
            let mut h = crate::FastHasher::default();
            v(&mut h);
            h.finish()
        };
        let mut keys = Vec::new();
        for len in 0..=TupleKey::INLINE + 2 {
            let pairs: Vec<(u16, u64)> = (0..len as u16).map(|s| (s, 100 - s as u64)).collect();
            let key: TupleKey = pairs.iter().copied().collect();
            assert_eq!(key.pairs(), &pairs[..]);
            assert_eq!(
                hash(&|h| key.hash(h)),
                hash(&|h| pairs.hash(h)),
                "len {len}"
            );
            assert_eq!(format!("{key:?}"), format!("TupleKey({pairs:?})"));
            assert_eq!(key.to_content(), pairs.to_content());
            assert_eq!(TupleKey::from_content(&key.to_content()).unwrap(), key);
            keys.push((key, pairs));
        }
        for (a, pa) in &keys {
            for (b, pb) in &keys {
                assert_eq!(a.cmp(b), pa.cmp(pb));
                assert_eq!(a == b, pa == pb);
            }
        }
        assert_eq!(TupleKey::default(), Tuple::empty().key());
    }

    /// A blob restores only a tuple [`Tuple::from_parts`] could have built;
    /// a corrupt one is an error, not a panic at the next join.
    #[test]
    fn deserialising_checks_parts_against_sources_and_ts() {
        let ab = Tuple::from_base(base(0, 1, 5, &[1]))
            .join(&Tuple::from_base(base(1, 2, 9, &[2])))
            .unwrap();
        for t in [
            Tuple::empty(),
            Tuple::from_base(base(2, 3, 7, &[3])),
            ab.clone(),
        ] {
            assert_eq!(Tuple::from_content(&t.to_content()).unwrap(), t);
        }
        let edited = |name: &str, value: serde::Content| {
            let serde::Content::Map(mut fields) = ab.to_content() else {
                panic!("a tuple serialises as a map");
            };
            fields.iter_mut().find(|(k, _)| k == name).expect(name).1 = value;
            Tuple::from_content(&serde::Content::Map(fields))
        };
        let parts = |parts: &[Arc<BaseTuple>]| parts.to_vec().to_content();
        let (a, b) = (&ab.parts()[0], &ab.parts()[1]);
        assert!(edited("parts", parts(&[b.clone(), a.clone()])).is_err());
        assert!(edited("parts", parts(&[a.clone(), a.clone()])).is_err());
        assert!(edited("parts", parts(&[a.clone(), base(64, 2, 9, &[2])])).is_err());
        assert!(edited("sources", SourceSet::first_n(3).to_content()).is_err());
        assert!(edited("ts", Timestamp::from_millis(5).to_content()).is_err());
    }

    #[test]
    fn size_counts_all_components() {
        let a = Tuple::from_base(base(0, 1, 100, &[1, 2, 3]));
        let b = Tuple::from_base(base(1, 1, 100, &[4, 5, 6]));
        let ab = a.join(&b).unwrap();
        assert!(ab.size_bytes() > a.size_bytes());
        assert!(ab.size_bytes() > b.size_bytes());
    }
}
