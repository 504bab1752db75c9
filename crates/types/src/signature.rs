//! Join-attribute signatures.
//!
//! Section IV-B: once a tuple `a1` is known to be an MNS, the producer should
//! also treat tuples with *identical join-attribute values* (e.g. `a2` with
//! the same `y` as `a1`) as non-demanded. A [`Signature`] is the ordered list
//! of `(column, value)` pairs of a sub-tuple restricted to the join columns
//! relevant at a particular consumer, so "similar" tuples are exactly those
//! with equal signatures.

use crate::schema::ColumnRef;
use crate::tuple::Tuple;
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::fmt;

/// The values a tuple exposes on a fixed, ordered set of join columns.
///
/// Signatures are hashable, so blacklists and MNS buffers can index entries
/// by signature for O(1) "similar tuple" lookups.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub struct Signature(pub Vec<(ColumnRef, Value)>);

impl Signature {
    /// Extract the signature of `tuple` over `columns`.
    ///
    /// Columns not covered by the tuple are recorded as [`Value::Null`]; this
    /// keeps signatures over the same column list comparable even when taken
    /// from sub-tuples of different coverage.
    pub fn of(tuple: &Tuple, columns: &[ColumnRef]) -> Signature {
        let mut entries = Vec::with_capacity(columns.len());
        Self::of_into(tuple, columns, &mut entries);
        Signature(entries)
    }

    /// [`Signature::of`] into a caller-owned buffer (cleared first): a map
    /// keyed by `Signature` is probed with the slice, allocating nothing.
    pub fn of_into(tuple: &Tuple, columns: &[ColumnRef], out: &mut Vec<(ColumnRef, Value)>) {
        out.clear();
        out.extend(
            columns
                .iter()
                .map(|&c| (c, tuple.value(c).cloned().unwrap_or(Value::Null))),
        );
        out.sort_by_key(|(c, _)| *c);
        out.dedup_by_key(|(c, _)| *c);
    }

    /// Does `tuple` carry this signature's values — is
    /// `Signature::of(tuple, columns)` equal to it, for the columns it was
    /// taken over? Compared in place.
    pub fn matches(&self, tuple: &Tuple) -> bool {
        self.0
            .iter()
            .all(|(c, v)| tuple.value(*c).map_or(v.is_null(), |own| own == v))
    }

    /// Is the signature empty (no join columns)?
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Number of `(column, value)` entries.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The value recorded for `column`, if the signature covers it.
    pub fn value(&self, column: ColumnRef) -> Option<&Value> {
        self.0.iter().find(|(c, _)| *c == column).map(|(_, v)| v)
    }

    /// Approximate footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self
                .0
                .iter()
                .map(|(_, v)| std::mem::size_of::<ColumnRef>() + v.size_bytes())
                .sum::<usize>()
    }
}

/// A signature hashes and compares as its entry slice (the derived `Hash`
/// and `Eq` of the one-field struct are the `Vec`'s), so a map keyed by
/// `Signature` answers a lookup by slice.
impl Borrow<[(ColumnRef, Value)]> for Signature {
    fn borrow(&self) -> &[(ColumnRef, Value)] {
        &self.0
    }
}

impl fmt::Display for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟪")?;
        for (i, (c, v)) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}={v}")?;
        }
        write!(f, "⟫")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::SourceId;
    use crate::timestamp::Timestamp;
    use crate::tuple::BaseTuple;
    use std::sync::Arc;

    fn tup(source: u16, seq: u64, vals: &[i64]) -> Tuple {
        Tuple::from_base(Arc::new(BaseTuple::new(
            SourceId(source),
            seq,
            Timestamp::from_millis(seq),
            vals.iter().map(|&v| Value::int(v)).collect(),
        )))
    }

    #[test]
    fn similar_tuples_share_signature() {
        // a1 and a2 have the same value on A.x1 (the join attribute toward C)
        // but different values elsewhere — they are "similar" per Sec IV-B.
        let cols = [ColumnRef::new(SourceId(0), 1)];
        let a1 = tup(0, 1, &[7, 100]);
        let a2 = tup(0, 2, &[9, 100]);
        let a3 = tup(0, 3, &[7, 200]);
        assert_eq!(Signature::of(&a1, &cols), Signature::of(&a2, &cols));
        assert_ne!(Signature::of(&a1, &cols), Signature::of(&a3, &cols));
    }

    #[test]
    fn missing_columns_become_null() {
        let cols = [
            ColumnRef::new(SourceId(0), 0),
            ColumnRef::new(SourceId(1), 0),
        ];
        let a = tup(0, 1, &[5]);
        let sig = Signature::of(&a, &cols);
        assert_eq!(sig.len(), 2);
        assert_eq!(
            sig.value(ColumnRef::new(SourceId(1), 0)),
            Some(&Value::Null)
        );
        assert_eq!(
            sig.value(ColumnRef::new(SourceId(0), 0)),
            Some(&Value::int(5))
        );
    }

    #[test]
    fn signature_is_order_insensitive() {
        let c0 = ColumnRef::new(SourceId(0), 0);
        let c1 = ColumnRef::new(SourceId(0), 1);
        let a = tup(0, 1, &[1, 2]);
        assert_eq!(Signature::of(&a, &[c0, c1]), Signature::of(&a, &[c1, c0]));
        // duplicated columns collapse
        assert_eq!(Signature::of(&a, &[c0, c0]).len(), 1);
    }

    #[test]
    fn empty_signature() {
        let a = tup(0, 1, &[1]);
        let sig = Signature::of(&a, &[]);
        assert!(sig.is_empty());
        assert_eq!(sig.len(), 0);
    }

    #[test]
    fn display_and_size() {
        let cols = [ColumnRef::new(SourceId(0), 0)];
        let sig = Signature::of(&tup(0, 1, &[42]), &cols);
        assert_eq!(sig.to_string(), "⟪A.x0=42⟫");
        assert!(sig.size_bytes() > 0);
    }

    #[test]
    fn usable_as_hash_key() {
        use std::collections::HashMap;
        let cols = [ColumnRef::new(SourceId(0), 1)];
        let mut map: HashMap<Signature, u32> = HashMap::new();
        map.insert(Signature::of(&tup(0, 1, &[7, 100]), &cols), 1);
        *map.entry(Signature::of(&tup(0, 2, &[9, 100]), &cols))
            .or_insert(0) += 10;
        assert_eq!(map.len(), 1);
        assert_eq!(map.values().sum::<u32>(), 11);
        // A signature formed in a reused buffer finds the same entry.
        let mut scratch = Vec::new();
        Signature::of_into(&tup(0, 3, &[1, 100]), &cols, &mut scratch);
        assert_eq!(map.get(scratch.as_slice()), Some(&11));
        Signature::of_into(&tup(0, 4, &[1, 200]), &cols, &mut scratch);
        assert_eq!(map.get(scratch.as_slice()), None);
    }

    /// `matches` compares in place what `of` would build and compare,
    /// missing columns (Null) included.
    #[test]
    fn matches_equals_comparing_a_fresh_signature() {
        let cols = [
            ColumnRef::new(SourceId(0), 1),
            ColumnRef::new(SourceId(1), 0),
        ];
        let a1 = tup(0, 1, &[7, 100]);
        let sig = Signature::of(&a1, &cols);
        let b = tup(1, 1, &[100]);
        for probe in [
            a1.clone(),
            tup(0, 2, &[9, 100]),
            tup(0, 3, &[7, 200]),
            tup(0, 4, &[7]),
            a1.join(&b).unwrap(),
            b,
        ] {
            assert_eq!(
                sig.matches(&probe),
                Signature::of(&probe, &cols) == sig,
                "{probe}"
            );
        }
    }
}
