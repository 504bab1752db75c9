//! SIMD-friendly columnar kernels.
//!
//! The batch data plane ([`crate::batch`]) carries typed column arrays; this
//! module holds the tight loops that consume them *as slices* instead of
//! boxing every cell into a [`Value`]:
//!
//! * [`BitMask`] — a packed `u64`-word row mask, the output format of every
//!   predicate kernel (one bit per row, 64 rows decided per word).
//! * [`filter_mask`] — constant-filter evaluation over one [`ArrayImpl`]:
//!   `Int64`/`Utf8` arrays are compared in a single pass over the typed
//!   slice; a type-mismatched constant is decided once for the whole batch
//!   (the [`Value`] order is total across variants, `Null < Int < Str`);
//!   `Values` arrays fall back to the scalar comparison, bit-packed.
//! * [`extract_probe_keys`] — equi-join probe-key extraction: one pass per
//!   key column over the batch instead of one `Vec<Value>` assembly per row
//!   at probe time.
//!
//! Every kernel is semantically identical to its scalar counterpart
//! ([`crate::predicate::FilterPredicate::holds_on`], per-row key assembly):
//! the kernels change how many rows are decided per call, never which rows
//! pass. "Not applicable" (a row not carrying the referenced column) stays a
//! rejection / an unkeyed row, exactly as on the tuple path.

use crate::array::ArrayImpl;
use crate::batch::Batch;
use crate::predicate::CompareOp;
use crate::schema::ColumnRef;
use crate::value::Value;
use std::cmp::Ordering;
use std::sync::Arc;

/// Bits per mask word.
const WORD_BITS: usize = 64;

/// A packed per-row boolean mask: bit `i` of word `i / 64` is row `i`.
///
/// Rows beyond `len` inside the last word are kept zero, so
/// [`BitMask::count_ones`] needs no tail masking.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitMask {
    words: Vec<u64>,
    len: usize,
}

impl BitMask {
    /// An empty mask.
    pub fn new() -> Self {
        BitMask::default()
    }

    /// An all-false mask over `len` rows.
    pub fn zeros(len: usize) -> Self {
        BitMask {
            words: vec![0; len.div_ceil(WORD_BITS)],
            len,
        }
    }

    /// A uniform mask over `len` rows.
    pub fn filled(len: usize, value: bool) -> Self {
        if !value {
            return BitMask::zeros(len);
        }
        let mut mask = BitMask {
            words: vec![u64::MAX; len.div_ceil(WORD_BITS)],
            len,
        };
        mask.clear_tail();
        mask
    }

    /// Zero the bits of the last word beyond `len`.
    fn clear_tail(&mut self) {
        let tail = self.len % WORD_BITS;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Number of rows covered by the mask.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the mask over zero rows?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The row `i` bit.
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(
            i < self.len,
            "bit {i} out of range for mask of {}",
            self.len
        );
        (self.words[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1
    }

    /// Set the row `i` bit.
    pub fn set(&mut self, i: usize, value: bool) {
        debug_assert!(
            i < self.len,
            "bit {i} out of range for mask of {}",
            self.len
        );
        let word = &mut self.words[i / WORD_BITS];
        let bit = 1u64 << (i % WORD_BITS);
        if value {
            *word |= bit;
        } else {
            *word &= !bit;
        }
    }

    /// Append one row to the mask.
    pub fn push(&mut self, value: bool) {
        if self.len.is_multiple_of(WORD_BITS) {
            self.words.push(0);
        }
        if value {
            let i = self.len;
            self.words[i / WORD_BITS] |= 1u64 << (i % WORD_BITS);
        }
        self.len += 1;
    }

    /// Number of set (passing) rows.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Is any row set?
    pub fn any(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    /// Are all rows set?
    pub fn all(&self) -> bool {
        self.count_ones() == self.len
    }

    /// Intersect with another mask of the same length.
    #[cfg(test)]
    fn and_assign(&mut self, other: &BitMask) {
        debug_assert_eq!(self.len, other.len, "mask length mismatch");
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w &= o;
        }
    }

    /// Iterate the rows as booleans.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(|i| self.get(i))
    }

    /// Build from an unpacked boolean slice.
    #[cfg(test)]
    fn from_bools(bools: &[bool]) -> Self {
        let mut mask = BitMask::zeros(bools.len());
        for (w, chunk) in mask.words.iter_mut().zip(bools.chunks(WORD_BITS)) {
            let mut word = 0u64;
            for (b, &v) in chunk.iter().enumerate() {
                word |= (v as u64) << b;
            }
            *w = word;
        }
        mask
    }
}

/// Does `op` hold for a pair of values comparing as `ord`?
fn op_holds(ord: Ordering, op: CompareOp) -> bool {
    match op {
        CompareOp::Eq => ord == Ordering::Equal,
        CompareOp::Ne => ord != Ordering::Equal,
        CompareOp::Lt => ord == Ordering::Less,
        CompareOp::Le => ord != Ordering::Greater,
        CompareOp::Gt => ord == Ordering::Greater,
        CompareOp::Ge => ord != Ordering::Less,
    }
}

/// Bit-pack `values[i] `op` probe(i)` for one typed slice: the inner loop is
/// monomorphized per comparison so the compiler sees a branch-free
/// compare-into-bit pattern over a dense slice.
#[inline(always)]
fn pack_by<T: Copy>(values: &[T], out: &mut BitMask, f: impl Fn(T) -> bool) {
    debug_assert_eq!(out.len, values.len());
    for (w, chunk) in out.words.iter_mut().zip(values.chunks(WORD_BITS)) {
        let mut word = 0u64;
        for (b, &v) in chunk.iter().enumerate() {
            word |= (f(v) as u64) << b;
        }
        *w = word;
    }
}

/// `values[i] `op` c` over a dense `i64` slice, one pass, bit-packed.
fn compare_i64_const(values: &[i64], op: CompareOp, c: i64, out: &mut BitMask) {
    *out = BitMask::zeros(values.len());
    match op {
        CompareOp::Eq => pack_by(values, out, |v| v == c),
        CompareOp::Ne => pack_by(values, out, |v| v != c),
        CompareOp::Lt => pack_by(values, out, |v| v < c),
        CompareOp::Le => pack_by(values, out, |v| v <= c),
        CompareOp::Gt => pack_by(values, out, |v| v > c),
        CompareOp::Ge => pack_by(values, out, |v| v >= c),
    }
}

/// `values[i] `op` c` over a string column, bit-packed.
fn compare_utf8_const(values: &[Arc<str>], op: CompareOp, c: &str, out: &mut BitMask) {
    *out = BitMask::zeros(values.len());
    for (w, chunk) in out.words.iter_mut().zip(values.chunks(WORD_BITS)) {
        let mut word = 0u64;
        for (b, v) in chunk.iter().enumerate() {
            word |= (op_holds(v.as_ref().cmp(c), op) as u64) << b;
        }
        *w = word;
    }
}

/// Scalar fallback over a boxed-value column, bit-packed. Uses the exact
/// [`Value`] total order, so mixed-variant cells compare as on the tuple
/// path.
fn compare_values_const(values: &[Value], op: CompareOp, c: &Value, out: &mut BitMask) {
    *out = BitMask::zeros(values.len());
    for (w, chunk) in out.words.iter_mut().zip(values.chunks(WORD_BITS)) {
        let mut word = 0u64;
        for (b, v) in chunk.iter().enumerate() {
            word |= (op_holds(v.cmp(c), op) as u64) << b;
        }
        *w = word;
    }
}

/// Evaluate `array[i] `op` constant` for every row of one column array.
///
/// Typed arrays compared against a same-variant constant take the dense
/// kernels; against a *different* variant the verdict is uniform for the
/// whole column (the [`Value`] order is total across variants:
/// `Null < Int < Str`), so the mask is filled in O(words). The `Values`
/// fallback preserves scalar semantics cell by cell.
pub fn filter_mask(array: &ArrayImpl, op: CompareOp, constant: &Value, out: &mut BitMask) {
    match (array, constant) {
        (ArrayImpl::Int64(vs), Value::Int(c)) => compare_i64_const(vs, op, *c, out),
        (ArrayImpl::Int64(vs), other) => {
            // Every Int compares the same way against a non-Int constant.
            let ord = Value::Int(0).cmp(other);
            *out = BitMask::filled(vs.len(), op_holds(ord, op));
        }
        (ArrayImpl::Utf8(vs), Value::Str(c)) => compare_utf8_const(vs, op, c, out),
        (ArrayImpl::Utf8(vs), other) => {
            // `other` is Int or Null here; Str outranks both uniformly.
            let ord = Value::str("").cmp(other);
            *out = BitMask::filled(vs.len(), op_holds(ord, op));
        }
        (ArrayImpl::Values(vs), c) => compare_values_const(vs, op, c, out),
    }
}

/// Row-major probe-key extraction: `keys[r * cols.len() + i]` is row `r`'s
/// value on `cols[i]`; `valid[r]` is false when some key column is missing
/// on row `r` (that row probes by scan, exactly as a failed per-row
/// `probe_key` would).
///
/// Typed `Int64` columns are copied in one pass over the `&[i64]` slice;
/// other arrays go through [`ArrayImpl::get`]; a column with no columnar
/// projection (or out of the projection's range) reads the row tuples.
///
/// No engine code calls this any more: the join operators form their probe
/// key per arrival (`OperatorState::probe_into`). It is kept because the
/// stand-alone `bench_e2e` package times it
/// (`types.probe_key_extract_ns_per_row`) and may not change in the same
/// PR as engine code; remove it together with that metric.
pub fn extract_probe_keys(
    batch: &Batch,
    cols: &[ColumnRef],
    keys: &mut Vec<Value>,
    valid: &mut Vec<bool>,
) {
    let n = batch.len();
    let arity = cols.len();
    keys.clear();
    keys.resize(n * arity, Value::Null);
    valid.clear();
    valid.resize(n, true);
    for (ci, col) in cols.iter().enumerate() {
        match batch.column(col.column as usize) {
            Some(ArrayImpl::Int64(vs)) => {
                for (r, &v) in vs.iter().enumerate() {
                    keys[r * arity + ci] = Value::Int(v);
                }
            }
            Some(ArrayImpl::Utf8(vs)) => {
                for (r, v) in vs.iter().enumerate() {
                    keys[r * arity + ci] = Value::Str(v.clone());
                }
            }
            Some(arr) => {
                for (r, v) in valid.iter_mut().enumerate() {
                    match arr.get(r) {
                        Some(value) => keys[r * arity + ci] = value,
                        None => *v = false,
                    }
                }
            }
            None => {
                for ((r, row), v) in batch.rows().iter().enumerate().zip(valid.iter_mut()) {
                    match row.value(col.column) {
                        Some(value) => keys[r * arity + ci] = value.clone(),
                        None => *v = false,
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BlockBuilder;
    use crate::schema::SourceId;
    use crate::timestamp::Timestamp;
    use crate::tuple::BaseTuple;

    #[test]
    fn bitmask_word_boundaries() {
        for len in [0, 1, 63, 64, 65, 127, 128, 200] {
            let mut mask = BitMask::zeros(len);
            assert_eq!(mask.len(), len);
            assert_eq!(mask.count_ones(), 0);
            for i in 0..len {
                mask.set(i, i % 3 == 0);
            }
            for i in 0..len {
                assert_eq!(mask.get(i), i % 3 == 0, "len {len} bit {i}");
            }
            assert_eq!(mask.count_ones(), len.div_ceil(3));
            let filled = BitMask::filled(len, true);
            assert_eq!(filled.count_ones(), len);
            assert!(len == 0 || filled.all());
            assert_eq!(filled.any(), len > 0);
        }
    }

    #[test]
    fn bitmask_push_matches_from_bools() {
        let bools: Vec<bool> = (0..130).map(|i| i % 7 < 3).collect();
        let mut pushed = BitMask::new();
        for &b in &bools {
            pushed.push(b);
        }
        assert_eq!(pushed, BitMask::from_bools(&bools));
        assert_eq!(pushed.iter().collect::<Vec<_>>(), bools);
    }

    #[test]
    fn bitmask_and_assign_intersects() {
        let a = BitMask::from_bools(&[true, true, false, false, true]);
        let b = BitMask::from_bools(&[true, false, true, false, true]);
        let mut c = a.clone();
        c.and_assign(&b);
        assert_eq!(
            c.iter().collect::<Vec<_>>(),
            [true, false, false, false, true]
        );
    }

    #[test]
    fn i64_kernel_matches_scalar_for_every_op() {
        let values: Vec<i64> = (0..100).map(|i| (i * 37) % 13 - 6).collect();
        let c = 3i64;
        for op in [
            CompareOp::Eq,
            CompareOp::Ne,
            CompareOp::Lt,
            CompareOp::Le,
            CompareOp::Gt,
            CompareOp::Ge,
        ] {
            let mut mask = BitMask::new();
            compare_i64_const(&values, op, c, &mut mask);
            for (i, &v) in values.iter().enumerate() {
                assert_eq!(mask.get(i), op_holds(v.cmp(&c), op), "{op:?} row {i}");
            }
        }
    }

    #[test]
    fn utf8_kernel_compares_strings() {
        let values: Vec<Arc<str>> = ["apple", "pear", "fig", "pear"]
            .iter()
            .map(|&s| Arc::from(s))
            .collect();
        let mut mask = BitMask::new();
        compare_utf8_const(&values, CompareOp::Eq, "pear", &mut mask);
        assert_eq!(mask.iter().collect::<Vec<_>>(), [false, true, false, true]);
        compare_utf8_const(&values, CompareOp::Lt, "pear", &mut mask);
        assert_eq!(mask.iter().collect::<Vec<_>>(), [true, false, true, false]);
    }

    #[test]
    fn mismatched_constant_is_uniform() {
        // Int column vs Str constant: Int < Str for every row.
        let col = ArrayImpl::Int64(vec![1, 2, 3]);
        let mut mask = BitMask::new();
        filter_mask(&col, CompareOp::Lt, &Value::str("z"), &mut mask);
        assert!(mask.all());
        filter_mask(&col, CompareOp::Ge, &Value::str("z"), &mut mask);
        assert!(!mask.any());
        // Int column vs Null constant: Int > Null.
        filter_mask(&col, CompareOp::Gt, &Value::Null, &mut mask);
        assert!(mask.all());
        // Utf8 column vs Int constant: Str > Int.
        let col = ArrayImpl::Utf8(vec![Arc::from("a"), Arc::from("b")]);
        filter_mask(&col, CompareOp::Gt, &Value::int(5), &mut mask);
        assert!(mask.all());
    }

    #[test]
    fn values_fallback_matches_value_order() {
        let col = ArrayImpl::Values(vec![Value::Null, Value::int(5), Value::str("x")]);
        let mut mask = BitMask::new();
        filter_mask(&col, CompareOp::Le, &Value::int(5), &mut mask);
        assert_eq!(mask.iter().collect::<Vec<_>>(), [true, true, false]);
    }

    #[test]
    fn empty_inputs_produce_empty_masks() {
        let mut mask = BitMask::new();
        compare_i64_const(&[], CompareOp::Eq, 0, &mut mask);
        assert!(mask.is_empty());
        assert_eq!(mask.count_ones(), 0);
        assert!(!mask.any());
    }

    #[test]
    fn probe_key_extraction_matches_rows() {
        let mut builder = BlockBuilder::new();
        for i in 0..5i64 {
            builder.push(
                SourceId(0),
                Arc::new(BaseTuple::new(
                    SourceId(0),
                    i as u64,
                    Timestamp::from_millis(i as u64),
                    vec![Value::int(i), Value::int(i * 10)],
                )),
            );
        }
        let block = builder.finish();
        let batch = &block.batches()[0];
        let cols = [
            ColumnRef::new(SourceId(0), 1),
            ColumnRef::new(SourceId(0), 0),
        ];
        let (mut keys, mut valid) = (Vec::new(), Vec::new());
        extract_probe_keys(batch, &cols, &mut keys, &mut valid);
        assert!(valid.iter().all(|&v| v));
        for r in 0..5 {
            assert_eq!(keys[r * 2], Value::int(r as i64 * 10));
            assert_eq!(keys[r * 2 + 1], Value::int(r as i64));
        }
        // A column beyond the schema invalidates every row.
        let bad = [ColumnRef::new(SourceId(0), 9)];
        extract_probe_keys(batch, &bad, &mut keys, &mut valid);
        assert!(valid.iter().all(|&v| !v));
    }
}
