//! Typed column arrays — the columnar half of the batch data plane.
//!
//! A tuple-at-a-time engine pays one `Vec<Value>` heap allocation and one
//! round of dynamic dispatch per tuple. The batch data plane instead ships
//! *columns*: an [`ArrayImpl`] holds the values of one column across every
//! row of a [`crate::Batch`], laid out contiguously per type so that
//! kernels (constant-filter selection, hash-key extraction) iterate a
//! `&[i64]` slice instead of matching an enum per row.
//!
//! The design is deliberately minimal arrow-style:
//!
//! * one typed variant per [`Value`] variant that benefits from unboxing
//!   ([`ArrayImpl::Int64`], [`ArrayImpl::Utf8`]), plus a catch-all
//!   [`ArrayImpl::Values`] for mixed or null-bearing columns;
//! * an [`ArrayBuilder`] that starts in the narrowest representation and
//!   *widens* on demand — appending a string to an `Int64` column converts
//!   it to `Values` exactly once, so clean streams never pay for the
//!   general case;
//! * zero-copy reads: [`ArrayImpl::as_i64`] hands out the underlying slice
//!   when the column is typed, and
//!   [`ArrayImpl::get`] falls back to per-row access everywhere else.
//!
//! Columns are an *acceleration structure*: every row of a batch still
//! carries its [`crate::BaseTuple`], which remains the unit of state
//! storage and result construction. Kernels that can use the columns do;
//! everything else reads the rows and is none the wiser.

use crate::value::Value;
use std::sync::Arc;

/// One column of a batch, laid out contiguously per type.
///
/// See the [module docs](self) for the design rationale. Arrays are
/// append-only during construction (via [`ArrayBuilder`]) and immutable
/// afterwards.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrayImpl {
    /// Every row is [`Value::Int`]; stored unboxed.
    Int64(Vec<i64>),
    /// Every row is [`Value::Str`]; the `Arc<str>` payloads are shared with
    /// the row tuples, not copied.
    Utf8(Vec<Arc<str>>),
    /// Mixed or null-bearing column — the general representation.
    Values(Vec<Value>),
}

impl ArrayImpl {
    /// Number of rows in the column.
    pub fn len(&self) -> usize {
        match self {
            ArrayImpl::Int64(v) => v.len(),
            ArrayImpl::Utf8(v) => v.len(),
            ArrayImpl::Values(v) => v.len(),
        }
    }

    /// Is the column empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value at `row`, if in bounds. Typed variants rebuild a [`Value`]
    /// on the fly (cheap: an `i64` copy or an `Arc` clone).
    pub fn get(&self, row: usize) -> Option<Value> {
        match self {
            ArrayImpl::Int64(v) => v.get(row).map(|&i| Value::Int(i)),
            ArrayImpl::Utf8(v) => v.get(row).map(|s| Value::Str(Arc::clone(s))),
            ArrayImpl::Values(v) => v.get(row).cloned(),
        }
    }

    /// The whole column as an `i64` slice — `Some` iff every row is an
    /// integer. This is the zero-copy fast path for vectorized kernels.
    pub fn as_i64(&self) -> Option<&[i64]> {
        match self {
            ArrayImpl::Int64(v) => Some(v),
            _ => None,
        }
    }

    /// The whole column as a string slice — `Some` iff every row is a
    /// string.
    #[cfg(test)]
    fn as_utf8(&self) -> Option<&[Arc<str>]> {
        match self {
            ArrayImpl::Utf8(v) => Some(v),
            _ => None,
        }
    }
}

/// Builds one [`ArrayImpl`] by appending row values.
///
/// The builder starts in the narrowest representation that fits the data
/// seen so far and widens irreversibly when a value of a different shape
/// arrives: `Int64`/`Utf8` → `Values`. An all-integer column therefore
/// never touches the general representation.
#[derive(Debug, Clone)]
pub struct ArrayBuilder {
    repr: ArrayImpl,
}

impl Default for ArrayBuilder {
    fn default() -> Self {
        ArrayBuilder::new()
    }
}

impl ArrayBuilder {
    /// An empty builder (starts as an integer column and widens on demand).
    pub fn new() -> Self {
        ArrayBuilder {
            repr: ArrayImpl::Int64(Vec::new()),
        }
    }

    /// An empty builder with pre-allocated capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        ArrayBuilder {
            repr: ArrayImpl::Int64(Vec::with_capacity(capacity)),
        }
    }

    /// Number of rows appended so far.
    pub fn len(&self) -> usize {
        self.repr.len()
    }

    /// Is the builder empty?
    pub fn is_empty(&self) -> bool {
        self.repr.is_empty()
    }

    /// Append one value, widening the representation if needed.
    pub fn push(&mut self, value: &Value) {
        match (&mut self.repr, value) {
            (ArrayImpl::Int64(v), Value::Int(i)) => v.push(*i),
            (ArrayImpl::Utf8(v), Value::Str(s)) => v.push(Arc::clone(s)),
            (ArrayImpl::Values(v), value) => v.push(value.clone()),
            // An empty integer column may still become a string column.
            (ArrayImpl::Int64(v), Value::Str(s)) if v.is_empty() => {
                self.repr = ArrayImpl::Utf8(vec![Arc::clone(s)]);
            }
            // Shape mismatch: widen to the general representation once.
            (repr, value) => {
                let mut values: Vec<Value> = match repr {
                    ArrayImpl::Int64(v) => v.iter().map(|&i| Value::Int(i)).collect(),
                    ArrayImpl::Utf8(v) => v.iter().map(|s| Value::Str(Arc::clone(s))).collect(),
                    #[expect(
                        clippy::unreachable,
                        reason = "INVARIANT: the Values representation was consumed by the outer match arm above."
                    )]
                    ArrayImpl::Values(_) => unreachable!("handled above"),
                };
                values.push(value.clone());
                self.repr = ArrayImpl::Values(values);
            }
        }
    }

    /// Finish the column.
    pub fn finish(self) -> ArrayImpl {
        self.repr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_column_stays_typed() {
        let mut b = ArrayBuilder::new();
        for i in 0..5 {
            b.push(&Value::int(i));
        }
        let a = b.finish();
        assert_eq!(a.len(), 5);
        assert_eq!(a.as_i64(), Some(&[0i64, 1, 2, 3, 4][..]));
        assert_eq!(a.get(2), Some(Value::int(2)));
        assert_eq!(a.get(5), None);
    }

    #[test]
    fn str_column_stays_typed() {
        let mut b = ArrayBuilder::new();
        b.push(&Value::str("x"));
        b.push(&Value::str("y"));
        let a = b.finish();
        assert!(a.as_i64().is_none());
        assert_eq!(a.as_utf8().map(|s| s.len()), Some(2));
        assert_eq!(a.get(1), Some(Value::str("y")));
    }

    #[test]
    fn mixed_column_widens_once_and_preserves_order() {
        let mut b = ArrayBuilder::with_capacity(4);
        b.push(&Value::int(1));
        b.push(&Value::str("s"));
        b.push(&Value::Null);
        let a = b.finish();
        assert!(a.as_i64().is_none());
        assert!(a.as_utf8().is_none());
        assert_eq!(a.get(0), Some(Value::int(1)));
        assert_eq!(a.get(1), Some(Value::str("s")));
        assert_eq!(a.get(2), Some(Value::Null));
    }

    #[test]
    fn empty_builder_properties() {
        let b = ArrayBuilder::new();
        assert!(b.is_empty());
        assert_eq!(b.len(), 0);
        let a = b.finish();
        assert!(a.is_empty());
    }
}
