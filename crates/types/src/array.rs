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
//! * zero-copy reads: kernels match on the typed variant and read its
//!   slice directly, and [`ArrayImpl::get`] gives per-row access everywhere
//!   else.
//!
//! Columns are an *acceleration structure*: every row of a batch still
//! carries its [`crate::BaseTuple`], which remains the unit of state
//! storage and result construction. Kernels that can use the columns do;
//! everything else reads the rows and is none the wiser.

use crate::value::Value;
use std::sync::Arc;

/// One column of a batch, laid out contiguously per type.
///
/// Arrays are append-only during construction (via the batch builder) and
/// immutable afterwards.
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
    /// The value at `row`, if in bounds. Typed variants rebuild a [`Value`]
    /// on the fly (cheap: an `i64` copy or an `Arc` clone).
    pub(crate) fn get(&self, row: usize) -> Option<Value> {
        match self {
            ArrayImpl::Int64(v) => v.get(row).map(|&i| Value::Int(i)),
            ArrayImpl::Utf8(v) => v.get(row).map(|s| Value::Str(Arc::clone(s))),
            ArrayImpl::Values(v) => v.get(row).cloned(),
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
pub(crate) struct ArrayBuilder {
    repr: ArrayImpl,
}

impl Default for ArrayBuilder {
    fn default() -> Self {
        ArrayBuilder::new()
    }
}

impl ArrayBuilder {
    /// An empty builder (starts as an integer column and widens on demand).
    pub(crate) fn new() -> Self {
        ArrayBuilder {
            repr: ArrayImpl::Int64(Vec::new()),
        }
    }

    /// Append one value, widening the representation if needed.
    pub(crate) fn push(&mut self, value: &Value) {
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
    pub(crate) fn finish(self) -> ArrayImpl {
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
        assert_eq!(a, ArrayImpl::Int64(vec![0, 1, 2, 3, 4]));
        assert_eq!(a.get(2), Some(Value::int(2)));
        assert_eq!(a.get(5), None);
    }

    #[test]
    fn str_column_stays_typed() {
        let mut b = ArrayBuilder::new();
        b.push(&Value::str("x"));
        b.push(&Value::str("y"));
        let a = b.finish();
        assert_eq!(a, ArrayImpl::Utf8(vec![Arc::from("x"), Arc::from("y")]));
        assert_eq!(a.get(1), Some(Value::str("y")));
    }

    #[test]
    fn mixed_column_widens_once_and_preserves_order() {
        let mut b = ArrayBuilder::new();
        b.push(&Value::int(1));
        b.push(&Value::str("s"));
        b.push(&Value::Null);
        let a = b.finish();
        assert_eq!(
            a,
            ArrayImpl::Values(vec![Value::int(1), Value::str("s"), Value::Null])
        );
        assert_eq!(a.get(1), Some(Value::str("s")));
    }

    #[test]
    fn empty_builder_is_an_empty_int_column() {
        assert_eq!(ArrayBuilder::new().finish(), ArrayImpl::Int64(Vec::new()));
    }
}
