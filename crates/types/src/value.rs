//! Column values.
//!
//! The paper's experiments use integer-valued columns drawn uniformly from
//! `[1..dmax]`; real continuous queries also filter on strings, so the value
//! model supports both (plus `Null` for outer-ish extensions).

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// A single column value carried by a stream tuple.
///
/// Values are cheap to clone (`Int`/`Null` are `Copy`-sized, `Str` is an
/// `Arc<str>`), hashable and totally ordered within a variant. Cross-variant
/// comparisons order `Null < Int < Str`, which gives a stable total order for
/// sorting without implying semantic comparability.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Value {
    /// Absent / unknown value.
    Null,
    /// 64-bit signed integer — the workhorse of the paper's workloads.
    Int(i64),
    /// Interned string value.
    Str(Arc<str>),
}

impl Value {
    /// Construct an integer value.
    pub fn int(v: i64) -> Self {
        Value::Int(v)
    }

    /// Construct a string value.
    pub fn str(v: impl Into<Arc<str>>) -> Self {
        Value::Str(v.into())
    }

    /// Returns the integer payload, if this is an [`Value::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// True if the value is [`Value::Null`].
    pub(crate) fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Approximate heap + inline footprint of this value in bytes.
    ///
    /// Used by the analytical memory accountant (`jit-metrics`); the goal is a
    /// consistent, hardware-independent estimate rather than allocator truth.
    pub(crate) fn size_bytes(&self) -> usize {
        match self {
            Value::Null => std::mem::size_of::<Value>(),
            Value::Int(_) => std::mem::size_of::<Value>(),
            Value::Str(s) => std::mem::size_of::<Value>() + s.len(),
        }
    }

    /// Rank used to order across variants (`Null < Int < Str`).
    fn variant_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Int(_) => 1,
            Value::Str(_) => 2,
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Null, Value::Null) => Ordering::Equal,
            _ => self.variant_rank().cmp(&other.variant_rank()),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s:?}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(i64::from(v))
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(Arc::from(v))
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_roundtrip() {
        let v = Value::int(42);
        assert_eq!(v.as_int(), Some(42));
        assert!(!v.is_null());
    }

    #[test]
    fn str_roundtrip() {
        let v = Value::str("sensor-7");
        assert_eq!(v, Value::Str(Arc::from("sensor-7")));
        assert_eq!(v.as_int(), None);
    }

    #[test]
    fn null_is_null() {
        assert!(Value::Null.is_null());
        assert_eq!(Value::Null.as_int(), None);
    }

    #[test]
    fn equality_is_by_value() {
        assert_eq!(Value::int(5), Value::from(5i64));
        assert_ne!(Value::int(5), Value::int(6));
        assert_eq!(Value::str("a"), Value::from("a"));
        assert_ne!(Value::str("a"), Value::int(0));
    }

    #[test]
    fn ordering_within_variants() {
        assert!(Value::int(1) < Value::int(2));
        assert!(Value::str("a") < Value::str("b"));
    }

    #[test]
    fn ordering_across_variants_is_total() {
        assert!(Value::Null < Value::int(i64::MIN));
        assert!(Value::int(i64::MAX) < Value::str(""));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::int(7).to_string(), "7");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::str("x").to_string(), "\"x\"");
    }

    #[test]
    fn size_accounts_for_string_payload() {
        let short = Value::str("a");
        let long = Value::str("abcdefghijklmnop");
        assert!(long.size_bytes() > short.size_bytes());
        assert!(Value::int(1).size_bytes() >= std::mem::size_of::<Value>());
    }

    #[test]
    fn from_conversions() {
        assert_eq!(Value::from(3i32), Value::int(3));
        assert_eq!(Value::from(String::from("s")), Value::str("s"));
    }
}
