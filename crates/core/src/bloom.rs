//! Bloom filters for cheap MNS detection.
//!
//! Section IV-A: when the consumer's join condition is an equi-join, a Bloom
//! filter maintained on the opposite state's join-attribute values can detect
//! (some) sub-tuples that cannot possibly have a match. A negative membership
//! answer is definitive ("no tuple in the state carries this value"), so
//! every MNS reported this way is sound; false positives merely cause missed
//! MNSs, never wrong ones.

use jit_types::Value;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// A fixed-size Bloom filter over column values.
///
/// Insert-only: expired values are not removed, which only increases the
/// false-positive rate (fewer detected MNSs) and never affects correctness.
///
/// The filter is plain data (`derive`d `Serialize`/`Deserialize`): a
/// durability checkpoint persists the exact bit pattern, so a restored
/// filter gives byte-identical membership answers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BloomFilter {
    bits: Vec<u64>,
    num_bits: usize,
    num_hashes: usize,
    inserted: u64,
}

impl BloomFilter {
    /// Create a filter with `num_bits` bits and `num_hashes` hash functions.
    ///
    /// Both parameters are clamped to sensible minimums (64 bits, 1 hash).
    pub fn new(num_bits: usize, num_hashes: usize) -> Self {
        let num_bits = num_bits.max(64);
        let num_hashes = num_hashes.max(1);
        BloomFilter {
            bits: vec![0; num_bits.div_ceil(64)],
            num_bits,
            num_hashes,
            inserted: 0,
        }
    }

    /// The `i`-th hash of a value, in `[0, num_bits)`.
    fn bit_index(&self, value: &Value, i: usize) -> usize {
        let mut hasher = DefaultHasher::new();
        // Mix the hash-function index in so the k functions are independent.
        (i as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .hash(&mut hasher);
        value.hash(&mut hasher);
        (hasher.finish() % self.num_bits as u64) as usize
    }

    /// Record a value.
    pub fn insert(&mut self, value: &Value) {
        for i in 0..self.num_hashes {
            let idx = self.bit_index(value, i);
            self.bits[idx / 64] |= 1u64 << (idx % 64);
        }
        self.inserted += 1;
    }

    /// Might the value have been inserted? `false` is definitive.
    pub fn maybe_contains(&self, value: &Value) -> bool {
        (0..self.num_hashes).all(|i| {
            let idx = self.bit_index(value, i);
            self.bits[idx / 64] & (1u64 << (idx % 64)) != 0
        })
    }

    /// Definitely absent?
    pub(crate) fn definitely_absent(&self, value: &Value) -> bool {
        !self.maybe_contains(value)
    }

    /// Analytical size in bytes.
    pub(crate) fn size_bytes(&self) -> usize {
        self.bits.len() * 8 + std::mem::size_of::<Self>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inserted_values_are_found() {
        let mut f = BloomFilter::new(1024, 3);
        for v in 0..100 {
            f.insert(&Value::int(v));
        }
        for v in 0..100 {
            assert!(f.maybe_contains(&Value::int(v)));
            assert!(!f.definitely_absent(&Value::int(v)));
        }
    }

    #[test]
    fn most_absent_values_are_detected() {
        let mut f = BloomFilter::new(8192, 4);
        for v in 0..200 {
            f.insert(&Value::int(v));
        }
        // With 8192 bits / 200 values / 4 hashes the false-positive rate is
        // well under 1%; over 1000 absent probes we expect the vast majority
        // to be definitively absent.
        let absent = (10_000..11_000)
            .filter(|v| f.definitely_absent(&Value::int(*v)))
            .count();
        assert!(absent > 950, "only {absent} of 1000 detected as absent");
    }

    #[test]
    fn never_false_negative() {
        let mut f = BloomFilter::new(64, 2); // deliberately tiny
        let values: Vec<Value> = (0..500).map(Value::int).collect();
        for v in &values {
            f.insert(v);
        }
        // A saturated filter may answer "maybe" for everything, but it must
        // never answer "absent" for something inserted.
        assert!(values.iter().all(|v| f.maybe_contains(v)));
    }

    #[test]
    fn works_with_string_values() {
        let mut f = BloomFilter::new(1024, 3);
        f.insert(&Value::str("sensor-1"));
        assert!(f.maybe_contains(&Value::str("sensor-1")));
        assert!(f.definitely_absent(&Value::str("sensor-2")));
    }

    #[test]
    fn parameters_are_clamped() {
        let f = BloomFilter::new(0, 0);
        assert!(f.size_bytes() >= 8);
        // A single value round-trips even with minimal parameters.
        let mut f = BloomFilter::new(1, 1);
        f.insert(&Value::int(1));
        assert!(f.maybe_contains(&Value::int(1)));
    }
}
