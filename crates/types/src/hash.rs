//! A fast, non-cryptographic hasher for hot-path hash maps.
//!
//! The standard library's default hasher (SipHash-1-3) is keyed and
//! HashDoS-resistant, which costs tens of nanoseconds per small key — a
//! real tax on maps probed once per arriving tuple, such as the hash
//! indexes over operator states. [`FastHasher`] is the classic
//! multiplicative "Fx" scheme (rotate, xor, multiply by a large odd
//! constant per 8-byte word), an order of magnitude cheaper on the short
//! integer keys the join states use.
//!
//! It is *not* collision-resistant against adversarial keys; use it only
//! for maps whose keys come from the data plane of a trusted process, never
//! for anything exposed to untrusted input.

#[expect(
    clippy::disallowed_types,
    reason = "this is the definition site: the std containers are re-exported with the fast hasher plugged in"
)]
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `BuildHasher` for [`FastHasher`]; deterministic (no per-map seed).
pub(crate) type FastBuildHasher = BuildHasherDefault<FastHasher>;

/// A `HashMap` using [`FastHasher`]. Construct with `FastMap::default()`.
#[expect(
    clippy::disallowed_types,
    reason = "alias definition site: this line plugs the fast hasher into the std container for everyone else to use"
)]
pub type FastMap<K, V> = HashMap<K, V, FastBuildHasher>;

/// A `HashSet` using [`FastHasher`]. Construct with `FastSet::default()`.
#[expect(
    clippy::disallowed_types,
    reason = "alias definition site: this line plugs the fast hasher into the std container for everyone else to use"
)]
pub type FastSet<T> = HashSet<T, FastBuildHasher>;

/// Multiplicative word-at-a-time hasher (the "Fx" scheme).
#[derive(Debug, Default, Clone)]
pub struct FastHasher {
    hash: u64,
}

/// A large odd constant with well-mixed bits (2^64 / golden ratio, odd).
const SEED: u64 = 0x517c_c1b7_2722_0a95;

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            #[expect(
                clippy::expect_used,
                reason = "INVARIANT: chunks_exact(8) yields exactly-8-byte slices."
            )]
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            // Fold the length in so `"a"` and `"a\0"` hash differently.
            self.add(u64::from_le_bytes(buf) ^ (rem.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.add(n as u64);
        self.add((n >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: &T) -> u64 {
        FastBuildHasher::default().hash_one(value)
    }

    #[test]
    fn deterministic_across_builders() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_eq!(hash_of(&"stream"), hash_of(&"stream"));
    }

    #[test]
    fn distinguishes_values_and_lengths() {
        assert_ne!(hash_of(&1u64), hash_of(&2u64));
        assert_ne!(hash_of(&[1u8]), hash_of(&[1u8, 0]));
        assert_ne!(hash_of(&"a"), hash_of(&"a\0"));
    }

    #[test]
    fn map_round_trips() {
        let mut map: FastMap<Vec<i64>, usize> = FastMap::default();
        for i in 0..100 {
            map.insert(vec![i, i * 7], i as usize);
        }
        for i in 0..100 {
            assert_eq!(map.get(&vec![i, i * 7]), Some(&(i as usize)));
        }
    }
}
