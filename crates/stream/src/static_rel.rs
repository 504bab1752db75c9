//! Static relation generation.
//!
//! Section V (Figure 9b) extends JIT to consumers that join a stream with a
//! *static* relation `R_C`. This module generates such relations with the
//! same value model as the streams so the extension can be exercised in
//! tests and examples.

use crate::source::{DomainSampler, ValueDomain};
use jit_types::{BaseTuple, SourceId, Timestamp, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// A static (non-streaming) relation: a fixed set of tuples known up front.
#[derive(Debug, Clone, Default)]
pub struct StaticRelation {
    /// The relation's tuples. Timestamps are all zero (a static relation has
    /// no notion of arrival time and never expires).
    pub tuples: Vec<Arc<BaseTuple>>,
}

impl StaticRelation {
    /// Generate `cardinality` tuples for `source`, each with `num_columns`
    /// values drawn from `domain`.
    pub fn generate(
        source: SourceId,
        cardinality: usize,
        num_columns: usize,
        domain: ValueDomain,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let sampler = DomainSampler::new(domain);
        let tuples = (0..cardinality)
            .map(|seq| {
                let values: Vec<Value> =
                    (0..num_columns).map(|_| sampler.sample(&mut rng)).collect();
                Arc::new(BaseTuple::new(source, seq as u64, Timestamp::ZERO, values))
            })
            .collect();
        StaticRelation { tuples }
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Is the relation empty?
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Total analytical size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.tuples.iter().map(|t| t.size_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_cardinality_and_arity() {
        let r = StaticRelation::generate(SourceId(2), 100, 3, ValueDomain::uniform(10), 1);
        assert_eq!(r.len(), 100);
        assert!(!r.is_empty());
        for t in &r.tuples {
            assert_eq!(t.arity(), 3);
            assert_eq!(t.source, SourceId(2));
            assert_eq!(t.ts, Timestamp::ZERO);
            for v in t.values.iter() {
                assert!((1..=10).contains(&v.as_int().unwrap()));
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = StaticRelation::generate(SourceId(0), 50, 2, ValueDomain::uniform(100), 9);
        let b = StaticRelation::generate(SourceId(0), 50, 2, ValueDomain::uniform(100), 9);
        let c = StaticRelation::generate(SourceId(0), 50, 2, ValueDomain::uniform(100), 10);
        assert_eq!(a.tuples, b.tuples);
        assert_ne!(a.tuples, c.tuples);
    }

    #[test]
    fn size_and_empty() {
        let empty = StaticRelation::default();
        assert!(empty.is_empty());
        assert_eq!(empty.size_bytes(), 0);
        let r = StaticRelation::generate(SourceId(0), 10, 2, ValueDomain::uniform(5), 3);
        assert!(r.size_bytes() > 0);
        assert_eq!(
            r.size_bytes(),
            r.tuples.iter().map(|t| t.size_bytes()).sum::<usize>()
        );
    }

    #[test]
    fn sequence_numbers_are_dense() {
        let r = StaticRelation::generate(SourceId(1), 20, 1, ValueDomain::uniform(5), 4);
        let seqs: Vec<u64> = r.tuples.iter().map(|t| t.seq).collect();
        assert_eq!(seqs, (0..20).collect::<Vec<_>>());
    }
}
