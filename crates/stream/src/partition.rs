//! Shard assignment: hash-partitioning the join-key space.
//!
//! The sharded parallel runtime (`jit-runtime`) runs one independent
//! executor per shard, so the partitioner must guarantee that any two tuples
//! that *could* join land in the same shard. For key-partitionable workloads
//! (every join predicate is an equality over the tuple's key, see
//! [`crate::WorkloadSpec::shared_key`]) hashing the key column achieves this:
//! equal keys hash to the same shard, and tuples in different shards never
//! satisfy any predicate.
//!
//! The partitioner itself is policy-free: it hashes one designated column of
//! every source. Whether that column really governs all join predicates is a
//! property of the workload, asserted by the shard-determinism tests.

use crate::arrival::ArrivalEvent;
use crate::trace::Trace;
use jit_types::{BaseTuple, Value};

/// Assigns arrivals to shards by hashing a designated key column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPartitioner {
    num_shards: usize,
    key_column: usize,
}

impl ShardPartitioner {
    /// A partitioner over `num_shards` shards, keyed on column 0.
    ///
    /// # Panics
    /// Panics if `num_shards` is zero.
    pub fn new(num_shards: usize) -> Self {
        assert!(num_shards > 0, "a partitioner needs at least one shard");
        ShardPartitioner {
            num_shards,
            key_column: 0,
        }
    }

    /// Use a different column as the partitioning key.
    pub fn with_key_column(mut self, column: usize) -> Self {
        self.key_column = column;
        self
    }

    /// Number of shards tuples are spread over.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// The column hashed for shard assignment.
    pub fn key_column(&self) -> usize {
        self.key_column
    }

    /// Shard of a raw key value.
    fn shard_of_value(&self, value: &Value) -> usize {
        (hash_value(value) % self.num_shards as u64) as usize
    }

    /// Shard of a base tuple (hash of its key column; tuples without the
    /// key column — shorter rows — fall into shard 0).
    pub fn shard_of(&self, tuple: &BaseTuple) -> usize {
        match tuple.values.get(self.key_column) {
            Some(value) => self.shard_of_value(value),
            None => 0,
        }
    }

    /// Split a trace into one per-shard trace, preserving replay order.
    pub fn split(&self, trace: &Trace) -> Vec<Trace> {
        let mut per_shard: Vec<Vec<ArrivalEvent>> = vec![Vec::new(); self.num_shards];
        for event in trace.iter() {
            per_shard[self.shard_of(&event.tuple)].push(event.clone());
        }
        per_shard.into_iter().map(Trace::new).collect()
    }
}

/// Deterministic, platform-independent value hash (SplitMix64 finaliser for
/// integers, FNV-1a for strings). `std`'s `DefaultHasher` is deliberately
/// avoided: its output may change between Rust releases, and shard layouts
/// should be stable artifacts of the configuration alone.
fn hash_value(value: &Value) -> u64 {
    match value {
        Value::Null => 0x9E37_79B9_7F4A_7C15,
        Value::Int(v) => splitmix64(*v as u64),
        Value::Str(s) => {
            let mut hash = 0xCBF2_9CE4_8422_2325u64;
            for byte in s.as_bytes() {
                hash ^= u64::from(*byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
            }
            splitmix64(hash)
        }
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{WorkloadGenerator, WorkloadSpec};
    use jit_types::{Duration, SourceId, Timestamp};
    use std::sync::Arc;

    fn event(source: u16, seq: u64, ts_ms: u64, key: i64) -> ArrivalEvent {
        let ts = Timestamp::from_millis(ts_ms);
        ArrivalEvent {
            ts,
            source: SourceId(source),
            tuple: Arc::new(BaseTuple::new(
                SourceId(source),
                seq,
                ts,
                vec![Value::int(key), Value::int(key)],
            )),
        }
    }

    #[test]
    fn equal_keys_share_a_shard() {
        let p = ShardPartitioner::new(4);
        for key in [1i64, 7, 42, -3, 1_000_000] {
            let a = event(0, 1, 10, key);
            let b = event(3, 9, 999, key);
            assert_eq!(p.shard_of(&a.tuple), p.shard_of(&b.tuple));
            assert!(p.shard_of(&a.tuple) < 4);
        }
    }

    #[test]
    fn single_shard_takes_everything() {
        let p = ShardPartitioner::new(1);
        for key in 0..100 {
            assert_eq!(p.shard_of(&event(0, 0, 0, key).tuple), 0);
        }
    }

    #[test]
    fn split_partitions_and_preserves_order() {
        let trace = Trace::new((0..200).map(|i| event(0, i, i * 10, i as i64)).collect());
        let p = ShardPartitioner::new(3);
        let shards = p.split(&trace);
        assert_eq!(shards.len(), 3);
        let total: usize = shards.iter().map(Trace::len).sum();
        assert_eq!(total, trace.len());
        for shard in &shards {
            let times: Vec<u64> = shard.iter().map(|e| e.ts.as_millis()).collect();
            let mut sorted = times.clone();
            sorted.sort_unstable();
            assert_eq!(times, sorted, "per-shard replay order must be temporal");
        }
    }

    #[test]
    fn shards_are_reasonably_balanced() {
        let trace = Trace::new((0..3000).map(|i| event(0, i, i, i as i64)).collect());
        let p = ShardPartitioner::new(4);
        let shards = p.split(&trace);
        for shard in &shards {
            // Perfect balance would be 750; allow wide slack.
            assert!(
                (450..1050).contains(&shard.len()),
                "shard holds {} of 3000 events",
                shard.len()
            );
        }
    }

    #[test]
    fn string_and_null_keys_hash_stably() {
        let p = ShardPartitioner::new(8);
        let s1 = p.shard_of_value(&Value::str("alpha"));
        let s2 = p.shard_of_value(&Value::str("alpha"));
        assert_eq!(s1, s2);
        assert!(p.shard_of_value(&Value::Null) < 8);
    }

    #[test]
    fn shared_key_workload_is_key_partitionable() {
        // In shared-key mode every column carries the key, so the join
        // graph never crosses shard boundaries: verify all columns equal.
        let spec = WorkloadSpec::bushy_default()
            .with_sources(4)
            .with_duration(Duration::from_secs(60))
            .with_shared_key()
            .with_seed(9);
        let trace = WorkloadGenerator::generate(&spec);
        assert!(!trace.is_empty());
        for e in trace.iter() {
            let first = &e.tuple.values[0];
            assert!(e.tuple.values.iter().all(|v| v == first));
        }
    }

    #[test]
    fn key_column_override() {
        let p = ShardPartitioner::new(4).with_key_column(1);
        assert_eq!(p.key_column(), 1);
        assert_eq!(p.num_shards(), 4);
        // Missing key column falls back to shard 0.
        let short = BaseTuple::new(SourceId(0), 0, Timestamp::ZERO, vec![]);
        assert_eq!(p.shard_of(&short), 0);
    }
}
