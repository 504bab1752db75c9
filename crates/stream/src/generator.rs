//! Deterministic workload generation.

use crate::arrival::{poisson_arrival_times, ArrivalEvent};
use crate::trace::Trace;
use crate::workload::WorkloadSpec;
use jit_types::{BaseTuple, SourceId, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Turns a [`WorkloadSpec`] into a concrete, replayable [`Trace`].
///
/// Each source's arrival times and column values are drawn from an
/// independent RNG seeded from `(spec.seed, source index)`, so changing the
/// number of sources does not perturb the streams of the sources that remain
/// — useful when sweeping `N` (Figures 12 and 16).
#[derive(Debug, Default, Clone, Copy)]
pub struct WorkloadGenerator;

impl WorkloadGenerator {
    /// Generate the full arrival trace for a workload specification.
    pub fn generate(spec: &WorkloadSpec) -> Trace {
        let columns = spec.num_sources.saturating_sub(1);
        let duration_ms = spec.duration.as_millis();
        let mut events = Vec::new();
        for idx in 0..spec.num_sources {
            let source = SourceId(idx as u16);
            // Mix the source index into the seed with a large odd constant so
            // per-source streams are decorrelated but reproducible.
            let seed = spec
                .seed
                .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(idx as u64 + 1));
            let mut rng = StdRng::seed_from_u64(seed);
            let times = poisson_arrival_times(spec.rate_per_sec, duration_ms, &mut rng);
            let dmax = spec.dmax_of(idx).max(1);
            let mut draw = || Value::int(rng.gen_range(1..=dmax) as i64);
            for (seq, ts) in times.into_iter().enumerate() {
                let values = if spec.shared_key {
                    // Shared-key mode: one draw, replicated across all
                    // columns, so every clique predicate reduces to an
                    // equality between tuple keys (key-partitionable).
                    vec![draw(); columns]
                } else {
                    (0..columns).map(|_| draw()).collect()
                };
                let tuple = Arc::new(BaseTuple::new(source, seq as u64, ts, values));
                events.push(ArrivalEvent { ts, source, tuple });
            }
        }
        Trace::new(events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Trace;
    use jit_types::{Duration, SourceId};
    use std::collections::BTreeMap;

    fn per_source_counts(trace: &Trace) -> BTreeMap<SourceId, usize> {
        let mut counts = BTreeMap::new();
        for e in trace.iter() {
            *counts.entry(e.source).or_insert(0) += 1;
        }
        counts
    }

    fn small_spec() -> WorkloadSpec {
        WorkloadSpec::bushy_default()
            .with_sources(3)
            .with_rate(2.0)
            .with_dmax(20)
            .with_duration(Duration::from_secs(120))
            .with_seed(7)
    }

    #[test]
    fn generates_roughly_expected_volume() {
        let spec = small_spec();
        let trace = WorkloadGenerator::generate(&spec);
        let expected = spec.num_sources as f64 * spec.rate_per_sec * spec.duration.as_secs_f64();
        let actual = trace.len() as f64;
        assert!(
            (actual - expected).abs() < expected * 0.35,
            "expected ≈{expected}, got {actual}"
        );
    }

    #[test]
    fn all_sources_present_with_correct_arity() {
        let spec = small_spec();
        let trace = WorkloadGenerator::generate(&spec);
        assert_eq!(per_source_counts(&trace).len(), 3);
        for e in trace.iter() {
            assert_eq!(e.tuple.arity(), 2); // N - 1 columns
            assert_eq!(e.tuple.ts, e.ts);
            assert_eq!(e.tuple.source, e.source);
            for v in e.tuple.values.iter() {
                let v = v.as_int().unwrap();
                assert!((1..=20).contains(&v));
            }
        }
    }

    #[test]
    fn trace_is_sorted_and_within_duration() {
        let spec = small_spec();
        let trace = WorkloadGenerator::generate(&spec);
        assert!(trace
            .iter()
            .zip(trace.iter().skip(1))
            .all(|(a, b)| a.ts <= b.ts));
        assert!(trace
            .iter()
            .all(|e| e.ts.as_millis() < spec.duration.as_millis()));
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = small_spec();
        let a = WorkloadGenerator::generate(&spec);
        let b = WorkloadGenerator::generate(&spec);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.tuple, y.tuple);
        }
        let c = WorkloadGenerator::generate(&spec.clone().with_seed(8));
        assert!(a.len() != c.len() || a.iter().zip(c.iter()).any(|(x, y)| x.tuple != y.tuple));
    }

    #[test]
    fn seq_numbers_are_dense_per_source() {
        let spec = small_spec();
        let trace = WorkloadGenerator::generate(&spec);
        for (source, count) in per_source_counts(&trace) {
            let mut seqs: Vec<u64> = trace
                .iter()
                .filter(|e| e.source == source)
                .map(|e| e.tuple.seq)
                .collect();
            seqs.sort_unstable();
            assert_eq!(seqs, (0..count as u64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn adding_a_source_preserves_existing_streams() {
        let spec3 = small_spec();
        let spec4 = small_spec().with_sources(4);
        let t3 = WorkloadGenerator::generate(&spec3);
        let t4 = WorkloadGenerator::generate(&spec4);
        // Arrival times of source 0 are identical in both traces (values
        // differ in arity, so compare timestamps and seq only).
        let a: Vec<(u64, u64)> = t3
            .iter()
            .filter(|e| e.source == SourceId(0))
            .map(|e| (e.ts.as_millis(), e.tuple.seq))
            .collect();
        let b: Vec<(u64, u64)> = t4
            .iter()
            .filter(|e| e.source == SourceId(0))
            .map(|e| (e.ts.as_millis(), e.tuple.seq))
            .collect();
        assert_eq!(a, b);
    }

    /// FNV-1a over everything a trace holds, in order.
    fn trace_hash(trace: &Trace) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |word: u64| {
            for byte in word.to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for e in trace.iter() {
            mix(e.ts.as_millis());
            mix(u64::from(e.source.0));
            mix(e.tuple.seq);
            for v in e.tuple.values.iter() {
                mix(v.as_int().expect("generated values are integers") as u64);
            }
        }
        hash
    }

    /// Traces are pinned event for event, so a change to the arrival times,
    /// the values drawn or the order of the draws shows here.
    #[test]
    fn uniform_traces_are_pinned() {
        let secs = Duration::from_secs(900);
        for (spec, events, hash) in [
            (
                WorkloadSpec::bushy_default().with_sources(4).with_seed(3),
                3_575,
                0x1241_7b72_2ce8_2be3u64,
            ),
            (
                WorkloadSpec::leftdeep_default().with_seed(5),
                3_473,
                0x8ed2_ebc8_7ab8_b341,
            ),
            (
                WorkloadSpec::bushy_default()
                    .with_sources(3)
                    .with_shared_key()
                    .with_seed(9),
                2_703,
                0x92f0_5f59_639f_48fc,
            ),
        ] {
            let trace = WorkloadGenerator::generate(&spec.with_duration(secs));
            assert_eq!(trace.len(), events);
            assert_eq!(trace_hash(&trace), hash, "{:#018x}", trace_hash(&trace));
        }
    }

    #[test]
    fn dmax_one_draws_only_ones() {
        let trace = WorkloadGenerator::generate(&small_spec().with_dmax(1));
        assert!(!trace.is_empty());
        assert!(trace
            .iter()
            .flat_map(|e| e.tuple.values.iter())
            .all(|v| v.as_int() == Some(1)));
    }

    #[test]
    fn leftdeep_last_source_uses_enlarged_domain() {
        let spec = WorkloadSpec::leftdeep_default()
            .with_duration(Duration::from_secs(300))
            .with_rate(2.0);
        let trace = WorkloadGenerator::generate(&spec);
        let max_last = trace
            .iter()
            .filter(|e| e.source == SourceId(3))
            .flat_map(|e| e.tuple.values.iter())
            .filter_map(|v| v.as_int())
            .max()
            .unwrap_or(0);
        // Domain is [1..5000]; with hundreds of samples we expect to see
        // values far above the base dmax of 50.
        assert!(max_last > 50, "max value of last source {max_last}");
    }
}
