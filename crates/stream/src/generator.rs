//! Deterministic workload generation.

use crate::arrival::{ArrivalEvent, ArrivalProcess};
use crate::trace::Trace;
use crate::workload::WorkloadSpec;
use jit_types::{BaseTuple, SourceId};
use rand::rngs::StdRng;
use rand::SeedableRng;
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
        let source_specs = spec.source_specs();
        let duration_ms = spec.duration.as_millis();
        let mut events = Vec::new();
        for (idx, source_spec) in source_specs.iter().enumerate() {
            let source = SourceId(idx as u16);
            // Mix the source index into the seed with a large odd constant so
            // per-source streams are decorrelated but reproducible.
            let seed = spec
                .seed
                .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(idx as u64 + 1));
            let mut rng = StdRng::seed_from_u64(seed);
            let process = match spec.arrival {
                ArrivalProcess::Poisson { .. } => ArrivalProcess::Poisson {
                    rate_per_sec: source_spec.rate_per_sec,
                },
                ArrivalProcess::Constant { .. } => ArrivalProcess::Constant {
                    rate_per_sec: source_spec.rate_per_sec,
                },
            };
            let times = process.arrival_times(duration_ms, &mut rng);
            // Built once per source: a Zipf table costs O(`dmax`).
            let sampler = source_spec.sampler();
            for (seq, ts) in times.into_iter().enumerate() {
                let values = if spec.shared_key {
                    // Shared-key mode: one draw, replicated across all
                    // columns, so every clique predicate reduces to an
                    // equality between tuple keys (key-partitionable).
                    let key = sampler.default.sample(&mut rng);
                    vec![key; source_spec.num_columns]
                } else {
                    sampler.sample_values(&mut rng)
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
    use jit_types::Duration;

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
        let expected = spec.expected_arrivals();
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
        let counts = trace.per_source_counts();
        assert_eq!(counts.len(), 3);
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
        assert!(trace.events().windows(2).all(|w| w[0].ts <= w[1].ts));
        assert!(trace.horizon().as_millis() < spec.duration.as_millis());
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
        for (source, count) in trace.per_source_counts() {
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

    /// A Zipf workload builds one prefix-sum table per source — it used to
    /// build one per value drawn, O(`dmax`) each — and draws the trace it
    /// always drew: the hashes were computed by the build that still did.
    #[test]
    fn zipf_tables_are_built_once_per_source_and_the_trace_is_unchanged() {
        use crate::skew::TABLES_BUILT;
        let mut spec = WorkloadSpec::bushy_default()
            .with_sources(3)
            .with_rate(100.0)
            .with_dmax(5_000)
            .with_duration(Duration::from_secs(340))
            .with_seed(31);
        spec.zipf_exponent = Some(1.1);
        for (spec, values_at_least, hash) in [
            (spec.clone(), 200_000, 0xc514_9068_b090_2314u64),
            (spec.with_shared_key(), 100_000, 0xf944_a9d6_6d88_fb3au64),
        ] {
            let before = TABLES_BUILT.with(|built| built.get());
            let trace = WorkloadGenerator::generate(&spec);
            assert_eq!(TABLES_BUILT.with(|built| built.get()) - before, 3);
            let drawn = if spec.shared_key { 1 } else { 2 } * trace.len();
            assert!(drawn >= values_at_least, "{drawn} values drawn");
            assert_eq!(trace_hash(&trace), hash, "{:#018x}", trace_hash(&trace));
        }
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
