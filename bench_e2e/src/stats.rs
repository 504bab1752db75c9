//! The harness's arithmetic: medians, quartile spread, percentile choice,
//! pacing schedule and lateness, and the result multiset diff.

use std::collections::HashMap;

/// Median of a non-empty sample (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The smallest of a non-empty sample of durations. Interference on a shared
/// box only ever adds time, so the fastest repetition is the steadiest
/// estimate of what the code itself costs.
pub fn best(durations: &[f64]) -> f64 {
    assert!(!durations.is_empty(), "best of an empty sample");
    durations.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Distance between the first and third quartile as a share of the median,
/// with the quartiles Python's `statistics.quantiles(values, n=4)` gives
/// (the exclusive method) — the spread the driver judges a metric by.
/// `None` below two values, where the quartiles are undefined.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let quartile = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((quartile(3) - quartile(1)) / median(&sorted).abs().max(f64::MIN_POSITIVE))
}

/// A tail percentile and the sample it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported (99, 95, 90, 75 or 50).
    pub percentile: u32,
    /// Its value.
    pub value: f64,
    /// Sample size.
    pub samples: usize,
}

/// Samples that must lie beyond a tail percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// The highest of p99/p95/p90/p75 with at least [`MIN_BEYOND`] samples beyond
/// it, falling back to the median for samples too small for any of them.
/// `sorted` must be ascending and non-empty.
pub fn tail_percentile(sorted: &[f64]) -> Tail {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let n = sorted.len();
    let percentile = [99u32, 95, 90, 75]
        .into_iter()
        .find(|p| n * (100 - *p as usize) / 100 >= MIN_BEYOND)
        .unwrap_or(50);
    Tail {
        percentile,
        value: percentile_of(sorted, percentile),
        samples: n,
    }
}

/// Nearest-rank percentile of an ascending, non-empty sample.
pub fn percentile_of<T: Copy>(sorted: &[T], percentile: u32) -> T {
    let rank = (sorted.len() * percentile as usize).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// The splitmix64 finaliser: the bit mixer behind the result hashes and the
/// serving workload's stream generator.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Open-loop schedule: stream timestamps compressed by a constant factor so
/// the trace plays at a fixed arrival rate.
#[derive(Debug, Clone, Copy)]
pub struct Pacer {
    first_ms: u64,
    /// Wall nanoseconds per stream millisecond.
    ns_per_ms: f64,
}

impl Pacer {
    /// Play `arrivals` arrivals spanning stream time `first_ms..=last_ms` at
    /// `rate_tps` arrivals per wall second.
    pub fn new(first_ms: u64, last_ms: u64, arrivals: usize, rate_tps: f64) -> Self {
        let span_ms = last_ms.saturating_sub(first_ms).max(1) as f64;
        let wall_ns = arrivals as f64 / rate_tps * 1e9;
        Pacer {
            first_ms,
            ns_per_ms: wall_ns / span_ms,
        }
    }

    /// Wall offset from the start of the run, in nanoseconds, at which an
    /// arrival scheduled at stream time `sched_ms` is due.
    pub fn due_ns(&self, sched_ms: u64) -> u64 {
        (sched_ms.saturating_sub(self.first_ms) as f64 * self.ns_per_ms) as u64
    }
}

/// How late the load generator ran: per push, send time minus due time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lateness {
    /// 99th percentile of the lag, microseconds.
    pub p99_us: f64,
    /// Largest lag, milliseconds.
    pub max_ms: f64,
}

/// Summarise generator lags (nanoseconds; a push sent early counts as 0).
pub fn lateness(lags_ns: &mut [u64]) -> Lateness {
    if lags_ns.is_empty() {
        return Lateness {
            p99_us: 0.0,
            max_ms: 0.0,
        };
    }
    lags_ns.sort_unstable();
    Lateness {
        p99_us: percentile_of(lags_ns, 99) as f64 / 1e3,
        max_ms: lags_ns[lags_ns.len() - 1] as f64 / 1e6,
    }
}

/// A multiset of 64-bit result hashes.
pub type Multiset = HashMap<u64, u32>;

/// Count each hash.
pub fn multiset(hashes: impl IntoIterator<Item = u64>) -> Multiset {
    let mut set = Multiset::new();
    for hash in hashes {
        *set.entry(hash).or_insert(0) += 1;
    }
    set
}

/// How a delivered result multiset differs from the expected one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Diff {
    /// Expected results never delivered.
    pub missing: u64,
    /// Delivered results the reference never produced.
    pub spurious: u64,
    /// Extra copies of results the reference produced fewer times.
    pub duplicated: u64,
}

impl Diff {
    /// Total failed result operations.
    pub fn failed(&self) -> u64 {
        self.missing + self.spurious + self.duplicated
    }
}

/// Multiset difference by hash count.
pub fn diff(expected: &Multiset, got: &Multiset) -> Diff {
    let mut d = Diff::default();
    for (hash, &want) in expected {
        let have = got.get(hash).copied().unwrap_or(0);
        d.missing += u64::from(want.saturating_sub(have));
        d.duplicated += u64::from(have.saturating_sub(want));
    }
    for (hash, &have) in got {
        if !expected.contains_key(hash) {
            d.spurious += u64::from(have);
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn best_is_the_fastest_repetition() {
        assert_eq!(best(&[2.5, 1.75, 3.0]), 1.75);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = quartile_spread(&values).unwrap();
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let spread = quartile_spread(&[1.0, 2.0]).unwrap();
        assert!((spread - 1.5 / 1.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[1.0]), None);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let sample = |n: usize| (1..=n).map(|v| v as f64).collect::<Vec<_>>();
        // 1000 samples: 10 lie beyond p99.
        let t = tail_percentile(&sample(1000));
        assert_eq!((t.percentile, t.value, t.samples), (99, 990.0, 1000));
        // 999 samples: only 9 beyond p99, 49 beyond p95.
        assert_eq!(tail_percentile(&sample(999)).percentile, 95);
        assert_eq!(tail_percentile(&sample(200)).percentile, 95);
        assert_eq!(tail_percentile(&sample(199)).percentile, 90);
        assert_eq!(tail_percentile(&sample(40)).percentile, 75);
        // Too small for any tail: the median stands in.
        let t = tail_percentile(&sample(39));
        assert_eq!((t.percentile, t.value), (50, 20.0));
    }

    #[test]
    fn pacer_compresses_stream_time_to_the_fixed_rate() {
        // 1000 arrivals over 10 s of stream time at 2000/s wall: 0.5 s.
        let pacer = Pacer::new(5_000, 15_000, 1000, 2000.0);
        assert_eq!(pacer.due_ns(5_000), 0);
        assert_eq!(pacer.due_ns(10_000), 250_000_000);
        assert_eq!(pacer.due_ns(15_000), 500_000_000);
        // Before the first arrival nothing is due earlier than the start.
        assert_eq!(pacer.due_ns(0), 0);
    }

    #[test]
    fn lateness_reports_p99_and_max() {
        let mut lags: Vec<u64> = (1..=100).map(|i| i * 1_000).collect();
        let l = lateness(&mut lags);
        assert_eq!(l.p99_us, 99.0);
        assert_eq!(l.max_ms, 0.1);
        assert_eq!(lateness(&mut []).max_ms, 0.0);
    }

    #[test]
    fn diff_counts_missing_spurious_and_duplicated() {
        let expected = multiset([1, 1, 2, 3]);
        let got = multiset([1, 2, 2, 2, 9]);
        let d = diff(&expected, &got);
        assert_eq!(
            d,
            Diff {
                missing: 2,    // one copy of 1, the only 3
                spurious: 1,   // 9
                duplicated: 2  // two extra copies of 2
            }
        );
        assert_eq!(d.failed(), 5);
        assert_eq!(diff(&expected, &expected).failed(), 0);
    }
}
