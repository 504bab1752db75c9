//! Workload specifications matching Table III of the paper.

use jit_types::{Duration, PredicateSet, Window};

/// Full description of one synthetic workload: how many sources, how fast
/// they emit, how selective the join is, and for how long the query runs.
///
/// Defaults follow Table III: bushy experiments use `N = 6`, `w = 20 min`,
/// `λ = 1 /s`, `dmax = 200`; left-deep experiments use `N = 4`, `w = 10 min`,
/// `λ = 1 /s`, `dmax = 50` with the last source drawing from `[1..100·dmax]`.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Number of streaming sources `N`.
    pub num_sources: usize,
    /// Sliding-window length `w`, in minutes.
    pub window_minutes: f64,
    /// Mean per-source arrival rate `λ`, in tuples per second.
    pub rate_per_sec: f64,
    /// Maximum column value `dmax` (uniform domain `[1..dmax]`).
    pub dmax: u64,
    /// Multiplier applied to the *last* source's domain (`None` = same as the
    /// others). The left-deep experiments use `Some(100)` per Section VI.
    pub last_source_domain_factor: Option<u64>,
    /// Length of the run in application time.
    pub duration: Duration,
    /// RNG seed; the whole trace is a deterministic function of the spec.
    pub seed: u64,
    /// Shared-key mode: every tuple draws a *single* key value and carries it
    /// in all of its columns, so each clique predicate reduces to an equality
    /// between the two tuples' keys. Such workloads are *key-partitionable*:
    /// tuples can only ever join within the same key, which is what the
    /// sharded parallel runtime (`jit-runtime`) exploits to distribute the
    /// join-key space across cores without losing results.
    pub shared_key: bool,
}

impl WorkloadSpec {
    /// Defaults for the bushy-plan experiments (Table III, left column).
    pub fn bushy_default() -> Self {
        WorkloadSpec {
            num_sources: 6,
            window_minutes: 20.0,
            rate_per_sec: 1.0,
            dmax: 200,
            last_source_domain_factor: None,
            duration: Duration::from_mins(60),
            seed: 42,
            shared_key: false,
        }
    }

    /// Defaults for the left-deep-plan experiments (Table III, right column).
    pub fn leftdeep_default() -> Self {
        WorkloadSpec {
            num_sources: 4,
            window_minutes: 10.0,
            rate_per_sec: 1.0,
            dmax: 50,
            last_source_domain_factor: Some(100),
            duration: Duration::from_mins(60),
            seed: 42,
            shared_key: false,
        }
    }

    /// Set the number of sources.
    pub fn with_sources(mut self, n: usize) -> Self {
        self.num_sources = n;
        self
    }

    /// Set the window length in minutes.
    pub fn with_window_minutes(mut self, w: f64) -> Self {
        self.window_minutes = w;
        self
    }

    /// Set the arrival rate.
    pub fn with_rate(mut self, rate: f64) -> Self {
        self.rate_per_sec = rate;
        self
    }

    /// Set `dmax`.
    pub fn with_dmax(mut self, dmax: u64) -> Self {
        self.dmax = dmax;
        self
    }

    /// Set the run length.
    pub fn with_duration(mut self, duration: Duration) -> Self {
        self.duration = duration;
        self
    }

    /// Set the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Switch to the shared-key (key-partitionable) workload: one key value
    /// per tuple, replicated across all columns. See [`WorkloadSpec::shared_key`].
    pub fn with_shared_key(mut self) -> Self {
        self.shared_key = true;
        self
    }

    /// The sliding window corresponding to `window_minutes`.
    pub fn window(&self) -> Window {
        Window::minutes(self.window_minutes)
    }

    /// The clique-join predicate over the `N` sources.
    pub fn predicates(&self) -> PredicateSet {
        PredicateSet::clique(self.num_sources)
    }

    /// The largest value source `source` draws, `dmax` times
    /// `last_source_domain_factor` for the last source (the left-deep
    /// configuration of Section VI).
    pub(crate) fn dmax_of(&self, source: usize) -> u64 {
        if source + 1 == self.num_sources {
            self.dmax * self.last_source_domain_factor.unwrap_or(1)
        } else {
            self.dmax
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bushy_defaults_match_table_iii() {
        let s = WorkloadSpec::bushy_default();
        assert_eq!(s.num_sources, 6);
        assert_eq!(s.window_minutes, 20.0);
        assert_eq!(s.rate_per_sec, 1.0);
        assert_eq!(s.dmax, 200);
        assert!(s.last_source_domain_factor.is_none());
    }

    #[test]
    fn leftdeep_defaults_match_table_iii() {
        let s = WorkloadSpec::leftdeep_default();
        assert_eq!(s.num_sources, 4);
        assert_eq!(s.window_minutes, 10.0);
        assert_eq!(s.dmax, 50);
        assert_eq!(s.last_source_domain_factor, Some(100));
    }

    #[test]
    fn builders_update_fields() {
        let s = WorkloadSpec::bushy_default()
            .with_sources(8)
            .with_window_minutes(30.0)
            .with_rate(1.6)
            .with_dmax(300)
            .with_seed(7)
            .with_duration(Duration::from_mins(5));
        assert_eq!(s.num_sources, 8);
        assert_eq!(s.window_minutes, 30.0);
        assert_eq!(s.rate_per_sec, 1.6);
        assert_eq!(s.dmax, 300);
        assert_eq!(s.seed, 7);
        assert_eq!(s.duration, Duration::from_mins(5));
    }

    #[test]
    fn derived_schema_objects() {
        let s = WorkloadSpec::bushy_default().with_sources(4);
        assert_eq!(s.predicates().len(), 6);
        assert_eq!(s.window().length, Duration::from_mins(20));
        assert!((0..4).all(|i| s.dmax_of(i) == 200));
    }

    #[test]
    fn leftdeep_last_source_has_enlarged_domain() {
        let s = WorkloadSpec::leftdeep_default();
        assert_eq!(s.dmax_of(0), 50);
        assert_eq!(s.dmax_of(3), 5_000);
    }
}
