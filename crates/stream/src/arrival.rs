//! Arrival processes and arrival events.
//!
//! The paper specifies "an average tuple arrival rate of λ tuples per second"
//! per source; we model that as a Poisson process (exponential inter-arrival
//! times), with a constant-rate alternative for fully deterministic spacing
//! in unit tests.

use jit_types::{BaseTuple, SourceId, Timestamp};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One base tuple arriving at a point in application time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrivalEvent {
    /// Arrival instant (equals the tuple's timestamp).
    pub ts: Timestamp,
    /// Which source the tuple arrives on.
    pub source: SourceId,
    /// The arriving record.
    pub tuple: Arc<BaseTuple>,
}

/// How inter-arrival gaps are drawn.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) enum ArrivalProcess {
    /// Poisson process: exponential inter-arrival times with the given mean
    /// rate (tuples per second).
    Poisson {
        /// Mean arrival rate λ in tuples per second.
        rate_per_sec: f64,
    },
    /// Evenly spaced arrivals at the given rate.
    Constant {
        /// Arrival rate in tuples per second.
        rate_per_sec: f64,
    },
}

impl ArrivalProcess {
    /// The process's mean rate in tuples per second.
    pub(crate) fn rate_per_sec(&self) -> f64 {
        match self {
            ArrivalProcess::Poisson { rate_per_sec }
            | ArrivalProcess::Constant { rate_per_sec } => *rate_per_sec,
        }
    }

    /// Draw the arrival instants in `[0, duration_ms)`.
    ///
    /// The result is sorted and strictly within the horizon. A non-positive
    /// rate yields no arrivals.
    pub(crate) fn arrival_times(&self, duration_ms: u64, rng: &mut impl Rng) -> Vec<Timestamp> {
        let rate = self.rate_per_sec();
        if rate <= 0.0 || duration_ms == 0 {
            return Vec::new();
        }
        let mut out = Vec::new();
        match self {
            ArrivalProcess::Poisson { .. } => {
                let mean_gap_ms = 1_000.0 / rate;
                let mut t = 0.0f64;
                loop {
                    // Inverse-CDF exponential sample; clamp u away from 0 to
                    // avoid ln(0).
                    let u: f64 = rng.gen::<f64>().max(1e-12);
                    t += -u.ln() * mean_gap_ms;
                    if t >= duration_ms as f64 {
                        break;
                    }
                    out.push(Timestamp::from_millis(t as u64));
                }
            }
            ArrivalProcess::Constant { .. } => {
                let gap_ms = 1_000.0 / rate;
                let mut t = gap_ms;
                while t < duration_ms as f64 {
                    out.push(Timestamp::from_millis(t as u64));
                    t += gap_ms;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn constant_process_is_evenly_spaced() {
        let p = ArrivalProcess::Constant { rate_per_sec: 2.0 };
        let mut rng = StdRng::seed_from_u64(1);
        let times = p.arrival_times(10_000, &mut rng);
        // 2/sec over 10s, first at 500ms → 19 arrivals strictly before 10s.
        assert_eq!(times.len(), 19);
        assert_eq!(times[0], Timestamp::from_millis(500));
        assert_eq!(times[1], Timestamp::from_millis(1_000));
        assert!(times.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn poisson_rate_is_approximately_respected() {
        let p = ArrivalProcess::Poisson { rate_per_sec: 1.0 };
        let mut rng = StdRng::seed_from_u64(2);
        // 2000 seconds at 1/sec → expect ~2000 arrivals; allow ±10%.
        let times = p.arrival_times(2_000_000, &mut rng);
        assert!((1_800..=2_200).contains(&times.len()), "{}", times.len());
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert!(times.iter().all(|t| t.as_millis() < 2_000_000));
    }

    #[test]
    fn zero_rate_or_duration_yields_nothing() {
        let mut rng = StdRng::seed_from_u64(3);
        assert!(ArrivalProcess::Poisson { rate_per_sec: 0.0 }
            .arrival_times(1_000, &mut rng)
            .is_empty());
        assert!(ArrivalProcess::Constant { rate_per_sec: 5.0 }
            .arrival_times(0, &mut rng)
            .is_empty());
    }

    #[test]
    fn poisson_is_deterministic_given_seed() {
        let p = ArrivalProcess::Poisson { rate_per_sec: 3.0 };
        let a = p.arrival_times(60_000, &mut StdRng::seed_from_u64(42));
        let b = p.arrival_times(60_000, &mut StdRng::seed_from_u64(42));
        assert_eq!(a, b);
        let c = p.arrival_times(60_000, &mut StdRng::seed_from_u64(43));
        assert_ne!(a, c);
    }

    #[test]
    fn rate_accessor() {
        assert_eq!(
            ArrivalProcess::Poisson { rate_per_sec: 1.5 }.rate_per_sec(),
            1.5
        );
        assert_eq!(
            ArrivalProcess::Constant { rate_per_sec: 0.4 }.rate_per_sec(),
            0.4
        );
    }
}
