//! Arrival processes and arrival events.
//!
//! The paper specifies "an average tuple arrival rate of λ tuples per second"
//! per source; we model that as a Poisson process (exponential inter-arrival
//! times).

use jit_types::{BaseTuple, SourceId, Timestamp};
use rand::Rng;
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

/// Draw the arrival instants of a Poisson process (exponential inter-arrival
/// times) with mean rate `rate_per_sec` in `[0, duration_ms)`.
///
/// The result is sorted and strictly within the horizon. A non-positive
/// rate yields no arrivals.
pub(crate) fn poisson_arrival_times(
    rate_per_sec: f64,
    duration_ms: u64,
    rng: &mut impl Rng,
) -> Vec<Timestamp> {
    if rate_per_sec <= 0.0 || duration_ms == 0 {
        return Vec::new();
    }
    let mean_gap_ms = 1_000.0 / rate_per_sec;
    let mut out = Vec::new();
    let mut t = 0.0f64;
    loop {
        // Inverse-CDF exponential sample; clamp u away from 0 to avoid ln(0).
        let u: f64 = rng.gen::<f64>().max(1e-12);
        t += -u.ln() * mean_gap_ms;
        if t >= duration_ms as f64 {
            break;
        }
        out.push(Timestamp::from_millis(t as u64));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn poisson_rate_is_approximately_respected() {
        let mut rng = StdRng::seed_from_u64(2);
        // 2000 seconds at 1/sec → expect ~2000 arrivals; allow ±10%.
        let times = poisson_arrival_times(1.0, 2_000_000, &mut rng);
        assert!((1_800..=2_200).contains(&times.len()), "{}", times.len());
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert!(times.iter().all(|t| t.as_millis() < 2_000_000));
    }

    #[test]
    fn zero_rate_or_duration_yields_nothing() {
        let mut rng = StdRng::seed_from_u64(3);
        assert!(poisson_arrival_times(0.0, 1_000, &mut rng).is_empty());
        assert!(poisson_arrival_times(5.0, 0, &mut rng).is_empty());
    }

    #[test]
    fn poisson_is_deterministic_given_seed() {
        let draw = |seed| poisson_arrival_times(3.0, 60_000, &mut StdRng::seed_from_u64(seed));
        let a = draw(42);
        let b = draw(42);
        assert_eq!(a, b);
        let c = draw(43);
        assert_ne!(a, c);
    }
}
