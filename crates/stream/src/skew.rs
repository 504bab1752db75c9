//! A small Zipf sampler (skew extension to the paper's uniform workloads).
//!
//! Implemented with the classic inverse-CDF-over-precomputed-weights approach
//! for clarity; domains used in the experiments are small (≤ a few thousand
//! values), so precomputing the CDF is cheap. Implemented in-crate to avoid
//! pulling in an extra dependency for a single distribution.

use rand::Rng;

#[cfg(test)]
thread_local! {
    /// Tables built on this thread, for tests that pin how often.
    pub(crate) static TABLES_BUILT: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Samples integers in `[1..=n]` with probability proportional to
/// `1 / k^s`.
#[derive(Debug, Clone)]
pub(crate) struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Create a sampler over `[1..=n]` with exponent `s`.
    ///
    /// `n` is clamped to at least 1; `s ≤ 0` degenerates to uniform.
    pub(crate) fn new(n: u64, s: f64) -> Self {
        #[cfg(test)]
        TABLES_BUILT.with(|built| built.set(built.get() + 1));
        let n = n.max(1) as usize;
        let s = s.max(0.0);
        let mut weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        for w in &mut weights {
            acc += *w / total;
            *w = acc;
        }
        // Guard against floating-point drift: the last entry must reach 1.0.
        if let Some(last) = weights.last_mut() {
            *last = 1.0;
        }
        ZipfSampler { cdf: weights }
    }

    /// Number of distinct values.
    #[cfg(test)]
    fn domain_size(&self) -> usize {
        self.cdf.len()
    }

    /// Draw one value in `[1..=n]`.
    pub(crate) fn sample(&self, rng: &mut impl Rng) -> u64 {
        let u: f64 = rng.gen();
        #[expect(
            clippy::expect_used,
            reason = "INVARIANT: the CDF is built from finite weights, so the comparison is total."
        )]
        match self
            .cdf
            .binary_search_by(|p| p.partial_cmp(&u).expect("CDF contains NaN"))
        {
            Ok(idx) => idx as u64 + 1,
            Err(idx) => (idx.min(self.cdf.len() - 1)) as u64 + 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn values_in_domain() {
        let z = ZipfSampler::new(10, 1.0);
        assert_eq!(z.domain_size(), 10);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1_000 {
            let v = z.sample(&mut rng);
            assert!((1..=10).contains(&v));
        }
    }

    #[test]
    fn rank_one_is_most_frequent() {
        let z = ZipfSampler::new(100, 1.0);
        let mut rng = StdRng::seed_from_u64(8);
        let mut counts = [0u32; 101];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        assert!(counts[1] > counts[2]);
        assert!(counts[2] > counts[10]);
        assert!(counts[1] > counts[50] * 5);
    }

    #[test]
    fn zero_exponent_is_roughly_uniform() {
        let z = ZipfSampler::new(4, 0.0);
        let mut rng = StdRng::seed_from_u64(9);
        let mut counts = [0u32; 5];
        for _ in 0..40_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        for (k, &count) in counts.iter().enumerate().skip(1) {
            let share = count as f64 / 40_000.0;
            assert!((share - 0.25).abs() < 0.02, "value {k} share {share}");
        }
    }

    #[test]
    fn degenerate_domain() {
        let z = ZipfSampler::new(0, 1.5);
        assert_eq!(z.domain_size(), 1);
        let mut rng = StdRng::seed_from_u64(10);
        assert_eq!(z.sample(&mut rng), 1);
    }

    #[test]
    fn negative_exponent_clamped() {
        let z = ZipfSampler::new(5, -3.0);
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..100 {
            assert!((1..=5).contains(&z.sample(&mut rng)));
        }
    }
}
