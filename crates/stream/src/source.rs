//! Per-source workload parameters.

use crate::skew::ZipfSampler;
use jit_types::Value;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The distribution a source draws its column values from.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ValueDomain {
    /// Uniform integers in `[1..=max]` — the paper's default.
    Uniform {
        /// Largest value (the paper's `dmax`).
        max: u64,
    },
    /// Zipf-distributed integers in `[1..=max]` with the given exponent —
    /// a skew extension beyond the paper (hot values appear often).
    Zipf {
        /// Largest value.
        max: u64,
        /// Skew exponent (`s > 0`); larger means more skew.
        exponent: f64,
    },
}

impl ValueDomain {
    /// The uniform domain `[1..=dmax]`.
    pub fn uniform(dmax: u64) -> Self {
        ValueDomain::Uniform { max: dmax }
    }

    /// The largest value of the domain.
    pub fn max(&self) -> u64 {
        match self {
            ValueDomain::Uniform { max } => *max,
            ValueDomain::Zipf { max, .. } => *max,
        }
    }

    /// Draw one value. A Zipf draw builds the domain's O(`max`) table each
    /// time: fine for one value, not for a trace.
    pub fn sample(&self, rng: &mut impl Rng) -> Value {
        DomainSampler::new(*self).sample(rng)
    }
}

/// A [`ValueDomain`] ready to draw from. A Zipf domain's prefix-sum table
/// costs O(`max`) to build, so whoever draws many values builds the sampler
/// once, not [`ValueDomain::sample`]'s one per value.
#[derive(Debug, Clone)]
pub(crate) enum DomainSampler {
    Uniform { max: u64 },
    Zipf(ZipfSampler),
}

impl DomainSampler {
    pub(crate) fn new(domain: ValueDomain) -> Self {
        match domain {
            ValueDomain::Uniform { max } => DomainSampler::Uniform { max },
            ValueDomain::Zipf { max, exponent } => {
                DomainSampler::Zipf(ZipfSampler::new(max, exponent))
            }
        }
    }

    /// Draw one value.
    pub(crate) fn sample(&self, rng: &mut impl Rng) -> Value {
        match self {
            DomainSampler::Uniform { max } => Value::int(rng.gen_range(1..=(*max).max(1)) as i64),
            DomainSampler::Zipf(table) => Value::int(table.sample(rng) as i64),
        }
    }
}

/// Parameters of one streaming source.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SourceSpec {
    /// Human-readable name (matches the catalog entry).
    pub name: String,
    /// Mean arrival rate in tuples per second (the paper's `λ`).
    pub rate_per_sec: f64,
    /// Number of columns each tuple carries.
    pub num_columns: usize,
    /// Value domain, per column index. If a column has no entry the
    /// `default_domain` is used.
    pub column_domains: Vec<Option<ValueDomain>>,
    /// Default value domain for columns without an override.
    pub default_domain: ValueDomain,
}

impl SourceSpec {
    /// A source with uniform values in `[1..=dmax]` on every column.
    pub fn uniform(
        name: impl Into<String>,
        rate_per_sec: f64,
        num_columns: usize,
        dmax: u64,
    ) -> Self {
        SourceSpec {
            name: name.into(),
            rate_per_sec,
            num_columns,
            column_domains: vec![None; num_columns],
            default_domain: ValueDomain::uniform(dmax),
        }
    }

    /// Override the domain of every column (used by the left-deep setup where
    /// the last source draws from `[1..100·dmax]`).
    pub fn with_domain(mut self, domain: ValueDomain) -> Self {
        self.default_domain = domain;
        self
    }

    /// Override the domain of a single column.
    #[cfg(test)]
    fn with_column_domain(mut self, column: usize, domain: ValueDomain) -> Self {
        if column < self.column_domains.len() {
            self.column_domains[column] = Some(domain);
        }
        self
    }

    /// The effective domain of a column.
    #[cfg(test)]
    fn domain_of(&self, column: usize) -> ValueDomain {
        self.column_domains
            .get(column)
            .copied()
            .flatten()
            .unwrap_or(self.default_domain)
    }

    /// Draw the column values for one tuple. Builds the source's samplers
    /// for this one draw; the generator keeps them for the whole source.
    pub fn sample_values(&self, rng: &mut impl Rng) -> Vec<Value> {
        self.sampler().sample_values(rng)
    }

    /// The source's samplers: one for the default domain, one more per
    /// overridden column.
    pub(crate) fn sampler(&self) -> SourceSampler {
        let overridden = |c: usize| self.column_domains.get(c).copied().flatten();
        SourceSampler {
            default: DomainSampler::new(self.default_domain),
            columns: (0..self.num_columns)
                .map(|c| overridden(c).map(DomainSampler::new))
                .collect(),
        }
    }
}

/// What [`SourceSpec::sampler`] builds, once per source.
#[derive(Debug, Clone)]
pub(crate) struct SourceSampler {
    /// Sampler of [`SourceSpec::default_domain`].
    pub(crate) default: DomainSampler,
    /// Per column, the sampler of its override if it has one.
    columns: Vec<Option<DomainSampler>>,
}

impl SourceSampler {
    /// Draw the column values for one tuple, column by column.
    pub(crate) fn sample_values(&self, rng: &mut impl Rng) -> Vec<Value> {
        let columns = self.columns.iter();
        columns
            .map(|c| c.as_ref().unwrap_or(&self.default).sample(rng))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_values_stay_in_range() {
        let dom = ValueDomain::uniform(50);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1_000 {
            let v = dom.sample(&mut rng).as_int().unwrap();
            assert!((1..=50).contains(&v));
        }
        assert_eq!(dom.max(), 50);
    }

    #[test]
    fn uniform_with_max_one_is_constant() {
        let dom = ValueDomain::uniform(1);
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(dom.sample(&mut rng), Value::int(1));
    }

    #[test]
    fn zipf_values_stay_in_range_and_prefer_small() {
        let dom = ValueDomain::Zipf {
            max: 100,
            exponent: 1.2,
        };
        let mut rng = StdRng::seed_from_u64(3);
        let mut small = 0;
        for _ in 0..2_000 {
            let v = dom.sample(&mut rng).as_int().unwrap();
            assert!((1..=100).contains(&v));
            if v <= 10 {
                small += 1;
            }
        }
        // With exponent 1.2, well over half the mass sits on the 10 smallest values.
        assert!(small > 1_000, "small-value count {small}");
    }

    #[test]
    fn source_spec_samples_right_arity() {
        let spec = SourceSpec::uniform("A", 1.0, 3, 200);
        let mut rng = StdRng::seed_from_u64(4);
        let vals = spec.sample_values(&mut rng);
        assert_eq!(vals.len(), 3);
        for v in vals {
            assert!((1..=200).contains(&v.as_int().unwrap()));
        }
    }

    #[test]
    fn per_column_override_applies() {
        let spec =
            SourceSpec::uniform("D", 1.0, 2, 50).with_column_domain(1, ValueDomain::uniform(5_000));
        assert_eq!(spec.domain_of(0).max(), 50);
        assert_eq!(spec.domain_of(1).max(), 5_000);
        // out-of-range column override is ignored
        let spec2 =
            SourceSpec::uniform("D", 1.0, 2, 50).with_column_domain(9, ValueDomain::uniform(5_000));
        assert_eq!(spec2.domain_of(0).max(), 50);
    }

    /// The samplers a generator keeps draw what `sample_values` draws, and a
    /// Zipf override costs its source one table more, not one per value.
    #[test]
    fn source_sampler_honours_overrides_and_builds_each_table_once() {
        use crate::skew::TABLES_BUILT;
        let zipf = |max| ValueDomain::Zipf { max, exponent: 1.1 };
        let spec = SourceSpec::uniform("D", 1.0, 3, 50)
            .with_domain(zipf(40))
            .with_column_domain(1, zipf(5_000));
        let before = TABLES_BUILT.with(|built| built.get());
        let sampler = spec.sampler();
        let mut rng = StdRng::seed_from_u64(5);
        let rows: Vec<_> = (0..500).map(|_| sampler.sample_values(&mut rng)).collect();
        assert_eq!(TABLES_BUILT.with(|built| built.get()) - before, 2);
        let mut rng = StdRng::seed_from_u64(5);
        assert!(rows.iter().all(|row| *row == spec.sample_values(&mut rng)));
        let max_of = |c: usize| rows.iter().map(|row| row[c].as_int().unwrap()).max();
        assert!(max_of(0) <= Some(40) && max_of(2) <= Some(40));
        assert!(max_of(1) > Some(40), "column 1 draws from the override");
    }

    #[test]
    fn whole_source_override_applies() {
        let spec = SourceSpec::uniform("D", 1.0, 2, 50).with_domain(ValueDomain::uniform(5_000));
        assert_eq!(spec.domain_of(0).max(), 5_000);
        assert_eq!(spec.domain_of(1).max(), 5_000);
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let spec = SourceSpec::uniform("A", 1.0, 4, 300);
        let a: Vec<_> = {
            let mut rng = StdRng::seed_from_u64(99);
            (0..10).map(|_| spec.sample_values(&mut rng)).collect()
        };
        let b: Vec<_> = {
            let mut rng = StdRng::seed_from_u64(99);
            (0..10).map(|_| spec.sample_values(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
