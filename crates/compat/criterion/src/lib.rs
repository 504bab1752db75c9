//! Offline, API-compatible subset of [criterion](https://docs.rs/criterion).
//!
//! Implements the slice of the criterion 0.5 surface the workspace's bench
//! uses — [`Criterion`], [`criterion_group!`], [`criterion_main!`],
//! benchmark groups, [`Bencher::iter_batched`] and [`BatchSize`] — measuring
//! simple wall-clock statistics (mean / min / max per sample) and printing
//! them to stdout.
//!
//! Sample counts are intentionally small so `cargo test` (which executes
//! `harness = false` bench targets) stays fast; `cargo bench` runs the same
//! code. Set `CRITERION_SAMPLES` to override the per-benchmark sample count.

use std::time::{Duration, Instant};

/// How batched inputs are grouped per measurement (accepted for
/// compatibility; the stub times one routine call per sample regardless).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Large per-iteration inputs.
    LargeInput,
}

/// The benchmark driver handed to registered bench functions.
#[derive(Debug)]
pub struct Criterion {
    samples: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        let samples = std::env::var("CRITERION_SAMPLES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(5);
        Criterion { samples }
    }
}

impl Criterion {
    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            samples: self.samples,
            _criterion: self,
        }
    }
}

/// A named set of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    name: String,
    samples: usize,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Set the number of samples for benchmarks in this group.
    pub fn sample_size(&mut self, samples: usize) -> &mut Self {
        self.samples = samples.max(1);
        self
    }

    /// Run one benchmark within the group.
    pub fn bench_function<F>(&mut self, label: impl AsRef<str>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_benchmark(
            &format!("{}/{}", self.name, label.as_ref()),
            self.samples,
            f,
        );
        self
    }

    /// Close the group.
    pub fn finish(self) {}
}

fn run_benchmark<F>(name: &str, samples: usize, mut f: F)
where
    F: FnMut(&mut Bencher),
{
    // Under `cargo test` the bench binary is executed too; keep that cheap
    // by collapsing to a single sample when the harness passes `--test`.
    let test_mode = std::env::args().any(|a| a == "--test");
    let samples = if test_mode { 1 } else { samples };
    let mut bencher = Bencher {
        durations: Vec::with_capacity(samples),
        samples,
    };
    f(&mut bencher);
    let durations = &bencher.durations;
    if durations.is_empty() {
        println!("{name}: no measurements");
        return;
    }
    let total: Duration = durations.iter().sum();
    let mean = total / durations.len() as u32;
    let min = durations.iter().min().unwrap();
    let max = durations.iter().max().unwrap();
    println!(
        "{name}: mean {mean:?} (min {min:?}, max {max:?}, {} samples)",
        durations.len()
    );
}

/// Times closures handed to it by a benchmark function.
#[derive(Debug)]
pub struct Bencher {
    durations: Vec<Duration>,
    samples: usize,
}

impl Bencher {
    /// Measure a routine with untimed per-sample setup.
    pub fn iter_batched<I, O>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> O,
        _size: BatchSize,
    ) {
        for _ in 0..self.samples {
            let input = setup();
            #[expect(
                clippy::disallowed_methods,
                reason = "a benchmark harness measures wall-clock time"
            )]
            let start = Instant::now();
            let out = routine(input);
            self.durations.push(start.elapsed());
            drop(out);
        }
    }
}

/// Bundle bench functions into a callable group, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Emit a `main` that runs the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_runs_setup_per_sample() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("g");
        group.sample_size(4);
        let mut setups = 0;
        let mut runs = 0;
        group.bench_function("demo", |b| {
            b.iter_batched(
                || {
                    setups += 1;
                    vec![1u8; 8]
                },
                |v| {
                    runs += 1;
                    v.len()
                },
                BatchSize::LargeInput,
            )
        });
        group.finish();
        assert_eq!(setups, 4);
        assert_eq!(runs, 4);
    }
}
