//! The five named workloads: what each runs, why it exists, and how its
//! inputs are made from the seed.
//!
//! Sizes are set so one max-rate replay takes about two seconds on the
//! 2-core box at the commit that introduced the benchmark. The paced rates
//! sit at about half of that commit's `throughput_tps`; only a benchmark
//! change may move either.

use crate::target::{EngineTarget, ServeTarget, Target};
use jit_core::policy::{ExecutionMode, JitPolicy};
use jit_engine::{DisorderPolicy, Engine, EngineBuilder};
use jit_plan::shapes::PlanShape;
use jit_runtime::RuntimeConfig;
use jit_stream::{ArrivalEvent, DisorderSpec, WorkloadGenerator, WorkloadSpec};
use jit_types::{BaseTuple, BatchPolicy, Catalog, Duration, SourceId, Timestamp, Value};
use std::sync::Arc;

/// One named workload.
pub struct Workload {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// One-line rationale, as listed in `BENCHMARK.json`.
    pub why: &'static str,
    /// Arrival rate of the open-loop replay, arrivals per wall second.
    pub paced_rate_tps: f64,
    /// Worker threads the system under test runs beside the caller.
    pub workers: usize,
    /// Make the inputs and the system under test from a seed.
    pub prepare: fn(u64) -> Prepared,
}

/// A workload instantiated for one seed.
pub struct Prepared {
    /// The system under test.
    pub target: Box<dyn Target>,
    /// The arrivals, in push order.
    pub arrivals: Vec<ArrivalEvent>,
    /// What the layer drives and the reference run need to know.
    pub kind: Kind,
}

/// The two kinds of system under test.
pub enum Kind {
    /// One engine running one synthetic join workload.
    Engine(EngineSetup),
    /// A serving registry over a CQL query family.
    Serve(ServeSetup),
}

/// Configuration of an engine workload.
pub struct EngineSetup {
    /// The synthetic workload (sources, rates, window, domain, seed).
    pub spec: WorkloadSpec,
    /// The plan shape.
    pub shape: PlanShape,
    /// REF or JIT.
    pub mode: ExecutionMode,
    /// `Some` on the sharded backend.
    pub runtime: Option<RuntimeConfig>,
    /// Columnar batching of the data plane.
    pub batch: BatchPolicy,
    /// Lateness bound when the arrivals are disordered.
    pub lateness: Option<Duration>,
    /// The timestamp-ordered trace when `arrivals` is a disordered copy of
    /// it (empty otherwise: the arrivals are already in order).
    pub in_order: Vec<ArrivalEvent>,
}

impl EngineSetup {
    /// The workload's own engine configuration.
    pub fn builder(&self) -> EngineBuilder {
        let mut builder = self
            .reference_builder()
            .mode(self.mode)
            .batch_policy(self.batch);
        if let Some(runtime) = &self.runtime {
            builder = builder.sharded(runtime.clone());
        }
        if let Some(lateness) = self.lateness {
            builder = builder.disorder(DisorderPolicy::Bounded(lateness));
        }
        builder
    }

    /// The reference configuration of the same query: REF, single-threaded,
    /// one row per flush, strict arrival order.
    pub fn reference_builder(&self) -> EngineBuilder {
        Engine::builder().workload(&self.spec, &self.shape)
    }

    /// The workload's configuration on the single-threaded backend (what a
    /// sharded run is compared against).
    pub fn single_threaded_builder(&self) -> EngineBuilder {
        self.builder().single_threaded()
    }
}

/// Configuration of the serving workload.
pub struct ServeSetup {
    /// Global source catalog.
    pub catalog: Catalog,
    /// Every registered query, in registration order.
    pub queries: Vec<String>,
    /// Indices into `queries` whose results are checked and timed.
    pub sentinels: Vec<usize>,
}

const SHAREDKEY_WHY: &str = "single-threaded REF baseline job: exec and the engine per-push \
    path do all the work, so JIT, sharding and serving changes must leave it unmoved";
const SHAREDKEY_JIT_WHY: &str = "same query under JIT with sparse matches: nearly every arrival \
    is an MNS, so core does over 95% of the work (the JIT wall-clock gap)";
const BUSHY_JIT_WHY: &str = "bushy N=4 clique join under JIT: suppression acts on real \
    intermediate results against large multi-column states, non-empty result set";
const SHARDED_WHY: &str = "cheap REF join on 2 shards with 5% late arrivals: coalescing, \
    reorder, routing, shard channels, merge and batch kernels dominate";
const SERVE_WHY: &str = "1000 overlapping CQL queries on one registry: routing, selection \
    index, state cache and fan-out dominate, the joins themselves are cheap";

/// Every workload, in reporting order.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "sharedkey_ref",
        why: SHAREDKEY_WHY,
        paced_rate_tps: 550_000.0,
        workers: 0,
        prepare: sharedkey_ref,
    },
    Workload {
        name: "sharedkey_jit",
        why: SHAREDKEY_JIT_WHY,
        paced_rate_tps: 15_500.0,
        workers: 0,
        prepare: sharedkey_jit,
    },
    Workload {
        name: "bushy_jit",
        why: BUSHY_JIT_WHY,
        paced_rate_tps: 6_000.0,
        workers: 0,
        prepare: bushy_jit,
    },
    Workload {
        name: "sharded_disorder_ref",
        why: SHARDED_WHY,
        paced_rate_tps: 130_000.0,
        workers: SHARDS,
        prepare: sharded_disorder_ref,
    },
    Workload {
        name: "serve_multiquery",
        why: SERVE_WHY,
        paced_rate_tps: 37_000.0,
        workers: 0,
        prepare: serve_multiquery,
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The 3-source shared-key query every shared-key workload runs: sparse
/// matches (uniform keys in 1..=5000), half-minute windows, 50 arrivals per
/// second and source, Poisson.
fn sharedkey_spec(seed: u64, stream_secs: u64) -> WorkloadSpec {
    WorkloadSpec::bushy_default()
        .with_sources(3)
        .with_shared_key()
        .with_window_minutes(0.5)
        .with_dmax(5000)
        .with_rate(50.0)
        .with_duration(Duration::from_secs(stream_secs))
        .with_seed(seed)
}

fn engine_workload(setup: EngineSetup, arrivals: Vec<ArrivalEvent>) -> Prepared {
    Prepared {
        target: Box::new(EngineTarget {
            builder: setup.builder(),
        }),
        arrivals,
        kind: Kind::Engine(setup),
    }
}

fn generate(spec: &WorkloadSpec) -> Vec<ArrivalEvent> {
    WorkloadGenerator::generate(spec).into_iter().collect()
}

fn sharedkey_ref(seed: u64) -> Prepared {
    let spec = sharedkey_spec(seed, 20_000);
    let arrivals = generate(&spec);
    engine_workload(
        EngineSetup {
            spec,
            shape: PlanShape::left_deep(3),
            mode: ExecutionMode::Ref,
            runtime: None,
            batch: BatchPolicy::rows(1),
            lateness: None,
            in_order: Vec::new(),
        },
        arrivals,
    )
}

fn sharedkey_jit(seed: u64) -> Prepared {
    let spec = sharedkey_spec(seed, 470);
    let arrivals = generate(&spec);
    engine_workload(
        EngineSetup {
            spec,
            shape: PlanShape::left_deep(3),
            mode: ExecutionMode::Jit(JitPolicy::full()),
            runtime: None,
            batch: BatchPolicy::rows(1),
            lateness: None,
            in_order: Vec::new(),
        },
        arrivals,
    )
}

fn bushy_jit(seed: u64) -> Prepared {
    // Table III's bushy plan scaled to N = 4: general clique predicates, no
    // shared key, one arrival per second and source. Window and domain are
    // scaled down together (5 min, dmax 25 against the paper's 20 min, 50 at
    // this N) so that about one arrival in ten still completes a result while
    // a checkpoint of the intermediate-result states restores in seconds.
    let spec = WorkloadSpec::bushy_default()
        .with_sources(4)
        .with_dmax(25)
        .with_window_minutes(5.0)
        .with_duration(Duration::from_secs(7_500))
        .with_seed(seed);
    let arrivals = generate(&spec);
    engine_workload(
        EngineSetup {
            spec,
            shape: PlanShape::bushy(4),
            mode: ExecutionMode::Jit(JitPolicy::full()),
            runtime: None,
            batch: BatchPolicy::rows(1),
            lateness: None,
            in_order: Vec::new(),
        },
        arrivals,
    )
}

/// Shards of the sharded workload.
pub const SHARDS: usize = 2;

fn sharded_disorder_ref(seed: u64) -> Prepared {
    let spec = sharedkey_spec(seed, 4_400);
    let trace = WorkloadGenerator::generate(&spec);
    // 5% of the arrivals come up to 2 s late; the lateness bound covers the
    // delay, so nothing may be dropped.
    let max_delay = Duration::from_secs(2);
    let arrivals = DisorderSpec::new(0.05, max_delay, seed ^ 0xD150_4DE4).apply(&trace);
    engine_workload(
        EngineSetup {
            spec,
            shape: PlanShape::left_deep(3),
            mode: ExecutionMode::Ref,
            runtime: Some(RuntimeConfig::with_shards(SHARDS)),
            batch: BatchPolicy::rows(1024),
            lateness: Some(max_delay),
            in_order: trace.into_iter().collect(),
        },
        arrivals,
    )
}

/// Registered queries of the serving workload.
pub const SERVE_QUERIES: usize = 1000;

/// The i-th query of `bench_multi_query`'s overlapping family: an A⋈B join
/// on `k`, one of 8 filter thresholds on `A.v`, one of 2 windows — 16
/// distinct pipelines however many queries register.
pub fn serve_query(i: usize) -> String {
    let threshold = 5 * (i % 8);
    let minutes = 1 + (i / 8) % 2;
    format!(
        "SELECT * FROM A [RANGE {minutes} minutes], B [RANGE {minutes} minutes] \
         WHERE A.k = B.k AND A.v > {threshold}"
    )
}

fn serve_multiquery(seed: u64) -> Prepared {
    let mut catalog = Catalog::new();
    catalog.add_source("A", vec!["k".into(), "v".into()]);
    catalog.add_source("B", vec!["k".into(), "v".into()]);
    let queries: Vec<String> = (0..SERVE_QUERIES).map(serve_query).collect();
    // Every 137th query: all 8 thresholds, both windows.
    let sentinels: Vec<usize> = (0..8).map(|i| i * 137).collect();
    let arrivals = serve_stream(seed, 190_000);
    Prepared {
        target: Box::new(ServeTarget {
            catalog: catalog.clone(),
            queries: queries.clone(),
            sentinels: sentinels.clone(),
            // Queries 0..16 cover each (threshold, window) pair once.
            distinct: (0..16).collect(),
        }),
        arrivals,
        kind: Kind::Serve(ServeSetup {
            catalog,
            queries,
            sentinels,
        }),
    }
}

/// splitmix64: the seed-to-stream generator of the serving workload.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    crate::stats::mix64(*state)
}

/// A mixed A/B stream: gaps uniform in 1..=399 ms (200 ms mean, as in
/// `bench_multi_query`), keys sparse enough that the joins stay as cheap
/// as the shared-key workloads', values uniform in 0..100.
fn serve_stream(seed: u64, n: usize) -> Vec<ArrivalEvent> {
    let mut state = seed;
    let mut seqs = [0u64; 2];
    let mut now_ms = 0u64;
    (0..n)
        .map(|_| {
            let r = splitmix(&mut state);
            let source = (r & 1) as usize;
            let k = ((r >> 1) % 5000) as i64;
            let v = ((r >> 20) % 100) as i64;
            now_ms += 1 + (r >> 40) % 399;
            let seq = seqs[source];
            seqs[source] += 1;
            let ts = Timestamp::from_millis(now_ms);
            let id = SourceId(source as u16);
            ArrivalEvent {
                ts,
                source: id,
                tuple: Arc::new(BaseTuple::new(
                    id,
                    seq,
                    ts,
                    vec![Value::int(k), Value::int(v)],
                )),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_stream_is_a_function_of_the_seed() {
        let a = serve_stream(7, 500);
        assert_eq!(a, serve_stream(7, 500));
        assert_ne!(a, serve_stream(8, 500));
        assert!(a.windows(2).all(|w| w[0].ts < w[1].ts));
    }

    #[test]
    fn serve_family_has_sixteen_distinct_queries() {
        let distinct: std::collections::BTreeSet<String> =
            (0..SERVE_QUERIES).map(serve_query).collect();
        assert_eq!(distinct.len(), 16);
        let first: std::collections::BTreeSet<String> = (0..16).map(serve_query).collect();
        assert_eq!(first, distinct);
    }

    #[test]
    fn workload_names_are_unique_and_findable() {
        for w in &WORKLOADS {
            assert_eq!(find(w.name).map(|f| f.name), Some(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        assert!(find("nope").is_none());
    }
}
