//! Golden counters: "nothing observable moved" as a test, not a paragraph.
//!
//! `tests/fixtures/golden_counters.txt` holds, for every configuration of
//! the matrix below, a hash of the result multiset plus the deterministic
//! part of the `MetricsSnapshot` (`stats`, `cost_units`,
//! `steady_cost_units`, `peak_memory_bytes`). A change that is supposed to
//! leave behaviour alone must pass against the committed file unchanged; a
//! change that deliberately moves a counter regenerates the file and shows
//! the old → new lines in its diff:
//!
//! `cargo test --test golden_counters -- --ignored regenerate`

use jit_dsms::prelude::*;
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_counters.txt")
}

fn modes() -> [(&'static str, ExecutionMode); 4] {
    [
        ("ref", ExecutionMode::Ref),
        ("doe", ExecutionMode::Doe),
        ("jit-full", ExecutionMode::Jit(JitPolicy::full())),
        ("jit-bloom", ExecutionMode::Jit(JitPolicy::bloom())),
    ]
}

/// FNV-1a over the sorted result identities: equal multisets hash equal
/// whatever order the backend emitted them in, and the value is stable
/// across toolchains (unlike `DefaultHasher`).
fn multiset_hash(results: &[Tuple]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for (key, count) in output::result_multiset(results) {
        for byte in format!("{key}x{count};").bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

fn line(label: &str, builder: EngineBuilder, trace: &Trace) -> String {
    let outcome = builder
        .build()
        .expect("engine builds")
        .run_trace(trace)
        .expect("trace runs");
    let snap = &outcome.snapshot;
    format!(
        "{label} results={} hash={:016x} cost_units={} steady_cost_units={} peak_memory_bytes={} {:?}\n",
        outcome.results_count,
        multiset_hash(&outcome.results),
        snap.cost_units,
        snap.steady_cost_units,
        snap.peak_memory_bytes,
        snap.stats,
    )
}

/// The whole matrix, one line per configuration, in a fixed order.
fn dump() -> String {
    let mut out = String::new();
    let index_modes = [
        ("hashed", StateIndexMode::Hashed),
        ("scan", StateIndexMode::Scan),
    ];

    // The paper's clique-join workload on both Table-II tree shapes.
    let clique = WorkloadSpec::bushy_default()
        .with_sources(4)
        .with_rate(1.0)
        .with_dmax(12)
        .with_window_minutes(1.0)
        .with_duration(Duration::from_secs(200))
        .with_seed(41);
    let trace = WorkloadGenerator::generate(&clique);
    for (shape_label, shape) in [
        ("bushy4", PlanShape::bushy(4)),
        ("leftdeep4", PlanShape::left_deep(4)),
    ] {
        for (mode_label, mode) in modes() {
            for (index_label, index) in index_modes {
                let builder = Engine::builder()
                    .workload(&clique, &shape)
                    .mode(mode)
                    .state_index(index);
                let label = format!("clique/{shape_label}/{mode_label}/{index_label}/single");
                out.push_str(&line(&label, builder, &trace));
            }
        }
    }

    // The key-partitionable shared-key workload, single-threaded and on two
    // shards.
    let shared = parallel_workload(3, 40)
        .with_rate(1.0)
        .with_window_minutes(1.0)
        .with_duration(Duration::from_secs(240))
        .with_seed(43);
    let trace = WorkloadGenerator::generate(&shared);
    let shape = PlanShape::bushy(3);
    for (mode_label, mode) in modes() {
        for (index_label, index) in index_modes {
            let single = Engine::builder()
                .workload(&shared, &shape)
                .mode(mode)
                .state_index(index);
            let sharded = single.clone().sharded(RuntimeConfig::with_shards(2));
            for (backend_label, builder) in [("single", single), ("2shards", sharded)] {
                let label = format!("sharedkey/bushy3/{mode_label}/{index_label}/{backend_label}");
                out.push_str(&line(&label, builder, &trace));
            }
        }
    }
    out
}

#[test]
fn counters_and_results_match_the_golden_file() {
    let path = golden_path();
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let actual = dump();
    let mut golden_lines = golden.lines();
    for current in actual.lines() {
        let expected = golden_lines.next().unwrap_or("<no such line>");
        assert_eq!(
            current, expected,
            "an observable moved (left: this build, right: golden file)"
        );
    }
    assert_eq!(golden_lines.next(), None, "golden file has extra lines");
}

#[test]
#[ignore = "rewrites tests/fixtures/golden_counters.txt from this build"]
fn regenerate() {
    std::fs::write(golden_path(), dump()).expect("golden file writes");
}
