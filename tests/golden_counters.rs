//! Golden counters: "nothing observable moved" as a test, not a paragraph.
//!
//! `tests/fixtures/golden_counters.txt` holds, for every configuration of
//! the matrix below, a hash of the result multiset plus the deterministic
//! part of the `MetricsSnapshot` (`stats`, `cost_units`,
//! `steady_cost_units`, `peak_memory_bytes`). A change that is supposed to
//! leave behaviour alone must pass against the committed file unchanged; a
//! change that deliberately moves a counter lists the fields it means to
//! move in [`REPIN_MAY_MOVE`], regenerates the file and shows the old → new
//! table that prints:
//!
//! `cargo test --test golden_counters -- --ignored regenerate --nocapture`

use jit_dsms::prelude::*;
use std::path::PathBuf;

mod support {
    pub(crate) mod oracle;
}
use support::oracle;

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

/// One workload of the matrix: its spec, its trace, and its configurations
/// as `(label, builder)` pairs.
type Workload = (WorkloadSpec, Trace, Vec<(String, EngineBuilder)>);

/// The whole matrix, in a fixed order.
fn grid() -> Vec<Workload> {
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
    let mut configs = Vec::new();
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
                configs.push((label, builder));
            }
        }
    }
    let clique_trace = WorkloadGenerator::generate(&clique);

    // The key-partitionable shared-key workload, single-threaded and on two
    // shards.
    let shared = WorkloadSpec::bushy_default()
        .with_sources(3)
        .with_dmax(40)
        .with_shared_key()
        .with_rate(1.0)
        .with_window_minutes(1.0)
        .with_duration(Duration::from_secs(240))
        .with_seed(43);
    let shape = PlanShape::bushy(3);
    let mut shared_configs = Vec::new();
    for (mode_label, mode) in modes() {
        for (index_label, index) in index_modes {
            let single = Engine::builder()
                .workload(&shared, &shape)
                .mode(mode)
                .state_index(index);
            let sharded = single.clone().sharded(RuntimeConfig::with_shards(2));
            for (backend_label, builder) in [("single", single), ("2shards", sharded)] {
                let label = format!("sharedkey/bushy3/{mode_label}/{index_label}/{backend_label}");
                shared_configs.push((label, builder));
            }
        }
    }
    let shared_trace = WorkloadGenerator::generate(&shared);
    vec![
        (clique, clique_trace, configs),
        (shared, shared_trace, shared_configs),
    ]
}

/// The whole matrix, one line per configuration, in a fixed order.
fn dump() -> String {
    let mut out = String::new();
    for (_, trace, configs) in grid() {
        for (label, builder) in configs {
            out.push_str(&line(&label, builder, &trace));
        }
    }
    out
}

/// The fields the latest deliberate re-pin may move (PR 17, demand-driven
/// detection: a port stops detecting, buffering and reporting MNSs its
/// producer cannot act on). Everything else — `results`, `hash`,
/// `probe_pairs`, `predicate_evals`, `intermediate_*`, `blacklisted_tuples`,
/// `resumed_tuples`, … — is protected: `regenerate` refuses to write a file
/// in which one of those moved. A PR that re-pins edits these lists first.
const REPIN_MAY_MOVE: &[&str] = &[
    "mns_detected",
    "feedback_suspend",
    "feedback_resume",
    "mns_buffer_probes",
    "lattice_nodes_visited",
    "bloom_checks",
    "purged_tuples",
    "tasks_executed",
    "cost_units",
    "steady_cost_units",
    "peak_memory_bytes",
];

/// Protected fields the same re-pin may move, in the named configurations
/// only. Under `Hashed` state a lattice node is settled by a membership
/// probe, and a hit on a node spanning both producer inputs used to settle
/// its one-sided sub-nodes for free; a join-fed port no longer holds
/// spanning nodes, so on the one left-deep full-lattice configuration some
/// sub-nodes take a probe of their own (and the spanning probes'
/// evaluations are gone). Bushy N ≤ 4 ports have no spanning node below the
/// top one and `Scan` settles by observation, so nothing else may follow.
const REPIN_MAY_MOVE_IN: &[(&str, &[&str])] = &[(
    "clique/leftdeep4/jit-full/hashed/single",
    &["probe_pairs", "predicate_evals"],
)];

fn may_move(label: &str, field: &str) -> bool {
    REPIN_MAY_MOVE.contains(&field)
        || REPIN_MAY_MOVE_IN
            .iter()
            .any(|(config, fields)| *config == label && fields.contains(&field))
}

/// A golden line as its configuration label and `(field, value)` pairs:
/// `field=value` before the statistics, `field: value` inside them.
fn fields(line: &str) -> (&str, Vec<(&str, &str)>) {
    let (label, rest) = line.split_once(' ').unwrap_or((line, ""));
    let mut tokens = rest.split([' ', ',']).filter(|token| !token.is_empty());
    let mut pairs = Vec::new();
    while let Some(token) = tokens.next() {
        if let Some(pair) = token.split_once('=') {
            pairs.push(pair);
        } else if let Some(field) = token.strip_suffix(':') {
            pairs.push((field, tokens.next().unwrap_or("")));
        }
    }
    (label, pairs)
}

/// What differs between two dumps: per configuration the fields whose value
/// moved, `old -> new`, one line each; a field the re-pin lists do not
/// cover is flagged. The second value says whether any flagged field moved.
fn moved_fields(old: &str, new: &str) -> (String, bool) {
    let mut report = String::new();
    let mut protected_moved = false;
    let (mut old_lines, mut new_lines) = (old.lines(), new.lines());
    loop {
        let (expected, current) = match (old_lines.next(), new_lines.next()) {
            (None, None) => break,
            (a, b) => (a.unwrap_or(""), b.unwrap_or("")),
        };
        if expected == current {
            continue;
        }
        let ((old_label, old_fields), (new_label, new_fields)) =
            (fields(expected), fields(current));
        if old_label != new_label || old_fields.len() != new_fields.len() {
            report.push_str(&format!("configuration `{old_label}` -> `{new_label}`\n"));
            protected_moved = true;
            continue;
        }
        report.push_str(&format!("{new_label}\n"));
        for ((field, was), (_, is)) in old_fields.iter().zip(&new_fields) {
            if was != is {
                let allowed = may_move(new_label, field);
                protected_moved |= !allowed;
                let flag = if allowed { "" } else { "   <-- PROTECTED" };
                report.push_str(&format!("    {field}: {was} -> {is}{flag}\n"));
            }
        }
    }
    (report, protected_moved)
}

fn read_golden() -> String {
    let path = golden_path();
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

#[test]
fn counters_and_results_match_the_golden_file() {
    let (report, _) = moved_fields(&read_golden(), &dump());
    assert!(
        report.is_empty(),
        "observables moved (golden file -> this build):\n{report}"
    );
}

/// ROADMAP item 3, step 0: on every configuration of the matrix, the
/// results whose parts lie within one window of each other (span < `w`)
/// are, by identity and multiplicity, those of the naive nested-loop join
/// in `tests/support/oracle.rs`. The engine also emits results of span
/// `≥ w` (ROADMAP item 2); they are left out of the comparison here.
#[test]
fn in_window_results_equal_the_oracle_on_every_configuration() {
    for (spec, trace, configs) in grid() {
        let window = spec.window().length;
        let answer = oracle::window_join(&trace, &spec.predicates(), spec.num_sources, window);
        let expected = oracle::identities(&answer);
        assert!(!expected.is_empty());
        for (label, builder) in configs {
            let outcome = builder.build().expect("engine builds").run_trace(&trace);
            let results = outcome.expect("trace runs").results;
            let in_window = results.iter().filter(|t| oracle::within_window(t, window));
            let (missing, extra) = oracle::difference(&expected, &oracle::identities(in_window));
            assert!(
                missing.is_empty() && extra.is_empty(),
                "{label}: {} oracle results missing, {} extra; first missing {:?}, first extra {:?}",
                missing.len(),
                extra.len(),
                missing.first(),
                extra.first(),
            );
        }
    }
}

#[test]
fn field_diff_names_only_what_moved_and_flags_protected_fields() {
    let old = "a/b results=1 hash=00ff cost_units=10 ExecStats { probe_pairs: 5, mns_detected: 7 }\n\
               c/d results=2 hash=00aa cost_units=20 ExecStats { probe_pairs: 6, mns_detected: 8 }\n";
    let new = old
        .replace("cost_units=10", "cost_units=9")
        .replace("mns_detected: 7", "mns_detected: 0");
    let (report, protected_moved) = moved_fields(old, &new);
    assert_eq!(
        report,
        "a/b\n    cost_units: 10 -> 9\n    mns_detected: 7 -> 0\n"
    );
    assert!(!protected_moved);
    let (report, protected_moved) =
        moved_fields(old, &old.replace("probe_pairs: 6", "probe_pairs: 4"));
    assert_eq!(report, "c/d\n    probe_pairs: 6 -> 4   <-- PROTECTED\n");
    assert!(protected_moved);
    assert!(
        moved_fields(old, "a/b results=1\n").1,
        "a lost line is a protected move"
    );
}

/// No statistic that nothing counts: every `ExecStats` field is non-zero in
/// at least one committed configuration. A counter that no code path
/// increments any more fails here rather than riding along as a column of
/// zeros in every line.
#[test]
fn every_exec_stats_field_counts_in_some_configuration() {
    let zeros = format!("stats {:?}", jit_metrics::ExecStats::default());
    let (_, all) = fields(&zeros);
    assert!(all.len() >= 20, "{all:?}");
    let golden = read_golden();
    let lines: Vec<_> = golden.lines().map(|line| fields(line).1).collect();
    let counted = |field| lines.iter().flatten().any(|&(f, v)| f == field && v != "0");
    let never: Vec<_> = all.iter().filter(|(field, _)| !counted(*field)).collect();
    assert!(never.is_empty(), "zero in every configuration: {never:?}");
}

/// A data message is its tuple and nothing else.
#[test]
fn a_data_message_is_only_its_tuple() {
    use jit_exec::operator::DataMessage;
    assert_eq!(
        std::mem::size_of::<DataMessage>(),
        std::mem::size_of::<Tuple>()
    );
}

#[test]
#[ignore = "rewrites tests/fixtures/golden_counters.txt from this build"]
fn regenerate() {
    let new = dump();
    let (report, protected_moved) = moved_fields(&read_golden(), &new);
    println!("moved (old -> new):\n{report}");
    assert!(
        !protected_moved,
        "a protected field moved; golden file left untouched"
    );
    std::fs::write(golden_path(), new).expect("golden file writes");
}
