//! Parse → engine → results round-trip for CQL constant filters
//! (`A.x > 200`): previously rejected with `Unsupported`, now wired into
//! tree plans as per-source selection operators.

use jit_dsms::prelude::*;
use std::collections::BTreeSet;
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;

fn base(source: u16, seq: u64, ts_ms: u64, val: i64) -> Arc<BaseTuple> {
    Arc::new(BaseTuple::new(
        SourceId(source),
        seq,
        Timestamp::from_millis(ts_ms),
        vec![Value::int(val)],
    ))
}

fn run_query(cql: &str, sharded: bool) -> EngineOutcome {
    let mut builder = Engine::builder().query_cql(cql);
    if sharded {
        // A.x = B.x is key-equality on column 0, statically shardable.
        builder = builder.sharded(RuntimeConfig::with_shards(2));
    }
    let engine = builder.build().expect("filtered CQL builds");
    let mut session = engine.session().expect("session opens");
    // Pairs (A, B) with equal values v = 1..=10 at increasing timestamps:
    // only v > 5 survives the filter, so exactly 5 joins remain.
    for v in 1..=10i64 {
        let ts = v as u64 * 1_000;
        let _ = session.push(SourceId(0), base(0, v as u64, ts, v)).unwrap();
        let _ = session
            .push(SourceId(1), base(1, v as u64, ts + 10, v))
            .unwrap();
    }
    session.finish().expect("run finishes")
}

#[test]
fn filtered_cql_builds_and_filters_results() {
    let cql = "SELECT * FROM A [RANGE 5 minutes], B [RANGE 5 minutes] \
               WHERE A.x = B.x AND A.x > 5";
    let outcome = run_query(cql, false);
    assert_eq!(outcome.results_count, 5);
    for result in &outcome.results {
        assert_eq!(result.num_parts(), 2);
        let a_val = result
            .value(ColumnRef::new(SourceId(0), 0))
            .expect("A component present");
        assert!(*a_val > Value::int(5), "filter must hold on every result");
    }
    // The same query without the filter keeps all ten joins.
    let unfiltered = run_query(
        "SELECT * FROM A [RANGE 5 minutes], B [RANGE 5 minutes] WHERE A.x = B.x",
        false,
    );
    assert_eq!(unfiltered.results_count, 10);
}

#[test]
fn filtered_cql_runs_on_the_sharded_backend() {
    let cql = "SELECT * FROM A [RANGE 5 minutes], B [RANGE 5 minutes] \
               WHERE A.x = B.x AND A.x > 5";
    let single = run_query(cql, false);
    let sharded = run_query(cql, true);
    assert_eq!(single.results_count, sharded.results_count);
    assert_eq!(single.results, sharded.results);
}

#[test]
fn filters_on_both_sources_compose() {
    // A.x > 2 AND B.x < 8 leaves v in 3..=7: five joins.
    let cql = "SELECT * FROM A [RANGE 5 minutes], B [RANGE 5 minutes] \
               WHERE A.x = B.x AND A.x > 2 AND B.x < 8";
    let outcome = run_query(cql, false);
    assert_eq!(outcome.results_count, 5);
}

#[test]
fn filtered_cql_works_in_jit_mode() {
    let cql = "SELECT * FROM A [RANGE 5 minutes], B [RANGE 5 minutes] \
               WHERE A.x = B.x AND A.x > 5";
    let engine = Engine::builder()
        .query_cql(cql)
        .mode(ExecutionMode::Jit(JitPolicy::full()))
        .build()
        .expect("JIT filtered engine builds");
    let mut session = engine.session().unwrap();
    for v in 1..=10i64 {
        let ts = v as u64 * 1_000;
        let _ = session.push(SourceId(0), base(0, v as u64, ts, v)).unwrap();
        let _ = session
            .push(SourceId(1), base(1, v as u64, ts + 10, v))
            .unwrap();
    }
    let outcome = session.finish().unwrap();
    assert_eq!(outcome.results_count, 5);
}

/// Every string literal opening with `SELECT * FROM` (in any case) in this
/// file and in `examples/`, with line continuations resolved.
fn seed_queries() -> BTreeSet<String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let examples = std::fs::read_dir(root.join("examples")).expect("examples/ lists");
    let files = examples.map(|entry| entry.expect("examples/ entry reads").path());
    let mut seeds = BTreeSet::new();
    for file in files.chain([root.join("tests/cql_filters.rs")]) {
        let text = std::fs::read_to_string(file).expect("source file reads");
        // ASCII folding keeps byte offsets, so `folded` indexes `text`.
        let folded = text.to_ascii_uppercase();
        for (at, _) in folded.match_indices("\"SELECT * FROM") {
            let literal = text[at + 1..].split('"').next().unwrap_or_default();
            seeds.insert(literal.split('\\').map(str::trim_start).collect());
        }
    }
    seeds
}

/// `text` and its variants with `ı` or `ſ` (letters whose uppercase has
/// another UTF-8 length) spliced in at every char boundary that does not
/// split an identifier.
fn spliced(text: &str) -> Vec<String> {
    let ident = |c: Option<char>| c.is_some_and(|c| c.is_alphanumeric() || c == '_');
    let mut out = vec![text.to_string()];
    for at in (0..=text.len()).filter(|&at| text.is_char_boundary(at)) {
        let (head, tail) = text.split_at(at);
        if !(ident(head.chars().next_back()) && ident(tail.chars().next())) {
            out.extend(['ı', 'ſ'].map(|c| format!("{head}{c}{tail}")));
        }
    }
    out
}

/// Hostile CQL never panics: every char-boundary prefix of every query in
/// this file and in the examples, spliced with non-ASCII letters, gives a
/// typed error or a working engine and registration.
#[test]
fn cql_entry_points_never_panic() {
    let seeds = seed_queries();
    assert!(seeds.len() >= 10, "{seeds:?}");
    let (mut inputs, mut accepted, mut panics) = (0, 0, Vec::new());
    for seed in &seeds {
        // A registry over the seed's own sources, so its prefixes can register.
        let catalog = parse_cql(seed).map(|query| query.catalog());
        let mut registry = QueryRegistry::new(catalog.unwrap_or_default());
        let ends = (0..=seed.len()).filter(|&end| seed.is_char_boundary(end));
        for text in ends.flat_map(|end| spliced(&seed[..end])) {
            inputs += 1;
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                let engine = Engine::builder().query_cql(text.as_str()).build();
                let query = registry.register(&text);
                if let Ok(qid) = query {
                    registry.deregister(qid).expect("deregisters");
                }
                (engine.is_ok(), query.is_ok())
            }));
            match outcome {
                Ok((true, true)) => accepted += 1,
                Ok(_) => {}
                Err(_) => panics.push(text),
            }
        }
    }
    assert!(panics.is_empty(), "of {inputs}, panicked: {panics:?}");
    // The sweep reaches valid queries, not only early parse errors.
    assert!(inputs > 10_000 && accepted > 0, "{inputs} {accepted}");
}
