//! The serving tier's contract, pinned: every registered query's delivered
//! result stream is byte-identical to a dedicated single-query engine's —
//! whatever the sharing (pipelines, selection classes, windows) behind it,
//! on both execution backends, and across register/deregister mid-stream.

use jit_core::{ExecutionMode, JitPolicy};
use jit_engine::Engine;
use jit_plan::CanonicalQuery;
use jit_runtime::RuntimeConfig;
use jit_serve::{QueryRegistry, ServeError, ServeOptions, SharingReport};
use jit_types::{BaseTuple, Catalog, SourceId, Timestamp, Tuple, Value};
use std::sync::Arc;

fn catalog() -> Catalog {
    let mut cat = Catalog::new();
    cat.add_source("A", vec!["k".into(), "v".into()]);
    cat.add_source("B", vec!["k".into(), "v".into()]);
    cat.add_source("C", vec!["k".into(), "v".into()]);
    cat
}

/// A deterministic mixed-source trace: LCG-driven source/key/value choice,
/// strictly increasing timestamps (500 ms apart, so a 1-minute window holds
/// ~120 arrivals).
fn trace(n: usize) -> Vec<Arc<BaseTuple>> {
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut seqs = [0u64; 3];
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let source = ((state >> 33) % 3) as usize;
        let k = ((state >> 16) % 4) as i64;
        let v = ((state >> 8) % 30) as i64;
        let seq = seqs[source];
        seqs[source] += 1;
        out.push(Arc::new(BaseTuple::new(
            SourceId(source as u16),
            seq,
            Timestamp((i as u64 + 1) * 500),
            vec![Value::int(k), Value::int(v)],
        )));
    }
    out
}

/// What the registry does for one query, done by hand with a dedicated
/// engine: remap arrivals to the query's local id space, apply its constant
/// filters before the push, run to completion.
fn dedicated_session(
    cql: &str,
    cat: &Catalog,
    options: &ServeOptions,
) -> (CanonicalQuery, jit_engine::Session) {
    let canonical = CanonicalQuery::from_cql(cql, cat).unwrap();
    let mut builder = Engine::builder()
        .query_shape(
            canonical.shape(),
            canonical.predicates(),
            canonical.window(),
        )
        .mode(options.mode)
        .state_index(options.state_index)
        .partition_key_column(options.key_column);
    if options.assume_partitionable {
        builder = builder.assume_key_partitionable();
    }
    if let Some(config) = &options.runtime {
        builder = builder.sharded(config.clone());
    }
    let session = builder.build().unwrap().session().unwrap();
    (canonical, session)
}

fn feed(canonical: &CanonicalQuery, session: &mut jit_engine::Session, arrival: &Arc<BaseTuple>) {
    let Some(local) = canonical.local_id(arrival.source) else {
        return;
    };
    let remapped = Arc::new(BaseTuple {
        source: local,
        seq: arrival.seq,
        ts: arrival.ts,
        values: arrival.values.clone(),
    });
    let as_tuple = Tuple::from_base(remapped.clone());
    let passes = canonical
        .filter_class(local)
        .iter()
        .all(|t| t.predicate().holds_on(&as_tuple).unwrap_or(false));
    if passes {
        let _ = session.push(local, remapped).unwrap();
    }
}

fn dedicated_results(
    cql: &str,
    cat: &Catalog,
    options: &ServeOptions,
    arrivals: &[Arc<BaseTuple>],
) -> Vec<Tuple> {
    let (canonical, mut session) = dedicated_session(cql, cat, options);
    for arrival in arrivals {
        feed(&canonical, &mut session, arrival);
    }
    session.finish().unwrap().results
}

/// Drive a registry over the trace with periodic polling and return each
/// query's complete delivered stream (polls + finish), in query order.
fn registry_results(
    queries: &[&str],
    options: &ServeOptions,
    arrivals: &[Arc<BaseTuple>],
    poll_every: usize,
) -> Vec<Vec<Tuple>> {
    let mut reg = QueryRegistry::with_options(catalog(), options.clone());
    let ids: Vec<_> = queries.iter().map(|q| reg.register(q).unwrap()).collect();
    let mut delivered: Vec<Vec<Tuple>> = vec![Vec::new(); ids.len()];
    for (i, arrival) in arrivals.iter().enumerate() {
        reg.push(arrival.clone()).unwrap();
        if (i + 1) % poll_every == 0 {
            for (slot, &qid) in ids.iter().enumerate() {
                delivered[slot].extend(reg.poll_results(qid).unwrap());
            }
        }
    }
    for (qid, outcome) in reg.finish().unwrap() {
        let slot = ids.iter().position(|&q| q == qid).unwrap();
        delivered[slot].extend(outcome.results);
    }
    delivered
}

/// An overlapping workload: two texts of one query, a filtered variant, a
/// wider window, and a three-way join — all in catalog order, so every local
/// id equals its global id — then four queries whose `FROM` order remaps
/// their sources: `B, A` swaps the two ids, two `B, C` pipelines (one
/// filtered on the remapped C) both remap B and C, and `C, A` gives C a
/// second local id beside the one `B, C` gives it.
const QUERIES: [&str; 9] = [
    "SELECT * FROM A [RANGE 1 minutes], B [RANGE 1 minutes] WHERE A.k = B.k",
    "select * from a [range 1 minutes], b [range 1 minutes] where B.k = A.k",
    "SELECT * FROM A [RANGE 1 minutes], B [RANGE 1 minutes] WHERE A.k = B.k AND A.v > 14",
    "SELECT * FROM A [RANGE 2 minutes], B [RANGE 2 minutes] WHERE A.k = B.k",
    "SELECT * FROM A [RANGE 1 minutes], B [RANGE 1 minutes], C [RANGE 1 minutes] \
     WHERE A.k = B.k AND B.k = C.k",
    "SELECT * FROM B [RANGE 1 minutes], A [RANGE 1 minutes] WHERE A.k = B.k",
    "SELECT * FROM B [RANGE 1 minutes], C [RANGE 1 minutes] WHERE B.k = C.k",
    "SELECT * FROM B [RANGE 2 minutes], C [RANGE 2 minutes] WHERE B.k = C.k AND C.v > 9",
    "SELECT * FROM C [RANGE 1 minutes], A [RANGE 1 minutes] WHERE A.k = C.k",
];

fn assert_equivalent(options: &ServeOptions, n: usize, poll_every: usize) {
    let arrivals = trace(n);
    let cat = catalog();
    let shared = registry_results(&QUERIES, options, &arrivals, poll_every);
    for (query, delivered) in QUERIES.iter().zip(&shared) {
        let isolated = dedicated_results(query, &cat, options, &arrivals);
        assert!(!isolated.is_empty(), "workload must exercise {query}");
        assert_eq!(delivered, &isolated, "results diverge for {query}");
    }
}

#[test]
fn registry_matches_dedicated_engines_ref_single_threaded() {
    assert_equivalent(&ServeOptions::default(), 300, 37);
}

#[test]
fn registry_matches_dedicated_engines_jit_single_threaded() {
    let options = ServeOptions {
        mode: ExecutionMode::Jit(JitPolicy::full()),
        ..ServeOptions::default()
    };
    assert_equivalent(&options, 300, 53);
}

#[test]
fn registry_matches_dedicated_engines_sharded() {
    let options = ServeOptions {
        runtime: Some(RuntimeConfig::with_shards(2)),
        ..ServeOptions::default()
    };
    assert_equivalent(&options, 200, 29);
}

fn mid_stream_scenario(options: &ServeOptions) {
    let arrivals = trace(240);
    let cat = catalog();
    let full_query = QUERIES[0];
    let cold_query = QUERIES[2]; // no equal key registered → fresh pipeline
    let warm_query = QUERIES[1]; // same canonical key as full_query → shares

    let mut reg = QueryRegistry::with_options(catalog(), options.clone());
    let q_full = reg.register(full_query).unwrap();
    let mut full_delivered = Vec::new();
    let mut cold_delivered = Vec::new();
    let mut warm_delivered = Vec::new();
    let (mut q_cold, mut q_warm) = (None, None);
    for (i, arrival) in arrivals.iter().enumerate() {
        if i == 80 {
            q_cold = Some(reg.register(cold_query).unwrap());
            q_warm = Some(reg.register(warm_query).unwrap());
        }
        if i == 160 {
            // Mid-stream exit: the cold query collects only what was ready.
            cold_delivered.extend(reg.deregister(q_cold.take().unwrap()).unwrap());
        }
        reg.push(arrival.clone()).unwrap();
        if (i + 1) % 31 == 0 {
            full_delivered.extend(reg.poll_results(q_full).unwrap());
            if let Some(q) = q_warm {
                warm_delivered.extend(reg.poll_results(q).unwrap());
            }
        }
    }
    for (qid, outcome) in reg.finish().unwrap() {
        if qid == q_full {
            full_delivered.extend(outcome.results);
        } else if Some(qid) == q_warm {
            warm_delivered.extend(outcome.results);
        } else {
            panic!("deregistered query must not appear in finish");
        }
    }

    // Never-deregistered query: equals a dedicated engine over everything.
    let full_isolated = dedicated_results(full_query, &cat, options, &arrivals);
    assert_eq!(full_delivered, full_isolated);

    // Cold mid-stream registration: the flush-less deregistration returns
    // what was *ready*, which on the sharded backend depends on how far the
    // cross-shard watermark got — but it is always a prefix of the stream a
    // dedicated engine over the same suffix produces.
    let cold_isolated = dedicated_results(cold_query, &cat, options, &arrivals[80..160]);
    assert!(
        !cold_isolated.is_empty(),
        "cold window must produce results"
    );
    assert!(cold_delivered.len() <= cold_isolated.len());
    assert_eq!(
        cold_delivered,
        cold_isolated[..cold_delivered.len()],
        "cold deliveries must prefix the dedicated stream"
    );
    if options.runtime.is_none() {
        // Single-threaded "ready" = everything emitted so far: the whole
        // stream for a REF query with nothing left to flush.
        assert_eq!(cold_delivered.len(), cold_isolated.len());
    }

    // Warm registration onto a shared pipeline: a full-history engine,
    // deliveries counted from the registration boundary. The boundary is
    // what the pipeline had *released* when the query registered — on the
    // sharded backend, how far the cross-shard watermark got, which depends
    // on worker timing. Independent of timing: the deliveries are a suffix
    // of the full-history stream, and hold every result completed by an
    // arrival pushed after registration (a REF result is emitted by the
    // arrival of its last component, so those are the stream minus what the
    // first 80 arrivals produce on their own).
    let warm_full = dedicated_results(warm_query, &cat, options, &arrivals);
    let early = dedicated_results(warm_query, &cat, options, &arrivals[..80]);
    let before = early.len();
    assert_eq!(early, warm_full[..before]);
    assert!(warm_full.len() > before, "warm window must produce results");
    assert!(warm_delivered.len() >= warm_full.len() - before);
    assert!(warm_delivered.len() <= warm_full.len());
    assert_eq!(
        warm_delivered,
        warm_full[warm_full.len() - warm_delivered.len()..],
        "warm deliveries must be a suffix of the full-history stream"
    );
    if options.runtime.is_none() {
        // Single-threaded "released" = everything emitted so far: nothing
        // from before the registration reaches the new query.
        assert_eq!(warm_delivered.len(), warm_full.len() - before);
    }
}

#[test]
fn register_and_deregister_mid_stream_single_threaded() {
    mid_stream_scenario(&ServeOptions::default());
}

#[test]
fn register_and_deregister_mid_stream_sharded() {
    let options = ServeOptions {
        runtime: Some(RuntimeConfig::with_shards(2)),
        ..ServeOptions::default()
    };
    mid_stream_scenario(&options);
}

/// The i-th query of an overlapping family: an A⋈B join on `k`, one of 8
/// filter thresholds on `A.v`, one of 2 windows — at most 16 distinct
/// pipelines however many queries register.
fn family_query(i: usize) -> String {
    let threshold = 5 * (i % 8);
    let minutes = 1 + (i / 8) % 2;
    format!(
        "SELECT * FROM A [RANGE {minutes} minutes], B [RANGE {minutes} minutes] \
         WHERE A.k = B.k AND A.v > {threshold}"
    )
}

/// A deterministic alternating A/B stream, 200 ms apart, `k` and `v` in
/// 0..100.
fn family_stream(n: usize) -> Vec<Arc<BaseTuple>> {
    let mut state: u64 = 0x2545_F491_4F6C_DD1D;
    (0..n)
        .map(|i| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = ((state >> 33) % 100) as i64;
            let v = ((state >> 17) % 100) as i64;
            Arc::new(BaseTuple::new(
                SourceId((i % 2) as u16),
                (i / 2) as u64,
                Timestamp((i as u64 + 1) * 200),
                vec![Value::int(k), Value::int(v)],
            ))
        })
        .collect()
}

/// Serving work is counted per pipeline and per filter class, never per
/// query: past 16 queries the family adds subscribers, not work.
#[test]
fn serving_work_follows_pipelines_not_queries() {
    let arrivals = family_stream(2000);
    let [ten, hundred, thousand] = [10, 100, 1000].map(|queries| {
        let mut reg = QueryRegistry::new(catalog());
        for i in 0..queries {
            reg.register(&family_query(i)).unwrap();
        }
        for arrival in &arrivals {
            reg.push(arrival.clone()).unwrap();
        }
        reg.sharing_report()
    });
    let shape = |r: &SharingReport| (r.queries, r.pipelines, r.filter_classes);
    assert_eq!(
        [shape(&ten), shape(&hundred), shape(&thousand)],
        [(10, 10, 8), (100, 16, 8), (1000, 16, 8)]
    );

    assert_eq!(hundred.routed, thousand.routed);
    assert_eq!(hundred.classifications, thousand.classifications);
    assert!(ten.classifications_saved < hundred.classifications_saved);
    assert!(hundred.classifications_saved < thousand.classifications_saved);

    // 100× the queries route at most 16/10 the tuples (linear would be
    // 100×); measured: 1.58×.
    assert!(thousand.routed * 10 <= ten.routed * 16);
    assert_eq!((ten.routed, thousand.routed), (18_617, 29_350));

    // 1000 subscribers over 16 pipelines: 62 or 63 each.
    let factor = thousand.isolated_state_bytes as f64 / thousand.shared_state_bytes as f64;
    assert!((62.0..=63.0).contains(&factor), "sharing factor {factor}");
}

#[test]
fn duplicate_from_aliases_are_rejected_at_the_registry_surface() {
    let mut reg = QueryRegistry::new(catalog());
    // Exact duplicate and case-variant duplicate both die in parsing.
    for text in [
        "SELECT * FROM A [RANGE 1 minutes], A [RANGE 1 minutes] WHERE A.k = A.k",
        "SELECT * FROM A [RANGE 1 minutes], a [RANGE 1 minutes] WHERE A.k = a.k",
    ] {
        assert!(
            matches!(reg.register(text), Err(ServeError::Cql(_))),
            "{text}"
        );
    }
    assert_eq!(reg.num_queries(), 0);
    assert_eq!(reg.num_pipelines(), 0);
}
