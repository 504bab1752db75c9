//! Layer drives: each layer measured from outside, over the workload's own
//! tuples, by timing calls into its public functions.
//!
//! Boundary metrics (`engine.push_ns`, `serve.push_ns`, poll, finish, the
//! push tail) come from the spans of the traced replay. Unit costs come from
//! driving one public type in isolation — an `Executor`, one join operator,
//! an `OperatorState`, the JIT structures, the partitioner, the merge, the
//! reorder buffer, the selection index, the columnar kernels — over tuples
//! taken from the workload's trace. Counts come from the traced replay's
//! `MetricsSnapshot`. A layer the workload does not run reports 0.
//!
//! `bench.attributed_share` prices the traced replay's counted operations at
//! the isolated unit costs and divides by its wall: the share of the time a
//! named leaf explains. The remainder — scheduling, dispatch, routing,
//! cloning, channel waits — is the dark share a later change must light.

use crate::alloc;
use crate::metrics::Values;
use crate::protocol::{replay, Replay, SpanNames};
use crate::stats;
use crate::target::EngineTarget;
use crate::trace::{Recorder, CHUNK};
use crate::workloads::{EngineSetup, Kind, Prepared, ServeSetup, SHARDS};
use jit_core::{Blacklist, BloomFilter, CnsLattice, JitJoinOperator, MnsBuffer, SuspendMode};
use jit_durable::ReorderBuffer;
use jit_exec::operator::{DataMessage, OpContext, Operator, ResultBlock};
use jit_exec::{Executor, ExecutorConfig, JoinKeySpec, OperatorState, RefJoinOperator};
use jit_metrics::RunMetrics;
use jit_plan::builder::{build_tree_plan_with, PlanOptions};
use jit_plan::{parse_cql, CanonicalQuery};
use jit_runtime::{merge_by_timestamp, ShardPartitioner};
use jit_serve::selection::SelectionIndex;
use jit_stream::ArrivalEvent;
use jit_types::kernel::{self, BitMask};
use jit_types::{BlockBuilder, ColumnRef, CompareOp, SourceId, SourceSet, Timestamp, Tuple, Value};
use std::time::Instant;

/// What the protocol hands the layer drives.
pub struct Context<'a> {
    /// The workload instantiated for this run's seed.
    pub prepared: &'a Prepared,
    /// Span names the traced replay used.
    pub names: SpanNames,
    /// The untraced max-rate replay (results kept).
    pub untraced: &'a Replay,
    /// The traced replay: spans on, allocator armed.
    pub traced: &'a Replay,
    /// Peak heap bytes of the traced replay.
    pub traced_heap_bytes: u64,
    /// Wall of the reference run, seconds.
    pub reference_wall_s: f64,
    /// Cost units the reference run charged (0 when it has no engine).
    pub reference_cost_units: u64,
    /// The single-threaded run of a sharded configuration.
    pub twin: Option<&'a Replay>,
    /// Median set-up time, seconds.
    pub setup_s: f64,
}

/// Repetitions behind the small one-shot timings (builds, parses, snapshots).
const REPS: usize = 20;
/// Most items one unit-cost drive runs over.
const SAMPLE: usize = 200_000;

/// Nanoseconds per item of `f` over `items`, one span per [`CHUNK`] items.
fn drive<T>(rec: &mut Recorder, name: &'static str, items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let start = Instant::now();
    for chunk in items.chunks(CHUNK) {
        rec.begin(name);
        for item in chunk {
            f(item);
        }
        rec.end();
    }
    start.elapsed().as_nanos() as f64 / items.len().max(1) as f64
}

/// Median wall of `f`, microseconds, over [`REPS`] calls.
fn median_us<T>(mut f: impl FnMut() -> T) -> f64 {
    let walls: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    stats::median(&walls)
}

fn as_tuple(event: &ArrivalEvent) -> Tuple {
    Tuple::from_base(event.tuple.clone())
}

/// Fill in every per-layer metric the protocol has not set itself.
pub fn measure(ctx: &Context<'_>, rec: &mut Recorder, values: &mut Values) {
    let arrivals = &ctx.prepared.arrivals[..];
    let n = arrivals.len() as f64;
    let snapshot = &ctx.traced.finished.snapshot;
    let stats = &snapshot.stats;
    rec.begin("bench.layer_drives");

    values.set("exec.probe_pairs_per_arrival", stats.probe_pairs as f64 / n);
    values.set("exec.results_per_arrival", stats.results_emitted as f64 / n);
    values.set(
        "exec.intermediate_per_arrival",
        stats.intermediate_produced as f64 / n,
    );
    values.set("exec.tasks_per_arrival", stats.tasks_executed as f64 / n);
    values.set(
        "metrics.analytical_over_heap",
        snapshot.peak_memory_bytes as f64 / ctx.traced_heap_bytes.max(1) as f64,
    );
    values.set("metrics.snapshot_us", snapshot_us(ctx.prepared));
    values.set("durable.reorder_peak", snapshot.reorder_buffer_peak as f64);
    values.set("durable.late_arrivals", snapshot.late_arrivals as f64);
    values.set("durable.late_dropped", snapshot.late_dropped as f64);

    let push_ns = rec.total_ns(ctx.names.push_chunk) as f64 / n;
    let poll_ns = rec.total_ns(ctx.names.poll) as f64 / ctx.traced.polled.max(1) as f64;
    let finish_ms = rec.total_ns(ctx.names.finish) as f64 / 1e6;

    // Estimated nanoseconds of the traced replay the named leaves explain.
    let mut attributed_ns = 0.0;
    match &ctx.prepared.kind {
        Kind::Engine(setup) => {
            values.set("engine.push_ns", push_ns);
            values.set("engine.poll_ns_per_result", poll_ns);
            values.set("engine.finish_ms", finish_ms);
            values.set(
                "engine.build_ms",
                median_us(|| setup.builder().build().expect("bench engine builds")) / 1e3,
            );
            let trace = if setup.in_order.is_empty() {
                arrivals
            } else {
                &setup.in_order[..]
            };
            let ingest_ns = exec_ingest(setup, trace, rec);
            values.set("exec.ingest_ns", ingest_ns);
            values.set("engine.session_overhead_ns", push_ns - ingest_ns);
            values.set("plan.build_us", median_us(|| plan_of(setup)));
            attributed_ns += exec_leaves(setup, trace, rec, values, stats);
            if setup.mode.policy().is_some() {
                attributed_ns += core_layer(ctx, setup, trace, rec, values);
            }
            if setup.runtime.is_some() {
                attributed_ns += runtime_layer(ctx, poll_ns, rec, values);
                attributed_ns += types_layer(arrivals, rec, values);
            }
            if let Some(lateness) = setup.lateness {
                let mut buffer = ReorderBuffer::new(lateness);
                let ns = drive(rec, "durable.reorder", arrivals, |e| {
                    let _ = buffer.push(e.ts, (e.source, e.tuple.clone()));
                    let target = buffer.target_watermark();
                    if target > buffer.frontier() {
                        std::hint::black_box(buffer.release(target));
                    }
                });
                values.set("durable.reorder_ns", ns);
                attributed_ns += ns * n;
            }
        }
        Kind::Serve(setup) => {
            values.set("serve.push_ns", push_ns);
            values.set("serve.poll_ns_per_result", poll_ns);
            values.set(
                "serve.register_us_per_query",
                ctx.setup_s * 1e6 / setup.queries.len() as f64,
            );
            attributed_ns += serve_layer(ctx, setup, rec, values);
        }
    }
    values.set(
        "bench.attributed_share",
        attributed_ns / (ctx.traced.wall_s * 1e9),
    );
    rec.end();
}

/// `metrics_snapshot()` on a session a tenth of the way into the stream.
fn snapshot_us(prepared: &Prepared) -> f64 {
    let mut live = prepared.target.open();
    for event in &prepared.arrivals[..prepared.arrivals.len() / 10] {
        let _ = live.push(event);
    }
    let us = median_us(|| live.snapshot());
    live.finish(&mut Vec::new());
    us
}

fn plan_of(setup: &EngineSetup) -> jit_exec::ExecutablePlan {
    build_tree_plan_with(
        &setup.shape,
        &setup.spec.predicates(),
        setup.spec.window(),
        setup.mode,
        &PlanOptions::default(),
    )
    .expect("bench plan builds")
}

/// `Executor::ingest` on the workload's own plan, no session in front —
/// instrumented exactly like the traced replay's pushes (allocator armed,
/// every call timed, results drained outside the chunk spans), so that the
/// two subtract cleanly into the session's own overhead.
fn exec_ingest(setup: &EngineSetup, trace: &[ArrivalEvent], rec: &mut Recorder) -> f64 {
    let mut executor = Executor::new(plan_of(setup), ExecutorConfig::default());
    alloc::arm();
    for (i, chunk) in trace.chunks(CHUNK).enumerate() {
        rec.begin("exec.ingest_chunk");
        for e in chunk {
            rec.call("exec.ingest", || executor.ingest(e.source, e.tuple.clone()));
        }
        rec.end();
        if (i + 1) % (crate::protocol::POLL_EVERY / CHUNK) == 0 {
            std::hint::black_box(executor.take_results());
        }
    }
    std::hint::black_box(executor.finish());
    alloc::disarm();
    rec.total_ns("exec.ingest_chunk") as f64 / trace.len().max(1) as f64
}

/// The arrivals of sources 0 and 1 (up to [`SAMPLE`]), and how many of
/// source 1's fall into one window — the size a leaf state really has.
fn two_sources(setup: &EngineSetup, trace: &[ArrivalEvent]) -> (Vec<ArrivalEvent>, usize) {
    let pair: Vec<ArrivalEvent> = trace
        .iter()
        .filter(|e| e.source.0 < 2)
        .take(SAMPLE)
        .cloned()
        .collect();
    let first = pair.first().map_or(Timestamp::ZERO, |e| e.ts);
    let window = setup.spec.window();
    let resident = pair
        .iter()
        .filter(|e| e.source.0 == 1 && window.can_join(first, e.ts))
        .count()
        .max(1);
    (pair, resident)
}

/// Unit costs of the exec leaves — one REF join, one operator state, result
/// assembly — and the share of the traced replay they explain.
fn exec_leaves(
    setup: &EngineSetup,
    trace: &[ArrivalEvent],
    rec: &mut Recorder,
    values: &mut Values,
    stats: &jit_metrics::ExecStats,
) -> f64 {
    let (pair, resident) = two_sources(setup, trace);
    let predicates = setup.spec.predicates();
    let window = setup.spec.window();
    let (s0, s1) = (
        SourceSet::single(SourceId(0)),
        SourceSet::single(SourceId(1)),
    );

    let mut metrics = RunMetrics::new();
    let mut join = RefJoinOperator::new("drive", s0, s1, predicates.clone(), window);
    let ref_op_ns = drive(rec, "exec.ref_op", &pair, |e| {
        let mut ctx = OpContext::new(e.ts, &mut metrics);
        std::hint::black_box(join.process(
            e.source.0 as usize,
            &DataMessage::new(as_tuple(e)),
            &mut ctx,
        ));
    });
    values.set("exec.ref_op_ns", ref_op_ns);

    let stored: Vec<Tuple> = pair
        .iter()
        .filter(|e| e.source.0 == 1)
        .map(as_tuple)
        .collect();
    let probes: Vec<Tuple> = pair
        .iter()
        .filter(|e| e.source.0 == 0)
        .map(as_tuple)
        .collect();
    let spec = JoinKeySpec::between(&predicates, s1, s0);
    let far_future = Timestamp::from_millis(u64::MAX / 2);

    // Insert and purge run window-sized rounds on fresh states; the probe
    // pass runs against one window-sized state.
    let (mut insert_ns, mut purge_ns, mut rounds) = (0u128, 0u128, 0u32);
    for round in stored.chunks(resident) {
        let mut state = OperatorState::new("drive");
        rec.begin("exec.state_insert");
        let t = Instant::now();
        for tuple in round {
            state.insert(tuple.clone(), tuple.ts());
        }
        insert_ns += t.elapsed().as_nanos();
        rec.end();
        if round.len() < resident {
            break;
        }
        // Build the probe index before purging, as a probed state has one.
        std::hint::black_box(state.probe(&spec, &probes[0]));
        rec.begin("exec.state_purge");
        let t = Instant::now();
        std::hint::black_box(state.purge(window, far_future));
        purge_ns += t.elapsed().as_nanos();
        rec.end();
        rounds += 1;
    }
    let per_round = (rounds.max(1) as usize * resident) as f64;
    let state_insert_ns = insert_ns as f64 / (stored.len().max(1)) as f64;
    let state_purge_ns = purge_ns as f64 / per_round;
    let mut state = OperatorState::new("drive");
    for tuple in &stored[..resident.min(stored.len())] {
        state.insert(tuple.clone(), tuple.ts());
    }
    let mut hits = Vec::new();
    let state_probe_ns = drive(rec, "exec.state_probe", &probes, |p| {
        state.probe_into(&spec, p, &mut hits);
        std::hint::black_box(&hits);
    });
    values.set("exec.state_insert_ns", state_insert_ns);
    values.set("exec.state_purge_ns", state_purge_ns);
    values.set("exec.state_probe_ns", state_probe_ns);

    let pairs: Vec<(&Tuple, &Tuple)> = probes.iter().zip(&stored).collect();
    let mut assembled = ResultBlock::new();
    let assembly_ns = drive(rec, "exec.result_assembly", &pairs, |(a, b)| {
        assembled.push_join(a, b, false);
        if assembled.len() >= 1024 {
            assembled = ResultBlock::new();
        }
    });
    values.set("exec.result_assembly_ns_per_row", assembly_ns);

    state_insert_ns * stats.state_insertions as f64
        + state_probe_ns * stats.state_probes as f64
        + state_purge_ns * stats.purged_tuples as f64
        + assembly_ns * (stats.intermediate_produced + stats.results_emitted) as f64
}

/// Unit costs of the JIT structures, the JIT counters, and JIT against REF.
fn core_layer(
    ctx: &Context<'_>,
    setup: &EngineSetup,
    trace: &[ArrivalEvent],
    rec: &mut Recorder,
    values: &mut Values,
) -> f64 {
    let snapshot = &ctx.traced.finished.snapshot;
    let stats = &snapshot.stats;
    let n = ctx.prepared.arrivals.len() as f64;
    let (pair, resident) = two_sources(setup, trace);
    let predicates = setup.spec.predicates();
    let window = setup.spec.window();
    let policy = setup.mode.policy().expect("a JIT workload has a policy");
    let (s0, s1) = (
        SourceSet::single(SourceId(0)),
        SourceSet::single(SourceId(1)),
    );

    let mut metrics = RunMetrics::new();
    let mut join = JitJoinOperator::new("drive", s0, s1, predicates.clone(), window, policy);
    let jit_op_ns = drive(rec, "core.jit_op", &pair, |e| {
        let mut ctx = OpContext::new(e.ts, &mut metrics);
        std::hint::black_box(join.process(
            e.source.0 as usize,
            &DataMessage::new(as_tuple(e)),
            &mut ctx,
        ));
    });
    values.set("core.jit_op_ns", jit_op_ns);

    // One lattice per probe over the sources an input of the top join
    // faces, every single-source component observed, then settled.
    let candidates = SourceSet::first_n(setup.spec.num_sources - 1);
    let mut metrics = RunMetrics::new();
    let walks = pair.len().min(50_000);
    let lattice_walk_ns = drive(rec, "core.lattice_walk", &pair[..walks], |_| {
        let mut lattice = CnsLattice::new(candidates);
        for source in candidates.iter() {
            lattice.observe(SourceSet::single(source), &mut metrics);
        }
        std::hint::black_box(lattice.minimal_alive());
    });
    let nodes_per_walk = metrics.stats.lattice_nodes_visited as f64 / walks.max(1) as f64;
    values.set("core.lattice_walk_ns", lattice_walk_ns);

    let mns: Vec<Tuple> = pair
        .iter()
        .filter(|e| e.source.0 == 0)
        .map(as_tuple)
        .collect();
    let partners: Vec<Tuple> = pair
        .iter()
        .filter(|e| e.source.0 == 1)
        .map(as_tuple)
        .collect();

    let mut buffer = MnsBuffer::new("drive");
    let mns_insert_ns = drive(rec, "core.mns_buffer_insert", &mns, |t| {
        buffer.insert(t.clone(), t.ts());
    });
    values.set("core.mns_buffer_insert_ns", mns_insert_ns);

    // Window-sized rounds: a fresh buffer of resident MNSs, probed by as many
    // partner tuples (matches are taken out, so a round depletes it a little).
    let (mut probe_ns, mut probed) = (0u128, 0usize);
    let mut metrics = RunMetrics::new();
    for (held, round) in mns.chunks(resident).zip(partners.chunks(resident)) {
        let mut buffer = MnsBuffer::new("drive");
        for t in held {
            buffer.insert(t.clone(), t.ts());
        }
        rec.begin("core.mns_buffer_probe");
        let t = Instant::now();
        for p in round {
            std::hint::black_box(buffer.take_matching(p, &predicates, window, &mut metrics));
        }
        probe_ns += t.elapsed().as_nanos();
        rec.end();
        probed += round.len();
    }
    let mns_probe_ns = probe_ns as f64 / probed.max(1) as f64;
    values.set("core.mns_buffer_probe_ns", mns_probe_ns);

    // A blacklist of resident MNS entries, asked whether it captures later
    // tuples of the same source (the diversion check of every JIT input).
    let signature_columns: Vec<ColumnRef> = JoinKeySpec::between(&predicates, s1, s0)
        .probe_columns()
        .collect();
    let mut blacklist = Blacklist::new("drive");
    for t in &mns[..resident.min(mns.len())] {
        blacklist.upsert_entry(
            t.clone(),
            signature_columns.clone(),
            SuspendMode::Suspend,
            t.ts(),
        );
    }
    let blacklist_probe_ns = drive(rec, "core.blacklist_probe", &mns, |t| {
        std::hint::black_box(blacklist.matching_entry(t, policy.capture_similar));
    });
    values.set("core.blacklist_probe_ns", blacklist_probe_ns);

    let key_of = |t: &Tuple| t.parts()[0].values.first().cloned().unwrap_or(Value::Null);
    let mut bloom = BloomFilter::new(8 * 1024, 3);
    for t in &partners[..resident.min(partners.len())] {
        bloom.insert(&key_of(t));
    }
    let keys: Vec<Value> = mns.iter().map(key_of).collect();
    let bloom_check_ns = drive(rec, "core.bloom_check", &keys, |k| {
        std::hint::black_box(bloom.maybe_contains(k));
    });
    values.set("core.bloom_check_ns", bloom_check_ns);

    values.set("core.mns_per_arrival", stats.mns_detected as f64 / n);
    values.set(
        "core.lattice_nodes_per_arrival",
        stats.lattice_nodes_visited as f64 / n,
    );
    values.set(
        "core.feedback_per_arrival",
        stats.feedback_total() as f64 / n,
    );
    values.set("core.suppressed_ratio", stats.suppression_ratio());
    values.set(
        "core.resume_ratio",
        stats.resumed_tuples as f64 / stats.blacklisted_tuples.max(1) as f64,
    );
    values.set(
        "core.cost_units_per_arrival",
        snapshot.cost_units as f64 / n,
    );
    values.set(
        "core.ns_per_cost_unit",
        ctx.untraced.wall_s * 1e9 / snapshot.cost_units.max(1) as f64,
    );
    values.set(
        "core.jit_over_ref_wall",
        ctx.untraced.wall_s / ctx.reference_wall_s,
    );
    values.set(
        "core.jit_over_ref_cost",
        snapshot.cost_units as f64 / ctx.reference_cost_units.max(1) as f64,
    );
    // REF's heap peak on the same arrivals, measured like JIT's.
    let reference = EngineTarget {
        builder: setup.reference_builder(),
    };
    alloc::arm();
    replay(
        &reference,
        trace,
        ctx.names,
        &mut Recorder::new("", false),
        false,
    );
    let ref_heap = alloc::disarm();
    values.set(
        "core.jit_over_ref_heap",
        ctx.traced_heap_bytes as f64 / ref_heap.max(1) as f64,
    );

    lattice_walk_ns * stats.lattice_nodes_visited as f64 / nodes_per_walk.max(1.0)
        + mns_insert_ns * stats.mns_detected as f64
        + mns_probe_ns * stats.mns_buffer_probes as f64
        + blacklist_probe_ns * stats.state_probes as f64
        + bloom_check_ns * stats.bloom_checks as f64
}

/// Routing, the merge, the push tail, skew and sharded against single.
fn runtime_layer(ctx: &Context<'_>, poll_ns: f64, rec: &mut Recorder, values: &mut Values) -> f64 {
    let arrivals = &ctx.prepared.arrivals[..];
    let partitioner = ShardPartitioner::new(SHARDS);
    let route_ns = drive(rec, "runtime.route", arrivals, |e| {
        std::hint::black_box(partitioner.shard_of(&e.tuple));
    });
    values.set("runtime.route_ns", route_ns);

    // The delivered stream, split back into the per-shard streams it was
    // merged from (a result lives on the shard of any of its parts).
    let mut streams: Vec<Vec<Tuple>> = vec![Vec::new(); SHARDS];
    for (_, tuple) in &ctx.untraced.results {
        streams[partitioner.shard_of(&tuple.parts()[0])].push(tuple.clone());
    }
    let results = ctx.untraced.results.len().max(1) as f64;
    let t = Instant::now();
    std::hint::black_box(rec.span("runtime.merge", || merge_by_timestamp(&streams)));
    let merge_ns = t.elapsed().as_nanos() as f64 / results;
    values.set("runtime.merge_ns_per_result", merge_ns);

    values.set(
        "runtime.push_p99_us",
        rec.histogram(ctx.names.push)
            .map_or(0.0, |h| h.percentile_ns(99) as f64 / 1e3),
    );
    values.set("runtime.poll_ns_per_result", poll_ns);
    values.set(
        "runtime.shard_skew",
        ctx.traced.finished.max_shard_load * SHARDS as f64,
    );
    if let Some(single) = ctx.twin {
        values.set(
            "runtime.sharded_over_single_tps",
            single.wall_s / ctx.untraced.wall_s,
        );
    }
    route_ns * arrivals.len() as f64 + merge_ns * results
}

/// The columnar kernels a batching data plane runs per row.
fn types_layer(arrivals: &[ArrivalEvent], rec: &mut Recorder, values: &mut Values) -> f64 {
    const ROWS: usize = 1024;
    let sample = &arrivals[..arrivals.len().min(SAMPLE)];
    let mut builder = BlockBuilder::new().with_columns(true);
    let build_ns = drive(rec, "types.block_build", sample, |e| {
        builder.push(e.source, e.tuple.clone());
        if builder.len() >= ROWS {
            std::hint::black_box(builder.finish());
        }
    });
    values.set("types.block_build_ns_per_row", build_ns);

    let mut builder = BlockBuilder::new().with_columns(true);
    for e in sample.iter().filter(|e| e.source.0 == 0).take(ROWS) {
        builder.push(e.source, e.tuple.clone());
    }
    let block = builder.finish();
    let batch = &block.batches()[0];
    let rows = batch.len().max(1) as f64;
    let passes: Vec<u32> = (0..(SAMPLE / ROWS) as u32).collect();
    let column = batch.column(0).expect("workload rows carry a key column");
    let mut mask = BitMask::new();
    let mask_ns = drive(rec, "types.filter_mask", &passes, |_| {
        kernel::filter_mask(column, CompareOp::Gt, &Value::int(2500), &mut mask);
        std::hint::black_box(&mask);
    }) / rows;
    values.set("types.filter_mask_ns_per_row", mask_ns);

    let columns = [ColumnRef::new(SourceId(0), 0)];
    let (mut keys, mut valid) = (Vec::new(), Vec::new());
    let extract_ns = drive(rec, "types.probe_key_extract", &passes, |_| {
        kernel::extract_probe_keys(batch, &columns, &mut keys, &mut valid);
        std::hint::black_box(&keys);
    }) / rows;
    values.set("types.probe_key_extract_ns_per_row", extract_ns);

    // The workload has no constant filters: no mask pass runs in it.
    (build_ns + extract_ns) * arrivals.len() as f64
}

/// Classification, parsing and the registry's sharing counters.
fn serve_layer(
    ctx: &Context<'_>,
    setup: &ServeSetup,
    rec: &mut Recorder,
    values: &mut Values,
) -> f64 {
    let arrivals = &ctx.prepared.arrivals[..];
    let n = arrivals.len() as f64;

    // Every distinct filter class of the family, in the registry's global
    // column space, classified once per arrival as the registry does.
    let mut index = SelectionIndex::new();
    for query in &setup.queries {
        let canonical =
            CanonicalQuery::from_cql(query, &setup.catalog).expect("bench query parses");
        for (local, &global) in canonical.sources().iter().enumerate() {
            let terms: Vec<_> = canonical
                .filter_class(SourceId(local as u16))
                .into_iter()
                .map(|mut term| {
                    term.column = ColumnRef::new(global, term.column.column);
                    term
                })
                .collect();
            index.acquire(global, &terms);
        }
    }
    let classify_ns = drive(rec, "serve.classify", arrivals, |e| {
        std::hint::black_box(index.classify(e.source, &as_tuple(e)));
    });
    values.set("serve.classify_ns", classify_ns);

    let distinct = &setup.queries[..16.min(setup.queries.len())];
    values.set(
        "plan.cql_parse_us",
        median_us(|| distinct.iter().filter(|q| parse_cql(q).is_ok()).count())
            / distinct.len() as f64,
    );
    let canonical: Vec<CanonicalQuery> = distinct
        .iter()
        .map(|q| CanonicalQuery::from_cql(q, &setup.catalog).expect("bench query parses"))
        .collect();
    values.set(
        "plan.build_us",
        median_us(|| {
            canonical
                .iter()
                .filter(|c| {
                    build_tree_plan_with(
                        &c.shape(),
                        &c.predicates(),
                        c.window(),
                        jit_core::ExecutionMode::Ref,
                        &PlanOptions::default(),
                    )
                    .is_ok()
                })
                .count()
        }) / canonical.len() as f64,
    );

    if let Some(sharing) = &ctx.traced.finished.sharing {
        values.set("serve.fanout_per_arrival", sharing.routed as f64 / n);
        values.set(
            "serve.classifications_saved_ratio",
            sharing.classifications_saved as f64
                / (sharing.classifications + sharing.classifications_saved).max(1) as f64,
        );
        values.set(
            "serve.state_sharing_factor",
            sharing.isolated_state_bytes as f64 / sharing.shared_state_bytes.max(1) as f64,
        );
        values.set("serve.pipelines", sharing.pipelines as f64);
    }
    classify_ns * n
}
