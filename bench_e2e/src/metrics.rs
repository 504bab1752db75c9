//! The metric catalogue: every end-to-end and per-layer metric by name, with
//! its unit, direction and (end to end) regression bound. `BENCHMARK.json`
//! lists the same names; a unit test keeps the two in step.

use std::collections::BTreeMap;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

/// One metric of the catalogue. `bound` is the share of the parent's median
/// by which an end-to-end metric may worsen; per-layer metrics have none.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, `layer.metric` for per-layer metrics.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound (0 for per-layer metrics).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, Better::Lower, 0.0)
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, Better::Higher, 0.0)
}

/// What a user of the system sees, defined on every workload. Each carries
/// the widest bound a benchmark may set: on the shared 2-core box the
/// quartile spread of `throughput_tps` across ten seeds reached 18%, and the
/// median of ten runs moved by up to 25% between two sets of the same binary
/// (see the README).
pub const END_TO_END: [MetricDef; 3] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("throughput_tps", "1/s", Better::Higher, 0.25),
    e2e("heap_peak_mb", "MB", Better::Lower, 0.25),
];

/// Single layers, measured from outside. A layer a workload does not run
/// reports 0.
pub const PER_LAYER: [MetricDef; 71] = [
    lo("engine.push_ns", "ns"),
    lo("engine.poll_ns_per_result", "ns"),
    lo("engine.finish_ms", "ms"),
    lo("engine.build_ms", "ms"),
    lo("engine.session_overhead_ns", "ns"),
    lo("exec.ingest_ns", "ns"),
    lo("exec.ref_op_ns", "ns"),
    lo("exec.state_insert_ns", "ns"),
    lo("exec.state_probe_ns", "ns"),
    lo("exec.state_purge_ns", "ns"),
    lo("exec.result_assembly_ns_per_row", "ns"),
    lo("exec.probe_pairs_per_arrival", "count"),
    lo("exec.results_per_arrival", "count"),
    lo("exec.intermediate_per_arrival", "count"),
    lo("exec.tasks_per_arrival", "count"),
    lo("core.jit_op_ns", "ns"),
    lo("core.lattice_walk_ns", "ns"),
    lo("core.mns_buffer_insert_ns", "ns"),
    lo("core.mns_buffer_probe_ns", "ns"),
    lo("core.blacklist_probe_ns", "ns"),
    lo("core.bloom_check_ns", "ns"),
    lo("core.mns_per_arrival", "count"),
    lo("core.lattice_nodes_per_arrival", "count"),
    lo("core.feedback_per_arrival", "count"),
    hi("core.suppressed_ratio", "ratio"),
    lo("core.resume_ratio", "ratio"),
    lo("core.cost_units_per_arrival", "count"),
    lo("core.ns_per_cost_unit", "ns"),
    lo("core.jit_over_ref_wall", "ratio"),
    lo("core.jit_over_ref_cost", "ratio"),
    lo("core.jit_over_ref_heap", "ratio"),
    lo("runtime.route_ns", "ns"),
    lo("runtime.push_p99_us", "us"),
    lo("runtime.merge_ns_per_result", "ns"),
    lo("runtime.poll_ns_per_result", "ns"),
    lo("runtime.shard_skew", "ratio"),
    hi("runtime.sharded_over_single_tps", "ratio"),
    lo("durable.reorder_ns", "ns"),
    lo("durable.reorder_peak", "count"),
    lo("durable.late_arrivals", "count"),
    lo("durable.late_dropped", "count"),
    // The stop-the-world pause at the 50% cut (encode plus write) and the
    // time from a crash to the first accepted push (read plus rebuild plus
    // rehydrate plus push). End-to-end by nature, like the two latencies
    // below; a few milliseconds long on four of the five workloads, and
    // between two sets of ten runs of one binary their medians moved by up to
    // 31%, more than any bound the benchmark may set, so they carry none.
    lo("durable.checkpoint_ms", "ms"),
    lo("durable.restore_ms", "ms"),
    lo("durable.checkpoint_encode_ms", "ms"),
    lo("durable.checkpoint_write_ms", "ms"),
    lo("durable.checkpoint_read_ms", "ms"),
    lo("durable.restore_apply_ms", "ms"),
    lo("durable.checkpoint_bytes", "B"),
    lo("serve.register_us_per_query", "us"),
    lo("serve.push_ns", "ns"),
    lo("serve.classify_ns", "ns"),
    lo("serve.poll_ns_per_result", "ns"),
    lo("serve.fanout_per_arrival", "count"),
    hi("serve.classifications_saved_ratio", "ratio"),
    hi("serve.state_sharing_factor", "ratio"),
    lo("serve.pipelines", "count"),
    lo("types.block_build_ns_per_row", "ns"),
    lo("types.filter_mask_ns_per_row", "ns"),
    lo("types.probe_key_extract_ns_per_row", "ns"),
    lo("plan.cql_parse_us", "us"),
    lo("plan.build_us", "us"),
    lo("metrics.snapshot_us", "us"),
    lo("metrics.analytical_over_heap", "ratio"),
    lo("stream.generate_s", "s"),
    // The two emission latencies are end-to-end by nature, but on the shared
    // 2-core box their run-to-run spread (12% to 900% across ten seeds)
    // exceeds any bound the benchmark may set, so they carry none.
    lo("stream.emit_latency_p50_us", "us"),
    lo("stream.emit_latency_p99_us", "us"),
    lo("stream.gen_lag_p99_us", "us"),
    lo("stream.gen_lag_max_ms", "ms"),
    lo("bench.trace_overhead_ratio", "ratio"),
    hi("bench.attributed_share", "ratio"),
    // Results missing, spurious or duplicated against the strict in-order
    // REF reference, as a share of its results. What a configuration's
    // documented semantics allow (strict JIT drops results whose suppressed
    // parts expire; the bounded-disorder watermark admits a few at the expiry
    // margin) is tracked here; only what they rule out is a failed operation.
    lo("bench.reference_mismatch_ratio", "ratio"),
];

/// Measured values by metric name.
#[derive(Debug, Default, Clone)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Record one value; the name must be in the catalogue.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|m| m.name == name),
            "{name} is not in the metric catalogue"
        );
        self.0.insert(name, value);
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Every metric of `defs` in catalogue order; unset ones read 0.
    pub fn in_order<'a>(
        &'a self,
        defs: &'a [MetricDef],
    ) -> impl Iterator<Item = (&'a MetricDef, f64)> + 'a {
        defs.iter().map(|d| (d, self.get(d.name).unwrap_or(0.0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Content;

    fn field<'a>(map: &'a Content, key: &str) -> &'a Content {
        map.as_map()
            .and_then(|m| m.iter().find(|(k, _)| k == key))
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}`"))
    }

    /// The word `BENCHMARK.json` uses for a direction.
    fn word(better: Better) -> &'static str {
        match better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    fn text(map: &Content, key: &str) -> String {
        field(map, key).as_str().expect("a string").to_string()
    }

    /// `BENCHMARK.json` at the repository root names exactly the catalogue's
    /// metrics (with unit, direction and bound) and the five workloads.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc: Content =
            serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json reads"))
                .expect("BENCHMARK.json parses");

        let listed = field(&doc, "end_to_end").as_seq().expect("a list");
        assert_eq!(listed.len(), END_TO_END.len());
        for (entry, def) in listed.iter().zip(&END_TO_END) {
            assert_eq!(text(entry, "name"), def.name);
            assert_eq!(text(entry, "unit"), def.unit);
            assert_eq!(text(entry, "better"), word(def.better));
            assert_eq!(field(entry, "bound"), &Content::F64(def.bound));
            assert!(def.bound > 0.0 && def.bound <= 0.25);
        }
        let listed = field(&doc, "per_layer").as_seq().expect("a list");
        assert_eq!(listed.len(), PER_LAYER.len());
        for (entry, def) in listed.iter().zip(&PER_LAYER) {
            assert_eq!(text(entry, "name"), def.name);
            assert_eq!(text(entry, "unit"), def.unit);
            assert_eq!(text(entry, "better"), word(def.better));
        }
        let listed = field(&doc, "workloads").as_seq().expect("a list");
        assert_eq!(listed.len(), crate::workloads::WORKLOADS.len());
        for (entry, workload) in listed.iter().zip(&crate::workloads::WORKLOADS) {
            assert_eq!(text(entry, "name"), workload.name);
            assert_eq!(text(entry, "why"), workload.why);
        }
        assert_eq!(
            field(&doc, "run_seconds"),
            &Content::U64(crate::DEFAULT_SECONDS as u64)
        );
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
