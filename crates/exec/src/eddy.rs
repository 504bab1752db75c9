//! The Eddy / STeM architecture (Figure 2b).
//!
//! An Eddy routes source tuples and intermediate results among per-source
//! state modules (STeMs) until they have visited every STeM, at which point
//! they are complete join results. This reproduction models the Eddy plus
//! its STeMs as a single n-ary operator: port `i` receives the tuples of
//! source `i`, each arrival is inserted into its own STeM and then routed
//! through the remaining STeMs (smallest state first — a simple adaptive
//! routing policy) accumulating partial results, which never need to be
//! stored because routing completes within the arrival's cascade.

use crate::operator::{DataMessage, OpContext, Operator, OperatorOutput, Port};
use crate::state::{JoinKeySpec, OperatorState, StateIndexMode};
use jit_metrics::CostKind;
use jit_types::{FastMap, PredicateSet, SourceId, SourceSet, Tuple, Window};
use serde::Content;

/// How the Eddy picks the next STeM to visit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingPolicy {
    /// Visit the remaining STeMs in source-id order.
    Fixed,
    /// Visit the remaining STeM with the fewest stored tuples first (greedy
    /// selectivity-agnostic adaptive policy).
    SmallestStateFirst,
}

/// An n-way Eddy over the sources `0..n`.
#[derive(Debug)]
pub struct EddyOperator {
    name: String,
    states: Vec<OperatorState>,
    predicates: PredicateSet,
    window: Window,
    policy: RoutingPolicy,
    /// Probe specs cached per (stem, frontier source set) — adaptive
    /// routing makes the frontiers seen at a stem dynamic, so they are
    /// derived on first sight rather than precomputed.
    spec_cache: FastMap<(usize, SourceSet), JoinKeySpec>,
}

impl EddyOperator {
    /// Create an Eddy over `num_sources` sources.
    pub fn new(
        name: impl Into<String>,
        num_sources: usize,
        predicates: PredicateSet,
        window: Window,
        policy: RoutingPolicy,
    ) -> Self {
        let states = (0..num_sources)
            .map(|i| OperatorState::new(format!("STeM {}", SourceId(i as u16))))
            .collect();
        EddyOperator {
            name: name.into(),
            states,
            predicates,
            window,
            policy,
            spec_cache: FastMap::default(),
        }
    }

    /// Number of sources (and STeMs).
    pub fn num_sources(&self) -> usize {
        self.states.len()
    }

    /// Number of tuples in the STeM of `source`.
    pub fn stem_len(&self, source: SourceId) -> usize {
        self.states[source.index()].len()
    }

    /// Select how the STeMs answer probes (default
    /// [`StateIndexMode::Hashed`]). Because the routed partial results grow
    /// as they visit STeMs, each STeM builds one index per distinct partial
    /// shape that probes it — the just-in-time indexing discipline.
    pub fn with_state_index(mut self, mode: StateIndexMode) -> Self {
        for state in &mut self.states {
            state.set_index_mode(mode);
        }
        self
    }

    /// The order in which the remaining STeMs will be visited.
    fn route_order(&self, start: usize) -> Vec<usize> {
        let mut others: Vec<usize> = (0..self.states.len()).filter(|&i| i != start).collect();
        if self.policy == RoutingPolicy::SmallestStateFirst {
            others.sort_by_key(|&i| self.states[i].len());
        }
        others
    }
}

impl Operator for EddyOperator {
    fn name(&self) -> &str {
        &self.name
    }

    fn output_schema(&self) -> SourceSet {
        SourceSet::first_n(self.states.len())
    }

    fn num_ports(&self) -> usize {
        self.states.len()
    }

    fn process(
        &mut self,
        port: Port,
        msg: &DataMessage,
        ctx: &mut OpContext<'_>,
    ) -> OperatorOutput {
        debug_assert!(port < self.states.len());
        let now = ctx.now;

        // Purge every STeM at the current time.
        let mut purged = 0;
        for state in &mut self.states {
            purged += state.purge(self.window, now);
        }
        ctx.metrics.charge(CostKind::StatePurge, purged as u64);

        // Insert the new tuple into its own STeM.
        self.states[port].insert(msg.tuple.clone(), now);
        ctx.metrics.charge(CostKind::StateInsert, 1);

        // Route through the remaining STeMs, accumulating partial results.
        let mut partials: Vec<Tuple> = vec![msg.tuple.clone()];
        for stem in self.route_order(port) {
            if partials.is_empty() {
                break;
            }
            ctx.metrics.stats.state_probes += 1;
            let mut next: Vec<Tuple> = Vec::new();
            let mut evals = 0u64;
            // Every partial on this frontier covers the same source set (the
            // start source plus the stems already visited), so one cached
            // spec serves the whole batch. The cache is keyed by
            // (stem, frontier) because adaptive routing makes the visit
            // order — and with it the frontiers seen at a stem — dynamic.
            let frontier = partials[0].sources();
            if !self.spec_cache.contains_key(&(stem, frontier)) {
                let spec = JoinKeySpec::between(
                    &self.predicates,
                    SourceSet::single(SourceId(stem as u16)),
                    frontier,
                );
                self.spec_cache.insert((stem, frontier), spec);
            }
            let spec = &self.spec_cache[&(stem, frontier)];
            let scan = self.states[stem].index_mode() == StateIndexMode::Scan;
            let window = self.window;
            let predicates = &self.predicates;
            for partial in &partials {
                let mut examine =
                    |entry: &crate::state::StoredTuple, metrics: &mut jit_metrics::RunMetrics| {
                        metrics.charge(CostKind::ProbePair, 1);
                        if window.can_join(partial.ts(), entry.tuple.ts())
                            && predicates.join_matches(partial, &entry.tuple, &mut evals)
                        {
                            if let Ok(joined) = partial.join(&entry.tuple) {
                                metrics.charge(CostKind::ResultBuild, 1);
                                next.push(joined);
                            }
                        }
                    };
                if scan {
                    for entry in self.states[stem].iter() {
                        examine(entry, ctx.metrics);
                    }
                } else {
                    for seq in self.states[stem].probe(spec, partial) {
                        if let Some(entry) = self.states[stem].get(seq) {
                            examine(entry, ctx.metrics);
                        }
                    }
                }
            }
            ctx.metrics.charge(CostKind::PredicateEval, evals);
            // Partial results that did not reach the full schema yet continue
            // routing; in this clique setting every STeM visit extends the
            // tuple by exactly one source, so `next` is the frontier.
            ctx.metrics.stats.intermediate_produced += next.len() as u64;
            partials = next;
        }

        OperatorOutput::with_results(partials.into_iter().map(DataMessage::new).collect())
    }

    fn memory_bytes(&self) -> usize {
        self.states.iter().map(|s| s.size_bytes()).sum()
    }

    fn checkpoint(&self) -> Content {
        // The spec cache is derived (rebuilt on first sight of each
        // frontier), so only the STeM contents are persisted.
        Content::Seq(self.states.iter().map(OperatorState::checkpoint).collect())
    }

    fn restore(&mut self, state: &Content) -> Result<(), serde::Error> {
        let stems = state
            .as_seq()
            .ok_or_else(|| serde::Error::expected("array", "EddyOperator"))?;
        if stems.len() != self.states.len() {
            return Err(serde::Error::msg(format!(
                "checkpoint has {} STeMs but the Eddy has {}",
                stems.len(),
                self.states.len()
            )));
        }
        for (own, blob) in self.states.iter_mut().zip(stems) {
            own.restore_checkpoint(blob)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jit_metrics::RunMetrics;
    use jit_types::{BaseTuple, Duration, Timestamp, Value};
    use std::sync::Arc;

    fn msg(source: u16, seq: u64, ts_ms: u64, vals: &[i64]) -> DataMessage {
        DataMessage::new(Tuple::from_base(Arc::new(BaseTuple::new(
            SourceId(source),
            seq,
            Timestamp::from_millis(ts_ms),
            vals.iter().map(|&v| Value::int(v)).collect(),
        ))))
    }

    fn eddy(policy: RoutingPolicy) -> EddyOperator {
        EddyOperator::new(
            "eddy",
            3,
            PredicateSet::clique(3),
            Window::new(Duration::from_secs(60)),
            policy,
        )
    }

    #[test]
    fn produces_full_join_results() {
        let mut op = eddy(RoutingPolicy::Fixed);
        let mut metrics = RunMetrics::new();
        // Clique over A,B,C: A=(toB,toC), B=(toA,toC), C=(toA,toB).
        let mut ctx = OpContext::new(Timestamp::ZERO, &mut metrics);
        assert!(op
            .process(0, &msg(0, 0, 0, &[1, 2]), &mut ctx)
            .results
            .is_empty());
        let mut ctx = OpContext::new(Timestamp::from_millis(10), &mut metrics);
        assert!(op
            .process(1, &msg(1, 0, 10, &[1, 3]), &mut ctx)
            .results
            .is_empty());
        let mut ctx = OpContext::new(Timestamp::from_millis(20), &mut metrics);
        let out = op.process(2, &msg(2, 0, 20, &[2, 3]), &mut ctx);
        assert_eq!(out.results.len(), 1);
        assert_eq!(out.results[0].tuple.num_parts(), 3);
        assert_eq!(op.stem_len(SourceId(0)), 1);
        assert_eq!(op.stem_len(SourceId(2)), 1);
    }

    #[test]
    fn non_matching_tuple_produces_nothing() {
        let mut op = eddy(RoutingPolicy::SmallestStateFirst);
        let mut metrics = RunMetrics::new();
        let mut ctx = OpContext::new(Timestamp::ZERO, &mut metrics);
        op.process(0, &msg(0, 0, 0, &[1, 2]), &mut ctx);
        let mut ctx = OpContext::new(Timestamp::from_millis(10), &mut metrics);
        let out = op.process(2, &msg(2, 0, 10, &[9, 9]), &mut ctx);
        assert!(out.results.is_empty());
    }

    #[test]
    fn expired_tuples_are_purged_from_all_stems() {
        let mut op = eddy(RoutingPolicy::Fixed);
        let mut metrics = RunMetrics::new();
        let mut ctx = OpContext::new(Timestamp::ZERO, &mut metrics);
        op.process(0, &msg(0, 0, 0, &[1, 2]), &mut ctx);
        let mut ctx = OpContext::new(Timestamp::from_millis(120_000), &mut metrics);
        op.process(1, &msg(1, 0, 120_000, &[1, 3]), &mut ctx);
        assert_eq!(op.stem_len(SourceId(0)), 0);
        assert_eq!(op.stem_len(SourceId(1)), 1);
    }

    #[test]
    fn routing_policies_visit_smallest_first() {
        let mut op = eddy(RoutingPolicy::SmallestStateFirst);
        let mut metrics = RunMetrics::new();
        let mut ctx = OpContext::new(Timestamp::ZERO, &mut metrics);
        // Two B tuples, one C tuple.
        op.process(1, &msg(1, 0, 0, &[1, 3]), &mut ctx);
        op.process(1, &msg(1, 1, 0, &[1, 3]), &mut ctx);
        op.process(2, &msg(2, 0, 0, &[2, 3]), &mut ctx);
        // Route order from source 0 should put the C STeM (1 tuple) before B (2).
        assert_eq!(op.route_order(0), vec![2, 1]);
        let fixed = eddy(RoutingPolicy::Fixed);
        assert_eq!(fixed.route_order(0), vec![1, 2]);
    }

    #[test]
    fn metadata() {
        let op = eddy(RoutingPolicy::Fixed);
        assert_eq!(op.num_sources(), 3);
        assert_eq!(op.num_ports(), 3);
        assert_eq!(op.output_schema(), SourceSet::first_n(3));
        assert_eq!(op.memory_bytes(), 0);
    }
}
