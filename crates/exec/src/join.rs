//! The window join REF and JIT share, and REF itself.
//!
//! [`WindowJoin`] is the classic purge–probe–insert routine for
//! sliding-window joins (Kang et al., the paper's reference \[16\]): two
//! [`OperatorState`]s, one purge, one probe loop with one window check
//! ([`WindowJoin::in_window`]) and result assembly, one insert. Probes go
//! through the state's hash index on the equi-join key, or scan
//! ([`StateIndexMode::Scan`]).
//!
//! REF is the window join alone ([`RefJoinOperator`]): no feedback, every
//! intermediate result stored. The JIT join (`jit-core`) adds a consumer and
//! a producer half around it; each probe takes the per-pair test that
//! decides a match, REF's being [`join_matches`].

use crate::operator::{DataMessage, OpContext, Operator, OperatorOutput, Port, LEFT, RIGHT};
use crate::state::{JoinKeySpec, OperatorState, SpecHits, StateIndexMode, StoredTuple};
use jit_metrics::{CostKind, RunMetrics};
use jit_types::{PredicateSet, SourceSet, Timestamp, Tuple, Window};
use serde::Content;

/// The port opposite `port`.
pub fn opposite(port: Port) -> Port {
    port ^ 1
}

/// REF's test of a candidate pair inside the window: every predicate
/// spanning the two holds. A probe passes it to [`WindowJoin::probe`].
pub fn join_matches(
    predicates: &PredicateSet,
    input: &Tuple,
    stored: &StoredTuple,
    evals: &mut u64,
    _: &mut RunMetrics,
) -> bool {
    predicates.join_matches(input, &stored.tuple, evals)
}

/// Binary sliding-window equi-join: two states, purge, probe, insert.
#[derive(Debug)]
pub struct WindowJoin {
    name: String,
    /// Schema of each input port.
    schemas: [SourceSet; 2],
    predicates: PredicateSet,
    window: Window,
    /// Per side, the tuples stored from that port's inputs.
    states: [OperatorState; 2],
    /// Per port, the full-key spec probing the *opposite* state with an
    /// input on that port, derived once from the predicates spanning the
    /// two schemas.
    probe_specs: [JoinKeySpec; 2],
    /// Reusable candidate buffer — cleared and refilled per probe so
    /// steady state allocates nothing.
    hits: Vec<u64>,
}

/// The REF baseline: the window join alone, with no feedback.
pub type RefJoinOperator = WindowJoin;

impl WindowJoin {
    /// Create a join whose left/right inputs produce tuples covering
    /// `left_schema` / `right_schema`. Only the predicates spanning the two
    /// schemas are evaluated here; the full set is retained so composite
    /// outputs can be checked by downstream operators.
    pub fn new(
        name: impl Into<String>,
        left_schema: SourceSet,
        right_schema: SourceSet,
        predicates: PredicateSet,
        window: Window,
    ) -> Self {
        let name = name.into();
        WindowJoin {
            states: [
                OperatorState::new(format!("{name}.SL")),
                OperatorState::new(format!("{name}.SR")),
            ],
            probe_specs: [
                JoinKeySpec::between(&predicates, right_schema, left_schema),
                JoinKeySpec::between(&predicates, left_schema, right_schema),
            ],
            hits: Vec::new(),
            name,
            schemas: [left_schema, right_schema],
            predicates,
            window,
        }
    }

    /// Select how the two states answer probes (default
    /// [`StateIndexMode::Hashed`]).
    pub fn with_state_index(mut self, mode: StateIndexMode) -> Self {
        for state in &mut self.states {
            state.set_index_mode(mode);
        }
        self
    }

    /// Schema of the inputs on `port`.
    pub fn schema(&self, port: Port) -> SourceSet {
        self.schemas[port]
    }

    /// The join predicates (the whole query's).
    pub fn predicates(&self) -> &PredicateSet {
        &self.predicates
    }

    /// The sliding window.
    pub fn window(&self) -> Window {
        self.window
    }

    /// The state holding `side`'s inputs.
    pub fn state(&self, side: Port) -> &OperatorState {
        &self.states[side]
    }

    /// The state holding `side`'s inputs, for an owner that drains or
    /// restores entries of its own.
    pub fn state_mut(&mut self, side: Port) -> &mut OperatorState {
        &mut self.states[side]
    }

    /// May `a` and `b` join under the window? The one join-time window
    /// check: Section II's `|a.ts − b.ts| ≤ w`.
    pub fn in_window(&self, a: &Tuple, b: &Tuple) -> bool {
        self.window.can_join(a.ts(), b.ts())
    }

    /// Remove every tuple expired by `now` from both states, handing each to
    /// `on_removed` with its side; returns how many were removed.
    pub fn purge(&mut self, now: Timestamp, mut on_removed: impl FnMut(Port, &Tuple)) -> usize {
        let window = self.window;
        let mut purged = 0;
        for (side, state) in self.states.iter_mut().enumerate() {
            purged += state.purge_with(window, now, |tuple| on_removed(side, tuple));
        }
        purged
    }

    /// Probe the state opposite `port` for the partners of `input` and join
    /// each accepted one into a result, in insertion order. Every candidate
    /// is charged as a probe pair; one [`WindowJoin::in_window`] of `input`
    /// goes to `accept`, which counts its predicate evaluations. The
    /// candidates are the full key's, or, when a settling JIT port passes
    /// its per-source specs, the same handles found through one index per
    /// spec, with what each found left in the [`SpecHits`].
    pub fn probe(
        &mut self,
        port: Port,
        input: &Tuple,
        per_source: Option<(&[JoinKeySpec], &mut SpecHits)>,
        metrics: &mut RunMetrics,
        mut accept: impl FnMut(&PredicateSet, &Tuple, &StoredTuple, &mut u64, &mut RunMetrics) -> bool,
    ) -> Vec<DataMessage> {
        debug_assert_eq!(input.sources(), self.schemas[port]);
        let opp = &mut self.states[opposite(port)];
        let mut hits = std::mem::take(&mut self.hits);
        match per_source {
            Some((specs, found)) => opp.probe_union_into(specs, input, found, &mut hits),
            None => opp.probe_into(&self.probe_specs[port], input, &mut hits),
        }
        let mut results = Vec::new();
        let mut evals = 0u64;
        for stored in hits
            .iter()
            .filter_map(|&seq| self.states[opposite(port)].get(seq))
        {
            metrics.charge(CostKind::ProbePair, 1);
            if self.in_window(input, &stored.tuple)
                && accept(&self.predicates, input, stored, &mut evals, metrics)
            {
                // `join` fails exactly when the coverages overlap.
                if let Ok(tuple) = input.join(&stored.tuple) {
                    metrics.charge(CostKind::ResultBuild, 1);
                    results.push(DataMessage::new(tuple));
                }
            }
        }
        metrics.charge(CostKind::PredicateEval, evals);
        self.hits = hits;
        results
    }

    /// A settling port's membership probe: is some tuple of the opposite
    /// state among those `found` lists for the specs in `members` (bit `i`
    /// for spec `i`) in the window of `input` and passed by `accept`? Every
    /// candidate examined is charged as a probe pair, and the evaluations
    /// `accept` counts.
    pub fn any_partner(
        &mut self,
        port: Port,
        input: &Tuple,
        (found, members): (&SpecHits, u64),
        metrics: &mut RunMetrics,
        mut accept: impl FnMut(&PredicateSet, &Tuple, &StoredTuple, &mut u64) -> bool,
    ) -> bool {
        let mut hits = std::mem::take(&mut self.hits);
        found.union_into(members, &mut hits);
        let mut evals = 0u64;
        let state = &self.states[opposite(port)];
        let hit = hits.iter().filter_map(|&seq| state.get(seq)).any(|stored| {
            metrics.charge(CostKind::ProbePair, 1);
            self.in_window(input, &stored.tuple)
                && accept(&self.predicates, input, stored, &mut evals)
        });
        metrics.charge(CostKind::PredicateEval, evals);
        self.hits = hits;
        hit
    }

    /// Store `tuple` in `port`'s state under the owner's `stamp` (0 for
    /// REF, which keeps none).
    pub fn insert(&mut self, port: Port, tuple: Tuple, stamp: u64, metrics: &mut RunMetrics) {
        self.states[port].restore(StoredTuple { tuple, stamp });
        metrics.charge(CostKind::StateInsert, 1);
    }
}

impl Operator for WindowJoin {
    fn name(&self) -> &str {
        &self.name
    }

    fn output_schema(&self) -> SourceSet {
        self.schemas[LEFT].union(self.schemas[RIGHT])
    }

    fn num_ports(&self) -> usize {
        2
    }

    fn process(
        &mut self,
        port: Port,
        msg: &DataMessage,
        ctx: &mut OpContext<'_>,
    ) -> OperatorOutput {
        debug_assert!(port == LEFT || port == RIGHT);
        let purged = self.purge(ctx.now, |_, _| {});
        ctx.metrics.charge(CostKind::StatePurge, purged as u64);
        ctx.metrics.stats.state_probes += 1;
        let results = self.probe(port, &msg.tuple, None, ctx.metrics, join_matches);
        self.insert(port, msg.tuple.clone(), 0, ctx.metrics);
        OperatorOutput::with_results(results)
    }

    fn memory_bytes(&self) -> usize {
        self.states[LEFT].size_bytes() + self.states[RIGHT].size_bytes()
    }

    fn checkpoint(&self) -> Content {
        Content::Map(vec![
            ("left".to_string(), self.states[LEFT].checkpoint()),
            ("right".to_string(), self.states[RIGHT].checkpoint()),
        ])
    }

    fn restore(&mut self, state: &Content) -> Result<(), serde::Error> {
        let map = state
            .as_map()
            .ok_or_else(|| serde::Error::expected("object", "RefJoinOperator"))?;
        let field = |name| serde::field::<Content>(map, name, "RefJoinOperator");
        self.states[LEFT].restore_checkpoint(&field("left")?)?;
        self.states[RIGHT].restore_checkpoint(&field("right")?)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jit_metrics::RunMetrics;
    use jit_types::{BaseTuple, Duration, SourceId, Timestamp, Tuple, Value};
    use std::sync::Arc;

    impl WindowJoin {
        fn left_len(&self) -> usize {
            self.states[LEFT].len()
        }

        fn right_len(&self) -> usize {
            self.states[RIGHT].len()
        }
    }

    fn setup() -> RefJoinOperator {
        // Two sources A (id 0) and B (id 1); predicate A.x0 = B.x0.
        RefJoinOperator::new(
            "A⋈B",
            SourceSet::single(SourceId(0)),
            SourceSet::single(SourceId(1)),
            PredicateSet::clique(2),
            Window::new(Duration::from_secs(60)),
        )
    }

    fn msg(source: u16, seq: u64, ts_ms: u64, val: i64) -> DataMessage {
        DataMessage::new(Tuple::from_base(Arc::new(BaseTuple::new(
            SourceId(source),
            seq,
            Timestamp::from_millis(ts_ms),
            vec![Value::int(val)],
        ))))
    }

    fn process(
        op: &mut RefJoinOperator,
        port: Port,
        m: &DataMessage,
        metrics: &mut RunMetrics,
    ) -> OperatorOutput {
        let now = m.tuple.ts();
        let mut ctx = OpContext::new(now, metrics);
        op.process(port, m, &mut ctx)
    }

    #[test]
    fn matching_tuples_join() {
        let mut op = setup();
        let mut metrics = RunMetrics::new();
        // b1 arrives first: no partners yet.
        let out = process(&mut op, RIGHT, &msg(1, 0, 0, 7), &mut metrics);
        assert!(out.results.is_empty());
        assert_eq!(op.right_len(), 1);
        // a1 with matching value joins b1.
        let out = process(&mut op, LEFT, &msg(0, 0, 1_000, 7), &mut metrics);
        assert_eq!(out.results.len(), 1);
        assert_eq!(out.results[0].tuple.num_parts(), 2);
        assert_eq!(op.left_len(), 1);
        // a2 with a different value does not join.
        let out = process(&mut op, LEFT, &msg(0, 1, 2_000, 8), &mut metrics);
        assert!(out.results.is_empty());
        assert_eq!(op.left_len(), 2);
        assert_eq!(metrics.stats.state_insertions, 3);
        // Indexed probing examines only candidates: a1 met b1's bucket, a2's
        // value has no bucket at all.
        assert_eq!(metrics.stats.probe_pairs, 1);
    }

    #[test]
    fn scan_mode_examines_every_stored_tuple() {
        let mut op = setup().with_state_index(crate::state::StateIndexMode::Scan);
        let mut metrics = RunMetrics::new();
        process(&mut op, RIGHT, &msg(1, 0, 0, 7), &mut metrics);
        process(&mut op, LEFT, &msg(0, 0, 1_000, 7), &mut metrics);
        let out = process(&mut op, LEFT, &msg(0, 1, 2_000, 8), &mut metrics);
        assert!(out.results.is_empty());
        // The scan baseline pays one probe pair per stored opposite tuple.
        assert_eq!(metrics.stats.probe_pairs, 2);
    }

    #[test]
    fn multiple_partners_produce_multiple_results() {
        let mut op = setup();
        let mut metrics = RunMetrics::new();
        for i in 0..3 {
            process(&mut op, RIGHT, &msg(1, i, i * 10, 5), &mut metrics);
        }
        let out = process(&mut op, LEFT, &msg(0, 0, 1_000, 5), &mut metrics);
        assert_eq!(out.results.len(), 3);
    }

    #[test]
    fn expired_tuples_do_not_join_and_are_purged() {
        let mut op = setup();
        let mut metrics = RunMetrics::new();
        process(&mut op, RIGHT, &msg(1, 0, 0, 7), &mut metrics);
        // 2 minutes later (window is 1 minute) the b tuple has expired.
        let out = process(&mut op, LEFT, &msg(0, 0, 120_000, 7), &mut metrics);
        assert!(out.results.is_empty());
        assert_eq!(op.right_len(), 0);
        assert_eq!(metrics.stats.purged_tuples, 1);
    }

    #[test]
    fn window_boundary_is_inclusive() {
        let mut op = setup();
        let mut metrics = RunMetrics::new();
        process(&mut op, RIGHT, &msg(1, 0, 0, 7), &mut metrics);
        // Exactly w apart: |t - t'| = w is allowed to join per Section II,
        // but the stored tuple expires at ts + w, so purge removes it first.
        let out = process(&mut op, LEFT, &msg(0, 0, 60_000, 7), &mut metrics);
        assert!(out.results.is_empty());
        // Just inside the window it joins.
        let mut op = setup();
        let mut metrics = RunMetrics::new();
        process(&mut op, RIGHT, &msg(1, 0, 0, 7), &mut metrics);
        let out = process(&mut op, LEFT, &msg(0, 0, 59_999, 7), &mut metrics);
        assert_eq!(out.results.len(), 1);
    }

    #[test]
    fn memory_tracks_both_states() {
        let mut op = setup();
        let mut metrics = RunMetrics::new();
        assert_eq!(op.memory_bytes(), 0);
        process(&mut op, LEFT, &msg(0, 0, 0, 1), &mut metrics);
        process(&mut op, RIGHT, &msg(1, 0, 10, 1), &mut metrics);
        assert!(op.memory_bytes() > 0);
        assert_eq!(
            op.memory_bytes(),
            op.states[LEFT].size_bytes() + op.states[RIGHT].size_bytes()
        );
    }

    #[test]
    fn schema_and_ports() {
        let op = setup();
        assert_eq!(op.num_ports(), 2);
        assert_eq!(op.output_schema(), SourceSet::first_n(2));
        assert_eq!(op.name(), "A⋈B");
    }

    #[test]
    fn composite_inputs_join_on_spanning_predicates() {
        // Operator joining AB with C under the 3-source clique.
        let mut op = RefJoinOperator::new(
            "AB⋈C",
            SourceSet::first_n(2),
            SourceSet::single(SourceId(2)),
            PredicateSet::clique(3),
            Window::new(Duration::from_secs(60)),
        );
        let mut metrics = RunMetrics::new();
        // Build an AB composite: A(x_b=1, x_c=9), B(x_a=1, x_c=4).
        let a = Tuple::from_base(Arc::new(BaseTuple::new(
            SourceId(0),
            0,
            Timestamp::from_millis(0),
            vec![Value::int(1), Value::int(9)],
        )));
        let b = Tuple::from_base(Arc::new(BaseTuple::new(
            SourceId(1),
            0,
            Timestamp::from_millis(5),
            vec![Value::int(1), Value::int(4)],
        )));
        let ab = DataMessage::new(a.join(&b).unwrap());
        let mut ctx = OpContext::new(ab.tuple.ts(), &mut metrics);
        assert!(op.process(LEFT, &ab, &mut ctx).results.is_empty());
        // C must match A on x0=9 and B on x1=4.
        let c_good = msg(2, 0, 100, 0);
        let c_good = DataMessage::new(Tuple::from_base(Arc::new(BaseTuple::new(
            SourceId(2),
            0,
            c_good.tuple.ts(),
            vec![Value::int(9), Value::int(4)],
        ))));
        let mut ctx = OpContext::new(c_good.tuple.ts(), &mut metrics);
        let out = op.process(RIGHT, &c_good, &mut ctx);
        assert_eq!(out.results.len(), 1);
        assert_eq!(out.results[0].tuple.num_parts(), 3);
        // A C tuple matching A but not B does not join.
        let c_bad = DataMessage::new(Tuple::from_base(Arc::new(BaseTuple::new(
            SourceId(2),
            1,
            Timestamp::from_millis(200),
            vec![Value::int(9), Value::int(5)],
        ))));
        let mut ctx = OpContext::new(c_bad.tuple.ts(), &mut metrics);
        assert!(op.process(RIGHT, &c_bad, &mut ctx).results.is_empty());
    }
}
