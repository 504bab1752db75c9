//! The reference (REF) binary window join.
//!
//! This is the baseline the paper compares JIT against: the classic
//! purge–probe–insert routine for sliding-window joins (Kang et al.,
//! reference \[16\]), storing every generated intermediate result. It never
//! sends or reacts to feedback. Probing goes through the
//! [`OperatorState`] index layer: hash-partitioned on the equi-join key by
//! default, with a nested-loop scan fallback (and
//! [`StateIndexMode::Scan`] forcing the historical behaviour).

use crate::operator::{DataMessage, OpContext, Operator, OperatorOutput, Port, LEFT, RIGHT};
use crate::state::{JoinKeySpec, OperatorState, StateIndexMode};
use jit_metrics::CostKind;
use jit_types::{PredicateSet, SourceSet, Window};
use serde::Content;

/// Binary sliding-window equi-join without feedback (the REF baseline).
#[derive(Debug)]
pub struct RefJoinOperator {
    name: String,
    left_schema: SourceSet,
    right_schema: SourceSet,
    left_state: OperatorState,
    right_state: OperatorState,
    predicates: PredicateSet,
    window: Window,
    /// Key spec for probing the right state with left inputs (and its
    /// mirror): derived once from the predicates spanning the two schemas.
    probe_right_spec: JoinKeySpec,
    probe_left_spec: JoinKeySpec,
    /// Reusable candidate buffer for the probe path — cleared and refilled
    /// per probe so steady state allocates nothing.
    scratch_hits: Vec<u64>,
}

impl RefJoinOperator {
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
        RefJoinOperator {
            left_state: OperatorState::new(format!("{name}.SL")),
            right_state: OperatorState::new(format!("{name}.SR")),
            probe_right_spec: JoinKeySpec::between(&predicates, right_schema, left_schema),
            probe_left_spec: JoinKeySpec::between(&predicates, left_schema, right_schema),
            scratch_hits: Vec::new(),
            name,
            left_schema,
            right_schema,
            predicates,
            window,
        }
    }

    /// Select how the two states answer probes (default
    /// [`StateIndexMode::Hashed`]).
    pub fn with_state_index(mut self, mode: StateIndexMode) -> Self {
        self.left_state.set_index_mode(mode);
        self.right_state.set_index_mode(mode);
        self
    }

    /// The left input's schema.
    pub fn left_schema(&self) -> SourceSet {
        self.left_schema
    }

    /// The right input's schema.
    pub fn right_schema(&self) -> SourceSet {
        self.right_schema
    }

    /// The operator's window.
    pub fn window(&self) -> Window {
        self.window
    }

    /// Number of tuples currently stored in the left state.
    #[cfg(test)]
    fn left_len(&self) -> usize {
        self.left_state.len()
    }

    /// Number of tuples currently stored in the right state.
    #[cfg(test)]
    fn right_len(&self) -> usize {
        self.right_state.len()
    }
}

impl Operator for RefJoinOperator {
    fn name(&self) -> &str {
        &self.name
    }

    fn output_schema(&self) -> SourceSet {
        self.left_schema.union(self.right_schema)
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
        let now = ctx.now;
        let mut hits = std::mem::take(&mut self.scratch_hits);
        let (own_state, opp_state, spec) = if port == LEFT {
            (
                &mut self.left_state,
                &mut self.right_state,
                &self.probe_right_spec,
            )
        } else {
            (
                &mut self.right_state,
                &mut self.left_state,
                &self.probe_left_spec,
            )
        };

        // Purge: drop expired tuples from both states.
        let purged = own_state.purge(self.window, now) + opp_state.purge(self.window, now);
        ctx.metrics.charge(CostKind::StatePurge, purged as u64);

        // Probe: only the candidate partners the index returns (every live
        // tuple, in insertion order, under `Scan`).
        ctx.metrics.stats.state_probes += 1;
        let mut results = Vec::new();
        let mut evals = 0u64;
        opp_state.probe_into(spec, &msg.tuple, &mut hits);
        for entry in hits.iter().filter_map(|&seq| opp_state.get(seq)) {
            ctx.metrics.charge(CostKind::ProbePair, 1);
            if self.window.can_join(msg.tuple.ts(), entry.tuple.ts())
                && self
                    .predicates
                    .join_matches(&msg.tuple, &entry.tuple, &mut evals)
            {
                // `join` fails exactly when the coverages overlap.
                if let Ok(tuple) = msg.tuple.join(&entry.tuple) {
                    ctx.metrics.charge(CostKind::ResultBuild, 1);
                    results.push(DataMessage::new(tuple));
                }
            }
        }
        ctx.metrics.charge(CostKind::PredicateEval, evals);

        // Insert: store the incoming tuple in its own state.
        own_state.insert(msg.tuple.clone(), now);
        ctx.metrics.charge(CostKind::StateInsert, 1);

        hits.clear();
        self.scratch_hits = hits;
        OperatorOutput::with_results(results)
    }

    fn memory_bytes(&self) -> usize {
        self.left_state.size_bytes() + self.right_state.size_bytes()
    }

    fn checkpoint(&self) -> Content {
        Content::Map(vec![
            ("left".to_string(), self.left_state.checkpoint()),
            ("right".to_string(), self.right_state.checkpoint()),
        ])
    }

    fn restore(&mut self, state: &Content) -> Result<(), serde::Error> {
        let map = state
            .as_map()
            .ok_or_else(|| serde::Error::expected("object", "RefJoinOperator"))?;
        self.left_state
            .restore_checkpoint(&serde::field::<Content>(map, "left", "RefJoinOperator")?)?;
        self.right_state
            .restore_checkpoint(&serde::field::<Content>(map, "right", "RefJoinOperator")?)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jit_metrics::RunMetrics;
    use jit_types::{BaseTuple, Duration, SourceId, Timestamp, Tuple, Value};
    use std::sync::Arc;

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
            op.left_state.size_bytes() + op.right_state.size_bytes()
        );
    }

    #[test]
    fn schema_and_ports() {
        let op = setup();
        assert_eq!(op.num_ports(), 2);
        assert_eq!(op.output_schema(), SourceSet::first_n(2));
        assert_eq!(op.name(), "A⋈B");
        assert_eq!(op.window().length, Duration::from_secs(60));
        assert_eq!(op.left_schema(), SourceSet::single(SourceId(0)));
        assert_eq!(op.right_schema(), SourceSet::single(SourceId(1)));
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
