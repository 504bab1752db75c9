//! Building executable plans from shapes.

use crate::shapes::{JoinNode, PlanInput, PlanShape};
use jit_core::policy::ExecutionMode;
use jit_core::{JitJoinOperator, Producer};
use jit_exec::operator::{Operator, OperatorId};
use jit_exec::{
    ExecutablePlan, Input, PlanBuilder, PlanError, RefJoinOperator, SelectionOperator,
    StateIndexMode,
};
use jit_types::{FastMap, FilterPredicate, PredicateSet, SourceId, SourceSet, Window};

/// Cross-cutting plan-construction options threaded from the engine builder
/// down to every operator.
#[derive(Debug, Clone, Default)]
pub struct PlanOptions {
    /// How operator states answer probes: hash-partitioned on the equi-join
    /// key (the default) or the historical nested-loop scan.
    pub index_mode: StateIndexMode,
    /// Constant filters (`A.x > 200`): each filtered source is routed
    /// through a [`SelectionOperator`] chain before reaching its join port.
    pub filters: Vec<FilterPredicate>,
}

impl PlanOptions {
    /// Default options with an explicit index mode.
    pub fn with_index_mode(index_mode: StateIndexMode) -> Self {
        PlanOptions {
            index_mode,
            ..PlanOptions::default()
        }
    }
}

/// Build an executable binary-join-tree plan for the given shape and
/// execution mode.
///
/// * [`ExecutionMode::Ref`] instantiates [`RefJoinOperator`]s (no feedback);
/// * [`ExecutionMode::Doe`] and [`ExecutionMode::Jit`] instantiate
///   [`JitJoinOperator`]s under the corresponding policy.
///
/// [`PlanOptions`] select the index mode of every operator state and wire
/// per-source selections (filters).
///
/// Filters are stateless single-source conditions; each filtered source
/// feeds a [`SelectionOperator`] chain (one operator per filter, in input
/// order) whose output replaces the raw source at every join port that
/// consumed it. Selections are plan-level pre-filters in every execution
/// mode — they forward or drop, never withhold, so they need no feedback
/// handling and JIT's suspension semantics are unaffected.
pub fn build_tree_plan_with(
    shape: &PlanShape,
    predicates: &PredicateSet,
    window: Window,
    mode: ExecutionMode,
    options: &PlanOptions,
) -> Result<ExecutablePlan, PlanError> {
    let mut builder = PlanBuilder::new();
    // Group filters by source and build one selection chain per filtered
    // source; joins then consume the chain's tail instead of the raw source.
    let mut filtered_source: FastMap<u16, OperatorId> = FastMap::default();
    for filter in &options.filters {
        let source = filter.column.source;
        let input = match filtered_source.get(&source.0) {
            Some(&prev) => Input::Operator(prev),
            None => Input::Source(source),
        };
        let op = SelectionOperator::new(
            format!("σ {filter}"),
            filter.clone(),
            SourceSet::single(source),
        );
        let id = builder.add_operator(Box::new(op), vec![input]);
        filtered_source.insert(source.0, id);
    }
    let mut op_ids: Vec<OperatorId> = Vec::new();
    let schemas = shape.node_schemas();
    let nodes = shape.nodes();
    for node in &nodes {
        let left_schema = resolve_schema(node.left, &schemas);
        let right_schema = resolve_schema(node.right, &schemas);
        let name = format!("{}⋈{}", left_schema, right_schema);
        let operator: Box<dyn Operator> = match mode.policy() {
            None => Box::new(
                RefJoinOperator::new(name, left_schema, right_schema, predicates.clone(), window)
                    .with_state_index(options.index_mode),
            ),
            Some(policy) => Box::new(
                JitJoinOperator::new(
                    name,
                    left_schema,
                    right_schema,
                    predicates.clone(),
                    window,
                    policy,
                )
                .fed_by([node.left, node.right].map(|input| producer_of(input, &nodes, &schemas)))
                .with_state_index(options.index_mode),
            ),
        };
        let left_input = resolve_input_filtered(node.left, &op_ids, &filtered_source);
        let right_input = resolve_input_filtered(node.right, &op_ids, &filtered_source);
        let id = builder.add_operator(operator, vec![left_input, right_input]);
        op_ids.push(id);
    }
    builder.build()
}

/// What feeds a join port: an earlier join of the shape with its two input
/// schemas, or — a raw source, filtered through a selection chain or not —
/// something that cannot act on feedback.
fn producer_of(input: PlanInput, nodes: &[JoinNode], node_schemas: &[SourceSet]) -> Producer {
    match input {
        PlanInput::Source(_) => Producer::Passive,
        PlanInput::Node(i) => Producer::Join {
            left: resolve_schema(nodes[i].left, node_schemas),
            right: resolve_schema(nodes[i].right, node_schemas),
        },
    }
}

fn resolve_schema(input: PlanInput, node_schemas: &[SourceSet]) -> SourceSet {
    match input {
        PlanInput::Source(i) => SourceSet::single(SourceId(i as u16)),
        PlanInput::Node(i) => node_schemas[i],
    }
}

fn resolve_input_filtered(
    input: PlanInput,
    ops: &[OperatorId],
    filtered: &FastMap<u16, OperatorId>,
) -> Input {
    match input {
        PlanInput::Source(i) => match filtered.get(&(i as u16)) {
            Some(&selection) => Input::Operator(selection),
            None => Input::Source(SourceId(i as u16)),
        },
        PlanInput::Node(i) => Input::Operator(ops[i]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jit_core::policy::JitPolicy;

    #[test]
    fn ref_tree_plan_has_one_operator_per_join() {
        for n in 3..=8 {
            let shape = PlanShape::bushy(n);
            let plan = build_tree_plan_with(
                &shape,
                &PredicateSet::clique(n),
                Window::minutes(5.0),
                ExecutionMode::Ref,
                &PlanOptions::default(),
            )
            .unwrap();
            assert_eq!(plan.num_operators(), n - 1);
            assert_eq!(plan.sinks().len(), 1);
        }
    }

    #[test]
    fn jit_tree_plan_uses_jit_operators() {
        let shape = PlanShape::left_deep(4);
        let plan = build_tree_plan_with(
            &shape,
            &PredicateSet::clique(4),
            Window::minutes(5.0),
            ExecutionMode::Jit(JitPolicy::full()),
            &PlanOptions::default(),
        )
        .unwrap();
        // All operator names follow the schema⋈schema convention, and the
        // description mentions the sink.
        let desc = plan.describe();
        assert!(desc.contains("(sink)"));
        assert_eq!(plan.num_operators(), 3);
    }

    /// The `tests/cql_filters.rs` query under JIT, every A arriving before
    /// its B partner: both join ports are fed by something that cannot act
    /// on feedback — B raw, A through its selection — so nothing is detected.
    #[test]
    fn a_selection_fed_port_counts_as_source_fed() {
        use jit_exec::Executor;
        use jit_types::{BaseTuple, Timestamp, Value};
        use std::sync::Arc;

        let query = crate::cql::parse_cql(
            "SELECT * FROM A [RANGE 5 minutes], B [RANGE 5 minutes] \
             WHERE A.x = B.x AND A.x > 5",
        )
        .unwrap();
        let options = PlanOptions {
            filters: query.filter_predicates().unwrap(),
            ..PlanOptions::default()
        };
        let plan = build_tree_plan_with(
            &PlanShape::left_deep(2),
            &query.predicates().unwrap(),
            query.window(),
            ExecutionMode::Jit(JitPolicy::full()),
            &options,
        )
        .unwrap();
        assert_eq!(plan.num_operators(), 2);
        let mut exec = Executor::with_defaults(plan);
        for v in 1..=10u64 {
            for (source, ts) in [(0, v * 1_000), (1, v * 1_000 + 10)] {
                let tuple = BaseTuple::new(
                    SourceId(source),
                    v,
                    Timestamp::from_millis(ts),
                    vec![Value::int(v as i64)],
                );
                exec.ingest(SourceId(source), Arc::new(tuple));
            }
        }
        assert_eq!(exec.results_count(), 5);
        let stats = &exec.metrics().stats;
        assert_eq!((stats.mns_detected, stats.mns_buffer_probes), (0, 0));
    }

    /// A port fed by a join does report: the top join of a left-deep plan
    /// suspends production at `A⋈B`.
    #[test]
    fn a_join_fed_port_reports_to_its_producer() {
        use jit_exec::Executor;
        use jit_stream::{WorkloadGenerator, WorkloadSpec};

        let spec = WorkloadSpec::leftdeep_default()
            .with_sources(3)
            .with_dmax(8)
            .with_duration(jit_types::Duration::from_secs(120));
        let plan = build_tree_plan_with(
            &PlanShape::left_deep(3),
            &PredicateSet::clique(3),
            spec.window(),
            ExecutionMode::Jit(JitPolicy::full()),
            &PlanOptions::default(),
        )
        .unwrap();
        let mut exec = Executor::with_defaults(plan);
        for event in WorkloadGenerator::generate(&spec).iter() {
            exec.ingest(event.source, event.tuple.clone());
        }
        let stats = &exec.metrics().stats;
        assert!(stats.mns_detected > 0 && stats.feedback_suspend > 0);
        assert!(stats.blacklisted_tuples > 0);
    }

    #[test]
    fn doe_mode_builds() {
        let plan = build_tree_plan_with(
            &PlanShape::bushy(4),
            &PredicateSet::clique(4),
            Window::minutes(5.0),
            ExecutionMode::Doe,
            &PlanOptions::default(),
        )
        .unwrap();
        assert_eq!(plan.num_operators(), 3);
    }
}
