//! Scenario tests taken directly from the paper's narrative: the Table I
//! arrival sequence, the Figure 5 five-way propagation example, the
//! Section V extensions, and the Table II plan catalogue.

use jit_core::{JitJoinOperator, JitSelectionOperator};
use jit_dsms::prelude::*;
use jit_exec::operator::Operator;
use jit_exec::{Input, PlanBuilder, RefJoinOperator};
use jit_types::{BaseTuple, FilterPredicate};
use std::sync::Arc;

fn base(source: u16, seq: u64, ts_s: u64, values: Vec<i64>) -> Arc<BaseTuple> {
    Arc::new(BaseTuple::new(
        SourceId(source),
        seq,
        Timestamp::from_secs(ts_s),
        values.into_iter().map(Value::int).collect(),
    ))
}

/// Predicates of Figure 1: A.x = B.x ∧ A.y = C.y.
fn figure1_predicates() -> PredicateSet {
    PredicateSet::from_predicates(vec![
        EquiPredicate::new(
            ColumnRef::new(SourceId(0), 0),
            ColumnRef::new(SourceId(1), 0),
        ),
        EquiPredicate::new(
            ColumnRef::new(SourceId(0), 1),
            ColumnRef::new(SourceId(2), 0),
        ),
    ])
}

fn figure1_plan(mode: ExecutionMode) -> Executor {
    let predicates = figure1_predicates();
    let window = Window::new(Duration::from_mins(5));
    let mut builder = PlanBuilder::new();
    let op1: Box<dyn Operator> = match mode.policy() {
        None => Box::new(RefJoinOperator::new(
            "A⋈B",
            SourceSet::single(SourceId(0)),
            SourceSet::single(SourceId(1)),
            predicates.clone(),
            window,
        )),
        Some(policy) => Box::new(JitJoinOperator::new(
            "A⋈B",
            SourceSet::single(SourceId(0)),
            SourceSet::single(SourceId(1)),
            predicates.clone(),
            window,
            policy,
        )),
    };
    let op1 = builder.add_operator(
        op1,
        vec![Input::Source(SourceId(0)), Input::Source(SourceId(1))],
    );
    let op2: Box<dyn Operator> = match mode.policy() {
        None => Box::new(RefJoinOperator::new(
            "AB⋈C",
            SourceSet::first_n(2),
            SourceSet::single(SourceId(2)),
            predicates.clone(),
            window,
        )),
        Some(policy) => Box::new(JitJoinOperator::new(
            "AB⋈C",
            SourceSet::first_n(2),
            SourceSet::single(SourceId(2)),
            predicates,
            window,
            policy,
        )),
    };
    builder.add_operator(op2, vec![Input::Operator(op1), Input::Source(SourceId(2))]);
    Executor::new(builder.build().unwrap(), ExecutorConfig::default())
}

/// The arrival sequence of Table I extended with the resuming tuple c1 from
/// Section III-A.
fn table1_arrivals() -> Vec<(u16, Arc<BaseTuple>)> {
    vec![
        // A non-matching C tuple so S_C is non-empty (the paper's narrative
        // detects the component MNS a1, not the degenerate Ø).
        (2, base(2, 99, 0, vec![999])),
        (1, base(1, 1, 0, vec![1])),
        (1, base(1, 2, 0, vec![1])),
        (1, base(1, 3, 0, vec![1])),
        (0, base(0, 1, 1, vec![1, 100])),
        (1, base(1, 4, 2, vec![1])),
        (0, base(0, 2, 3, vec![1, 100])),
        (2, base(2, 1, 4, vec![100])),
    ]
}

#[test]
fn table1_jit_produces_the_same_final_results_with_fewer_partials() {
    let mut ref_exec = figure1_plan(ExecutionMode::Ref);
    let mut jit_exec = figure1_plan(ExecutionMode::Jit(JitPolicy::full()));
    for (source, tuple) in table1_arrivals() {
        ref_exec.ingest(SourceId(source), tuple.clone());
        jit_exec.ingest(SourceId(source), tuple);
    }
    // Section III-A: when c1 arrives, 7 results a*b*c1 are reported (a1 and
    // a2 each join b1..b4, minus the pre-produced a1b1 which also joins) —
    // in total 2 × 4 = 8 results.
    assert_eq!(ref_exec.results_count(), 8);
    assert_eq!(jit_exec.results_count(), 8);
    assert!(output::same_results(ref_exec.results(), jit_exec.results()));
    let ref_partials = ref_exec.metrics().stats.intermediate_produced;
    let jit_partials = jit_exec.metrics().stats.intermediate_produced;
    // REF materialises a1b1..a1b4 and a2b1..a2b4 eagerly (8 partials);
    // JIT produces the first probe's batch eagerly and the rest just in time,
    // but never more than REF.
    assert_eq!(ref_partials, 8);
    assert!(jit_partials <= ref_partials);
    assert!(jit_exec.metrics().stats.feedback_suspend >= 1);
    assert!(jit_exec.metrics().stats.feedback_resume >= 1);
    assert!(jit_exec.metrics().stats.blacklisted_tuples >= 1);
}

#[test]
fn doe_on_table1_also_agrees() {
    let mut ref_exec = figure1_plan(ExecutionMode::Ref);
    let mut doe_exec = figure1_plan(ExecutionMode::Doe);
    for (source, tuple) in table1_arrivals() {
        ref_exec.ingest(SourceId(source), tuple.clone());
        doe_exec.ingest(SourceId(source), tuple);
    }
    assert!(output::same_results(ref_exec.results(), doe_exec.results()));
}

#[test]
fn all_table2_plans_run_under_every_mode() {
    // Small workload, every Table II shape, every mode: plans build, execute,
    // and agree with REF.
    let modes = [
        ExecutionMode::Ref,
        ExecutionMode::Doe,
        ExecutionMode::Jit(JitPolicy::full()),
    ];
    let shapes: Vec<PlanShape> = (3..=8)
        .map(PlanShape::bushy)
        .chain((3..=6).map(PlanShape::left_deep))
        .collect();
    for shape in shapes {
        let spec = WorkloadSpec::bushy_default()
            .with_sources(shape.num_sources)
            .with_window_minutes(30.0)
            .with_rate(0.8)
            .with_dmax(6)
            .with_duration(Duration::from_secs(90))
            .with_seed(13);
        let trace = WorkloadGenerator::generate(&spec);
        let outcomes = Engine::builder()
            .workload(&spec, &shape)
            .compare(&trace, &modes)
            .unwrap();
        let reference = &outcomes[0];
        for other in &outcomes[1..] {
            assert!(
                output::same_results(&reference.results, &other.results),
                "{} differs from REF on {}",
                other.mode_label,
                shape.label()
            );
        }
    }
}

#[test]
fn selection_consumer_suppresses_upstream_production() {
    // Figure 9a: Op1 = A⋈B (JIT), Op2 = σ A.x > 200.
    let predicates = PredicateSet::from_predicates(vec![EquiPredicate::new(
        ColumnRef::new(SourceId(0), 0),
        ColumnRef::new(SourceId(1), 0),
    )]);
    let window = Window::new(Duration::from_mins(5));
    let mut builder = PlanBuilder::new();
    let op1 = builder.add_operator(
        Box::new(JitJoinOperator::new(
            "A⋈B",
            SourceSet::single(SourceId(0)),
            SourceSet::single(SourceId(1)),
            predicates,
            window,
            JitPolicy::full(),
        )),
        vec![Input::Source(SourceId(0)), Input::Source(SourceId(1))],
    );
    builder.add_operator(
        Box::new(JitSelectionOperator::new(
            "σ A.x1>200",
            FilterPredicate::gt(ColumnRef::new(SourceId(0), 1), 200),
            SourceSet::first_n(2),
        )),
        vec![Input::Operator(op1)],
    );
    let mut exec = Executor::new(builder.build().unwrap(), ExecutorConfig::default());
    // a1 fails the filter (x1 = 100): after its first joined output reaches
    // the selection, Op1 is told to stop joining a1.
    exec.ingest(SourceId(1), base(1, 1, 0, vec![7]));
    exec.ingest(SourceId(0), base(0, 1, 1, vec![7, 100]));
    exec.ingest(SourceId(1), base(1, 2, 2, vec![7]));
    exec.ingest(SourceId(1), base(1, 3, 3, vec![7]));
    // a2 passes the filter and joins all three b tuples.
    exec.ingest(SourceId(0), base(0, 2, 4, vec![7, 300]));
    assert_eq!(exec.results_count(), 3);
    let stats = exec.metrics().stats;
    assert!(stats.feedback_suspend >= 1);
    // REF would have produced 1 + 3·1 + 3 = 7 partials; JIT suppresses the
    // later a1 joins.
    assert!(
        stats.intermediate_produced < 7,
        "got {}",
        stats.intermediate_produced
    );
}
