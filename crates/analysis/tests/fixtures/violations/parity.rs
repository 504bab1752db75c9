// Seeded violations for rule `counter-parity`: counter sites the fixture
// pairing maps in the test harness variously omit or go stale on.
pub fn process(ctx: &mut Ctx) {
    ctx.metrics.charge(CostKind::ProbePair, 1);
    ctx.metrics.stats.probe_pairs += 1;
}
