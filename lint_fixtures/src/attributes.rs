// An exemption is an `#[expect(…, reason = "…")]` that still matches a finding.
#[allow(dead_code)] //~ clippy::allow_attributes clippy::allow_attributes_without_reason
fn unused() {}

#[expect(dead_code)] //~ clippy::allow_attributes_without_reason
fn unreasoned() {}

#[expect(clippy::unwrap_used, reason = "stale: nothing here unwraps")] //~ unfulfilled_lint_expectations
pub fn nothing_to_unwrap(values: &[u64]) -> Option<u64> {
    values.first().copied()
}
