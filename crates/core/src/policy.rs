//! JIT configuration knobs.
//!
//! Section III-A stresses that the framework is flexible: a consumer "may
//! choose not to detect all MNSs", a producer "may decide to ignore the
//! message", and Section IV-B lists an optional refinement (similar-tuple
//! capture). [`JitPolicy`] exposes these choices so the ablation benchmarks
//! can quantify each one, and so the DOE baseline falls out as a preset.

/// How a consumer detects minimal non-demanded sub-tuples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MnsDetection {
    /// Full `Identify_MNS` over the CNS lattice (Figure 8): finds every MNS.
    FullLattice,
    /// Bloom-filter probe per join attribute: cheaper, detects only
    /// single-component MNSs and may miss some (Section IV-A).
    Bloom,
    /// Only the empty tuple Ø is detected, when the opposite state is empty —
    /// this is exactly the DOE baseline subsumed by JIT (Section II).
    EmptyStateOnly,
}

/// Configuration of the JIT mechanism for one operator (or a whole plan).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JitPolicy {
    /// MNS detection strategy used in the consumer role.
    pub(crate) detection: MnsDetection,
    /// Capture "similar" tuples (identical join-attribute signature) into the
    /// blacklist, so records like `a2` in the running example are suppressed
    /// together with `a1` (Section IV-B).
    pub capture_similar: bool,
    /// Propagate feedback to upstream operators (Section III-C). Without it,
    /// JIT only affects the immediate producer.
    pub(crate) propagate_feedback: bool,
    /// Number of bits in each Bloom filter (only used with
    /// [`MnsDetection::Bloom`]).
    pub(crate) bloom_bits: usize,
    /// Number of hash functions per Bloom filter.
    pub(crate) bloom_hashes: usize,
}

impl Default for JitPolicy {
    fn default() -> Self {
        JitPolicy::full()
    }
}

impl JitPolicy {
    /// The full JIT configuration used for the paper's headline results.
    pub fn full() -> Self {
        JitPolicy {
            detection: MnsDetection::FullLattice,
            capture_similar: true,
            propagate_feedback: true,
            bloom_bits: 4096,
            bloom_hashes: 3,
        }
    }

    /// The DOE baseline: suspend a producer only when the consumer's opposite
    /// state is empty.
    pub(crate) fn doe() -> Self {
        JitPolicy {
            detection: MnsDetection::EmptyStateOnly,
            capture_similar: false,
            propagate_feedback: true,
            ..JitPolicy::full()
        }
    }

    /// Bloom-filter detection: cheaper consumer-side cost, fewer MNSs found.
    pub fn bloom() -> Self {
        JitPolicy {
            detection: MnsDetection::Bloom,
            ..JitPolicy::full()
        }
    }

    /// Disable similar-tuple capture (ablation).
    pub fn without_similar_capture(mut self) -> Self {
        self.capture_similar = false;
        self
    }

    /// Disable feedback propagation (ablation).
    pub fn without_propagation(mut self) -> Self {
        self.propagate_feedback = false;
        self
    }
}

/// Which execution strategy a plan is built for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExecutionMode {
    /// The reference solution: plain window joins, no feedback (the paper's
    /// REF).
    Ref,
    /// Demand-driven operator execution: JIT restricted to Ø MNSs.
    Doe,
    /// Full JIT with the given policy.
    Jit(JitPolicy),
}

impl ExecutionMode {
    /// Short label used in reports and plots.
    pub fn label(&self) -> &'static str {
        match self {
            ExecutionMode::Ref => "REF",
            ExecutionMode::Doe => "DOE",
            ExecutionMode::Jit(_) => "JIT",
        }
    }

    /// The JIT policy to apply, if any.
    pub fn policy(&self) -> Option<JitPolicy> {
        match self {
            ExecutionMode::Ref => None,
            ExecutionMode::Doe => Some(JitPolicy::doe()),
            ExecutionMode::Jit(p) => Some(*p),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_policy_enables_everything() {
        let p = JitPolicy::full();
        assert_eq!(p.detection, MnsDetection::FullLattice);
        assert!(p.capture_similar);
        assert!(p.propagate_feedback);
    }

    #[test]
    fn doe_policy_is_empty_state_only() {
        let p = JitPolicy::doe();
        assert_eq!(p.detection, MnsDetection::EmptyStateOnly);
        assert!(!p.capture_similar);
    }

    #[test]
    fn ablation_builders() {
        let p = JitPolicy::full().without_similar_capture();
        assert!(!p.capture_similar);
        let p = JitPolicy::full().without_propagation();
        assert!(!p.propagate_feedback);
        let p = JitPolicy::bloom();
        assert_eq!(p.detection, MnsDetection::Bloom);
    }

    #[test]
    fn execution_mode_labels_and_policies() {
        assert_eq!(ExecutionMode::Ref.label(), "REF");
        assert_eq!(ExecutionMode::Doe.label(), "DOE");
        assert_eq!(ExecutionMode::Jit(JitPolicy::full()).label(), "JIT");
        assert!(ExecutionMode::Ref.policy().is_none());
        assert_eq!(
            ExecutionMode::Doe.policy().unwrap().detection,
            MnsDetection::EmptyStateOnly
        );
        assert_eq!(
            ExecutionMode::Jit(JitPolicy::bloom())
                .policy()
                .unwrap()
                .detection,
            MnsDetection::Bloom
        );
    }

    #[test]
    fn default_is_full() {
        assert_eq!(JitPolicy::default(), JitPolicy::full());
    }
}
