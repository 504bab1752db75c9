//! The CNS lattice and the `Identify_MNS` algorithm (Section IV-A, Figure 8).
//!
//! For an input tuple `t` arriving at a consumer, the *candidate
//! non-demanded sub-tuples* (CNSs) are the combinations of `t`'s components
//! that appear in the consumer's join predicate towards the opposite input.
//! They form a lattice ordered by the sub-tuple relation (Figure 7). The
//! algorithm matches every lattice node against every tuple of the opposite
//! state and finally reports the *minimal* nodes that were never matched —
//! these are the MNSs.
//!
//! Two structural properties make this efficient (and are unit-tested here):
//!
//! 1. a node is matched by a state tuple iff **all** its level-1 descendants
//!    are (so per state tuple we only need the set of matched components);
//! 2. node death (having been matched at least once) is *downward closed*:
//!    if a node has been matched, every sub-tuple of it has been matched too,
//!    hence the alive set is upward closed and the MNSs are exactly the alive
//!    nodes all of whose children are dead.

use jit_metrics::{CostKind, RunMetrics};
use jit_types::SourceSet;

/// One node of the CNS lattice: a non-empty subset of the candidate sources.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CnsNode {
    sources: SourceSet,
    alive: bool,
}

/// The CNS lattice for one input tuple.
///
/// The lattice is built over *sources* rather than concrete sub-tuples:
/// a node's concrete sub-tuple is obtained by projecting the input tuple onto
/// the node's source set.
#[derive(Debug, Clone)]
pub struct CnsLattice {
    nodes: Vec<CnsNode>,
    candidates: SourceSet,
}

impl CnsLattice {
    /// Build the lattice over the given candidate sources (the components of
    /// the input tuple that appear in the consumer's join predicate towards
    /// the opposite input).
    ///
    /// The number of nodes is `2^|candidates| − 1`; the paper's experiments
    /// go up to 4 candidate components per input (15 nodes).
    pub fn new(candidates: SourceSet) -> Self {
        Self::restricted(candidates, |_| true)
    }

    /// The lattice over `candidates` holding only the nodes `keep` accepts,
    /// in [`CnsLattice::new`]'s node order.
    ///
    /// When `keep` is closed under subsets — every non-empty subset of a
    /// kept node is kept — [`CnsLattice::minimal_alive`] over the restricted
    /// lattice is exactly the full lattice's answer filtered by `keep`:
    /// whether a node is an MNS depends on the node and its subsets only.
    /// The JIT join uses this to leave out the nodes its producer could not
    /// act on (those spanning both of the producer's inputs).
    pub(crate) fn restricted(candidates: SourceSet, keep: impl Fn(SourceSet) -> bool) -> Self {
        let nodes = candidates
            .non_empty_subsets()
            .into_iter()
            .filter(|&sources| keep(sources))
            .map(|sources| CnsNode {
                sources,
                alive: true,
            })
            .collect();
        CnsLattice { nodes, candidates }
    }

    /// The candidate source set the lattice was built over.
    pub(crate) fn candidates(&self) -> SourceSet {
        self.candidates
    }

    /// Make every node alive again — the lattice as [`CnsLattice::new`]
    /// built it, for the next input with the same candidates.
    pub(crate) fn reset(&mut self) {
        for node in &mut self.nodes {
            node.alive = true;
        }
    }

    /// Number of lattice nodes (excluding Ø).
    #[cfg(test)]
    fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Are all nodes dead (every CNS has found a match)? When true the caller
    /// can stop scanning the opposite state early.
    pub(crate) fn all_dead(&self) -> bool {
        self.nodes.iter().all(|n| !n.alive)
    }

    /// Record the outcome of matching the input's components against one
    /// opposite-state tuple: `matched_components` is the set of candidate
    /// sources whose level-1 predicates towards that tuple all hold.
    ///
    /// Per property (1), a node is matched by this tuple iff its source set
    /// is a subset of `matched_components`; matched nodes die.
    pub fn observe(&mut self, matched_components: SourceSet, metrics: &mut RunMetrics) {
        let mut visited = 0u64;
        for node in &mut self.nodes {
            if !node.alive {
                continue;
            }
            visited += 1;
            if node.sources.is_subset(matched_components) {
                node.alive = false;
            }
        }
        metrics.charge(CostKind::LatticeNode, visited);
    }

    /// Is the node for `sources` still alive (never fully matched)?
    ///
    /// Used by the hash-indexed probe path, which establishes each node's
    /// death with one membership probe per node (largest nodes first, so a
    /// hit also kills every sub-node via [`CnsLattice::observe`]) instead of
    /// observing every stored tuple. Unknown source sets report as dead.
    pub(crate) fn is_alive(&self, sources: SourceSet) -> bool {
        self.nodes.iter().any(|n| n.sources == sources && n.alive)
    }

    /// The minimal alive nodes — the MNSs — as source sets.
    ///
    /// Because aliveness is upward closed, these are the alive nodes none of
    /// whose proper subsets (within the lattice) are alive.
    pub fn minimal_alive(&self) -> Vec<SourceSet> {
        self.minimal_alive_iter().collect()
    }

    /// [`CnsLattice::minimal_alive`] without the `Vec`, in the same order.
    pub(crate) fn minimal_alive_iter(&self) -> impl Iterator<Item = SourceSet> + '_ {
        let alive = || self.nodes.iter().filter(|n| n.alive);
        alive()
            .filter(move |node| {
                !alive().any(|other| {
                    other.sources != node.sources && other.sources.is_subset(node.sources)
                })
            })
            .map(|node| node.sources)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jit_types::SourceId;

    fn set(ids: &[u16]) -> SourceSet {
        SourceSet::from_iter(ids.iter().map(|&i| SourceId(i)))
    }

    #[test]
    fn lattice_size_matches_subset_count() {
        let l = CnsLattice::new(set(&[0, 1, 2, 3]));
        assert_eq!(l.num_nodes(), 15);
        assert_eq!(l.candidates(), set(&[0, 1, 2, 3]));
        let empty = CnsLattice::new(SourceSet::EMPTY);
        assert_eq!(empty.num_nodes(), 0);
    }

    #[test]
    fn unmatched_singletons_are_reported_as_mns() {
        // Candidates {a, b}; a state tuple matches b only.
        let mut metrics = RunMetrics::new();
        let mut l = CnsLattice::new(set(&[0, 1]));
        l.observe(set(&[1]), &mut metrics);
        let mns = l.minimal_alive();
        // a never matched; ab never matched but contains alive child a → only a is minimal.
        assert_eq!(mns, vec![set(&[0])]);
        assert!(metrics.stats.lattice_nodes_visited > 0);
    }

    #[test]
    fn paper_example_figure5_scenario() {
        // Input abcd at Op4; SE has matching records of b and d, but not a, c.
        // Expected MNSs: {a} and {c} (ac is an NPR but not minimal).
        let mut metrics = RunMetrics::new();
        let mut l = CnsLattice::new(set(&[0, 1, 2, 3]));
        // A single E tuple matching components b and d.
        l.observe(set(&[1, 3]), &mut metrics);
        let mns = l.minimal_alive();
        assert_eq!(mns, vec![set(&[0]), set(&[2])]);
    }

    #[test]
    fn higher_level_mns_when_singletons_match_separately() {
        // Section IV-A discussion: e1 matches a, e2 matches c, but no single
        // tuple matches both — so ac is an MNS while a and c are not.
        let mut metrics = RunMetrics::new();
        let mut l = CnsLattice::new(set(&[0, 2]));
        l.observe(set(&[0]), &mut metrics); // e1 matches a only
        l.observe(set(&[2]), &mut metrics); // e2 matches c only
        let mns = l.minimal_alive();
        assert_eq!(mns, vec![set(&[0, 2])]);
    }

    #[test]
    fn fully_matched_tuple_has_no_mns() {
        let mut metrics = RunMetrics::new();
        let mut l = CnsLattice::new(set(&[0, 1]));
        l.observe(set(&[0, 1]), &mut metrics);
        assert!(l.all_dead());
        assert!(l.minimal_alive().is_empty());
    }

    #[test]
    fn no_observation_means_every_singleton_is_mns() {
        // An empty opposite state is special-cased by the caller (Ø MNS), but
        // a lattice that saw no observations reports all singletons.
        let l = CnsLattice::new(set(&[0, 1, 2]));
        assert_eq!(l.minimal_alive(), vec![set(&[0]), set(&[1]), set(&[2])]);
    }

    #[test]
    fn death_is_permanent_across_observations() {
        // A node that matched once stays dead even if later tuples don't match it.
        let mut metrics = RunMetrics::new();
        let mut l = CnsLattice::new(set(&[0, 1]));
        l.observe(set(&[0]), &mut metrics); // a matches
        l.observe(set(&[]), &mut metrics); // nothing matches
        let mns = l.minimal_alive();
        // a is dead; b is alive and minimal; ab has alive child b → not minimal.
        assert_eq!(mns, vec![set(&[1])]);
    }

    #[test]
    fn reset_revives_every_node() {
        let mut metrics = RunMetrics::new();
        let mut l = CnsLattice::new(set(&[0, 1]));
        l.observe(set(&[0, 1]), &mut metrics);
        assert!(l.all_dead());
        l.reset();
        assert_eq!(
            l.minimal_alive(),
            CnsLattice::new(set(&[0, 1])).minimal_alive()
        );
        assert_eq!(l.minimal_alive(), vec![set(&[0]), set(&[1])]);
    }

    /// Leaving out the nodes that span both of a producer's inputs loses
    /// nothing a producer could act on: over every candidate set of up to
    /// four sources, every way to split it between two producer inputs and
    /// every reachable lattice state, the restricted lattice reports the
    /// full lattice's MNSs that lie inside one input, in the same order.
    #[test]
    fn restricted_lattice_reports_the_one_sided_mnss_of_the_full_one() {
        let mut metrics = RunMetrics::new();
        let mut states = 0;
        for candidates in set(&[0, 1, 2, 3]).non_empty_subsets() {
            let subsets = candidates.non_empty_subsets();
            for family in 0u32..(1 << subsets.len()) {
                let observed: Vec<SourceSet> = (0..subsets.len())
                    .filter(|i| family & (1 << i) != 0)
                    .map(|i| subsets[i])
                    .collect();
                // A lattice state is the down-closure of what was observed,
                // so antichains of observations reach every state once.
                let redundant = |a: &SourceSet| observed.iter().any(|b| a != b && a.is_subset(*b));
                if observed.iter().any(redundant) {
                    continue;
                }
                states += 1;
                let mut full = CnsLattice::new(candidates);
                for &matched in &observed {
                    full.observe(matched, &mut metrics);
                }
                for left in std::iter::once(SourceSet::EMPTY).chain(subsets.iter().copied()) {
                    let right = candidates.difference(left);
                    let one_sided = |n: SourceSet| n.is_subset(left) || n.is_subset(right);
                    let mut restricted = CnsLattice::restricted(candidates, one_sided);
                    for &matched in &observed {
                        restricted.observe(matched, &mut metrics);
                    }
                    let expected: Vec<SourceSet> = full
                        .minimal_alive_iter()
                        .filter(|&n| one_sided(n))
                        .collect();
                    assert_eq!(
                        restricted.minimal_alive(),
                        expected,
                        "candidates {candidates}, inputs {left} / {right}, observed {observed:?}"
                    );
                }
            }
        }
        // 4 one-source, 6 two-source, 4 three-source and 1 four-source
        // candidate sets with 2, 5, 19 and 167 antichains each.
        assert_eq!(states, 4 * 2 + 6 * 5 + 4 * 19 + 167);
    }

    #[test]
    fn restricted_lattice_keeps_the_node_order_of_the_full_one() {
        let l = CnsLattice::restricted(set(&[0, 1, 2]), |n| {
            n.is_subset(set(&[0, 1])) || n.len() == 1
        });
        assert_eq!(l.num_nodes(), 4);
        assert_eq!(l.candidates(), set(&[0, 1, 2]));
        assert_eq!(l.minimal_alive(), vec![set(&[0]), set(&[1]), set(&[2])]);
        assert!(l.is_alive(set(&[0, 1])) && !l.is_alive(set(&[0, 2])));
    }

    #[test]
    fn all_dead_enables_early_exit() {
        let mut metrics = RunMetrics::new();
        let mut l = CnsLattice::new(set(&[0]));
        assert!(!l.all_dead());
        l.observe(set(&[0]), &mut metrics);
        assert!(l.all_dead());
        let visits_before = metrics.stats.lattice_nodes_visited;
        // Observing after everything is dead visits nothing.
        l.observe(set(&[0]), &mut metrics);
        assert_eq!(metrics.stats.lattice_nodes_visited, visits_before);
    }

    #[test]
    fn minimality_never_reports_a_supertuple_of_another_mns() {
        // Property (i) of Section IV-A, checked exhaustively on a 3-candidate
        // lattice for every pattern of observations.
        for pattern in 0u32..(1 << 3) {
            let mut metrics = RunMetrics::new();
            let mut l = CnsLattice::new(set(&[0, 1, 2]));
            // One observation whose matched set is given by `pattern`.
            let matched =
                SourceSet::from_iter((0..3u16).filter(|i| pattern & (1 << i) != 0).map(SourceId));
            l.observe(matched, &mut metrics);
            let mns = l.minimal_alive();
            for a in &mns {
                for b in &mns {
                    if a != b {
                        assert!(!a.is_subset(*b), "MNS {a} is a subset of MNS {b}");
                    }
                }
            }
        }
    }
}
