//! The consumer half of the JIT join (`Process_Input`, Figure 6; Sections
//! III-A and IV-A).
//!
//! An input the producer half lets through probes the opposite port's MNS
//! buffer (a match resumes the MNS at the opposite producer), then the
//! opposite state through [`WindowJoin::probe`], feeding the port's CNS
//! lattice, and reports the MNSs it detected to its own producer.
//!
//! Detection is demand-driven: a port looks only for the MNSs its producer
//! can act on ([`Producer`], stated by the plan builder). Fed by a source or
//! a selection chain it looks for none and its probe passes REF's
//! [`join_matches`]: it runs REF's code, with no lattice, membership probe,
//! MNS buffer entry, feedback or Bloom filter. Fed by a join it leaves out
//! the MNSs spanning both of that join's inputs. Ignoring a message is
//! always legal (Section IV-B), so not sending one the receiver would
//! ignore changes no suppression decision.

use crate::bloom::BloomFilter;
use crate::jit_join::JitJoinOperator;
use crate::lattice::CnsLattice;
use crate::mns_buffer::MnsBuffer;
use crate::policy::MnsDetection;
use jit_exec::operator::{DataMessage, Operator, Port, LEFT};
use jit_exec::{join_matches, opposite, JoinKeySpec, StateIndexMode, StoredTuple, WindowJoin};
use jit_metrics::{CostKind, RunMetrics};
use jit_types::{ColumnRef, FastMap, Feedback, PredicateSet, SourceSet, Timestamp, Tuple};

/// Bits in each Bloom filter of a port under [`MnsDetection::Bloom`].
const BLOOM_BITS: usize = 4096;
/// Hash functions per Bloom filter.
const BLOOM_HASHES: usize = 3;

/// What feeds one input port of a [`JitJoinOperator`], i.e. which of the
/// port's MNSs a `<suspend>` could do anything about. A fact of the plan,
/// fixed when the plan is built ([`JitJoinOperator::fed_by`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Producer {
    /// Not stated (an operator constructed outside a plan builder): every
    /// MNS is detected, buffered and reported.
    #[default]
    Unknown,
    /// A raw source or a selection chain. Neither withholds production, so
    /// feedback to it is dropped and the port detects nothing, Ø included.
    Passive,
    /// A join with these two input schemas. It acts on Ø and on an MNS lying
    /// inside one of its inputs; one spanning both (Type II, Section IV-B)
    /// it ignores.
    Join {
        /// Schema of the producer's left input.
        left: SourceSet,
        /// Schema of the producer's right input.
        right: SourceSet,
    },
}

impl Producer {
    /// Does the port report anything at all?
    pub(crate) fn listens(self) -> bool {
        self != Producer::Passive
    }

    /// Would the producer act on feedback naming an MNS with this coverage?
    pub(crate) fn acts_on(self, coverage: SourceSet) -> bool {
        match self {
            Producer::Unknown => true,
            Producer::Passive => false,
            Producer::Join { left, right } => coverage.is_subset(left) || coverage.is_subset(right),
        }
    }
}

/// The consumer half of one port.
pub(crate) struct Consumer {
    /// What feeds the port, hence which MNSs it detects and reports.
    pub(crate) fed_by: Producer,
    /// MNSs detected on this port's inputs, awaiting a partner.
    pub(crate) mns_buffer: MnsBuffer,
    /// Bloom filters over this port's state, per join column; only the
    /// opposite port's detection reads them (under [`MnsDetection::Bloom`]).
    pub(crate) bloom: FastMap<ColumnRef, BloomFilter>,
    /// One spec per candidate source (ascending): the stored columns of the
    /// opposite state paired with that source's. A settling port probes the
    /// opposite state through these alone; the full key is their union, so
    /// its bucket is the intersection of theirs.
    pub(crate) source_specs: Vec<JoinKeySpec>,
    /// The lattice nodes (the subsets of the candidate sources the producer
    /// acts on) in settling order, largest first — precomputed so the
    /// hashed probe path allocates and sorts nothing per tuple. A node keeps
    /// no spec: a singleton's membership probe is its source's entry in
    /// `source_specs`, and a larger node's settling list is the
    /// intersection of its members' lists.
    nodes: Vec<SourceSet>,
    /// The port's lattice, kept from input to input (they share their
    /// candidates), so that a call that finds nothing allocates nothing.
    lattice: Option<CnsLattice>,
}

impl Consumer {
    /// The consumer half of `port` of `join`, fed by [`Producer::Unknown`].
    pub(crate) fn new(join: &WindowJoin, port: Port) -> Self {
        let (predicates, opp_schema) = (join.predicates(), join.schema(opposite(port)));
        let candidates = predicates.sources_facing(join.schema(port), opp_schema);
        let mut nodes = candidates.non_empty_subsets();
        nodes.sort_by_key(|s| std::cmp::Reverse(s.len()));
        Consumer {
            fed_by: Producer::Unknown,
            mns_buffer: MnsBuffer::new(match (join.name(), port) {
                (name, LEFT) => format!("{name}.NB_L"),
                (name, _) => format!("{name}.NB_R"),
            }),
            bloom: FastMap::default(),
            source_specs: candidates
                .iter()
                .map(|source| {
                    JoinKeySpec::between(predicates, opp_schema, SourceSet::single(source))
                })
                .collect(),
            nodes,
            lattice: None,
        }
    }

    /// State what feeds the port: it keeps only the nodes its producer acts on.
    pub(crate) fn feed(&mut self, producer: Producer) {
        self.fed_by = producer;
        self.nodes.retain(|node| producer.acts_on(*node));
    }

    /// An all-alive lattice over the subsets of `candidates` the port
    /// reports: the port's previous one, reset, unless this input's
    /// candidates differ.
    fn fresh_lattice(&mut self, candidates: SourceSet) -> CnsLattice {
        match self.lattice.take() {
            Some(mut lattice) if lattice.candidates() == candidates => {
                lattice.reset();
                lattice
            }
            _ => CnsLattice::restricted(candidates, |node| self.fed_by.acts_on(node)),
        }
    }
}

/// The positions of `node`'s sources among `candidates` (ascending), as a
/// bit mask: which per-source probes a node's settling list intersects.
fn members_of(candidates: SourceSet, node: SourceSet) -> u64 {
    candidates
        .iter()
        .enumerate()
        .filter(|&(_, source)| node.contains(source))
        .fold(0, |mask, (i, _)| mask | 1 << i)
}

/// For one (input, stored) pair, the set of candidate components of the
/// input whose predicates towards the stored tuple all hold.
fn matched_components(
    predicates: &PredicateSet,
    input: &Tuple,
    stored: &Tuple,
    candidates: SourceSet,
    evals: &mut u64,
) -> SourceSet {
    let mut matched = SourceSet::EMPTY;
    for source in candidates.iter() {
        // `holds_across` on the component alone, without projecting it
        // out of the input first: only its own columns have a value.
        let own = |col: ColumnRef| (col.source == source).then(|| input.value(col)).flatten();
        let all_hold = predicates.predicates().iter().all(|p| {
            if !p.spans(SourceSet::single(source), stored.sources()) {
                return true;
            }
            *evals += 1;
            match (own(p.left), stored.value(p.right)) {
                (Some(a), Some(b)) => a == b,
                _ => match (own(p.right), stored.value(p.left)) {
                    (Some(a), Some(b)) => a == b,
                    _ => true,
                },
            }
        });
        if all_hold {
            matched.insert(source);
        }
    }
    matched
}

impl JitJoinOperator {
    /// The candidate sources of an input on `port`: its components that are
    /// referenced by a predicate towards the opposite schema.
    pub(crate) fn candidate_sources(&self, tuple: &Tuple, port: Port) -> SourceSet {
        let opp_schema = self.join.schema(opposite(port));
        self.join
            .predicates()
            .sources_facing(tuple.sources(), opp_schema)
    }

    /// Does `port` settle lattice nodes for an input with these candidate
    /// sources? It does when its producer listens, detection walks the
    /// lattice, the opposite state hashes and there are two candidates or
    /// more — exactly when a node other than the full key can need a
    /// membership probe. A settling port probes the opposite state only
    /// through its per-source specs, so the state never builds the full-key
    /// index or one per multi-source node.
    pub(crate) fn settles(&self, port: Port, candidates: SourceSet) -> bool {
        self.consumers[port].fed_by.listens()
            && self.policy.detection == MnsDetection::FullLattice
            && self.join.state(opposite(port)).index_mode() == StateIndexMode::Hashed
            && candidates.len() >= 2
    }

    /// Resume, at the producer of `port`, the MNSs buffered there that
    /// `partner` matches.
    pub(crate) fn resume_partnered(
        &mut self,
        port: Port,
        partner: &Tuple,
        metrics: &mut RunMetrics,
        feedback: &mut Vec<(Port, Feedback)>,
    ) {
        let (predicates, window) = (self.join.predicates(), self.join.window());
        let matching = self.consumers[port]
            .mns_buffer
            .take_matching(partner, predicates, window, metrics);
        if !matching.is_empty() {
            feedback.push((port, Feedback::resume(matching)));
        }
    }

    /// `Process_Input` for an input on `port` that the producer half let
    /// through, up to its insertion: returns the join results, and pushes
    /// the feedback it raises.
    pub(crate) fn consume(
        &mut self,
        port: Port,
        input: &Tuple,
        now: Timestamp,
        metrics: &mut RunMetrics,
        feedback: &mut Vec<(Port, Feedback)>,
    ) -> Vec<DataMessage> {
        let opp = opposite(port);
        // Step 1: probe the opposite MNS buffer; matches trigger
        // resumption at the opposite producer.
        if !self.consumers[opp].mns_buffer.is_empty() {
            self.resume_partnered(opp, input, metrics, feedback);
        }
        // Step 2: probe the opposite state. A port whose producer does not
        // listen runs REF's probe.
        metrics.stats.state_probes += 1;
        if !self.consumers[port].fed_by.listens() {
            return self.join.probe(port, input, None, metrics, join_matches);
        }
        let candidates = self.candidate_sources(input, port);
        let mut lattice = (self.policy.detection == MnsDetection::FullLattice
            && !self.join.state(opp).is_empty()
            && !candidates.is_empty())
        .then(|| self.consumers[port].fresh_lattice(candidates));
        let settles = self.settles(port, candidates);
        let specs = &self.consumers[port].source_specs[..];
        let per_source = settles.then_some((specs, &mut self.source_hits));
        let results = self.join.probe(
            port,
            input,
            per_source,
            metrics,
            |p, input, stored, evals, metrics| {
                let matched = matched_components(p, input, &stored.tuple, candidates, evals);
                if let Some(l) = lattice.as_mut() {
                    l.observe(matched, metrics);
                }
                matched == candidates
            },
        );
        // The lattice's remaining nodes are settled by one membership probe
        // each (largest first, so a hit also kills the sub-nodes): node S is
        // dead iff some live stored tuple within the window matches every
        // predicate from S — exactly what a scan establishes by observing
        // every stored tuple, which is why `Scan` settles nothing here. The
        // top node is already settled by the full probe above. A node's
        // candidates need no lookup: the full probe already found each
        // source's, and a node takes the intersection of its members'.
        if let Some(l) = lattice.as_mut().filter(|_| settles) {
            for &node in &self.consumers[port].nodes {
                if l.all_dead() {
                    break;
                }
                if node == candidates || !l.is_alive(node) {
                    continue;
                }
                let settled =
                    |p: &PredicateSet, input: &Tuple, stored: &StoredTuple, evals: &mut u64| {
                        matched_components(p, input, &stored.tuple, node, evals) == node
                    };
                let found = (&self.source_hits, members_of(candidates, node));
                let hit = self.join.any_partner(port, input, found, metrics, settled);
                if hit {
                    l.observe(node, metrics);
                }
            }
        }
        // Step 3: detect the MNSs of the input this port's producer acts
        // on, and report them to it.
        self.detect_mns(input, port, candidates, lattice.as_ref(), metrics);
        if lattice.is_some() {
            self.consumers[port].lattice = lattice;
        }
        let mut fresh = Vec::new();
        for mns in self.detected.drain(..) {
            if self.consumers[port].mns_buffer.insert(mns.clone(), now) {
                fresh.push(mns);
            }
        }
        if !fresh.is_empty() {
            metrics.stats.mns_detected += fresh.len() as u64;
            feedback.push((port, Feedback::suspend(fresh)));
        }
        results
    }

    /// MNS detection for an input whose probe of the opposite state has been
    /// summarised in `lattice` (if the full algorithm is active). The MNSs
    /// are appended to `self.detected`.
    fn detect_mns(
        &mut self,
        input: &Tuple,
        port: Port,
        candidates: SourceSet,
        lattice: Option<&CnsLattice>,
        metrics: &mut RunMetrics,
    ) {
        let opp = opposite(port);
        if self.join.state(opp).is_empty() {
            // Figure 8, line 2: an empty opposite state makes Ø the only MNS.
            self.detected.push(Tuple::empty());
            return;
        }
        match self.policy.detection {
            MnsDetection::EmptyStateOnly => {}
            MnsDetection::FullLattice => {
                if let Some(l) = lattice {
                    let minimal = l.minimal_alive_iter();
                    self.detected
                        .extend(minimal.map(|sources| input.project(sources)));
                }
            }
            MnsDetection::Bloom => {
                // A level-1 component is an MNS if any of its equi-join
                // values is definitively absent from the opposite state.
                let opp_schema = self.join.schema(opp);
                for source in candidates.iter() {
                    let single = SourceSet::single(source);
                    let facing = self.join.predicates().predicates().iter();
                    let absent = facing.filter(|p| p.spans(single, opp_schema)).any(|p| {
                        let (own_col, opp_col) = if single.contains(p.left.source) {
                            (p.left, p.right)
                        } else {
                            (p.right, p.left)
                        };
                        let Some(value) = input.value(own_col) else {
                            return false;
                        };
                        metrics.charge(CostKind::BloomCheck, 1);
                        let filter = self.consumers[opp].bloom.get(&opp_col);
                        filter.is_some_and(|filter| filter.definitely_absent(value))
                    });
                    if absent {
                        self.detected.push(input.project(single));
                    }
                }
            }
        }
    }

    /// Record a value insertion in the Bloom filters of `port`'s state,
    /// which only the opposite port's detection reads.
    pub(crate) fn update_bloom(&mut self, port: Port, tuple: &Tuple) {
        if self.policy.detection != MnsDetection::Bloom
            || !self.consumers[opposite(port)].fed_by.listens()
        {
            return;
        }
        let (own_schema, opp_schema) = (self.join.schema(port), self.join.schema(opposite(port)));
        let columns = self.join.predicates().join_columns(own_schema, opp_schema);
        for col in columns {
            if let Some(v) = tuple.value(col) {
                self.consumers[port]
                    .bloom
                    .entry(col)
                    .or_insert_with(|| BloomFilter::new(BLOOM_BITS, BLOOM_HASHES))
                    .insert(v);
            }
        }
    }
}
