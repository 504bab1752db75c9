//! The JIT-enabled binary window join.
//!
//! This operator plays both roles of the paper's framework (Figure 6):
//!
//! * **Consumer** (`Process_Input`): every arriving tuple first probes the
//!   MNS buffer of the opposite input (possibly triggering resumption
//!   feedback), then the opposite state (producing join results and feeding
//!   the CNS lattice), then reports newly detected MNSs as suspension
//!   feedback to the producer of its own input, and is finally inserted into
//!   its own state. Detection is demand-driven: a port looks only for the
//!   MNSs its producer can act on ([`Producer`], stated by the plan builder).
//!   Fed by a source or a selection chain it looks for none and runs the
//!   plain join path — no lattice, no membership probes, no MNS buffer
//!   entry, no feedback, no Bloom filter on the opposite state; fed by a
//!   join it leaves out the MNSs spanning both of that join's inputs.
//!   Ignoring a message is always legal (Section IV-B), so not sending one
//!   the receiver would ignore changes no suppression decision.
//! * **Producer** (`Handle_Feedback`): suspension feedback drains the
//!   super-tuples of the named MNS (and, optionally, "similar" tuples with
//!   the same join-attribute values) from the corresponding state into a
//!   blacklist and diverts future matching arrivals; resumption feedback
//!   restores them, regenerating exactly the partial results that were never
//!   produced; both kinds are propagated upstream (Section III-C).
//!
//! ## Granularity note (vs the paper)
//!
//! The paper interleaves producer and consumer at the granularity of single
//! probe steps, so a suspension can cut a probe short halfway through. This
//! reproduction processes one input tuple at a time to completion (one probe
//! = one batch of partial results); a suspension therefore takes effect from
//! the *next* input onwards. This only affects the very first batch after an
//! MNS appears — all subsequent suppression, which dominates the savings, is
//! identical — and matches the paper's own treatment of partial results that
//! are already sitting in an inter-operator queue (Section III-B).
//!
//! ## Duplicate avoidance on resumption
//!
//! The paper regenerates, on resumption, the super-tuples "not produced
//! before" using a per-tuple suspension timestamp. When *both* inputs of the
//! same operator have suspended tuples with interleaved suspension/resumption
//! cycles, a single timestamp cannot tell whether a particular pair was
//! already produced. This implementation regenerates a pair iff its
//! members' *presence intervals* in the two states never overlapped, which
//! makes resumed production exactly duplicate-free. The start of a stored
//! tuple's current presence is the stamp in its state slot
//! ([`StoredTuple::stamp`]); only a tuple that has been blacklisted has
//! closed intervals, in a map dropped with its tuple — purged from the state
//! or the blacklist, or found expired on resumption — so nothing beside the
//! states grows with them and a run that suspends nothing keeps no map.

use crate::blacklist::{Blacklist, SuspendMode};
use crate::bloom::BloomFilter;
use crate::lattice::CnsLattice;
use crate::mns_buffer::MnsBuffer;
use crate::policy::{JitPolicy, MnsDetection};
use jit_exec::operator::{
    DataMessage, FeedbackOutcome, OpContext, Operator, OperatorOutput, Port, LEFT, RIGHT,
};
use jit_exec::{JoinKeySpec, OperatorState, SpecHits, StateIndexMode, StoredTuple};
use jit_metrics::CostKind;
use jit_types::{
    ColumnRef, FastMap, Feedback, FeedbackCommand, PredicateSet, SourceSet, Timestamp, Tuple,
    TupleKey, Window,
};
use serde::{Content, Deserialize, Serialize};
use std::sync::Arc;

/// Serialise a hash map as its `(key, value)` pairs sorted by key, so the
/// checkpoint bytes are deterministic regardless of hasher state.
fn sorted_pairs<K: Ord + Clone, V: Clone>(map: &FastMap<K, V>) -> Vec<(K, V)> {
    let mut pairs: Vec<(K, V)> = map.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
    pairs.sort_by(|a, b| a.0.cmp(&b.0));
    pairs
}

/// Closed presence intervals of the tuples that have been blacklisted at
/// least once, expressed in the operator's logical event sequence (one tick
/// per insertion or drain), so that same-millisecond events stay ordered.
type PresenceHistory = FastMap<TupleKey, Vec<(u64, u64)>>;

/// The positions of `node`'s sources among `candidates` (ascending), as a
/// bit mask: which per-source probes a node's settling list intersects.
fn members_of(candidates: SourceSet, node: SourceSet) -> u64 {
    candidates
        .iter()
        .enumerate()
        .filter(|&(_, source)| node.contains(source))
        .fold(0, |mask, (i, _)| mask | 1 << i)
}

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
    fn listens(self) -> bool {
        self != Producer::Passive
    }

    /// Would the producer act on feedback naming an MNS with this coverage?
    fn acts_on(self, coverage: SourceSet) -> bool {
        match self {
            Producer::Unknown => true,
            Producer::Passive => false,
            Producer::Join { left, right } => coverage.is_subset(left) || coverage.is_subset(right),
        }
    }
}

/// Binary sliding-window join with JIT feedback (consumer and producer roles).
pub struct JitJoinOperator {
    name: String,
    left_schema: SourceSet,
    right_schema: SourceSet,
    predicates: PredicateSet,
    window: Window,
    policy: JitPolicy,
    /// Per-port: what feeds the port, hence which MNSs it detects.
    producers: [Producer; 2],
    /// Per-side operator states (index 0 = left, 1 = right).
    states: [OperatorState; 2],
    /// Per-side MNS buffers: MNSs detected on that side's inputs.
    mns_buffers: [MnsBuffer; 2],
    /// Per-side blacklists: suspended tuples drained from that side's state.
    blacklists: [Blacklist; 2],
    /// Per-side presence histories for tuples that have been blacklisted.
    histories: [PresenceHistory; 2],
    /// Logical event counter (ticks on every state insertion or drain). A
    /// stored tuple's stamp is the tick its current presence started at.
    event_seq: u64,
    /// Per-side Bloom filters over the state's join-column values
    /// (only maintained under [`MnsDetection::Bloom`]).
    blooms: [FastMap<ColumnRef, BloomFilter>; 2],
    /// Full-key spec for probing the *opposite* state with an input
    /// arriving on each port, precomputed from the predicates. Only a port
    /// that does not settle probes with it (see [`JitJoinOperator::settles`]).
    probe_specs: [JoinKeySpec; 2],
    /// Per port, one spec per candidate source (ascending): the stored
    /// columns of the opposite state paired with that source's. A settling
    /// port probes the opposite state through these alone; the full key is
    /// their union, so its bucket is the intersection of theirs.
    source_specs: [Vec<JoinKeySpec>; 2],
    /// Per-port lattice nodes (the subsets of the port's candidate sources
    /// its producer acts on) in settling order, largest first — precomputed
    /// so the hashed probe path allocates and sorts nothing per tuple. A
    /// node keeps no spec: a singleton's membership probe is its source's
    /// entry in `source_specs`, and a larger node's settling list is the
    /// intersection of its members' lists.
    nodes: [Vec<SourceSet>; 2],
    /// Per MNS coverage (which fixes the side), the columns used to
    /// recognise tuples "similar" to such an MNS and the spec that finds
    /// the stored tuples carrying its values on them. Filled on the first
    /// suspension of each coverage.
    suspend_shapes: FastMap<SourceSet, (Arc<[ColumnRef]>, JoinKeySpec)>,
    /// Ø-suspension: when set, all inputs are buffered unprocessed.
    fully_suspended: bool,
    /// Inputs buffered while fully suspended, with their arrival instants.
    pending: Vec<(Port, DataMessage, Timestamp)>,
    pending_bytes: usize,
    /// Buffers reused from call to call, so that a call that finds nothing
    /// allocates nothing: state-probe handles, detected MNSs, and each
    /// port's lattice (its inputs share their candidates).
    probe_hits: Vec<u64>,
    /// What a settling port's probe found under each candidate source.
    source_hits: SpecHits,
    detected: Vec<Tuple>,
    lattices: [Option<CnsLattice>; 2],
}

impl JitJoinOperator {
    /// Create a JIT join whose left/right inputs cover the given schemas.
    pub fn new(
        name: impl Into<String>,
        left_schema: SourceSet,
        right_schema: SourceSet,
        predicates: PredicateSet,
        window: Window,
        policy: JitPolicy,
    ) -> Self {
        let name = name.into();
        let schema_of = |port: Port| {
            if port == LEFT {
                left_schema
            } else {
                right_schema
            }
        };
        let probe_specs = [LEFT, RIGHT].map(|port| {
            JoinKeySpec::between(
                &predicates,
                schema_of(Self::opposite(port)),
                schema_of(port),
            )
        });
        let candidates = [LEFT, RIGHT].map(|port| {
            predicates.sources_facing(schema_of(port), schema_of(Self::opposite(port)))
        });
        let source_specs = [LEFT, RIGHT].map(|port| {
            Self::source_specs(
                &predicates,
                schema_of(Self::opposite(port)),
                candidates[port],
            )
        });
        JitJoinOperator {
            states: [
                OperatorState::new(format!("{name}.SL")),
                OperatorState::new(format!("{name}.SR")),
            ],
            probe_specs,
            source_specs,
            nodes: candidates.map(Self::settling_nodes),
            producers: [Producer::Unknown; 2],
            suspend_shapes: FastMap::default(),
            mns_buffers: [
                MnsBuffer::new(format!("{name}.NB_L")),
                MnsBuffer::new(format!("{name}.NB_R")),
            ],
            blacklists: [
                Blacklist::new(format!("{name}.BL_L")),
                Blacklist::new(format!("{name}.BL_R")),
            ],
            histories: [FastMap::default(), FastMap::default()],
            event_seq: 0,
            blooms: [FastMap::default(), FastMap::default()],
            fully_suspended: false,
            pending: Vec::new(),
            pending_bytes: 0,
            probe_hits: Vec::new(),
            source_hits: SpecHits::default(),
            detected: Vec::new(),
            lattices: [None, None],
            name,
            left_schema,
            right_schema,
            predicates,
            window,
            policy,
        }
    }

    /// State what feeds the left and the right port. A port detects, buffers
    /// and reports only the MNSs its producer acts on (see [`Producer`]); a
    /// [`Producer::Passive`] port runs the plain join path. Plan builders
    /// call this with what the plan says; without it both ports are
    /// [`Producer::Unknown`].
    pub fn fed_by(mut self, producers: [Producer; 2]) -> Self {
        self.producers = producers;
        for port in [LEFT, RIGHT] {
            self.nodes[port].retain(|node| producers[port].acts_on(*node));
        }
        self
    }

    /// The subsets of `candidates` in the order the hashed probe path
    /// settles them (largest first).
    fn settling_nodes(candidates: SourceSet) -> Vec<SourceSet> {
        let mut nodes = candidates.non_empty_subsets();
        nodes.sort_by_key(|s| std::cmp::Reverse(s.len()));
        nodes
    }

    /// One spec per source of `candidates`, ascending: the probe of the
    /// state covering `opp_schema` by that source's columns alone.
    fn source_specs(
        predicates: &PredicateSet,
        opp_schema: SourceSet,
        candidates: SourceSet,
    ) -> Vec<JoinKeySpec> {
        candidates
            .iter()
            .map(|source| JoinKeySpec::between(predicates, opp_schema, SourceSet::single(source)))
            .collect()
    }

    /// Does `port` settle lattice nodes for an input with these candidate
    /// sources? It does when its producer listens, detection walks the
    /// lattice, the opposite state hashes and there are two candidates or
    /// more — exactly when a node other than the full key can need a
    /// membership probe. A settling port probes the opposite state only
    /// through one index per candidate source, so the state never builds
    /// the full-key index or one per multi-source node.
    fn settles(&self, port: Port, candidates: SourceSet) -> bool {
        self.producers[port].listens()
            && self.policy.detection == MnsDetection::FullLattice
            && self.states[Self::opposite(port)].index_mode() == StateIndexMode::Hashed
            && candidates.len() >= 2
    }

    /// Probe the state opposite `port` for the partners of `input`, whose
    /// candidate sources are `candidates`: the handles go to `hits`, in
    /// insertion order. A settling port answers from its per-source indexes
    /// and leaves what each found in `per_source`; any other port probes
    /// the full key. Both find the same handles. Returns whether the port
    /// settles.
    fn probe_opposite(
        &mut self,
        port: Port,
        input: &Tuple,
        candidates: SourceSet,
        per_source: &mut SpecHits,
        hits: &mut Vec<u64>,
    ) -> bool {
        let opp = Self::opposite(port);
        // The specs are precomputed per port; fresh ones are derived only
        // for inputs not covering the port's schema exactly (never the case
        // in well-formed plans).
        let covers = input.sources() == self.schema_of(port);
        let settles = self.settles(port, candidates);
        if settles {
            let specs_owned;
            let specs = if covers {
                &self.source_specs[port]
            } else {
                specs_owned = Self::source_specs(&self.predicates, self.schema_of(opp), candidates);
                &specs_owned
            };
            self.states[opp].probe_union_into(specs, input, per_source, hits);
        } else {
            let spec_owned;
            let spec = if covers {
                &self.probe_specs[port]
            } else {
                spec_owned =
                    JoinKeySpec::between(&self.predicates, self.schema_of(opp), input.sources());
                &spec_owned
            };
            self.states[opp].probe_into(spec, input, hits);
        }
        settles
    }

    /// Does `port` report an MNS with this coverage to its producer?
    fn reports(&self, port: Port, coverage: SourceSet) -> bool {
        self.producers[port].acts_on(coverage)
    }

    /// Select how the two operator states and MNS buffers answer probes
    /// (default [`StateIndexMode::Hashed`]).
    ///
    /// Under the hashed mode the consumer probe, the lattice-based MNS
    /// detection, `Resume_Production`'s regeneration probe,
    /// `Suspend_Production`'s state drain and the MNS-buffer match go
    /// through hash indexes; [`StateIndexMode::Scan`] restores the
    /// historical nested-loop behaviour (the two are result- and
    /// feedback-equivalent, see the equivalence suite). The blacklist
    /// diversion check is hashed under both modes.
    pub fn with_state_index(mut self, mode: StateIndexMode) -> Self {
        for state in &mut self.states {
            state.set_index_mode(mode);
        }
        for buffer in &mut self.mns_buffers {
            buffer.set_index_mode(mode);
        }
        self
    }

    /// Schema of one input side.
    fn schema_of(&self, port: Port) -> SourceSet {
        if port == LEFT {
            self.left_schema
        } else {
            self.right_schema
        }
    }

    /// The opposite port.
    fn opposite(port: Port) -> Port {
        if port == LEFT {
            RIGHT
        } else {
            LEFT
        }
    }

    /// Number of tuples in the state of the given side.
    #[cfg(test)]
    fn state_len(&self, port: Port) -> usize {
        self.states[port].len()
    }

    /// Number of MNSs currently buffered for the given side.
    #[cfg(test)]
    fn mns_buffer_len(&self, port: Port) -> usize {
        self.mns_buffers[port].len()
    }

    /// Number of tuples suspended in the blacklist of the given side.
    #[cfg(test)]
    fn blacklist_len(&self, port: Port) -> usize {
        self.blacklists[port].num_tuples()
    }

    /// Is the operator fully suspended (Ø MNS / DOE-style)?
    #[cfg(test)]
    fn is_fully_suspended(&self) -> bool {
        self.fully_suspended
    }

    /// Can a purge at `now` remove anything from any of the six containers?
    /// Each reports its earliest expiry key ([`Window::is_expired`]), so the
    /// common case — nothing has expired since the last arrival — is
    /// answered with six O(1) peeks. A purge that removes nothing charges
    /// nothing and emits no feedback, so eliding it is observationally
    /// identical.
    fn purge_due(&self, now: Timestamp) -> bool {
        [LEFT, RIGHT].into_iter().any(|side| {
            let expired =
                |key: Option<Timestamp>| key.is_some_and(|key| self.window.is_expired(key, now));
            expired(self.states[side].next_expiry())
                || expired(self.blacklists[side].next_expiry())
                || expired(self.mns_buffers[side].next_expiry())
        })
    }

    /// Purge every container and emit resumption feedback for MNSs whose
    /// justification has expired.
    fn purge_all(
        &mut self,
        now: Timestamp,
        ctx: &mut OpContext<'_>,
        output: &mut Vec<(Port, Feedback)>,
    ) {
        if !self.purge_due(now) {
            return;
        }
        let mut purged = 0usize;
        for side in [LEFT, RIGHT] {
            // A tuple that expires leaves for good: drop its presence
            // history with it, if any tuple has one.
            let history = &mut self.histories[side];
            let mut forget = |tuple: &Tuple| {
                if !history.is_empty() {
                    history.remove(&tuple.key());
                }
            };
            purged += self.states[side].purge_with(self.window, now, &mut forget);
            purged += self.blacklists[side].purge(self.window, now, &mut forget);
            let expired = self.mns_buffers[side].take_expired(self.window, now);
            purged += expired.len();
            if !expired.is_empty() {
                // The suspension justification expired: ask the producer of
                // that side to release anything it still holds for these MNSs.
                output.push((side, Feedback::resume(expired)));
            }
        }
        ctx.metrics.charge(CostKind::StatePurge, purged as u64);
    }

    /// The candidate sources of an input on `port`: its components that are
    /// referenced by a predicate towards the opposite schema.
    fn candidate_sources(&self, tuple: &Tuple, port: Port) -> SourceSet {
        self.predicates
            .sources_facing(tuple.sources(), self.schema_of(Self::opposite(port)))
    }

    /// For one (input, stored) pair, the set of candidate components of the
    /// input whose predicates towards the stored tuple all hold.
    fn matched_components(
        &self,
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
            let mut ok = true;
            for p in self.predicates.predicates() {
                if p.spans(SourceSet::single(source), stored.sources()) {
                    *evals += 1;
                    let holds = match (own(p.left), stored.value(p.right)) {
                        (Some(a), Some(b)) => a == b,
                        _ => match (own(p.right), stored.value(p.left)) {
                            (Some(a), Some(b)) => a == b,
                            _ => true,
                        },
                    };
                    if !holds {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                matched.insert(source);
            }
        }
        matched
    }

    /// An all-alive lattice over the subsets of `candidates` the port
    /// reports: the port's previous one, reset, unless this input's
    /// candidates differ.
    fn fresh_lattice(&mut self, port: Port, candidates: SourceSet) -> CnsLattice {
        match self.lattices[port].take() {
            Some(mut lattice) if lattice.candidates() == candidates => {
                lattice.reset();
                lattice
            }
            _ => CnsLattice::restricted(candidates, |node| self.reports(port, node)),
        }
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
        ctx: &mut OpContext<'_>,
    ) {
        let opp = Self::opposite(port);
        if self.states[opp].is_empty() {
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
                for source in candidates.iter() {
                    let single = SourceSet::single(source);
                    let mut absent = false;
                    for p in self.predicates.predicates() {
                        if !p.spans(single, self.schema_of(opp)) {
                            continue;
                        }
                        let (own_col, opp_col) = if single.contains(p.left.source) {
                            (p.left, p.right)
                        } else {
                            (p.right, p.left)
                        };
                        let Some(value) = input.value(own_col) else {
                            continue;
                        };
                        ctx.metrics.charge(CostKind::BloomCheck, 1);
                        if let Some(filter) = self.blooms[opp].get(&opp_col) {
                            if filter.definitely_absent(value) {
                                absent = true;
                                break;
                            }
                        }
                    }
                    if absent {
                        self.detected.push(input.project(single));
                    }
                }
            }
        }
    }

    /// Record a value insertion in the Bloom filters of `port`'s state,
    /// which only the opposite port's detection reads.
    fn update_bloom(&mut self, port: Port, tuple: &Tuple) {
        if self.policy.detection != MnsDetection::Bloom
            || !self.producers[Self::opposite(port)].listens()
        {
            return;
        }
        let own_schema = self.schema_of(port);
        let opp_schema = self.schema_of(Self::opposite(port));
        let columns = self.predicates.join_columns(own_schema, opp_schema);
        for col in columns {
            if let Some(v) = tuple.value(col) {
                self.blooms[port]
                    .entry(col)
                    .or_insert_with(|| {
                        BloomFilter::new(self.policy.bloom_bits, self.policy.bloom_hashes)
                    })
                    .insert(v);
            }
        }
    }

    /// Insert into the state of `side` (normal processing or a restore):
    /// ticks the event clock and starts a presence interval.
    fn insert_present(&mut self, side: Port, tuple: Tuple) {
        self.event_seq += 1;
        let stamp = self.event_seq;
        self.states[side].restore(StoredTuple { tuple, stamp });
    }

    /// Has the pair (restoring tuple with the closed intervals `own_hist`,
    /// tuple `stored` on side `opp`) been produced before? True iff their
    /// presence intervals ever overlapped: a pair is joined exactly when one
    /// member is inserted while the other is present.
    fn produced_before(&self, own_hist: &[(u64, u64)], opp: Port, stored: &StoredTuple) -> bool {
        if own_hist.is_empty() {
            // Diverted on arrival: never present, never joined anything.
            return false;
        }
        let opp_hist = self.histories[opp].get(&stored.tuple.key());
        let opp_hist = opp_hist.map_or(&[][..], Vec::as_slice);
        let overlaps = |a: (u64, u64), b: (u64, u64)| a.0 < b.1 && b.0 < a.1;
        // The opposite tuple's current (ongoing) presence interval.
        let opp_current = (stored.stamp, u64::MAX);
        own_hist.iter().any(|&interval| {
            overlaps(interval, opp_current)
                || opp_hist.iter().any(|&other| overlaps(interval, other))
        })
    }

    /// Enter Ø suspension: every future input is buffered unprocessed.
    fn enter_full_suspension(&mut self) {
        self.fully_suspended = true;
    }

    /// Leave Ø suspension, reprocessing buffered inputs with their original
    /// arrival instants (so purge decisions match what a prompt execution
    /// would have done).
    fn exit_full_suspension(
        &mut self,
        ctx: &mut OpContext<'_>,
    ) -> (Vec<DataMessage>, Vec<(Port, Feedback)>) {
        self.fully_suspended = false;
        let pending = std::mem::take(&mut self.pending);
        self.pending_bytes = 0;
        let mut results = Vec::new();
        let mut feedback = Vec::new();
        for (port, msg, arrived_at) in pending {
            let mut inner = OpContext::new(arrived_at, &mut *ctx.metrics);
            let out = self.process(port, &msg, &mut inner);
            results.extend(out.results);
            feedback.extend(out.feedback);
        }
        (results, feedback)
    }

    /// Handle the suspension of one MNS in the producer role.
    fn suspend_one(
        &mut self,
        mns: &Tuple,
        now: Timestamp,
        ctx: &mut OpContext<'_>,
        outcome: &mut FeedbackOutcome,
    ) {
        if mns.is_empty() {
            self.enter_full_suspension();
            if self.policy.propagate_feedback {
                for side in [LEFT, RIGHT] {
                    outcome
                        .propagate
                        .push((side, Feedback::suspend(vec![Tuple::empty()])));
                    ctx.metrics.stats.feedback_propagated += 1;
                }
            }
            return;
        }
        let on_left = mns.sources().is_subset(self.left_schema);
        let on_right = mns.sources().is_subset(self.right_schema);
        let side = match (on_left, on_right) {
            (true, _) => LEFT,
            (_, true) => RIGHT,
            // Type II MNS: spans both inputs. Ignoring it is always legal
            // (Section IV-B); the mark-result path is not implemented.
            _ => return,
        };
        // Propagate before handling (Section III-C, rule (i)).
        if self.policy.propagate_feedback {
            outcome
                .propagate
                .push((side, Feedback::suspend(vec![mns.clone()])));
            ctx.metrics.stats.feedback_propagated += 1;
        }
        // "Similar" tuples are recognised on the join attributes of the
        // MNS's sources towards the part of the query outside this
        // operator's output.
        let (predicates, output) = (&self.predicates, self.left_schema.union(self.right_schema));
        let (sig_columns, drain_spec) =
            self.suspend_shapes.entry(mns.sources()).or_insert_with(|| {
                let external = predicates.referenced_sources().difference(output);
                let columns = predicates.join_columns(mns.sources(), external);
                let spec = JoinKeySpec::on_columns(&columns);
                (columns.into(), spec)
            });
        let entry_idx = self.blacklists[side].upsert_entry(
            mns.clone(),
            Arc::clone(sig_columns),
            SuspendMode::Suspend,
            now,
        );
        // Drain super-tuples (and similar tuples) of the MNS from the state.
        // Either kind carries the MNS's own values on the signature columns
        // (they belong to the MNS's sources), so the state's hash index on
        // those columns surfaces every capturable tuple; `captures` decides.
        let capture_similar = self.policy.capture_similar;
        let blacklist = &self.blacklists[side];
        #[expect(
            clippy::expect_used,
            reason = "INVARIANT: upsert_entry returned this position just above and nothing has been removed from the blacklist since."
        )]
        let entry = blacklist.entry(entry_idx).expect("just upserted");
        let drained = self.states[side].drain_matching(drain_spec, mns, |stored| {
            entry.captures(&stored.tuple, capture_similar)
        });
        for stored in drained {
            // Close the tuple's presence interval at the current event.
            self.event_seq += 1;
            self.histories[side]
                .entry(stored.tuple.key())
                .or_default()
                .push((stored.stamp, self.event_seq));
            ctx.metrics.stats.blacklisted_tuples += 1;
            ctx.metrics.charge(CostKind::BlacklistMove, 1);
            self.blacklists[side].add_tuple(entry_idx, stored.tuple);
        }
    }

    /// Handle the resumption of one MNS in the producer role.
    fn resume_one(
        &mut self,
        mns: &Tuple,
        now: Timestamp,
        ctx: &mut OpContext<'_>,
        outcome: &mut FeedbackOutcome,
    ) {
        if mns.is_empty() {
            if self.fully_suspended {
                let (results, feedback) = self.exit_full_suspension(ctx);
                outcome.resumed.extend(results);
                outcome.propagate.extend(feedback);
            }
            if self.policy.propagate_feedback {
                for side in [LEFT, RIGHT] {
                    outcome
                        .propagate
                        .push((side, Feedback::resume(vec![Tuple::empty()])));
                    ctx.metrics.stats.feedback_propagated += 1;
                }
            }
            return;
        }
        let on_left = mns.sources().is_subset(self.left_schema);
        let on_right = mns.sources().is_subset(self.right_schema);
        let side = match (on_left, on_right) {
            (true, _) => LEFT,
            (_, true) => RIGHT,
            _ => return, // Type II: nothing was suspended locally.
        };
        self.propagate_resume(side, mns, ctx, outcome);
        let Some(entry) = self.blacklists[side].remove_entry(&mns.key()) else {
            return;
        };
        for suspended in entry.tuples {
            self.restore_suspended(side, suspended, now, ctx, outcome);
        }
    }

    /// Pass a resumption on to the producer of `side`, so that it
    /// regenerates what it suppressed on behalf of `mns`.
    fn propagate_resume(
        &self,
        side: Port,
        mns: &Tuple,
        ctx: &mut OpContext<'_>,
        outcome: &mut FeedbackOutcome,
    ) {
        if self.policy.propagate_feedback {
            outcome
                .propagate
                .push((side, Feedback::resume(vec![mns.clone()])));
            ctx.metrics.stats.feedback_propagated += 1;
        }
    }

    /// Move one suspended tuple back into the state of `side`: regenerate
    /// exactly the pairs never produced before, resume any opposite-side MNS
    /// the tuple is the awaited partner of, and start a fresh presence
    /// interval.
    fn restore_suspended(
        &mut self,
        side: Port,
        suspended: crate::blacklist::BlacklistedTuple,
        now: Timestamp,
        ctx: &mut OpContext<'_>,
        outcome: &mut FeedbackOutcome,
    ) {
        // Expired tuples can no longer contribute results.
        if self.window.expires_at(&suspended.tuple) <= now {
            self.histories[side].remove(&suspended.tuple.key());
            return;
        }
        let opp = Self::opposite(side);
        ctx.metrics.stats.resumed_tuples += 1;
        ctx.metrics.charge(CostKind::BlacklistMove, 1);
        // The restored tuple may be the awaited partner of an MNS
        // detected on the opposite input while it was suspended.
        let matching = self.mns_buffers[opp].take_matching(
            &suspended.tuple,
            &self.predicates,
            self.window,
            ctx.metrics,
        );
        if !matching.is_empty() {
            outcome.propagate.push((opp, Feedback::resume(matching)));
        }
        // Regenerate exactly the pairs never produced before, probing only
        // the candidates sharing the restored tuple's equi-join key.
        let mut evals = 0u64;
        let mut produced = Vec::new();
        let candidates = self.candidate_sources(&suspended.tuple, side);
        let mut hits = std::mem::take(&mut self.probe_hits);
        let mut per_source = std::mem::take(&mut self.source_hits);
        self.probe_opposite(
            side,
            &suspended.tuple,
            candidates,
            &mut per_source,
            &mut hits,
        );
        self.source_hits = per_source;
        let own_hist = self.histories[side].get(&suspended.tuple.key());
        let own_hist = own_hist.map_or(&[][..], Vec::as_slice);
        for stored in hits.iter().filter_map(|&seq| self.states[opp].get(seq)) {
            ctx.metrics.charge(CostKind::ProbePair, 1);
            if !self
                .window
                .can_join(suspended.tuple.ts(), stored.tuple.ts())
            {
                continue;
            }
            if self.produced_before(own_hist, opp, stored) {
                continue;
            }
            if self
                .predicates
                .join_matches(&suspended.tuple, &stored.tuple, &mut evals)
            {
                if let Ok(joined) = suspended.tuple.join(&stored.tuple) {
                    ctx.metrics.charge(CostKind::ResultBuild, 1);
                    produced.push(DataMessage::new(joined));
                }
            }
        }
        self.probe_hits = hits;
        ctx.metrics.charge(CostKind::PredicateEval, evals);
        outcome.resumed.extend(produced);
        // Back into the state; a fresh presence interval starts now.
        self.insert_present(side, suspended.tuple.clone());
        self.update_bloom(side, &suspended.tuple);
        ctx.metrics.charge(CostKind::StateInsert, 1);
    }
}

impl Operator for JitJoinOperator {
    fn name(&self) -> &str {
        &self.name
    }

    fn output_schema(&self) -> SourceSet {
        self.left_schema.union(self.right_schema)
    }

    fn num_ports(&self) -> usize {
        2
    }

    fn is_suspended(&self) -> bool {
        self.fully_suspended
    }

    fn process(
        &mut self,
        port: Port,
        msg: &DataMessage,
        ctx: &mut OpContext<'_>,
    ) -> OperatorOutput {
        debug_assert!(port == LEFT || port == RIGHT);
        let now = ctx.now;

        // Ø suspension: buffer the input untouched.
        if self.fully_suspended {
            self.pending_bytes += msg.size_bytes();
            self.pending.push((port, msg.clone(), now));
            ctx.metrics.stats.intermediate_suppressed += 1;
            return OperatorOutput::empty();
        }

        let mut feedback: Vec<(Port, Feedback)> = Vec::new();
        self.purge_all(now, ctx, &mut feedback);

        let opp = Self::opposite(port);

        // Producer-side diversion: an arrival captured by a blacklist entry is
        // suspended immediately instead of being processed.
        if let Some(idx) =
            self.blacklists[port].matching_entry(&msg.tuple, self.policy.capture_similar)
        {
            self.blacklists[port].add_tuple(idx, msg.tuple.clone());
            ctx.metrics.stats.blacklisted_tuples += 1;
            ctx.metrics.stats.intermediate_suppressed += 1;
            ctx.metrics.charge(CostKind::BlacklistMove, 1);
            return OperatorOutput {
                results: Vec::new(),
                feedback,
            };
        }

        // Consumer step 1: probe the opposite MNS buffer; matches trigger
        // resumption at the opposite producer.
        if !self.mns_buffers[opp].is_empty() {
            let resumed_mns = self.mns_buffers[opp].take_matching(
                &msg.tuple,
                &self.predicates,
                self.window,
                ctx.metrics,
            );
            if !resumed_mns.is_empty() {
                feedback.push((opp, Feedback::resume(resumed_mns)));
            }
        }

        // Consumer step 2: probe the opposite state, producing results and
        // — if this port's producer listens — feeding the CNS lattice.
        let listens = self.producers[port].listens();
        let candidates = self.candidate_sources(&msg.tuple, port);
        let mut lattice = match self.policy.detection {
            MnsDetection::FullLattice
                if listens && !self.states[opp].is_empty() && !candidates.is_empty() =>
            {
                Some(self.fresh_lattice(port, candidates))
            }
            _ => None,
        };
        ctx.metrics.stats.state_probes += 1;
        let mut results = Vec::new();
        let mut evals = 0u64;
        // Only candidates carrying the full spanning equi-join key (plus
        // unindexable overflow entries) are examined for results; under
        // `Scan` that is every live tuple.
        let mut hits = std::mem::take(&mut self.probe_hits);
        let mut per_source = std::mem::take(&mut self.source_hits);
        let settles = self.probe_opposite(port, &msg.tuple, candidates, &mut per_source, &mut hits);
        for stored in hits.iter().filter_map(|&seq| self.states[opp].get(seq)) {
            ctx.metrics.charge(CostKind::ProbePair, 1);
            if !self.window.can_join(msg.tuple.ts(), stored.tuple.ts()) {
                continue;
            }
            let matched =
                self.matched_components(&msg.tuple, &stored.tuple, candidates, &mut evals);
            if let Some(l) = lattice.as_mut() {
                l.observe(matched, ctx.metrics);
            }
            if matched == candidates {
                // `join` fails exactly when the coverages overlap.
                if let Ok(tuple) = msg.tuple.join(&stored.tuple) {
                    ctx.metrics.charge(CostKind::ResultBuild, 1);
                    results.push(DataMessage::new(tuple));
                }
            }
        }
        // The lattice's remaining nodes are settled by one membership probe
        // each (largest first, so a hit also kills the sub-nodes): node S is
        // dead iff some live stored tuple within the window matches every
        // predicate from S — exactly what a scan establishes by observing
        // every stored tuple, which is why `Scan` settles nothing here. The
        // top node is already settled by the full probe above. A node's
        // candidates need no lookup: the full probe already found each
        // source's, and a node takes the intersection of its members'.
        if let Some(l) = lattice.as_mut().filter(|_| settles) {
            // The nodes are precomputed per port; derive them fresh only for
            // inputs not covering the port's schema exactly.
            let nodes_owned;
            let nodes = if msg.tuple.sources() == self.schema_of(port) {
                &self.nodes[port]
            } else {
                let mut nodes = Self::settling_nodes(candidates);
                nodes.retain(|node| self.reports(port, *node));
                nodes_owned = nodes;
                &nodes_owned
            };
            for &node in nodes {
                if l.all_dead() {
                    break;
                }
                if node == candidates || !l.is_alive(node) {
                    continue;
                }
                per_source.union_into(members_of(candidates, node), &mut hits);
                let state = &self.states[opp];
                let hit = hits.iter().filter_map(|&seq| state.get(seq)).any(|stored| {
                    ctx.metrics.charge(CostKind::ProbePair, 1);
                    self.window.can_join(msg.tuple.ts(), stored.tuple.ts())
                        && self.matched_components(&msg.tuple, &stored.tuple, node, &mut evals)
                            == node
                });
                if hit {
                    l.observe(node, ctx.metrics);
                }
            }
        }
        self.probe_hits = hits;
        self.source_hits = per_source;
        ctx.metrics.charge(CostKind::PredicateEval, evals);

        // Consumer step 3: detect the MNSs of the input this side's producer
        // acts on, and report them to it.
        if listens {
            self.detect_mns(&msg.tuple, port, candidates, lattice.as_ref(), ctx);
            if lattice.is_some() {
                self.lattices[port] = lattice;
            }
            let mut fresh = Vec::new();
            for mns in self.detected.drain(..) {
                if self.mns_buffers[port].insert(mns.clone(), now) {
                    fresh.push(mns);
                }
            }
            if !fresh.is_empty() {
                ctx.metrics.stats.mns_detected += fresh.len() as u64;
                feedback.push((port, Feedback::suspend(fresh)));
            }
        }

        self.insert_present(port, msg.tuple.clone());
        self.update_bloom(port, &msg.tuple);
        ctx.metrics.charge(CostKind::StateInsert, 1);

        OperatorOutput { results, feedback }
    }

    fn flush(&mut self, ctx: &mut OpContext<'_>) -> FeedbackOutcome {
        let now = ctx.now;
        let mut outcome = FeedbackOutcome::empty();
        if self.fully_suspended {
            let (results, feedback) = self.exit_full_suspension(ctx);
            outcome.resumed.extend(results);
            outcome.propagate.extend(feedback);
        }
        // Everything still suspended is resumed, entry by entry as
        // `resume_one` would, but the blacklist is emptied in one pass.
        for side in [LEFT, RIGHT] {
            for entry in self.blacklists[side].drain_entries() {
                self.propagate_resume(side, &entry.mns, ctx, &mut outcome);
                for suspended in entry.tuples {
                    self.restore_suspended(side, suspended, now, ctx, &mut outcome);
                }
            }
        }
        outcome
    }

    fn on_watermark(&mut self, ctx: &mut OpContext<'_>) -> OperatorOutput {
        // Under the watermark clock expiry work runs here instead of
        // piggybacking on the next arrival; in particular the resumption of
        // suppressed tuples whose MNS justification expired must not wait
        // for traffic. While Ø-suspended nothing is purged: pending inputs
        // replay with their original arrival instants on resumption, and
        // purging at the watermark would remove state they still need.
        if self.fully_suspended {
            return OperatorOutput::empty();
        }
        let mut feedback = Vec::new();
        self.purge_all(ctx.now, ctx, &mut feedback);
        OperatorOutput {
            results: Vec::new(),
            feedback,
        }
    }

    fn handle_feedback(&mut self, fb: &Feedback, ctx: &mut OpContext<'_>) -> FeedbackOutcome {
        let now = ctx.now;
        let mut outcome = FeedbackOutcome::empty();
        match fb.command {
            FeedbackCommand::Suspend => {
                for mns in &fb.mns_set {
                    self.suspend_one(mns, now, ctx, &mut outcome);
                }
            }
            FeedbackCommand::Resume => {
                for mns in &fb.mns_set {
                    self.resume_one(mns, now, ctx, &mut outcome);
                }
            }
        }
        outcome
    }

    fn memory_bytes(&self) -> usize {
        self.states[LEFT].size_bytes()
            + self.states[RIGHT].size_bytes()
            + self.mns_buffers[LEFT].size_bytes()
            + self.mns_buffers[RIGHT].size_bytes()
            + self.blacklists[LEFT].size_bytes()
            + self.blacklists[RIGHT].size_bytes()
            + self.pending_bytes
            + self.blooms[LEFT]
                .values()
                .chain(self.blooms[RIGHT].values())
                .map(|b| b.size_bytes())
                .sum::<usize>()
    }

    fn checkpoint(&self) -> Content {
        // Everything derivable from the query is rebuilt by the constructor
        // (probe specs, lattice nodes); everything that evolved with the
        // stream is persisted. `pending_bytes` is recomputed on restore.
        let pending: Vec<(usize, Tuple, Timestamp)> = self
            .pending
            .iter()
            .map(|(port, msg, at)| (*port, msg.tuple.clone(), *at))
            .collect();
        let per_side = |f: &dyn Fn(usize) -> Content| Content::Seq(vec![f(LEFT), f(RIGHT)]);
        Content::Map(vec![
            (
                "states".to_string(),
                per_side(&|s| self.states[s].checkpoint()),
            ),
            (
                "mns_buffers".to_string(),
                per_side(&|s| self.mns_buffers[s].checkpoint()),
            ),
            (
                "blacklists".to_string(),
                per_side(&|s| self.blacklists[s].checkpoint()),
            ),
            (
                "histories".to_string(),
                per_side(&|s| sorted_pairs(&self.histories[s]).to_content()),
            ),
            ("event_seq".to_string(), self.event_seq.to_content()),
            (
                "blooms".to_string(),
                per_side(&|s| sorted_pairs(&self.blooms[s]).to_content()),
            ),
            (
                "fully_suspended".to_string(),
                self.fully_suspended.to_content(),
            ),
            ("pending".to_string(), pending.to_content()),
        ])
    }

    /// Restores a [`JitJoinOperator::checkpoint`] blob. A checkpoint written
    /// by a build that detected everything (or under another plan) may hold
    /// buffered MNSs this port does not report to its producer; they are
    /// dropped here rather than left to expire — all one could still do is
    /// send a `<resume>` its producer ignores, and Ø never expires. A blob
    /// from a build that kept presence starts in a map (`interval_start`)
    /// has no stamp in its state entries: they are stamped from the map.
    fn restore(&mut self, state: &Content) -> Result<(), serde::Error> {
        const TY: &str = "JitJoinOperator";
        let map = state
            .as_map()
            .ok_or_else(|| serde::Error::expected("object", TY))?;
        let sides = |name: &str| -> Result<[Content; 2], serde::Error> {
            let blob: Content = serde::field(map, name, TY)?;
            let pair = blob.as_seq_n(2, TY)?;
            Ok([pair[0].clone(), pair[1].clone()])
        };
        let states = sides("states")?;
        let mns_buffers = sides("mns_buffers")?;
        let blacklists = sides("blacklists")?;
        let histories = sides("histories")?;
        let legacy_starts = map
            .iter()
            .any(|(name, _)| name == "interval_start")
            .then(|| sides("interval_start"))
            .transpose()?;
        let blooms = sides("blooms")?;
        for side in [LEFT, RIGHT] {
            self.states[side].restore_checkpoint(&states[side])?;
            self.mns_buffers[side].restore_checkpoint(&mns_buffers[side])?;
            let unreported: Vec<TupleKey> = self.mns_buffers[side]
                .iter()
                .filter(|entry| !self.reports(side, entry.mns.sources()))
                .map(|entry| entry.mns.key())
                .collect();
            for key in &unreported {
                self.mns_buffers[side].remove(key);
            }
            self.blacklists[side].restore_checkpoint(&blacklists[side])?;
            self.histories[side] =
                Vec::<(TupleKey, Vec<(u64, u64)>)>::from_content(&histories[side])?
                    .into_iter()
                    .collect();
            if let Some(starts) = &legacy_starts {
                let starts = Vec::<(TupleKey, u64)>::from_content(&starts[side])?;
                let starts: FastMap<TupleKey, u64> = starts.into_iter().collect();
                self.states[side].restamp(|t| starts.get(&t.key()).copied().unwrap_or(0));
            }
            self.blooms[side] = Vec::<(ColumnRef, BloomFilter)>::from_content(&blooms[side])?
                .into_iter()
                .collect();
            if !self.producers[Self::opposite(side)].listens() {
                self.blooms[side].clear();
            }
        }
        self.event_seq = serde::field(map, "event_seq", TY)?;
        self.fully_suspended = serde::field(map, "fully_suspended", TY)?;
        let pending: Vec<Content> = serde::field(map, "pending", TY)?;
        self.pending = pending
            .iter()
            .map(|entry| {
                // A build that carried a mark flag on every data message
                // wrote `(port, tuple, marked, at)`; the flag is skipped.
                let (port, tuple, at) = match entry.as_seq().unwrap_or_default() {
                    [port, tuple, at] | [port, tuple, _, at] => (port, tuple, at),
                    _ => return Err(serde::Error::expected("(port, tuple, at)", TY)),
                };
                Ok((
                    usize::from_content(port)?,
                    DataMessage::new(Tuple::from_content(tuple)?),
                    Timestamp::from_content(at)?,
                ))
            })
            .collect::<Result<_, serde::Error>>()?;
        self.pending_bytes = self
            .pending
            .iter()
            .map(|(_, msg, _)| msg.size_bytes())
            .sum();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jit_metrics::RunMetrics;
    use jit_types::{BaseTuple, Duration, SourceId, Value};

    /// Sources: A=0, B=1, C=2 with the Figure 1 predicates
    /// A.x0 = B.x0 and A.x1 = C.x0.
    fn figure1_predicates() -> PredicateSet {
        PredicateSet::from_predicates(vec![
            jit_types::EquiPredicate::new(
                ColumnRef::new(SourceId(0), 0),
                ColumnRef::new(SourceId(1), 0),
            ),
            jit_types::EquiPredicate::new(
                ColumnRef::new(SourceId(0), 1),
                ColumnRef::new(SourceId(2), 0),
            ),
        ])
    }

    fn window() -> Window {
        Window::new(Duration::from_mins(5))
    }

    fn op1(policy: JitPolicy) -> JitJoinOperator {
        JitJoinOperator::new(
            "A⋈B",
            SourceSet::single(SourceId(0)),
            SourceSet::single(SourceId(1)),
            figure1_predicates(),
            window(),
            policy,
        )
    }

    fn op2(policy: JitPolicy) -> JitJoinOperator {
        JitJoinOperator::new(
            "AB⋈C",
            SourceSet::first_n(2),
            SourceSet::single(SourceId(2)),
            figure1_predicates(),
            window(),
            policy,
        )
    }

    fn a(seq: u64, ts_s: u64, x: i64, y: i64) -> DataMessage {
        DataMessage::new(Tuple::from_base(Arc::new(BaseTuple::new(
            SourceId(0),
            seq,
            Timestamp::from_secs(ts_s),
            vec![Value::int(x), Value::int(y)],
        ))))
    }

    fn b(seq: u64, ts_s: u64, x: i64) -> DataMessage {
        DataMessage::new(Tuple::from_base(Arc::new(BaseTuple::new(
            SourceId(1),
            seq,
            Timestamp::from_secs(ts_s),
            vec![Value::int(x)],
        ))))
    }

    fn c(seq: u64, ts_s: u64, y: i64) -> DataMessage {
        DataMessage::new(Tuple::from_base(Arc::new(BaseTuple::new(
            SourceId(2),
            seq,
            Timestamp::from_secs(ts_s),
            vec![Value::int(y)],
        ))))
    }

    fn process(
        op: &mut JitJoinOperator,
        port: Port,
        msg: &DataMessage,
        metrics: &mut RunMetrics,
    ) -> OperatorOutput {
        let now = msg.tuple.ts();
        let mut ctx = OpContext::new(now, metrics);
        op.process(port, msg, &mut ctx)
    }

    /// A checkpoint captures the whole evolving state — operator states,
    /// blacklists, MNS buffers, presence histories, Bloom filters — so a
    /// restored operator behaves identically on the subsequent stream.
    #[test]
    fn checkpoint_restores_full_dynamic_state() {
        let mut orig = op1(JitPolicy::bloom());
        let mut metrics = RunMetrics::new();
        process(&mut orig, RIGHT, &b(1, 0, 1), &mut metrics);
        process(&mut orig, LEFT, &a(1, 1, 1, 100), &mut metrics);
        // Suspend a1: it moves to the blacklist; a2 is then diverted there.
        let mut ctx = OpContext::new(Timestamp::from_secs(1), &mut metrics);
        orig.handle_feedback(&Feedback::suspend(vec![a(1, 1, 1, 100).tuple]), &mut ctx);
        process(&mut orig, LEFT, &a(2, 2, 1, 100), &mut metrics);

        let blob = orig.checkpoint();
        let mut restored = op1(JitPolicy::bloom());
        restored.restore(&blob).unwrap();
        assert_eq!(restored.memory_bytes(), orig.memory_bytes());
        assert_eq!(restored.blacklist_len(LEFT), orig.blacklist_len(LEFT));
        assert_eq!(restored.state_len(RIGHT), orig.state_len(RIGHT));

        // Resuming a1 must release the same tuples with the same
        // catch-up joins in both operators (exercises the restored
        // presence histories and the stamps in the state).
        let fb = Feedback::resume(vec![a(1, 1, 1, 100).tuple]);
        let mut ctx = OpContext::new(Timestamp::from_secs(3), &mut metrics);
        let out_orig = orig.handle_feedback(&fb, &mut ctx);
        let mut ctx = OpContext::new(Timestamp::from_secs(3), &mut metrics);
        let out_rest = restored.handle_feedback(&fb, &mut ctx);
        let keys = |msgs: &[DataMessage]| msgs.iter().map(|m| m.tuple.key()).collect::<Vec<_>>();
        assert_eq!(keys(&out_rest.resumed), keys(&out_orig.resumed));
        // And the next arrival joins identically.
        let out_orig = process(&mut orig, RIGHT, &b(5, 4, 1), &mut metrics);
        let out_rest = process(&mut restored, RIGHT, &b(5, 4, 1), &mut metrics);
        assert_eq!(keys(&out_rest.results), keys(&out_orig.results));
    }

    /// Ø suspension survives a checkpoint: the buffered pending inputs are
    /// replayed with their original arrival instants after a restore.
    #[test]
    fn checkpoint_round_trips_full_suspension_and_pending() {
        let mut orig = op1(JitPolicy::full());
        let mut metrics = RunMetrics::new();
        process(&mut orig, RIGHT, &b(1, 0, 1), &mut metrics);
        let mut ctx = OpContext::new(Timestamp::from_secs(1), &mut metrics);
        orig.handle_feedback(&Feedback::suspend(vec![Tuple::empty()]), &mut ctx);
        // Buffered unprocessed while fully suspended.
        process(&mut orig, LEFT, &a(1, 2, 1, 100), &mut metrics);
        assert!(orig.is_fully_suspended());

        let mut restored = op1(JitPolicy::full());
        restored.restore(&orig.checkpoint()).unwrap();
        assert!(restored.is_fully_suspended());
        assert_eq!(restored.memory_bytes(), orig.memory_bytes());
        // Flushing replays the pending input against the restored state.
        let mut ctx = OpContext::new(Timestamp::from_secs(3), &mut metrics);
        let out = restored.flush(&mut ctx);
        assert_eq!(out.resumed.len(), 1);
        assert_eq!(out.resumed[0].tuple.num_parts(), 2);
    }

    /// A blob written by a build whose data messages carried a mark flag
    /// holds each pending input as `(port, tuple, marked, at)`: the flag is
    /// skipped, and the blob restores to what the current form gives.
    #[test]
    fn restore_skips_the_mark_flag_of_a_legacy_pending_entry() {
        let mut orig = op1(JitPolicy::full());
        let mut metrics = RunMetrics::new();
        let mut ctx = OpContext::new(Timestamp::from_secs(1), &mut metrics);
        orig.handle_feedback(&Feedback::suspend(vec![Tuple::empty()]), &mut ctx);
        process(&mut orig, LEFT, &a(1, 2, 1, 100), &mut metrics);
        let current = orig.checkpoint();
        let restored = |edit: fn(&mut Vec<Content>)| {
            let mut blob = current.clone();
            let Content::Map(fields) = &mut blob else {
                panic!("a checkpoint is a map");
            };
            let pending = fields.iter_mut().find(|(k, _)| k == "pending").unwrap();
            let Content::Seq(entries) = &mut pending.1 else {
                panic!("pending is a list");
            };
            let [Content::Seq(entry)] = &mut entries[..] else {
                panic!("one pending entry, a list");
            };
            edit(entry);
            let mut op = op1(JitPolicy::full());
            op.restore(&blob).map(|()| op)
        };
        let legacy = restored(|entry| entry.insert(2, Content::Bool(false)));
        let legacy = legacy.expect("a legacy pending entry restores");
        assert!(legacy.is_fully_suspended());
        assert_eq!(legacy.memory_bytes(), orig.memory_bytes());
        assert_eq!(legacy.checkpoint(), current);
        assert!(restored(|entry| entry.truncate(2)).is_err());
    }

    /// Table I scenario at the consumer Op2: an AB tuple with no C partner
    /// yields a suspension feedback naming the A component as MNS.
    #[test]
    fn consumer_detects_component_mns() {
        let mut consumer = op2(JitPolicy::full());
        let mut metrics = RunMetrics::new();
        // A C tuple with y=999 sits in the right state, so it is not empty.
        process(&mut consumer, RIGHT, &c(0, 0, 999), &mut metrics);
        // a1b1 arrives: matching on A.x1=C.x0 fails → a1 is an MNS.
        let a1 = a(1, 1, 1, 100);
        let b1 = b(1, 0, 1);
        let a1b1 = DataMessage::new(a1.tuple.join(&b1.tuple).unwrap());
        let out = process(&mut consumer, LEFT, &a1b1, &mut metrics);
        assert!(out.results.is_empty());
        let (port, fb) = out
            .feedback
            .iter()
            .find(|(_, fb)| fb.command == FeedbackCommand::Suspend)
            .expect("a suspension feedback must be issued");
        assert_eq!(*port, LEFT);
        assert_eq!(fb.mns_set.len(), 1);
        assert_eq!(fb.mns_set[0].sources(), SourceSet::single(SourceId(0)));
        assert_eq!(consumer.mns_buffer_len(LEFT), 1);
        // Two detections in total: the Ø MNS when c arrived into an empty
        // operator, and the a1 component MNS.
        assert_eq!(metrics.stats.mns_detected, 2);
    }

    /// An empty opposite state yields the Ø MNS (the DOE case).
    #[test]
    fn consumer_detects_empty_mns_when_state_empty() {
        let mut consumer = op2(JitPolicy::full());
        let mut metrics = RunMetrics::new();
        let ab = DataMessage::new(a(1, 1, 1, 100).tuple.join(&b(1, 0, 1).tuple).unwrap());
        let out = process(&mut consumer, LEFT, &ab, &mut metrics);
        let (_, fb) = &out.feedback[0];
        assert_eq!(fb.command, FeedbackCommand::Suspend);
        assert!(fb.mns_set[0].is_empty());
    }

    /// The producer suspends production for a reported MNS: existing
    /// super-tuples move to the blacklist and future similar tuples are
    /// diverted (Table I: b4 and a2 generate nothing).
    #[test]
    fn producer_suspends_and_diverts() {
        let mut producer = op1(JitPolicy::full());
        let mut metrics = RunMetrics::new();
        // b1, b2, b3 then a1: the probe produces three partial results.
        for (i, bm) in [b(1, 0, 1), b(2, 0, 1), b(3, 0, 1)].iter().enumerate() {
            let out = process(&mut producer, RIGHT, bm, &mut metrics);
            assert!(out.results.is_empty(), "b{} should produce nothing", i + 1);
        }
        let out = process(&mut producer, LEFT, &a(1, 1, 1, 100), &mut metrics);
        assert_eq!(out.results.len(), 3);
        // The consumer reports a1 as MNS.
        let a1_sub = a(1, 1, 1, 100).tuple;
        let mut ctx = OpContext::new(Timestamp::from_secs(1), &mut metrics);
        let outcome = producer.handle_feedback(&Feedback::suspend(vec![a1_sub.clone()]), &mut ctx);
        assert!(outcome.resumed.is_empty());
        assert_eq!(producer.blacklist_len(LEFT), 1);
        assert_eq!(producer.state_len(LEFT), 0);
        // b4 arrives: a1 is no longer in the state, so nothing is produced.
        let out = process(&mut producer, RIGHT, &b(4, 2, 1), &mut metrics);
        assert!(out.results.is_empty());
        // a2 has the same join attribute y=100 → diverted into the blacklist.
        let out = process(&mut producer, LEFT, &a(2, 3, 1, 100), &mut metrics);
        assert!(out.results.is_empty());
        assert_eq!(producer.blacklist_len(LEFT), 2);
        assert!(metrics.stats.intermediate_suppressed >= 1);
        // An unrelated A tuple (different y) is processed normally.
        let out = process(&mut producer, LEFT, &a(3, 4, 1, 200), &mut metrics);
        assert_eq!(out.results.len(), 4); // joins b1..b4
    }

    /// Resumption regenerates exactly the missing partial results: a1 is not
    /// re-joined with b1 (produced before the suspension), a2 joins everything.
    #[test]
    fn resumption_regenerates_without_duplicates() {
        let mut producer = op1(JitPolicy::full());
        let mut metrics = RunMetrics::new();
        for bm in [b(1, 0, 1), b(2, 0, 1), b(3, 0, 1)] {
            process(&mut producer, RIGHT, &bm, &mut metrics);
        }
        // a1 probes and produces a1b1, a1b2, a1b3 (batch granularity).
        let out = process(&mut producer, LEFT, &a(1, 1, 1, 100), &mut metrics);
        assert_eq!(out.results.len(), 3);
        let a1_sub = a(1, 1, 1, 100).tuple;
        let mut ctx = OpContext::new(Timestamp::from_secs(1), &mut metrics);
        producer.handle_feedback(&Feedback::suspend(vec![a1_sub.clone()]), &mut ctx);
        // b4 arrives (suppressed), a2 arrives (diverted).
        process(&mut producer, RIGHT, &b(4, 2, 1), &mut metrics);
        process(&mut producer, LEFT, &a(2, 3, 1, 100), &mut metrics);
        // Resume a1.
        let mut ctx = OpContext::new(Timestamp::from_secs(4), &mut metrics);
        let outcome = producer.handle_feedback(&Feedback::resume(vec![a1_sub]), &mut ctx);
        // a1 joins only b4 (b1-b3 were produced before the suspension);
        // a2 joins b1, b2, b3, b4.
        assert_eq!(outcome.resumed.len(), 1 + 4);
        assert_eq!(producer.blacklist_len(LEFT), 0);
        assert_eq!(producer.state_len(LEFT), 2);
        // No duplicates among resumed results.
        let keys: std::collections::HashSet<_> =
            outcome.resumed.iter().map(|m| m.tuple.key()).collect();
        assert_eq!(keys.len(), outcome.resumed.len());
        assert_eq!(metrics.stats.resumed_tuples, 2);
    }

    /// The consumer resumes an MNS when a matching partner finally arrives.
    #[test]
    fn consumer_sends_resume_on_matching_arrival() {
        let mut consumer = op2(JitPolicy::full());
        let mut metrics = RunMetrics::new();
        process(&mut consumer, RIGHT, &c(0, 0, 999), &mut metrics);
        let a1b1 = DataMessage::new(a(1, 1, 1, 100).tuple.join(&b(1, 0, 1).tuple).unwrap());
        process(&mut consumer, LEFT, &a1b1, &mut metrics);
        assert_eq!(consumer.mns_buffer_len(LEFT), 1);
        // c1 with y=100 matches the buffered MNS a1.
        let out = process(&mut consumer, RIGHT, &c(1, 2, 100), &mut metrics);
        assert!(out
            .feedback
            .iter()
            .any(|(port, fb)| *port == LEFT && fb.command == FeedbackCommand::Resume));
        assert_eq!(consumer.mns_buffer_len(LEFT), 0);
        // c1 also joins the stored a1b1 directly.
        assert_eq!(out.results.len(), 1);
    }

    /// Ø suspension buffers inputs and reprocesses them faithfully on resume.
    #[test]
    fn full_suspension_buffers_and_replays() {
        let mut producer = op1(JitPolicy::full());
        let mut metrics = RunMetrics::new();
        let mut ctx = OpContext::new(Timestamp::from_secs(1), &mut metrics);
        producer.handle_feedback(&Feedback::suspend(vec![Tuple::empty()]), &mut ctx);
        assert!(producer.is_fully_suspended());
        // Arrivals are buffered, not processed.
        assert!(process(&mut producer, RIGHT, &b(1, 2, 7), &mut metrics).is_empty());
        assert!(process(&mut producer, LEFT, &a(1, 3, 7, 50), &mut metrics).is_empty());
        assert_eq!(producer.state_len(LEFT), 0);
        assert_eq!(producer.state_len(RIGHT), 0);
        assert!(producer.memory_bytes() > 0);
        // Resume Ø: the buffered tuples are replayed and the join appears.
        let mut ctx = OpContext::new(Timestamp::from_secs(4), &mut metrics);
        let outcome = producer.handle_feedback(&Feedback::resume(vec![Tuple::empty()]), &mut ctx);
        assert!(!producer.is_fully_suspended());
        assert_eq!(outcome.resumed.len(), 1);
        assert_eq!(producer.state_len(LEFT), 1);
        assert_eq!(producer.state_len(RIGHT), 1);
    }

    /// Feedback for a Type I MNS is propagated upstream in its original form.
    #[test]
    fn feedback_propagation_preserves_type1_mns() {
        let mut middle = op2(JitPolicy::full());
        let mut metrics = RunMetrics::new();
        let a1 = a(1, 1, 1, 100).tuple;
        let mut ctx = OpContext::new(Timestamp::from_secs(1), &mut metrics);
        let outcome = middle.handle_feedback(&Feedback::suspend(vec![a1.clone()]), &mut ctx);
        // a1 is a sub-tuple of the left input (AB), so the suspension goes left.
        assert!(outcome.propagate.iter().any(|(port, fb)| *port == LEFT
            && fb.command == FeedbackCommand::Suspend
            && fb.mns_set[0].key() == a1.key()));
        assert_eq!(metrics.stats.feedback_propagated, 1);
        // Without propagation the list stays empty.
        let mut quiet = op2(JitPolicy::full().without_propagation());
        let mut ctx = OpContext::new(Timestamp::from_secs(1), &mut metrics);
        let outcome = quiet.handle_feedback(&Feedback::suspend(vec![a1]), &mut ctx);
        assert!(outcome.propagate.is_empty());
    }

    /// DOE (empty-state-only) never detects component MNSs.
    #[test]
    fn doe_policy_only_reports_empty_mns() {
        let mut consumer = op2(JitPolicy::doe());
        let mut metrics = RunMetrics::new();
        process(&mut consumer, RIGHT, &c(0, 0, 999), &mut metrics);
        let ab = DataMessage::new(a(1, 1, 1, 100).tuple.join(&b(1, 0, 1).tuple).unwrap());
        let out = process(&mut consumer, LEFT, &ab, &mut metrics);
        // Opposite state is non-empty, so DOE detects nothing.
        assert!(out
            .feedback
            .iter()
            .all(|(_, fb)| fb.command != FeedbackCommand::Suspend));
    }

    /// Bloom detection finds value-absent components without a lattice.
    #[test]
    fn bloom_policy_detects_absent_values() {
        let mut consumer = op2(JitPolicy::bloom());
        let mut metrics = RunMetrics::new();
        process(&mut consumer, RIGHT, &c(0, 0, 999), &mut metrics);
        let ab = DataMessage::new(a(1, 1, 1, 100).tuple.join(&b(1, 0, 1).tuple).unwrap());
        let out = process(&mut consumer, LEFT, &ab, &mut metrics);
        assert!(out
            .feedback
            .iter()
            .any(|(port, fb)| *port == LEFT && fb.command == FeedbackCommand::Suspend));
        assert!(metrics.stats.bloom_checks > 0);
    }

    /// Expired MNSs trigger a release (resume) towards the producer so that
    /// still-alive similar tuples are not suppressed forever.
    #[test]
    fn expired_mns_triggers_release_feedback() {
        let mut consumer = op2(JitPolicy::full());
        let mut metrics = RunMetrics::new();
        process(&mut consumer, RIGHT, &c(0, 0, 999), &mut metrics);
        let ab = DataMessage::new(a(1, 1, 1, 100).tuple.join(&b(1, 0, 1).tuple).unwrap());
        process(&mut consumer, LEFT, &ab, &mut metrics);
        assert_eq!(consumer.mns_buffer_len(LEFT), 1);
        // Long after the MNS expired, any arrival triggers the release.
        let out = process(&mut consumer, RIGHT, &c(5, 1_000, 555), &mut metrics);
        assert!(out
            .feedback
            .iter()
            .any(|(port, fb)| *port == LEFT && fb.command == FeedbackCommand::Resume));
        assert_eq!(consumer.mns_buffer_len(LEFT), 0);
    }

    #[test]
    fn metadata_and_memory() {
        let op = op1(JitPolicy::full());
        assert_eq!(op.num_ports(), 2);
        assert_eq!(op.output_schema(), SourceSet::first_n(2));
        assert_eq!(op.memory_bytes(), 0);
        assert!(!op.is_suspended());
        assert_eq!(op.policy.detection, MnsDetection::FullLattice);
        assert_eq!(op.name(), "A⋈B");
    }

    /// Drive the producer/consumer pair of Figure 1 (`A⋈B` feeding `AB⋈C`)
    /// over a seeded stream, one arrival per second, as an executor would:
    /// partial results go down, the consumer's feedback for its left port
    /// goes back up, what either detects on a port fed by a source is
    /// dropped (counted in the second return value). `each_step` gets both
    /// operators once an arrival has been processed to quiescence, and may
    /// swap one for its restored checkpoint. Returns the identities of the
    /// consumer's results, in order.
    fn drive_figure1_pair(
        producer: &mut JitJoinOperator,
        consumer: &mut JitJoinOperator,
        metrics: &mut RunMetrics,
        seconds: u64,
        mut each_step: impl FnMut(u64, &mut JitJoinOperator, &mut JitJoinOperator),
    ) -> (Vec<TupleKey>, usize) {
        use proptest::rand::{rngs::StdRng, Rng, SeedableRng};
        use std::collections::VecDeque;

        enum Work {
            /// An AB partial result on its way into the consumer.
            Partial(DataMessage),
            /// Consumer feedback on its way back to the producer.
            Feedback(Feedback),
        }
        let mut rng = StdRng::seed_from_u64(7);
        let mut results = Vec::new();
        let mut to_sources = 0;
        for seq in 0..seconds {
            let now = Timestamp::from_secs(seq);
            let (x, y) = (rng.gen_range(0i64..12), rng.gen_range(0i64..40));
            let mut queue = VecDeque::new();
            let mut ctx = OpContext::new(now, &mut *metrics);
            // The consumer's output: results kept, feedback for the producer
            // queued, the number of messages for source C returned.
            let mut consume = |out: OperatorOutput, queue: &mut VecDeque<Work>| {
                results.extend(out.results.iter().map(|m| m.tuple.key()));
                let (up, dropped): (Vec<_>, Vec<_>) = out
                    .feedback
                    .into_iter()
                    .partition(|(port, _)| *port == LEFT);
                queue.extend(up.into_iter().map(|(_, fb)| Work::Feedback(fb)));
                dropped.len()
            };
            match seq % 3 {
                2 => {
                    let out = consumer.process(RIGHT, &c(seq, seq, y), &mut ctx);
                    to_sources += consume(out, &mut queue);
                }
                port => {
                    let msg = if port == 0 {
                        a(seq, seq, x, y)
                    } else {
                        b(seq, seq, x)
                    };
                    let out = producer.process(port as Port, &msg, &mut ctx);
                    to_sources += out.feedback.len();
                    queue.extend(out.results.into_iter().map(Work::Partial));
                }
            }
            while let Some(work) = queue.pop_front() {
                match work {
                    Work::Partial(msg) => {
                        let out = consumer.process(LEFT, &msg, &mut ctx);
                        to_sources += consume(out, &mut queue);
                    }
                    Work::Feedback(fb) => {
                        let outcome = producer.handle_feedback(&fb, &mut ctx);
                        queue.extend(outcome.resumed.into_iter().map(Work::Partial));
                    }
                }
            }
            each_step(seq, producer, consumer);
        }
        (results, to_sources)
    }

    /// The presence histories follow the window, not the stream: over a
    /// ten-window stream through the producer/consumer pair of Figure 1,
    /// every history belongs to a tuple that is stored or suspended right
    /// now, and the checkpoint stays the size of a window.
    #[test]
    fn presence_bookkeeping_stays_window_sized() {
        let mut producer = op1(JitPolicy::full());
        let mut consumer = op2(JitPolicy::full());
        let mut metrics = RunMetrics::new();
        let window_s = 300;
        let mut checkpoint_bytes = Vec::new();
        let mut most_histories = 0;
        drive_figure1_pair(
            &mut producer,
            &mut consumer,
            &mut metrics,
            10 * window_s,
            |seq, producer, consumer| {
                for op in [&*producer, &*consumer] {
                    for side in [LEFT, RIGHT] {
                        let stored = op.states[side].iter().map(|e| e.tuple.key());
                        let suspended = op.blacklists[side].entries();
                        let suspended =
                            suspended.flat_map(|e| e.tuples.iter().map(|t| t.tuple.key()));
                        let held: std::collections::HashSet<TupleKey> =
                            stored.chain(suspended).collect();
                        assert!(
                            op.histories[side].keys().all(|key| held.contains(key)),
                            "a history outlives its tuple at t = {seq} s"
                        );
                    }
                }
                most_histories = most_histories.max(producer.histories[LEFT].len());
                if seq + 1 == 2 * window_s || seq + 1 == 10 * window_s {
                    let blob =
                        |op: &JitJoinOperator| serde_json::to_string(&op.checkpoint()).unwrap();
                    checkpoint_bytes.push(blob(producer).len() + blob(consumer).len());
                }
            },
        );
        // The run did suspend, resume and expire suspended tuples.
        assert!(metrics.stats.blacklisted_tuples > 100 && metrics.stats.resumed_tuples > 100);
        assert!(most_histories > 0);
        let (early, late) = (checkpoint_bytes[0], checkpoint_bytes[1]);
        assert!(
            2 * late <= 3 * early,
            "checkpoint grew with the stream: {early} B at 2 windows, {late} B at 10"
        );
    }

    /// A checkpoint as a build that kept presence starts in a map beside the
    /// states wrote it: `interval_start` per side, and state entries carrying
    /// an (unread) `inserted_at` instant in place of the stamp.
    fn legacy_shaped(blob: Content) -> Content {
        let Content::Map(mut fields) = blob else {
            panic!("an operator checkpoint is a map")
        };
        let mut starts = Vec::new();
        let (_, Content::Seq(states)) = &mut fields[0] else {
            panic!("`states` comes first")
        };
        for state in states {
            let Content::Map(state) = state else {
                panic!("a state checkpoint is a map")
            };
            let (_, Content::Seq(entries)) = &mut state[1] else {
                panic!("`entries` follows `name`")
            };
            let mut side: Vec<(TupleKey, u64)> = Vec::new();
            for entry in entries {
                let stored = StoredTuple::from_content(entry).unwrap();
                side.push((stored.tuple.key(), stored.stamp));
                *entry = Content::Map(vec![
                    ("tuple".to_string(), stored.tuple.to_content()),
                    ("inserted_at".to_string(), stored.tuple.ts().to_content()),
                ]);
            }
            side.sort();
            starts.push(side.to_content());
        }
        fields.push(("interval_start".to_string(), Content::Seq(starts)));
        Content::Map(fields)
    }

    /// Presence without a map beside the states. In the Figure 1 drive, take
    /// the first `a` that sits in the producer's blacklist for the second
    /// time (two closed intervals in `histories`), and right there replace
    /// the producer by its checkpoint — once as written today, once in the
    /// shape an earlier build wrote. When the tuple is resumed, what it
    /// regenerates is decided by its two intervals against its partners'
    /// stamps, read from the restored state: the consumer's results must be
    /// those of the uninterrupted run, each exactly once.
    #[test]
    fn twice_suspended_tuple_resumes_exactly_across_a_checkpoint() {
        let run = |swap: Option<fn(Content) -> Content>| {
            let mut metrics = RunMetrics::new();
            // The tuple watched, and the producer's event clock at the swap.
            let mut watched: Option<(TupleKey, u64)> = None;
            let mut resumed_after_swap = false;
            let (results, _) = drive_figure1_pair(
                &mut op1(JitPolicy::full()),
                &mut op2(JitPolicy::full()),
                &mut metrics,
                900,
                |_, producer, _| match &watched {
                    None => {
                        let twice = producer.blacklists[LEFT]
                            .entries()
                            .flat_map(|e| e.tuples.iter().map(|t| t.tuple.key()))
                            .find(|key| {
                                producer.histories[LEFT]
                                    .get(key)
                                    .is_some_and(|h| h.len() == 2)
                            });
                        let Some(key) = twice else { return };
                        watched = Some((key, producer.event_seq));
                        if let Some(shape) = swap {
                            let blob = shape(producer.checkpoint());
                            // Through bytes, as a checkpoint file would go.
                            let json = serde_json::to_string(&blob).unwrap();
                            *producer = op1(JitPolicy::full());
                            producer
                                .restore(&serde_json::from_str(&json).unwrap())
                                .unwrap();
                        }
                    }
                    Some((key, swapped_at)) => {
                        let back = producer.states[LEFT].iter().find(|e| e.tuple.key() == *key);
                        resumed_after_swap |= back.is_some_and(|e| e.stamp > *swapped_at);
                    }
                },
            );
            assert!(resumed_after_swap, "the watched tuple was never resumed");
            (
                results,
                metrics.stats.resumed_tuples,
                metrics.stats.probe_pairs,
            )
        };
        let uninterrupted = run(None);
        let distinct: std::collections::HashSet<_> = uninterrupted.0.iter().collect();
        assert_eq!(
            distinct.len(),
            uninterrupted.0.len(),
            "a pair was produced twice"
        );
        assert!(!uninterrupted.0.is_empty());
        // Not `assert_eq!`: a mismatch would print some thousand keys.
        assert!(run(Some(|blob| blob)) == uninterrupted, "today's blob");
        assert!(run(Some(legacy_shaped)) == uninterrupted, "earlier blob");
    }

    /// Everything the blacklists of an operator hold: per side, per entry,
    /// the MNS and the suspended tuples.
    fn blacklist_contents(op: &JitJoinOperator) -> Vec<(Port, TupleKey, Vec<TupleKey>)> {
        [LEFT, RIGHT]
            .into_iter()
            .flat_map(|side| {
                op.blacklists[side].entries().map(move |entry| {
                    let tuples = entry.tuples.iter().map(|t| t.tuple.key()).collect();
                    (side, entry.mns.key(), tuples)
                })
            })
            .collect()
    }

    /// Ports fed by sources detect nothing and it costs no suppression: the
    /// Figure 1 pair with its plan stated (`A`, `B`, `C` sources; `AB` from
    /// `A⋈B`) produces the results and holds the blacklists, step by step,
    /// of the pair that detects everything — without one buffered MNS or one
    /// message on a source-fed port.
    #[test]
    fn source_fed_ports_detect_nothing_and_suppression_is_unchanged() {
        let ab = Producer::Join {
            left: SourceSet::single(SourceId(0)),
            right: SourceSet::single(SourceId(1)),
        };
        for policy in [JitPolicy::full(), JitPolicy::bloom(), JitPolicy::doe()] {
            let mut blacklists = Vec::new();
            let mut everything = RunMetrics::new();
            let (expected, dropped) = drive_figure1_pair(
                &mut op1(policy),
                &mut op2(policy),
                &mut everything,
                900,
                |_, producer, _| blacklists.push(blacklist_contents(producer)),
            );
            assert!(dropped > 0 && !expected.is_empty());

            let mut step = 0;
            let mut demanded = RunMetrics::new();
            let (results, dropped) = drive_figure1_pair(
                &mut op1(policy).fed_by([Producer::Passive; 2]),
                &mut op2(policy).fed_by([ab, Producer::Passive]),
                &mut demanded,
                900,
                |seq, producer, consumer| {
                    assert_eq!(
                        blacklist_contents(producer),
                        blacklists[step],
                        "t = {seq} s"
                    );
                    step += 1;
                    let buffered = [
                        producer.mns_buffer_len(LEFT),
                        producer.mns_buffer_len(RIGHT),
                        consumer.mns_buffer_len(RIGHT),
                    ];
                    assert_eq!(buffered, [0; 3], "t = {seq} s");
                    assert!(producer.blooms[LEFT].is_empty() && producer.blooms[RIGHT].is_empty());
                },
            );
            assert_eq!(results, expected);
            assert_eq!(dropped, 0, "a source-fed port sent feedback");
            let (all, few) = (&everything.stats, &demanded.stats);
            assert_eq!(few.blacklisted_tuples, all.blacklisted_tuples);
            assert_eq!(few.resumed_tuples, all.resumed_tuples);
            assert_eq!(few.intermediate_suppressed, all.intermediate_suppressed);
            assert_eq!(few.probe_pairs, all.probe_pairs);
            assert!(few.mns_detected < all.mns_detected);
        }
    }

    /// `A.x0 = D.x0`, `B.x0 = D.x1`, `C.x0 = D.x2`: the top join of a
    /// left-deep plan over A, B, C, D, whose left input comes from `AB⋈C`.
    fn top_join(policy: JitPolicy, mode: StateIndexMode) -> JitJoinOperator {
        let facing = |source: u16, column: u16| {
            jit_types::EquiPredicate::new(
                ColumnRef::new(SourceId(source), 0),
                ColumnRef::new(SourceId(3), column),
            )
        };
        JitJoinOperator::new(
            "ABC⋈D",
            SourceSet::first_n(3),
            SourceSet::single(SourceId(3)),
            PredicateSet::from_predicates(vec![facing(0, 0), facing(1, 1), facing(2, 2)]),
            window(),
            policy,
        )
        .with_state_index(mode)
    }

    fn d(seq: u64, ts_s: u64, values: [i64; 3]) -> DataMessage {
        DataMessage::new(Tuple::from_base(Arc::new(BaseTuple::new(
            SourceId(3),
            seq,
            Timestamp::from_secs(ts_s),
            values.into_iter().map(Value::int).collect(),
        ))))
    }

    /// The coverages of the MNSs an `abc` input yields at `consumer` when one
    /// stored `d` matches its `a` only and another its `c` only: `b` (inside
    /// the producer's `AB` input) and `ac` (spanning both inputs).
    fn mns_coverages_of_abc(consumer: &mut JitJoinOperator) -> (Vec<SourceSet>, Feedback) {
        let mut metrics = RunMetrics::new();
        process(consumer, RIGHT, &d(1, 0, [1, 90, 91]), &mut metrics);
        process(consumer, RIGHT, &d(2, 0, [92, 93, 3]), &mut metrics);
        let ab = a(1, 1, 1, 0).tuple.join(&b(1, 1, 2).tuple).unwrap();
        let abc = DataMessage::new(ab.join(&c(1, 1, 3).tuple).unwrap());
        let out = process(consumer, LEFT, &abc, &mut metrics);
        assert!(out.results.is_empty());
        let (_, suspend) = out
            .feedback
            .into_iter()
            .find(|(port, fb)| *port == LEFT && fb.command == FeedbackCommand::Suspend)
            .expect("the input has MNSs");
        let coverages = suspend.mns_set.iter().map(Tuple::sources).collect();
        assert_eq!(consumer.mns_buffer_len(LEFT), suspend.mns_set.len());
        (coverages, suspend)
    }

    /// A join-fed port reports the MNS inside one producer input and not the
    /// one spanning both; the producer suspends for what it is told.
    #[test]
    fn join_fed_port_reports_one_sided_mnss_only() {
        let (b_only, ac) = (
            SourceSet::single(SourceId(1)),
            SourceSet::from_iter([SourceId(0), SourceId(2)]),
        );
        let ab_c = Producer::Join {
            left: SourceSet::first_n(2),
            right: SourceSet::single(SourceId(2)),
        };
        for mode in [StateIndexMode::Hashed, StateIndexMode::Scan] {
            let mut everything = top_join(JitPolicy::full(), mode);
            assert_eq!(mns_coverages_of_abc(&mut everything).0, vec![b_only, ac]);

            let mut consumer = top_join(JitPolicy::full(), mode).fed_by([ab_c, Producer::Passive]);
            let (coverages, suspend) = mns_coverages_of_abc(&mut consumer);
            assert_eq!(coverages, vec![b_only], "{mode:?}");
            // Ø, inside both inputs, is still reported.
            let mut empty = top_join(JitPolicy::full(), mode).fed_by([ab_c, Producer::Passive]);
            let abc = DataMessage::new(
                a(1, 1, 1, 0)
                    .tuple
                    .join(&b(1, 1, 2).tuple)
                    .unwrap()
                    .join(&c(1, 1, 3).tuple)
                    .unwrap(),
            );
            let out = process(&mut empty, LEFT, &abc, &mut RunMetrics::new());
            assert!(out.feedback[0].1.mns_set[0].is_empty());

            // The producer AB⋈C holds `ab` in its left state and blacklists
            // it on behalf of `b`.
            let mut producer = JitJoinOperator::new(
                "AB⋈C",
                SourceSet::first_n(2),
                SourceSet::single(SourceId(2)),
                top_join(JitPolicy::full(), mode).predicates,
                window(),
                JitPolicy::full(),
            )
            .with_state_index(mode);
            let mut metrics = RunMetrics::new();
            let ab = DataMessage::new(a(1, 1, 1, 0).tuple.join(&b(1, 1, 2).tuple).unwrap());
            process(&mut producer, LEFT, &ab, &mut metrics);
            let mut ctx = OpContext::new(Timestamp::from_secs(1), &mut metrics);
            producer.handle_feedback(&suspend, &mut ctx);
            assert_eq!(
                (producer.blacklist_len(LEFT), producer.state_len(LEFT)),
                (1, 0)
            );
        }
    }

    /// A checkpoint holding MNSs the port no longer reports (written by a
    /// build that detected everything) restores without them.
    #[test]
    fn restore_drops_buffered_mnss_the_port_does_not_report() {
        let ab_c = Producer::Join {
            left: SourceSet::first_n(2),
            right: SourceSet::single(SourceId(2)),
        };
        let mut everything = top_join(JitPolicy::full(), StateIndexMode::Hashed);
        mns_coverages_of_abc(&mut everything);
        // `b` and `ac` wait on the left port; a `d` matching nothing stored
        // leaves itself on the right one.
        let unmatched = d(3, 2, [7, 7, 7]);
        process(&mut everything, RIGHT, &unmatched, &mut RunMetrics::new());
        let buffered = |op: &JitJoinOperator| [op.mns_buffer_len(LEFT), op.mns_buffer_len(RIGHT)];
        assert_eq!(buffered(&everything), [2, 1]);
        let blob = everything.checkpoint();

        let mut restored =
            top_join(JitPolicy::full(), StateIndexMode::Hashed).fed_by([ab_c, Producer::Passive]);
        restored.restore(&blob).unwrap();
        assert_eq!(buffered(&restored), [1, 0]);
        let kept: Vec<SourceSet> = restored.mns_buffers[LEFT]
            .iter()
            .map(|e| e.mns.sources())
            .collect();
        assert_eq!(kept, vec![SourceSet::single(SourceId(1))]);
        assert_eq!(restored.state_len(LEFT), 1);
    }

    /// A base tuple of source `source` under `PredicateSet::clique(4)`: one
    /// column facing each of the other three sources.
    fn clique_part(source: u16, seq: u64, values: [i64; 3]) -> Tuple {
        Tuple::from_base(Arc::new(BaseTuple::new(
            SourceId(source),
            seq,
            Timestamp::from_secs(seq),
            values.into_iter().map(Value::int).collect(),
        )))
    }

    /// The composite of `sources` at `seq`, each part's values drawn from
    /// `0..domain` by `rng`.
    fn clique_composite(
        rng: &mut proptest::rand::rngs::StdRng,
        domain: i64,
        sources: &[u16],
        seq: u64,
    ) -> Tuple {
        use proptest::rand::Rng;
        sources
            .iter()
            .map(|&source| clique_part(source, seq, [(); 3].map(|()| rng.gen_range(0..domain))))
            .reduce(|a, b| a.join(&b).expect("disjoint sources"))
            .expect("at least one source")
    }

    /// What a plan builder states for a port fed by the join of two sources.
    fn join_of(left: u16, right: u16) -> Producer {
        Producer::Join {
            left: SourceSet::single(SourceId(left)),
            right: SourceSet::single(SourceId(right)),
        }
    }

    /// `PlanShape::bushy(4)`'s top join `AB⋈CD`: both ports are fed by a
    /// join and have two candidate sources, so both settle — and each
    /// probes the opposite state through one index per candidate source.
    /// After a run that settles lattice nodes on both sides, each state
    /// holds exactly those two indexes and no 4-column full-key index: the
    /// full probe is their intersection.
    #[test]
    fn settling_ports_index_the_opposite_state_once_per_candidate_source() {
        use proptest::rand::{rngs::StdRng, SeedableRng};
        let cd = SourceSet::from_iter([SourceId(2), SourceId(3)]);
        let mut top = JitJoinOperator::new(
            "AB⋈CD",
            SourceSet::first_n(2),
            cd,
            PredicateSet::clique(4),
            window(),
            JitPolicy::full(),
        )
        .fed_by([join_of(0, 1), join_of(2, 3)]);
        let mut rng = StdRng::seed_from_u64(7);
        let mut metrics = RunMetrics::new();
        let mut results = 0;
        for seq in 0..900 {
            let (port, sources) = if seq % 2 == 0 {
                (LEFT, [0, 1])
            } else {
                (RIGHT, [2, 3])
            };
            let msg = DataMessage::new(clique_composite(&mut rng, 6, &sources, seq));
            results += process(&mut top, port, &msg, &mut metrics).results.len();
        }
        // A component MNS is detected only once its node, settled by a
        // membership probe, found no partner.
        assert!(results > 0 && metrics.stats.mns_detected > 100);
        let indexes = [LEFT, RIGHT].map(|side| top.states[side].num_indexes());
        assert_eq!(indexes, [2, 2]);
    }

    /// `PlanShape::left_deep(4)`'s middle join `AB⋈C`: its left port (fed
    /// by `A⋈B`, candidates `A` and `B`) settles, so the `C` state holds one
    /// index for each. A suspended `AB` tuple, resumed, regenerates its
    /// results through the same two indexes — the regeneration probe builds
    /// no full-key index either.
    #[test]
    fn a_resumed_tuple_regenerates_through_the_per_source_indexes() {
        use proptest::rand::{rngs::StdRng, SeedableRng};
        let mut middle = JitJoinOperator::new(
            "AB⋈C",
            SourceSet::first_n(2),
            SourceSet::single(SourceId(2)),
            PredicateSet::clique(4),
            window(),
            JitPolicy::full(),
        )
        .fed_by([join_of(0, 1), Producer::Passive]);
        let mut rng = StdRng::seed_from_u64(7);
        let mut metrics = RunMetrics::new();
        let (mut suspended, mut regenerated) = (Vec::new(), 0);
        for seq in 0..600 {
            let now = Timestamp::from_secs(seq);
            if seq % 3 == 0 {
                let msg = DataMessage::new(clique_composite(&mut rng, 3, &[2], seq));
                process(&mut middle, RIGHT, &msg, &mut metrics);
                continue;
            }
            let ab = clique_composite(&mut rng, 3, &[0, 1], seq);
            process(
                &mut middle,
                LEFT,
                &DataMessage::new(ab.clone()),
                &mut metrics,
            );
            let mut ctx = OpContext::new(now, &mut metrics);
            // As the top join would: the `A` of every seventh `AB` has no
            // `D` partner, until a dozen arrivals later it does.
            if seq % 7 == 0 {
                let a = ab.project(SourceSet::single(SourceId(0)));
                middle.handle_feedback(&Feedback::suspend(vec![a.clone()]), &mut ctx);
                suspended.push((seq + 12, a));
            }
            while suspended.first().is_some_and(|&(due, _)| due <= seq) {
                let (_, a) = suspended.remove(0);
                let outcome = middle.handle_feedback(&Feedback::resume(vec![a]), &mut ctx);
                regenerated += outcome.resumed.len();
            }
        }
        assert!(metrics.stats.resumed_tuples > 50 && regenerated > 0);
        assert_eq!(middle.states[RIGHT].num_indexes(), 2);
    }
}
