//! The producer half of the JIT join (`Handle_Feedback`, Section IV-B).
//!
//! Suspension feedback drains the super-tuples of the named MNS (and,
//! optionally, "similar" tuples with the same join-attribute values) from
//! the corresponding state into a blacklist and diverts future matching
//! arrivals; resumption feedback restores them, regenerating exactly the
//! partial results that were never produced through the shared
//! [`WindowJoin::probe`]; both kinds are propagated upstream before they are
//! handled (Section III-C). Ø suspends the whole operator: its inputs are
//! held unprocessed until Ø is resumed.
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

use crate::blacklist::{Blacklist, BlacklistedTuple, SuspendMode};
use crate::jit_join::JitJoinOperator;
use jit_exec::operator::{DataMessage, FeedbackOutcome, OpContext, Operator, Port, LEFT, RIGHT};
use jit_exec::{opposite, JoinKeySpec, StoredTuple, WindowJoin};
use jit_metrics::{CostKind, RunMetrics};
use jit_types::{FastMap, Feedback, Timestamp, Tuple, TupleKey};
use std::sync::Arc;

/// Closed presence intervals of the tuples that have been blacklisted at
/// least once, expressed in the operator's logical event sequence (one tick
/// per insertion or drain), so that same-millisecond events stay ordered.
pub(crate) type PresenceHistory = FastMap<TupleKey, Vec<(u64, u64)>>;

/// The producer half of one side: what it holds back from the side's state.
pub(crate) struct Suppressed {
    /// Suspended tuples drained from the side's state.
    pub(crate) blacklist: Blacklist,
    /// Presence histories of the side's tuples that have been blacklisted.
    pub(crate) history: PresenceHistory,
}

impl Suppressed {
    /// Nothing suspended yet on `side` of `join`.
    pub(crate) fn new(join: &WindowJoin, side: Port) -> Self {
        Suppressed {
            blacklist: Blacklist::new(match (join.name(), side) {
                (name, LEFT) => format!("{name}.BL_L"),
                (name, _) => format!("{name}.BL_R"),
            }),
            history: FastMap::default(),
        }
    }
}

/// A tuple that expires leaves for good: drop its presence history with it,
/// if any tuple has one.
pub(crate) fn forget(history: &mut PresenceHistory, tuple: &Tuple) {
    if !history.is_empty() {
        history.remove(&tuple.key());
    }
}

/// Pass `fb` on to the producer of `side`: an operator propagates feedback
/// before handling it (Section III-C, rule (i)).
pub(crate) fn propagate(
    side: Port,
    fb: Feedback,
    metrics: &mut RunMetrics,
    outcome: &mut FeedbackOutcome,
) {
    outcome.propagate.push((side, fb));
    metrics.stats.feedback_propagated += 1;
}

/// Has the pair (restoring tuple with the closed intervals `own_hist`,
/// tuple `stored` whose side keeps `opp_history`) been produced before?
/// True iff their presence intervals ever overlapped: a pair is joined
/// exactly when one member is inserted while the other is present.
fn produced_before(
    own_hist: &[(u64, u64)],
    opp_history: &PresenceHistory,
    stored: &StoredTuple,
) -> bool {
    if own_hist.is_empty() {
        // Diverted on arrival: never present, never joined anything.
        return false;
    }
    let opp_hist = opp_history.get(&stored.tuple.key());
    let opp_hist = opp_hist.map_or(&[][..], Vec::as_slice);
    let overlaps = |a: (u64, u64), b: (u64, u64)| a.0 < b.1 && b.0 < a.1;
    // The opposite tuple's current (ongoing) presence interval.
    let opp_current = (stored.stamp, u64::MAX);
    own_hist.iter().any(|&interval| {
        overlaps(interval, opp_current) || opp_hist.iter().any(|&other| overlaps(interval, other))
    })
}

impl JitJoinOperator {
    /// Ø suspension: buffer an input untouched, with its arrival instant.
    pub(crate) fn hold(&mut self, port: Port, msg: &DataMessage, ctx: &mut OpContext<'_>) {
        self.pending_bytes += msg.size_bytes();
        self.pending.push((port, msg.clone(), ctx.now));
        ctx.metrics.stats.intermediate_suppressed += 1;
    }

    /// Producer-side diversion: an arrival captured by a blacklist entry is
    /// suspended immediately instead of being processed. Returns whether it
    /// was.
    pub(crate) fn divert(&mut self, port: Port, tuple: &Tuple, metrics: &mut RunMetrics) -> bool {
        let blacklist = &mut self.producers[port].blacklist;
        let Some(idx) = blacklist.matching_entry(tuple, self.policy.capture_similar) else {
            return false;
        };
        blacklist.add_tuple(idx, tuple.clone());
        metrics.stats.blacklisted_tuples += 1;
        metrics.stats.intermediate_suppressed += 1;
        metrics.charge(CostKind::BlacklistMove, 1);
        true
    }

    /// The side whose input an MNS lies inside, or `None` for a Type II MNS
    /// spanning both (ignoring it is always legal, Section IV-B; the
    /// mark-result path is not implemented).
    fn side_of(&self, mns: &Tuple) -> Option<Port> {
        [LEFT, RIGHT]
            .into_iter()
            .find(|&side| mns.sources().is_subset(self.join.schema(side)))
    }

    /// Handle the suspension of one MNS.
    pub(crate) fn suspend_one(
        &mut self,
        mns: &Tuple,
        now: Timestamp,
        metrics: &mut RunMetrics,
        outcome: &mut FeedbackOutcome,
    ) {
        if mns.is_empty() {
            self.fully_suspended = true;
            for side in [LEFT, RIGHT] {
                propagate(
                    side,
                    Feedback::suspend(vec![Tuple::empty()]),
                    metrics,
                    outcome,
                );
            }
            return;
        }
        let Some(side) = self.side_of(mns) else {
            return;
        };
        propagate(side, Feedback::suspend(vec![mns.clone()]), metrics, outcome);
        // "Similar" tuples are recognised on the join attributes of the
        // MNS's sources towards the part of the query outside this
        // operator's output.
        let (predicates, output) = (self.join.predicates(), self.join.output_schema());
        let (sig_columns, drain_spec) =
            self.suspend_shapes.entry(mns.sources()).or_insert_with(|| {
                let external = predicates.referenced_sources().difference(output);
                let columns = predicates.join_columns(mns.sources(), external);
                let spec = JoinKeySpec::on_columns(&columns);
                (columns.into(), spec)
            });
        let held = &mut self.producers[side];
        let entry_idx = held.blacklist.upsert_entry(
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
        #[expect(
            clippy::expect_used,
            reason = "INVARIANT: upsert_entry returned this position just above and nothing has been removed from the blacklist since."
        )]
        let entry = held.blacklist.entry(entry_idx).expect("just upserted");
        let drained = self
            .join
            .state_mut(side)
            .drain_matching(drain_spec, mns, |stored| {
                entry.captures(&stored.tuple, capture_similar)
            });
        for stored in drained {
            // Close the tuple's presence interval at the current event.
            self.event_seq += 1;
            held.history
                .entry(stored.tuple.key())
                .or_insert_with(|| Vec::with_capacity(1))
                .push((stored.stamp, self.event_seq));
            metrics.stats.blacklisted_tuples += 1;
            metrics.charge(CostKind::BlacklistMove, 1);
            held.blacklist.add_tuple(entry_idx, stored.tuple);
        }
    }

    /// Handle the resumption of one MNS.
    pub(crate) fn resume_one(
        &mut self,
        mns: &Tuple,
        now: Timestamp,
        metrics: &mut RunMetrics,
        outcome: &mut FeedbackOutcome,
    ) {
        if mns.is_empty() {
            if self.fully_suspended {
                self.exit_full_suspension(metrics, outcome);
            }
            for side in [LEFT, RIGHT] {
                propagate(
                    side,
                    Feedback::resume(vec![Tuple::empty()]),
                    metrics,
                    outcome,
                );
            }
            return;
        }
        // Type II: nothing was suspended locally.
        let Some(side) = self.side_of(mns) else {
            return;
        };
        propagate(side, Feedback::resume(vec![mns.clone()]), metrics, outcome);
        let Some(entry) = self.producers[side].blacklist.remove_entry(&mns.key()) else {
            return;
        };
        for suspended in entry.tuples {
            self.restore_suspended(side, suspended, now, metrics, outcome);
        }
    }

    /// Leave Ø suspension, reprocessing buffered inputs with their original
    /// arrival instants (so purge decisions match what a prompt execution
    /// would have done).
    pub(crate) fn exit_full_suspension(
        &mut self,
        metrics: &mut RunMetrics,
        outcome: &mut FeedbackOutcome,
    ) {
        self.fully_suspended = false;
        let pending = std::mem::take(&mut self.pending);
        self.pending_bytes = 0;
        let mut results = Vec::new();
        let mut feedback = Vec::new();
        for (port, msg, arrived_at) in pending {
            let mut inner = OpContext::new(arrived_at, &mut *metrics);
            let out = self.process(port, &msg, &mut inner);
            results.extend(out.results);
            feedback.extend(out.feedback);
        }
        outcome.resumed.extend(results);
        outcome.propagate.extend(feedback);
    }

    /// Move one suspended tuple back into the state of `side`: regenerate
    /// exactly the pairs never produced before, resume any opposite-side MNS
    /// the tuple is the awaited partner of, and start a fresh presence
    /// interval.
    pub(crate) fn restore_suspended(
        &mut self,
        side: Port,
        suspended: BlacklistedTuple,
        now: Timestamp,
        metrics: &mut RunMetrics,
        outcome: &mut FeedbackOutcome,
    ) {
        let tuple = suspended.tuple;
        // Expired tuples can no longer contribute results.
        if self.join.window().expires_at(&tuple) <= now {
            self.producers[side].history.remove(&tuple.key());
            return;
        }
        let opp = opposite(side);
        metrics.stats.resumed_tuples += 1;
        metrics.charge(CostKind::BlacklistMove, 1);
        // The restored tuple may be the awaited partner of an MNS
        // detected on the opposite input while it was suspended.
        self.resume_partnered(opp, &tuple, metrics, &mut outcome.propagate);
        // Regenerate exactly the pairs never produced before, probing only
        // the candidates sharing the restored tuple's equi-join key.
        let candidates = self.candidate_sources(&tuple, side);
        let settles = self.settles(side, candidates);
        let specs = &self.consumers[side].source_specs[..];
        let per_source = settles.then_some((specs, &mut self.source_hits));
        let own_hist = self.producers[side].history.get(&tuple.key());
        let own_hist = own_hist.map_or(&[][..], Vec::as_slice);
        let opp_history = &self.producers[opp].history;
        let produced = self.join.probe(
            side,
            &tuple,
            per_source,
            metrics,
            |p, input, stored, evals, _| {
                !produced_before(own_hist, opp_history, stored)
                    && p.join_matches(input, &stored.tuple, evals)
            },
        );
        outcome.resumed.extend(produced);
        // Back into the state; a fresh presence interval starts now.
        self.insert(side, tuple, metrics);
    }
}
