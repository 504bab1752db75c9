//! The consumer-side MNS buffer.
//!
//! Section III-A: "OC stores all detected MNSs in an MNS buffer until their
//! expiration, and probes each incoming tuple from the opposite input against
//! the MNS buffer." A match removes the MNS and triggers a resumption
//! feedback to the producer.

use jit_exec::{read_envelope, write_envelope, HashIndex, JoinKeySpec, Slab, StateIndexMode};
use jit_metrics::{CostKind, RunMetrics};
use jit_types::{FastMap, PredicateSet, SourceSet, Timestamp, Tuple, TupleKey, Value, Window};
use serde::{Content, Deserialize, Serialize};
use std::collections::hash_map::Entry;

/// One buffered MNS.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct MnsEntry {
    /// The minimal non-demanded sub-tuple.
    pub(crate) mns: Tuple,
    /// When it was detected (application time).
    pub(crate) detected_at: Timestamp,
}

/// The entries of one MNS-coverage class, indexed on the equi-join key
/// between that coverage and the probing tuples' sources — the
/// [`JoinKeySpec`] / [`HashIndex`] machinery of `state.rs` applied to the
/// buffer. A group is created when its coverage is first filed and then
/// lives as long as the probe shape does, empty or not.
#[derive(Debug, Clone)]
struct ProbeGroup {
    /// The source coverage shared by the group's entries.
    coverage: SourceSet,
    /// The stored/probe key pairing for this coverage. Empty when a bucket
    /// miss could not exclude an entry anyway (Ø, no spanning predicate, a
    /// coverage overlapping the probing sources): the group is then all
    /// overflow and every probe examines all of it.
    spec: JoinKeySpec,
    index: HashIndex,
}

/// What the groups are keyed for. Each group's spec is a pure function of
/// `(predicates, coverage, sources)`, so comparing the shape revalidates
/// every group without recomputing a single spec — the per-probe fast path.
#[derive(Debug, Clone)]
struct ProbeShape {
    /// The probing tuples' source coverage.
    sources: SourceSet,
    predicates: PredicateSet,
}

/// A buffer of detected MNSs for one input side of a consumer.
///
/// # Storage
///
/// The entries live in a [`Slab`], as operator states' and blacklists' do;
/// each non-empty MNS queues one expiry. The identity map and the probe
/// groups refer to entries by handle. An MNS is older than its detection by
/// up to a window, so MNSs leave in an order unrelated to the one they came
/// in; when their tombstones make the slab compact, the groups and the
/// identity map follow the renumbering instead of being re-filed. Handles
/// of removed entries linger in the groups until a sweep; readers skip them.
///
/// # The index layer
///
/// Every arrival probes the opposite MNS buffer, so the historical
/// entry-by-entry scan of [`MnsBuffer::take_matching`] is a per-arrival
/// cost term. Under [`StateIndexMode::Hashed`] (the default) the buffer
/// keeps, for the probe shape it is asked about, one hash index per MNS
/// coverage over the entries' equi-join key values and examines only the
/// candidate entries. The indexes are built when the first probe names the
/// shape, extended on every insertion, and never dropped. Matched MNSs,
/// their order and all removals are identical in both modes; only the number
/// of entries examined (the `mns_buffer_probes` statistic and
/// [`CostKind::MnsBufferProbe`] charge) shrinks. [`StateIndexMode::Scan`]
/// restores the historical scan, charges included.
#[derive(Debug, Clone, Default)]
pub struct MnsBuffer {
    name: String,
    /// The buffered entries, in insertion order.
    slots: Slab<MnsEntry>,
    bytes: usize,
    mode: StateIndexMode,
    /// MNS identity → handle (kept in sync across removals).
    by_key: FastMap<TupleKey, u64>,
    /// The probe shape the groups answer for; `None` until the first hashed
    /// probe, and nothing is filed before it.
    shape: Option<ProbeShape>,
    groups: Vec<ProbeGroup>,
    /// Reused buffers: candidate / expired handles, and key values.
    handles: Vec<u64>,
    key: Vec<Value>,
    /// Wholesale re-filings of the groups, for the tests' no-rebuild claim.
    #[cfg(test)]
    refiles: usize,
}

/// File one entry in the group of its coverage, creating the group if this
/// is the coverage's first entry. Callers file in ascending handle order;
/// every handle below `base` (the slab's) is dead.
fn file(
    groups: &mut Vec<ProbeGroup>,
    shape: &ProbeShape,
    mns: &Tuple,
    handle: u64,
    base: u64,
    key: &mut Vec<Value>,
) {
    let coverage = mns.sources();
    let group = match groups.iter_mut().position(|g| g.coverage == coverage) {
        Some(at) => &mut groups[at],
        None => {
            // Only fully keyed entries of a disjoint coverage can be
            // excluded by a bucket miss; everything else stays scanned.
            let spec = if coverage.is_disjoint(shape.sources) {
                JoinKeySpec::between(&shape.predicates, coverage, shape.sources)
            } else {
                JoinKeySpec::on_columns(&[])
            };
            groups.push(ProbeGroup {
                coverage,
                spec,
                index: HashIndex::default(),
            });
            #[expect(
                clippy::expect_used,
                reason = "INVARIANT: a group was pushed on the line above."
            )]
            groups.last_mut().expect("just pushed")
        }
    };
    group.index.file_with(&group.spec, mns, handle, base, key);
}

impl MnsBuffer {
    /// An empty buffer with a diagnostic name.
    pub fn new(name: impl Into<String>) -> Self {
        MnsBuffer {
            name: name.into(),
            ..MnsBuffer::default()
        }
    }

    /// Select how [`MnsBuffer::take_matching`] answers probes (default
    /// [`StateIndexMode::Hashed`]). Matched MNSs are identical in both
    /// modes; only the probe count charged differs.
    pub(crate) fn set_index_mode(&mut self, mode: StateIndexMode) {
        self.mode = mode;
        self.shape = None;
        self.groups.clear();
    }

    /// File every live entry in the groups, from scratch.
    fn refile_groups(&mut self) {
        #[cfg(test)]
        {
            self.refiles += 1;
        }
        self.groups.clear();
        let Some(shape) = &self.shape else { return };
        let base = self.slots.base();
        for (handle, entry) in self.slots.handles() {
            file(
                &mut self.groups,
                shape,
                &entry.mns,
                handle,
                base,
                &mut self.key,
            );
        }
    }

    /// Amortised reclamation after removals ([`Slab::reclaim`]): the groups
    /// drop their dead handles or follow a compaction, and so does the
    /// identity map.
    fn reclaim(&mut self) {
        let (groups, by_key) = (&mut self.groups, &mut self.by_key);
        self.slots.reclaim(|to| {
            groups.iter_mut().for_each(|g| g.index.renumber(to));
            by_key.retain(|_, h| to(*h).map(|fresh| *h = fresh).is_some());
        });
    }

    /// Remove the live entry with handle `handle`, maintaining the byte
    /// accounting and the identity map (the groups keep the stale handle
    /// and filter it when read). Panics if the entry is already gone.
    fn take_at(&mut self, handle: u64) -> MnsEntry {
        #[expect(
            clippy::expect_used,
            reason = "INVARIANT: take_at's contract (doc above) requires a live entry; callers pass handles read from the identity map, candidates() or a due-pop."
        )]
        let entry = self.slots.take(handle).expect("live entry");
        self.bytes -= entry.mns.size_bytes();
        self.by_key.remove(&entry.mns.key());
        entry
    }

    /// Make the groups answer for probes covering `sources` under
    /// `predicates`, re-filing every entry if the shape changed (in a
    /// well-formed plan: on the first probe only).
    fn ensure_shape(&mut self, predicates: &PredicateSet, sources: SourceSet) {
        if let Some(shape) = &self.shape {
            if shape.sources == sources && &shape.predicates == predicates {
                return;
            }
        }
        self.shape = Some(ProbeShape {
            sources,
            predicates: predicates.clone(),
        });
        self.refile_groups();
    }

    /// Fill `self.handles` with the candidate handles for `tuple`,
    /// ascending: under `Scan` every live entry; under `Hashed`, per group,
    /// the probe key's bucket plus the overflow list, or the whole group
    /// when no key can be formed. A non-candidate entry is fully keyed with
    /// a differing key value, so some spanning predicate evaluates to false
    /// — candidates are exactly a superset of the matches, and all live.
    fn candidates(&mut self, tuple: &Tuple, predicates: &PredicateSet) {
        let mut cand = std::mem::take(&mut self.handles);
        cand.clear();
        if self.mode == StateIndexMode::Scan {
            cand.extend(self.slots.handles().map(|(h, _)| h));
        } else {
            self.ensure_shape(predicates, tuple.sources());
            let slots = &self.slots;
            for g in &mut self.groups {
                if g.spec.probe_key_into(tuple, &mut self.key) {
                    let live = |h: u64| slots.is_live(h);
                    g.index.live_candidates_into(&self.key, live, &mut cand);
                } else {
                    // The probe lacks a key column: the spanning predicate
                    // is not applicable, so the whole group is examined.
                    let in_group = slots
                        .handles()
                        .filter(|(_, e)| e.mns.sources() == g.coverage);
                    cand.extend(in_group.map(|(h, _)| h));
                }
            }
            cand.sort_unstable();
        }
        self.handles = cand;
    }

    /// Number of buffered MNSs.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// Is the buffer empty?
    pub(crate) fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Analytical size in bytes.
    pub(crate) fn size_bytes(&self) -> usize {
        self.bytes
    }

    /// Buffer a newly detected MNS (ignored if an identical one is present).
    /// Returns whether it was inserted.
    pub fn insert(&mut self, mns: Tuple, now: Timestamp) -> bool {
        self.admit(MnsEntry {
            mns,
            detected_at: now,
        })
    }

    /// Store `entry` under the next handle unless its MNS is buffered
    /// already. The new entry takes the largest handle, so filing it keeps
    /// every group ascending. The empty MNS Ø never expires, so it queues
    /// no expiry.
    fn admit(&mut self, entry: MnsEntry) -> bool {
        let handle = self.slots.end();
        match self.by_key.entry(entry.mns.key()) {
            Entry::Occupied(_) => return false,
            Entry::Vacant(slot) => slot.insert(handle),
        };
        self.bytes += entry.mns.size_bytes();
        if !entry.mns.is_empty() {
            self.slots.expire_with(handle, &entry.mns);
        }
        if let Some(shape) = &self.shape {
            let base = self.slots.base();
            file(
                &mut self.groups,
                shape,
                &entry.mns,
                handle,
                base,
                &mut self.key,
            );
        }
        self.slots.push(entry);
        true
    }

    /// Remove and return, in entry (insertion) order, the MNSs that have
    /// expired by `now` ([`Window::expires_at`]).
    ///
    /// The caller (the consumer operator) turns these into resumption
    /// feedback: once the justification for a suspension has expired, the
    /// producer must release any still-alive similar tuples it suppressed on
    /// its behalf, otherwise their future join partners would be missed.
    pub(crate) fn take_expired(&mut self, window: Window, now: Timestamp) -> Vec<Tuple> {
        let mut due = std::mem::take(&mut self.handles);
        due.clear();
        due.extend(std::iter::from_fn(|| self.slots.pop_due(window, now)));
        // The due-pop yields expiry order; the contract is entry order.
        due.sort_unstable();
        let expired: Vec<Tuple> = due.iter().map(|&h| self.take_at(h).mns).collect();
        self.handles = due;
        if !expired.is_empty() {
            self.reclaim();
        }
        expired
    }

    /// Remove and return every buffered MNS matched by `tuple`.
    ///
    /// An MNS `s` is matched when every join predicate between `s`'s sources
    /// and the tuple's sources holds and the two are within the window. The
    /// empty MNS Ø is matched by any tuple (the opposite state is no longer
    /// empty).
    pub fn take_matching(
        &mut self,
        tuple: &Tuple,
        predicates: &PredicateSet,
        window: Window,
        metrics: &mut RunMetrics,
    ) -> Vec<Tuple> {
        let is_match = |entry: &MnsEntry| {
            entry.mns.is_empty()
                || (window.can_join(entry.mns.ts(), tuple.ts())
                    && predicates.matches(&entry.mns, tuple))
        };
        // Candidate handles are ascending, so matched MNSs come out in
        // entry order — in both modes.
        self.candidates(tuple, predicates);
        let probes = self.handles.len() as u64;
        let mut matched = Vec::new();
        for i in 0..self.handles.len() {
            let handle = self.handles[i];
            #[expect(
                clippy::expect_used,
                reason = "INVARIANT: candidates() yields handles of live entries only, each once, and this loop removes none before examining it."
            )]
            if is_match(self.slots.get(handle).expect("candidates are live")) {
                matched.push(self.take_at(handle).mns);
            }
        }
        if !matched.is_empty() {
            self.reclaim();
        }
        metrics.charge(CostKind::MnsBufferProbe, probes);
        matched
    }

    /// The earliest expiry key of a buffered MNS ([`Slab::next_expiry`]):
    /// [`MnsBuffer::take_expired`] removes something at `now` iff
    /// `window.is_expired(key, now)`. `None` means no purge can ever remove
    /// anything (the buffer is empty or holds only the never-expiring Ø),
    /// so callers can elide the purge entirely.
    pub(crate) fn next_expiry(&self) -> Option<Timestamp> {
        self.slots.next_expiry()
    }

    /// Remove a specific MNS by identity (used when a producer reports it can
    /// no longer serve it). Returns whether it was present.
    pub(crate) fn remove(&mut self, key: &TupleKey) -> bool {
        // Identities are unique in the buffer (insert dedups), so the map
        // lookup finds the only possible entry.
        let Some(&handle) = self.by_key.get(key) else {
            return false;
        };
        self.take_at(handle);
        self.reclaim();
        true
    }

    /// Iterate over buffered entries, in insertion order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &MnsEntry> {
        self.slots.iter()
    }

    /// Serialise the entries for a durability checkpoint
    /// ([`write_envelope`]). The index mode, the identity map and the probe
    /// groups are runtime configuration / derived structure and are not
    /// persisted.
    pub(crate) fn checkpoint(&self) -> Content {
        write_envelope(&self.name, self.iter())
    }

    /// Replace the entries with a checkpointed set, rebuilding the byte
    /// accounting and everything derived. The checkpoint must carry the same
    /// diagnostic name (i.e. come from the same operator slot).
    pub(crate) fn restore_checkpoint(&mut self, content: &Content) -> Result<(), serde::Error> {
        let entries: Vec<MnsEntry> = read_envelope(content, &self.name, "MnsBuffer")?;
        self.slots.clear();
        self.by_key.clear();
        self.groups.clear();
        self.bytes = 0;
        for entry in entries {
            self.admit(entry);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jit_types::{BaseTuple, Duration, SourceId, Value};
    use std::sync::Arc;

    fn tup(source: u16, seq: u64, ts_ms: u64, vals: &[i64]) -> Tuple {
        Tuple::from_base(Arc::new(BaseTuple::new(
            SourceId(source),
            seq,
            Timestamp::from_millis(ts_ms),
            vals.iter().map(|&v| Value::int(v)).collect(),
        )))
    }

    fn window() -> Window {
        Window::new(Duration::from_secs(60))
    }

    #[test]
    fn insert_dedups_by_identity() {
        let mut b = MnsBuffer::new("NB_left");
        let a1 = tup(0, 1, 0, &[5, 7]);
        assert!(b.insert(a1.clone(), Timestamp::ZERO));
        assert!(!b.insert(a1.clone(), Timestamp::from_millis(10)));
        assert_eq!(b.len(), 1);
        assert!(b.iter().any(|e| e.mns.key() == a1.key()));
        assert!(b.size_bytes() > 0);
        assert_eq!(b.name, "NB_left");
    }

    #[test]
    fn take_matching_respects_predicates() {
        // Clique over 2 sources: A.x0 = B.x0.
        let preds = PredicateSet::clique(2);
        let mut metrics = RunMetrics::new();
        let mut b = MnsBuffer::new("NB");
        b.set_index_mode(StateIndexMode::Scan);
        b.insert(tup(0, 1, 0, &[5]), Timestamp::ZERO);
        b.insert(tup(0, 2, 0, &[9]), Timestamp::ZERO);
        // A B tuple with value 5 matches the first MNS only; the scan
        // charges one probe per buffered entry.
        let probe = tup(1, 1, 1_000, &[5]);
        let matched = b.take_matching(&probe, &preds, window(), &mut metrics);
        assert_eq!(matched.len(), 1);
        assert_eq!(matched[0].parts()[0].seq, 1);
        assert_eq!(b.len(), 1);
        assert_eq!(metrics.stats.mns_buffer_probes, 2);
    }

    #[test]
    fn hashed_probe_charges_only_candidates() {
        let preds = PredicateSet::clique(2);
        let mut metrics = RunMetrics::new();
        let mut b = MnsBuffer::new("NB");
        assert_eq!(b.mode, StateIndexMode::Hashed);
        b.insert(tup(0, 1, 0, &[5]), Timestamp::ZERO);
        b.insert(tup(0, 2, 0, &[9]), Timestamp::ZERO);
        // The hashed probe examines only the key-5 bucket: one candidate.
        let probe = tup(1, 1, 1_000, &[5]);
        let matched = b.take_matching(&probe, &preds, window(), &mut metrics);
        assert_eq!(matched.len(), 1);
        assert_eq!(matched[0].parts()[0].seq, 1);
        assert_eq!(b.len(), 1);
        assert_eq!(metrics.stats.mns_buffer_probes, 1);
        // A key matching nothing examines no entries at all.
        let matched = b.take_matching(&tup(1, 2, 1_000, &[7]), &preds, window(), &mut metrics);
        assert!(matched.is_empty());
        assert_eq!(metrics.stats.mns_buffer_probes, 1);
    }

    /// Hashed and scan buffers must return identical matches, in identical
    /// order, across interleaved inserts, probes, expiries and removals.
    #[test]
    fn hashed_and_scan_agree_on_matches() {
        let preds = PredicateSet::clique(3);
        let mut metrics = RunMetrics::new();
        let mut hashed = MnsBuffer::new("H");
        let mut scan = MnsBuffer::new("S");
        scan.set_index_mode(StateIndexMode::Scan);
        // MNSs from two sources plus the Ø MNS, with clashing key values.
        let mut seed: Vec<Tuple> = Vec::new();
        for i in 0..8u64 {
            seed.push(tup(
                (i % 2) as u16,
                i,
                i * 100,
                &[(i % 3) as i64, (i % 4) as i64],
            ));
        }
        seed.push(Tuple::empty());
        for m in &seed {
            assert_eq!(
                hashed.insert(m.clone(), m.ts()),
                scan.insert(m.clone(), m.ts())
            );
        }
        // Probe from source 2 (joins both stored sources via the clique).
        for key in 0..4i64 {
            let probe = tup(2, 100 + key as u64, 500, &[key, key]);
            let h = hashed.take_matching(&probe, &preds, window(), &mut metrics);
            let s = scan.take_matching(&probe, &preds, window(), &mut metrics);
            assert_eq!(
                h.iter().map(Tuple::key).collect::<Vec<_>>(),
                s.iter().map(Tuple::key).collect::<Vec<_>>(),
                "key {key}"
            );
            assert_eq!(hashed.len(), scan.len());
            assert_eq!(hashed.size_bytes(), scan.size_bytes());
        }
        assert_eq!(
            hashed.take_expired(window(), Timestamp::from_millis(61_000)),
            scan.take_expired(window(), Timestamp::from_millis(61_000))
        );
        for m in &seed {
            assert_eq!(hashed.remove(&m.key()), scan.remove(&m.key()));
        }
        assert!(hashed.is_empty() && scan.is_empty());
    }

    #[test]
    fn empty_mns_matches_anything_and_never_expires() {
        let preds = PredicateSet::clique(2);
        let mut metrics = RunMetrics::new();
        let mut b = MnsBuffer::new("NB");
        b.insert(Tuple::empty(), Timestamp::ZERO);
        assert!(b
            .take_expired(window(), Timestamp::from_millis(10_000_000))
            .is_empty());
        let matched = b.take_matching(&tup(1, 1, 500, &[1]), &preds, window(), &mut metrics);
        assert_eq!(matched.len(), 1);
        assert!(matched[0].is_empty());
        assert!(b.is_empty());
    }

    #[test]
    fn expired_mns_is_purged_and_not_matched() {
        let preds = PredicateSet::clique(2);
        let mut metrics = RunMetrics::new();
        let mut b = MnsBuffer::new("NB");
        b.insert(tup(0, 1, 0, &[5]), Timestamp::ZERO);
        // After the window has passed, the MNS cannot be matched…
        let matched = b.take_matching(&tup(1, 1, 100_000, &[5]), &preds, window(), &mut metrics);
        assert!(matched.is_empty());
        // …and the purge removes it.
        let expired = b.take_expired(window(), Timestamp::from_millis(100_000));
        assert_eq!(expired.len(), 1);
        assert!(b.is_empty());
        assert_eq!(b.size_bytes(), 0);
    }

    #[test]
    fn remove_by_key() {
        let mut b = MnsBuffer::new("NB");
        let m = tup(0, 3, 0, &[1]);
        b.insert(m.clone(), Timestamp::ZERO);
        assert!(b.remove(&m.key()));
        assert!(!b.remove(&m.key()));
        assert_eq!(b.size_bytes(), 0);
    }

    #[test]
    fn checkpoint_round_trips_entries() {
        let preds = PredicateSet::clique(2);
        let mut metrics = RunMetrics::new();
        let mut b = MnsBuffer::new("NB");
        b.insert(tup(0, 1, 0, &[5]), Timestamp::from_millis(3));
        b.insert(tup(0, 2, 10, &[9]), Timestamp::from_millis(12));
        b.insert(Tuple::empty(), Timestamp::ZERO);
        let blob = b.checkpoint();
        let mut restored = MnsBuffer::new("NB");
        restored.restore_checkpoint(&blob).unwrap();
        assert_eq!(restored.len(), b.len());
        assert_eq!(restored.size_bytes(), b.size_bytes());
        let times: Vec<Timestamp> = restored.iter().map(|e| e.detected_at).collect();
        assert_eq!(
            times,
            vec![
                Timestamp::from_millis(3),
                Timestamp::from_millis(12),
                Timestamp::ZERO
            ]
        );
        // The rebuilt identity map and probe machinery behave identically.
        let probe = tup(1, 1, 1_000, &[5]);
        assert_eq!(
            restored
                .take_matching(&probe, &preds, window(), &mut metrics)
                .iter()
                .map(Tuple::key)
                .collect::<Vec<_>>(),
            b.take_matching(&probe, &preds, window(), &mut metrics)
                .iter()
                .map(Tuple::key)
                .collect::<Vec<_>>()
        );
        // A checkpoint from a differently named buffer is rejected.
        let mut other = MnsBuffer::new("other");
        assert!(other.restore_checkpoint(&blob).is_err());
    }

    #[test]
    fn iteration_exposes_detection_times() {
        let mut b = MnsBuffer::new("NB");
        b.insert(tup(0, 1, 0, &[1]), Timestamp::from_millis(42));
        let times: Vec<Timestamp> = b.iter().map(|e| e.detected_at).collect();
        assert_eq!(times, vec![Timestamp::from_millis(42)]);
    }

    /// The buffer against the observable contract of the implementation it
    /// replaced (a `Vec` in insertion order; under `Hashed`, a probe
    /// examines the entries a bucket miss cannot exclude), on random
    /// operation sequences.
    mod model {
        use super::*;
        use proptest::prelude::*;
        use proptest::rand::{rngs::StdRng, Rng, SeedableRng};

        struct Model {
            entries: Vec<MnsEntry>,
            mode: StateIndexMode,
        }

        /// Would the replaced probe cache have examined `entry` for `probe`?
        /// Everything but a fully keyed entry, of a coverage disjoint from
        /// the probe's, whose key differs from the probe's.
        fn examined(entry: &MnsEntry, probe: &Tuple, predicates: &PredicateSet) -> bool {
            let coverage = entry.mns.sources();
            let spec = JoinKeySpec::between(predicates, coverage, probe.sources());
            if spec.is_empty() || !coverage.is_disjoint(probe.sources()) {
                return true;
            }
            match (spec.stored_key(&entry.mns), spec.probe_key(probe)) {
                (Some(stored), Some(probed)) => stored == probed,
                _ => true,
            }
        }

        impl Model {
            fn insert(&mut self, mns: Tuple, now: Timestamp) -> bool {
                if self.entries.iter().any(|e| e.mns.key() == mns.key()) {
                    return false;
                }
                self.entries.push(MnsEntry {
                    mns,
                    detected_at: now,
                });
                true
            }

            /// The matched MNSs in entry order, and the probes charged.
            fn take_matching(
                &mut self,
                probe: &Tuple,
                predicates: &PredicateSet,
                window: Window,
            ) -> (Vec<Tuple>, u64) {
                let (mut matched, mut probes) = (Vec::new(), 0);
                self.entries.retain(|e| {
                    if self.mode == StateIndexMode::Hashed && !examined(e, probe, predicates) {
                        return true;
                    }
                    probes += 1;
                    let hit = e.mns.is_empty()
                        || (window.can_join(e.mns.ts(), probe.ts())
                            && predicates.matches(&e.mns, probe));
                    if hit {
                        matched.push(e.mns.clone());
                    }
                    !hit
                });
                (matched, probes)
            }

            fn take_expired(&mut self, window: Window, now: Timestamp) -> Vec<Tuple> {
                let mut expired = Vec::new();
                self.entries.retain(|e| {
                    let gone = !e.mns.is_empty() && window.is_expired(e.mns.ts(), now);
                    if gone {
                        expired.push(e.mns.clone());
                    }
                    !gone
                });
                expired
            }

            fn remove(&mut self, key: &TupleKey) -> bool {
                let before = self.entries.len();
                self.entries.retain(|e| &e.mns.key() != key);
                self.entries.len() < before
            }

            fn next_expiry(&self) -> Option<Timestamp> {
                let dated = self.entries.iter().filter(|e| !e.mns.is_empty());
                dated.map(|e| e.mns.ts()).min()
            }
        }

        fn keys(tuples: &[Tuple]) -> Vec<TupleKey> {
            tuples.iter().map(Tuple::key).collect()
        }

        fn assert_same(buffer: &MnsBuffer, model: &Model, step: usize) {
            let shape = |e: &MnsEntry| (e.mns.key(), e.detected_at);
            let live: Vec<_> = buffer.iter().map(shape).collect();
            let expected: Vec<_> = model.entries.iter().map(shape).collect();
            assert_eq!(live, expected, "step {step}: entries in order");
            assert_eq!(buffer.len(), model.entries.len(), "step {step}");
            assert_eq!(buffer.is_empty(), model.entries.is_empty());
            let bytes: usize = model.entries.iter().map(|e| e.mns.size_bytes()).sum();
            assert_eq!(buffer.size_bytes(), bytes, "step {step}: bytes");
            assert_eq!(
                buffer.by_key.len(),
                buffer.len(),
                "step {step}: identity map"
            );
            if let Some(due) = model.next_expiry() {
                let bound = buffer.next_expiry().expect("a dated entry is queued");
                assert!(bound <= due, "step {step}: purge bound late");
            }
            // Dead handles stay within a multiple of the live entries.
            let dead = (buffer.slots.end() - buffer.slots.base()) as usize - buffer.len();
            assert!(
                dead <= 2 * buffer.len() + 65,
                "step {step}: {dead} dead handles"
            );
        }

        const WINDOW_MS: u64 = 20_000;

        /// One random step applied to both sides. `quiet` keeps to the
        /// steady-state operations of one operator: one probe shape, no
        /// restore.
        #[expect(
            clippy::too_many_arguments,
            reason = "one random step applied to both sides takes every piece of both"
        )]
        fn step(
            rng: &mut StdRng,
            buffer: &mut MnsBuffer,
            model: &mut Model,
            known: &mut Vec<Tuple>,
            now_ms: u64,
            seq: u64,
            quiet: bool,
            step: usize,
        ) {
            let window = Window::new(Duration::from_millis(WINDOW_MS));
            let predicates = PredicateSet::clique(3);
            let now = Timestamp::from_millis(now_ms);
            // Timestamps jitter backwards (an MNS is older than its
            // detection), join values repeat.
            let ts = now_ms.saturating_sub(rng.gen_range(0u64..WINDOW_MS));
            let vals = |rng: &mut StdRng| [rng.gen_range(0i64..4), rng.gen_range(0i64..4)];
            match rng.gen_range(0u32..100) {
                0..=44 => {
                    // Coverage {0,1} comes in bursts, so its group empties
                    // out and is filed into again.
                    let pair_phase = (now_ms / (3 * WINDOW_MS)).is_multiple_of(2);
                    let mns = match rng.gen_range(0u32..20) {
                        0 => Tuple::empty(),
                        1..=3 if !known.is_empty() => known[rng.gen_range(0..known.len())].clone(),
                        4..=9 if pair_phase => tup(0, seq, ts, &vals(rng))
                            .join(&tup(1, seq, ts / 2, &vals(rng)))
                            .expect("disjoint sources"),
                        10..=14 => tup(1, seq, ts, &vals(rng)),
                        _ => tup(0, seq, ts, &vals(rng)),
                    };
                    assert_eq!(
                        buffer.insert(mns.clone(), now),
                        model.insert(mns.clone(), now),
                        "step {step}: inserted"
                    );
                    known.push(mns);
                }
                45..=74 => {
                    let probe = match rng.gen_range(0u32..10) {
                        // Too few columns to form a probe key: whole groups.
                        0 => tup(2, seq, now_ms, &[]),
                        // Sources overlapping the coverages {1} and {0,1}.
                        1 if !quiet => tup(1, seq, now_ms, &vals(rng))
                            .join(&tup(2, seq, now_ms, &vals(rng)))
                            .expect("disjoint sources"),
                        _ => tup(2, seq, now_ms, &vals(rng)),
                    };
                    let mut metrics = RunMetrics::new();
                    let got = buffer.take_matching(&probe, &predicates, window, &mut metrics);
                    let (want, probes) = model.take_matching(&probe, &predicates, window);
                    assert_eq!(keys(&got), keys(&want), "step {step}: matched");
                    assert_eq!(
                        metrics.stats.mns_buffer_probes, probes,
                        "step {step}: probes"
                    );
                }
                75..=84 => {
                    let got = buffer.take_expired(window, now);
                    assert_eq!(
                        keys(&got),
                        keys(&model.take_expired(window, now)),
                        "step {step}"
                    );
                }
                85..=94 if !known.is_empty() => {
                    let key = known[rng.gen_range(0..known.len())].key();
                    assert_eq!(
                        buffer.remove(&key),
                        model.remove(&key),
                        "step {step}: removed"
                    );
                }
                _ if !quiet => {
                    let blob = buffer.checkpoint();
                    let mut restored = MnsBuffer::new(&buffer.name);
                    restored.set_index_mode(buffer.mode);
                    restored.restore_checkpoint(&blob).expect("own checkpoint");
                    *buffer = restored;
                }
                _ => {}
            }
            assert_same(buffer, model, step);
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

            #[test]
            fn buffer_matches_vec_model(seed in 0u64..1_000_000, scan in proptest::bool::ANY) {
                let mut rng = StdRng::seed_from_u64(seed);
                let mode = if scan { StateIndexMode::Scan } else { StateIndexMode::Hashed };
                let mut buffer = MnsBuffer::new("NB");
                buffer.set_index_mode(mode);
                let mut model = Model { entries: Vec::new(), mode };
                let mut known: Vec<Tuple> = Vec::new();
                let (mut now_ms, mut seq) = (0u64, 0u64);
                for i in 0..600 {
                    now_ms += rng.gen_range(0u64..400);
                    seq += 1;
                    step(&mut rng, &mut buffer, &mut model, &mut known, now_ms, seq, false, i);
                }
                // Steady state — one probe shape, no restore: twelve more
                // windows of churn, with coverages emptying out and coming
                // back, re-file nothing after the shape's first probe.
                let mut metrics = RunMetrics::new();
                let settle = tup(2, 0, now_ms, &[0, 0]);
                let window = Window::new(Duration::from_millis(WINDOW_MS));
                let got = buffer.take_matching(&settle, &PredicateSet::clique(3), window, &mut metrics);
                let (want, _) = model.take_matching(&settle, &PredicateSet::clique(3), window);
                prop_assert_eq!(keys(&got), keys(&want));
                let (refiles, quiet_until) = (buffer.refiles, now_ms + 12 * WINDOW_MS);
                let mut i = 600;
                while now_ms < quiet_until {
                    now_ms += rng.gen_range(0u64..400);
                    seq += 1;
                    i += 1;
                    step(&mut rng, &mut buffer, &mut model, &mut known, now_ms, seq, true, i);
                }
                prop_assert_eq!(buffer.refiles, refiles, "groups re-filed in steady state");
                if !scan {
                    let coverages = buffer.groups.iter().map(|g| g.coverage.len());
                    prop_assert!(coverages.max() == Some(2), "the two-source coverage was filed");
                    prop_assert!(buffer.groups.len() >= 3);
                }
            }
        }
    }
}
