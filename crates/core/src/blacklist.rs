//! The producer-side blacklist.
//!
//! Section IV-B: when a producer handles `<suspend, {s}>`, it scans its
//! operator state, extracts the super-tuples of the MNS `s` (and, optionally,
//! tuples with identical join-attribute values — the "similar" tuples like
//! `a2` in the running example) and moves them to a blacklist. New arrivals
//! matching a blacklisted MNS are diverted straight into the blacklist
//! instead of being processed. On `<resume, {s}>` the entry's tuples are
//! moved back and joined only with the opposite tuples they have not been
//! joined with yet.

use jit_exec::{read_envelope, write_envelope, Slab};
use jit_types::{ColumnRef, FastMap, Signature, Timestamp, Tuple, TupleKey, Value, Window};
use serde::{Content, Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// How an entry suppresses production. There is one way: its super-tuples
/// are not produced at all (`<suspend, …>`).
///
/// No operator reads this: every entry suspends. The type and the `mode`
/// argument of [`Blacklist::upsert_entry`] are retained solely for
/// `bench_e2e/src/layers.rs`, which passes [`SuspendMode::Suspend`] in its
/// blacklist layer drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuspendMode {
    /// Super-tuples are not produced at all (`<suspend, …>`).
    Suspend,
}

/// One suspended tuple.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct BlacklistedTuple {
    /// The suspended tuple (a super-tuple of the entry's MNS, or a similar
    /// tuple captured by signature).
    pub(crate) tuple: Tuple,
}

/// All tuples suspended on behalf of one MNS.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct BlacklistEntry {
    /// The MNS that justified the suspension (as received in the feedback).
    pub(crate) mns: Tuple,
    /// The join-attribute columns used to recognise similar tuples, shared
    /// by every entry an operator suspends for MNSs of one coverage.
    pub(crate) signature_columns: Arc<[ColumnRef]>,
    /// The MNS's values on those columns.
    pub(crate) signature: Signature,
    /// When the suspension was installed.
    pub(crate) suspended_at: Timestamp,
    /// The suspended tuples.
    pub(crate) tuples: Vec<BlacklistedTuple>,
}

impl BlacklistEntry {
    /// Does `tuple` belong to this entry — i.e. is it a super-tuple of the
    /// MNS, or (when `allow_similar`) does it carry the same join-attribute
    /// values?
    pub(crate) fn captures(&self, tuple: &Tuple, allow_similar: bool) -> bool {
        if self.mns.is_subtuple_of(tuple) {
            return true;
        }
        if allow_similar
            && !self.signature_columns.is_empty()
            && self.mns.sources().is_subset(tuple.sources())
        {
            return self.signature.matches(tuple);
        }
        false
    }
}

/// The blacklist attached to one operator state.
///
/// # Storage
///
/// Entries live in a [`Slab`], as operator states' and MNS buffers' do: an
/// entry's position is its slab handle, ascending in insertion order, so
/// resuming one MNS un-files one entry from the hash indexes and every
/// "first entry in ascending order" contract below holds on positions (a
/// compaction renumbers them in order). Each entry queues one expiry per
/// suspended tuple and one for its MNS (unless it is Ø), so
/// `Blacklist::purge` visits only the entries something expired in.
///
/// # The index layer
///
/// Every arrival is probed against the blacklist (the producer-side
/// diversion check), so a linear scan over the entries would be a
/// per-arrival cost term. The blacklist keeps three hash indexes over its
/// entries — by MNS identity, by the identity of the MNS's first component
/// (a super-tuple must carry that component), and by signature over each
/// distinct signature-column set — so [`Blacklist::matching_entry`]
/// examines only the candidate entries. Candidates are verified with
/// `BlacklistEntry::captures` in ascending entry order, which makes the
/// hashed lookup return exactly the entry a linear scan would find. The
/// indexes are not charged in the analytical byte accounting, mirroring
/// [`jit_exec::OperatorState`].
#[derive(Debug, Clone, Default)]
pub struct Blacklist {
    name: String,
    /// The entries, in insertion order.
    slots: Slab<BlacklistEntry>,
    bytes: usize,
    /// MNS identity → entry position (all entries).
    by_key: FastMap<TupleKey, usize>,
    /// Positions of entries whose MNS is Ø (they capture every tuple).
    empty_entries: Vec<usize>,
    /// Non-empty entries keyed by the identity of their MNS's first
    /// component: any super-tuple of the MNS carries that component.
    /// Positions ascending; a bucket is dropped when its last entry leaves.
    by_component: FastMap<(u16, u64), Vec<usize>>,
    /// Similar-capture entries grouped by signature column set, then by the
    /// MNS's signature on those columns. Positions ascending.
    by_signature: FastMap<Arc<[ColumnRef]>, FastMap<Signature, Vec<usize>>>,
    /// Buffers reused from call to call: positions (the candidates of
    /// [`Blacklist::matching_entry`], the entries a purge found something
    /// due in) and an arrival's signature over one column set.
    candidates: Vec<usize>,
    signature_scratch: Vec<(ColumnRef, Value)>,
}

/// Remove `pos` from an ascending position list.
fn unfile(bucket: &mut Vec<usize>, pos: usize) {
    if let Ok(at) = bucket.binary_search(&pos) {
        bucket.remove(at);
    }
}

/// Analytical bytes of one entry: its MNS, signature and suspended tuples.
fn entry_bytes(entry: &BlacklistEntry) -> usize {
    entry.mns.size_bytes()
        + entry.signature.size_bytes()
        + entry
            .tuples
            .iter()
            .map(|t| t.tuple.size_bytes())
            .sum::<usize>()
}

impl Blacklist {
    /// An empty blacklist with a diagnostic name.
    pub fn new(name: impl Into<String>) -> Self {
        Blacklist {
            name: name.into(),
            ..Blacklist::default()
        }
    }

    /// File `entry`, stored at `pos`, in the hash indexes. Callers file in
    /// ascending `pos` order, which keeps every position list ascending.
    fn index_entry(&mut self, pos: usize, entry: &BlacklistEntry) {
        self.by_key.insert(entry.mns.key(), pos);
        let Some(first) = entry.mns.parts().first() else {
            self.empty_entries.push(pos);
            return;
        };
        self.by_component
            .entry((first.source.0, first.seq))
            .or_insert_with(|| Vec::with_capacity(1))
            .push(pos);
        if !entry.signature_columns.is_empty() {
            let groups = self
                .by_signature
                .entry(Arc::clone(&entry.signature_columns))
                .or_default();
            match groups.get_mut(&entry.signature) {
                Some(bucket) => bucket.push(pos),
                None => {
                    groups.insert(entry.signature.clone(), vec![pos]);
                }
            }
        }
    }

    /// Undo [`Blacklist::index_entry`] for one entry: O(its own buckets).
    fn unindex_entry(&mut self, pos: usize, entry: &BlacklistEntry) {
        self.by_key.remove(&entry.mns.key());
        let Some(first) = entry.mns.parts().first() else {
            unfile(&mut self.empty_entries, pos);
            return;
        };
        let component = (first.source.0, first.seq);
        if let Some(bucket) = self.by_component.get_mut(&component) {
            unfile(bucket, pos);
            if bucket.is_empty() {
                self.by_component.remove(&component);
            }
        }
        if let Some(groups) = self.by_signature.get_mut(&entry.signature_columns) {
            if let Some(bucket) = groups.get_mut(&entry.signature) {
                unfile(bucket, pos);
                if bucket.is_empty() {
                    groups.remove(&entry.signature);
                }
            }
            // A column set with no entry left would still cost every probe
            // a signature extraction.
            if groups.is_empty() {
                self.by_signature.remove(&entry.signature_columns);
            }
        }
    }

    /// Drop every filed position (the slab is empty).
    fn clear_indexes(&mut self) {
        self.by_key.clear();
        self.empty_entries.clear();
        self.by_component.clear();
        self.by_signature.clear();
    }

    /// Amortised reclamation after removals ([`Slab::reclaim`]). Removals
    /// un-file eagerly, so every filed position is live: a sweep maps each
    /// to itself, a compaction to its entry's new handle.
    fn reclaim(&mut self) {
        let (by_key, empty, by_component) = (
            &mut self.by_key,
            &mut self.empty_entries,
            &mut self.by_component,
        );
        let by_signature = &mut self.by_signature;
        self.slots.reclaim(|to| {
            let positions = (by_key.values_mut().chain(empty.iter_mut()))
                .chain(by_component.values_mut().flatten())
                .chain(
                    by_signature
                        .values_mut()
                        .flat_map(|g| g.values_mut().flatten()),
                );
            for pos in positions {
                if let Some(fresh) = to(*pos as u64) {
                    *pos = fresh as usize;
                }
            }
        });
    }

    /// Store `entry` under the next position, queue its expiries and file
    /// it in the indexes; returns the position.
    fn admit(&mut self, entry: BlacklistEntry) -> usize {
        let pos = self.slots.end();
        self.bytes += entry_bytes(&entry);
        for suspended in &entry.tuples {
            self.slots.expire_with(pos, &suspended.tuple);
        }
        if !entry.mns.is_empty() {
            self.slots.expire_with(pos, &entry.mns);
        }
        self.index_entry(pos as usize, &entry);
        self.slots.push(entry);
        pos as usize
    }

    /// Tombstone the entry at `pos` and un-file it everywhere but the
    /// expiry queue, whose pairs for it go stale.
    fn take_at(&mut self, pos: usize) -> Option<BlacklistEntry> {
        let entry = self.slots.take(pos as u64)?;
        self.bytes -= entry_bytes(&entry);
        self.unindex_entry(pos, &entry);
        Some(entry)
    }

    /// Number of entries (distinct MNSs).
    fn num_entries(&self) -> usize {
        self.slots.len()
    }

    /// Total number of suspended tuples across all entries.
    pub(crate) fn num_tuples(&self) -> usize {
        self.entries().map(|e| e.tuples.len()).sum()
    }

    /// Analytical size in bytes (MNSs plus suspended tuples).
    pub(crate) fn size_bytes(&self) -> usize {
        self.bytes
    }

    /// The entries in insertion order, for inspection.
    pub(crate) fn entries(&self) -> impl Iterator<Item = &BlacklistEntry> {
        self.slots.iter()
    }

    /// The entry at a position returned by [`Blacklist::upsert_entry`] or
    /// [`Blacklist::matching_entry`], if it is still live. A position is
    /// stable until its entry is removed or the blacklist next purges or
    /// removes an entry (which may compact).
    pub(crate) fn entry(&self, pos: usize) -> Option<&BlacklistEntry> {
        self.slots.get(pos as u64)
    }

    /// Position of the entry for an MNS, if present.
    fn entry_index(&self, key: &TupleKey) -> Option<usize> {
        self.by_key.get(key).copied()
    }

    /// Create (or find) the entry for `mns`. Returns its position.
    pub fn upsert_entry(
        &mut self,
        mns: Tuple,
        signature_columns: impl Into<Arc<[ColumnRef]>>,
        _mode: SuspendMode,
        now: Timestamp,
    ) -> usize {
        if let Some(pos) = self.entry_index(&mns.key()) {
            return pos;
        }
        let signature_columns = signature_columns.into();
        let signature = Signature::of(&mns, &signature_columns);
        self.admit(BlacklistEntry {
            mns,
            signature_columns,
            signature,
            suspended_at: now,
            tuples: Vec::new(),
        })
    }

    /// The earliest expiry key of a suspended tuple or a non-Ø MNS
    /// ([`Slab::next_expiry`]): [`Blacklist::purge`] removes something at
    /// `now` iff `window.is_expired(key, now)`; `None` when no purge can
    /// remove anything.
    pub(crate) fn next_expiry(&self) -> Option<Timestamp> {
        self.slots.next_expiry()
    }

    /// Add a suspended tuple to the (live) entry at `pos`.
    pub(crate) fn add_tuple(&mut self, pos: usize, tuple: Tuple) {
        self.slots.expire_with(pos as u64, &tuple);
        self.bytes += tuple.size_bytes();
        #[expect(
            clippy::expect_used,
            reason = "INVARIANT: callers pass a position obtained from upsert_entry or matching_entry with no removal in between, so the slot is live."
        )]
        let entry = self.slots.get_mut(pos as u64).expect("live entry");
        // Most entries hold one tuple; a first push would take four slots.
        if entry.tuples.capacity() == 0 {
            entry.tuples.reserve_exact(1);
        }
        entry.tuples.push(BlacklistedTuple { tuple });
    }

    /// The first entry that captures an arriving tuple, if any.
    ///
    /// Only the candidate entries surfaced by the hash indexes are verified
    /// (ascending, so the entry returned is exactly a linear scan's first
    /// match). The check allocates nothing: candidates and the arrival's
    /// signatures are formed in buffers the blacklist keeps.
    pub fn matching_entry(&mut self, tuple: &Tuple, allow_similar: bool) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let candidates = &mut self.candidates;
        candidates.clear();
        candidates.extend_from_slice(&self.empty_entries);
        for part in tuple.parts() {
            if let Some(idxs) = self.by_component.get(&(part.source.0, part.seq)) {
                candidates.extend_from_slice(idxs);
            }
        }
        if allow_similar {
            for (cols, groups) in &self.by_signature {
                Signature::of_into(tuple, cols, &mut self.signature_scratch);
                if let Some(idxs) = groups.get(self.signature_scratch.as_slice()) {
                    candidates.extend_from_slice(idxs);
                }
            }
        }
        candidates.sort_unstable();
        candidates.dedup();
        let slots = &self.slots;
        let captures = |pos: usize| {
            let entry = slots.get(pos as u64);
            entry.is_some_and(|e| e.captures(tuple, allow_similar))
        };
        candidates.iter().copied().find(|&pos| captures(pos))
    }

    /// Remove and return the entry for an MNS (resumption).
    pub(crate) fn remove_entry(&mut self, key: &TupleKey) -> Option<BlacklistEntry> {
        let pos = self.entry_index(key)?;
        let entry = self.take_at(pos)?;
        self.reclaim();
        Some(entry)
    }

    /// Remove and return every entry, in insertion order (end-of-stream
    /// flush: everything still suspended is released at once).
    pub(crate) fn drain_entries(&mut self) -> Vec<BlacklistEntry> {
        let entries = self.slots.take_all().collect();
        self.bytes = 0;
        self.clear_indexes();
        entries
    }

    /// Drop expired suspended tuples and entries that have become useless
    /// (MNS expired and no live tuples remain), handing each dropped tuple
    /// to `on_removed`. Returns the number of tuples removed. Expiry is
    /// [`Window::expires_at`].
    ///
    /// O(expired pairs + size of the entries they name): the slab's due-pop
    /// yields only the entries something expired in. An entry whose MNS
    /// expired while it still held live tuples is dropped when its last
    /// tuple's pair surfaces.
    pub(crate) fn purge(
        &mut self,
        window: Window,
        now: Timestamp,
        mut on_removed: impl FnMut(&Tuple),
    ) -> usize {
        let mut touched = std::mem::take(&mut self.candidates);
        touched.clear();
        let due = std::iter::from_fn(|| self.slots.pop_due(window, now));
        touched.extend(due.map(|pos| pos as usize));
        touched.sort_unstable();
        touched.dedup();
        let mut removed = 0usize;
        for &pos in &touched {
            let Some(entry) = self.slots.get_mut(pos as u64) else {
                continue;
            };
            let before = entry.tuples.len();
            let mut freed = 0usize;
            entry.tuples.retain(|t| {
                let expired = window.expires_at(&t.tuple) <= now;
                if expired {
                    freed += t.tuple.size_bytes();
                    on_removed(&t.tuple);
                }
                !expired
            });
            removed += before - entry.tuples.len();
            self.bytes -= freed;
            if entry.tuples.is_empty()
                && !entry.mns.is_empty()
                && window.expires_at(&entry.mns) <= now
            {
                self.take_at(pos);
            }
        }
        if !touched.is_empty() {
            self.reclaim();
        }
        self.candidates = touched;
        removed
    }

    /// Serialise the entries for a durability checkpoint
    /// ([`write_envelope`]). The hash indexes and the expiry queue are
    /// derived structure and are not persisted.
    pub(crate) fn checkpoint(&self) -> Content {
        write_envelope(&self.name, self.entries())
    }

    /// Replace the entries with a checkpointed set, rebuilding the byte
    /// accounting, the hash indexes and the expiry queue. The checkpoint
    /// must carry the same diagnostic name (i.e. come from the same
    /// operator slot).
    pub(crate) fn restore_checkpoint(&mut self, content: &Content) -> Result<(), serde::Error> {
        let entries: Vec<BlacklistEntry> = read_envelope(content, &self.name, "Blacklist")?;
        self.slots.clear();
        self.bytes = 0;
        self.clear_indexes();
        for entry in entries {
            self.admit(entry);
        }
        Ok(())
    }
}

impl fmt::Display for Blacklist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{} entries, {} tuples, {} B]",
            self.name,
            self.num_entries(),
            self.num_tuples(),
            self.bytes
        )
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

    /// Signature column A.x1 — the "y" attribute of the running example.
    fn sig_cols() -> Vec<ColumnRef> {
        vec![ColumnRef::new(SourceId(0), 1)]
    }

    #[test]
    fn upsert_and_lookup() {
        let mut bl = Blacklist::new("B_A");
        let a1 = tup(0, 1, 1_000, &[7, 100]);
        let idx = bl.upsert_entry(a1.clone(), sig_cols(), SuspendMode::Suspend, a1.ts());
        assert_eq!(idx, 0);
        // Upserting the same MNS returns the same entry.
        let again = bl.upsert_entry(a1.clone(), sig_cols(), SuspendMode::Suspend, a1.ts());
        assert_eq!(again, 0);
        assert_eq!(bl.num_entries(), 1);
        assert_eq!(bl.entry_index(&a1.key()), Some(0));
        assert!(bl.to_string().contains("B_A"));
    }

    #[test]
    fn captures_supertuple_and_similar() {
        let mut bl = Blacklist::new("B_A");
        let a1 = tup(0, 1, 1_000, &[7, 100]);
        bl.upsert_entry(a1.clone(), sig_cols(), SuspendMode::Suspend, a1.ts());
        // a1 itself (and any super-tuple of it) is captured.
        assert_eq!(bl.matching_entry(&a1, false), Some(0));
        let b = tup(1, 1, 1_500, &[7]);
        let a1b = a1.join(&b).unwrap();
        assert_eq!(bl.matching_entry(&a1b, false), Some(0));
        // a2 shares the join attribute value 100 → similar (only with the flag).
        let a2 = tup(0, 2, 2_000, &[9, 100]);
        assert_eq!(bl.matching_entry(&a2, true), Some(0));
        assert_eq!(bl.matching_entry(&a2, false), None);
        // a3 has a different join value → never captured.
        let a3 = tup(0, 3, 2_000, &[7, 200]);
        assert_eq!(bl.matching_entry(&a3, true), None);
    }

    #[test]
    fn tuples_and_bytes_accounting() {
        let mut bl = Blacklist::new("B");
        let a1 = tup(0, 1, 0, &[7, 100]);
        let idx = bl.upsert_entry(a1.clone(), sig_cols(), SuspendMode::Suspend, a1.ts());
        bl.add_tuple(idx, a1.clone());
        bl.add_tuple(idx, tup(0, 2, 10, &[9, 100]));
        assert_eq!(bl.num_tuples(), 2);
        let bytes_with_tuples = bl.size_bytes();
        let entry = bl.remove_entry(&a1.key()).unwrap();
        assert_eq!(entry.tuples.len(), 2);
        assert_eq!(entry.tuples[0].tuple.key(), a1.key());
        assert_eq!(bl.num_entries(), 0);
        assert!(bl.size_bytes() < bytes_with_tuples);
        assert_eq!(bl.size_bytes(), 0);
    }

    #[test]
    fn remove_missing_entry_is_none() {
        let mut bl = Blacklist::new("B");
        assert!(bl.remove_entry(&tup(0, 1, 0, &[1]).key()).is_none());
    }

    #[test]
    fn purge_drops_expired_tuples_and_dead_entries() {
        let mut bl = Blacklist::new("B");
        let a1 = tup(0, 1, 0, &[7, 100]);
        let idx = bl.upsert_entry(a1.clone(), sig_cols(), SuspendMode::Suspend, a1.ts());
        bl.add_tuple(idx, a1.clone());
        let a2 = tup(0, 2, 50_000, &[9, 100]);
        bl.add_tuple(idx, a2);
        // At t = 70s, a1 (ts 0, window 60s) has expired but a2 is alive; the
        // entry stays because it still holds a live tuple.
        assert_eq!(
            bl.purge(window(), Timestamp::from_millis(70_000), |_| {}),
            1
        );
        assert_eq!(bl.num_entries(), 1);
        assert_eq!(bl.num_tuples(), 1);
        // Once a2 expires too, the entry disappears.
        assert_eq!(
            bl.purge(window(), Timestamp::from_millis(120_000), |_| {}),
            1
        );
        assert_eq!(bl.num_entries(), 0);
        assert_eq!(bl.size_bytes(), 0);
    }

    /// The hashed lookup must pick the entry a linear scan over the entries
    /// finds first, for every probe, across upserts, removals and purges.
    #[test]
    fn hashed_and_scan_agree_on_matching_entry() {
        let mut bl = Blacklist::new("H");
        // A mix of entries: several signatures, one signature-less entry,
        // and the Ø entry added last (so earlier entries win first-match).
        let mnss: Vec<Tuple> = (0..6)
            .map(|i| tup(0, i + 1, i * 1_000, &[i as i64, (i % 3) as i64 * 100]))
            .collect();
        for (i, mns) in mnss.iter().enumerate() {
            let cols = if i == 3 { vec![] } else { sig_cols() };
            bl.upsert_entry(mns.clone(), cols, SuspendMode::Suspend, mns.ts());
        }
        bl.upsert_entry(
            Tuple::empty(),
            vec![],
            SuspendMode::Suspend,
            Timestamp::ZERO,
        );
        let probes: Vec<Tuple> = (0..12)
            .map(|i| tup(0, 20 + i, 5_000, &[i as i64 / 2, (i % 4) as i64 * 100]))
            .chain(mnss.iter().cloned())
            .collect();
        let check = |bl: &mut Blacklist, stage: &str| {
            let mut found = 0;
            for allow_similar in [false, true] {
                for p in &probes {
                    let hashed = bl.matching_entry(p, allow_similar);
                    let hashed = hashed.map(|pos| bl.entry(pos).expect("live").mns.key());
                    let scan = bl.entries().find(|e| e.captures(p, allow_similar));
                    let scan = scan.map(|e| e.mns.key());
                    assert_eq!(hashed, scan, "{stage} probe {p} similar={allow_similar}");
                    found += usize::from(scan.is_some());
                }
            }
            for mns in &mnss {
                let key = mns.key();
                let hashed = bl
                    .entry_index(&key)
                    .map(|pos| bl.entry(pos).expect("live").mns.key());
                let scan = bl.entries().map(|e| e.mns.key()).find(|k| *k == key);
                assert_eq!(hashed, scan, "{stage} entry for {mns}");
            }
            found
        };
        assert!(check(&mut bl, "initial") > 0);
        // Remove an entry (positions shift) and re-check agreement.
        bl.remove_entry(&mnss[1].key());
        check(&mut bl, "post-removal");
        // Purge the oldest entries (positions shift again).
        bl.purge(window(), Timestamp::from_millis(62_000), |_| {});
        assert!(bl.num_entries() < mnss.len());
        check(&mut bl, "post-purge");
    }

    /// A super-tuple probe (components from several sources) is found via
    /// the component index.
    #[test]
    fn hashed_lookup_finds_entry_for_supertuple_probe() {
        let mut bl = Blacklist::new("B");
        let a1 = tup(0, 1, 1_000, &[7, 100]);
        bl.upsert_entry(a1.clone(), sig_cols(), SuspendMode::Suspend, a1.ts());
        let b = tup(1, 9, 1_500, &[7]);
        let a1b = a1.join(&b).unwrap();
        assert_eq!(bl.matching_entry(&a1b, false), Some(0));
        // A composite that does not contain a1 is not captured.
        let a2 = tup(0, 2, 1_000, &[7, 999]);
        let a2b = a2.join(&b).unwrap();
        assert_eq!(bl.matching_entry(&a2b, false), None);
    }

    #[test]
    fn checkpoint_round_trips_entries_and_bytes() {
        let mut bl = Blacklist::new("B");
        let a1 = tup(0, 1, 0, &[7, 100]);
        let idx = bl.upsert_entry(a1.clone(), sig_cols(), SuspendMode::Suspend, a1.ts());
        bl.add_tuple(idx, a1.clone());
        bl.add_tuple(idx, tup(0, 2, 10, &[9, 100]));
        bl.upsert_entry(
            tup(0, 3, 20, &[1, 200]),
            vec![],
            SuspendMode::Suspend,
            a1.ts(),
        );
        let blob = bl.checkpoint();
        let mut restored = Blacklist::new("B");
        restored.restore_checkpoint(&blob).unwrap();
        assert_eq!(restored.num_entries(), bl.num_entries());
        assert_eq!(restored.num_tuples(), bl.num_tuples());
        assert_eq!(restored.size_bytes(), bl.size_bytes());
        let first = restored.entry(0).unwrap();
        assert_eq!(first.tuples[0].tuple.key(), a1.key());
        // The rebuilt indexes answer probes like the original.
        assert_eq!(
            restored.matching_entry(&a1, true),
            bl.matching_entry(&a1, true)
        );
        assert_eq!(restored.entry_index(&a1.key()), bl.entry_index(&a1.key()));
        // A checkpoint from a differently named blacklist is rejected.
        let mut other = Blacklist::new("C");
        assert!(other.restore_checkpoint(&blob).is_err());
    }

    #[test]
    fn empty_mns_entry_captures_everything_and_survives_purge() {
        let mut bl = Blacklist::new("B");
        let idx = bl.upsert_entry(
            Tuple::empty(),
            vec![],
            SuspendMode::Suspend,
            Timestamp::ZERO,
        );
        assert_eq!(bl.matching_entry(&tup(0, 1, 5, &[1]), false), Some(idx));
        // The Ø entry has no timestamp, so it is never purged by the window.
        assert_eq!(
            bl.purge(window(), Timestamp::from_millis(10_000_000), |_| {}),
            0
        );
        assert_eq!(bl.num_entries(), 1);
    }

    /// The slab blacklist against the `Vec`-and-scan implementation it
    /// replaced, on random operation sequences.
    mod model {
        use super::*;
        use proptest::prelude::*;
        use proptest::rand::{rngs::StdRng, Rng, SeedableRng};

        /// The replaced implementation: entries in a `Vec`, every operation a
        /// scan, indices shifting on removal.
        #[derive(Default)]
        struct Model {
            entries: Vec<BlacklistEntry>,
        }

        impl Model {
            fn entry_index(&self, key: &TupleKey) -> Option<usize> {
                self.entries.iter().position(|e| &e.mns.key() == key)
            }

            fn upsert_entry(&mut self, mns: Tuple, cols: Vec<ColumnRef>) -> usize {
                if let Some(idx) = self.entry_index(&mns.key()) {
                    return idx;
                }
                self.entries.push(BlacklistEntry {
                    signature: Signature::of(&mns, &cols),
                    suspended_at: Timestamp::ZERO,
                    mns,
                    signature_columns: cols.into(),
                    tuples: Vec::new(),
                });
                self.entries.len() - 1
            }

            fn matching_entry(&self, tuple: &Tuple, allow_similar: bool) -> Option<usize> {
                self.entries
                    .iter()
                    .position(|e| e.captures(tuple, allow_similar))
            }

            fn remove_entry(&mut self, key: &TupleKey) -> Option<BlacklistEntry> {
                self.entry_index(key).map(|idx| self.entries.remove(idx))
            }

            fn purge(&mut self, window: Window, now: Timestamp) -> Vec<TupleKey> {
                let mut removed = Vec::new();
                for e in &mut self.entries {
                    e.tuples.retain(|t| {
                        let expired = window.is_expired(t.tuple.ts(), now);
                        if expired {
                            removed.push(t.tuple.key());
                        }
                        !expired
                    });
                }
                self.entries.retain(|e| {
                    !(e.tuples.is_empty()
                        && !e.mns.is_empty()
                        && window.is_expired(e.mns.ts(), now))
                });
                removed
            }

            /// The earliest timestamp whose expiry makes `purge` remove something.
            fn next_expiry(&self) -> Option<Timestamp> {
                self.entries
                    .iter()
                    .filter_map(|e| {
                        let first_tuple = e.tuples.iter().map(|t| t.tuple.ts()).min();
                        first_tuple.or((!e.mns.is_empty()).then(|| e.mns.ts()))
                    })
                    .min()
            }
        }

        /// What both sides must agree on: the entries in order, down to the
        /// suspended tuples, plus bytes and the purge bound.
        fn assert_same(slab: &Blacklist, model: &Model, step: usize) {
            let shape = |e: &BlacklistEntry| {
                let tuples: Vec<_> = e.tuples.iter().map(|t| t.tuple.key()).collect();
                (e.mns.key(), e.signature.clone(), tuples)
            };
            let live: Vec<_> = slab.entries().map(shape).collect();
            let expected: Vec<_> = model.entries.iter().map(shape).collect();
            assert_eq!(live, expected, "step {step}: live entries");
            assert_eq!(slab.num_entries(), model.entries.len());
            // Removals un-file eagerly: the indexes hold live positions only.
            let filed = slab.by_component.values().map(Vec::len).sum::<usize>();
            assert_eq!(
                filed + slab.empty_entries.len(),
                slab.slots.len(),
                "step {step}"
            );
            assert_eq!(slab.by_key.len(), slab.slots.len(), "step {step}");
            let by_signature = slab.by_signature.values().flat_map(|g| g.values());
            let with_signature = slab.entries().filter(|e| !e.signature_columns.is_empty());
            assert_eq!(
                by_signature.map(Vec::len).sum::<usize>(),
                with_signature.filter(|e| !e.mns.is_empty()).count(),
                "step {step}"
            );
            let bytes: usize = model.entries.iter().map(entry_bytes).sum();
            assert_eq!(slab.size_bytes(), bytes, "step {step}: bytes");
            match (slab.next_expiry(), model.next_expiry()) {
                (None, None) => {}
                (Some(bound), Some(due)) => assert!(bound <= due, "step {step}: purge bound late"),
                other => panic!("step {step}: purge bound {other:?}"),
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

            #[test]
            fn slab_blacklist_matches_vec_and_scan_model(seed in 0u64..1_000_000) {
                let mut rng = StdRng::seed_from_u64(seed);
                let window = Window::new(Duration::from_secs(20));
                let mut slab = Blacklist::new("B");
                let mut model = Model::default();
                // Every MNS ever upserted: removals pick from here, so they hit
                // live, removed and purged entries alike.
                let mut known: Vec<Tuple> = Vec::new();
                let (mut now_ms, mut seq, mut compactions) = (0u64, 0u64, 0usize);
                let identity = |slab: &Blacklist, pos: Option<usize>| {
                    pos.map(|p| slab.entry(p).expect("returned position is live").mns.key())
                };
                for step in 0..700 {
                    now_ms += rng.gen_range(0u64..1_500);
                    seq += 1;
                    // Timestamps jitter backwards, join values repeat.
                    let ts = now_ms.saturating_sub(rng.gen_range(0u64..4_000));
                    let a = tup(0, seq, ts, &[rng.gen_range(0i64..4), rng.gen_range(0i64..6)]);
                    let tuple = if rng.gen_bool(0.3) {
                        a.join(&tup(1, seq, ts + 1, &[0, 0])).expect("disjoint sources")
                    } else {
                        a.clone()
                    };
                    let issued = slab.slots.end();
                    match rng.gen_range(0u32..100) {
                        0..=29 => {
                            let mns = match rng.gen_range(0u32..10) {
                                0 => Tuple::empty(),
                                1..=3 if !known.is_empty() => known[rng.gen_range(0..known.len())].clone(),
                                _ => a.clone(),
                            };
                            let cols = if rng.gen_bool(0.8) { sig_cols() } else { Vec::new() };
                            let pos = slab.upsert_entry(mns.clone(), cols.clone(), SuspendMode::Suspend, Timestamp::ZERO);
                            let idx = model.upsert_entry(mns.clone(), cols);
                            assert_eq!(identity(&slab, Some(pos)), Some(model.entries[idx].mns.key()));
                            known.push(mns);
                        }
                        30..=69 => {
                            let similar = rng.gen_bool(0.7);
                            let pos = slab.matching_entry(&tuple, similar);
                            let idx = model.matching_entry(&tuple, similar);
                            assert_eq!(
                                identity(&slab, pos),
                                idx.map(|i| model.entries[i].mns.key()),
                                "step {step}: entry chosen"
                            );
                            if let (Some(pos), Some(idx), true) = (pos, idx, rng.gen_bool(0.7)) {
                                slab.add_tuple(pos, tuple.clone());
                                model.entries[idx].tuples.push(BlacklistedTuple { tuple });
                            }
                        }
                        70..=84 if !known.is_empty() => {
                            let key = known[rng.gen_range(0..known.len())].key();
                            assert_eq!(slab.entry_index(&key).is_some(), model.entry_index(&key).is_some());
                            let got = slab.remove_entry(&key).map(|e| (e.mns.key(), e.tuples));
                            let want = model.remove_entry(&key).map(|e| (e.mns.key(), e.tuples));
                            assert_eq!(got, want, "step {step}: removed entry");
                        }
                        _ => {
                            let now = Timestamp::from_millis(now_ms);
                            let mut dropped = Vec::new();
                            let removed = slab.purge(window, now, |t| dropped.push(t.key()));
                            assert_eq!(dropped.len(), removed);
                            assert_eq!(dropped, model.purge(window, now), "step {step}: purged tuples");
                        }
                    }
                    compactions += usize::from(!slab.slots.is_empty() && slab.slots.base() >= issued);
                    assert_same(&slab, &model, step);
                }
                assert!(compactions > 0, "the sequence must cross a compaction");
                let drained: Vec<_> = slab.drain_entries().iter().map(|e| e.mns.key()).collect();
                let all: Vec<_> = model.entries.iter().map(|e| e.mns.key()).collect();
                assert_eq!(drained, all);
                assert_eq!((slab.size_bytes(), slab.next_expiry(), slab.num_entries()), (0, None, 0));
            }
        }
    }
}
