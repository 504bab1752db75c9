//! Indexed sliding-window operator state.
//!
//! An operator state (the rectangles `S_A`, `S_B`, `S_AB`, … of Figure 1b)
//! holds the tuples that arrived on one input in the past and are still
//! alive under the window. The state supports the three steps of the
//! purge–probe–insert routine of window joins (Kang et al., reference \[16\]
//! in the paper) plus the operations the JIT machinery needs: draining
//! selected tuples into a blacklist and appending resumed tuples.
//!
//! JIT's MNS buffer, which keeps each MNS "until [its] expiration"
//! (§III-A), and the producer's blacklist (§IV-B) are window-bounded too:
//! all three store their entries in a [`Slab`] and checkpoint them in one
//! envelope ([`write_envelope`] / [`read_envelope`]).
//!
//! # The index layer
//!
//! The paper's clique workloads are pure equi-joins, so probing a state with
//! a nested loop — the dominant CPU term at scale — is wasted work: only the
//! stored tuples whose join-attribute values equal the probing tuple's can
//! ever produce a result. Under [`StateIndexMode::Hashed`] (the default) a
//! state therefore maintains, *just in time*, one hash index per distinct
//! probe pattern it actually observes (a [`JoinKeySpec`]: the pairing of
//! stored-side and probe-side columns induced by the equi-join predicates
//! between the two schemas). [`OperatorState::probe`] then returns only the
//! candidate partners, in insertion order, making the probe
//! output-sensitive: O(candidates) expected instead of O(n).
//!
//! ## Index selection and the scan fallback
//!
//! The index to use is chosen by the *caller's* probe pattern, not fixed at
//! construction: the first probe with a new [`JoinKeySpec`] builds the index
//! for it by one scan of the live entries, and every later insertion
//! maintains all existing indexes incrementally. This is the "build exactly
//! the index the workload needs" discipline, taken one step further where
//! one port needs many keys: a JIT port that settles lattice nodes probes
//! the opposite state with one small index per candidate source and
//! composes its full-key probe, and every node's, by intersecting their
//! buckets ([`OperatorState::probe_union_into`]) — so the state never files
//! a tuple under the full key or a multi-source node key. The state
//! transparently falls back to a full scan whenever hashing cannot answer
//! the probe exactly:
//!
//! * the spec is empty (no equi-join predicate spans the two inputs, e.g. a
//!   cross product or a pure theta join),
//! * the probing tuple is missing one of the spec's probe-side columns
//!   (the spanning predicate is then *not applicable* and passes for every
//!   stored tuple, so no single bucket contains all matches), or
//! * the state runs under [`StateIndexMode::Scan`] (the baseline used by the
//!   equivalence suite and the figure harness).
//!
//! Stored tuples missing one of the spec's stored-side columns land in a
//! per-index *overflow* list that every probe scans in addition to its
//! bucket, so indexed and scanned probes examine exactly the same candidate
//! *matches* in exactly the same (insertion) order — result sets and their
//! ordering are byte-identical between the two modes.
//!
//! ## Ordered expiry
//!
//! The slab's [`jit_types::ExpiryQueue`] — the near-sorted queue the
//! reorder stage also runs on — holds one `(expiry key, seq)` per stored
//! tuple, so a purge pops exactly the expired entries: O(expired), not
//! O(n). Stale seqs (drained tuples) are skipped when they surface. Expiry
//! is [`Window::expires_at`], a function of the tuple alone (its lifespan is
//! `[ts, ts + w)`), not of when it was inserted — a resumed intermediate
//! result inserted late still expires at its original time, so purge counts
//! are identical no matter how often a tuple is drained and restored. What an owner needs to
//! know about *when* a tuple entered rides in the slot as
//! [`StoredTuple::stamp`], which the state carries and never interprets: JIT
//! keeps there the event at which the tuple's current presence began
//! (`Resume_Production` must not regenerate results produced before a
//! suspension) and so needs no second, hash-keyed copy of "which tuples are
//! stored" beside the state.
//!
//! ## Accounting invariants
//!
//! The analytical byte accounting ([`OperatorState::size_bytes`]) counts
//! stored tuple payloads only — the index bookkeeping is deliberately *not*
//! charged, so indexed and scanned executions report identical memory and
//! the REF/JIT memory comparison of the figures is unaffected by the index
//! layer. Purge counts and drain/restore semantics are likewise identical in
//! both modes; only the number of candidates a probe examines (the
//! `probe_pairs` statistic and `CostKind::ProbePair` charge) shrinks.

use jit_types::{
    ColumnRef, ExpiryQueue, FastMap, PredicateSet, SourceSet, Timestamp, Tuple, Value, Window,
};
use serde::{Content, Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;

/// One tuple stored in an operator state.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct StoredTuple {
    /// The stored tuple.
    pub tuple: Tuple,
    /// The owner's stamp, carried and never interpreted by the state: what
    /// the entry handed to [`OperatorState::restore`] holds, 0 under
    /// [`OperatorState::insert`].
    pub stamp: u64,
}

/// An entry written before the stamp existed (it carried an `inserted_at`
/// instant nothing read) loads with stamp 0, for its owner to [`OperatorState::restamp`].
impl Deserialize for StoredTuple {
    fn from_content(content: &Content) -> Result<Self, serde::Error> {
        let expected = || serde::Error::expected("object", "StoredTuple");
        let fields = content.as_map().ok_or_else(expected)?;
        let stamp = fields.iter().find(|(name, _)| name == "stamp");
        Ok(StoredTuple {
            tuple: serde::field(fields, "tuple", "StoredTuple")?,
            stamp: stamp.map_or(Ok(0), |(_, stamp)| u64::from_content(stamp))?,
        })
    }
}

/// How a state answers probes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StateIndexMode {
    /// Nested-loop scan over every stored tuple (the pre-index baseline;
    /// kept for equivalence testing and the figure harness).
    Scan,
    /// Hash-partitioned probing on the equi-join key, with a scan fallback
    /// when no hashable key spans the two inputs (the default).
    #[default]
    Hashed,
}

/// The equi-join key pairing between a state's stored tuples and the tuples
/// probing it: one `(stored column, probe column)` pair per equi-join
/// predicate spanning the two schemas.
///
/// Two tuples satisfy *all* spanning predicates with both sides present iff
/// their value vectors on the paired columns are equal — which is what makes
/// one hash lookup equivalent to the full conjunction.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct JoinKeySpec {
    /// `(stored-side column, probe-side column)` pairs, sorted and deduped.
    pairs: Vec<(ColumnRef, ColumnRef)>,
}

impl JoinKeySpec {
    /// Derive the key spec for probing a state holding tuples covering
    /// `stored` with tuples covering `probe`, under the given predicates.
    ///
    /// Only predicates spanning the two (disjoint) schemas contribute; an
    /// empty spec means no equi-join key exists and probes fall back to a
    /// scan.
    pub fn between(predicates: &PredicateSet, stored: SourceSet, probe: SourceSet) -> Self {
        let mut pairs = Vec::new();
        for p in predicates.predicates() {
            if stored.contains(p.left.source) && probe.contains(p.right.source) {
                pairs.push((p.left, p.right));
            }
            if stored.contains(p.right.source) && probe.contains(p.left.source) {
                pairs.push((p.right, p.left));
            }
        }
        pairs.sort();
        pairs.dedup();
        JoinKeySpec { pairs }
    }

    /// The spec pairing each of `columns` with itself: stored tuples file
    /// under their own values on those columns and a probing tuple looks up
    /// its values on the same columns. This is how JIT's
    /// `Suspend_Production` finds the stored tuples carrying an MNS's
    /// join-attribute values (see [`OperatorState::drain_matching`]).
    pub fn on_columns(columns: &[ColumnRef]) -> Self {
        let mut pairs: Vec<(ColumnRef, ColumnRef)> = columns.iter().map(|&c| (c, c)).collect();
        pairs.sort();
        pairs.dedup();
        JoinKeySpec { pairs }
    }

    /// Is the spec empty (no equi-join predicate spans the two inputs)?
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Number of column pairs in the key.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// The key a *stored* tuple files under, or `None` if the tuple is
    /// missing one of the stored-side columns (it then goes to the index's
    /// overflow list).
    pub fn stored_key(&self, tuple: &Tuple) -> Option<Vec<Value>> {
        let mut key = Vec::with_capacity(self.pairs.len());
        self.stored_key_into(tuple, &mut key).then_some(key)
    }

    /// Allocation-free variant of [`JoinKeySpec::stored_key`]: fill `buf`
    /// with the stored-side key and return `true`, or return `false` (with
    /// `buf` cleared) when the tuple is missing a stored-side column.
    fn stored_key_into(&self, tuple: &Tuple, buf: &mut Vec<Value>) -> bool {
        buf.clear();
        for (stored_col, _) in &self.pairs {
            match tuple.value(*stored_col) {
                Some(v) => buf.push(v.clone()),
                None => {
                    buf.clear();
                    return false;
                }
            }
        }
        true
    }

    /// The key a *probing* tuple looks up, or `None` if the tuple is missing
    /// one of the probe-side columns (the probe then falls back to a scan).
    pub fn probe_key(&self, tuple: &Tuple) -> Option<Vec<Value>> {
        let mut key = Vec::with_capacity(self.pairs.len());
        self.probe_key_into(tuple, &mut key).then_some(key)
    }

    /// Allocation-free variant of [`JoinKeySpec::probe_key`]: fill `buf`
    /// with the probe-side key and return `true`, or return `false` (with
    /// `buf` cleared) when the tuple is missing a probe-side column.
    pub fn probe_key_into(&self, tuple: &Tuple, buf: &mut Vec<Value>) -> bool {
        buf.clear();
        for (_, probe_col) in &self.pairs {
            match tuple.value(*probe_col) {
                Some(v) => buf.push(v.clone()),
                None => {
                    buf.clear();
                    return false;
                }
            }
        }
        true
    }

    /// The probe-side column references, in pair order. No engine caller is
    /// left; `bench_e2e` uses it to build a layer drive (see
    /// `jit_types::kernel::extract_probe_keys`).
    pub fn probe_columns(&self) -> impl Iterator<Item = ColumnRef> + '_ {
        self.pairs.iter().map(|&(_, probe_col)| probe_col)
    }
}

/// The handles filed under one key, ascending. In a sparse join nearly every
/// key holds a single tuple at a time, so one handle lives in the bucket
/// itself and only a second one takes a heap block.
#[derive(Debug, Clone)]
pub(crate) enum Bucket {
    One(u64),
    Many(Vec<u64>),
}

impl Bucket {
    fn as_slice(&self) -> &[u64] {
        match self {
            Bucket::One(handle) => std::slice::from_ref(handle),
            Bucket::Many(handles) => handles,
        }
    }

    fn push(&mut self, handle: u64) {
        match self {
            Bucket::One(first) => *self = Bucket::Many(vec![*first, handle]),
            Bucket::Many(handles) => handles.push(handle),
        }
    }

    fn retain(&mut self, keep: impl Fn(u64) -> bool) {
        self.renumber(|h| keep(h).then_some(h));
    }

    /// Map every handle through `to`, dropping those it maps to `None`.
    /// `to` must be ascending, which keeps the bucket ascending.
    fn renumber(&mut self, to: impl Fn(u64) -> Option<u64>) {
        match self {
            Bucket::One(handle) => match to(*handle) {
                Some(fresh) => *handle = fresh,
                None => *self = Bucket::Many(Vec::new()),
            },
            Bucket::Many(handles) => {
                handles.retain_mut(|h| to(*h).map(|fresh| *h = fresh).is_some())
            }
        }
    }
}

/// Columns an [`Buckets::Ints`] key holds inline.
const INLINE_INTS: usize = 4;

/// `key` as an [`Buckets::Ints`] key — two to [`INLINE_INTS`] integer
/// columns, zero-padded — or `None` if it does not fit.
fn inline_ints(key: &[Value]) -> Option<[i64; INLINE_INTS]> {
    if !(2..=INLINE_INTS).contains(&key.len()) {
        return None;
    }
    let mut ints = [0; INLINE_INTS];
    for (slot, value) in ints.iter_mut().zip(key) {
        *slot = value.as_int()?;
    }
    Some(ints)
}

/// Bucket storage for a [`HashIndex`], specialized by key shape.
///
/// The paper's workloads join on integers: a base state keys on one column,
/// an intermediate-result state on several (REF's top join on `bushy_jit`
/// files every `AB` and `CD` under a 4-column key; JIT's files them under
/// two 2-column keys instead, one per candidate source). Keyed by
/// `Vec<Value>`, every distinct key is a heap block allocated on its first
/// insert and freed when its bucket empties, and every hash and equality
/// test chases its pointer. The `Int` and `Ints` variants key the map with
/// the values inline instead.
/// An index starts in `Int` mode, moves to `Ints` while still empty if its
/// first key is two to four integers, and migrates once (rehashing existing
/// entries) to `Generic` the first time a key arrives that does not fit.
///
/// Every key of one index comes from one [`JoinKeySpec`], so all its keys
/// have the same arity — which is what makes the zero padding of `Ints`
/// unambiguous.
#[derive(Debug, Clone)]
pub(crate) enum Buckets {
    /// Single-column integer keys, stored inline.
    Int(FastMap<i64, Bucket>),
    /// Keys of `arity` (2 to [`INLINE_INTS`]) integer columns, stored inline
    /// and zero-padded. A `u8` rides in the padding after the tag, so the
    /// variant makes no index larger.
    Ints {
        arity: u8,
        map: FastMap<[i64; INLINE_INTS], Bucket>,
    },
    /// Any other key: wider, or holding a `Str` or `Null`.
    Generic(FastMap<Vec<Value>, Bucket>),
}

impl Default for Buckets {
    fn default() -> Self {
        Buckets::Int(FastMap::default())
    }
}

impl Buckets {
    /// The bucket filed under `key`, if any. A key that does not fit an
    /// inline map correctly finds nothing there (no such key was ever
    /// filed: it would have migrated the map).
    fn get_mut(&mut self, key: &[Value]) -> Option<&mut Bucket> {
        match self {
            Buckets::Int(map) => match key {
                [Value::Int(v)] => map.get_mut(v),
                _ => None,
            },
            Buckets::Ints { arity, map } => {
                debug_assert_eq!(key.len(), usize::from(*arity), "one index, one key arity");
                map.get_mut(&inline_ints(key)?)
            }
            Buckets::Generic(map) => map.get_mut(key),
        }
    }

    /// Append `handle` to the bucket for `key`, moving an empty `Int` map to
    /// `Ints` or migrating to `Generic` if the key does not fit.
    fn push(&mut self, key: &[Value], handle: u64) {
        loop {
            match self {
                Buckets::Int(map) if map.is_empty() && inline_ints(key).is_some() => {
                    *self = Buckets::Ints {
                        arity: key.len() as u8,
                        map: FastMap::default(),
                    };
                }
                Buckets::Int(map) => {
                    if let [Value::Int(v)] = key {
                        map.entry(*v)
                            .and_modify(|bucket| bucket.push(handle))
                            .or_insert(Bucket::One(handle));
                        return;
                    }
                    let migrated: FastMap<Vec<Value>, Bucket> = map
                        .drain()
                        .map(|(k, bucket)| (vec![Value::Int(k)], bucket))
                        .collect();
                    *self = Buckets::Generic(migrated);
                }
                Buckets::Ints { arity, map } => {
                    debug_assert_eq!(key.len(), usize::from(*arity), "one index, one key arity");
                    if let Some(ints) = inline_ints(key) {
                        map.entry(ints)
                            .and_modify(|bucket| bucket.push(handle))
                            .or_insert(Bucket::One(handle));
                        return;
                    }
                    let arity = usize::from(*arity);
                    let migrated: FastMap<Vec<Value>, Bucket> = map
                        .drain()
                        .map(|(ints, bucket)| (ints.map(Value::Int)[..arity].to_vec(), bucket))
                        .collect();
                    *self = Buckets::Generic(migrated);
                }
                Buckets::Generic(map) => {
                    // `Vec<Value>: Borrow<[Value]>` lets the lookup run on
                    // the borrowed slice; an owned key is allocated only
                    // when the bucket sees the key for the first time.
                    match map.get_mut(key) {
                        Some(bucket) => bucket.push(handle),
                        None => {
                            map.insert(key.to_vec(), Bucket::One(handle));
                        }
                    }
                    return;
                }
            }
        }
    }

    /// Map every handle through `to` ([`Bucket::renumber`]) and drop the
    /// buckets that empty out.
    fn renumber(&mut self, to: impl Fn(u64) -> Option<u64>) {
        let keep = |bucket: &mut Bucket| {
            bucket.renumber(&to);
            !bucket.as_slice().is_empty()
        };
        match self {
            Buckets::Int(map) => map.retain(|_, bucket| keep(bucket)),
            Buckets::Ints { map, .. } => map.retain(|_, bucket| keep(bucket)),
            Buckets::Generic(map) => map.retain(|_, bucket| keep(bucket)),
        }
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        match self {
            Buckets::Int(map) => map.len(),
            Buckets::Ints { map, .. } => map.len(),
            Buckets::Generic(map) => map.len(),
        }
    }
}

/// One hash index over a slab of tuples, for one [`JoinKeySpec`] — the
/// bucket/overflow machinery shared by [`OperatorState`] (lazily built,
/// incrementally maintained) and JIT's MNS buffer (one index per MNS
/// coverage).
///
/// The index holds handles and never learns of a removal: readers pass the
/// owner's liveness test ([`Slab::is_live`]) to
/// [`HashIndex::live_candidates_into`], and the owner calls
/// [`HashIndex::sweep`] or [`HashIndex::renumber`] when its [`Slab`] asks
/// ([`Slab::reclaim`]) — which bounds the dead handles *and* the emptied
/// buckets (a stream keyed by an order or session id files every key exactly
/// once).
///
/// Keys are formed in a caller-owned scratch buffer and stored by value: a
/// key of one to four integer columns lives in its map slot, so filing and
/// probing it allocates nothing; only a wider key or one holding a `Str` or
/// `Null` is copied into an owned `Vec` when its bucket is created.
#[derive(Debug, Clone, Default)]
pub struct HashIndex {
    /// Key → handles of stored tuples carrying that key, ascending (i.e.
    /// in insertion order). Keyed with the fast multiplicative hasher:
    /// buckets are probed once per arrival.
    buckets: Buckets,
    /// Handles of stored tuples that cannot be keyed (a missing stored-side
    /// column, an empty spec); always examined in addition to the bucket.
    /// Ascending.
    overflow: Vec<u64>,
}

impl HashIndex {
    /// File `handle` under the tuple's stored-side key (formed in the
    /// caller's `scratch`), or in the overflow list when the tuple is
    /// missing a key column or the spec is empty and keys nothing. Handles
    /// must be filed in ascending order.
    pub fn file_with(
        &mut self,
        spec: &JoinKeySpec,
        tuple: &Tuple,
        handle: u64,
        scratch: &mut Vec<Value>,
    ) {
        if !spec.is_empty() && spec.stored_key_into(tuple, scratch) {
            self.buckets.push(scratch, handle);
        } else {
            self.overflow.push(handle);
        }
    }

    /// Append to `out`, ascending, the handles filed under `key` or in the
    /// overflow list that `is_live` accepts. The common case (no overflow)
    /// filters the bucket read-only, so the hot path stays alloc- and
    /// write-free; a bucket is rewritten only once dead handles dominate it.
    pub fn live_candidates_into(
        &mut self,
        key: &[Value],
        is_live: impl Fn(u64) -> bool,
        out: &mut Vec<u64>,
    ) {
        if self.overflow.is_empty() {
            self.live_bucket_into(key, &is_live, out);
            return;
        }
        self.overflow.retain(|&h| is_live(h));
        match self.buckets.get_mut(key) {
            Some(bucket) => {
                bucket.retain(&is_live);
                merge_ascending_into(bucket.as_slice(), &self.overflow, out);
            }
            None => out.extend_from_slice(&self.overflow),
        }
    }

    /// [`HashIndex::live_candidates_into`] with the bucket's handles and the
    /// overflow list's kept apart, each appended ascending to its own output.
    fn live_parts_into(
        &mut self,
        key: &[Value],
        is_live: impl Fn(u64) -> bool,
        bucket_out: &mut Vec<u64>,
        overflow_out: &mut Vec<u64>,
    ) {
        if !self.overflow.is_empty() {
            self.overflow.retain(|&h| is_live(h));
            overflow_out.extend_from_slice(&self.overflow);
        }
        self.live_bucket_into(key, &is_live, bucket_out);
    }

    /// Append the live handles filed under `key` to `out`, ascending. The
    /// bucket is read, not written, unless dead handles dominate it.
    fn live_bucket_into(
        &mut self,
        key: &[Value],
        is_live: &impl Fn(u64) -> bool,
        out: &mut Vec<u64>,
    ) {
        let Some(bucket) = self.buckets.get_mut(key) else {
            return;
        };
        let before = out.len();
        out.extend(bucket.as_slice().iter().copied().filter(|&h| is_live(h)));
        if bucket.as_slice().len() > 2 * (out.len() - before) + 8 {
            bucket.retain(is_live);
        }
    }

    /// Drop every handle `is_live` rejects and every bucket that empties.
    /// O(filed handles): call it once per O(live) removals.
    pub fn sweep(&mut self, is_live: impl Fn(u64) -> bool) {
        self.renumber(|h| is_live(h).then_some(h));
    }

    /// Map every filed handle through `to` — ascending, as [`Slab::reclaim`]
    /// hands it over — dropping the handles it maps to `None` and the
    /// buckets that empty out. O(filed handles), no key is formed again.
    pub fn renumber(&mut self, to: impl Fn(u64) -> Option<u64>) {
        self.buckets.renumber(&to);
        self.overflow
            .retain_mut(|h| to(*h).map(|fresh| *h = fresh).is_some());
    }
}

/// What one probing tuple found in a state under each of several
/// [`JoinKeySpec`]s ([`OperatorState::probe_union_into`]), kept per spec:
/// the live handles in its bucket and in its overflow list.
#[derive(Debug, Clone, Default)]
pub struct SpecHits {
    /// Number of specs probed; the vectors below may be longer (they keep
    /// their buffers from call to call).
    len: usize,
    /// Per spec, the live handles filed under the probe's key, ascending.
    buckets: Vec<Vec<u64>>,
    /// Per spec, the live handles of its overflow list, ascending.
    overflows: Vec<Vec<u64>>,
    /// Bit `i` set: spec `i` could not key the probe (or the state scans),
    /// so any union holding it has every live handle for candidates.
    unkeyed: u64,
    /// Every live handle, ascending — filled only when `unkeyed` is not 0.
    live: Vec<u64>,
}

impl SpecHits {
    fn reset(&mut self, len: usize) {
        self.len = len;
        if self.buckets.len() < len {
            self.buckets.resize_with(len, Vec::new);
            self.overflows.resize_with(len, Vec::new);
        }
        for list in self.buckets[..len]
            .iter_mut()
            .chain(&mut self.overflows[..len])
        {
            list.clear();
        }
        self.unkeyed = 0;
        self.live.clear();
    }

    /// What [`OperatorState::probe_into`] returns, written into `out`
    /// (cleared first), for the union of the specs whose positions are set
    /// in `members` (bit `i` for spec `i`; at least one): the intersection
    /// of their buckets plus the union of their overflow lists, ascending,
    /// or every live handle if one of them could not key the probe.
    pub fn union_into(&self, members: u64, out: &mut Vec<u64>) {
        debug_assert!(
            members != 0 && members >> self.len == 0,
            "members of the probe"
        );
        out.clear();
        if members & self.unkeyed != 0 {
            out.extend_from_slice(&self.live);
            return;
        }
        let positions = (0..self.len).filter(|&i| members >> i & 1 == 1);
        // The intersection is no larger than the smallest bucket.
        let Some(smallest) = positions.clone().min_by_key(|&i| self.buckets[i].len()) else {
            return;
        };
        out.extend_from_slice(&self.buckets[smallest]);
        for i in positions.clone().filter(|&i| i != smallest) {
            retain_common(out, &self.buckets[i]);
        }
        // A handle in some spec's overflow is in no intersection: disjoint.
        if positions.clone().any(|i| !self.overflows[i].is_empty()) {
            let mut spilled: Vec<u64> = positions
                .flat_map(|i| self.overflows[i].iter().copied())
                .collect();
            spilled.sort_unstable();
            spilled.dedup();
            let common = std::mem::take(out);
            merge_ascending_into(&common, &spilled, out);
        }
    }
}

/// Keep in the ascending `out` only the handles the ascending `other` holds.
fn retain_common(out: &mut Vec<u64>, other: &[u64]) {
    let mut rest = other.iter().peekable();
    out.retain(|&h| {
        while rest.next_if(|&&o| o < h).is_some() {}
        rest.peek() == Some(&&h)
    });
}

/// The store of every window container — an operator state's tuples, an MNS
/// buffer's MNSs, a blacklist's entries — with the queue that expires them.
///
/// Handles ascend in insertion order and are never reused; the entry with
/// handle `h` sits at `slots[h - base]`, and a removal leaves a tombstone
/// that [`Slab::reclaim`] trims off the front or, once tombstones outnumber
/// live entries, compacts away. An owner's indexes hold handles, filter
/// them with [`Slab::is_live`] and map them as [`Slab::reclaim`] says.
///
/// The expiry queue holds `(key, handle)` pairs keyed by
/// `Window::INSTANT.expires_at(tuple)`: one per entry, several (a blacklist
/// entry expires by its MNS and each suspended tuple) or none (Ø). After
/// [`Slab::pop_due`] and [`Slab::reclaim`] its front pair is live.
#[derive(Debug, Clone)]
pub struct Slab<T> {
    slots: VecDeque<Option<T>>,
    /// Handle of the front slot; handles below it are dead.
    base: u64,
    /// Number of `Some` slots.
    live: usize,
    expiry: ExpiryQueue,
    /// Removals since the owner's indexes were last swept or renumbered.
    removed_since_sweep: usize,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab {
            slots: VecDeque::new(),
            base: 0,
            live: 0,
            expiry: ExpiryQueue::default(),
            removed_since_sweep: 0,
        }
    }
}

impl<T> Slab<T> {
    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Is no entry live?
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The lowest handle that may be live.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// The handle the next [`Slab::push`] issues.
    pub fn end(&self) -> u64 {
        self.base + self.slots.len() as u64
    }

    /// The live entry with `handle`.
    pub fn get(&self, handle: u64) -> Option<&T> {
        self.slots
            .get(handle.checked_sub(self.base)? as usize)?
            .as_ref()
    }

    /// The live entry with `handle`, mutably.
    pub fn get_mut(&mut self, handle: u64) -> Option<&mut T> {
        self.slots
            .get_mut(handle.checked_sub(self.base)? as usize)?
            .as_mut()
    }

    /// Is the entry with `handle` live?
    pub fn is_live(&self, handle: u64) -> bool {
        self.get(handle).is_some()
    }

    /// The live entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().flatten()
    }

    /// The live entries in insertion order, mutably.
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.slots.iter_mut().flatten()
    }

    /// The live entries with their handles, ascending.
    pub fn handles(&self) -> impl Iterator<Item = (u64, &T)> {
        let base = self.base;
        let slots = self.slots.iter().enumerate();
        slots.filter_map(move |(at, slot)| Some((base + at as u64, slot.as_ref()?)))
    }

    /// Store `entry` under handle [`Slab::end`] and return it.
    pub fn push(&mut self, entry: T) -> u64 {
        self.slots.push_back(Some(entry));
        self.live += 1;
        self.end() - 1
    }

    /// Queue `handle` (live, or the next to be pushed) to fall due when
    /// `tuple` expires. The owner names its window only when it pops.
    pub fn expire_with(&mut self, handle: u64, tuple: &Tuple) {
        self.expiry.push(Window::INSTANT.expires_at(tuple), handle);
    }

    /// Remove the live entry with `handle`, leaving a tombstone; call
    /// [`Slab::reclaim`] after a batch of removals.
    pub fn take(&mut self, handle: u64) -> Option<T> {
        let at = handle.checked_sub(self.base)? as usize;
        let entry = self.slots.get_mut(at)?.take()?;
        self.live -= 1;
        self.removed_since_sweep += 1;
        Some(entry)
    }

    /// Pop the next pair due at `now` under `window`, skipping pairs of
    /// removed entries, and return its handle; `None` once the front is not
    /// due. Handles come in `(key, push)` order — `(expiry, handle)` for an
    /// owner that queues each entry as it pushes it — once per due pair, and
    /// the entry stays live.
    pub fn pop_due(&mut self, window: Window, now: Timestamp) -> Option<u64> {
        while let Some((key, handle)) = self.expiry.peek() {
            let live = self.is_live(handle);
            if live && !window.is_expired(key, now) {
                return None;
            }
            self.expiry.pop();
            if live {
                return Some(handle);
            }
        }
        None
    }

    /// The earliest key queued for a live entry (see [`Window::is_expired`]),
    /// or `None` if no pop can yield anything.
    pub fn next_expiry(&self) -> Option<Timestamp> {
        self.expiry.peek().map(|(key, _)| key)
    }

    /// After removals: trim the fronts of the slots and the queue; then,
    /// once tombstones outnumber live entries (past 64 slots), compact and
    /// hand `renumber` each old handle's new one (`None`: gone), ascending,
    /// or, once as many entries left as are live (at least 64), the identity
    /// on live handles. Amortised O(1) per removal.
    pub fn reclaim(&mut self, renumber: impl FnOnce(&dyn Fn(u64) -> Option<u64>)) {
        while matches!(self.slots.front(), Some(None)) {
            self.slots.pop_front();
            self.base += 1;
        }
        while self.expiry.peek().is_some_and(|(_, h)| !self.is_live(h)) {
            self.expiry.pop();
        }
        if self.slots.len() > 64 && self.slots.len() > 2 * self.live {
            let (old_base, mut next) = (self.base, self.end());
            let fresh: Vec<Option<u64>> = self
                .slots
                .iter()
                .map(|slot| {
                    next += u64::from(slot.is_some());
                    slot.as_ref().map(|_| next - 1)
                })
                .collect();
            let to = |h: u64| *fresh.get(h.checked_sub(old_base)? as usize)?;
            self.base = self.end();
            self.slots.retain(Option::is_some);
            let mut expiry = ExpiryQueue::default();
            for (key, &h) in self.expiry.iter() {
                if let Some(h) = to(h) {
                    expiry.push(key, h);
                }
            }
            self.expiry = expiry;
            debug_assert_eq!(self.slots.len(), self.live, "slab live-count agreement");
            renumber(&to);
        } else if self.removed_since_sweep > self.live.max(64) {
            renumber(&|h| self.is_live(h).then_some(h));
        } else {
            return;
        }
        self.removed_since_sweep = 0;
    }

    /// Remove every entry and return the live ones in insertion order. The
    /// handles issued so far stay dead.
    pub fn take_all(&mut self) -> impl Iterator<Item = T> {
        self.base = self.end();
        self.live = 0;
        self.removed_since_sweep = 0;
        self.expiry.clear();
        std::mem::take(&mut self.slots).into_iter().flatten()
    }

    /// Remove every entry. The handles issued so far stay dead.
    pub fn clear(&mut self) {
        self.take_all().for_each(drop);
    }
}

/// The checkpoint envelope of a window container: its name, checked on
/// restore, and its entries in insertion order. Indexes and the expiry
/// queue are derived from the entries and not persisted.
pub fn write_envelope<'a, T: Serialize + 'a>(
    name: &str,
    entries: impl Iterator<Item = &'a T>,
) -> Content {
    let entries = Content::Seq(entries.map(Serialize::to_content).collect());
    Content::Map(vec![
        ("name".to_string(), Content::Str(name.to_string())),
        ("entries".to_string(), entries),
    ])
}

/// The entries of a [`write_envelope`] blob, which must have been written
/// for the container `name` of type `kind`.
pub fn read_envelope<T: Deserialize>(
    content: &Content,
    name: &str,
    kind: &str,
) -> Result<Vec<T>, serde::Error> {
    let map = content
        .as_map()
        .ok_or_else(|| serde::Error::expected("object", kind))?;
    let found: String = serde::field(map, "name", kind)?;
    if found != name {
        return Err(serde::Error::msg(format!(
            "{kind} mismatch: checkpoint holds `{found}`, plan expects `{name}`"
        )));
    }
    serde::field(map, "entries", kind)
}

/// A window-bounded collection of tuples with running byte accounting,
/// hash-partitioned probing and timestamp-ordered expiry, stored in a
/// [`Slab`].
#[derive(Debug, Clone, Default)]
pub struct OperatorState {
    name: String,
    mode: StateIndexMode,
    /// The stored tuples, one queued expiry each.
    slots: Slab<StoredTuple>,
    /// The indexes built so far, one per probe pattern observed. A state
    /// sees one or two distinct probe patterns in practice, so a
    /// linear-scanned vector beats hashing the spec on every probe.
    indexes: Vec<(JoinKeySpec, HashIndex)>,
    bytes: usize,
    /// Reusable key buffer for filing and probing: key values are formed
    /// here, and only a `Generic` key is cloned into an owned `Vec` (when
    /// its bucket is created).
    key_scratch: Vec<Value>,
}

impl OperatorState {
    /// An empty state with a diagnostic name (e.g. `"S_AB"`), probing via
    /// hash indexes (the default).
    pub fn new(name: impl Into<String>) -> Self {
        Self::with_index_mode(name, StateIndexMode::default())
    }

    /// An empty state with an explicit index mode.
    pub fn with_index_mode(name: impl Into<String>, mode: StateIndexMode) -> Self {
        OperatorState {
            name: name.into(),
            mode,
            ..OperatorState::default()
        }
    }

    /// Switch the probing mode. Existing indexes are dropped (and rebuilt
    /// lazily on the next probe if switching back to
    /// [`StateIndexMode::Hashed`]).
    pub fn set_index_mode(&mut self, mode: StateIndexMode) {
        self.mode = mode;
        self.indexes.clear();
    }

    /// The probing mode in effect.
    pub fn index_mode(&self) -> StateIndexMode {
        self.mode
    }

    /// The state's diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of stored tuples.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Is the state empty?
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Running analytical size in bytes (stored tuple payloads only; index
    /// bookkeeping is not charged, see the module docs).
    pub fn size_bytes(&self) -> usize {
        self.bytes
    }

    /// Number of distinct probe patterns indexed so far.
    pub fn num_indexes(&self) -> usize {
        self.indexes.len()
    }

    /// Iterate over stored entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &StoredTuple> {
        self.slots.iter()
    }

    /// The stored entry with the given probe handle, if still live.
    pub fn get(&self, seq: u64) -> Option<&StoredTuple> {
        self.slots.get(seq)
    }

    /// Insert a tuple for an owner that keeps no stamp (it is stored with
    /// stamp 0). `_now` is unused: no slot records when it was filled.
    pub fn insert(&mut self, tuple: Tuple, _now: Timestamp) {
        self.restore(StoredTuple { tuple, stamp: 0 });
    }

    /// Re-stamp every stored entry in place — for an owner whose entries
    /// were loaded from a checkpoint written before the stamp existed.
    pub fn restamp(&mut self, mut stamp_of: impl FnMut(&Tuple) -> u64) {
        for entry in self.slots.iter_mut() {
            entry.stamp = stamp_of(&entry.tuple);
        }
    }

    /// Admit an entry at the back of the insertion order with the stamp it
    /// carries: a previously drained entry coming back, or a new one under
    /// its owner's stamp.
    pub fn restore(&mut self, entry: StoredTuple) {
        let seq = self.slots.end();
        self.bytes += entry.tuple.size_bytes();
        self.slots.expire_with(seq, &entry.tuple);
        let mut scratch = std::mem::take(&mut self.key_scratch);
        for (spec, index) in self.indexes.iter_mut() {
            index.file_with(spec, &entry.tuple, seq, &mut scratch);
        }
        self.key_scratch = scratch;
        self.slots.push(entry);
    }

    /// Remove and return the entry with handle `seq`, leaving a tombstone.
    fn take(&mut self, seq: u64) -> Option<StoredTuple> {
        let entry = self.slots.take(seq)?;
        self.bytes -= entry.tuple.size_bytes();
        Some(entry)
    }

    /// Remove every tuple that has expired by `now` under `window`; returns
    /// how many were removed.
    ///
    /// O(expired): the expiry queue is popped only while its front is due.
    /// Expiry is [`Window::expires_at`] — the tuple's own timestamp plus the
    /// window — not when it was inserted: a resumed intermediate result
    /// inserted late still expires at its original time.
    pub fn purge(&mut self, window: Window, now: Timestamp) -> usize {
        self.purge_with(window, now, |_| {})
    }

    /// [`OperatorState::purge`], handing each removed tuple to `on_removed`
    /// — for callers that keep bookkeeping on some stored tuples (JIT's
    /// presence histories) and must drop it when the tuple leaves for good.
    pub fn purge_with(
        &mut self,
        window: Window,
        now: Timestamp,
        mut on_removed: impl FnMut(&Tuple),
    ) -> usize {
        let mut removed = 0usize;
        while let Some(seq) = self.slots.pop_due(window, now) {
            if let Some(entry) = self.take(seq) {
                on_removed(&entry.tuple);
                removed += 1;
            }
        }
        self.reclaim();
        removed
    }

    /// Remove and return, in insertion order, every entry among the
    /// candidates of [`OperatorState::probe`]`(spec, probe)` for which
    /// `pred` holds (used by `Suspend_Production` to move the super-tuples
    /// of an MNS, and the tuples sharing its join-attribute values, into a
    /// blacklist).
    ///
    /// The caller chooses `spec` so that every entry `pred` accepts carries
    /// the probe's key — then the hashed probe visits only those entries
    /// (plus the overflow list) and the drain costs O(candidates) instead
    /// of O(n). With an empty spec, a probe missing a key column or
    /// [`StateIndexMode::Scan`] every live entry is a candidate: the
    /// paper's "scan the state" (Section IV-B). Index and queue references
    /// to the drained entries are reclaimed lazily.
    pub fn drain_matching(
        &mut self,
        spec: &JoinKeySpec,
        probe: &Tuple,
        mut pred: impl FnMut(&StoredTuple) -> bool,
    ) -> Vec<StoredTuple> {
        let mut drained = Vec::new();
        for seq in self.probe(spec, probe) {
            if self.get(seq).is_some_and(&mut pred) {
                #[expect(
                    clippy::expect_used,
                    reason = "INVARIANT: get(seq) returned Some on the line above."
                )]
                drained.push(self.take(seq).expect("checked live"));
            }
        }
        self.reclaim();
        drained
    }

    /// Remove everything (indexes included; they rebuild lazily).
    pub fn clear(&mut self) {
        self.slots.clear();
        self.indexes.clear();
        self.bytes = 0;
    }

    /// Serialise the resumable content of the state: the live entries in
    /// insertion order (tuples plus their stamps) in the envelope of
    /// [`write_envelope`].
    ///
    /// The expiry queue and the hash indexes are deliberately *not*
    /// serialised: both are pure functions of the entries
    /// ([`OperatorState::restore_checkpoint`] rebuilds the queue eagerly and
    /// the indexes lazily on the next probe), so a restored state purges and
    /// probes exactly like the original.
    pub fn checkpoint(&self) -> Content {
        write_envelope(&self.name, self.iter())
    }

    /// Rebuild the state from a [`OperatorState::checkpoint`] blob. The
    /// state must have been constructed with the same name; existing
    /// entries are discarded.
    pub fn restore_checkpoint(&mut self, content: &Content) -> Result<(), serde::Error> {
        let entries: Vec<StoredTuple> = read_envelope(content, &self.name, "OperatorState")?;
        self.clear();
        for entry in entries {
            self.restore(entry);
        }
        Ok(())
    }

    /// Probe the state: the handles (pass to [`OperatorState::get`]) of the
    /// candidate partners for `probe`, in insertion order.
    ///
    /// Under [`StateIndexMode::Hashed`] with a non-empty `spec` and a fully
    /// valued probing tuple this returns only the stored tuples whose key
    /// equals the probe key (plus the overflow entries whose key could not
    /// be formed); otherwise it returns every live entry — the scan
    /// fallback. Candidates still need the caller's window check and full
    /// predicate evaluation: the index narrows the candidate set, it never
    /// decides a match by itself.
    pub fn probe(&mut self, spec: &JoinKeySpec, probe: &Tuple) -> Vec<u64> {
        let mut out = Vec::new();
        self.probe_into(spec, probe, &mut out);
        out
    }

    /// Allocation-free variant of [`OperatorState::probe`]: the candidates
    /// are written into the caller-owned `out` (cleared first), and the
    /// probe key is formed in the state's scratch buffer instead of a fresh
    /// `Vec<Value>` per probe.
    pub fn probe_into(&mut self, spec: &JoinKeySpec, probe: &Tuple, out: &mut Vec<u64>) {
        out.clear();
        if self.mode == StateIndexMode::Scan || spec.is_empty() {
            self.all_live_into(out);
            return;
        }
        let mut scratch = std::mem::take(&mut self.key_scratch);
        if spec.probe_key_into(probe, &mut scratch) {
            self.probe_key_slice_into(spec, &scratch, out);
        } else {
            self.all_live_into(out);
        }
        self.key_scratch = scratch;
    }

    /// The hashed probe proper: the live bucket/overflow merge for one
    /// formed key, written into `out`.
    fn probe_key_slice_into(&mut self, spec: &JoinKeySpec, key: &[Value], out: &mut Vec<u64>) {
        let at = self.index_for(spec);
        let slots = &self.slots;
        self.indexes[at]
            .1
            .live_candidates_into(key, |seq| slots.is_live(seq), out);
    }

    /// [`OperatorState::probe_into`] for the union of `specs` (each
    /// non-empty, at most 64), answered from one index per spec instead of
    /// one for the union. When every spec keys the probe, the candidates are
    /// the intersection of the specs' buckets plus the union of their
    /// overflow lists, ascending — the union spec's bucket and overflow
    /// exactly: a stored tuple carries the union key iff it carries each
    /// spec's key, and lacks a union-key column iff it lacks one of some
    /// spec's. If some spec cannot key the probe, or the state scans, the
    /// candidates are every live handle.
    ///
    /// What each spec found is left in `hits`, which answers the union of
    /// any subset of `specs` ([`SpecHits::union_into`]) with no further
    /// lookup.
    pub fn probe_union_into(
        &mut self,
        specs: &[JoinKeySpec],
        probe: &Tuple,
        hits: &mut SpecHits,
        out: &mut Vec<u64>,
    ) {
        debug_assert!((1..=64).contains(&specs.len()), "one to 64 specs");
        hits.reset(specs.len());
        let mut scratch = std::mem::take(&mut self.key_scratch);
        for (i, spec) in specs.iter().enumerate() {
            debug_assert!(!spec.is_empty(), "an empty spec keys nothing");
            if self.mode == StateIndexMode::Scan || !spec.probe_key_into(probe, &mut scratch) {
                hits.unkeyed |= 1 << i;
                continue;
            }
            let at = self.index_for(spec);
            let slots = &self.slots;
            self.indexes[at].1.live_parts_into(
                &scratch,
                |seq| slots.is_live(seq),
                &mut hits.buckets[i],
                &mut hits.overflows[i],
            );
        }
        self.key_scratch = scratch;
        if hits.unkeyed != 0 {
            self.all_live_into(&mut hits.live);
        }
        hits.union_into(u64::MAX >> (64 - specs.len()), out);
    }

    /// The position in `indexes` of the index for `spec`, built on first use.
    fn index_for(&mut self, spec: &JoinKeySpec) -> usize {
        match self.indexes.iter().position(|(s, _)| s == spec) {
            Some(at) => at,
            None => self.build_index(spec),
        }
    }

    /// The earliest expiry key of a stored tuple ([`Slab::next_expiry`]),
    /// so that a caller can elide a purge that would remove nothing.
    pub fn next_expiry(&self) -> Option<Timestamp> {
        self.slots.next_expiry()
    }

    /// Append all live handles in insertion order to `out` (the scan path).
    fn all_live_into(&self, out: &mut Vec<u64>) {
        out.extend(self.slots.handles().map(|(seq, _)| seq));
    }

    /// Build the index for `spec`, the first time a probe uses it, by one
    /// scan of the live entries; returns its position in `indexes`.
    fn build_index(&mut self, spec: &JoinKeySpec) -> usize {
        let mut index = HashIndex::default();
        for (seq, entry) in self.slots.handles() {
            index.file_with(spec, &entry.tuple, seq, &mut self.key_scratch);
        }
        self.indexes.push((spec.clone(), index));
        self.indexes.len() - 1
    }

    /// Amortised reclamation after removals ([`Slab::reclaim`]): purges
    /// never touch an index, so without the sweep a bucket outlives its
    /// last tuple until its key is probed again, and its map entry forever.
    fn reclaim(&mut self) {
        let indexes = &mut self.indexes;
        self.slots
            .reclaim(|to| indexes.iter_mut().for_each(|(_, index)| index.renumber(to)));
    }
}

/// Merge two ascending handle lists into a caller-owned output vector.
pub(crate) fn merge_ascending_into<T: Copy + Ord>(a: &[T], b: &[T], out: &mut Vec<T>) {
    out.reserve(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] <= b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

impl fmt::Display for OperatorState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{} tuples, {} B]", self.name, self.len(), self.bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jit_types::{BaseTuple, Duration, SourceId, Value};
    use std::sync::Arc;

    fn tuple(seq: u64, ts_ms: u64) -> Tuple {
        Tuple::from_base(Arc::new(BaseTuple::new(
            SourceId(0),
            seq,
            Timestamp::from_millis(ts_ms),
            vec![Value::int(seq as i64)],
        )))
    }

    fn keyed(source: u16, seq: u64, ts_ms: u64, key: i64) -> Tuple {
        Tuple::from_base(Arc::new(BaseTuple::new(
            SourceId(source),
            seq,
            Timestamp::from_millis(ts_ms),
            vec![Value::int(key)],
        )))
    }

    /// A.x0 = B.x0: state stores B (source 1), probes come from A (source 0).
    fn ab_spec() -> JoinKeySpec {
        JoinKeySpec::between(
            &PredicateSet::clique(2),
            SourceSet::single(SourceId(1)),
            SourceSet::single(SourceId(0)),
        )
    }

    #[test]
    fn insert_updates_len_and_bytes() {
        let mut s = OperatorState::new("S_A");
        assert!(s.is_empty());
        let t = tuple(1, 100);
        let sz = t.size_bytes();
        s.insert(t, Timestamp::from_millis(100));
        assert_eq!(s.len(), 1);
        assert_eq!(s.size_bytes(), sz);
        assert_eq!(s.name(), "S_A");
        assert!(s.to_string().contains("S_A"));
        assert_eq!(s.index_mode(), StateIndexMode::Hashed);
    }

    #[test]
    fn purge_removes_expired_only() {
        let w = Window::new(Duration::from_secs(10));
        let mut s = OperatorState::new("S");
        s.insert(tuple(1, 0), Timestamp::ZERO);
        s.insert(tuple(2, 5_000), Timestamp::from_millis(5_000));
        s.insert(tuple(3, 9_000), Timestamp::from_millis(9_000));
        // At t = 12s the first tuple (alive [0,10s)) has expired.
        let removed = s.purge(w, Timestamp::from_millis(12_000));
        assert_eq!(removed, 1);
        assert_eq!(s.len(), 2);
        // Bytes shrink consistently.
        let expected: usize = s.iter().map(|e| e.tuple.size_bytes()).sum();
        assert_eq!(s.size_bytes(), expected);
        // Nothing more to purge at the same instant.
        assert_eq!(s.purge(w, Timestamp::from_millis(12_000)), 0);
    }

    #[test]
    fn purge_uses_tuple_timestamp_not_insertion_time() {
        let w = Window::new(Duration::from_secs(10));
        let mut s = OperatorState::new("S");
        // Inserted late (resumed), but carries an old timestamp.
        s.insert(tuple(1, 0), Timestamp::from_millis(9_999));
        assert_eq!(s.purge(w, Timestamp::from_millis(10_000)), 1);
        assert!(s.is_empty());
        assert_eq!(s.size_bytes(), 0);
    }

    #[test]
    fn purge_is_exact_when_restores_interleave() {
        // A restored old tuple sits *behind* younger ones in insertion
        // order but must still expire first (heap order, not scan order).
        let w = Window::new(Duration::from_secs(10));
        let mut s = OperatorState::new("S");
        s.insert(tuple(1, 8_000), Timestamp::from_millis(8_000));
        s.restore(StoredTuple {
            tuple: tuple(2, 1_000),
            stamp: 1_000,
        });
        assert_eq!(s.purge(w, Timestamp::from_millis(11_500)), 1);
        let left: Vec<u64> = s.iter().map(|e| e.tuple.parts()[0].seq).collect();
        assert_eq!(left, vec![1]);
    }

    /// Drain by predicate alone: the empty spec makes every live entry a
    /// candidate (the paper's "scan the state").
    fn drain_scan(
        s: &mut OperatorState,
        pred: impl FnMut(&StoredTuple) -> bool,
    ) -> Vec<StoredTuple> {
        s.drain_matching(&JoinKeySpec::on_columns(&[]), &tuple(0, 0), pred)
    }

    #[test]
    fn drain_matching_moves_matching_entries() {
        let mut s = OperatorState::new("S");
        for i in 0..6 {
            s.insert(tuple(i, i * 100), Timestamp::from_millis(i * 100));
        }
        let drained = drain_scan(&mut s, |e| e.tuple.parts()[0].seq % 2 == 0);
        assert_eq!(drained.len(), 3);
        assert_eq!(s.len(), 3);
        let expected: usize = s.iter().map(|e| e.tuple.size_bytes()).sum();
        assert_eq!(s.size_bytes(), expected);
        for d in drained {
            s.restore(d);
        }
        assert_eq!(s.len(), 6);
    }

    /// The stamp is the owner's: it comes back unchanged from every path
    /// that moves an entry — drain and restore, front-trim, compaction, a
    /// checkpoint round trip — and it costs REF nothing: the slot is the
    /// size it was when these 8 bytes held an unread insertion time.
    #[test]
    fn stamp_rides_in_the_slot_through_every_move() {
        assert_eq!(
            std::mem::size_of::<StoredTuple>(),
            std::mem::size_of::<Tuple>() + 8
        );
        let w = Window::new(Duration::from_secs(1));
        let stamp_of = |seq: u64| 1_000_000 + 7 * seq;
        let stamps = |s: &OperatorState| -> Vec<(u64, u64)> {
            s.iter()
                .map(|e| (e.tuple.parts()[0].seq, e.stamp))
                .collect()
        };
        let mut s = OperatorState::new("S");
        for seq in 0..200u64 {
            s.restore(StoredTuple {
                tuple: tuple(seq, seq * 10),
                stamp: stamp_of(seq),
            });
        }
        // `insert` is for owners that keep no stamp.
        s.insert(tuple(200, 2_000), Timestamp::from_millis(2_000));
        assert_eq!(s.iter().last().unwrap().stamp, 0);
        drain_scan(&mut s, |e| e.tuple.parts()[0].seq == 200);

        // Drain → restore: the entry moves to the back, stamp intact.
        let drained = drain_scan(&mut s, |e| e.tuple.parts()[0].seq % 50 == 3);
        assert_eq!(drained.len(), 4);
        assert!(drained
            .iter()
            .all(|e| e.stamp == stamp_of(e.tuple.parts()[0].seq)));
        for entry in drained {
            s.restore(entry);
        }
        // Front-trim: a purge pops the oldest slots and advances `base`.
        let base = s.slots.base();
        assert_eq!(s.purge(w, Timestamp::from_millis(1_500)), 51);
        assert!(s.slots.base() > base);
        // Compaction: tombstone most of the slab mid-way.
        let issued = s.slots.end();
        drain_scan(&mut s, |e| e.tuple.parts()[0].seq % 4 != 0);
        assert!(s.slots.base() >= issued, "the drain must have compacted");
        assert!(!s.is_empty());
        assert!(stamps(&s)
            .iter()
            .all(|&(seq, stamp)| stamp == stamp_of(seq)));
        // Probe handles reach the same slots.
        for handle in s.probe(&JoinKeySpec::on_columns(&[]), &tuple(0, 0)) {
            let entry = s.get(handle).unwrap();
            assert_eq!(entry.stamp, stamp_of(entry.tuple.parts()[0].seq));
        }
        // Checkpoint round trip.
        let mut r = OperatorState::new("S");
        r.restore_checkpoint(&s.checkpoint()).unwrap();
        assert_eq!(stamps(&r), stamps(&s));
    }

    /// An entry written before the stamp existed (`inserted_at`, an
    /// application time nothing read) loads with stamp 0, and its owner
    /// re-stamps it in place.
    #[test]
    fn entries_without_a_stamp_load_with_stamp_zero() {
        let mut s = OperatorState::new("S");
        s.restore(StoredTuple {
            tuple: tuple(1, 100),
            stamp: 42,
        });
        let Content::Map(mut blob) = s.checkpoint() else {
            panic!("a state checkpoint is a map")
        };
        let Some((_, Content::Seq(entries))) = blob.iter_mut().find(|(k, _)| k == "entries") else {
            panic!("no entries")
        };
        let Content::Map(fields) = &mut entries[0] else {
            panic!("an entry is a map")
        };
        assert_eq!(fields[1].0, "stamp");
        fields[1] = (
            "inserted_at".to_string(),
            Timestamp::from_millis(100).to_content(),
        );
        let mut r = OperatorState::new("S");
        r.restore_checkpoint(&Content::Map(blob)).unwrap();
        let entry = r.iter().next().unwrap();
        assert_eq!((entry.tuple.key(), entry.stamp), (tuple(1, 100).key(), 0));
        r.restamp(|tuple| tuple.ts().as_millis() + 1);
        assert_eq!(r.iter().next().unwrap().stamp, 101);
        assert_eq!((r.len(), r.size_bytes()), (s.len(), s.size_bytes()));
    }

    #[test]
    fn clear_resets_everything() {
        let mut s = OperatorState::new("S");
        s.insert(tuple(1, 0), Timestamp::ZERO);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.size_bytes(), 0);
    }

    #[test]
    fn entries_preserve_insertion_order() {
        let mut s = OperatorState::new("S");
        for i in 0..5 {
            s.insert(tuple(i, i), Timestamp::from_millis(i));
        }
        let seqs: Vec<u64> = s.iter().map(|e| e.tuple.parts()[0].seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn spec_between_orients_pairs() {
        let spec = ab_spec();
        assert_eq!(spec.len(), 1);
        assert!(!spec.is_empty());
        // No predicate spans A with A.
        let none = JoinKeySpec::between(
            &PredicateSet::clique(2),
            SourceSet::single(SourceId(0)),
            SourceSet::single(SourceId(0)),
        );
        assert!(none.is_empty());
    }

    #[test]
    fn hashed_probe_returns_only_key_matches_in_insertion_order() {
        let mut s = OperatorState::new("S_B");
        let spec = ab_spec();
        for (i, key) in [7, 8, 7, 9, 7].iter().enumerate() {
            s.insert(
                keyed(1, i as u64, i as u64 * 10, *key),
                Timestamp::from_millis(i as u64 * 10),
            );
        }
        let probe = keyed(0, 0, 100, 7);
        let hits = s.probe(&spec, &probe);
        let seqs: Vec<u64> = hits
            .iter()
            .map(|&h| s.get(h).unwrap().tuple.parts()[0].seq)
            .collect();
        assert_eq!(seqs, vec![0, 2, 4]);
        assert_eq!(s.num_indexes(), 1);
        // A key with no partners returns nothing.
        assert!(s.probe(&spec, &keyed(0, 1, 100, 42)).is_empty());
    }

    #[test]
    fn scan_mode_and_empty_spec_return_everything() {
        let mut s = OperatorState::with_index_mode("S", StateIndexMode::Scan);
        for i in 0..4 {
            s.insert(
                keyed(1, i, i * 10, i as i64),
                Timestamp::from_millis(i * 10),
            );
        }
        assert_eq!(s.probe(&ab_spec(), &keyed(0, 0, 50, 2)).len(), 4);
        assert_eq!(s.num_indexes(), 0);
        // Hashed mode with an empty spec also scans.
        let mut h = OperatorState::new("S");
        h.insert(keyed(1, 0, 0, 1), Timestamp::ZERO);
        let empty = JoinKeySpec::between(
            &PredicateSet::new(),
            SourceSet::single(SourceId(1)),
            SourceSet::single(SourceId(0)),
        );
        assert_eq!(h.probe(&empty, &keyed(0, 0, 0, 1)).len(), 1);
    }

    #[test]
    fn probe_with_missing_probe_column_scans() {
        let mut s = OperatorState::new("S_B");
        s.insert(keyed(1, 0, 0, 1), Timestamp::ZERO);
        s.insert(keyed(1, 1, 10, 2), Timestamp::from_millis(10));
        // A probe from source 2 carries none of the spec's probe columns.
        let foreign = keyed(2, 0, 20, 1);
        assert_eq!(s.probe(&ab_spec(), &foreign).len(), 2);
    }

    #[test]
    fn stored_tuples_missing_key_columns_go_to_overflow() {
        let mut s = OperatorState::new("S_B");
        let spec = ab_spec();
        s.insert(keyed(1, 0, 0, 7), Timestamp::ZERO);
        // A stored tuple from another source lacks the stored-side column:
        // it must be examined by every probe (scan semantics for it).
        s.insert(keyed(2, 1, 10, 999), Timestamp::from_millis(10));
        let hits = s.probe(&spec, &keyed(0, 0, 20, 7));
        assert_eq!(hits.len(), 2);
        let hits = s.probe(&spec, &keyed(0, 1, 20, 12345));
        assert_eq!(hits.len(), 1); // only the overflow entry
    }

    #[test]
    fn indexes_survive_purge_drain_and_restore() {
        let w = Window::new(Duration::from_secs(10));
        let spec = ab_spec();
        let mut s = OperatorState::new("S_B");
        for i in 0..6u64 {
            s.insert(
                keyed(1, i, i * 1_000, (i % 2) as i64),
                Timestamp::from_millis(i * 1_000),
            );
        }
        // Build the index, then mutate the state in every supported way.
        assert_eq!(s.probe(&spec, &keyed(0, 0, 5_000, 0)).len(), 3);
        let drained = drain_scan(&mut s, |e| e.tuple.parts()[0].seq == 2);
        assert_eq!(drained.len(), 1);
        assert_eq!(s.probe(&spec, &keyed(0, 0, 5_000, 0)).len(), 2);
        s.restore(drained.into_iter().next().unwrap());
        assert_eq!(s.probe(&spec, &keyed(0, 0, 5_000, 0)).len(), 3);
        // Purge everything older than 11s − 10s = 1s.
        let removed = s.purge(w, Timestamp::from_millis(11_000));
        assert_eq!(removed, 2); // ts 0 and 1000 expired
        let hits = s.probe(&spec, &keyed(0, 0, 11_000, 0));
        let seqs: Vec<u64> = hits
            .iter()
            .map(|&h| s.get(h).unwrap().tuple.parts()[0].seq)
            .collect();
        assert_eq!(seqs, vec![4, 2]); // insertion order: 4 arrived before the restore of 2
    }

    #[test]
    fn compaction_keeps_probes_and_iteration_correct() {
        let w = Window::new(Duration::from_secs(1));
        let spec = ab_spec();
        let mut s = OperatorState::new("S_B");
        // Force many insert/purge cycles to trigger compaction.
        for round in 0..40u64 {
            for i in 0..10u64 {
                let ts = round * 10_000 + i;
                s.insert(
                    keyed(1, round * 10 + i, ts, (i % 3) as i64),
                    Timestamp::from_millis(ts),
                );
            }
            let _ = s.probe(&spec, &keyed(0, 0, round * 10_000 + 9, 0));
            s.purge(w, Timestamp::from_millis(round * 10_000 + 9_000));
        }
        assert!(s.is_empty());
        assert_eq!(s.size_bytes(), 0);
        s.insert(keyed(1, 1_000, 400_000, 2), Timestamp::from_millis(400_000));
        assert_eq!(s.probe(&spec, &keyed(0, 0, 400_000, 2)).len(), 1);
        assert_eq!(s.iter().count(), 1);
    }

    /// A stream keyed by an ever-fresh id (order, session, trace) files
    /// every key once: the index must give the bucket back when the tuple
    /// is purged, not hold one bucket per key ever seen.
    #[test]
    fn purged_keys_leave_no_bucket_behind() {
        let w = Window::new(Duration::from_secs(1));
        // One integer key column, and a composite (generic) key.
        let int_spec = ab_spec();
        let pair_spec = JoinKeySpec::between(
            &PredicateSet::from_predicates(
                [0, 1]
                    .map(|c| {
                        jit_types::EquiPredicate::new(
                            ColumnRef::new(SourceId(1), c),
                            ColumnRef::new(SourceId(0), c),
                        )
                    })
                    .to_vec(),
            ),
            SourceSet::single(SourceId(1)),
            SourceSet::single(SourceId(0)),
        );
        let row = |source: u16, seq: u64, ts_ms: u64| {
            Tuple::from_base(Arc::new(BaseTuple::new(
                SourceId(source),
                seq,
                Timestamp::from_millis(ts_ms),
                vec![Value::int(seq as i64), Value::int((seq % 7) as i64)],
            )))
        };
        for (spec, inserts) in [(&int_spec, 100_000u64), (&pair_spec, 2_000)] {
            let mut hashed = OperatorState::new("S");
            let mut scan = OperatorState::with_index_mode("S", StateIndexMode::Scan);
            // 100 tuples per window: ten (resp. a thousand) windows.
            for seq in 0..inserts {
                let now = Timestamp::from_millis(seq * 10);
                for state in [&mut hashed, &mut scan] {
                    state.purge(w, now);
                    state.insert(row(1, seq, seq * 10), now);
                }
                let buckets: usize = hashed.indexes.iter().map(|(_, i)| i.buckets.len()).sum();
                assert!(
                    buckets <= 2 * hashed.len() + 64,
                    "{buckets} buckets for {} tuples at insert {seq}",
                    hashed.len()
                );
                if seq % 97 == 0 {
                    // A live key, a purged key and a key never seen.
                    for key in [seq, seq.saturating_sub(150), seq + 1_000_000] {
                        let probe = row(0, key, seq * 10);
                        let found = |state: &mut OperatorState| -> Vec<u64> {
                            let hits = state.probe(spec, &probe);
                            let tuples = hits.iter().filter_map(|&h| state.get(h));
                            tuples
                                .filter(|e| spec.stored_key(&e.tuple) == spec.probe_key(&probe))
                                .map(|e| e.tuple.parts()[0].seq)
                                .collect()
                        };
                        assert_eq!(found(&mut hashed), found(&mut scan), "key {key} at {seq}");
                    }
                }
            }
            assert_eq!(hashed.len(), 100);
            assert_eq!(hashed.slots.end() - hashed.slots.base(), 100);
        }
    }

    fn ints(values: &[i64]) -> Vec<Value> {
        values.iter().map(|&v| Value::int(v)).collect()
    }

    fn filed<'a>(buckets: &'a mut Buckets, key: &[Value]) -> Option<&'a [u64]> {
        buckets.get_mut(key).map(|bucket| bucket.as_slice())
    }

    /// The first key an empty index sees picks its map: one integer
    /// `Int`, two to four integers `Ints` (inline, zero-padded), anything
    /// wider or not all-integer `Generic`.
    #[test]
    fn the_first_key_picks_the_bucket_map() {
        // The arity rides in the padding after the tag: one map and a word,
        // what a two-variant `Buckets` took.
        assert_eq!(
            std::mem::size_of::<Buckets>(),
            std::mem::size_of::<FastMap<i64, Bucket>>() + 8
        );
        for arity in 1..=5 {
            let key: Vec<i64> = (1..=arity).collect();
            let mut buckets = Buckets::default();
            buckets.push(&ints(&key), 3);
            buckets.push(&ints(&key), 5);
            match (&buckets, arity) {
                (Buckets::Int(_), 1) | (Buckets::Generic(_), 5) => {}
                (
                    Buckets::Ints {
                        arity: filed_arity, ..
                    },
                    2..=4,
                ) => {
                    assert_eq!(i64::from(*filed_arity), arity);
                }
                (other, _) => panic!("arity {arity} filed in {other:?}"),
            }
            assert_eq!(filed(&mut buckets, &ints(&key)), Some(&[3, 5][..]));
            let mut zeroed = key.clone();
            zeroed[arity as usize - 1] = 0;
            assert_eq!(filed(&mut buckets, &ints(&zeroed)), None, "arity {arity}");
        }
        for odd in [Value::str("x"), Value::Null] {
            let mut buckets = Buckets::default();
            buckets.push(&[Value::int(1), odd.clone()], 0);
            assert!(matches!(buckets, Buckets::Generic(_)));
            assert_eq!(filed(&mut buckets, &[Value::int(1), odd]), Some(&[0][..]));
        }
    }

    /// An `Ints` map given a key holding a `Str` or `Null` migrates once to
    /// `Generic`, keeping every bucket and its ascending handles.
    #[test]
    fn a_key_that_does_not_fit_migrates_inline_keys_to_generic() {
        for odd in [Value::str("x"), Value::Null] {
            let mut buckets = Buckets::default();
            for handle in 0..6u64 {
                buckets.push(&ints(&[handle as i64 % 2, 0, 9]), handle);
            }
            assert!(matches!(buckets, Buckets::Ints { arity: 3, .. }));
            let odd_key = [Value::int(0), odd, Value::int(9)];
            buckets.push(&odd_key, 6);
            assert!(matches!(buckets, Buckets::Generic(_)));
            buckets.push(&ints(&[1, 0, 9]), 7);
            assert_eq!(filed(&mut buckets, &ints(&[0, 0, 9])), Some(&[0, 2, 4][..]));
            assert_eq!(
                filed(&mut buckets, &ints(&[1, 0, 9])),
                Some(&[1, 3, 5, 7][..])
            );
            assert_eq!(filed(&mut buckets, &odd_key), Some(&[6][..]));
            assert_eq!(buckets.len(), 3);
        }
    }

    /// `sweep` drops the dead handles of an `Ints` map and the buckets they
    /// empty, and `renumber` maps the rest, keeping the inline keying.
    #[test]
    fn sweep_and_renumber_reclaim_inline_keyed_buckets() {
        let mut buckets = Buckets::default();
        for handle in 0..8u64 {
            buckets.push(&ints(&[handle as i64 % 4, -1, 2, 7]), handle);
        }
        assert_eq!(buckets.len(), 4);
        buckets.renumber(|handle| (handle % 4 != 0 && handle != 5).then_some(handle));
        assert_eq!(buckets.len(), 3);
        assert_eq!(filed(&mut buckets, &ints(&[0, -1, 2, 7])), None);
        assert_eq!(filed(&mut buckets, &ints(&[1, -1, 2, 7])), Some(&[1][..]));
        assert_eq!(
            filed(&mut buckets, &ints(&[2, -1, 2, 7])),
            Some(&[2, 6][..])
        );
        buckets.renumber(|handle| (handle != 1).then_some(handle + 100));
        assert_eq!(buckets.len(), 2);
        assert_eq!(filed(&mut buckets, &ints(&[1, -1, 2, 7])), None);
        assert_eq!(
            filed(&mut buckets, &ints(&[2, -1, 2, 7])),
            Some(&[102, 106][..])
        );
        assert!(matches!(buckets, Buckets::Ints { arity: 4, .. }));
    }

    #[test]
    fn checkpoint_round_trips_entries_and_expiry() {
        let w = Window::new(Duration::from_secs(10));
        let spec = ab_spec();
        let mut s = OperatorState::new("S_B");
        for i in 0..6u64 {
            s.insert(
                keyed(1, i, i * 1_000, (i % 2) as i64),
                Timestamp::from_millis(i * 1_000),
            );
        }
        let drained = drain_scan(&mut s, |e| e.tuple.parts()[0].seq == 2);
        s.restore(drained.into_iter().next().unwrap());
        let blob = s.checkpoint();

        let mut r = OperatorState::new("S_B");
        r.restore_checkpoint(&blob).unwrap();
        assert_eq!(r.len(), s.len());
        assert_eq!(r.size_bytes(), s.size_bytes());
        let seqs = |state: &OperatorState| -> Vec<u64> {
            state.iter().map(|e| e.tuple.parts()[0].seq).collect()
        };
        assert_eq!(seqs(&r), seqs(&s));
        // Purge and probe behave identically after the restore.
        assert_eq!(
            r.purge(w, Timestamp::from_millis(12_000)),
            s.purge(w, Timestamp::from_millis(12_000))
        );
        // Handles are state-local (the drain/restore in `s` renumbered one
        // entry), so compare the probed tuples, not the raw handles.
        let probe = keyed(0, 0, 12_000, 0);
        let probed = |state: &mut OperatorState| -> Vec<jit_types::TupleKey> {
            let hits = state.probe(&spec, &probe);
            hits.iter()
                .filter_map(|&h| state.get(h).map(|e| e.tuple.key()))
                .collect()
        };
        assert_eq!(probed(&mut r), probed(&mut s));

        // A checkpoint for a differently named state is rejected.
        let mut wrong = OperatorState::new("S_A");
        assert!(wrong.restore_checkpoint(&blob).is_err());
    }

    #[test]
    fn hashed_and_scan_agree_on_candidate_matches() {
        let preds = PredicateSet::clique(2);
        let spec = JoinKeySpec::between(
            &preds,
            SourceSet::single(SourceId(1)),
            SourceSet::single(SourceId(0)),
        );
        let mut hashed = OperatorState::new("H");
        let mut scan = OperatorState::with_index_mode("S", StateIndexMode::Scan);
        for i in 0..50u64 {
            let t = keyed(1, i, i * 7, (i % 5) as i64);
            hashed.insert(t.clone(), Timestamp::from_millis(i * 7));
            scan.insert(t, Timestamp::from_millis(i * 7));
        }
        for key in 0..6i64 {
            let probe = keyed(0, 0, 400, key);
            let matching = |state: &mut OperatorState| -> Vec<jit_types::TupleKey> {
                let hits = state.probe(&spec, &probe);
                hits.iter()
                    .filter_map(|&h| state.get(h).map(|e| &e.tuple))
                    .filter(|t| preds.matches(&probe, t))
                    .map(|t| t.key())
                    .collect()
            };
            assert_eq!(matching(&mut hashed), matching(&mut scan), "key {key}");
        }
    }
    /// `drain_matching` through the hash index against the same drain
    /// under `Scan`, on random states: composite tuples, tuples missing a
    /// key column (overflow), repeated key values, and drains interleaved
    /// with purges, restores and compactions.
    mod drain_model {
        use super::*;
        use proptest::prelude::*;
        use proptest::rand::{rngs::StdRng, Rng, SeedableRng};

        fn base(source: u16, seq: u64, ts_ms: u64, vals: [i64; 2]) -> Tuple {
            Tuple::from_base(Arc::new(BaseTuple::new(
                SourceId(source),
                seq,
                Timestamp::from_millis(ts_ms),
                vals.iter().map(|&v| Value::int(v)).collect(),
            )))
        }

        fn keys(entries: &[StoredTuple]) -> Vec<(jit_types::TupleKey, u64)> {
            let key = |e: &StoredTuple| (e.tuple.key(), e.stamp);
            entries.iter().map(key).collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

            #[test]
            fn hashed_drain_equals_scan_drain(seed in 0u64..1_000_000) {
                let mut rng = StdRng::seed_from_u64(seed);
                let window = Window::new(Duration::from_secs(30));
                let col = |c: u16| ColumnRef::new(SourceId(0), c);
                let drain_specs = [
                    JoinKeySpec::on_columns(&[col(1)]),
                    JoinKeySpec::on_columns(&[col(0), col(1)]),
                    JoinKeySpec::on_columns(&[]),
                ];
                // S_A probed from B on A.x0 = B.x0, as the join itself does.
                let probe_spec = JoinKeySpec::between(
                    &PredicateSet::clique(2),
                    SourceSet::single(SourceId(0)),
                    SourceSet::single(SourceId(1)),
                );
                let mut hashed = OperatorState::new("S");
                let mut scan = OperatorState::with_index_mode("S", StateIndexMode::Scan);
                let mut parked: Vec<StoredTuple> = Vec::new();
                let (mut now_ms, mut seq, mut compactions) = (0u64, 0u64, 0usize);
                for step in 0..900 {
                    now_ms += rng.gen_range(0u64..400);
                    let now = Timestamp::from_millis(now_ms);
                    let issued = hashed.slots.end();
                    match rng.gen_range(0u32..100) {
                        0..=54 => {
                            seq += 1;
                            let vals = [rng.gen_range(0i64..5), rng.gen_range(0i64..4)];
                            let tuple = match rng.gen_range(0u32..10) {
                                // No source-0 component: overflow in every drain index.
                                0 => base(2, seq, now_ms, vals),
                                1..=3 => base(0, seq, now_ms, vals)
                                    .join(&base(1, seq, now_ms, [0, 0]))
                                    .expect("disjoint sources"),
                                _ => base(0, seq, now_ms, vals),
                            };
                            hashed.insert(tuple.clone(), now);
                            scan.insert(tuple, now);
                        }
                        55..=74 => {
                            let spec = &drain_specs[rng.gen_range(0..drain_specs.len())];
                            // A source-2 "MNS" cannot form the key: scan fallback.
                            let source = if rng.gen_bool(0.1) { 2 } else { 0 };
                            let mns = base(source, 0, now_ms, [rng.gen_range(0i64..5), rng.gen_range(0i64..4)]);
                            let residue = rng.gen_range(0u64..3);
                            // Accepts only entries carrying the MNS's values on
                            // the spec's columns, or unable to (overflow).
                            let pred = |e: &StoredTuple| {
                                let carries = spec.stored_key(&e.tuple).is_none_or(|k| Some(k) == spec.probe_key(&mns));
                                carries && e.tuple.parts()[0].seq % 3 != residue
                            };
                            let got = hashed.drain_matching(spec, &mns, pred);
                            let want = scan.drain_matching(spec, &mns, pred);
                            assert_eq!(keys(&got), keys(&want), "step {step}: drained");
                            parked.extend(got);
                        }
                        75..=84 => {
                            // Restore some parked entries (original timestamps:
                            // out-of-order expiry pushes).
                            for entry in parked.drain(..).filter(|_| rng.gen_bool(0.6)).collect::<Vec<_>>() {
                                hashed.restore(entry.clone());
                                scan.restore(entry);
                            }
                        }
                        _ => {
                            let mut gone = (Vec::new(), Vec::new());
                            let removed = hashed.purge_with(window, now, |t| gone.0.push(t.key()));
                            assert_eq!(removed, scan.purge_with(window, now, |t| gone.1.push(t.key())));
                            assert_eq!(gone.0, gone.1, "step {step}: purged");
                            assert_eq!(gone.0.len(), removed);
                        }
                    }
                    compactions += usize::from(!hashed.is_empty() && hashed.slots.base() >= issued);
                    assert_eq!(hashed.len(), scan.len(), "step {step}");
                    assert_eq!(hashed.size_bytes(), scan.size_bytes(), "step {step}");
                    let stored = |s: &OperatorState| keys(&s.iter().cloned().collect::<Vec<_>>());
                    assert_eq!(stored(&hashed), stored(&scan), "step {step}: contents");
                    // Later probes agree on the matches they surface.
                    let b = base(1, 0, now_ms, [rng.gen_range(0i64..5), 0]);
                    let matches = |s: &mut OperatorState| -> Vec<jit_types::TupleKey> {
                        let hits = s.probe(&probe_spec, &b);
                        let carried = |t: &&Tuple| t.value(col(0)).is_none_or(|v| Some(v) == b.value(ColumnRef::new(SourceId(1), 0)));
                        hits.iter().filter_map(|&h| s.get(h).map(|e| &e.tuple)).filter(carried).map(Tuple::key).collect()
                    };
                    assert_eq!(matches(&mut hashed), matches(&mut scan), "step {step}: probe");
                }
                assert!(compactions > 0, "the sequence must cross a compaction");
                assert!(hashed.num_indexes() >= 3, "drain and probe specs each built an index");
            }
        }
    }

    /// [`OperatorState::probe_union_into`] against [`OperatorState::probe_into`]
    /// with the union spec, on random states: the clique of four sources,
    /// `D` stored and probed by `ABC` composites through one spec per probe
    /// source. Stored tuples and probes of random arity lack key columns
    /// (overflow, scan fallback), and probes interleave with purges, drains
    /// and restores; every subset's union answered from the hits must equal
    /// a probe with that subset's spec, handle for handle.
    mod union_model {
        use super::*;
        use proptest::prelude::*;
        use proptest::rand::{rngs::StdRng, Rng, SeedableRng};

        fn part(rng: &mut StdRng, source: u16, seq: u64, ts_ms: u64) -> Tuple {
            let arity = if rng.gen_bool(0.15) {
                rng.gen_range(1..3)
            } else {
                3
            };
            let values = (0..arity)
                .map(|_| match rng.gen_range(0u32..30) {
                    0 => Value::Null,
                    1 => Value::str("k"),
                    _ => Value::int(rng.gen_range(0i64..3)),
                })
                .collect();
            Tuple::from_base(Arc::new(BaseTuple::new(
                SourceId(source),
                seq,
                Timestamp::from_millis(ts_ms),
                values,
            )))
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

            #[test]
            fn union_probe_equals_the_union_spec_probe(seed in 0u64..1_000_000) {
                let mut rng = StdRng::seed_from_u64(seed);
                let predicates = PredicateSet::clique(4);
                let stored = SourceSet::single(SourceId(3));
                let sources = [0u16, 1, 2].map(SourceId);
                let specs = sources.map(|s| JoinKeySpec::between(&predicates, stored, SourceSet::single(s)));
                let spec_of = |members: u64| {
                    let probe = sources
                        .iter()
                        .enumerate()
                        .filter(|&(i, _)| members >> i & 1 == 1)
                        .fold(SourceSet::EMPTY, |set, (_, &s)| set.union(SourceSet::single(s)));
                    JoinKeySpec::between(&predicates, stored, probe)
                };
                let window = Window::new(Duration::from_secs(20));
                let mut hashed = OperatorState::new("S_D");
                let mut scan = OperatorState::with_index_mode("S_D", StateIndexMode::Scan);
                let mut parked = Vec::new();
                let (mut hits, mut got, mut want) = (SpecHits::default(), Vec::new(), Vec::new());
                let (mut now_ms, mut unkeyed, mut spilled) = (0u64, 0usize, 0usize);
                for seq in 0..600u64 {
                    now_ms += rng.gen_range(0u64..300);
                    let now = Timestamp::from_millis(now_ms);
                    match rng.gen_range(0u32..100) {
                        0..=44 => {
                            let tuple = part(&mut rng, 3, seq, now_ms);
                            hashed.insert(tuple.clone(), now);
                            scan.insert(tuple, now);
                        }
                        45..=49 => {
                            let residue = rng.gen_range(0u64..4);
                            let pick = |e: &StoredTuple| e.tuple.parts()[0].seq % 4 == residue;
                            let empty = JoinKeySpec::on_columns(&[]);
                            parked.extend(hashed.drain_matching(&empty, &Tuple::empty(), pick));
                            scan.drain_matching(&empty, &Tuple::empty(), pick);
                        }
                        50..=54 => {
                            for entry in parked.drain(..) {
                                hashed.restore(StoredTuple::clone(&entry));
                                scan.restore(entry);
                            }
                        }
                        55..=59 => {
                            hashed.purge(window, now);
                            scan.purge(window, now);
                        }
                        _ => {
                            let probe = sources
                                .iter()
                                .map(|s| part(&mut rng, s.0, seq, now_ms))
                                .reduce(|a, b| a.join(&b).expect("disjoint sources"))
                                .expect("three parts");
                            hashed.probe_union_into(&specs, &probe, &mut hits, &mut got);
                            hashed.probe_into(&spec_of(0b111), &probe, &mut want);
                            prop_assert_eq!(&got, &want, "step {}: the full union", seq);
                            unkeyed += usize::from(hits.unkeyed != 0);
                            spilled += usize::from(hits.overflows.iter().any(|o| !o.is_empty()));
                            for members in 1..=0b111u64 {
                                hits.union_into(members, &mut got);
                                hashed.probe_into(&spec_of(members), &probe, &mut want);
                                prop_assert_eq!(&got, &want, "step {}: members {:b}", seq, members);
                            }
                            // A state that scans answers every union with every live handle.
                            scan.probe_union_into(&specs, &probe, &mut hits, &mut got);
                            scan.probe_into(&spec_of(0b111), &probe, &mut want);
                            prop_assert_eq!(&got, &want, "step {}: scan", seq);
                        }
                    }
                }
                prop_assert!(unkeyed > 0 && spilled > 0, "probes must cover the fallbacks");
            }
        }
    }

    /// A [`HashIndex`] against a brute-force filter over its live entries,
    /// for random key arities and values: whatever map the keys land in and
    /// whenever it migrates, a probe returns exactly the live entries filed
    /// under its key or in the overflow list, ascending.
    mod key_model {
        use super::*;
        use proptest::prelude::*;
        use proptest::rand::{rngs::StdRng, Rng, SeedableRng};

        proptest! {
            #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

            #[test]
            fn live_candidates_equal_a_filter_over_live_entries(seed in 0u64..1_000_000) {
                let mut rng = StdRng::seed_from_u64(seed);
                let columns: Vec<ColumnRef> =
                    (0..rng.gen_range(1u16..=6)).map(|c| ColumnRef::new(SourceId(0), c)).collect();
                let spec = JoinKeySpec::on_columns(&columns);
                // Before this step every value is an integer: some runs stay
                // inline, some migrate a populated map, some start generic.
                let mixed_from = rng.gen_range(0u64..600);
                let value = |rng: &mut StdRng, step: u64| match rng.gen_range(0u32..20) {
                    0 if step >= mixed_from => Value::str(["a", "b"][rng.gen_range(0usize..2)]),
                    1 if step >= mixed_from => Value::Null,
                    _ => Value::int(rng.gen_range(-1i64..3)),
                };
                let row = |rng: &mut StdRng, source: u16, step: u64| {
                    let values = (0..6).map(|_| value(rng, step)).collect();
                    Tuple::from_base(Arc::new(BaseTuple::new(SourceId(source), step, Timestamp::ZERO, values)))
                };
                let mut index = HashIndex::default();
                let mut entries: Vec<(Tuple, bool)> = Vec::new();
                let (mut scratch, mut key, mut got) = (Vec::new(), Vec::new(), Vec::new());
                for step in 0..400u64 {
                    match rng.gen_range(0u32..100) {
                        0..=49 => {
                            // A source-1 row lacks the key columns: overflow.
                            let source = u16::from(rng.gen_bool(0.1));
                            let tuple = row(&mut rng, source, step);
                            index.file_with(&spec, &tuple, entries.len() as u64, &mut scratch);
                            entries.push((tuple, true));
                        }
                        50..=69 if !entries.is_empty() => {
                            let at = rng.gen_range(0..entries.len());
                            entries[at].1 = false;
                        }
                        70..=72 => index.sweep(|h| entries[h as usize].1),
                        _ => {
                            let probe = row(&mut rng, 0, step);
                            prop_assert!(spec.probe_key_into(&probe, &mut key));
                            got.clear();
                            index.live_candidates_into(&key, |h| entries[h as usize].1, &mut got);
                            let want: Vec<u64> = (0..entries.len() as u64)
                                .filter(|&h| {
                                    let (tuple, live) = &entries[h as usize];
                                    *live && spec.stored_key(tuple).is_none_or(|k| k == key)
                                })
                                .collect();
                            prop_assert_eq!(&got, &want, "step {} key {:?}", step, key);
                        }
                    }
                }
            }
        }
    }

    /// The [`Slab`] against a `BTreeMap` model on random sequences of push
    /// (some entries queue no expiry, as Ø does), take, due-pop, reclaim
    /// (front trim, sweep or compaction) and clear: handles ascend and are
    /// never reused, across compactions and clears; `is_live` agrees with
    /// the model on every handle ever issued; and a due-pop returns exactly
    /// the model's live due handles, in `(expiry, handle)` order.
    mod slab_model {
        use super::*;
        use proptest::prelude::*;
        use proptest::rand::{rngs::StdRng, Rng, SeedableRng};
        use std::collections::BTreeMap;

        /// What the model holds per live handle: its payload and, until a
        /// due-pop yields it, its expiry key.
        type Model = BTreeMap<u64, (u64, Option<Timestamp>)>;

        proptest! {
            #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

            #[test]
            fn slab_matches_a_btreemap_model(seed in 0u64..1_000_000) {
                let mut rng = StdRng::seed_from_u64(seed);
                let window = Window::new(Duration::from_millis(400));
                let mut slab: Slab<u64> = Slab::default();
                let mut model = Model::new();
                let (mut issued, mut due) = (Vec::new(), Vec::new());
                let (mut now_ms, mut next_handle, mut payload) = (0u64, 0u64, 0u64);
                let (mut compactions, mut clears, mut popped) = (0usize, 0usize, 0usize);
                for step in 0..800 {
                    now_ms += rng.gen_range(0u64..40);
                    let now = Timestamp::from_millis(now_ms);
                    let op = if step % 300 == 299 { 100 } else { rng.gen_range(0u32..100) };
                    match op {
                        0..=44 => {
                            // Timestamps jitter backwards, so pushes land
                            // behind the queue's tail.
                            let ts = now_ms.saturating_sub(rng.gen_range(0u64..300));
                            let handle = slab.end();
                            prop_assert!(handle >= next_handle, "step {}: handle {} reused", step, handle);
                            let key = rng.gen_bool(0.9).then(|| {
                                let tuple = Tuple::from_base(Arc::new(BaseTuple::new(
                                    SourceId(0), payload, Timestamp::from_millis(ts), Vec::new(),
                                )));
                                slab.expire_with(handle, &tuple);
                                Window::INSTANT.expires_at(&tuple)
                            });
                            prop_assert_eq!(slab.push(payload), handle);
                            model.insert(handle, (payload, key));
                            issued.push(handle);
                            next_handle = handle + 1;
                            payload += 1;
                        }
                        45..=64 if !issued.is_empty() => {
                            // Mostly a live handle, else any handle ever
                            // issued: taken, trimmed or renumbered away.
                            let live: Vec<u64> = model.keys().copied().collect();
                            let handle = if !live.is_empty() && rng.gen_bool(0.7) {
                                live[rng.gen_range(0..live.len())]
                            } else {
                                issued[rng.gen_range(0..issued.len())]
                            };
                            let want = model.remove(&handle).map(|(payload, _)| payload);
                            prop_assert_eq!(slab.take(handle), want, "step {}: take {}", step, handle);
                        }
                        65..=79 => {
                            due.clear();
                            due.extend(std::iter::from_fn(|| slab.pop_due(window, now)));
                            let mut want: Vec<(Timestamp, u64)> = model
                                .iter()
                                .filter_map(|(&h, &(_, key))| Some((key?, h)))
                                .filter(|&(key, _)| window.is_expired(key, now))
                                .collect();
                            want.sort_unstable();
                            let want: Vec<u64> = want.into_iter().map(|(_, h)| h).collect();
                            prop_assert_eq!(&due, &want, "step {}: due at {}", step, now_ms);
                            popped += due.len();
                            for h in &due {
                                if let Some(entry) = model.get_mut(h) {
                                    entry.1 = None;
                                }
                            }
                            // An owner usually takes what fell due.
                            for &h in due.iter().filter(|_| rng.gen_bool(0.8)) {
                                prop_assert!(slab.take(h).is_some());
                                model.remove(&h);
                            }
                        }
                        80..=99 => {
                            let end = slab.end();
                            let mut mapped: Option<Vec<(u64, Option<u64>)>> = None;
                            slab.reclaim(|to| mapped = Some(issued.iter().map(|&h| (h, to(h))).collect()));
                            if let Some(mapped) = mapped {
                                // Exactly the live handles map, in order: onto
                                // themselves (a sweep) or onto fresh handles
                                // from the old end on (a compaction).
                                for &(h, to) in &mapped {
                                    prop_assert_eq!(to.is_some(), model.contains_key(&h), "step {}: {}", step, h);
                                }
                                let to: BTreeMap<u64, u64> = mapped.into_iter().filter_map(|(h, to)| Some((h, to?))).collect();
                                let moved = std::mem::take(&mut model).into_iter();
                                model = moved.map(|(h, entry)| (to[&h], entry)).collect();
                                if slab.base() == end && !model.is_empty() {
                                    compactions += 1;
                                    prop_assert!(model.keys().copied().eq(end..end + model.len() as u64));
                                    issued.extend(model.keys().copied());
                                } else {
                                    prop_assert!(to.iter().all(|(h, to)| h == to), "step {}: a sweep moved a handle", step);
                                }
                            }
                            // The front is trimmed, and the queue's front is the
                            // earliest queued live entry.
                            let first = model.keys().next().copied();
                            prop_assert_eq!(slab.base(), first.unwrap_or(slab.end()), "step {}: front", step);
                            let earliest = model.values().filter_map(|&(_, key)| key).min();
                            prop_assert_eq!(slab.next_expiry(), earliest, "step {}: queue front", step);
                        }
                        _ => {
                            let end = slab.end();
                            slab.clear();
                            model.clear();
                            prop_assert_eq!(slab.base(), end);
                            prop_assert_eq!(slab.next_expiry(), None);
                            clears += 1;
                        }
                    }
                    prop_assert_eq!(slab.len(), model.len(), "step {}", step);
                    for &h in &issued {
                        prop_assert_eq!(slab.is_live(h), model.contains_key(&h), "step {}: is_live({})", step, h);
                    }
                    let stored: Vec<(u64, u64)> = slab.handles().map(|(h, &p)| (h, p)).collect();
                    let modelled: Vec<(u64, u64)> = model.iter().map(|(&h, &(p, _))| (h, p)).collect();
                    prop_assert_eq!(stored, modelled, "step {}: entries in handle order", step);
                }
                prop_assert!(compactions > 0 && clears > 0 && popped > 0, "the sequence must compact, clear and pop");
            }
        }
    }
}
