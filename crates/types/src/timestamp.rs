//! The sliding-window time model.
//!
//! Following Section II of the paper, every tuple `t` carries a timestamp
//! `t.ts` and, under a global window of length `w`, is *alive* during
//! `[t.ts, t.ts + w)`. Two tuples `t`, `t'` may join only if
//! `|t.ts − t'.ts| ≤ w`, and a join result's timestamp is the maximum of its
//! components' timestamps.
//!
//! Timestamps are integer milliseconds of *application time* (the simulated
//! clock driven by the arrival trace), not wall-clock time.
//!
//! [`ExpiryQueue`] is the one timestamp-ordered container the workspace
//! keeps: window states, JIT's MNS buffers and blacklists expire through it,
//! and the bounded-disorder reorder stage releases through it.

use crate::tuple::Tuple;
use serde::{Deserialize, Serialize};
use std::collections::vec_deque::Drain;
use std::collections::VecDeque;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in application time, in milliseconds since the start of the run.
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct Timestamp(pub u64);

/// A span of application time, in milliseconds.
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct Duration(pub u64);

impl Timestamp {
    /// The origin of application time.
    pub const ZERO: Timestamp = Timestamp(0);

    /// Construct from raw milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        Timestamp(ms)
    }

    /// Construct from whole seconds.
    pub fn from_secs(secs: u64) -> Self {
        Timestamp(secs * 1_000)
    }

    /// Raw millisecond representation.
    pub fn as_millis(self) -> u64 {
        self.0
    }

    /// Value in (fractional) seconds, for reporting.
    pub(crate) fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Saturating difference `self − other` (zero if `other` is later).
    pub fn saturating_sub(self, other: Timestamp) -> Duration {
        Duration(self.0.saturating_sub(other.0))
    }

    /// Absolute distance between two instants.
    fn abs_diff(self, other: Timestamp) -> Duration {
        Duration(self.0.abs_diff(other.0))
    }

    /// Saturating subtraction of a duration, clamping at time zero.
    pub fn saturating_sub_duration(self, d: Duration) -> Timestamp {
        Timestamp(self.0.saturating_sub(d.0))
    }
}

impl Duration {
    /// The empty duration.
    pub const ZERO: Duration = Duration(0);

    /// Construct from raw milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        Duration(ms)
    }

    /// Construct from whole seconds.
    pub fn from_secs(secs: u64) -> Self {
        Duration(secs * 1_000)
    }

    /// Construct from whole minutes (the unit Table III uses for `w`).
    pub fn from_mins(mins: u64) -> Self {
        Duration(mins * 60_000)
    }

    /// Construct from fractional minutes (Table III uses 7.5 and 12.5 min).
    pub fn from_mins_f64(mins: f64) -> Self {
        Duration((mins * 60_000.0).round() as u64)
    }

    /// Raw millisecond representation.
    pub fn as_millis(self) -> u64 {
        self.0
    }

    /// Value in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Value in (fractional) minutes.
    pub fn as_mins_f64(self) -> f64 {
        self.0 as f64 / 60_000.0
    }
}

impl Add<Duration> for Timestamp {
    type Output = Timestamp;
    fn add(self, rhs: Duration) -> Timestamp {
        Timestamp(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<Duration> for Timestamp {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = Duration;
    /// Panics in debug builds if `rhs` is later than `self`; use
    /// [`Timestamp::saturating_sub`] when the ordering is not guaranteed.
    fn sub(self, rhs: Timestamp) -> Duration {
        debug_assert!(self.0 >= rhs.0, "timestamp subtraction underflow");
        Duration(self.0 - rhs.0)
    }
}

impl Add<Duration> for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_add(rhs.0))
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

/// A sliding window of fixed length applied to every source (the paper's
/// global window `w`, clause `RANGE w` in CQL).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Window {
    /// Window length `w`.
    pub length: Duration,
}

impl Window {
    /// The zero-length window.
    pub const INSTANT: Window = Window {
        length: Duration::ZERO,
    };

    /// Create a window of the given length.
    pub fn new(length: Duration) -> Self {
        Window { length }
    }

    /// Window of `mins` minutes — the unit used throughout Section VI.
    pub fn minutes(mins: f64) -> Self {
        Window {
            length: Duration::from_mins_f64(mins),
        }
    }

    /// The instant at which `tuple` expires (it lives during `[ts, ts + w)`):
    /// every expiry decision of the window containers goes through here.
    pub fn expires_at(&self, tuple: &Tuple) -> Timestamp {
        tuple.ts() + self.length
    }

    /// Has an entry expired by `now` whose expiry under [`Window::INSTANT`]
    /// is `key`? Containers learn their window only when they purge, so they
    /// queue by that key, which every window shifts by its length.
    pub fn is_expired(&self, key: Timestamp, now: Timestamp) -> bool {
        key + self.length <= now
    }

    /// Can two tuples with the given timestamps join under this window?
    ///
    /// Section II: `t` and `t'` join only if `|t.ts − t'.ts| ≤ w`.
    pub fn can_join(&self, a: Timestamp, b: Timestamp) -> bool {
        a.abs_diff(b) <= self.length
    }
}

/// A timestamp-sorted queue exploiting near-sorted arrival order: items
/// enter in nondecreasing timestamp order almost always, so the common push
/// is an O(1) tail append and the common pop an O(1) head advance over
/// contiguous memory — where a binary heap or a B-tree paid a
/// cache-hostile sift or node split per operation. A late push
/// binary-searches its slot behind every equal timestamp, so ties leave in
/// push order; the memmove that costs is bounded by how far behind the tail
/// the item lands.
///
/// Two owners share it. The slab every window container stores its entries
/// in (`jit_exec::Slab`: MNS buffers, blacklists, and an operator state's
/// stragglers — the tuples it stores out of expiry order) queues `u64`
/// handles, keyed by [`Window::expires_at`] under [`Window::INSTANT`], and
/// skips the handles of since-removed entries when they surface; the
/// reorder stage (`jit_durable::ReorderBuffer`) queues the buffered
/// arrivals themselves and releases a watermark's worth with
/// [`ExpiryQueue::drain_through`].
#[derive(Debug, Clone)]
pub struct ExpiryQueue<T = u64> {
    /// `(timestamp, item)`, ascending by timestamp from the front; equal
    /// timestamps in push order.
    entries: VecDeque<(Timestamp, T)>,
}

impl<T> Default for ExpiryQueue<T> {
    fn default() -> Self {
        ExpiryQueue {
            entries: VecDeque::new(),
        }
    }
}

impl<T> ExpiryQueue<T> {
    /// Queue `item` to surface once everything at or before `ts` queued
    /// earlier has.
    pub fn push(&mut self, ts: Timestamp, item: T) {
        match self.entries.back() {
            Some(&(last, _)) if ts < last => {
                let idx = self.entries.partition_point(|&(t, _)| t <= ts);
                self.entries.insert(idx, (ts, item));
                debug_assert!(
                    idx.checked_sub(1)
                        .is_none_or(|before| self.entries[before].0 <= ts)
                        && self.entries[idx + 1].0 > ts,
                    "a late push must land behind its ties and before later timestamps"
                );
            }
            _ => self.entries.push_back((ts, item)),
        }
    }

    /// Remove and return the item with the earliest timestamp.
    pub fn pop(&mut self) -> Option<(Timestamp, T)> {
        self.entries.pop_front()
    }

    /// Remove every item with a timestamp at or before `ts`, front first —
    /// O(released), the scan stops at the first later timestamp. The items
    /// leave the queue even if the returned iterator is dropped unconsumed.
    pub fn drain_through(&mut self, ts: Timestamp) -> Drain<'_, (Timestamp, T)> {
        let due = self.entries.iter().take_while(|&&(t, _)| t <= ts).count();
        self.entries.drain(..due)
    }

    /// Iterate the queued items in timestamp order.
    pub fn iter(&self) -> impl Iterator<Item = (Timestamp, &T)> {
        self.entries.iter().map(|(ts, item)| (*ts, item))
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the queue empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drop every queued item.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

impl<T: Copy> ExpiryQueue<T> {
    /// The item with the earliest timestamp, if any.
    pub fn peek(&self) -> Option<(Timestamp, T)> {
        self.entries.front().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_units() {
        assert_eq!(Timestamp::from_secs(2), Timestamp::from_millis(2_000));
        assert_eq!(Duration::from_mins(5), Duration::from_millis(300_000));
        assert_eq!(Duration::from_mins_f64(7.5), Duration::from_millis(450_000));
    }

    #[test]
    fn arithmetic() {
        let t = Timestamp::from_secs(10);
        let d = Duration::from_secs(3);
        assert_eq!(t + d, Timestamp::from_secs(13));
        assert_eq!(Timestamp::from_secs(13) - t, d);
        assert_eq!(t.saturating_sub(Timestamp::from_secs(20)), Duration::ZERO);
        assert_eq!(t.abs_diff(Timestamp::from_secs(7)), Duration::from_secs(3));
        assert_eq!(
            t.saturating_sub_duration(Duration::from_secs(30)),
            Timestamp::ZERO
        );
    }

    #[test]
    fn add_assign_advances() {
        let mut t = Timestamp::ZERO;
        t += Duration::from_secs(1);
        t += Duration::from_secs(2);
        assert_eq!(t, Timestamp::from_secs(3));
    }

    #[test]
    fn window_lifespan_is_half_open() {
        let w = Window::new(Duration::from_secs(10));
        let ts = Timestamp::from_secs(100);
        // Expires exactly at ts + w.
        assert!(w.is_expired(ts, Timestamp::from_secs(110)));
        assert!(!w.is_expired(ts, Timestamp::from_secs(109)));
        let tuple = Tuple::from_base(std::sync::Arc::new(crate::BaseTuple::new(
            crate::SourceId(0),
            0,
            ts,
            Vec::new(),
        )));
        assert_eq!(w.expires_at(&tuple), Timestamp::from_secs(110));
        assert!(w.is_expired(Window::INSTANT.expires_at(&tuple), w.expires_at(&tuple)));
    }

    #[test]
    fn window_join_condition_is_symmetric_and_inclusive() {
        let w = Window::new(Duration::from_secs(5));
        let a = Timestamp::from_secs(10);
        let b = Timestamp::from_secs(15);
        let c = Timestamp::from_secs(16);
        assert!(w.can_join(a, b));
        assert!(w.can_join(b, a));
        assert!(!w.can_join(a, c));
        assert!(w.can_join(a, a));
    }

    #[test]
    fn display_is_in_seconds() {
        assert_eq!(Timestamp::from_millis(1_500).to_string(), "1.500s");
        assert_eq!(Duration::from_millis(250).to_string(), "0.250s");
    }

    #[test]
    fn minutes_window_constructor() {
        let w = Window::minutes(5.0);
        assert_eq!(w.length, Duration::from_mins(5));
        let w = Window::minutes(12.5);
        assert_eq!(w.length, Duration::from_millis(750_000));
    }

    fn ms(v: u64) -> Timestamp {
        Timestamp::from_millis(v)
    }

    fn drained<T>(queue: &mut ExpiryQueue<T>, through: u64) -> Vec<(u64, T)> {
        queue
            .drain_through(ms(through))
            .map(|(ts, item)| (ts.as_millis(), item))
            .collect()
    }

    #[test]
    fn late_pushes_land_behind_their_ties() {
        let mut queue = ExpiryQueue::default();
        for (ts, item) in [(10, 'a'), (20, 'b'), (20, 'c'), (30, 'd')] {
            queue.push(ms(ts), item);
        }
        // Late: behind both 20s, ahead of 30.
        queue.push(ms(20), 'e');
        // Late: at the very front.
        queue.push(ms(5), 'f');
        // Equal to the tail: an append.
        queue.push(ms(30), 'g');
        let order: Vec<(u64, char)> = queue.iter().map(|(ts, &c)| (ts.as_millis(), c)).collect();
        assert_eq!(
            order,
            [
                (5, 'f'),
                (10, 'a'),
                (20, 'b'),
                (20, 'c'),
                (20, 'e'),
                (30, 'd'),
                (30, 'g')
            ]
        );
        assert_eq!(queue.len(), 7);
        assert_eq!(queue.pop(), Some((ms(5), 'f')));
        assert_eq!(queue.len(), 6);
    }

    #[test]
    fn drain_through_releases_the_due_prefix_in_order() {
        let mut queue = ExpiryQueue::default();
        for (ts, item) in [(10, 1), (20, 2), (20, 3), (40, 4)] {
            queue.push(ms(ts), item);
        }
        queue.push(ms(20), 5);
        assert!(drained(&mut queue, 9).is_empty());
        assert_eq!(
            drained(&mut queue, 20),
            [(10, 1), (20, 2), (20, 3), (20, 5)]
        );
        assert_eq!(queue.peek(), Some((ms(40), 4)));
        // Dropping the iterator unconsumed still removes the items.
        drop(queue.drain_through(ms(40)));
        assert!(queue.is_empty());
        assert_eq!(queue.peek(), None);
        assert!(drained(&mut queue, u64::MAX).is_empty());
    }

    #[test]
    fn clear_empties() {
        let mut queue = ExpiryQueue::default();
        for (ts, item) in [(30, 1), (10, 9), (10, 2)] {
            queue.push(ms(ts), item);
        }
        assert_eq!(drained(&mut queue, 10), [(10, 9), (10, 2)]);
        assert_eq!(queue.len(), 1);
        queue.clear();
        assert!(queue.is_empty());
        assert_eq!(queue.pop(), None);
    }
}
