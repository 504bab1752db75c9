//! Analytical memory accounting.
//!
//! Figures 10b–17b of the paper plot *peak memory consumption*. In this
//! reproduction every container that stores tuples — operator states,
//! inter-operator queues, MNS buffers, blacklists — registers itself with the
//! [`MemoryTracker`] and reports its current size whenever it changes. The
//! tracker maintains the global running total and its maximum over the run.
//!
//! This measures exactly the quantity the paper's argument is about (bytes
//! spent storing tuples and intermediate results), without allocator noise.

use serde::{Deserialize, Serialize};

/// Handle identifying one registered memory component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MemComponentId(pub(crate) usize);

/// Per-component byte accounting with global peak tracking.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct MemoryTracker {
    names: Vec<String>,
    sizes: Vec<usize>,
    current_total: usize,
    peak_total: usize,
}

impl MemoryTracker {
    /// Register a component (e.g. `"state S_AB"`); returns its handle.
    pub(crate) fn register(&mut self, name: impl Into<String>) -> MemComponentId {
        self.names.push(name.into());
        self.sizes.push(0);
        MemComponentId(self.sizes.len() - 1)
    }

    /// Set the current size of a component in bytes.
    pub fn set(&mut self, id: MemComponentId, bytes: usize) {
        let slot = &mut self.sizes[id.0];
        self.current_total = self.current_total - *slot + bytes;
        *slot = bytes;
        if self.current_total > self.peak_total {
            self.peak_total = self.current_total;
        }
    }

    /// Current size of one component.
    #[cfg(test)]
    fn component_bytes(&self, id: MemComponentId) -> usize {
        self.sizes[id.0]
    }

    /// Name of one component.
    #[cfg(test)]
    fn component_name(&self, id: MemComponentId) -> &str {
        &self.names[id.0]
    }

    /// Number of registered components.
    #[cfg(test)]
    fn num_components(&self) -> usize {
        self.sizes.len()
    }

    /// Current total across all components.
    pub fn current_bytes(&self) -> usize {
        self.current_total
    }

    /// Peak total observed since construction.
    pub fn peak_bytes(&self) -> usize {
        self.peak_total
    }

    /// Peak total in kilobytes (the unit used by the paper's plots).
    #[cfg(test)]
    fn peak_kb(&self) -> f64 {
        self.peak_total as f64 / 1024.0
    }

    /// A breakdown of current usage as `(name, bytes)` pairs, largest first.
    #[cfg(test)]
    fn breakdown(&self) -> Vec<(String, usize)> {
        let mut v: Vec<(String, usize)> = self
            .names
            .iter()
            .cloned()
            .zip(self.sizes.iter().copied())
            .collect();
        v.sort_by_key(|entry| std::cmp::Reverse(entry.1));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_set() {
        let mut m = MemoryTracker::default();
        let a = m.register("state A");
        let b = m.register("queue AB");
        assert_eq!(m.num_components(), 2);
        m.set(a, 100);
        m.set(b, 50);
        assert_eq!(m.current_bytes(), 150);
        assert_eq!(m.component_bytes(a), 100);
        assert_eq!(m.component_name(b), "queue AB");
    }

    #[test]
    fn peak_is_maximum_of_totals() {
        let mut m = MemoryTracker::default();
        let a = m.register("a");
        let b = m.register("b");
        m.set(a, 100);
        m.set(b, 200); // total 300
        m.set(a, 10); // total 210
        m.set(b, 20); // total 30
        assert_eq!(m.current_bytes(), 30);
        assert_eq!(m.peak_bytes(), 300);
        assert!((m.peak_kb() - 300.0 / 1024.0).abs() < 1e-9);
    }

    #[test]
    fn shrinking_does_not_move_peak() {
        let mut m = MemoryTracker::default();
        let a = m.register("a");
        m.set(a, 500);
        m.set(a, 0);
        m.set(a, 100);
        assert_eq!(m.peak_bytes(), 500);
    }

    #[test]
    fn breakdown_sorted_by_size() {
        let mut m = MemoryTracker::default();
        let a = m.register("small");
        let b = m.register("big");
        m.set(a, 1);
        m.set(b, 10);
        let bd = m.breakdown();
        assert_eq!(bd[0].0, "big");
        assert_eq!(bd[1], ("small".to_string(), 1));
    }

    #[test]
    fn total_is_sum_of_components_invariant() {
        // mirror of the accounting invariant tested at system level
        let mut m = MemoryTracker::default();
        let ids: Vec<_> = (0..5).map(|i| m.register(format!("c{i}"))).collect();
        for (i, id) in ids.iter().enumerate() {
            m.set(*id, i * 11);
        }
        let sum: usize = ids.iter().map(|id| m.component_bytes(*id)).sum();
        assert_eq!(sum, m.current_bytes());
    }
}
