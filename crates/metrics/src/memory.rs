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

/// Handle identifying one registered memory component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemComponentId(pub(crate) usize);

/// Per-component byte accounting with global peak tracking.
#[derive(Debug, Default, Clone)]
pub struct MemoryTracker {
    sizes: Vec<usize>,
    current_total: usize,
    peak_total: usize,
}

impl MemoryTracker {
    /// Register a component (an operator state, the queues); returns its
    /// handle.
    pub(crate) fn register(&mut self) -> MemComponentId {
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

    /// Current total across all components.
    pub fn current_bytes(&self) -> usize {
        self.current_total
    }

    /// Peak total observed since construction.
    pub fn peak_bytes(&self) -> usize {
        self.peak_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_set() {
        let mut m = MemoryTracker::default();
        let a = m.register();
        let b = m.register();
        assert_ne!(a, b);
        m.set(a, 100);
        m.set(b, 50);
        assert_eq!(m.current_bytes(), 150);
        // Setting a component replaces its size rather than adding to it.
        m.set(a, 70);
        assert_eq!(m.current_bytes(), 120);
    }

    #[test]
    fn peak_is_maximum_of_totals() {
        let mut m = MemoryTracker::default();
        let a = m.register();
        let b = m.register();
        m.set(a, 100);
        m.set(b, 200); // total 300
        m.set(a, 10); // total 210
        m.set(b, 20); // total 30
        assert_eq!(m.current_bytes(), 30);
        assert_eq!(m.peak_bytes(), 300);
    }

    #[test]
    fn shrinking_does_not_move_peak() {
        let mut m = MemoryTracker::default();
        let a = m.register();
        m.set(a, 500);
        m.set(a, 0);
        m.set(a, 100);
        assert_eq!(m.peak_bytes(), 500);
    }

    #[test]
    fn total_is_sum_of_components_invariant() {
        // Mirror of the accounting invariant tested at system level: after
        // any sequence of updates the total is the sum of each component's
        // latest size, and the peak the largest total seen after an update.
        let mut m = MemoryTracker::default();
        let ids: Vec<_> = (0..5).map(|_| m.register()).collect();
        let mut sizes = [0usize; 5];
        let mut peak = 0;
        for step in 0..40usize {
            let i = step * 7 % 5;
            sizes[i] = step * 13 % 29;
            m.set(ids[i], sizes[i]);
            peak = peak.max(sizes.iter().sum());
            assert_eq!(m.current_bytes(), sizes.iter().sum::<usize>());
            assert_eq!(m.peak_bytes(), peak);
        }
    }
}
