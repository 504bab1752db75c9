//! Counting global allocator: live and peak heap bytes of one armed interval.
//!
//! The allocator forwards to [`System`] and, while armed, keeps two relaxed
//! atomics — the bytes live since arming and their running maximum. It is
//! armed only around the heap replay and the traced replay, so every timed
//! phase pays one relaxed load per allocation and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering::Relaxed};

static ARMED: AtomicBool = AtomicBool::new(false);
/// Signed: memory allocated before arming may be freed while armed.
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

/// The process-wide allocator installed by the bin.
pub struct CountingAlloc;

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes as isize, Relaxed) + bytes as isize;
    PEAK.fetch_max(live, Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as isize, Relaxed);
}

// SAFETY: every method forwards the caller's pointer and layout unchanged to
// `System`, which upholds the `GlobalAlloc` contract; the counters are plain
// statistics and never influence what is returned.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is the caller's, passed through unchanged.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() && ARMED.load(Relaxed) {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is the caller's, passed through unchanged.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() && ARMED.load(Relaxed) {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator with
        // `layout`, and this allocator only ever hands out `System` blocks.
        unsafe { System.dealloc(ptr, layout) };
        if ARMED.load(Relaxed) {
            shrink(layout.size());
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: same block, same layout, caller-checked `new_size`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() && ARMED.load(Relaxed) {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        new
    }
}

/// Start counting from zero: the heap as it stands now is the baseline.
pub fn arm() {
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ARMED.store(true, Relaxed);
}

/// Stop counting and return the peak live bytes above the baseline.
pub fn disarm() -> u64 {
    ARMED.store(false, Relaxed);
    PEAK.load(Relaxed).max(0) as u64
}
