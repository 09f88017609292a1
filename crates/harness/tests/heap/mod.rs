//! A counting global allocator for the heap-measuring tests. Each test
//! file that uses it installs it with
//! `#[global_allocator] static ALLOC: heap::Counting = heap::Counting;`
//! and holds a single test, so no other test's allocations land in the
//! counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Live heap bytes.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The highest `LIVE` seen since the last [`reset_peak`].
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Forwards to `System`, counting live and peak bytes.
pub struct Counting;

impl Counting {
    fn grow(by: usize) {
        let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }

    fn shrink(by: usize) {
        LIVE.fetch_sub(by, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds `GlobalAlloc`'s contract; the counters only observe
// the sizes involved.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            Counting::grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            Counting::grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        Counting::shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            if new_size >= layout.size() {
                Counting::grow(new_size - layout.size());
            } else {
                Counting::shrink(layout.size() - new_size);
            }
        }
        new
    }
}

/// Live heap bytes now.
pub fn live() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// The highest live heap since the last [`reset_peak`].
#[allow(dead_code)]
pub fn peak() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Restarts peak tracking from the live heap, which it returns.
#[allow(dead_code)]
pub fn reset_peak() -> usize {
    let live = live();
    PEAK.store(live, Ordering::Relaxed);
    live
}
