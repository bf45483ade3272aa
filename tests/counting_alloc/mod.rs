//! The allocator of the allocation tests: the system allocator behind a
//! count of allocation calls and a tally of live heap bytes with their
//! high-water mark. A test crate includes this module and installs it
//! with one line:
//!
//! ```ignore
//! #[global_allocator]
//! static GLOBAL: CountingAlloc = CountingAlloc;
//! ```
//!
//! `realloc` keeps the trait's default (allocate, copy, free), so a
//! reallocation counts as one allocation and both blocks are live
//! while the copy runs.
//!
//! The counters are process-global: a test that reads them must not
//! run next to another test of its crate.

// Each integration-test crate includes this module and uses a subset.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// The system allocator with the counters in front.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: delegates allocation verbatim to `System`; the bookkeeping is
// relaxed atomic arithmetic with no other side effect.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

/// Allocation calls so far, across every thread of the process.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Live heap bytes, across every thread of the process.
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// The allocation calls made while `f` runs, and its result.
pub fn allocs_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = allocs();
    let result = f();
    (allocs() - before, result)
}

/// Peak live heap bytes above the starting level while `f` runs, and
/// its result.
pub fn peak_during<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let base = live_bytes();
    PEAK.store(base, Ordering::Relaxed);
    let result = f();
    (PEAK.load(Ordering::Relaxed) - base, result)
}
