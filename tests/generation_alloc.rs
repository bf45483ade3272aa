//! Pins trace generation's allocation budget at the allocator level:
//! generating a run allocates per run (its event vector, its site map,
//! one entry per file tag and process), never per I/O.
//!
//! Every run of the six apps' full Table 1 traces at seed 42 must stay
//! within [`BUDGET`] allocations. The longest runs issue about 16k I/Os,
//! so a single allocation per I/O — a formatted site name, an owned map
//! key — overshoots the budget by more than an order of magnitude.

use pcap_dpm::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The system allocator with an allocation-call counter in front.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates allocation verbatim to `System`; the counter is a
// relaxed atomic increment with no other side effect.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Most allocations (including reallocations) one generated run may
/// perform.
const BUDGET: u64 = 512;

/// One test function: the counter is process-global, so concurrent
/// test threads would see each other's allocations.
#[test]
fn generation_allocates_per_run_not_per_io() {
    let mut over = Vec::new();
    for app in PaperApp::ALL {
        let spec = app.spec();
        // (allocations, run index, events) of the run that allocated most.
        let mut worst = (0, 0, 0);
        for run in 0..spec.executions() {
            let before = ALLOCS.load(Ordering::Relaxed);
            let generated = spec.generate_run(42, run).expect("valid spec");
            let allocs = ALLOCS.load(Ordering::Relaxed) - before;
            if allocs > worst.0 {
                worst = (allocs, run, generated.events.len());
            }
            drop(generated);
        }
        let (allocs, run, events) = worst;
        assert!(
            allocs > 0,
            "{app:?}: the counting allocator must see generation allocate"
        );
        if allocs > BUDGET {
            over.push(format!(
                "{app:?} run {run} ({events} events): {allocs} allocations"
            ));
        }
    }
    assert!(
        over.is_empty(),
        "over the per-run budget of {BUDGET}: {}",
        over.join("; ")
    );
}
