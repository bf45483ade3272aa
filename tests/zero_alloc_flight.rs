//! Pins the observability hot path's zero-allocation steady state at
//! the allocator level: recording flight events, recording and reading
//! stage-histogram quantiles, and rate-gate admissions must not touch
//! the heap. The flight recorder's slots are preallocated at
//! construction and the histograms are fixed arrays of atomics whose
//! snapshots live on the stack, so a daemon under load pays only a
//! handful of atomic stores per event — any allocation on this
//! path is a regression against the ≤2% serve-overhead budget
//! (DESIGN.md §15).

use pcap_dpm::obs::log::RateGate;
use pcap_dpm::obs::{AtomicHistogram, FlightKind, FlightRecorder};
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

fn allocs_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let result = f();
    (ALLOCS.load(Ordering::Relaxed) - before, result)
}

/// One test function: the counter is process-global, so concurrent
/// test threads would see each other's allocations.
///
/// A warm-up pass first exercises every code path once (lazy statics,
/// the recorder's monotonic clock); the measured pass then records
/// thousands of events through all three primitives — including ring
/// wrap-around, histogram overflow buckets, and rate-gate window
/// rollover — and must allocate exactly nothing.
#[test]
fn observability_steady_state_allocates_nothing() {
    let flight = FlightRecorder::new(3, 256);
    let hist = AtomicHistogram::default();
    static GATE: RateGate = RateGate::new(5, 1_000);

    let warm = || {
        for i in 0..512u64 {
            let ring = (i % 3) as usize;
            flight.record(ring, FlightKind::RunEval, i, i * 3, i % 7);
            let ts = flight.now_ns();
            flight.record_at(ring, ts, FlightKind::Emit, i, 1, 2);
            hist.record(i * 17);
            std::hint::black_box(GATE.admit(i * 100));
        }
    };
    warm();

    let (allocs, ()) = allocs_during(|| {
        for i in 0..4096u64 {
            let ring = (i % 3) as usize;
            flight.record(ring, FlightKind::FrameDecode, i, i * 31, 0);
            let ts = flight.now_ns();
            flight.record_at(ring, ts, FlightKind::Enqueue, i, ring as u64, 0);
            hist.record(i * 11);
            std::hint::black_box(hist.snapshot().0.quantile(0.99));
            std::hint::black_box(GATE.admit(i * 500));
        }
    });
    assert_eq!(
        allocs, 0,
        "steady-state observability recording must not allocate"
    );

    // The events really landed: a dump after the bracket sees the full
    // ring capacity on every ring (dumping may allocate — that is the
    // cold path).
    let dump = flight.dump_jsonl();
    let stats = pcap_dpm::obs::validate_flight_dump(&dump).expect("dump validates");
    assert_eq!(stats.rings, 3);
    assert_eq!(stats.events, 3 * 256, "every ring dumps at capacity");
}
