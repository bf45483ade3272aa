//! Pins bounded memory at the allocator level:
//!
//! * the peak of live heap bytes while `run_sweep` evaluates four seeds
//!   must stay under 1.5× the peak of one seed. A sweep that kept each
//!   seed's traces or prepared streams alive until the table is built
//!   would grow its peak linearly in the seed count;
//! * an unbounded prediction table holds room for what it holds, not
//!   for a thousand entries before its first key.

use pcap_dpm::core::{PredictionTable, TableKey};
use pcap_dpm::report::{run_sweep, SWEEP_KINDS};
use pcap_dpm::sim::SimConfig;
use pcap_dpm::types::Signature;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The system allocator tracking live heap bytes and their high-water
/// mark. `realloc` keeps the trait's default (allocate, copy, free), so
/// both blocks count while the copy is live.
struct PeakAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: delegates allocation verbatim to `System`; the bookkeeping is
// relaxed atomic arithmetic with no other side effect.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
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

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

/// Peak live heap bytes above the starting level while `f` runs.
fn peak_during<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let result = f();
    (PEAK.load(Ordering::Relaxed) - base, result)
}

/// The counters are process-global: each test holds this lock, so
/// concurrent test threads never see each other's allocations.
static SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn seed_sweep_peak_heap_does_not_grow_with_the_seed_count() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let config = SimConfig::paper();
    let sweep = |seeds: &[u64]| run_sweep(seeds, &config, &SWEEP_KINDS, 1).expect("valid specs");
    let (one, grids) = peak_during(|| sweep(&[42]));
    assert_eq!(grids.len(), 1);
    let (four, grids) = peak_during(|| sweep(&[42, 43, 44, 45]));
    assert_eq!(grids.len(), 4);
    assert!(
        four * 2 < one * 3,
        "4-seed peak {four} B is not under 1.5x the 1-seed peak {one} B: \
         the sweep holds more than one cell's data at a time"
    );
}

/// The daemon opens one unbounded table per live device session, and
/// Table 3's largest table holds 139 entries. 400 tables of 150 keys
/// need about 5 MB and must hold at most 10 MB; reserving 1,024 entries
/// per table before the first key would hold 40 MB.
#[test]
fn unbounded_tables_hold_room_for_their_entries_only() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let base = LIVE.load(Ordering::Relaxed);
    let tables: Vec<PredictionTable> = (0..400)
        .map(|_| {
            let mut table = PredictionTable::unbounded();
            for signature in 0..150 {
                table.learn(TableKey::plain(Signature(signature)));
            }
            table
        })
        .collect();
    let held = LIVE.load(Ordering::Relaxed) - base;
    assert_eq!(
        tables.iter().map(PredictionTable::len).sum::<usize>(),
        60_000
    );
    assert!(held <= 10_000_000, "400 tables of 150 keys hold {held} B");
}
