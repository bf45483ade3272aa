//! Pins the streaming pipeline's zero-allocation steady state at the
//! allocator level: once a [`StreamWorker`]'s buffers have grown to
//! fit a device population, replaying that population through the
//! fused filter + evaluate stages performs **zero** heap allocations —
//! every buffer is cleared, never dropped, and every predictor box is
//! recycled through the pool instead of reboxed.
//!
//! Trace *generation* stays outside the bracket: every generated run
//! is a fresh event vector plus its per-run site map and file state, so
//! it allocates per run (never per I/O — `tests/generation_alloc.rs`
//! pins that budget). The guard brackets exactly the stages the fleet
//! sweep runs per device after its runs are generated.

mod counting_alloc;

use counting_alloc::{allocs_during, CountingAlloc};
use pcap_dpm::sim::{PowerManagerKind, SimConfig, StreamWorker};
use pcap_dpm::workload::DevicePopulation;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One test function: the counter is process-global, so concurrent
/// test threads would see each other's allocations.
///
/// Per manager kind, two passes over the same 1000-device fleet (one
/// execution per device, all six app shapes in rotation). The first pass grows every
/// buffer to its high-water mark; the second pass replays identical
/// workloads, so any allocation it performs is a buffer being dropped
/// and rebuilt instead of reused — exactly the regression this guard
/// exists to catch.
#[test]
fn streaming_steady_state_allocates_nothing() {
    const DEVICES: u64 = 1000;
    let config = SimConfig::paper();
    let pop = DevicePopulation::new(DEVICES, 42);
    // MultiStatePcap exercises the §7 wait-window charge, whose shallow
    // state must be resolved once per manager, not once per run.
    for kind in [PowerManagerKind::PCAP, PowerManagerKind::MultiStatePcap] {
        let mut worker = StreamWorker::new(&config, kind);

        let mut pass_allocs = [0u64; 2];
        for (pass, total) in pass_allocs.iter_mut().enumerate() {
            for device in 0..DEVICES {
                // Generation stays outside the bracket in both passes.
                let run = pop.generate_run(device, 0).unwrap_or_else(|e| {
                    panic!("{kind}: pass {pass}, device {device}: {e}");
                });
                let (n, _) = allocs_during(|| {
                    worker.begin_device();
                    std::hint::black_box(worker.evaluate_run(&run));
                    std::hint::black_box(worker.finish_device());
                });
                *total += n;
            }
        }

        // Sanity: the counter works and warm-up really grows buffers.
        assert!(
            pass_allocs[0] > 0,
            "{kind}: warm-up pass must allocate while buffers grow"
        );
        assert_eq!(
            pass_allocs[1], 0,
            "{kind}: steady-state streaming loop must be allocation-free \
             ({} allocations leaked into the second pass)",
            pass_allocs[1]
        );
    }
}
