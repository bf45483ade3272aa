//! Pins the zero-overhead-when-disabled contract at the allocator
//! level: driving the instrumented evaluation path with
//! [`NullPipeline`] must perform exactly the same number of heap
//! allocations as the uninstrumented path — the `O::ENABLED` guards
//! must compile the span names, timestamps and registry updates out
//! entirely, not merely skip their delivery.

use pcap_dpm::obs::{span, NullPipeline, PipelineObserver, TraceRecorder};
use pcap_dpm::sim::{
    evaluate_prepared, evaluate_prepared_with, NullObserver, PowerManagerKind, PreparedTrace,
    SimConfig,
};
use pcap_dpm::workload::{AppModel, PaperApp};
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
#[test]
fn disabled_tracing_allocates_nothing_extra() {
    // NullPipeline primitives alone: zero allocations.
    let (n, ()) = allocs_during(|| {
        let _guard = span(&NullPipeline, "probe");
        NullPipeline.counter_add("tasks", 1);
        NullPipeline.observe_us("task_us", 17);
        NullPipeline.span_begin("probe");
        NullPipeline.span_end("probe");
    });
    assert_eq!(n, 0, "NullPipeline primitives must not allocate");

    // The full evaluation path: the traced variant with NullPipeline
    // must allocate exactly as much as the plain one. Warm both paths
    // first so one-time lazy state (manager tables, scratch growth)
    // doesn't skew the steady-state counts.
    let trace = {
        let mut t = PaperApp::Nedit
            .spec()
            .generate_trace(42)
            .expect("valid spec");
        t.runs.truncate(4);
        t
    };
    let config = SimConfig::paper();
    let prepared = PreparedTrace::build(&trace, &config);
    let kind = PowerManagerKind::PCAP;
    std::hint::black_box(evaluate_prepared(&prepared, &config, kind));
    std::hint::black_box(evaluate_prepared_with(
        &prepared,
        &config,
        kind,
        &mut NullObserver,
        &NullPipeline,
    ));

    let (plain, _) = allocs_during(|| evaluate_prepared(&prepared, &config, kind));
    let (disabled, _) = allocs_during(|| {
        evaluate_prepared_with(&prepared, &config, kind, &mut NullObserver, &NullPipeline)
    });
    assert_eq!(
        disabled, plain,
        "NullPipeline tracing must add zero allocations to evaluate_prepared"
    );

    // Sanity check on the counter itself: an enabled recorder pays for
    // its span name and event storage, so it must allocate strictly
    // more than the disabled path.
    let recorder = TraceRecorder::new();
    let (enabled, _) = allocs_during(|| {
        evaluate_prepared_with(&prepared, &config, kind, &mut NullObserver, &recorder)
    });
    assert!(
        enabled > disabled,
        "recorder must be visible to the counter: {enabled} vs {disabled}"
    );
}
