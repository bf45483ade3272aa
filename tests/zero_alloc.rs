//! Pins the zero-overhead-when-disabled contract at the allocator
//! level: `pcap profile`'s span around an evaluation
//! ([`traced_eval`]) with [`NullPipeline`] must perform exactly the
//! same number of heap allocations as the bare evaluation — the
//! `ENABLED` guards must compile the span names, timestamps and
//! registry updates out entirely, not merely skip their delivery.

mod counting_alloc;

use counting_alloc::{allocs_during, CountingAlloc};
use pcap_dpm::obs::{span, NullPipeline, PipelineObserver, TraceRecorder};
use pcap_dpm::report::traced_eval;
use pcap_dpm::sim::{evaluate_prepared, PowerManagerKind, PreparedTrace, SimConfig};
use pcap_dpm::workload::{AppModel, PaperApp};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

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

    // The full evaluation path: a NullPipeline span around
    // evaluate_prepared must allocate exactly as much as the bare
    // call. Warm both paths first so one-time lazy state (manager
    // tables, engine buffer growth) doesn't skew the steady-state counts.
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
    let evaluate = || evaluate_prepared(&prepared, &config, kind);
    std::hint::black_box(evaluate());
    std::hint::black_box(traced_eval(&NullPipeline, &prepared, kind, evaluate));

    let (plain, _) = allocs_during(evaluate);
    let (disabled, _) = allocs_during(|| traced_eval(&NullPipeline, &prepared, kind, evaluate));
    assert_eq!(
        disabled, plain,
        "a NullPipeline span must add zero allocations to evaluate_prepared"
    );

    // Sanity check on the counter itself: an enabled recorder pays for
    // its span name and event storage, so it must allocate strictly
    // more than the disabled path.
    let recorder = TraceRecorder::new();
    let (enabled, _) = allocs_during(|| traced_eval(&recorder, &prepared, kind, evaluate));
    assert!(
        enabled > disabled,
        "recorder must be visible to the counter: {enabled} vs {disabled}"
    );
}
