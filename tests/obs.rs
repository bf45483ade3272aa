//! End-to-end tests of the runtime tracing layer: the profiled
//! pipeline must export schema-valid Chrome and Prometheus artifacts,
//! and attaching a recorder must never change a byte of output.

use pcap_dpm::obs::{
    render_chrome_trace, render_prometheus, validate_chrome_trace, validate_prometheus_strict,
    NullPipeline, TraceRecorder,
};
use pcap_dpm::report::{profile_pipeline, snapshot_files, snapshot_files_observed, Workbench};
use pcap_dpm::sim::SimConfig;

const JOBS: usize = 4;

/// One profiled quick run shared by the export tests: the full
/// 6-app × [`GRID_KINDS`](pcap_dpm::report::GRID_KINDS) grid with a
/// recorder attached.
fn profiled_recorder() -> TraceRecorder {
    let recorder = TraceRecorder::new();
    profile_pipeline(42, JOBS, true, &recorder).expect("valid specs");
    recorder
}

#[test]
fn chrome_trace_covers_grid_with_one_track_per_worker() {
    let recorder = profiled_recorder();
    let trace = render_chrome_trace(&recorder);
    let stats = validate_chrome_trace(&trace).expect("schema-valid trace");
    // Every span track is a registered (named) track; workers that
    // never claimed a task register a name but emit no spans.
    assert!(
        stats.tracks <= recorder.tracks().len(),
        "{} span tracks, {} registered",
        stats.tracks,
        recorder.tracks().len()
    );

    // Every cell of the app × manager grid appears as its own span.
    let events = recorder.events();
    let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
    let mut cells = 0;
    for kind in pcap_dpm::report::GRID_KINDS {
        for app in ["mozilla", "writer", "impress", "xemacs", "nedit", "mplayer"] {
            let name = format!("cell:{app}×{}", kind.label());
            assert!(names.contains(&name.as_str()), "missing span {name}");
            cells += 1;
        }
    }
    assert_eq!(cells, 60, "full grid");
    assert!(stats.spans >= cells, "{} spans", stats.spans);

    // One track per worker: every scope spawns fresh threads, so each
    // (scope, worker) telemetry row maps to a distinct span track; the
    // main thread (phase spans) adds one more.
    let workers = recorder.workers();
    let warm_up: Vec<_> = workers.iter().filter(|w| w.scope == "warm_up").collect();
    assert_eq!(warm_up.len(), JOBS, "one telemetry row per warm-up worker");
    assert!(
        recorder.tracks().len() > workers.len(),
        "workers plus the coordinating main track: {} tracks for {} workers",
        recorder.tracks().len(),
        workers.len()
    );
}

#[test]
fn prometheus_export_parses_and_carries_the_registry() {
    let recorder = profiled_recorder();
    let text = render_prometheus(&recorder);
    let samples = validate_prometheus_strict(&text).expect("valid exposition");
    assert!(samples > 100, "histograms dominate: {samples} samples");
    for needle in [
        "pcap_tasks_total",
        "pcap_runs_total",
        "pcap_prepared_runs_total",
        "pcap_files_rendered_total",
        "pcap_task_us_bucket",
        "pcap_eval_us_sum",
        "pcap_prepare_us_count",
        "pcap_worker_busy_us{scope=\"warm_up\"",
        "pcap_slowest_task_us",
    ] {
        assert!(text.contains(needle), "missing {needle} in:\n{text}");
    }
}

#[test]
fn attached_recorder_never_changes_a_byte_of_output() {
    let bench = Workbench::generate_par(42, SimConfig::paper(), JOBS)
        .expect("valid specs")
        .truncated(3);
    let plain = snapshot_files(&bench);
    let recorder = TraceRecorder::new();
    let observed = snapshot_files_observed(&bench, &recorder);
    assert_eq!(plain, observed, "recorder must not perturb the snapshot");
    assert!(
        recorder.counters().get("files_rendered").copied() == Some(plain.len() as u64),
        "but it must have seen every file"
    );
    let null = snapshot_files_observed(&bench, &NullPipeline);
    assert_eq!(plain, null);
}

// --------------------------------------------- exporter edge cases

/// A recorder that never saw a span still exports: the Chrome trace
/// validates with zero spans and tracks, and the Prometheus
/// exposition (build info + uptime only) parses. Observability must
/// not require traffic to be scrape-safe.
#[test]
fn empty_recorder_exports_validate() {
    let recorder = TraceRecorder::new();
    let trace = render_chrome_trace(&recorder);
    let stats = validate_chrome_trace(&trace).expect("empty chrome trace validates");
    assert_eq!(stats.spans, 0, "no spans recorded");
    assert_eq!(stats.tracks, 0, "no tracks registered");
    let text = render_prometheus(&recorder);
    validate_prometheus_strict(&text).expect("empty exposition validates");
}

/// Many threads opening and closing nested spans concurrently — with
/// counters and histogram observations interleaved — must still
/// produce a schema-valid Chrome trace with balanced begin/end pairs
/// and one track per writer thread.
#[test]
fn concurrent_span_writers_render_a_valid_chrome_trace() {
    use pcap_dpm::obs::PipelineObserver;
    const WRITERS: usize = 8;
    const ITERS: u64 = 200;
    let recorder = TraceRecorder::new();
    std::thread::scope(|scope| {
        for worker in 0..WRITERS {
            let recorder = &recorder;
            scope.spawn(move || {
                recorder.thread_label(&format!("writer {worker}"));
                for i in 0..ITERS {
                    recorder.span_begin("outer");
                    recorder.counter_add("spans", 1);
                    recorder.span_begin("inner");
                    recorder.observe_us("span_us", i);
                    recorder.span_end("inner");
                    recorder.span_end("outer");
                }
            });
        }
    });
    let trace = render_chrome_trace(&recorder);
    let stats = validate_chrome_trace(&trace).expect("concurrent chrome trace validates");
    assert_eq!(stats.spans as u64, WRITERS as u64 * ITERS * 2);
    assert_eq!(stats.tracks, WRITERS, "one track per writer thread");
    validate_prometheus_strict(&render_prometheus(&recorder)).expect("exposition validates");
}

/// Flight dumps taken *while* writers race must parse and hold the
/// per-ring monotone-timestamp invariant every time: the seqlock
/// protocol drops torn slots instead of emitting garbage. The final
/// quiescent dump sees every ring at capacity.
#[test]
fn flight_dump_revalidates_while_writers_race() {
    use pcap_dpm::obs::{validate_flight_dump, FlightKind, FlightRecorder};
    const RINGS: usize = 4;
    const CAPACITY: usize = 128;
    let flight = FlightRecorder::new(RINGS, CAPACITY);
    std::thread::scope(|scope| {
        for ring in 0..RINGS {
            let flight = &flight;
            scope.spawn(move || {
                for i in 0..5_000u64 {
                    flight.record(ring, FlightKind::RunEval, i, i * 3, 1);
                }
            });
        }
        for _ in 0..50 {
            let stats = validate_flight_dump(&flight.dump_jsonl()).expect("mid-flight dump");
            assert!(stats.rings <= RINGS);
        }
    });
    let stats = validate_flight_dump(&flight.dump_jsonl()).expect("final dump");
    assert_eq!(stats.rings, RINGS);
    assert_eq!(stats.events, RINGS * CAPACITY, "every ring dumps full");
}
