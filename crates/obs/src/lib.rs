//! Runtime observability for the simulation pipeline (DESIGN.md §10).
//!
//! PR 3's decision-audit layer made individual shutdown *decisions*
//! observable; this crate does the same for the pipeline that produces
//! them — generate → prepare → evaluate → report — and for the
//! [`SweepRunner`](https://docs.rs/pcap-sim) workers that execute it.
//! The design follows the same zero-overhead contract as
//! `pcap_sim::audit`:
//!
//! * [`PipelineObserver`] is a generic sink with an associated
//!   `const ENABLED`. The default [`NullPipeline`] sets it to `false`,
//!   and every instrumentation site guards on that constant, so
//!   monomorphization deletes the tracing code from the un-profiled
//!   path entirely (`tests/zero_alloc.rs` pins that the disabled path
//!   performs zero extra heap allocations; `pcap bench` enforces a <2%
//!   wall-clock budget for the *enabled* path).
//! * [`TraceRecorder`] is the real sink: a thread-safe registry of
//!   spans (one track per thread, hence one track per sweep worker),
//!   monotonic counters, log₂ histograms ([`LogHistogram`], shared
//!   with the decision-audit metrics), per-worker [`WorkerStats`] and
//!   slowest-task attribution.
//!
//! [`histogram`] is the workspace's only histogram: [`LogHistogram`]
//! and its lock-free twin [`AtomicHistogram`] (the daemon's stage
//! histograms), with one quantile rule behind `pcap load`, `pcap top`
//! and the benchmark. Three exporters turn a recorder into artifacts:
//! [`chrome`] (trace-event JSON for Perfetto / `chrome://tracing`),
//! [`prom`] (Prometheus text exposition through [`PromWriter`], the
//! writer `/metrics` renders through too) and [`summary`] (flat
//! per-stage tables for terminals).
//!
//! PR 10 adds the daemon-facing pieces (DESIGN.md §15): [`flight`],
//! the always-on lock-free crash ring dumped on panic/`SIGUSR1`/
//! `/debug/flight`, and [`log`], the leveled rate-limited structured
//! logging facade behind `PCAP_LOG`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod flight;
pub mod histogram;
pub mod journal;
pub mod log;
pub mod prom;
pub mod recorder;
pub mod summary;

pub use chrome::{render_chrome_trace, validate_chrome_trace, ChromeTraceStats};
pub use flight::{validate_flight_dump, FlightDumpStats, FlightEvent, FlightKind, FlightRecorder};
pub use histogram::{AtomicHistogram, LogHistogram};
pub use journal::{JournalProgress, JournalProgressSnapshot};
pub use log::RateGate;
pub use prom::{
    parse_prometheus_samples, render_journal_progress, render_prometheus, scraped_histogram,
    scraped_value, validate_prometheus_strict, MetricKind, PromSample, PromWriter,
};
pub use recorder::{SlowestTask, TraceEvent, TraceRecorder};
pub use summary::{imbalance_ratio, render_stage_table, stage_summary, worker_summary, StageStat};

use serde::Serialize;

/// A sink for pipeline-level tracing events.
///
/// Instrumented code is generic over the observer and guards every
/// event construction on [`ENABLED`](Self::ENABLED); with the default
/// [`NullPipeline`] the whole tracing path is dead code after
/// monomorphization, so observability costs nothing when unused.
///
/// Span contract: [`span_begin`](Self::span_begin) /
/// [`span_end`](Self::span_end) calls nest properly per thread (RAII
/// guards from [`span`] enforce this), and a span ends on the thread
/// it began on — which is what lets the recorder keep one trace track
/// per thread and the Chrome exporter emit matched `B`/`E` pairs.
///
/// Span names use a `stage` or `stage:detail` convention (for example
/// `"cell:mozilla×PCAP"`): exporters aggregate by the part before the
/// first `:`, while the full name survives into the Chrome trace and
/// the slowest-task attribution.
pub trait PipelineObserver: Sync {
    /// Whether instrumented code should construct and deliver events
    /// at all. Real sinks leave this `true`; [`NullPipeline`]
    /// overrides it to `false`.
    const ENABLED: bool = true;

    /// A span named `name` begins on the calling thread.
    fn span_begin(&self, name: &str);

    /// The innermost open span named `name` ends on the calling thread.
    fn span_end(&self, name: &str);

    /// Adds `delta` to the monotonic counter `name`.
    fn counter_add(&self, name: &'static str, delta: u64) {
        let _ = (name, delta);
    }

    /// Records one duration observation into the histogram `name`.
    fn observe_us(&self, name: &'static str, micros: u64) {
        let _ = (name, micros);
    }

    /// Labels the calling thread's trace track (workers call this once
    /// on entry, e.g. `"warm_up worker 3"`).
    fn thread_label(&self, label: &str) {
        let _ = label;
    }

    /// One sweep task finished; `label` identifies it (app × manager ×
    /// seed) and feeds slowest-task attribution.
    fn task_done(&self, label: &str, micros: u64) {
        let _ = (label, micros);
    }

    /// A sweep worker exited; `stats` summarize its whole lifetime.
    fn worker_done(&self, stats: WorkerStats) {
        let _ = stats;
    }
}

/// The do-nothing sink: disables pipeline tracing at compile time.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullPipeline;

impl PipelineObserver for NullPipeline {
    const ENABLED: bool = false;

    fn span_begin(&self, _name: &str) {}

    fn span_end(&self, _name: &str) {}
}

/// Per-worker telemetry for one [`SweepRunner`] scope: how many tasks
/// the worker claimed and how its wall-clock time split between task
/// execution (`busy_us`) and everything else — claiming, queue
/// coordination and scheduler preemption (`wait_us`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct WorkerStats {
    /// The runner scope this worker served (e.g. `"warm_up"`).
    pub scope: String,
    /// Zero-based worker index within the scope.
    pub worker: usize,
    /// Tasks this worker claimed and completed.
    pub tasks: u64,
    /// Microseconds spent inside task closures.
    pub busy_us: u64,
    /// Microseconds alive in the worker loop.
    pub elapsed_us: u64,
}

impl WorkerStats {
    /// Non-busy microseconds: queue-claim overhead plus any time the
    /// OS scheduled the worker off-core (oversubscription inflates
    /// this — see the `pcap profile` warning).
    pub fn wait_us(&self) -> u64 {
        self.elapsed_us.saturating_sub(self.busy_us)
    }
}

/// An RAII span: ends the span when dropped.
///
/// Obtain one from [`span`]; when the observer is disabled the result
/// is `None` and nothing — not even a timestamp read — happens.
pub struct SpanGuard<'a, O: PipelineObserver> {
    observer: &'a O,
    name: &'a str,
}

impl<O: PipelineObserver> Drop for SpanGuard<'_, O> {
    fn drop(&mut self) {
        self.observer.span_end(self.name);
    }
}

/// Opens a span named `name` on `observer`, returning a guard that
/// closes it on drop. Compiles to nothing when `O::ENABLED` is false.
pub fn span<'a, O: PipelineObserver>(observer: &'a O, name: &'a str) -> Option<SpanGuard<'a, O>> {
    if O::ENABLED {
        observer.span_begin(name);
        Some(SpanGuard { observer, name })
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// A scripted sink that records the call sequence.
    #[derive(Default)]
    struct Log(Mutex<Vec<String>>);

    impl PipelineObserver for Log {
        fn span_begin(&self, name: &str) {
            self.0.lock().unwrap().push(format!("B {name}"));
        }

        fn span_end(&self, name: &str) {
            self.0.lock().unwrap().push(format!("E {name}"));
        }
    }

    #[test]
    fn span_guard_nests_and_closes_in_reverse_order() {
        let log = Log::default();
        {
            let _outer = span(&log, "outer");
            let _inner = span(&log, "inner");
        }
        assert_eq!(
            *log.0.lock().unwrap(),
            vec!["B outer", "B inner", "E inner", "E outer"]
        );
    }

    #[test]
    fn null_pipeline_emits_nothing() {
        // The guard is None: no begin, hence no end on drop.
        assert!(span(&NullPipeline, "x").is_none());
        NullPipeline.counter_add("c", 1);
        NullPipeline.observe_us("h", 1);
        NullPipeline.thread_label("t");
        NullPipeline.task_done("t", 1);
        const { assert!(!NullPipeline::ENABLED) };
    }

    #[test]
    fn worker_stats_wait_saturates() {
        let w = WorkerStats {
            scope: "s".into(),
            worker: 0,
            tasks: 3,
            busy_us: 70,
            elapsed_us: 100,
        };
        assert_eq!(w.wait_us(), 30);
        let clamped = WorkerStats { busy_us: 200, ..w };
        assert_eq!(clamped.wait_us(), 0, "timer skew must not underflow");
    }
}
