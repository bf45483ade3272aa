//! The attached tracing sink: spans, counters, histograms and worker
//! telemetry behind `pcap profile`.

use crate::{LogHistogram, PipelineObserver, WorkerStats};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Process-wide track allocator: every thread that ever emits an event
/// gets one stable track id for its lifetime. Worker threads are
/// created fresh per runner scope, so each sweep worker lands on its
/// own track — the "one track per worker" property the Chrome exporter
/// relies on.
static NEXT_TRACK: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static TRACK: Cell<Option<u64>> = const { Cell::new(None) };
}

/// The calling thread's track id, assigned on first use.
fn current_track() -> u64 {
    TRACK.with(|slot| match slot.get() {
        Some(track) => track,
        None => {
            let track = NEXT_TRACK.fetch_add(1, Ordering::Relaxed);
            slot.set(Some(track));
            track
        }
    })
}

/// One recorded span edge: a begin (`B`) or end (`E`) on one track.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span name (`stage` or `stage:detail`).
    pub name: String,
    /// `true` for the begin edge, `false` for the end edge.
    pub begin: bool,
    /// Microseconds since the recorder's epoch. Events are globally
    /// nondecreasing: timestamps are taken under the recorder lock.
    pub ts_us: u64,
    /// The emitting thread's track id.
    pub track: u64,
}

/// The single slowest task seen so far, for straggler attribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowestTask {
    /// The task's full label (e.g. `"cell:mozilla×PCAP-fh+r"`).
    pub label: String,
    /// Task duration.
    pub micros: u64,
    /// Track (worker thread) that executed it.
    pub track: u64,
}

#[derive(Debug, Default)]
struct RecorderState {
    events: Vec<TraceEvent>,
    /// Track id → human label (`"warm_up worker 0"`, `"thread-3"`).
    tracks: BTreeMap<u64, String>,
    counters: BTreeMap<&'static str, u64>,
    /// Histogram plus the sum of its observations (Prometheus `_sum`).
    histograms: BTreeMap<&'static str, (LogHistogram, u64)>,
    workers: Vec<WorkerStats>,
    slowest: Option<SlowestTask>,
}

impl RecorderState {
    fn register_track(&mut self, track: u64) {
        self.tracks
            .entry(track)
            .or_insert_with(|| format!("thread-{track}"));
    }

    fn observe(&mut self, name: &'static str, micros: u64) {
        let (histogram, sum) = self.histograms.entry(name).or_default();
        histogram.record(micros);
        *sum += micros;
    }
}

/// The attached [`PipelineObserver`]: collects everything the
/// exporters need. One mutex guards the whole state; every timestamp
/// is taken *under* that lock, so the event log is globally
/// monotonic — a property [`validate_chrome_trace`](crate::validate_chrome_trace)
/// checks on export.
#[derive(Debug)]
pub struct TraceRecorder {
    epoch: Instant,
    state: Mutex<RecorderState>,
}

impl TraceRecorder {
    /// A fresh recorder; its epoch (trace time zero) is now.
    pub fn new() -> TraceRecorder {
        TraceRecorder {
            epoch: Instant::now(),
            state: Mutex::new(RecorderState::default()),
        }
    }

    fn with<R>(&self, f: impl FnOnce(&mut RecorderState) -> R) -> R {
        f(&mut self.state.lock().expect("recorder lock"))
    }

    fn push_event(&self, name: &str, begin: bool) {
        let track = current_track();
        self.with(|state| {
            // Timestamp under the lock: keeps the log monotonic.
            let ts_us = self.epoch.elapsed().as_micros() as u64;
            state.register_track(track);
            state.events.push(TraceEvent {
                name: name.to_owned(),
                begin,
                ts_us,
                track,
            });
        });
    }

    /// The recorded span edges, in monotonic timestamp order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.with(|state| state.events.clone())
    }

    /// Track id → label for every track that emitted an event.
    pub fn tracks(&self) -> BTreeMap<u64, String> {
        self.with(|state| state.tracks.clone())
    }

    /// Monotonic counters, by name.
    pub fn counters(&self) -> BTreeMap<&'static str, u64> {
        self.with(|state| state.counters.clone())
    }

    /// Histograms (with observation sums), by name.
    pub fn histograms(&self) -> BTreeMap<&'static str, (LogHistogram, u64)> {
        self.with(|state| state.histograms.clone())
    }

    /// Per-worker telemetry, in worker-exit order.
    pub fn workers(&self) -> Vec<WorkerStats> {
        self.with(|state| state.workers.clone())
    }

    /// The slowest task observed, if any task finished.
    pub fn slowest(&self) -> Option<SlowestTask> {
        self.with(|state| state.slowest.clone())
    }

    /// Microseconds elapsed since the recorder's epoch.
    pub fn elapsed_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }
}

impl Default for TraceRecorder {
    fn default() -> Self {
        TraceRecorder::new()
    }
}

impl PipelineObserver for TraceRecorder {
    fn span_begin(&self, name: &str) {
        self.push_event(name, true);
    }

    fn span_end(&self, name: &str) {
        self.push_event(name, false);
    }

    fn counter_add(&self, name: &'static str, delta: u64) {
        self.with(|state| *state.counters.entry(name).or_insert(0) += delta);
    }

    fn observe_us(&self, name: &'static str, micros: u64) {
        self.with(|state| state.observe(name, micros));
    }

    fn thread_label(&self, label: &str) {
        let track = current_track();
        self.with(|state| {
            state.tracks.insert(track, label.to_owned());
        });
    }

    fn task_done(&self, label: &str, micros: u64) {
        let track = current_track();
        self.with(|state| {
            *state.counters.entry("tasks").or_insert(0) += 1;
            state.observe("task_us", micros);
            if state.slowest.as_ref().is_none_or(|s| micros > s.micros) {
                state.slowest = Some(SlowestTask {
                    label: label.to_owned(),
                    micros,
                    track,
                });
            }
        });
    }

    fn worker_done(&self, stats: WorkerStats) {
        self.with(|state| state.workers.push(stats));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span;

    #[test]
    fn events_are_monotonic_and_tracked() {
        let recorder = TraceRecorder::new();
        {
            let _outer = span(&recorder, "outer");
            let _inner = span(&recorder, "inner");
        }
        let events = recorder.events();
        assert_eq!(events.len(), 4);
        assert!(events.windows(2).all(|w| w[0].ts_us <= w[1].ts_us));
        assert_eq!(
            events
                .iter()
                .map(|e| (e.begin, e.name.as_str()))
                .collect::<Vec<_>>(),
            vec![
                (true, "outer"),
                (true, "inner"),
                (false, "inner"),
                (false, "outer")
            ]
        );
        // All on the test thread's single track, with a default label.
        let tracks = recorder.tracks();
        assert_eq!(tracks.len(), 1);
        assert!(tracks.values().next().unwrap().starts_with("thread-"));
    }

    #[test]
    fn thread_label_overrides_default_name() {
        let recorder = TraceRecorder::new();
        recorder.thread_label("warm_up worker 0");
        recorder.span_begin("x");
        recorder.span_end("x");
        assert_eq!(
            recorder.tracks().values().next().unwrap(),
            "warm_up worker 0"
        );
    }

    #[test]
    fn distinct_threads_get_distinct_tracks() {
        let recorder = TraceRecorder::new();
        std::thread::scope(|scope| {
            for i in 0..3 {
                let recorder = &recorder;
                scope.spawn(move || {
                    recorder.thread_label(&format!("w{i}"));
                    recorder.span_begin("t");
                    recorder.span_end("t");
                });
            }
        });
        assert_eq!(recorder.tracks().len(), 3);
    }

    #[test]
    fn task_done_feeds_counter_histogram_and_slowest() {
        let recorder = TraceRecorder::new();
        recorder.task_done("cell:a×TP", 10);
        recorder.task_done("cell:b×PCAP", 500);
        recorder.task_done("cell:c×LT", 20);
        assert_eq!(recorder.counters()["tasks"], 3);
        let (histogram, sum) = recorder.histograms()["task_us"];
        assert_eq!(histogram.total(), 3);
        assert_eq!(sum, 530);
        let slowest = recorder.slowest().unwrap();
        assert_eq!(slowest.label, "cell:b×PCAP");
        assert_eq!(slowest.micros, 500);
    }

    #[test]
    fn counters_accumulate() {
        let recorder = TraceRecorder::new();
        recorder.counter_add("runs", 2);
        recorder.counter_add("runs", 3);
        recorder.observe_us("prepare_us", 7);
        assert_eq!(recorder.counters()["runs"], 5);
        assert_eq!(recorder.histograms()["prepare_us"].1, 7);
    }
}
