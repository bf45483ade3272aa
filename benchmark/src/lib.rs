//! The repository benchmark: four workloads that stress different
//! layers of the PCAP reproduction, measured end to end (untraced) and
//! layer by layer (traced), with every output checked for correctness.
//!
//! Each layer is measured from outside, by timing the benchmark's own
//! calls into that layer's public functions; nothing inside the
//! program is instrumented. See `README.md` for the workloads, the
//! metrics and the layer → metric → workload map.

pub mod compare;
pub mod fleet;
pub mod grid;
mod layers;
pub mod serve;
mod stats;

use stats::Samples;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `sweep_fleet` over a 2048-device fleet: generation and cache
    /// filtering dominate.
    FleetStream,
    /// The `pcap run --journal` grid: prepare, 10 managers per run, one
    /// fsync'd journal append per cell.
    GridJournaled,
    /// An in-process daemon fed unthrottled from pre-encoded frames.
    ServeSaturate,
    /// An open-loop load at a fixed event rate over many short runs.
    ServePaced,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::FleetStream,
        Workload::GridJournaled,
        Workload::ServeSaturate,
        Workload::ServePaced,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetStream => "fleet-stream",
            Workload::GridJournaled => "grid-journaled",
            Workload::ServeSaturate => "serve-saturate",
            Workload::ServePaced => "serve-paced",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The full-size specification, measuring for `seconds`.
    pub fn spec(self, seconds: f64) -> Spec {
        let plan = match self {
            Workload::FleetStream => Plan::Fleet(fleet::FleetSpec::full()),
            Workload::GridJournaled => Plan::Grid(grid::GridSpec::full()),
            Workload::ServeSaturate => Plan::Serve(serve::ServeSpec::saturate()),
            Workload::ServePaced => Plan::Serve(serve::ServeSpec::paced()),
        };
        Spec {
            plan,
            seconds,
            setups: 5,
        }
    }
}

/// What one benchmark run executes.
#[derive(Debug, Clone)]
pub struct Spec {
    /// The workload's sizes.
    pub plan: Plan,
    /// Length of the measured window; repeats stop once the next one
    /// would not fit (every workload runs at least one).
    pub seconds: f64,
    /// Set-up repetitions; `setup_s` is their median.
    pub setups: usize,
}

/// Workload sizes, per family.
#[derive(Debug, Clone)]
pub enum Plan {
    /// `fleet-stream`.
    Fleet(fleet::FleetSpec),
    /// `grid-journaled`.
    Grid(grid::GridSpec),
    /// `serve-saturate` and `serve-paced`.
    Serve(serve::ServeSpec),
}

/// Runs one workload at `seed`, untraced (end-to-end metrics) or
/// traced (per-layer metrics).
pub fn run(spec: &Spec, seed: u64, traced: bool) -> Outcome {
    match &spec.plan {
        Plan::Fleet(plan) => fleet::run(plan, spec, seed, traced),
        Plan::Grid(plan) => grid::run(plan, spec, seed, traced),
        Plan::Serve(plan) => serve::run(plan, spec, seed, traced),
    }
}

/// End-to-end metrics `(name, unit)`, reported by untraced runs.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("decisions_per_s", "1/s"),
    ("run_latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, reported by traced runs. A metric
/// of a layer the workload does not call reads 0, as does a tail
/// percentile with fewer than ten samples beyond it.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("workload.generate_ns_per_event", "ns"),
    ("cache.filter_ns_per_event", "ns"),
    ("cache.hit_ratio", "fraction"),
    ("sim.rebuild_ns_per_event", "ns"),
    ("sim.engine_ns_per_decision", "ns"),
    ("sim.journal_append_us_p50", "us"),
    ("sim.journal_append_us_p95", "us"),
    ("sim.sweep_busy_fraction", "fraction"),
    ("serve.decode_ns_per_frame", "ns"),
    ("serve.shard_eval_ns_per_event", "ns"),
    ("serve.encode_ns_per_decision", "ns"),
    ("serve.transport_share", "fraction"),
    ("serve.queue_wait_us_p99", "us"),
    ("serve.stage_eval_us_p99", "us"),
    ("loadgen.encode_ns_per_frame", "ns"),
    ("loadgen.lag_ms_p99", "ms"),
    ("loadgen.write_blocked_share", "fraction"),
    ("share.generate", "fraction"),
    ("share.filter", "fraction"),
    ("share.streams", "fraction"),
    ("share.engine", "fraction"),
    ("share.journal", "fraction"),
    ("share.decode", "fraction"),
    ("share.encode", "fraction"),
    ("share.transport", "fraction"),
    ("obs.tracing_overhead", "fraction"),
    ("run_latency_p99_ms", "ms"),
    ("sim_decisions", "count"),
    ("sim_energy_savings", "fraction"),
];

/// Per-layer metrics that are simulated statistics: they must repeat
/// bit for bit at one seed, whatever the host does.
pub const EXACT: [&str; 2] = ["sim_decisions", "sim_energy_savings"];

/// One reported value, with the spread of the samples it summarizes.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The value (a median, for timings).
    pub value: f64,
    /// Quartiles and sample count, for timings.
    pub spread: Option<Spread>,
}

/// Quartiles and sample count of a timing's raw samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Sample count.
    pub n: usize,
}

/// The result of one benchmark run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted (runs, cells).
    pub attempted: u64,
    /// Operations that failed: rejected or unacknowledged runs, outputs
    /// that differ from their reference, generation or journal errors.
    pub failed: u64,
    /// Correctness failures, one line each.
    pub errors: Vec<String>,
    /// Metrics, in catalogue order.
    pub metrics: Vec<Metric>,
    /// Per-layer table of a traced run.
    pub table: String,
    /// Chrome trace-event JSON of a traced run.
    pub chrome_trace: Option<String>,
}

impl Outcome {
    /// Whether every output checked out.
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// The metric named `name`, if reported.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The machine-readable result line.
    pub fn json_line(&self) -> String {
        use serde::Value;
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                let entry = vec![
                    ("value".to_owned(), Value::Float(value)),
                    ("unit".to_owned(), Value::Str(m.unit.to_owned())),
                ];
                (m.name.to_owned(), Value::Object(entry))
            })
            .collect();
        let line = Value::Object(vec![
            ("correct".to_owned(), Value::Bool(self.correct())),
            ("attempted".to_owned(), Value::UInt(self.attempted)),
            ("failed".to_owned(), Value::UInt(self.failed)),
            ("metrics".to_owned(), Value::Object(metrics)),
        ]);
        serde_json::to_string(&line).expect("metric values are finite")
    }
}

/// Collects a run's metrics by name; [`finish`](Self::finish) lays
/// them out in catalogue order.
#[derive(Debug, Default)]
pub(crate) struct Metrics {
    values: BTreeMap<&'static str, (f64, Option<Spread>)>,
}

impl Metrics {
    /// Records a plain value.
    pub(crate) fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, (value, None));
    }

    /// Records the median of `samples` with its quartiles and count.
    pub(crate) fn timing(&mut self, name: &'static str, samples: &Samples) {
        let (q1, q3) = samples.quartiles();
        let spread = Spread {
            q1,
            q3,
            n: samples.len(),
        };
        self.values.insert(name, (samples.median(), Some(spread)));
    }

    /// The end-to-end or (when `traced`) per-layer metric list. A
    /// metric left unset reads 0: a layer the workload does not call,
    /// or a run that failed before measuring.
    pub(crate) fn finish(self, traced: bool) -> Vec<Metric> {
        let catalogue: &[(&'static str, &'static str)] =
            if traced { &PER_LAYER } else { &END_TO_END };
        catalogue
            .iter()
            .map(|&(name, unit)| {
                let (value, spread) = self.values.get(name).copied().unwrap_or((0.0, None));
                Metric {
                    name,
                    unit,
                    value,
                    spread,
                }
            })
            .collect()
    }
}

/// Records the `share.*` metrics from per-layer busy nanoseconds and
/// renders them as the traced run's per-layer table.
pub(crate) fn record_shares(
    metrics: &mut Metrics,
    parts: &[(&'static str, f64)],
    denominator_ns: f64,
) -> String {
    let mut table = format!("{:<18} {:>12} {:>8}\n", "layer", "busy ms", "share");
    let mut sum = 0.0;
    for &(name, ns) in parts {
        let share = ratio(ns, denominator_ns);
        sum += share;
        metrics.set(name, share);
        table.push_str(&format!("{name:<18} {:>12.3} {share:>8.4}\n", ns / 1e6));
    }
    table.push_str(&format!(
        "{:<18} {:>12.3} {sum:>8.4}\n",
        "sum",
        denominator_ns / 1e6
    ));
    table
}

/// `num / den`, or 0 when `den` is 0.
pub(crate) fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Calls `repeat` inside a window of `seconds` until it returns `None`
/// or the next repeat, judged by the duration of the last one it
/// returned, would overrun the window. Runs at least once.
pub(crate) fn within(seconds: f64, mut repeat: impl FnMut() -> Option<Duration>) {
    let window = Instant::now();
    while let Some(last) = repeat() {
        if (window.elapsed() + last).as_secs_f64() > seconds {
            break;
        }
    }
}

/// Durations as seconds.
pub(crate) fn seconds(durations: &[Duration]) -> Samples {
    Samples::new(durations.iter().map(Duration::as_secs_f64).collect())
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub(crate) fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// CPU time (user + system) this process has used, in seconds, at the
/// kernel's 100 Hz accounting resolution.
pub(crate) fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| {
            // Fields after the parenthesized command name; utime and
            // stime are fields 14 and 15 of the whole line.
            let rest = &stat[stat.rfind(')')? + 2..];
            let fields: Vec<&str> = rest.split_whitespace().collect();
            let utime: f64 = fields.get(11)?.parse().ok()?;
            let stime: f64 = fields.get(12)?.parse().ok()?;
            Some((utime + stime) / 100.0)
        })
        .unwrap_or(0.0)
}

/// A scratch directory inside the build directory, removed on drop.
///
/// Journals and the daemon's socket live here, so a run reads and
/// writes only inside the checkout it was built in.
#[derive(Debug)]
pub(crate) struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    pub(crate) fn create(tag: &str) -> std::io::Result<WorkDir> {
        static CREATED: AtomicUsize = AtomicUsize::new(0);
        let base = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from("target"), PathBuf::from);
        let mut path = base.join("pcap-benchmark-work").join(format!(
            "{tag}-{}-{}",
            std::process::id(),
            CREATED.fetch_add(1, Ordering::Relaxed)
        ));
        // Unix socket paths are limited to ~107 bytes: prefer the
        // shorter cwd-relative spelling of the same directory.
        if let Ok(cwd) = std::env::current_dir() {
            if let Ok(relative) = path.strip_prefix(&cwd) {
                path = relative.to_path_buf();
            }
        }
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir { path })
    }

    pub(crate) fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}
