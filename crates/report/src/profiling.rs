//! The `pcap profile` pipeline driver.
//!
//! Runs the full report pipeline — trace generation, stream
//! preparation, the `app × manager` warm-up grid, and snapshot
//! rendering — under a [`PipelineObserver`], so one recorder captures
//! every stage span, per-worker telemetry sample and registry counter
//! the run produces. Like the repository benchmark, it traces from the
//! outside: each stage is a span around this module's own call into
//! the pipeline's public functions (`generate_trace`,
//! [`Workbench::prepared`], [`Workbench::report`]), so the library
//! carries no pipeline observer and profiling runs the exact code the
//! un-profiled commands run.

use crate::snapshot::snapshot_files_observed;
use crate::workbench::{Workbench, GRID_KINDS};
use pcap_obs::{span, PipelineObserver};
use pcap_sim::{AppReport, PowerManagerKind, PreparedTrace, SimConfig, SweepRunner};
use pcap_trace::TraceError;
use pcap_workload::{AppModel, PaperApp};
use std::time::Instant;

/// Runs per app in `--quick` mode: enough executions to exercise
/// cross-run training while keeping a CI smoke run under a second of
/// simulation. Shared by `pcap bench --quick`, `pcap profile --quick`,
/// `pcap sweep --devices N --quick` and `pcap load --quick`.
pub const QUICK_RUNS: usize = 6;

/// What [`profile_pipeline`] did, for the CLI's closing summary line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProfileSummary {
    /// Applications in the generated suite.
    pub apps: usize,
    /// Total executions simulated (post-truncation in quick mode).
    pub runs: usize,
    /// `app × manager` grid cells warmed up.
    pub cells: usize,
    /// Snapshot files rendered.
    pub files: usize,
}

/// Runs `stage` inside a span named by `name`, then feeds its wall
/// time to the histogram `histogram` and adds `runs` to `counter`.
/// With a disabled observer this is exactly `stage()`: the name is
/// never built and the clock never read.
fn timed<P: PipelineObserver, R>(
    pipeline: &P,
    name: impl FnOnce() -> String,
    histogram: &'static str,
    counter: &'static str,
    runs: usize,
    stage: impl FnOnce() -> R,
) -> R {
    if !P::ENABLED {
        return stage();
    }
    let name = name();
    let started = Instant::now();
    let result = {
        let _span = span(pipeline, &name);
        stage()
    };
    pipeline.observe_us(histogram, started.elapsed().as_micros() as u64);
    pipeline.counter_add(counter, runs as u64);
    result
}

/// Runs `evaluate` — one `app × manager` evaluation of `prepared` —
/// the way `pcap profile` traces a grid cell: inside an
/// `eval:{app}×{manager}` span, feeding the `eval_us` histogram and
/// the `runs` counter (one per prepared execution). `pcap bench`'s
/// tracing guard times this wrapper around
/// [`evaluate_prepared`](pcap_sim::evaluate_prepared).
pub fn traced_eval<P: PipelineObserver>(
    pipeline: &P,
    prepared: &PreparedTrace,
    kind: PowerManagerKind,
    evaluate: impl FnOnce() -> AppReport,
) -> AppReport {
    timed(
        pipeline,
        || format!("eval:{}×{}", prepared.app(), kind.label()),
        "eval_us",
        "runs",
        prepared.len(),
        evaluate,
    )
}

/// Drives the full report pipeline under `pipeline`: generate all
/// [`PaperApp`] traces (truncated to [`QUICK_RUNS`] executions each
/// when `quick`), prepare every stream once, evaluate the full
/// `app ×` [`GRID_KINDS`] grid into the workbench memo, then render
/// the complete golden snapshot in memory. Each phase runs inside a
/// `phase_*` span on the calling thread; the worker-side `generate:`,
/// `prepare:`/`build:`, `cell:`/`eval:` and `render:` spans land on
/// their own tracks inside those phases.
///
/// # Errors
///
/// Propagates trace-validation failures from the workload generator.
pub fn profile_pipeline<P: PipelineObserver>(
    seed: u64,
    jobs: usize,
    quick: bool,
    pipeline: &P,
) -> Result<ProfileSummary, TraceError> {
    let runner = SweepRunner::new(jobs);
    let bench = {
        let _phase = span(pipeline, "phase_generate");
        let traces = runner
            .run_observed(
                "generate",
                &PaperApp::ALL,
                |_, app| app.spec().generate_trace(seed),
                |_, app| format!("generate:{}", app.name()),
                pipeline,
            )
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?;
        let bench = Workbench::from_traces_seeded(seed, traces, SimConfig::paper());
        if quick {
            bench.truncated(QUICK_RUNS)
        } else {
            bench
        }
    };
    let traces = bench.traces();
    let apps: Vec<usize> = (0..traces.len()).collect();
    {
        let _phase = span(pipeline, "phase_prepare");
        runner.run_observed(
            "prepare",
            &apps,
            |_, &i| {
                timed(
                    pipeline,
                    || format!("build:{}", traces[i].app),
                    "prepare_us",
                    "prepared_runs",
                    traces[i].runs.len(),
                    || bench.prepared(i),
                );
            },
            |_, &i| format!("prepare:{}", traces[i].app),
            pipeline,
        );
    }
    let cells: Vec<(usize, PowerManagerKind)> = apps
        .iter()
        .flat_map(|&i| GRID_KINDS.map(|kind| (i, kind)))
        .collect();
    {
        let _phase = span(pipeline, "phase_warm_up");
        runner.run_observed(
            "warm_up",
            &cells,
            |_, &(i, kind)| {
                traced_eval(pipeline, bench.prepared(i), kind, || bench.report(i, kind));
            },
            |_, &(i, kind)| format!("cell:{}×{}", traces[i].app, kind.label()),
            pipeline,
        );
    }
    let files = {
        let _phase = span(pipeline, "phase_render");
        snapshot_files_observed(&bench, pipeline).len()
    };
    Ok(ProfileSummary {
        apps: traces.len(),
        runs: traces.iter().map(|t| t.runs.len()).sum(),
        cells: cells.len(),
        files,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcap_obs::{NullPipeline, TraceRecorder};

    #[test]
    fn quick_profile_covers_every_stage() {
        let recorder = TraceRecorder::new();
        let summary = profile_pipeline(42, 2, true, &recorder).expect("valid specs");
        assert_eq!(summary.apps, 6);
        assert_eq!(summary.runs, 6 * QUICK_RUNS);
        assert_eq!(summary.cells, 6 * GRID_KINDS.len());
        assert!(summary.files > summary.cells, "reports + tables + audit");

        let events = recorder.events();
        let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
        for phase in [
            "phase_generate",
            "phase_prepare",
            "phase_warm_up",
            "phase_render",
        ] {
            assert!(names.contains(&phase), "missing {phase} span");
        }
        for prefix in ["generate:", "prepare:", "cell:", "eval:", "render:"] {
            assert!(
                names.iter().any(|n| n.starts_with(prefix)),
                "no {prefix} span recorded"
            );
        }
        let counters = recorder.counters();
        assert_eq!(
            counters.get("prepared_runs").copied(),
            Some(summary.runs as u64)
        );
        assert_eq!(
            counters.get("files_rendered").copied(),
            Some(summary.files as u64)
        );
        // Every grid cell evaluates every prepared execution of its app.
        assert_eq!(
            counters.get("runs").copied(),
            Some((summary.runs * GRID_KINDS.len()) as u64)
        );
        assert!(!recorder.workers().is_empty(), "worker telemetry recorded");
    }

    #[test]
    fn profile_summary_matches_null_pipeline_run() {
        let recorder = TraceRecorder::new();
        let observed = profile_pipeline(42, 1, true, &recorder).expect("valid specs");
        let plain = profile_pipeline(42, 1, true, &NullPipeline).expect("valid specs");
        assert_eq!(observed, plain);
    }
}
