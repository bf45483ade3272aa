//! The `pcap profile` pipeline driver.
//!
//! Runs the full report pipeline — trace generation, stream
//! preparation, the `app × manager` warm-up grid, and snapshot
//! rendering — with a [`PipelineObserver`] attached, so one recorder
//! captures every stage span, per-worker telemetry sample and registry
//! counter the run produces. The pipeline itself is the same code the
//! un-profiled commands execute: every `*_observed` entry point is the
//! implementation its plain twin delegates to with [`NullPipeline`],
//! so profiling can never diverge from what it claims to measure.

use crate::snapshot::snapshot_files_observed;
use crate::workbench::{Workbench, GRID_KINDS};
use pcap_obs::{span, PipelineObserver};
use pcap_sim::SimConfig;
use pcap_trace::TraceError;

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

/// Drives the full report pipeline under `pipeline`: generate all
/// [`PaperApp`](pcap_workload::PaperApp) traces (truncated to
/// [`QUICK_RUNS`] executions each when `quick`), prepare every stream
/// once, warm up the full `app ×` [`GRID_KINDS`] grid, then render the
/// complete golden snapshot in memory. Each phase runs inside a
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
    let config = SimConfig::paper();
    let bench = {
        let _phase = span(pipeline, "phase_generate");
        let bench = Workbench::generate_par_observed(seed, config, jobs, pipeline)?;
        if quick {
            bench.truncated(QUICK_RUNS)
        } else {
            bench
        }
    };
    let apps = bench.traces().len();
    let runs = bench.traces().iter().map(|t| t.runs.len()).sum();
    {
        let _phase = span(pipeline, "phase_prepare");
        bench.prepare_all_observed(jobs, pipeline);
    }
    {
        let _phase = span(pipeline, "phase_warm_up");
        bench.warm_up_observed(&GRID_KINDS, jobs, pipeline);
    }
    let files = {
        let _phase = span(pipeline, "phase_render");
        snapshot_files_observed(&bench, pipeline).len()
    };
    Ok(ProfileSummary {
        apps,
        runs,
        cells: apps * GRID_KINDS.len(),
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
