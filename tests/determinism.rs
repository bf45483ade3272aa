//! The determinism contract behind the parallel sweep engine and the
//! golden-report harness: job count never changes a byte of output, and
//! the same seed always reproduces the same serialized reports.
//!
//! Uses a truncated suite (a few executions per app) so the full
//! `app × manager` grid stays cheap; the full-length contract is
//! exercised by `pcap verify` in CI.

use pcap_dpm::prelude::*;
use pcap_report::{run_sweep, snapshot_files, sweep_table, GRID_KINDS, SWEEP_KINDS};
use pcap_trace::ApplicationTrace;

fn truncated_suite(seed: u64) -> Vec<ApplicationTrace> {
    PaperApp::ALL
        .iter()
        .map(|app| {
            let mut trace = app.spec().generate_trace(seed).expect("valid spec");
            trace.runs.truncate(4);
            trace
        })
        .collect()
}

fn warmed_bench(seed: u64, jobs: usize) -> Workbench {
    let bench = Workbench::from_traces_seeded(seed, truncated_suite(seed), SimConfig::paper());
    bench.warm_up(&GRID_KINDS, jobs);
    bench
}

#[test]
fn serialized_reports_identical_for_any_job_count() {
    let serial = warmed_bench(42, 1);
    let parallel = warmed_bench(42, 8);
    for trace_idx in 0..serial.traces().len() {
        for kind in GRID_KINDS {
            let a = serde_json::to_string_pretty(&serial.report(trace_idx, kind)).unwrap();
            let b = serde_json::to_string_pretty(&parallel.report(trace_idx, kind)).unwrap();
            assert_eq!(a, b, "app #{trace_idx} × {}", kind.label());
        }
    }
}

#[test]
fn prepared_pipeline_matches_legacy_evaluation_byte_for_byte() {
    // The prepare-once invariant: evaluating against shared, pre-built
    // streams serializes to exactly the bytes the legacy
    // prepare-per-manager path produced, for every manager in the grid.
    let config = SimConfig::paper();
    let traces = truncated_suite(42);
    for trace in &traces {
        let prepared = pcap_sim::PreparedTrace::build(trace, &config);
        for kind in GRID_KINDS {
            let legacy =
                serde_json::to_string_pretty(&pcap_sim::evaluate_app(trace, &config, kind))
                    .unwrap();
            let shared = serde_json::to_string_pretty(&pcap_sim::evaluate_prepared(
                &prepared, &config, kind,
            ))
            .unwrap();
            assert_eq!(legacy, shared, "{} × {}", trace.app, kind.label());
        }
    }
}

#[test]
fn same_seed_runs_are_byte_identical() {
    let first: Vec<(String, String)> = snapshot_files(&warmed_bench(42, 4));
    let second: Vec<(String, String)> = snapshot_files(&warmed_bench(42, 4));
    assert_eq!(first, second);
    // A different seed must actually change the data (the harness is
    // not vacuously comparing constants).
    let other = snapshot_files(&warmed_bench(7, 4));
    assert_eq!(
        first.iter().map(|(p, _)| p).collect::<Vec<_>>(),
        other.iter().map(|(p, _)| p).collect::<Vec<_>>(),
        "file list is seed-independent"
    );
    assert_ne!(first, other, "contents must depend on the seed");
}

#[test]
fn multi_seed_sweep_is_job_count_invariant() {
    // End-to-end through run_sweep: generation, simulation, and
    // aggregation on 1 vs 8 workers produce identical reports and CSV.
    // Traces are full-length here but only two seeds × the sweep kinds
    // run.
    let config = SimConfig::paper();
    let seeds = [42u64, 43];
    let serial = run_sweep(&seeds, &config, &SWEEP_KINDS, 1).expect("valid specs");
    let parallel = run_sweep(&seeds, &config, &SWEEP_KINDS, 8).expect("valid specs");
    assert_eq!(serial, parallel);
    let a = sweep_table(&seeds, &serial, &SWEEP_KINDS);
    let b = sweep_table(&seeds, &parallel, &SWEEP_KINDS);
    assert_eq!(a, b);
    assert_eq!(a.to_csv(), b.to_csv());
    assert_eq!(a.render(), b.render());
}
