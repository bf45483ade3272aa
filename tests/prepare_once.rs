//! The prepare-once contract, counted: preparing a workbench builds
//! each run's streams exactly once, and warming the whole manager grid
//! on top of that builds none. Its own test binary, because the
//! `RunStreams` build counter is process-global and any concurrently
//! running test would add to it.

use pcap_dpm::report::profiling::QUICK_RUNS;
use pcap_dpm::report::{Workbench, GRID_KINDS};
use pcap_dpm::sim::{prepare_call_count, SimConfig};

#[test]
fn prepare_builds_each_run_once_and_warm_up_builds_none() {
    let traces = Workbench::generate(42, SimConfig::paper())
        .expect("valid specs")
        .truncated(QUICK_RUNS)
        .traces()
        .to_vec();
    let runs: u64 = traces.iter().map(|t| t.runs.len() as u64).sum();
    assert_eq!(runs, (traces.len() * QUICK_RUNS) as u64);
    for jobs in [1, 4] {
        let bench = Workbench::from_traces_seeded(42, traces.clone(), SimConfig::paper());
        let before = prepare_call_count();
        bench.prepare_all(jobs);
        assert_eq!(
            prepare_call_count() - before,
            runs,
            "jobs {jobs}: one stream build per run"
        );
        let before = prepare_call_count();
        bench.warm_up(&GRID_KINDS, jobs);
        assert_eq!(
            prepare_call_count() - before,
            0,
            "jobs {jobs}: warm-up rebuilt streams"
        );
    }
}
