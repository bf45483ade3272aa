//! End-to-end pipeline tests: workload generation (each I/O carrying
//! its call site's PC) → file cache → power-management simulation,
//! across crates.

use pcap_dpm::prelude::*;
use pcap_sim::RunStreams;
use pcap_types::TraceEvent;

/// A truncated trace keeps integration tests quick while exercising
/// table reuse across several executions.
fn truncated(app: PaperApp, runs: usize) -> ApplicationTrace {
    let mut trace = app.spec().generate_trace(42).expect("valid spec");
    trace.runs.truncate(runs);
    trace
}

#[test]
fn every_app_generates_valid_multiprocess_traces() {
    for app in PaperApp::ALL {
        let trace = truncated(app, 3);
        assert_eq!(&*trace.app, app.name());
        for run in &trace.runs {
            // Sorted events, closed process lifecycles (the builder
            // validated them; double-check the public invariants).
            let times: Vec<_> = run.events.iter().map(TraceEvent::time).collect();
            assert!(times.windows(2).all(|w| w[0] <= w[1]), "{app}");
            let forks = run
                .events
                .iter()
                .filter(|e| matches!(e, TraceEvent::Fork { .. }))
                .count();
            let exits = run
                .events
                .iter()
                .filter(|e| matches!(e, TraceEvent::Exit { .. }))
                .count();
            assert_eq!(exits, forks + 1, "{app}: every process exits");
        }
    }
}

#[test]
fn generation_is_deterministic_per_seed() {
    for app in [PaperApp::Nedit, PaperApp::Xemacs] {
        let a = truncated(app, 4);
        let b = truncated(app, 4);
        assert_eq!(a, b, "{app}");
        let mut spec_c = app.spec();
        spec_c.executions = 4;
        let c = spec_c.generate_trace(43).expect("valid");
        assert_ne!(a.runs, c.runs, "{app}: different seed, different trace");
    }
}

#[test]
fn cache_reduces_or_preserves_access_count() {
    let config = SimConfig::paper();
    for app in [PaperApp::Nedit, PaperApp::Mozilla] {
        let trace = truncated(app, 2);
        for run in &trace.runs {
            let streams = RunStreams::build(run, &config);
            // Disk accesses (coalesced pages + flush write-backs) never
            // exceed traced I/Os by more than the flush traffic.
            let ios = run.io_count();
            let flushes = streams.accesses.iter().filter(|a| a.is_kernel()).count();
            assert!(
                streams.accesses.len() <= ios + flushes,
                "{app}: {} accesses vs {} I/Os + {} flushes",
                streams.accesses.len(),
                ios,
                flushes
            );
        }
    }
}

/// Pins what the paper's 256 KB cache does on each full Table 1 trace
/// at seed 42: I/O events in, disk accesses out, and the summed
/// per-run `CacheStats`. These traces almost never re-touch a resident
/// page, so they barely exercise recency order; the cache's
/// differential proptest against a page-at-a-time `LruMap` reference in
/// `pcap-cache` covers that.
#[test]
fn table1_cache_counters_are_pinned() {
    use pcap_dpm::cache::{filter_run, CacheStats};
    // (app, I/O events, disk accesses, page hits, page misses,
    //  evictions, eviction write-backs, flushed pages, flush runs)
    let expected: [(PaperApp, usize, usize, [u64; 6]); 6] = [
        (
            PaperApp::Mozilla,
            72_660,
            71_941,
            [876, 138_892, 135_803, 2_292, 415, 161],
        ),
        (
            PaperApp::Writer,
            81_768,
            81_143,
            [33, 235_576, 235_062, 280, 73, 23],
        ),
        (
            PaperApp::Impress,
            113_241,
            113_640,
            [19, 375_953, 377_441, 1_513, 169, 16],
        ),
        (
            PaperApp::Xemacs,
            67_747,
            67_664,
            [99, 135_204, 133_258, 28, 68, 13],
        ),
        (PaperApp::Nedit, 6_049, 6_049, [29, 12_016, 10_276, 0, 0, 0]),
        (
            PaperApp::Mplayer,
            464_711,
            464_711,
            [31, 960_158, 958_174, 0, 0, 0],
        ),
    ];
    let config = SimConfig::paper();
    for (app, ios, accesses, counters) in expected {
        let trace = app.spec().generate_trace(42).expect("valid spec");
        let mut total = CacheStats::default();
        let mut disk = 0;
        for run in &trace.runs {
            let (out, stats) = filter_run(run, &config.cache);
            disk += out.len();
            total.page_hits += stats.page_hits;
            total.page_misses += stats.page_misses;
            total.evictions += stats.evictions;
            total.eviction_writebacks += stats.eviction_writebacks;
            total.flushed_pages += stats.flushed_pages;
            total.flush_runs += stats.flush_runs;
        }
        let got = [
            total.page_hits,
            total.page_misses,
            total.evictions,
            total.eviction_writebacks,
            total.flushed_pages,
            total.flush_runs,
        ];
        assert_eq!(
            (trace.total_ios(), disk, got),
            (ios, accesses, counters),
            "{app}"
        );
    }
}

#[test]
fn simulator_is_deterministic() {
    let trace = truncated(PaperApp::Writer, 3);
    let config = SimConfig::paper();
    let a = evaluate_app(&trace, &config, PowerManagerKind::PCAP);
    let b = evaluate_app(&trace, &config, PowerManagerKind::PCAP);
    assert_eq!(a, b);
}

#[test]
fn oracle_never_misses_and_bounds_savings() {
    let config = SimConfig::paper();
    for app in [PaperApp::Nedit, PaperApp::Xemacs, PaperApp::Mplayer] {
        let trace = truncated(app, 4);
        let oracle = evaluate_app(&trace, &config, PowerManagerKind::Oracle);
        assert_eq!(oracle.global.misses(), 0, "{app}");
        assert_eq!(oracle.global.not_predicted, 0, "{app}");
        assert_eq!(
            oracle.global.hits(),
            oracle.global.opportunities,
            "{app}: the ideal predictor covers every opportunity"
        );
        for kind in [
            PowerManagerKind::Timeout,
            PowerManagerKind::LT,
            PowerManagerKind::PCAP,
        ] {
            let other = evaluate_app(&trace, &config, kind);
            assert!(
                other.savings() <= oracle.savings() + 1e-9,
                "{app}: {} saved {:.3} > ideal {:.3}",
                kind.label(),
                other.savings(),
                oracle.savings()
            );
        }
    }
}

#[test]
fn energy_accounting_is_conservative() {
    // Managed energy never exceeds base energy plus nothing: every gap's
    // managed breakdown is bounded by the unmanaged one plus transition
    // overheads already charged inside it — and busy energy matches
    // exactly.
    let config = SimConfig::paper();
    let trace = truncated(PaperApp::Impress, 2);
    for kind in [
        PowerManagerKind::Timeout,
        PowerManagerKind::PCAP,
        PowerManagerKind::Oracle,
    ] {
        let r = evaluate_app(&trace, &config, kind);
        assert_eq!(r.energy.busy, r.base_energy.busy, "{}", kind.label());
        assert!(r.energy.total().0 > 0.0);
        assert!(r.base_energy.power_cycle.0 == 0.0);
        // A sane predictor should not *lose* energy on these workloads.
        assert!(r.savings() > 0.0, "{} lost energy overall", kind.label());
    }
}

#[test]
fn global_opportunities_match_profile() {
    let config = SimConfig::paper();
    let trace = truncated(PaperApp::Xemacs, 5);
    let profile = WorkloadProfile::measure(&trace, &config);
    let report = evaluate_app(&trace, &config, PowerManagerKind::Timeout);
    assert_eq!(
        report.global.opportunities as usize,
        profile.global_idle_periods
    );
    assert_eq!(
        report.local.opportunities as usize,
        profile.local_idle_periods
    );
    assert!(profile.local_idle_periods >= profile.global_idle_periods);
}

#[test]
fn trace_roundtrips_through_jsonl() {
    let trace = truncated(PaperApp::Nedit, 3);
    let mut buf = Vec::new();
    pcap_trace::io::write_jsonl(&trace, &mut buf).expect("write");
    let back = pcap_trace::io::read_jsonl(&buf[..]).expect("read");
    assert_eq!(trace, back);
    // And the simulator sees identical behaviour on the reloaded trace.
    let config = SimConfig::paper();
    assert_eq!(
        evaluate_app(&trace, &config, PowerManagerKind::PCAP),
        evaluate_app(&back, &config, PowerManagerKind::PCAP),
    );
}
