//! Acceptance tests for the multi-state ladder charge: a single-state
//! ladder equal to the Table 2 disk must be **byte-identical** to the
//! two-state charge across the whole `app × manager` grid — aggregate
//! reports and per-decision audit streams alike — and the ski-rental
//! descent must stay within its 2× competitive bound against the
//! clairvoyant oracle on every application.

use pcap_dpm::prelude::*;
use pcap_report::{Workbench, GOLDEN_SEED, GRID_KINDS};
use pcap_sim::{
    audit_prepared, audit_prepared_multistate, evaluate_prepared_multistate, records_to_jsonl,
};

fn golden_bench() -> Workbench {
    Workbench::generate_par(GOLDEN_SEED, SimConfig::paper(), 0).expect("paper workloads generate")
}

#[test]
fn single_state_ladder_is_byte_identical_across_the_grid() {
    let bench = golden_bench();
    bench.warm_up(&GRID_KINDS, 0);
    let ladder = pcap_disk::MultiStateParams::from_disk(&bench.config().disk);
    for trace_idx in 0..bench.traces().len() {
        for kind in GRID_KINDS {
            let legacy = bench.report(trace_idx, kind);
            let multi = evaluate_prepared_multistate(
                bench.prepared(trace_idx),
                bench.config(),
                kind,
                &ladder,
                &pcap_disk::PredictiveJump,
            );
            let a = serde_json::to_string(&legacy).expect("report serializes");
            let b = serde_json::to_string(&multi.report).expect("report serializes");
            assert_eq!(
                a,
                b,
                "{} × {} diverged from the two-state engine",
                bench.traces()[trace_idx].app,
                kind.label()
            );

            // Decision-level parity: both charges must emit the same
            // audit stream, not merely the same totals.
            let cell = format!("{} × {}", bench.traces()[trace_idx].app, kind.label());
            let two_state = audit_prepared(bench.prepared(trace_idx), bench.config(), kind);
            let (single, _) = audit_prepared_multistate(
                bench.prepared(trace_idx),
                bench.config(),
                kind,
                &ladder,
                &pcap_disk::PredictiveJump,
            );
            assert_eq!(
                records_to_jsonl(&two_state.records),
                records_to_jsonl(&single.records),
                "{cell}: decision streams diverged"
            );
            assert_eq!(two_state.metrics, single.metrics, "{cell}: metrics");
            assert_eq!(
                two_state.audit_energy, single.audit_energy,
                "{cell}: replayed energy"
            );
            assert!(
                two_state.ladder_bottoms.is_empty(),
                "{cell}: the two-state charge reports no ladder bottoms"
            );
            assert_eq!(
                single.ladder_bottoms.len(),
                single.records.len(),
                "{cell}: one ladder bottom per decision"
            );
        }
    }
}

#[test]
fn ski_rental_is_two_competitive_on_every_app() {
    let bench = golden_bench();
    let ladder = pcap_disk::MultiStateParams::mobile_ata();
    let ski = pcap_disk::SkiRental::new(&ladder);
    let kind = PowerManagerKind::PCAP;
    for (trace_idx, trace) in bench.traces().iter().enumerate() {
        let rental = evaluate_prepared_multistate(
            bench.prepared(trace_idx),
            bench.config(),
            kind,
            &ladder,
            &ski,
        );
        let oracle = evaluate_prepared_multistate(
            bench.prepared(trace_idx),
            bench.config(),
            kind,
            &ladder,
            &pcap_disk::OracleLadder,
        );
        // Competitive ratio on gap energy: the part a descent policy
        // can influence (busy I/O energy is policy-independent).
        let gap = |r: &pcap_sim::AppReport| r.energy.total().0 - r.energy.busy.0;
        let ratio = gap(&rental.report) / gap(&oracle.report);
        assert!(
            ratio <= 2.0,
            "{}: ski-rental ratio {ratio:.4} exceeds the 2x bound",
            trace.app
        );
        assert!(
            ratio >= 1.0 - 1e-9,
            "{}: oracle must lower-bound",
            trace.app
        );
    }
}
