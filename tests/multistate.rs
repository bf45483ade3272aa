//! Acceptance test for the multi-state ladder charge: the ski-rental
//! descent must stay within its 2× competitive bound against the
//! clairvoyant oracle on every application. The single-state parity
//! anchor (a one-state ladder equal to the Table 2 disk is
//! byte-identical to the two-state charge across the `app × manager`
//! grid) lives in `pcap-sim`'s own tests, next to the crate-private
//! charge driver it exercises.

use pcap_dpm::prelude::*;
use pcap_report::{Workbench, GOLDEN_SEED};
use pcap_sim::evaluate_prepared_multistate;

fn golden_bench() -> Workbench {
    Workbench::generate_par(GOLDEN_SEED, SimConfig::paper(), 0).expect("paper workloads generate")
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
