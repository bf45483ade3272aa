//! The multi-state power-ladder charge — the §7 extension taken from a
//! single wait-window substitution to a full descent through
//! [`MultiStateParams::states`].
//!
//! Evaluations here run through the one simulation loop
//! (`engine::simulate_run_charged`): same lifecycle stepping, same
//! per-process predictors and global voting, same gap classification
//! against the two-state breakeven (so the hit/miss grids stay
//! comparable across charges). Only the *energy* side changes: instead
//! of the closed-form two-state `GapBreakdown::managed`, each gap is
//! charged by a [`LadderPolicy`]-planned descent via
//! [`descent_energy`] — per-state residency
//! plus every entry paid so far and the deepest state's exit, including
//! wakeups that interrupt the descent partway down.
//!
//! By construction, a single-state ladder built with
//! [`MultiStateParams::from_disk`] driven by
//! [`PredictiveJump`](pcap_disk::PredictiveJump) replays the two-state
//! charge's float operations in the same order, so the resulting
//! [`AppReport`] and decision stream are **byte-identical** to
//! [`evaluate_prepared`](crate::evaluate_prepared)'s — the regression
//! anchor that lets the ladder charge evolve without silently drifting
//! from the validated two-state model.

use crate::audit::NullObserver;
use crate::engine::{AppReport, GapCharge};
use crate::factory::PowerManagerKind;
use crate::prepared::{evaluate_charged, PreparedTrace};
use crate::SimConfig;
use pcap_core::{ladder_target, VoteSource};
use pcap_disk::{
    descent_energy, DescentStep, DiskParams, GapBreakdown, GapContext, LadderPolicy, LowPowerState,
    MultiStateParams,
};
use pcap_types::SimDuration;
use serde::{Deserialize, Serialize};

/// Where the ladder descents bottomed out, summed over gaps: the
/// observable behaviour of a policy beyond its energy bill.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LadderStats {
    /// Gaps the disk spent entirely spinning idle (no step fired).
    pub idle_gaps: u64,
    /// Gaps whose descent bottomed out in each ladder state,
    /// index-aligned with [`MultiStateParams::states`].
    pub bottom_counts: Vec<u64>,
}

impl LadderStats {
    /// Zeroed stats for a ladder with `states` states.
    pub fn new(states: usize) -> LadderStats {
        LadderStats {
            idle_gaps: 0,
            bottom_counts: vec![0; states],
        }
    }

    /// Records one gap's bottom-out state (`None` = stayed idle).
    pub fn record(&mut self, bottom: Option<usize>) {
        match bottom {
            Some(state) => self.bottom_counts[state] += 1,
            None => self.idle_gaps += 1,
        }
    }

    /// Total gaps observed.
    pub fn total_gaps(&self) -> u64 {
        self.idle_gaps + self.bottom_counts.iter().sum::<u64>()
    }
}

/// The ladder charge: each gap pays for the descent `policy` plans
/// through `ladder`. Verdicts stay with the engine's voted shutdown —
/// prediction quality is a property of the predictor, not the ladder —
/// while the energy follows the descent, which for
/// [`SkiRental`](pcap_disk::SkiRental) may act on gaps the predictor
/// declined.
struct LadderCharge<'a> {
    ladder: &'a MultiStateParams,
    /// `ladder.breakevens()`, computed once so the per-gap path stays
    /// allocation-free.
    breakevens: Vec<SimDuration>,
    policy: &'a dyn LadderPolicy,
    /// The descent the policy planned for the current gap.
    plan: Vec<DescentStep>,
    stats: LadderStats,
}

impl<'a> LadderCharge<'a> {
    /// # Panics
    ///
    /// Panics if the ladder fails [`MultiStateParams::validate`].
    fn new(ladder: &'a MultiStateParams, policy: &'a dyn LadderPolicy) -> LadderCharge<'a> {
        ladder
            .validate()
            .expect("evaluate_prepared_multistate: invalid ladder");
        LadderCharge {
            ladder,
            breakevens: ladder.breakevens(),
            policy,
            plan: Vec::new(),
            stats: LadderStats::new(ladder.states.len()),
        }
    }
}

impl GapCharge for LadderCharge<'_> {
    fn charge(
        &mut self,
        _disk: &DiskParams,
        gap: SimDuration,
        shutdown: Option<(SimDuration, VoteSource)>,
        window: Option<&LowPowerState>,
        _base: GapBreakdown,
    ) -> GapBreakdown {
        let ctx = GapContext {
            shutdown_at: shutdown.map(|(delay, _)| delay),
            target: match shutdown {
                Some((delay, source)) => ladder_target(source, delay, &self.breakevens),
                None => 0,
            },
            gap,
        };
        self.policy.plan(self.ladder, &ctx, &mut self.plan);
        let (descent, bottom) = descent_energy(self.ladder, &self.plan, gap);
        self.stats.record(bottom);
        // §7 wait-window substitution, mirroring the two-state charge:
        // the spin-idle prefix before the first step is spent in the
        // manager's shallow window state when it has one. A plan whose
        // first step falls past the gap leaves the descent unmanaged,
        // which `substitute_window` leaves unchanged.
        match (window, self.plan.first()) {
            (Some(shallow), Some(first)) => descent.substitute_window(shallow, first.at),
            _ => descent,
        }
    }
}

/// One application × one manager × one ladder policy, evaluated under
/// the ladder charge.
#[derive(Debug, Clone)]
pub struct MultiStateOutcome {
    /// The aggregate report (same shape as the two-state charge's, so
    /// the two are directly — and for single-state ladders, bitwise —
    /// comparable).
    pub report: AppReport,
    /// Where the descents bottomed out, summed over all gaps and runs.
    pub ladder_stats: LadderStats,
}

/// Evaluates one manager × ladder × policy over a prepared trace — the
/// multi-state analogue of [`evaluate_prepared`](crate::evaluate_prepared).
///
/// # Panics
///
/// Panics if the ladder fails [`MultiStateParams::validate`] or if
/// `config` disagrees with the preparation config (stale streams).
pub fn evaluate_prepared_multistate(
    prepared: &PreparedTrace,
    config: &SimConfig,
    kind: PowerManagerKind,
    ladder: &MultiStateParams,
    policy: &dyn LadderPolicy,
) -> MultiStateOutcome {
    let mut charge = LadderCharge::new(ladder, policy);
    let report = evaluate_charged(prepared, config, kind, &mut charge, &mut NullObserver);
    MultiStateOutcome {
        report,
        ladder_stats: charge.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::{records_to_jsonl, AuditCollector, AuditEnergy, MetricsRegistry};
    use crate::engine::TwoStateCharge;
    use crate::prepared::evaluate_prepared;
    use pcap_core::PcapVariant;
    use pcap_disk::{lambda_bounds, LambdaLadder, OracleLadder, PredictiveJump, SkiRental};
    use pcap_trace::{ApplicationTrace, TraceRunBuilder};
    use pcap_types::{Fd, FileId, IoKind, Pc, Pid, SimTime};
    use pcap_workload::{AppModel, NoisyVotes, PaperApp};

    fn trace_with_gaps(runs: usize) -> ApplicationTrace {
        let mut trace = ApplicationTrace::new("ms-test");
        for r in 0..runs {
            let mut b = TraceRunBuilder::new(Pid(1));
            for (i, t) in [1.0, 1.2, 21.2, 22.0, 52.0].iter().enumerate() {
                b.io(
                    SimTime::from_secs_f64(t + r as f64 * 0.01),
                    Pid(1),
                    Pc(0x100 + (i as u32 % 3) * 0x10),
                    IoKind::Read,
                    Fd(3),
                    FileId(1),
                    (i as u64) * 4096,
                    4096,
                );
            }
            b.exit(SimTime::from_secs_f64(92.0), Pid(1));
            trace.runs.push(b.finish().unwrap());
        }
        trace
    }

    #[test]
    fn single_state_ladder_is_bitwise_identical_to_the_two_state_engine() {
        let config = SimConfig::paper();
        let trace = trace_with_gaps(3);
        let prepared = PreparedTrace::build(&trace, &config);
        let ladder = MultiStateParams::from_disk(&config.disk);
        for kind in [
            PowerManagerKind::Timeout,
            PowerManagerKind::Oracle,
            PowerManagerKind::PCAP,
            PowerManagerKind::LT,
            PowerManagerKind::MultiStatePcap,
        ] {
            let legacy = evaluate_prepared(&prepared, &config, kind);
            let multi =
                evaluate_prepared_multistate(&prepared, &config, kind, &ladder, &PredictiveJump);
            let a = serde_json::to_string(&legacy).unwrap();
            let b = serde_json::to_string(&multi.report).unwrap();
            assert_eq!(a, b, "kind {kind:?} diverged");
        }
    }

    #[test]
    fn ladder_stats_account_every_gap() {
        let config = SimConfig::paper();
        let trace = trace_with_gaps(2);
        let prepared = PreparedTrace::build(&trace, &config);
        let ladder = MultiStateParams::mobile_ata();
        let ski = SkiRental::new(&ladder);
        let out =
            evaluate_prepared_multistate(&prepared, &config, PowerManagerKind::PCAP, &ladder, &ski);
        let accesses: usize = prepared.streams().iter().map(|s| s.accesses.len()).sum();
        assert_eq!(out.ladder_stats.total_gaps(), accesses as u64);
        // The 20 s and 30 s gaps descend past the first rung.
        assert!(out.ladder_stats.bottom_counts.iter().sum::<u64>() > 0);
    }

    #[test]
    fn lambda_one_is_bitwise_ski_rental_through_the_engine() {
        let config = SimConfig::paper();
        let trace = trace_with_gaps(3);
        let prepared = PreparedTrace::build(&trace, &config);
        let ladder = MultiStateParams::mobile_ata();
        let ski = SkiRental::new(&ladder);
        let one = LambdaLadder::new(&ladder, 1.0);
        for kind in [
            PowerManagerKind::PCAP,
            PowerManagerKind::Timeout,
            PowerManagerKind::MultiStatePcap,
        ] {
            let a = evaluate_prepared_multistate(&prepared, &config, kind, &ladder, &ski);
            let b = evaluate_prepared_multistate(&prepared, &config, kind, &ladder, &one);
            assert_eq!(
                serde_json::to_string(&a.report).unwrap(),
                serde_json::to_string(&b.report).unwrap(),
                "λ=1 diverged from ski-rental under {kind:?}"
            );
            assert_eq!(a.ladder_stats.bottom_counts, b.ladder_stats.bottom_counts);
            assert_eq!(a.ladder_stats.idle_gaps, b.ladder_stats.idle_gaps);
        }
    }

    #[test]
    fn lambda_ratio_respects_the_envelope_even_under_injected_errors() {
        let config = SimConfig::paper();
        let trace = trace_with_gaps(4);
        let prepared = PreparedTrace::build(&trace, &config);
        let ladder = MultiStateParams::mobile_ata();
        let kind = PowerManagerKind::PCAP;
        let oracle = evaluate_prepared_multistate(&prepared, &config, kind, &ladder, &OracleLadder);
        let gap = |o: &MultiStateOutcome| o.report.energy.total().0 - o.report.energy.busy.0;
        let opt = gap(&oracle);
        for lambda in [0.0, 0.5, 1.0] {
            let policy = LambdaLadder::new(&ladder, lambda);
            let bound = lambda_bounds(&ladder, lambda).robustness;
            for rate in [0.0, 0.5, 1.0] {
                let noisy = NoisyVotes::new(&policy, rate, 0xC0FFEE);
                let out = evaluate_prepared_multistate(&prepared, &config, kind, &ladder, &noisy);
                let ratio = gap(&out) / opt;
                assert!(
                    ratio >= 1.0 - 1e-9,
                    "λ={lambda} e={rate}: beat the clairvoyant oracle"
                );
                assert!(
                    ratio <= bound * (1.0 + 1e-9),
                    "λ={lambda} e={rate}: ratio {ratio} exceeds robustness {bound}"
                );
            }
        }
    }

    #[test]
    fn noisy_votes_evaluate_deterministically_through_the_engine() {
        let config = SimConfig::paper();
        let trace = trace_with_gaps(3);
        let prepared = PreparedTrace::build(&trace, &config);
        let ladder = MultiStateParams::mobile_ata();
        let policy = LambdaLadder::new(&ladder, 0.5);
        let kind = PowerManagerKind::PCAP;
        let eval = |seed: u64, rate: f64| {
            let noisy = NoisyVotes::new(&policy, rate, seed);
            let out = evaluate_prepared_multistate(&prepared, &config, kind, &ladder, &noisy);
            serde_json::to_string(&out.report).unwrap()
        };
        assert_eq!(eval(9, 0.5), eval(9, 0.5), "same seed must replay bitwise");
        // Rate 0 is transparent: bitwise the bare policy, any seed.
        let bare = evaluate_prepared_multistate(&prepared, &config, kind, &ladder, &policy);
        assert_eq!(eval(1, 0.0), serde_json::to_string(&bare.report).unwrap());
    }

    #[test]
    fn oracle_policy_never_costs_more_than_predictive_or_ski() {
        let config = SimConfig::paper();
        let trace = trace_with_gaps(3);
        let prepared = PreparedTrace::build(&trace, &config);
        let ladder = MultiStateParams::mobile_ata();
        let ski = SkiRental::new(&ladder);
        let kind = PowerManagerKind::PCAP;
        let oracle = evaluate_prepared_multistate(&prepared, &config, kind, &ladder, &OracleLadder);
        let pred = evaluate_prepared_multistate(&prepared, &config, kind, &ladder, &PredictiveJump);
        let rental = evaluate_prepared_multistate(&prepared, &config, kind, &ladder, &ski);
        let gap = |o: &MultiStateOutcome| o.report.energy.total().0 - o.report.energy.busy.0;
        assert!(gap(&oracle) <= gap(&pred) + 1e-9);
        assert!(gap(&oracle) <= gap(&rental) + 1e-9);
    }

    /// One evaluation under `charge` with an [`AuditCollector`]
    /// attached: the serialized report, the JSONL decision stream, the
    /// audit metrics and the energy replayed from the stream.
    fn audited<C: GapCharge>(
        prepared: &PreparedTrace,
        config: &SimConfig,
        kind: PowerManagerKind,
        charge: &mut C,
    ) -> (String, String, MetricsRegistry, AuditEnergy) {
        let mut collector = AuditCollector::new();
        let report = evaluate_charged(prepared, config, kind, charge, &mut collector);
        let (records, metrics, energy) = collector.finish();
        (
            serde_json::to_string(&report).expect("report serializes"),
            records_to_jsonl(&records),
            metrics,
            energy,
        )
    }

    #[test]
    fn audited_ladder_charge_reconciles_and_does_not_perturb() {
        let config = SimConfig::paper();
        let trace = trace_with_gaps(2);
        let prepared = PreparedTrace::build(&trace, &config);
        let ladder = MultiStateParams::mobile_ata();
        let kind = PowerManagerKind::PCAP;
        let mut charge = LadderCharge::new(&ladder, &PredictiveJump);
        let mut collector = AuditCollector::new();
        let report = evaluate_charged(&prepared, &config, kind, &mut charge, &mut collector);
        let (records, _, energy) = collector.finish();
        assert_eq!(
            charge.stats.total_gaps(),
            records.len() as u64,
            "stats cover every audited decision"
        );
        let plain =
            evaluate_prepared_multistate(&prepared, &config, kind, &ladder, &PredictiveJump);
        assert_eq!(report, plain.report, "observer must not perturb");
        assert_eq!(energy.energy, plain.report.energy);
        assert_eq!(energy.base_energy, plain.report.base_energy);
        assert_eq!(charge.stats, plain.ladder_stats);
    }

    /// The regression anchor of DESIGN §9: a single-state ladder equal
    /// to the Table 2 disk reproduces the two-state charge byte for
    /// byte over the six paper apps at the golden seed × the ten-kind
    /// grid — aggregate reports and per-decision audit streams alike.
    #[test]
    fn single_state_ladder_is_byte_identical_across_the_grid() {
        // `pcap_report::GRID_KINDS`, which this crate cannot import.
        let grid = [
            PowerManagerKind::Timeout,
            PowerManagerKind::Oracle,
            PowerManagerKind::LT,
            PowerManagerKind::LearningTree { reuse: false },
            PowerManagerKind::PCAP,
            PowerManagerKind::Pcap {
                variant: PcapVariant::Base,
                reuse: false,
            },
            PowerManagerKind::Pcap {
                variant: PcapVariant::History,
                reuse: true,
            },
            PowerManagerKind::Pcap {
                variant: PcapVariant::FileDescriptor,
                reuse: true,
            },
            PowerManagerKind::Pcap {
                variant: PcapVariant::FileDescriptorHistory,
                reuse: true,
            },
            PowerManagerKind::MultiStatePcap,
        ];
        let config = SimConfig::paper();
        let ladder = MultiStateParams::from_disk(&config.disk);
        let mut cells = 0;
        for app in PaperApp::ALL {
            let trace = app
                .spec()
                .generate_trace(42)
                .expect("paper workloads generate");
            let prepared = PreparedTrace::build(&trace, &config);
            for kind in grid {
                let cell = format!("{} × {}", trace.app, kind.label());
                let two_state = audited(&prepared, &config, kind, &mut TwoStateCharge);
                let single = audited(
                    &prepared,
                    &config,
                    kind,
                    &mut LadderCharge::new(&ladder, &PredictiveJump),
                );
                assert_eq!(two_state.0, single.0, "{cell}: reports diverged");
                assert_eq!(two_state.1, single.1, "{cell}: decision streams diverged");
                assert_eq!(two_state.2, single.2, "{cell}: metrics");
                assert_eq!(two_state.3, single.3, "{cell}: replayed energy");
                cells += 1;
            }
        }
        assert_eq!(cells, 60, "six apps × the ten-kind grid");
    }
}
