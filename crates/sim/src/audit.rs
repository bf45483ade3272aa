//! Decision-audit observability: a per-shutdown-decision event stream
//! and a lightweight metrics registry (DESIGN.md §8).
//!
//! The engine computes, for every merged idle gap, exactly the evidence
//! the paper's §6 analysis argues from — which PC path triggered the
//! decision, what the table knew, what was predicted, what actually
//! happened and what it cost — and until now threw it away after
//! updating the aggregate counters. This module threads a generic
//! [`DecisionObserver`] through the simulation loop so that evidence
//! can be captured without changing a single aggregate byte:
//!
//! * [`NullObserver`] (the default everywhere) sets
//!   [`ENABLED`](DecisionObserver::ENABLED) to `false`; the engine
//!   guards all record construction on that associated constant, so
//!   monomorphization deletes the audit code entirely from the hot
//!   path. `pcap bench` asserts the null sink costs nothing measurable.
//! * [`AuditCollector`] records every decision as a [`DecisionRecord`],
//!   feeds a [`MetricsRegistry`] (counters plus log-scaled gap/latency
//!   histograms), and *replays* the engine's energy accounting so its
//!   totals are bitwise-equal to the aggregate report — the
//!   reconciliation property `tests/properties.rs` enforces.
//!
//! Everything here is a pure function of `(trace, config, manager
//! kind)`: the simulation is single-threaded per app, so audit output
//! is byte-identical for any `--jobs` value and can be
//! golden-snapshotted (see `pcap audit --jsonl` and `golden/audit/`).

use crate::engine::{AppReport, GapVerdict};
use crate::factory::PowerManagerKind;
use crate::metrics::EnergyBreakdown;
use crate::prepared::{evaluate_prepared_with, PreparedTrace};
use crate::SimConfig;
use pcap_core::VoteSource;
use pcap_disk::{GapBreakdown, Joules};
use pcap_types::{Pc, Pid, Signature, SimDuration, SimTime};
use serde::Serialize;

/// Everything the engine knew and decided about one idle gap — one
/// line of the `pcap audit --jsonl` decision log.
///
/// Field order is the JSONL column order; all times are integer
/// microseconds, enums serialize as bare strings (`"Hit"`,
/// `"Primary"`), and absent context is `null`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct DecisionRecord {
    /// Zero-based execution (run) index within the application trace.
    pub run: u32,
    /// Zero-based index of the access that opened the gap, within the
    /// run's cache-filtered access stream.
    pub access: u32,
    /// When the gap started (the access's service completion).
    pub at: SimTime,
    /// Process whose access opened the gap (as traced; kernel
    /// write-backs keep the dirtying process's pid).
    pub pid: Pid,
    /// Program counter that triggered the access ([`Pc`]`(0)` marks
    /// kernel write-backs).
    pub pc: Pc,
    /// The deciding predictor's current PC-path signature, for
    /// signature-based predictors that have observed at least one I/O.
    pub signature: Option<Signature>,
    /// Prediction-table entry count visible to the deciding predictor
    /// at decision time (`None` for table-less baselines).
    pub table_len: Option<usize>,
    /// The per-process shutdown vote standing after this access:
    /// shut down this long after completion (`None` = keep spinning).
    pub vote_delay: Option<SimDuration>,
    /// Who produced the vote (`None` when no predictor was attached,
    /// e.g. the oracle manager).
    pub vote_source: Option<VoteSource>,
    /// The process-local idle gap following this access.
    pub local_gap: SimDuration,
    /// Verdict of the local (per-process, Figure 6) classification.
    pub local_verdict: GapVerdict,
    /// The merged (global) idle gap following this access.
    pub global_gap: SimDuration,
    /// When the disk actually shut down inside the gap, if it did.
    pub shutdown_at: Option<SimTime>,
    /// Which vote source the shutdown is attributed to.
    pub shutdown_source: Option<VoteSource>,
    /// Verdict of the global (Figures 7–10) classification.
    pub verdict: GapVerdict,
    /// Energy effect of power management on this gap, in joules:
    /// managed gap energy minus the always-on energy for the same gap
    /// (busy energy excluded — it is identical in both). Negative
    /// means the decision saved energy; exactly `0.0` when the disk
    /// kept spinning.
    pub energy_delta_j: f64,
}

impl DecisionRecord {
    /// The energy effect as a typed quantity (see
    /// [`energy_delta_j`](Self::energy_delta_j)).
    pub fn energy_delta(&self) -> Joules {
        Joules(self.energy_delta_j)
    }

    /// Shutdown latency from gap start, if the disk shut down.
    pub fn shutdown_latency(&self) -> Option<SimDuration> {
        self.shutdown_at.map(|at| at.saturating_since(self.at))
    }
}

/// The exact energy quantities the engine accounted for one decision,
/// passed alongside each [`DecisionRecord`] so sinks can replay the
/// aggregate accounting bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GapEnergy {
    /// Whether the gap exceeded the breakeven time (the bucket selector
    /// the engine passes to [`EnergyBreakdown::add_gap`]).
    pub long: bool,
    /// Busy (service) energy of the access that opened the gap.
    pub busy: Joules,
    /// The managed gap breakdown the engine added to the report.
    pub managed: GapBreakdown,
    /// The always-on breakdown for the same gap (the base-energy term).
    pub base: GapBreakdown,
}

/// A sink for per-decision audit events.
///
/// The engine is generic over the observer and guards every record
/// construction on [`ENABLED`](Self::ENABLED); with the default
/// [`NullObserver`] the whole audit path is dead code after
/// monomorphization, so observability costs nothing when unused.
///
/// Contract: [`on_run_start`](Self::on_run_start) is called once per
/// execution in run order before any of its decisions;
/// [`on_decision`](Self::on_decision) is called once per cache-filtered
/// access, in access order, after the engine finished accounting the
/// gap that follows it.
pub trait DecisionObserver {
    /// Whether the engine should construct and deliver records at all.
    /// Sinks that consume events leave this `true`; [`NullObserver`]
    /// overrides it to `false`.
    const ENABLED: bool = true;

    /// A new execution begins; `run` is its zero-based index.
    fn on_run_start(&mut self, run: u32) {
        let _ = run;
    }

    /// One idle-gap decision was fully accounted.
    fn on_decision(&mut self, record: DecisionRecord, energy: &GapEnergy);

    /// Multi-state extension: the ladder state the just-accounted gap's
    /// descent bottomed out in (`None` = the disk never left spinning
    /// idle). Called immediately after
    /// [`on_decision`](Self::on_decision) for the same access — but
    /// only under the ladder charge
    /// ([`crate::evaluate_prepared_multistate`] and friends); the
    /// two-state charge never invokes it, so legacy audit streams are
    /// unaffected.
    fn on_ladder_bottom(&mut self, bottom: Option<usize>) {
        let _ = bottom;
    }
}

/// The do-nothing sink: disables the audit path at compile time.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl DecisionObserver for NullObserver {
    const ENABLED: bool = false;

    fn on_decision(&mut self, _record: DecisionRecord, _energy: &GapEnergy) {}
}

// The log₂ histogram moved down into `pcap-obs` (the pipeline tracing
// registry shares it); re-exported here so audit consumers keep their
// import path. Its unit tests moved with it.
pub use pcap_obs::LogHistogram;

/// Aggregate audit metrics: decision counters, the summed per-decision
/// energy delta, and log-scaled gap/latency histograms.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MetricsRegistry {
    /// Decisions observed (one per cache-filtered access).
    pub decisions: u64,
    /// Gaps longer than breakeven (shutdown opportunities).
    pub opportunities: u64,
    /// Shutdowns whose off interval exceeded breakeven.
    pub hits: u64,
    /// Shutdowns that lost energy.
    pub misses: u64,
    /// Opportunities with no shutdown.
    pub not_predicted: u64,
    /// Gaps too short to matter, with no shutdown.
    pub short: u64,
    /// Shutdowns attributed to a primary predictor.
    pub shutdowns_primary: u64,
    /// Shutdowns attributed to the backup timeout.
    pub shutdowns_backup: u64,
    /// Sum of per-decision energy deltas (joules; negative = saved).
    pub energy_delta_j: f64,
    /// Distribution of merged idle-gap lengths.
    pub gap_histogram: LogHistogram,
    /// Distribution of shutdown latencies (gap start → spin-down).
    pub latency_histogram: LogHistogram,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Folds one decision into the counters and histograms.
    pub fn observe(&mut self, record: &DecisionRecord) {
        self.decisions += 1;
        self.gap_histogram.record(record.global_gap.as_micros());
        self.energy_delta_j += record.energy_delta_j;
        match record.verdict {
            GapVerdict::Hit => self.hits += 1,
            GapVerdict::Miss => self.misses += 1,
            GapVerdict::NotPredicted => self.not_predicted += 1,
            GapVerdict::Short => self.short += 1,
        }
        if record.verdict == GapVerdict::Hit || record.verdict == GapVerdict::Miss {
            match record.shutdown_source {
                Some(VoteSource::Primary) => self.shutdowns_primary += 1,
                Some(VoteSource::Backup) => self.shutdowns_backup += 1,
                None => {}
            }
        }
        if let Some(latency) = record.shutdown_latency() {
            self.latency_histogram.record(latency.as_micros());
        }
    }

    /// Folds opportunity accounting (kept separate from
    /// [`observe`](Self::observe) because opportunity is a property of
    /// the gap, not the verdict: a sub-breakeven gap can still end in a
    /// `Miss`).
    pub fn observe_opportunity(&mut self, long: bool) {
        if long {
            self.opportunities += 1;
        }
    }

    /// Shutdowns issued (hits + misses).
    pub fn shutdowns(&self) -> u64 {
        self.hits + self.misses
    }
}

/// A [`DecisionObserver`] that only maintains a [`MetricsRegistry`] —
/// the cheapest attached sink, used by the bench guard as the
/// "observer-on" arm.
#[derive(Debug, Clone, Default)]
pub struct MetricsObserver {
    /// The registry being populated.
    pub metrics: MetricsRegistry,
}

impl DecisionObserver for MetricsObserver {
    fn on_decision(&mut self, record: DecisionRecord, energy: &GapEnergy) {
        self.metrics.observe_opportunity(energy.long);
        self.metrics.observe(&record);
    }
}

/// The full-capture sink behind `pcap audit`: keeps every
/// [`DecisionRecord`], maintains the [`MetricsRegistry`], and replays
/// the engine's energy accounting into run-structured totals so they
/// reconcile bitwise with the aggregate [`AppReport`].
#[derive(Debug, Clone, Default)]
pub struct AuditCollector {
    records: Vec<DecisionRecord>,
    metrics: MetricsRegistry,
    /// Per-decision ladder bottom-out states, aligned with `records`.
    /// Populated only under the ladder charge; empty otherwise.
    ladder_bottoms: Vec<Option<usize>>,
    current_run: u32,
    /// Run-local accumulators, flushed into the totals at run
    /// boundaries: the aggregate path sums per-run outcomes
    /// (`report.energy += outcome.energy`), and floating-point addition
    /// is only bitwise-reproducible if the association order matches.
    run_energy: EnergyBreakdown,
    run_base: EnergyBreakdown,
    energy: EnergyBreakdown,
    base_energy: EnergyBreakdown,
}

impl AuditCollector {
    /// An empty collector.
    pub fn new() -> AuditCollector {
        AuditCollector::default()
    }

    fn flush_run(&mut self) {
        self.energy += self.run_energy;
        self.base_energy += self.run_base;
        self.run_energy = EnergyBreakdown::default();
        self.run_base = EnergyBreakdown::default();
    }

    /// Finalizes the collector into its outputs (records, metrics,
    /// ladder bottom-outs, replayed energy totals).
    #[allow(clippy::type_complexity)]
    pub fn finish(
        mut self,
    ) -> (
        Vec<DecisionRecord>,
        MetricsRegistry,
        Vec<Option<usize>>,
        AuditEnergy,
    ) {
        self.flush_run();
        (
            self.records,
            self.metrics,
            self.ladder_bottoms,
            AuditEnergy {
                energy: self.energy,
                base_energy: self.base_energy,
            },
        )
    }

    /// Finalizes the collector alongside the `report` of the evaluation
    /// it observed.
    pub(crate) fn into_outcome(self, report: AppReport) -> AuditOutcome {
        let (records, metrics, ladder_bottoms, audit_energy) = self.finish();
        AuditOutcome {
            report,
            records,
            metrics,
            ladder_bottoms,
            audit_energy,
        }
    }
}

impl DecisionObserver for AuditCollector {
    fn on_run_start(&mut self, run: u32) {
        if run > 0 {
            self.flush_run();
        }
        self.current_run = run;
    }

    fn on_decision(&mut self, mut record: DecisionRecord, energy: &GapEnergy) {
        record.run = self.current_run;
        self.metrics.observe_opportunity(energy.long);
        self.metrics.observe(&record);
        // Replay the engine's exact accounting sequence for this access:
        // busy first, then the gap (same AddAssign order as the engine's
        // run-local accumulation).
        self.run_energy.busy += energy.busy;
        self.run_energy.add_gap(energy.long, energy.managed);
        self.run_base.busy += energy.busy;
        self.run_base.add_gap(energy.long, energy.base);
        self.records.push(record);
    }

    fn on_ladder_bottom(&mut self, bottom: Option<usize>) {
        self.ladder_bottoms.push(bottom);
    }
}

/// The energy totals an [`AuditCollector`] replayed from the decision
/// stream; bitwise-equal to the corresponding [`AppReport`] fields.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AuditEnergy {
    /// Managed energy, replayed per decision.
    pub energy: EnergyBreakdown,
    /// Always-on energy, replayed per decision.
    pub base_energy: EnergyBreakdown,
}

/// The result of auditing one application × one power manager.
#[derive(Debug, Clone)]
pub struct AuditOutcome {
    /// The aggregate report — identical to what
    /// [`evaluate_prepared`](crate::evaluate_prepared) returns for the
    /// same inputs.
    pub report: AppReport,
    /// Every decision, in (run, access) order.
    pub records: Vec<DecisionRecord>,
    /// Aggregate audit metrics over all runs.
    pub metrics: MetricsRegistry,
    /// Per-decision ladder bottom-out states, aligned with `records`.
    /// Empty unless the audit ran under the ladder charge
    /// ([`crate::audit_prepared_multistate`]).
    pub ladder_bottoms: Vec<Option<usize>>,
    /// Energy totals replayed from the decision stream (bitwise-equal
    /// to the report's).
    pub audit_energy: AuditEnergy,
}

/// Audits one power manager against a prepared trace: runs the normal
/// evaluation with an [`AuditCollector`] attached and returns the
/// aggregate report together with the full decision stream, metrics
/// and replayed energy totals.
pub fn audit_prepared(
    prepared: &PreparedTrace,
    config: &SimConfig,
    kind: PowerManagerKind,
) -> AuditOutcome {
    let mut collector = AuditCollector::new();
    let report = evaluate_prepared_with(prepared, config, kind, &mut collector);
    collector.into_outcome(report)
}

/// Serializes decision records as JSON Lines (one compact object per
/// line, trailing newline per line) — the `pcap audit --jsonl` format.
pub fn records_to_jsonl(records: &[DecisionRecord]) -> String {
    let mut out = String::new();
    for record in records {
        out.push_str(&serde_json::to_string(record).expect("decision records serialize"));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(verdict: GapVerdict, gap_us: u64, delta: f64) -> DecisionRecord {
        DecisionRecord {
            run: 0,
            access: 0,
            at: SimTime::from_secs(1),
            pid: Pid(1),
            pc: Pc(0x10),
            signature: Some(Signature(0x10)),
            table_len: Some(2),
            vote_delay: Some(SimDuration::from_secs(1)),
            vote_source: Some(VoteSource::Primary),
            local_gap: SimDuration(gap_us),
            local_verdict: verdict,
            global_gap: SimDuration(gap_us),
            shutdown_at: matches!(verdict, GapVerdict::Hit | GapVerdict::Miss)
                .then(|| SimTime::from_secs(2)),
            shutdown_source: matches!(verdict, GapVerdict::Hit | GapVerdict::Miss)
                .then_some(VoteSource::Primary),
            verdict,
            energy_delta_j: delta,
        }
    }

    #[test]
    fn metrics_registry_classifies_verdicts() {
        let mut m = MetricsRegistry::new();
        m.observe(&record(GapVerdict::Hit, 20_000_000, -1.5));
        m.observe(&record(GapVerdict::Miss, 6_000_000, 0.5));
        m.observe(&record(GapVerdict::NotPredicted, 10_000_000, 0.0));
        m.observe(&record(GapVerdict::Short, 100, 0.0));
        assert_eq!(m.decisions, 4);
        assert_eq!((m.hits, m.misses, m.not_predicted, m.short), (1, 1, 1, 1));
        assert_eq!(m.shutdowns(), 2);
        assert_eq!(m.shutdowns_primary, 2);
        assert_eq!(m.shutdowns_backup, 0);
        assert!((m.energy_delta_j - (-1.0)).abs() < 1e-12);
        assert_eq!(m.gap_histogram.total(), 4);
        assert_eq!(m.latency_histogram.total(), 2, "only shutdowns");
    }

    #[test]
    fn jsonl_is_one_compact_object_per_line() {
        let records = [
            record(GapVerdict::Hit, 20_000_000, -1.5),
            record(GapVerdict::Short, 100, 0.0),
        ];
        let text = records_to_jsonl(&records);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(text.ends_with('\n'));
        assert!(lines[0].starts_with("{\"run\":0,\"access\":0,"));
        assert!(lines[0].contains("\"verdict\":\"Hit\""));
        assert!(lines[0].contains("\"vote_source\":\"Primary\""));
        assert!(lines[1].contains("\"shutdown_at\":null"));
    }

    #[test]
    fn shutdown_latency_measures_from_gap_start() {
        let r = record(GapVerdict::Hit, 20_000_000, -1.0);
        assert_eq!(r.shutdown_latency(), Some(SimDuration::from_secs(1)));
        assert_eq!(
            record(GapVerdict::Short, 5, 0.0).shutdown_latency(),
            None,
            "no shutdown, no latency"
        );
        assert_eq!(r.energy_delta(), Joules(-1.0));
    }
}
