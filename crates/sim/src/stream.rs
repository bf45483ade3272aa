//! Fleet-scale streaming pipeline: generate → filter → evaluate →
//! drop, device by device, in bounded memory.
//!
//! The prepare-once path ([`PreparedTrace`](crate::PreparedTrace))
//! materializes every run's [`RunStreams`] before evaluating — ideal
//! for a 10-manager grid over six traces, hopeless for a million
//! devices. This module fuses the three pipeline stages instead: each
//! worker owns one [`StreamWorker`] holding a file cache, one stream
//! buffer, one manager and one engine scratch, and pushes every run of
//! every device through *rebuild → simulate → discard* in place. Peak
//! memory is one run's events per worker regardless of fleet size.
//!
//! Determinism contract:
//!
//! * Device `d` of a [`DevicePopulation`] runs app `ALL[d % 6]` under
//!   the seed of [`pcap_workload::device_seed`]; cohort 0 uses the base
//!   seed verbatim, so a six-device fleet at the golden seed is the
//!   legacy six-app grid.
//! * Per device, the evaluation replays
//!   [`evaluate_prepared`](crate::evaluate_prepared)'s accumulation
//!   order exactly (run order, `local → global → energy → base_energy`,
//!   table stats read after the last run), so every
//!   [`DeviceOutcome`] is byte-identical to the prepare-once report for
//!   the same trace.
//! * The fleet is folded in fixed [`FLEET_CHUNK`]-device chunks; chunk
//!   results merge in chunk order. Chunk boundaries do not depend on
//!   `--jobs`, so the aggregate is byte-identical for any worker count.

use crate::audit::{DecisionObserver, NullObserver};
use crate::engine::{simulate_run_observed, AppReport, EngineScratch, RunOutcome};
use crate::factory::{Manager, PowerManagerKind};
use crate::metrics::{EnergyBreakdown, PredictionCounts};
use crate::streams::RunStreams;
use crate::sweep::SweepRunner;
use crate::SimConfig;
use pcap_cache::FileCache;
use pcap_trace::{TraceError, TraceRun};
use pcap_workload::{DevicePopulation, PaperApp};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Devices per work unit. Fixed (never derived from the job count) so
/// that chunk boundaries — and therefore the floating-point merge
/// order — are identical for every `--jobs` value.
pub const FLEET_CHUNK: u64 = 1024;

/// One worker's reusable pipeline state: a [`ShardEvaluator`] (file
/// cache, stream buffer, engine scratch) plus the one power manager it
/// feeds, all recycled run after run and device after device.
///
/// After a warm-up device per app shape, the filter and evaluate
/// stages run allocation-free: every buffer is cleared, never dropped
/// (`tests/zero_alloc_stream.rs` pins this with a counting allocator).
pub struct StreamWorker {
    manager: Manager,
    shard: ShardEvaluator,
}

impl StreamWorker {
    /// Creates a worker for `kind` under `config`.
    ///
    /// Predictor-box recycling is enabled exactly when
    /// [`PowerManagerKind::recyclable_predictors`] holds — the one
    /// manager created here must outlive every device this worker
    /// evaluates, which is what makes recycling sound (pooled boxes
    /// keep handles to this manager's shared state, reset per device).
    pub fn new(config: &SimConfig, kind: PowerManagerKind) -> StreamWorker {
        let mut shard = ShardEvaluator::new(config);
        if kind.recyclable_predictors() {
            shard.scratch.enable_predictor_pool();
        }
        StreamWorker {
            manager: kind.manager(config),
            shard,
        }
    }

    /// Starts a new device: resets the manager's shared prediction
    /// state so the device starts from the same blank slate a fresh
    /// manager would (`Manager::reset_shared` ≡ new, capacity kept).
    pub fn begin_device(&mut self) {
        self.manager.reset_shared();
    }

    /// Streams one run through filter and evaluation — see
    /// [`ShardEvaluator::evaluate_run_observed`].
    pub fn evaluate_run(&mut self, run: &TraceRun) -> RunOutcome {
        self.shard
            .evaluate_run_observed(run, &mut self.manager, &mut NullObserver)
    }

    /// Ends a device: reads the manager's table statistics (exactly
    /// what the prepare-once evaluator reports after its last run).
    pub fn finish_device(&self) -> (Option<usize>, Option<u64>) {
        (self.manager.table_entries(), self.manager.table_aliases())
    }

    /// Evaluates device `device` of `pop` end to end: generates each
    /// run (the only stage that allocates once buffers are warm, per
    /// run rather than per I/O), streams it through
    /// [`evaluate_run`](Self::evaluate_run), and drops it.
    /// `max_runs` truncates the device's Table 1 execution count (the
    /// `--quick` mode); `None` evaluates the full trace.
    ///
    /// # Errors
    ///
    /// Propagates [`TraceError`] from run generation.
    pub fn evaluate_device(
        &mut self,
        pop: &DevicePopulation,
        device: u64,
        max_runs: Option<usize>,
    ) -> Result<DeviceOutcome, TraceError> {
        self.begin_device();
        let runs = max_runs.map_or(pop.runs(device), |cap| pop.runs(device).min(cap));
        let mut out = DeviceOutcome {
            device,
            ..DeviceOutcome::default()
        };
        for run in 0..runs {
            let trace_run = pop.generate_run(device, run)?;
            let outcome = self.evaluate_run(&trace_run);
            out.local += outcome.local;
            out.global += outcome.global;
            out.energy += outcome.energy;
            out.base_energy += outcome.base_energy;
            out.runs += 1;
            out.accesses += self.shard.last_run_accesses() as u64;
        }
        let (entries, aliases) = self.finish_device();
        out.table_entries = entries;
        out.table_aliases = aliases;
        Ok(out)
    }
}

/// Per-shard online evaluator: the recycled rebuild/simulate state of a
/// [`StreamWorker`] *without* a manager — the serving layer owns one
/// [`Manager`] per live device (predictor tables must persist across a
/// device's runs even when other devices' runs interleave between them
/// on the same shard).
///
/// Unlike inside [`StreamWorker::new`], the predictor pool is never
/// enabled here: pooled predictor boxes hold handles into one specific
/// manager's shared table, which is unsound when every call may bring a
/// different manager. Per-run predictor boxes are instead allocated
/// fresh, exactly as [`crate::audit_prepared`] does — which is also
/// what makes the online decision stream byte-identical to the offline
/// audit stream.
pub struct ShardEvaluator {
    config: SimConfig,
    cache: FileCache,
    streams: RunStreams,
    scratch: EngineScratch,
}

impl ShardEvaluator {
    /// Creates an evaluator under `config`.
    pub fn new(config: &SimConfig) -> ShardEvaluator {
        ShardEvaluator {
            config: config.clone(),
            cache: FileCache::new(config.cache.clone()),
            streams: RunStreams::empty(),
            scratch: EngineScratch::new(),
        }
    }

    /// The simulation configuration this evaluator was built for.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Streams one run of one device through filter and evaluation
    /// with an external per-device `manager` and a decision `observer`:
    /// rebuilds the [`RunStreams`] in place against the recycled cache,
    /// simulates, then `manager.on_run_end()` — the exact per-run
    /// sequence of the prepare-once evaluator. The caller is
    /// responsible for [`DecisionObserver::on_run_start`] (it needs the
    /// device's run counter, which lives with the session, not here).
    pub fn evaluate_run_observed<O: DecisionObserver>(
        &mut self,
        run: &TraceRun,
        manager: &mut Manager,
        observer: &mut O,
    ) -> RunOutcome {
        self.streams.rebuild(run, &self.config, &mut self.cache);
        let outcome = simulate_run_observed(
            &self.streams,
            &self.config,
            manager,
            &mut self.scratch,
            observer,
        );
        manager.on_run_end();
        outcome
    }

    /// Cache-filtered disk accesses of the most recent
    /// [`evaluate_run_observed`](Self::evaluate_run_observed).
    pub fn last_run_accesses(&self) -> usize {
        self.streams.accesses.len()
    }
}

/// One device's aggregate evaluation — the streaming equivalent of an
/// [`AppReport`], kept `Copy` so fleet folding never allocates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct DeviceOutcome {
    /// Fleet index of the device.
    pub device: u64,
    /// Executions evaluated (Table 1 count, possibly `--quick`-capped).
    pub runs: u32,
    /// Cache-filtered disk accesses across all executions.
    pub accesses: u64,
    /// Local prediction counts, summed over executions.
    pub local: PredictionCounts,
    /// Global prediction counts, summed over executions.
    pub global: PredictionCounts,
    /// Managed energy breakdown.
    pub energy: EnergyBreakdown,
    /// Always-on energy breakdown.
    pub base_energy: EnergyBreakdown,
    /// Prediction-table entries after the last execution.
    pub table_entries: Option<usize>,
    /// Signature-aliasing events across all executions.
    pub table_aliases: Option<u64>,
}

impl DeviceOutcome {
    /// Fraction of base energy eliminated on this device.
    pub fn savings(&self) -> f64 {
        self.energy.savings_vs(&self.base_energy)
    }

    /// The outcome as a legacy [`AppReport`], for comparison against
    /// the prepare-once path (`app` is the device's application name).
    pub fn as_report(&self, app: &str, kind: PowerManagerKind) -> AppReport {
        AppReport {
            app: Arc::from(app),
            manager: kind.label(),
            local: self.local,
            global: self.global,
            energy: self.energy,
            base_energy: self.base_energy,
            table_entries: self.table_entries,
            table_aliases: self.table_aliases,
        }
    }
}

/// Evaluates one device in isolation and returns the legacy-shaped
/// report — the single-device entry point the parity tests compare
/// byte-for-byte against [`evaluate_prepared`](crate::evaluate_prepared).
///
/// # Errors
///
/// Propagates [`TraceError`] from run generation.
pub fn stream_device_report(
    pop: &DevicePopulation,
    device: u64,
    config: &SimConfig,
    kind: PowerManagerKind,
    max_runs: Option<usize>,
) -> Result<AppReport, TraceError> {
    let mut worker = StreamWorker::new(config, kind);
    let outcome = worker.evaluate_device(pop, device, max_runs)?;
    Ok(outcome.as_report(pop.device(device).app.name(), kind))
}

/// Aggregate counters for a set of devices (one per app, plus the
/// fleet total). `Copy`, so chunk folding stays allocation-free.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct FleetSlot {
    /// Devices folded into this slot.
    pub devices: u64,
    /// Executions evaluated.
    pub runs: u64,
    /// Cache-filtered disk accesses.
    pub accesses: u64,
    /// Local prediction counts.
    pub local: PredictionCounts,
    /// Global prediction counts.
    pub global: PredictionCounts,
    /// Managed energy.
    pub energy: EnergyBreakdown,
    /// Always-on energy.
    pub base_energy: EnergyBreakdown,
    /// Sum of per-device prediction-table entry counts.
    pub table_entries: u64,
    /// Sum of per-device aliasing events.
    pub table_aliases: u64,
}

impl FleetSlot {
    /// Folds one device into the slot (devices arrive in fleet order).
    pub fn absorb(&mut self, outcome: &DeviceOutcome) {
        self.devices += 1;
        self.runs += u64::from(outcome.runs);
        self.accesses += outcome.accesses;
        self.local += outcome.local;
        self.global += outcome.global;
        self.energy += outcome.energy;
        self.base_energy += outcome.base_energy;
        self.table_entries += outcome.table_entries.unwrap_or(0) as u64;
        self.table_aliases += outcome.table_aliases.unwrap_or(0);
    }

    /// Merges another slot (chunks arrive in chunk order).
    pub fn merge(&mut self, other: &FleetSlot) {
        self.devices += other.devices;
        self.runs += other.runs;
        self.accesses += other.accesses;
        self.local += other.local;
        self.global += other.global;
        self.energy += other.energy;
        self.base_energy += other.base_energy;
        self.table_entries += other.table_entries;
        self.table_aliases += other.table_aliases;
    }

    /// Fraction of base energy eliminated across the slot.
    pub fn savings(&self) -> f64 {
        self.energy.savings_vs(&self.base_energy)
    }

    /// Global hit fraction of shutdown opportunities (coverage, §6.1).
    pub fn coverage(&self) -> f64 {
        self.global.coverage()
    }
}

/// Per-chunk accumulator: one [`FleetSlot`] per paper app.
pub(crate) type ChunkSlots = [FleetSlot; 6];

/// The fleet's fixed `[start, end)` chunk boundaries, in device order.
pub(crate) fn fleet_chunks(devices: u64) -> Vec<(u64, u64)> {
    (0..devices.div_ceil(FLEET_CHUNK))
        .map(|c| (c * FLEET_CHUNK, ((c + 1) * FLEET_CHUNK).min(devices)))
        .collect()
}

/// Evaluates the devices of one chunk on a fresh worker, folded per app.
pub(crate) fn evaluate_chunk(
    pop: &DevicePopulation,
    config: &SimConfig,
    kind: PowerManagerKind,
    max_runs: Option<usize>,
    (start, end): (u64, u64),
) -> Result<ChunkSlots, TraceError> {
    let mut worker = StreamWorker::new(config, kind);
    let mut slots = ChunkSlots::default();
    for device in start..end {
        slots[(device % 6) as usize].absorb(&worker.evaluate_device(pop, device, max_runs)?);
    }
    Ok(slots)
}

/// Fleet-aggregate evaluation of a [`DevicePopulation`].
#[derive(Debug, Clone, Serialize)]
pub struct FleetReport {
    /// Fleet size.
    pub devices: u64,
    /// Base seed the fleet derives from.
    pub base_seed: u64,
    /// Power-manager label.
    pub manager: String,
    /// Per-device execution cap (`--quick`), if any.
    pub max_runs: Option<usize>,
    /// Per-app aggregates, in `PaperApp::ALL` order (always six).
    pub per_app: Vec<FleetSlot>,
    /// Whole-fleet aggregate.
    pub total: FleetSlot,
}

impl FleetReport {
    /// Rows of the fleet table: `(app name, slot)` in table order.
    pub fn rows(&self) -> impl Iterator<Item = (&'static str, &FleetSlot)> {
        PaperApp::ALL
            .iter()
            .zip(self.per_app.iter())
            .map(|(app, slot)| (app.name(), slot))
    }

    /// Merges per-chunk slots, arriving in chunk order, into the fleet
    /// report; the first chunk error is returned instead.
    pub(crate) fn from_chunks<E>(
        pop: &DevicePopulation,
        kind: PowerManagerKind,
        max_runs: Option<usize>,
        chunks: impl IntoIterator<Item = Result<ChunkSlots, E>>,
    ) -> Result<FleetReport, E> {
        let mut per_app = ChunkSlots::default();
        for slots in chunks {
            for (into, from) in per_app.iter_mut().zip(slots?.iter()) {
                into.merge(from);
            }
        }
        let mut total = FleetSlot::default();
        for slot in &per_app {
            total.merge(slot);
        }
        Ok(FleetReport {
            devices: pop.devices(),
            base_seed: pop.base_seed(),
            manager: kind.label(),
            max_runs,
            per_app: per_app.to_vec(),
            total,
        })
    }
}

/// Streams the whole fleet through the fused pipeline on `runner`,
/// returning per-app and total aggregates. Memory stays bounded by
/// `jobs × (one run + one worker's recycled state)` regardless of
/// `pop.devices()`; output is byte-identical for every job count (see
/// the module docs for the merge-order argument).
///
/// # Errors
///
/// Propagates the first [`TraceError`] from run generation, in fleet
/// order.
pub fn sweep_fleet(
    pop: &DevicePopulation,
    config: &SimConfig,
    kind: PowerManagerKind,
    runner: &SweepRunner,
    max_runs: Option<usize>,
) -> Result<FleetReport, TraceError> {
    let results = runner.run(&fleet_chunks(pop.devices()), |_, &chunk| {
        evaluate_chunk(pop, config, kind, max_runs, chunk)
    });
    FleetReport::from_chunks(pop, kind, max_runs, results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcap_workload::AppModel;

    fn quick_pop(devices: u64) -> DevicePopulation {
        DevicePopulation::new(devices, 42)
    }

    #[test]
    fn streaming_device_matches_prepared_path() {
        // Device 4 is nedit (cohort 0 → seed 42 verbatim): the full
        // byte-parity grid over all six apps lives in
        // tests/stream_parity.rs; this is the in-crate smoke version.
        let pop = quick_pop(6);
        let config = SimConfig::paper();
        let trace = PaperApp::Nedit.spec().generate_trace(42).unwrap();
        let prepared = crate::PreparedTrace::build(&trace, &config);
        let legacy = crate::evaluate_prepared(&prepared, &config, PowerManagerKind::PCAP);
        let streamed =
            stream_device_report(&pop, 4, &config, PowerManagerKind::PCAP, None).unwrap();
        assert_eq!(legacy, streamed);
    }

    #[test]
    fn shard_evaluator_matches_audit_with_interleaved_devices() {
        // Two devices' runs interleaved through ONE evaluator with
        // per-device managers must each produce the audit stream the
        // offline path produces for that device alone. (nedit and
        // mplayer are the two cheapest apps.)
        let config = SimConfig::paper();
        let kind = PowerManagerKind::PCAP;
        let apps = [PaperApp::Nedit, PaperApp::Mplayer];
        let offline: Vec<_> = apps
            .iter()
            .map(|app| {
                let trace = app.spec().generate_trace(42).unwrap();
                let prepared = crate::PreparedTrace::build(&trace, &config);
                crate::audit_prepared(&prepared, &config, kind)
            })
            .collect();

        let mut eval = ShardEvaluator::new(&config);
        let mut managers = [kind.manager(&config), kind.manager(&config)];
        let mut collectors = [crate::AuditCollector::new(), crate::AuditCollector::new()];
        let traces: Vec<_> = apps
            .iter()
            .map(|app| app.spec().generate_trace(42).unwrap())
            .collect();
        let max_runs = traces.iter().map(|t| t.runs.len()).max().unwrap();
        for run in 0..max_runs {
            for (d, trace) in traces.iter().enumerate() {
                if let Some(trace_run) = trace.runs.get(run) {
                    collectors[d].on_run_start(run as u32);
                    eval.evaluate_run_observed(trace_run, &mut managers[d], &mut collectors[d]);
                }
            }
        }
        for (d, collector) in collectors.into_iter().enumerate() {
            let (records, metrics, energy) = collector.finish();
            assert_eq!(records, offline[d].records, "device {d} decision stream");
            assert_eq!(metrics, offline[d].metrics, "device {d} metrics");
            assert_eq!(energy, offline[d].audit_energy, "device {d} energy");
        }
    }

    #[test]
    fn fleet_output_is_jobs_independent() {
        let pop = quick_pop(13); // crosses a cohort boundary
        let config = SimConfig::paper();
        let serial = sweep_fleet(
            &pop,
            &config,
            PowerManagerKind::PCAP,
            &SweepRunner::new(1),
            Some(2),
        )
        .unwrap();
        let parallel = sweep_fleet(
            &pop,
            &config,
            PowerManagerKind::PCAP,
            &SweepRunner::new(8),
            Some(2),
        )
        .unwrap();
        assert_eq!(serial.per_app, parallel.per_app);
        assert_eq!(serial.total, parallel.total);
        assert_eq!(serial.total.devices, 13);
        assert_eq!(
            serial.total.runs,
            (0..13).map(|d| pop.runs(d).min(2) as u64).sum::<u64>()
        );
    }

    #[test]
    fn chunk_boundaries_do_not_depend_on_jobs() {
        // A fleet larger than one chunk folds identically through one
        // worker and many. (2 chunks × small per-device cap.)
        let pop = quick_pop(FLEET_CHUNK + 7);
        let config = SimConfig::paper();
        let a = sweep_fleet(
            &pop,
            &config,
            PowerManagerKind::Timeout,
            &SweepRunner::new(1),
            Some(1),
        )
        .unwrap();
        let b = sweep_fleet(
            &pop,
            &config,
            PowerManagerKind::Timeout,
            &SweepRunner::new(4),
            Some(1),
        )
        .unwrap();
        assert_eq!(a.total, b.total);
        assert_eq!(a.total.devices, FLEET_CHUNK + 7);
    }

    #[test]
    fn adaptive_timeout_does_not_recycle_predictors() {
        assert!(!PowerManagerKind::AdaptiveTimeout.recyclable_predictors());
        assert!(PowerManagerKind::PCAP.recyclable_predictors());
        // And a non-recyclable worker still evaluates correctly.
        let pop = quick_pop(2);
        let config = SimConfig::paper();
        let mut worker = StreamWorker::new(&config, PowerManagerKind::AdaptiveTimeout);
        let out = worker.evaluate_device(&pop, 0, Some(1)).unwrap();
        assert_eq!(out.runs, 1);
    }

    #[test]
    fn fleet_report_rows_follow_table_order() {
        let pop = quick_pop(7);
        let config = SimConfig::paper();
        let report = sweep_fleet(
            &pop,
            &config,
            PowerManagerKind::PCAP,
            &SweepRunner::new(2),
            Some(1),
        )
        .unwrap();
        let names: Vec<&str> = report.rows().map(|(n, _)| n).collect();
        assert_eq!(
            names,
            ["mozilla", "writer", "impress", "xemacs", "nedit", "mplayer"]
        );
        // 7 devices: mozilla gets 2 (indices 0 and 6), others 1.
        assert_eq!(report.per_app[0].devices, 2);
        assert_eq!(report.per_app[1].devices, 1);
        assert_eq!(report.total.devices, 7);
    }
}
