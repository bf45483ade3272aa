//! `fleet-stream`: `sweep_fleet` over a 2048-device fleet, one manager
//! per access. Generation and cache filtering dominate this path.
//!
//! The traced run drives the same fused pipeline from the benchmark's
//! own chunk loop (`generate_run` → `RunStreams::rebuild` →
//! `simulate_run_observed`), so each call gets a span, and checks that
//! its fleet totals equal `sweep_fleet`'s bit for bit. Filtering runs
//! inside `rebuild`, so a probe pass afterwards times `filter_run_into`
//! and a whole rebuild back to back on each run; their ratio splits the
//! traced rebuild time into filter and stream build.

use crate::layers::{fold, self_ns};
use crate::stats::Samples;
use crate::{peak_rss_mb, ratio, record_shares, seconds, within, Metrics, Outcome, Spec};
use pcap_cache::{filter_run_into, FileCache};
use pcap_obs::{render_chrome_trace, span, TraceRecorder};
use pcap_sim::{
    simulate_run_observed, sweep_fleet, DeviceOutcome, EngineScratch, FleetReport, FleetSlot,
    NullObserver, PowerManagerKind, RunStreams, SimConfig, SweepRunner, FLEET_CHUNK,
};
use pcap_trace::TraceError;
use pcap_workload::DevicePopulation;
use std::ops::Range;
use std::time::{Duration, Instant};

/// Sizes of `fleet-stream`.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// Fleet size. `sweep_fleet` folds fixed `FLEET_CHUNK`-device
    /// chunks, so a fleet needs two full chunks to keep two workers
    /// busy.
    pub devices: u64,
    /// Executions evaluated per device.
    pub max_runs: usize,
}

impl FleetSpec {
    /// The full-size workload: 2048 devices × 1 run.
    pub fn full() -> FleetSpec {
        FleetSpec {
            devices: 2 * FLEET_CHUNK,
            max_runs: 1,
        }
    }
}

const KIND: PowerManagerKind = PowerManagerKind::PCAP;

/// Sweep workers: one per core of the two-core machine the fleet is
/// sized for.
const JOBS: usize = 2;

pub(crate) fn run(plan: &FleetSpec, spec: &Spec, seed: u64, traced: bool) -> Outcome {
    let config = SimConfig::paper();
    let runner = SweepRunner::new(JOBS);
    let mut out = Outcome::default();
    let mut metrics = Metrics::default();

    // Set-up: the population, plus a one-device-per-app warm-up sweep
    // so lazily initialized state settles before timing.
    let mut setup = Vec::new();
    let mut pop = DevicePopulation::new(plan.devices, seed);
    for _ in 0..if traced { 1 } else { spec.setups.max(1) } {
        let started = Instant::now();
        pop = DevicePopulation::new(plan.devices, seed);
        let warm = DevicePopulation::new(plan.devices.min(6), seed);
        if let Err(e) = sweep_fleet(
            &warm,
            &config,
            KIND,
            &SweepRunner::new(1),
            Some(plan.max_runs),
        ) {
            out.errors.push(format!("warm-up sweep: {e}"));
        }
        setup.push(started.elapsed());
    }
    let runs: u64 = (0..pop.devices())
        .map(|d| pop.runs(d).min(plan.max_runs) as u64)
        .sum();
    let sweep = || sweep_fleet(&pop, &config, KIND, &runner, Some(plan.max_runs));

    if !traced {
        let mut walls: Vec<Duration> = Vec::new();
        let mut reports: Vec<String> = Vec::new();
        let mut decisions = 0.0;
        within(spec.seconds, || {
            let started = Instant::now();
            out.attempted += runs;
            match sweep() {
                Ok(report) => {
                    let wall = started.elapsed();
                    decisions = report.total.accesses as f64;
                    walls.push(wall);
                    reports.push(report_text(&report));
                    if report.total.runs != runs {
                        out.errors.push(format!(
                            "sweep evaluated {} runs, expected {runs}",
                            report.total.runs
                        ));
                    }
                    Some(wall)
                }
                Err(e) => {
                    out.failed += runs;
                    out.errors.push(format!("sweep: {e}"));
                    None
                }
            }
        });
        for (i, report) in reports.iter().enumerate().skip(1) {
            if *report != reports[0] {
                out.failed += runs;
                out.errors
                    .push(format!("repeat {i} fleet report differs from repeat 0"));
            }
        }
        let rates = walls.iter().map(|w| decisions / w.as_secs_f64()).collect();
        let latencies = walls.iter().map(|w| w.as_secs_f64() * 1e3).collect();
        metrics.timing("setup_s", &seconds(&setup));
        metrics.timing("decisions_per_s", &Samples::new(rates));
        metrics.timing("run_latency_p50_ms", &Samples::new(latencies));
        metrics.set("peak_rss_mb", peak_rss_mb());
        out.metrics = metrics.finish(false);
        return out;
    }

    // Traced: the untraced sweep is the reference and the overhead
    // baseline; the benchmark's own loop must reproduce it exactly.
    out.attempted = 2 * runs;
    let started = Instant::now();
    let reference = match sweep() {
        Ok(report) => report,
        Err(e) => {
            out.failed = out.attempted;
            out.errors.push(format!("sweep: {e}"));
            out.metrics = metrics.finish(true);
            return out;
        }
    };
    let untraced_wall = started.elapsed();

    let recorder = TraceRecorder::new();
    let chunks: Vec<Range<u64>> = (0..pop.devices())
        .step_by(FLEET_CHUNK as usize)
        .map(|start| start..(start + FLEET_CHUNK).min(pop.devices()))
        .collect();
    let started = Instant::now();
    let results = runner.run_observed(
        "fleet",
        &chunks,
        |_, range| traced_chunk(&pop, &config, plan.max_runs, range.clone(), &recorder),
        |_, range| format!("fleet:{}..{}", range.start, range.end),
        &recorder,
    );
    let traced_wall = started.elapsed();
    let probes = runner.run_observed(
        "probe",
        &chunks,
        |_, range| probe_chunk(&pop, &config, plan.max_runs, range.clone(), &recorder),
        |_, range| format!("probe:{}..{}", range.start, range.end),
        &recorder,
    );

    let mut per_app = [FleetSlot::default(); 6];
    let mut events = 0u64;
    let (mut hits, mut misses) = (0u64, 0u64);
    for (chunk, probe) in results.into_iter().zip(probes) {
        match chunk.and_then(|chunk| Ok((chunk, probe?))) {
            Ok(((slots, chunk_events), (chunk_hits, chunk_misses))) => {
                for (into, from) in per_app.iter_mut().zip(&slots) {
                    into.merge(from);
                }
                events += chunk_events;
                hits += chunk_hits;
                misses += chunk_misses;
            }
            Err(e) => out.errors.push(format!("traced chunk: {e}")),
        }
    }
    let mut total = FleetSlot::default();
    for slot in &per_app {
        total.merge(slot);
    }
    let decomposed = FleetReport {
        per_app: per_app.to_vec(),
        total,
        ..reference.clone()
    };
    if report_text(&decomposed) != report_text(&reference) {
        out.failed += runs;
        out.errors
            .push("traced fleet totals differ from sweep_fleet's FleetReport".to_owned());
    }

    let layers = fold(&recorder.events());
    let workers: Vec<_> = recorder
        .workers()
        .into_iter()
        .filter(|w| w.scope == "fleet")
        .collect();
    let busy_ns = workers.iter().map(|w| w.busy_us as f64 * 1e3).sum::<f64>();
    let generate = self_ns(&layers, "generate");
    let rebuild = self_ns(&layers, "rebuild");
    let engine = self_ns(&layers, "engine");
    // Filtering is the part of each rebuild that the probe's adjacent
    // filter-alone and rebuild calls attribute to it.
    let filter = rebuild
        * ratio(
            self_ns(&layers, "probe_filter"),
            self_ns(&layers, "probe_rebuild"),
        );
    let decisions = total.accesses as f64;
    let events = events as f64;
    metrics.set("workload.generate_ns_per_event", ratio(generate, events));
    metrics.set("cache.filter_ns_per_event", ratio(filter, events));
    metrics.set(
        "cache.hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
    );
    metrics.set("sim.rebuild_ns_per_event", ratio(rebuild, events));
    metrics.set("sim.engine_ns_per_decision", ratio(engine, decisions));
    metrics.set(
        "sim.sweep_busy_fraction",
        ratio(
            busy_ns,
            workers.len() as f64 * traced_wall.as_nanos() as f64,
        ),
    );
    metrics.set(
        "obs.tracing_overhead",
        traced_wall.as_secs_f64() / untraced_wall.as_secs_f64() - 1.0,
    );
    metrics.set("sim_decisions", decisions);
    metrics.set("sim_energy_savings", total.savings());
    out.table = record_shares(
        &mut metrics,
        &[
            ("share.generate", generate),
            ("share.filter", filter),
            ("share.streams", rebuild - filter),
            ("share.engine", engine),
        ],
        busy_ns,
    );
    out.chrome_trace = Some(render_chrome_trace(&recorder));
    out.metrics = metrics.finish(true);
    out
}

/// A fleet report as text; the float formatting round-trips, so equal
/// text means bit-identical values.
fn report_text(report: &FleetReport) -> String {
    serde_json::to_string(report).expect("fleet reports serialize")
}

/// One chunk of `sweep_fleet`'s fused pipeline, call for call what
/// `StreamWorker::evaluate_device` does, with a span around each call.
/// Returns the chunk's per-app slots and the trace events it streamed.
fn traced_chunk(
    pop: &DevicePopulation,
    config: &SimConfig,
    max_runs: usize,
    devices: Range<u64>,
    recorder: &TraceRecorder,
) -> Result<([FleetSlot; 6], u64), TraceError> {
    let mut manager = KIND.manager(config);
    let mut scratch = EngineScratch::new();
    if KIND.recyclable_predictors() {
        scratch.enable_predictor_pool();
    }
    let mut cache = FileCache::new(config.cache.clone());
    let mut streams = RunStreams::empty();
    let mut slots = [FleetSlot::default(); 6];
    let mut events = 0u64;
    for device in devices {
        manager.reset_shared();
        let mut outcome = DeviceOutcome {
            device,
            runs: 0,
            accesses: 0,
            local: Default::default(),
            global: Default::default(),
            energy: Default::default(),
            base_energy: Default::default(),
            table_entries: None,
            table_aliases: None,
        };
        for run in 0..pop.runs(device).min(max_runs) {
            let trace_run = {
                let _span = span(recorder, "generate");
                pop.generate_run(device, run)?
            };
            events += trace_run.events.len() as u64;
            {
                let _span = span(recorder, "rebuild");
                streams.rebuild(&trace_run, config, &mut cache);
            }
            let result = {
                let _span = span(recorder, "engine");
                let result = simulate_run_observed(
                    &streams,
                    config,
                    &mut manager,
                    &mut scratch,
                    &mut NullObserver,
                );
                manager.on_run_end();
                result
            };
            outcome.local += result.local;
            outcome.global += result.global;
            outcome.energy += result.energy;
            outcome.base_energy += result.base_energy;
            outcome.runs += 1;
            outcome.accesses += streams.accesses.len() as u64;
        }
        outcome.table_entries = manager.table_entries();
        outcome.table_aliases = manager.table_aliases();
        slots[(device % 6) as usize].absorb(&outcome);
    }
    Ok((slots, events))
}

/// Times `filter_run_into` alone and then a whole `RunStreams::rebuild`
/// on each of the chunk's runs, each on a cache of its own, so the two
/// are measured side by side; returns the page hits and misses.
fn probe_chunk(
    pop: &DevicePopulation,
    config: &SimConfig,
    max_runs: usize,
    devices: Range<u64>,
    recorder: &TraceRecorder,
) -> Result<(u64, u64), TraceError> {
    let mut filter_cache = FileCache::new(config.cache.clone());
    let mut rebuild_cache = FileCache::new(config.cache.clone());
    let mut accesses = Vec::new();
    let mut streams = RunStreams::empty();
    let (mut hits, mut misses) = (0, 0);
    for device in devices {
        for run in 0..pop.runs(device).min(max_runs) {
            let trace_run = pop.generate_run(device, run)?;
            accesses.clear();
            let stats = {
                let _span = span(recorder, "probe_filter");
                filter_run_into(&trace_run, &mut filter_cache, &mut accesses)
            };
            hits += stats.page_hits;
            misses += stats.page_misses;
            let _span = span(recorder, "probe_rebuild");
            streams.rebuild(&trace_run, config, &mut rebuild_cache);
        }
    }
    Ok((hits, misses))
}
