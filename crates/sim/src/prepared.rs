//! Prepare-once trace pipeline.
//!
//! Everything the simulator consumes per run — cache-filtered
//! accesses, serialized completions, idle gaps, lifetimes, lifecycle —
//! depends only on `(trace, cache config, disk config)`, never on the
//! power manager under test. [`PreparedTrace`] computes those
//! [`RunStreams`] exactly once per trace, and [`evaluate_prepared`]
//! borrows them immutably, so a 10-manager comparison grid pays for
//! preparation once instead of ten times. Results are byte-identical
//! to the legacy per-manager path ([`evaluate_app`](crate::evaluate_app) is now a thin
//! wrapper that prepares and evaluates); `tests/determinism.rs` pins
//! that equivalence.

use crate::audit::{DecisionObserver, NullObserver};
use crate::engine::{simulate_run_charged, AppReport, EngineScratch, GapCharge, TwoStateCharge};
use crate::factory::PowerManagerKind;
use crate::metrics::{EnergyBreakdown, PredictionCounts};
use crate::streams::RunStreams;
use crate::sweep::SweepRunner;
use crate::SimConfig;
use pcap_cache::CacheConfig;
use pcap_disk::DiskParams;
use pcap_obs::{NullPipeline, PipelineObserver};
use pcap_trace::ApplicationTrace;
use std::sync::Arc;

/// The manager-independent, shareable view of one application trace:
/// every run's [`RunStreams`], built once.
///
/// The builder records the cache and disk parameters it prepared
/// under; [`evaluate_prepared`] asserts the evaluation config matches
/// them, so stream-relevant config changes cannot silently reuse stale
/// streams (predictor-only knobs — timeouts, table sizes, wait
/// windows — may differ freely).
#[derive(Debug)]
pub struct PreparedTrace {
    app: Arc<str>,
    streams: Vec<RunStreams>,
    total_ios: usize,
    cache: CacheConfig,
    disk: DiskParams,
}

impl PreparedTrace {
    /// Prepares every run of `trace` serially.
    pub fn build(trace: &ApplicationTrace, config: &SimConfig) -> PreparedTrace {
        let streams = trace
            .runs
            .iter()
            .map(|run| RunStreams::build(run, config))
            .collect();
        PreparedTrace::assemble(trace, config, streams)
    }

    /// Prepares every run of `trace`, fanning the per-run builds out on
    /// `runner`. The result is identical to [`build`](Self::build) —
    /// run order is preserved by the runner's canonical-order merge.
    pub fn build_par(
        trace: &ApplicationTrace,
        config: &SimConfig,
        runner: &SweepRunner,
    ) -> PreparedTrace {
        let streams = runner.run(&trace.runs, |_, run| RunStreams::build(run, config));
        PreparedTrace::assemble(trace, config, streams)
    }

    /// [`build`](Self::build) with a [`pcap_obs::PipelineObserver`]
    /// attached: the whole preparation runs inside a `build:{app}`
    /// span (distinct from the runner-level `prepare:{app}` task span
    /// that may wrap it, mirroring the `cell:`/`eval:` split), its
    /// duration feeds the `prepare_us` histogram, and the number of
    /// prepared runs feeds the `prepared_runs` counter. With
    /// [`pcap_obs::NullPipeline`] this is exactly
    /// [`build`](Self::build).
    pub fn build_traced<P: pcap_obs::PipelineObserver>(
        trace: &ApplicationTrace,
        config: &SimConfig,
        pipeline: &P,
    ) -> PreparedTrace {
        if P::ENABLED {
            let name = format!("build:{}", trace.app);
            let started = std::time::Instant::now();
            pipeline.span_begin(&name);
            let prepared = PreparedTrace::build(trace, config);
            pipeline.span_end(&name);
            pipeline.observe_us("prepare_us", started.elapsed().as_micros() as u64);
            pipeline.counter_add("prepared_runs", prepared.len() as u64);
            return prepared;
        }
        PreparedTrace::build(trace, config)
    }

    fn assemble(
        trace: &ApplicationTrace,
        config: &SimConfig,
        streams: Vec<RunStreams>,
    ) -> PreparedTrace {
        PreparedTrace {
            app: Arc::clone(&trace.app),
            streams,
            total_ios: trace.total_ios(),
            cache: config.cache.clone(),
            disk: config.disk.clone(),
        }
    }

    /// The application name (shared with the source trace).
    pub fn app(&self) -> &Arc<str> {
        &self.app
    }

    /// The prepared per-run streams, in run order.
    pub fn streams(&self) -> &[RunStreams] {
        &self.streams
    }

    /// Traced I/O operations of the source trace (pre-cache; a
    /// raw-trace property recorded at build time).
    pub fn total_ios(&self) -> usize {
        self.total_ios
    }

    /// Number of prepared runs.
    pub fn len(&self) -> usize {
        self.streams.len()
    }

    /// Whether the trace has no runs.
    pub fn is_empty(&self) -> bool {
        self.streams.is_empty()
    }

    /// Whether `config` produces the same streams this trace was
    /// prepared under (cache and disk parameters match; predictor
    /// parameters are irrelevant to streams).
    pub fn matches(&self, config: &SimConfig) -> bool {
        self.cache == config.cache && self.disk == config.disk
    }
}

/// Evaluates one power manager against an already-prepared trace —
/// the shared-streams core of [`evaluate_app`](crate::evaluate_app).
///
/// `config` may differ from the preparation config in predictor-only
/// parameters (that is the ablation-sweep use case), but must agree on
/// the stream-relevant cache and disk parameters.
///
/// # Panics
///
/// Panics if `config` disagrees with the preparation config on cache
/// or disk parameters (the streams would be stale).
pub fn evaluate_prepared(
    prepared: &PreparedTrace,
    config: &SimConfig,
    kind: PowerManagerKind,
) -> AppReport {
    evaluate_prepared_with(prepared, config, kind, &mut NullObserver, &NullPipeline)
}

/// [`evaluate_prepared`] with observers attached: a
/// [`DecisionObserver`] for the per-decision audit stream (`pcap
/// audit`'s [`AuditCollector`](crate::AuditCollector), the bench
/// guard's [`MetricsObserver`](crate::MetricsObserver)) and a
/// [`PipelineObserver`] for pipeline-level spans and counters (`pcap
/// profile`). [`NullObserver`] and [`NullPipeline`] compile their layer
/// out.
///
/// Pipeline events: one `eval:{app}×{manager}` span around the whole
/// run loop, one `runs` counter increment per simulated run, and an
/// `eval_us` histogram sample for the span's duration.
///
/// # Panics
///
/// Panics if `config` disagrees with the preparation config on cache
/// or disk parameters (the streams would be stale).
pub fn evaluate_prepared_with<O: DecisionObserver, P: PipelineObserver>(
    prepared: &PreparedTrace,
    config: &SimConfig,
    kind: PowerManagerKind,
    observer: &mut O,
    pipeline: &P,
) -> AppReport {
    if P::ENABLED {
        let name = format!("eval:{}×{}", prepared.app(), kind.label());
        let started = std::time::Instant::now();
        pipeline.span_begin(&name);
        let report = evaluate_charged(prepared, config, kind, &mut TwoStateCharge, observer);
        pipeline.span_end(&name);
        pipeline.observe_us("eval_us", started.elapsed().as_micros() as u64);
        pipeline.counter_add("runs", prepared.len() as u64);
        return report;
    }
    evaluate_charged(prepared, config, kind, &mut TwoStateCharge, observer)
}

/// The prepared-trace driver behind both the two-state and the ladder
/// evaluations: one fresh manager and one scratch, every run simulated
/// in order under `charge`, then the table statistics read after the
/// last run.
///
/// # Panics
///
/// Panics if `config` disagrees with the preparation config on cache
/// or disk parameters (the streams would be stale).
pub(crate) fn evaluate_charged<C: GapCharge, O: DecisionObserver>(
    prepared: &PreparedTrace,
    config: &SimConfig,
    kind: PowerManagerKind,
    charge: &mut C,
    observer: &mut O,
) -> AppReport {
    assert!(
        prepared.matches(config),
        "config changes cache/disk parameters; rebuild the PreparedTrace"
    );
    let mut manager = kind.manager(config);
    let mut report = AppReport {
        app: Arc::clone(prepared.app()),
        manager: kind.label(),
        local: PredictionCounts::default(),
        global: PredictionCounts::default(),
        energy: EnergyBreakdown::default(),
        base_energy: EnergyBreakdown::default(),
        table_entries: None,
        table_aliases: None,
    };
    let mut scratch = EngineScratch::new();
    for (run, streams) in prepared.streams().iter().enumerate() {
        observer.on_run_start(run as u32);
        let outcome = simulate_run_charged(
            streams,
            config,
            &mut manager,
            &mut scratch,
            charge,
            observer,
        );
        report.local += outcome.local;
        report.global += outcome.global;
        report.energy += outcome.energy;
        report.base_energy += outcome.base_energy;
        manager.on_run_end();
    }
    report.table_entries = manager.table_entries();
    report.table_aliases = manager.table_aliases();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::evaluate_app;
    use pcap_trace::TraceRunBuilder;
    use pcap_types::{Fd, FileId, IoKind, Pc, Pid, SimTime};

    fn little_trace() -> ApplicationTrace {
        let mut trace = ApplicationTrace::new("little");
        for r in 0..3u64 {
            let mut b = TraceRunBuilder::new(Pid(1));
            for i in 0..3u64 {
                b.io(
                    SimTime::from_millis(1000 + r * 100 + i * 200),
                    Pid(1),
                    Pc(0x100 + i as u32),
                    IoKind::Read,
                    Fd(3),
                    FileId(1),
                    i * 4096,
                    4096,
                );
            }
            b.exit(SimTime::from_secs(40 + r), Pid(1));
            trace.runs.push(b.finish().unwrap());
        }
        trace
    }

    #[test]
    fn prepared_matches_legacy_path() {
        let trace = little_trace();
        let config = SimConfig::paper();
        let prepared = PreparedTrace::build(&trace, &config);
        assert_eq!(prepared.len(), 3);
        for kind in [
            PowerManagerKind::Timeout,
            PowerManagerKind::PCAP,
            PowerManagerKind::Oracle,
        ] {
            let legacy = evaluate_app(&trace, &config, kind);
            let shared = evaluate_prepared(&prepared, &config, kind);
            assert_eq!(legacy, shared);
        }
    }

    #[test]
    fn parallel_build_is_identical() {
        let trace = little_trace();
        let config = SimConfig::paper();
        let serial = PreparedTrace::build(&trace, &config);
        let parallel = PreparedTrace::build_par(&trace, &config, &SweepRunner::new(4));
        for (a, b) in serial.streams().iter().zip(parallel.streams()) {
            assert_eq!(a.accesses, b.accesses);
            assert_eq!(a.completions, b.completions);
            assert_eq!(a.local_gaps, b.local_gaps);
            assert_eq!(a.global_gaps, b.global_gaps);
        }
    }

    #[test]
    fn predictor_only_config_changes_may_share_streams() {
        let trace = little_trace();
        let config = SimConfig::paper();
        let prepared = PreparedTrace::build(&trace, &config);
        let mut tweaked = config.clone();
        tweaked.timeout = tweaked.timeout * 2;
        assert!(prepared.matches(&tweaked));
        // Must not panic, and must differ from the untweaked result.
        let a = evaluate_prepared(&prepared, &config, PowerManagerKind::Timeout);
        let b = evaluate_prepared(&prepared, &tweaked, PowerManagerKind::Timeout);
        assert_eq!(a.global.opportunities, b.global.opportunities);
    }

    #[test]
    #[should_panic(expected = "cache/disk")]
    fn stream_relevant_config_change_panics() {
        let trace = little_trace();
        let config = SimConfig::paper();
        let prepared = PreparedTrace::build(&trace, &config);
        let mut changed = config.clone();
        changed.cache.capacity_bytes *= 2;
        evaluate_prepared(&prepared, &changed, PowerManagerKind::Timeout);
    }
}
