//! The workbench: generated traces plus a memoized report cache, shared
//! by all experiments.
//!
//! Since the prepare-once pipeline, the workbench also owns one lazily
//! built [`PreparedTrace`] per application: every `(app, manager)`
//! cell — warmed in parallel or computed on demand — simulates against
//! that shared preparation, so the manager grid pays for cache
//! filtering and gap extraction once per app instead of once per cell.

use pcap_core::PcapVariant;
use pcap_sim::{
    decode_reports, encode_reports, evaluate_app, evaluate_prepared, run_journaled, AppReport,
    Journal, JournalError, PowerManagerKind, PreparedTrace, SimConfig, SweepRunner,
};
use pcap_trace::{ApplicationTrace, TraceError};
use pcap_workload::{AppModel, PaperApp};
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// Every `(app, manager)` cell the experiment suite reads through the
/// memo, in canonical order. Warming this grid up front (in parallel)
/// makes `pcap all`/`pcap verify` embarrassingly parallel while their
/// rendered output stays byte-identical to a serial run.
pub const GRID_KINDS: [PowerManagerKind; 10] = [
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

/// One report-memo cell.
type Cell = (usize, PowerManagerKind);

/// Generated traces for the six-application suite plus a memo of
/// simulator reports, so experiments that share configurations (Figures
/// 6–8 all need TP/LT/PCAP) do not re-simulate.
#[derive(Debug)]
pub struct Workbench {
    config: SimConfig,
    seed: u64,
    traces: Vec<ApplicationTrace>,
    prepared: Vec<OnceLock<PreparedTrace>>,
    memo: Mutex<HashMap<Cell, AppReport>>,
}

impl Workbench {
    /// Generates the full paper suite under `seed`.
    ///
    /// # Errors
    ///
    /// Propagates trace-validation failures from the generator (a
    /// workload-spec bug).
    pub fn generate(seed: u64, config: SimConfig) -> Result<Workbench, TraceError> {
        Workbench::generate_par(seed, config, 1)
    }

    /// Like [`Workbench::generate`], but generates the six application
    /// traces on `jobs` worker threads. Each trace is a pure function
    /// of `(app, seed)` and the results are merged in [`PaperApp::ALL`]
    /// order, so the workbench is identical for every job count.
    ///
    /// # Errors
    ///
    /// Propagates trace-validation failures from the generator (a
    /// workload-spec bug).
    pub fn generate_par(
        seed: u64,
        config: SimConfig,
        jobs: usize,
    ) -> Result<Workbench, TraceError> {
        let traces = SweepRunner::new(jobs)
            .run(&PaperApp::ALL, |_, app| app.spec().generate_trace(seed))
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Workbench::from_traces_seeded(seed, traces, config))
    }

    /// Builds a workbench from pre-generated traces (tests, custom
    /// suites).
    pub fn from_traces(traces: Vec<ApplicationTrace>, config: SimConfig) -> Workbench {
        Workbench::from_traces_seeded(0, traces, config)
    }

    /// Builds a workbench from pre-generated traces, recording the seed
    /// they were generated with.
    pub fn from_traces_seeded(
        seed: u64,
        traces: Vec<ApplicationTrace>,
        config: SimConfig,
    ) -> Workbench {
        let prepared = traces.iter().map(|_| OnceLock::new()).collect();
        Workbench {
            config,
            seed,
            traces,
            prepared,
            memo: Mutex::new(HashMap::new()),
        }
    }

    /// This workbench with every trace cut to its first `max_runs`
    /// executions: the `--quick` suite of `pcap bench` and
    /// `pcap profile`. Preparations and the memo start empty.
    pub fn truncated(self, max_runs: usize) -> Workbench {
        let mut traces = self.traces;
        for trace in &mut traces {
            trace.runs.truncate(max_runs);
        }
        Workbench::from_traces_seeded(self.seed, traces, self.config)
    }

    /// The shared [`PreparedTrace`] of application `trace_idx`, built
    /// on first use. All manager-grid cells of the application borrow
    /// this one preparation.
    pub fn prepared(&self, trace_idx: usize) -> &PreparedTrace {
        self.prepared[trace_idx]
            .get_or_init(|| PreparedTrace::build(&self.traces[trace_idx], &self.config))
    }

    /// Builds every application's [`PreparedTrace`] up front, fanning
    /// the builds out on `jobs` worker threads. Idempotent.
    pub fn prepare_all(&self, jobs: usize) {
        let indices: Vec<usize> = (0..self.traces.len()).collect();
        SweepRunner::new(jobs).run(&indices, |_, &i| {
            self.prepared(i);
        });
    }

    /// Simulates every `(trace, kind)` cell not already memoized, on
    /// `jobs` worker threads, and fills the memo.
    ///
    /// The per-cell simulation is a pure function of
    /// `(trace, config, kind)`, so a warmed workbench returns exactly
    /// the reports a cold one would — parallel warm-up changes wall
    /// clock, never output. For the same reason concurrent callers
    /// need no coordination beyond the memo lock: a cell two of them
    /// simulate lands in the memo with identical bytes either way.
    pub fn warm_up(&self, kinds: &[PowerManagerKind], jobs: usize) {
        let pending: Vec<Cell> = {
            let memo = self.memo.lock().expect("memo lock");
            self.grid(kinds)
                .filter(|cell| !memo.contains_key(cell))
                .collect()
        };
        if !pending.is_empty() {
            // Share one preparation per app across the pending cells.
            self.prepare_all(jobs);
            let reports = SweepRunner::new(jobs).run(&pending, |_, &(trace_idx, kind)| {
                evaluate_prepared(self.prepared(trace_idx), &self.config, kind)
            });
            self.memo
                .lock()
                .expect("memo lock")
                .extend(pending.into_iter().zip(reports));
        }
    }

    /// [`warm_up`](Self::warm_up) through a crash-safe journal (`pcap
    /// run --journal`): each `(trace, kind)` cell is one journal record
    /// keyed `trace << 32 | kind index`, so a killed run resumes from
    /// the finished cells instead of recomputing them. Every cell is
    /// decoded from the journal into the memo, so the experiments render
    /// byte-identically to an unjournaled run.
    ///
    /// # Errors
    ///
    /// [`JournalError`] on journal I/O or integrity failures.
    pub fn warm_up_journaled(
        &self,
        kinds: &[PowerManagerKind],
        jobs: usize,
        journal: &mut Journal,
    ) -> Result<(), JournalError> {
        self.prepare_all(jobs);
        // `grid` is app-major, so `i % kinds.len()` is the kind index.
        let cells: Vec<(u64, Cell)> = self
            .grid(kinds)
            .enumerate()
            .map(|(i, cell)| (((cell.0 as u64) << 32) | (i % kinds.len()) as u64, cell))
            .collect();
        let results = run_journaled(
            journal,
            &SweepRunner::new(jobs),
            &cells,
            |&(trace_idx, kind)| {
                let report = evaluate_prepared(self.prepared(trace_idx), &self.config, kind);
                Ok(encode_reports(std::slice::from_ref(&report)))
            },
        )?;
        let mut memo = self.memo.lock().expect("memo lock");
        for ((key, cell), bytes) in cells.into_iter().zip(results) {
            let report = decode_reports(&bytes)
                .map_err(|e| e.to_string())
                .and_then(|mut one| one.pop().ok_or_else(|| "empty cell".to_owned()))
                .map_err(|reason| JournalError::Corrupt {
                    offset: 0,
                    reason: format!("cell {key:#018x} payload: {reason}"),
                })?;
            memo.insert(cell, report);
        }
        Ok(())
    }

    /// Every `(trace, kind)` cell, app-major: the order of the warm-up,
    /// its journal and [`reports`](Self::reports).
    fn grid<'a>(&self, kinds: &'a [PowerManagerKind]) -> impl Iterator<Item = Cell> + 'a {
        (0..self.traces.len())
            .flat_map(move |trace_idx| kinds.iter().map(move |&kind| (trace_idx, kind)))
    }

    /// The reports of every application under every kind, app-major ×
    /// kind: one seed's grid as [`crate::run_sweep`] returns it.
    pub fn reports(&self, kinds: &[PowerManagerKind]) -> Vec<AppReport> {
        self.grid(kinds)
            .map(|(trace_idx, kind)| self.report(trace_idx, kind))
            .collect()
    }

    /// The simulation configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The seed the suite was generated with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The generated traces, in [`PaperApp::ALL`] order.
    pub fn traces(&self) -> &[ApplicationTrace] {
        &self.traces
    }

    /// The simulator report for one application × one manager,
    /// memoized.
    pub fn report(&self, trace_idx: usize, kind: PowerManagerKind) -> AppReport {
        if let Some(report) = self.memo.lock().expect("memo lock").get(&(trace_idx, kind)) {
            return report.clone();
        }
        let report = evaluate_prepared(self.prepared(trace_idx), &self.config, kind);
        self.memo
            .lock()
            .expect("memo lock")
            .insert((trace_idx, kind), report.clone());
        report
    }

    /// Evaluates application `trace_idx` under a *modified*
    /// configuration (the ablation sweeps), sharing this workbench's
    /// prepared streams whenever `config` keeps the stream-relevant
    /// cache/disk parameters and rebuilding them only when it does
    /// not. Not memoized — ablation configs are transient.
    pub fn evaluate_with(
        &self,
        trace_idx: usize,
        config: &SimConfig,
        kind: PowerManagerKind,
    ) -> AppReport {
        let prepared = self.prepared(trace_idx);
        if prepared.matches(config) {
            evaluate_prepared(prepared, config, kind)
        } else {
            evaluate_app(&self.traces[trace_idx], config, kind)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcap_trace::TraceRunBuilder;
    use pcap_types::{Fd, FileId, IoKind, Pc, Pid, SimTime};

    fn tiny_trace() -> ApplicationTrace {
        let mut trace = ApplicationTrace::new("tiny");
        let mut b = TraceRunBuilder::new(Pid(1));
        b.io(
            SimTime::from_secs(1),
            Pid(1),
            Pc(0x1),
            IoKind::Read,
            Fd(3),
            FileId(1),
            0,
            4096,
        );
        b.exit(SimTime::from_secs(30), Pid(1));
        trace.runs.push(b.finish().unwrap());
        trace
    }

    #[test]
    fn warm_up_fills_memo_identically_for_any_job_count() {
        let serial = Workbench::from_traces(vec![tiny_trace()], SimConfig::paper());
        let parallel = Workbench::from_traces(vec![tiny_trace()], SimConfig::paper());
        serial.warm_up(&GRID_KINDS, 1);
        parallel.warm_up(&GRID_KINDS, 8);
        assert_eq!(serial.memo.lock().unwrap().len(), GRID_KINDS.len());
        for kind in GRID_KINDS {
            assert_eq!(
                serial.report(0, kind),
                parallel.report(0, kind),
                "{}",
                kind.label()
            );
        }
        // A second warm-up has nothing left to simulate.
        serial.warm_up(&GRID_KINDS, 4);
        assert_eq!(serial.memo.lock().unwrap().len(), GRID_KINDS.len());
    }

    #[test]
    fn concurrent_warm_ups_return_the_serial_reports() {
        let traces = || vec![tiny_trace(), tiny_trace()];
        let serial = Workbench::from_traces(traces(), SimConfig::paper());
        serial.warm_up(&GRID_KINDS, 1);
        let bench = Workbench::from_traces(traces(), SimConfig::paper());
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    start.wait();
                    bench.warm_up(&GRID_KINDS, 2);
                });
            }
        });
        assert_eq!(*bench.memo.lock().unwrap(), *serial.memo.lock().unwrap());
    }

    #[test]
    fn generate_par_matches_serial_generation() {
        let serial = Workbench::generate(7, SimConfig::paper()).expect("valid");
        let parallel = Workbench::generate_par(7, SimConfig::paper(), 6).expect("valid");
        assert_eq!(serial.traces(), parallel.traces());
        assert_eq!(parallel.seed(), 7);
    }

    #[test]
    fn memoizes_reports() {
        let bench = Workbench::from_traces(vec![tiny_trace()], SimConfig::paper());
        let a = bench.report(0, PowerManagerKind::Timeout);
        let b = bench.report(0, PowerManagerKind::Timeout);
        assert_eq!(a, b);
        assert_eq!(bench.memo.lock().unwrap().len(), 1);
        assert_eq!(bench.traces().len(), 1);
        assert_eq!(bench.seed(), 0);
    }

    #[test]
    fn evaluate_with_shares_or_rebuilds_streams() {
        let bench = Workbench::from_traces(vec![tiny_trace()], SimConfig::paper());
        let baseline = bench.evaluate_with(0, bench.config(), PowerManagerKind::Timeout);
        // Predictor-only change: shares the prepared streams.
        let mut longer = bench.config().clone();
        longer.timeout = longer.timeout * 4;
        let ablated = bench.evaluate_with(0, &longer, PowerManagerKind::Timeout);
        assert_eq!(baseline.global.opportunities, ablated.global.opportunities);
        // Stream-relevant change: must rebuild, not panic.
        let mut bigger_cache = bench.config().clone();
        bigger_cache.cache.capacity_bytes *= 4;
        let rebuilt = bench.evaluate_with(0, &bigger_cache, PowerManagerKind::Timeout);
        assert_eq!(&*rebuilt.app, "tiny");
    }
}
