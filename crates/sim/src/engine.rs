//! The trace-driven multi-process power-management simulator.
//!
//! One pass over each execution produces both evaluations the paper
//! reports:
//!
//! * **local** (Figure 6): every process's predictor classified against
//!   that process's own idle gaps, summed over processes;
//! * **global** (Figures 7–10): per-process standing votes combined by
//!   the [`GlobalPredictor`]; the disk shuts down at the latest
//!   vote-ready instant, with energy integrated per Table 2 and
//!   mispredictions attributed to the last-deciding predictor.
//!
//! Interpretation choices (see `DESIGN.md` §2): a shutdown is a *hit*
//! iff its device-off interval exceeds the breakeven time; trace time
//! is not stretched by spin-ups; the interval before a run's first disk
//! access is excluded; the terminal gap (last access → run end) is
//! included.
//!
//! The simulation borrows a pre-built [`RunStreams`] (which carries the
//! run's accesses, gaps, lifetimes and lifecycle) and mutates only the
//! manager plus a reusable [`EngineScratch`], so one prepared stream
//! can be shared by the whole manager grid — see [`crate::prepared`].
//!
//! This is the crate's only per-access loop (`simulate_run_charged`).
//! It is generic over the decision observer and over the per-gap energy
//! charge: the two-state Table 2 charge here, or the §7 ladder charge
//! of [`crate::multistate`].

use crate::audit::{DecisionObserver, DecisionRecord, GapEnergy};
use crate::factory::{Manager, PowerManagerKind};
use crate::metrics::{EnergyBreakdown, PredictionCounts};
use crate::prepared::{evaluate_prepared, PreparedTrace};
use crate::streams::{LifecycleEvent, LifecycleKind, RunStreams};
use crate::SimConfig;
use pcap_core::{GlobalDecision, GlobalPredictor, IdlePredictor, VoteSource};
use pcap_disk::{DiskParams, GapBreakdown, LowPowerState};
use pcap_trace::ApplicationTrace;
use pcap_types::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// The simulator's verdict on one application × one power manager.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppReport {
    /// Application name (shared with the source trace).
    pub app: std::sync::Arc<str>,
    /// Power-manager label ("TP", "PCAPh", …).
    pub manager: String,
    /// Local (per-process) prediction counts, summed over processes and
    /// executions — Figure 6.
    pub local: PredictionCounts,
    /// Global prediction counts — Figures 7, 9, 10.
    pub global: PredictionCounts,
    /// Managed energy breakdown — Figure 8.
    pub energy: EnergyBreakdown,
    /// Unmanaged (always-spinning) energy breakdown — Figure 8 "Base".
    pub base_energy: EnergyBreakdown,
    /// Prediction-table entries after all executions — Table 3.
    pub table_entries: Option<usize>,
    /// Detected signature-aliasing events (distinct PC paths colliding
    /// on one signature) across all executions.
    pub table_aliases: Option<u64>,
}

impl AppReport {
    /// Fraction of base energy eliminated (the §6.3 headline numbers).
    pub fn savings(&self) -> f64 {
        self.energy.savings_vs(&self.base_energy)
    }
}

/// Evaluates one power manager over a full application trace (all
/// executions, shared prediction state per the manager's reuse policy).
///
/// Prepares the trace's [`RunStreams`] internally; callers evaluating
/// *several* managers over the same trace should build one
/// [`PreparedTrace`] and call [`evaluate_prepared`] per manager
/// instead, sharing the preparation.
pub fn evaluate_app(
    trace: &ApplicationTrace,
    config: &SimConfig,
    kind: PowerManagerKind,
) -> AppReport {
    let prepared = PreparedTrace::build(trace, config);
    evaluate_prepared(&prepared, config, kind)
}

/// The verdict on one idle gap under a power manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GapVerdict {
    /// Shutdown whose device-off interval exceeded breakeven.
    Hit,
    /// Shutdown that lost energy (off interval ≤ breakeven).
    Miss,
    /// Opportunity (gap > breakeven) with no shutdown.
    NotPredicted,
    /// Gap too short to matter; no shutdown was issued.
    Short,
}

/// Per-run simulation outcome.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOutcome {
    /// Local prediction counts.
    pub local: PredictionCounts,
    /// Global prediction counts.
    pub global: PredictionCounts,
    /// Managed energy.
    pub energy: EnergyBreakdown,
    /// Unmanaged energy.
    pub base_energy: EnergyBreakdown,
}

/// Reusable per-run engine state: dense per-process predictor,
/// pending-idle and vote tables keyed by the compact pid index of the
/// current [`RunStreams`]. Reusing one scratch across the runs of a trace (and
/// across managers) keeps the per-access path free of hashing and the
/// per-run path free of table reallocation.
#[derive(Default)]
pub struct EngineScratch {
    preds: Vec<Option<Box<dyn IdlePredictor>>>,
    pending_idle: Vec<Option<SimDuration>>,
    /// Per-run global predictor, cleared (capacity kept) between runs.
    global: GlobalPredictor,
    /// Retired per-process predictor boxes available for recycling; see
    /// [`EngineScratch::enable_predictor_pool`].
    pool: Vec<Box<dyn IdlePredictor>>,
    pool_enabled: bool,
}

impl EngineScratch {
    /// An empty scratch; tables grow to each run's process count.
    pub fn new() -> EngineScratch {
        EngineScratch::default()
    }

    /// Recycles per-process predictor boxes across process lifetimes
    /// instead of allocating a fresh box per process: a process exit
    /// parks its predictor (after `on_run_end` fully resets it) and the
    /// next process start pops it back.
    ///
    /// Opt-in because it is only sound when the manager's per-process
    /// state resets completely at `on_run_end` — true for PCAP, whose
    /// signature/history/pending state all clear (the surviving
    /// match/learn counters are report-only) — and when one `Manager`
    /// is kept alive for every run fed through this scratch (pooled
    /// boxes hold handles to that manager's shared table). The
    /// streaming fleet pipeline satisfies both; the legacy paths never
    /// enable it.
    pub fn enable_predictor_pool(&mut self) {
        self.pool_enabled = true;
    }

    fn reset(&mut self, pid_count: usize) {
        self.preds.clear();
        self.preds.resize_with(pid_count, || None);
        self.pending_idle.clear();
        self.pending_idle.resize(pid_count, None);
        self.global.clear();
    }
}

/// Live per-run simulation state. Process-indexed tables, the
/// `GlobalPredictor`'s votes included, are dense (compact pid index);
/// the engine never needs the pid itself.
struct RunState<'a> {
    manager: &'a mut Manager,
    oracle: bool,
    global: &'a mut GlobalPredictor,
    preds: &'a mut [Option<Box<dyn IdlePredictor>>],
    /// Gap lengths awaiting `on_idle_end` at each process's next access
    /// (or exit).
    pending_idle: &'a mut [Option<SimDuration>],
    pool: &'a mut Vec<Box<dyn IdlePredictor>>,
    pool_enabled: bool,
}

impl RunState<'_> {
    fn start_process(&mut self, pidx: usize, at: SimTime) {
        self.global.process_started(pidx, at);
        self.global
            .record_vote(pidx, at, self.manager.initial_vote());
        // A pooled box was fully reset by `on_run_end` at retirement, so
        // it is behaviorally a fresh `for_process` product (the pool is
        // only enabled for managers where that holds).
        self.preds[pidx] = match self.pool.pop() {
            Some(recycled) => Some(recycled),
            None => Some(self.manager.for_process()),
        };
    }

    fn end_process(&mut self, pidx: usize) {
        if let Some(mut pred) = self.preds[pidx].take() {
            if let Some(gap) = self.pending_idle[pidx].take() {
                pred.on_idle_end(gap);
            }
            pred.on_run_end();
            if self.pool_enabled {
                self.pool.push(pred);
            }
        }
        self.global.process_exited(pidx);
    }

    fn apply(&mut self, event: LifecycleEvent) {
        match event.kind {
            LifecycleKind::Start => self.start_process(event.pidx as usize, event.time),
            LifecycleKind::Exit => self.end_process(event.pidx as usize),
        }
    }
}

/// Simulates one execution under the paper's two-state disk,
/// delivering every idle-gap decision to `observer` (see
/// [`DecisionObserver`]). With [`NullObserver`](crate::NullObserver)
/// the audit path compiles away entirely.
///
/// The caller is responsible for invoking
/// [`DecisionObserver::on_run_start`] if its sink distinguishes runs;
/// this function reports a single run's decisions with `run` left at 0.
pub fn simulate_run_observed<O: DecisionObserver>(
    streams: &RunStreams,
    config: &SimConfig,
    manager: &mut Manager,
    scratch: &mut EngineScratch,
    observer: &mut O,
) -> RunOutcome {
    simulate_run_charged(
        streams,
        config,
        manager,
        scratch,
        &mut TwoStateCharge,
        observer,
    )
}

/// How one idle gap's managed energy is charged — the only step in
/// which the paper's two-state disk and the §7 power ladder differ.
/// Lifecycle stepping, voting, verdicts (always against the two-state
/// breakeven), base energy and audit records are shared by the one
/// loop in [`simulate_run_charged`], into which each charge is
/// monomorphized.
pub(crate) trait GapCharge {
    /// The managed breakdown of a `gap` whose voted shutdown, if any,
    /// fires `delay` after the gap starts on behalf of `source`. `base`
    /// is the same gap's always-on breakdown; `window` is the manager's
    /// §7 wait-window state.
    fn charge(
        &mut self,
        disk: &DiskParams,
        gap: SimDuration,
        shutdown: Option<(SimDuration, VoteSource)>,
        window: Option<&LowPowerState>,
        base: GapBreakdown,
    ) -> GapBreakdown;

    /// Reports what the charge learned about the gap it just charged,
    /// right after the engine's [`DecisionObserver::on_decision`] for
    /// that gap.
    fn observe<O: DecisionObserver>(&self, observer: &mut O) {
        let _ = observer;
    }
}

/// The Table 2 charge: spin idle until the shutdown, then standby plus
/// one power cycle.
pub(crate) struct TwoStateCharge;

impl GapCharge for TwoStateCharge {
    #[inline]
    fn charge(
        &mut self,
        disk: &DiskParams,
        gap: SimDuration,
        shutdown: Option<(SimDuration, VoteSource)>,
        window: Option<&LowPowerState>,
        base: GapBreakdown,
    ) -> GapBreakdown {
        let Some((delay, _)) = shutdown else {
            return base;
        };
        match window {
            // §7 extension: the wait-window is spent in a shallow
            // low-power state instead of spinning idle.
            Some(shallow) => GapBreakdown::managed_with_window_state(disk, gap, delay, shallow),
            None => GapBreakdown::managed(disk, gap, delay),
        }
    }
}

/// The simulation loop: one execution, every idle gap charged by
/// `charge` and reported to `observer`.
pub(crate) fn simulate_run_charged<C: GapCharge, O: DecisionObserver>(
    streams: &RunStreams,
    config: &SimConfig,
    manager: &mut Manager,
    scratch: &mut EngineScratch,
    charge: &mut C,
    observer: &mut O,
) -> RunOutcome {
    let be = config.disk.breakeven_time();
    let mut out = RunOutcome::default();

    scratch.reset(streams.pid_count());
    let mut state = RunState {
        oracle: manager.is_oracle(),
        manager,
        global: &mut scratch.global,
        preds: &mut scratch.preds,
        pending_idle: &mut scratch.pending_idle,
        pool: &mut scratch.pool,
        pool_enabled: scratch.pool_enabled,
    };

    // Pre-resolved start/exit events in time order (the root's start at
    // time zero is the first entry).
    let lifecycle = streams.lifecycle();
    let mut li = 0usize;

    let n = streams.accesses.len();
    for i in 0..n {
        let access = streams.accesses[i];
        let completion = streams.completions[i];
        let local_gap = streams.local_gaps[i];
        let global_gap = streams.global_gaps[i];

        // Lifecycle events that happened before this access (when i ==
        // 0 nothing was stepped yet; later gaps already consumed
        // everything up to this access's arrival).
        while li < lifecycle.len() && lifecycle[li].time <= access.time {
            state.apply(lifecycle[li]);
            li += 1;
        }

        // Busy energy (both managed and base).
        let busy = config.disk.busy_power * config.disk.service_time(access.pages);
        out.energy.busy += busy;
        out.base_energy.busy += busy;

        // Route the access: kernel write-backs attributed to an exited
        // process act on behalf of the application (the root, index 0).
        let apidx = streams.access_pid_index(i);
        let pidx = if state.preds[apidx].is_some() {
            apidx
        } else {
            0
        };
        let vote = if let Some(pred) = state.preds[pidx].as_mut() {
            if let Some(gap) = state.pending_idle[pidx].take() {
                pred.on_idle_end(gap);
            }
            let vote = pred.on_access(&access, local_gap);
            state.pending_idle[pidx] = Some(local_gap);
            Some(vote)
        } else {
            None
        };

        // Local classification: the process's own vote against its own
        // gap.
        let local_shutdown = vote.and_then(|v| {
            v.delay
                .filter(|&delay| delay < local_gap)
                .map(|delay| (local_gap - delay, v.source))
        });
        let local_verdict = classify(&mut out.local, local_gap, local_shutdown, be);
        if let Some(vote) = vote {
            if !state.oracle {
                state.global.record_vote(pidx, completion, vote);
            }
        }

        // Predictor-side audit context, captured before gap resolution:
        // the deciding process may exit (dropping its predictor) inside
        // the gap.
        let (signature, table_len) = if O::ENABLED {
            match state.preds[pidx].as_ref() {
                Some(pred) => (pred.audit_signature(), pred.audit_table_len()),
                None => (None, None),
            }
        } else {
            (None, None)
        };

        // Resolve the merged gap that follows this access.
        let gap_end = completion + global_gap;
        let shutdown = if state.oracle {
            (global_gap > be).then_some((completion, VoteSource::Primary))
        } else {
            resolve_gap_voting(&mut state, lifecycle, &mut li, completion, gap_end)
        };

        // Global classification tracks the voted shutdown; the energy
        // follows the charge.
        let global_shutdown = shutdown.map(|(at, source)| (gap_end - at, source));
        let verdict = classify(&mut out.global, global_gap, global_shutdown, be);
        let base_breakdown = GapBreakdown::unmanaged(&config.disk, global_gap);
        let managed_breakdown = charge.charge(
            &config.disk,
            global_gap,
            shutdown.map(|(at, source)| (at - completion, source)),
            state.manager.window_state(),
            base_breakdown,
        );
        out.energy.add_gap(global_gap > be, managed_breakdown);
        out.base_energy.add_gap(global_gap > be, base_breakdown);

        if O::ENABLED {
            observer.on_decision(
                DecisionRecord {
                    run: 0,
                    access: i as u32,
                    at: completion,
                    pid: access.pid,
                    pc: access.pc,
                    signature,
                    table_len,
                    vote_delay: vote.and_then(|v| v.delay),
                    vote_source: vote.map(|v| v.source),
                    local_gap,
                    local_verdict,
                    global_gap,
                    shutdown_at: shutdown.map(|(at, _)| at),
                    shutdown_source: shutdown.map(|(_, source)| source),
                    verdict,
                    energy_delta_j: managed_breakdown.total().0 - base_breakdown.total().0,
                },
                &GapEnergy {
                    long: global_gap > be,
                    busy,
                    managed: managed_breakdown,
                    base: base_breakdown,
                },
            );
            charge.observe(observer);
        }
    }

    // Remaining lifecycle (exits at/after the last access).
    while li < lifecycle.len() {
        state.apply(lifecycle[li]);
        li += 1;
    }

    // Park predictors whose processes never recorded an exit (traces are
    // not required to close every pid): `on_run_end` restores them to
    // constructed state, so the pool can hand them out as fresh boxes.
    if state.pool_enabled {
        for slot in state.preds.iter_mut() {
            if let Some(mut pred) = slot.take() {
                pred.on_run_end();
                state.pool.push(pred);
            }
        }
    }

    out
}

/// Scores one gap into `counts`: a long gap is an opportunity; a
/// shutdown that left the disk off for longer than breakeven is a hit,
/// any other shutdown a miss; no shutdown is not-predicted (long gap)
/// or short.
fn classify(
    counts: &mut PredictionCounts,
    gap: SimDuration,
    shutdown: Option<(SimDuration, VoteSource)>,
    be: SimDuration,
) -> GapVerdict {
    if gap > be {
        counts.opportunities += 1;
    }
    match shutdown {
        Some((off, source)) if off > be => {
            counts.record_hit(source);
            GapVerdict::Hit
        }
        Some((_, source)) => {
            counts.record_miss(source);
            GapVerdict::Miss
        }
        None if gap > be => {
            counts.not_predicted += 1;
            GapVerdict::NotPredicted
        }
        None => GapVerdict::Short,
    }
}

/// Steps through the lifecycle events inside one idle gap, returning
/// the first instant at which every live process's vote is ready (and
/// the source of the latest vote), or `None` if the disk must keep
/// spinning until the gap ends.
fn resolve_gap_voting(
    state: &mut RunState<'_>,
    lifecycle: &[LifecycleEvent],
    li: &mut usize,
    gap_start: SimTime,
    gap_end: SimTime,
) -> Option<(SimTime, VoteSource)> {
    let mut now = gap_start;
    let mut shutdown = None;
    loop {
        let boundary = if *li < lifecycle.len() && lifecycle[*li].time <= gap_end {
            lifecycle[*li].time
        } else {
            gap_end
        };
        if shutdown.is_none() {
            if let GlobalDecision::ShutdownAt(t, source) = state.global.decision() {
                let at = t.max(now);
                if at < boundary {
                    shutdown = Some((at, source));
                }
            }
        }
        if boundary == gap_end {
            // Consume lifecycle events exactly at the gap end belonging
            // to the gap (exits at run end); forks at the next access's
            // timestamp are handled by the access loop.
            break;
        }
        state.apply(lifecycle[*li]);
        *li += 1;
        // Events that arrived while the disk was still busy (before the
        // gap started) must not pull `now` backwards.
        now = now.max(boundary);
    }
    shutdown
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::NullObserver;
    use pcap_trace::{TraceRun, TraceRunBuilder};
    use pcap_types::{Fd, FileId, IoKind, Pc, Pid};

    /// One execution on fresh scratch, with no observer.
    fn simulate_run(streams: &RunStreams, config: &SimConfig, manager: &mut Manager) -> RunOutcome {
        simulate_run_observed(
            streams,
            config,
            manager,
            &mut EngineScratch::new(),
            &mut NullObserver,
        )
    }

    /// One process, fresh 1-page reads at the given seconds, exit at
    /// `end`.
    fn run_with_gaps(times: &[f64], end: f64) -> TraceRun {
        let mut b = TraceRunBuilder::new(Pid(1));
        for (i, &t) in times.iter().enumerate() {
            b.io(
                SimTime::from_secs_f64(t),
                Pid(1),
                Pc(0x100),
                IoKind::Read,
                Fd(3),
                FileId(1),
                (i as u64) * 4096,
                4096,
            );
        }
        b.exit(SimTime::from_secs_f64(end), Pid(1));
        b.finish().unwrap()
    }

    fn evaluate(run: TraceRun, kind: PowerManagerKind) -> RunOutcome {
        let config = SimConfig::paper();
        let streams = RunStreams::build(&run, &config);
        let mut manager = kind.manager(&config);
        simulate_run(&streams, &config, &mut manager)
    }

    #[test]
    fn oracle_hits_every_opportunity() {
        // Gaps ≈ 1 s, 20 s, 1 s, 40 s (terminal).
        let run = run_with_gaps(&[1.0, 2.0, 22.0, 23.0], 63.0);
        let out = evaluate(run, PowerManagerKind::Oracle);
        assert_eq!(out.global.opportunities, 2);
        assert_eq!(out.global.hits(), 2);
        assert_eq!(out.global.misses(), 0);
        assert_eq!(out.global.not_predicted, 0);
        assert_eq!(out.local.hits(), 2);
    }

    #[test]
    fn timeout_covers_only_long_gaps() {
        // Gaps ≈ 20 s (hit: off ≈ 10 s), 8 s (not predicted: timer
        // never fires), 12 s terminal (miss: off ≈ 2 s < breakeven).
        let run = run_with_gaps(&[1.0, 21.0, 29.0], 41.0);
        let out = evaluate(run, PowerManagerKind::Timeout);
        assert_eq!(out.global.opportunities, 3);
        assert_eq!(out.global.hits(), 1);
        assert_eq!(out.global.misses(), 1);
        assert_eq!(out.global.not_predicted, 1);
    }

    #[test]
    fn pcap_learns_across_executions() {
        let config = SimConfig::paper();
        let mut manager = PowerManagerKind::PCAP.manager(&config);
        let execute = |manager: &mut Manager| {
            let run = run_with_gaps(&[1.0, 1.2, 1.4], 31.4);
            let streams = RunStreams::build(&run, &config);
            let out = simulate_run(&streams, &config, manager);
            manager.on_run_end();
            out
        };
        let first = execute(&mut manager);
        let second = execute(&mut manager);
        // First execution: the 30 s terminal gap trains; the backup
        // timeout makes the shutdown.
        assert_eq!(first.global.hits(), 1);
        assert_eq!(first.global.hit_backup, 1);
        // Second execution: the learned path predicts immediately.
        assert_eq!(second.global.hit_primary, 1);
    }

    #[test]
    fn energy_breakdown_accounts_every_gap() {
        let run = run_with_gaps(&[1.0, 2.0, 22.0], 62.0);
        let out = evaluate(run, PowerManagerKind::Timeout);
        // Base energy has no power cycles and no saving.
        assert_eq!(out.base_energy.power_cycle.0, 0.0);
        assert!(out.energy.total().0 < out.base_energy.total().0);
        // Busy identical in both.
        assert_eq!(out.energy.busy, out.base_energy.busy);
    }

    #[test]
    fn fork_during_gap_blocks_shutdown() {
        // Root reads at 1 s then goes idle until 60 s. A helper forks at
        // 3 s and never performs I/O: its initial backup vote anchors at
        // 3 s, so the (TP) shutdown slides from 11 s to 13 s.
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
        b.fork(SimTime::from_secs(3), Pid(1), Pid(2));
        b.exit(SimTime::from_secs(59), Pid(2));
        b.exit(SimTime::from_secs(60), Pid(1));
        let run = b.finish().unwrap();
        let config = SimConfig::paper();
        let streams = RunStreams::build(&run, &config);
        let mut manager = PowerManagerKind::Timeout.manager(&config);
        let out = simulate_run(&streams, &config, &mut manager);
        assert_eq!(out.global.hits(), 1);
        // Off interval = 59 s − 13 s = 46 s; energy must reflect a
        // 13−1−service ≈ 12 s spinning prefix. Compare with a no-fork
        // run: its shutdown at 11 s spins ~2 s less.
        let no_fork = evaluate(run_with_gaps(&[1.0], 60.0), PowerManagerKind::Timeout);
        assert!(out.energy.idle_long.0 > no_fork.energy.idle_long.0 + 1.0);
    }

    #[test]
    fn exit_during_gap_unblocks_shutdown() {
        // A helper performs the last I/O then exits mid-gap; after its
        // exit only the root's vote matters.
        let mut b = TraceRunBuilder::new(Pid(1));
        b.fork(SimTime::from_millis(100), Pid(1), Pid(2));
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
        b.io(
            SimTime::from_secs(2),
            Pid(2),
            Pc(0x2),
            IoKind::Read,
            Fd(3),
            FileId(1),
            4096,
            4096,
        );
        // Helper exits at 5 s; root stays idle until 60 s.
        b.exit(SimTime::from_secs(5), Pid(2));
        b.exit(SimTime::from_secs(60), Pid(1));
        let run = b.finish().unwrap();
        let config = SimConfig::paper();
        let streams = RunStreams::build(&run, &config);
        let mut manager = PowerManagerKind::Timeout.manager(&config);
        let out = simulate_run(&streams, &config, &mut manager);
        // Shutdown at max(root: 1 s + 10 s, helper: gone) = 11 s.
        assert_eq!(out.global.hits(), 1);
    }

    #[test]
    fn evaluate_app_aggregates_runs() {
        let mut trace = ApplicationTrace::new("test");
        for _ in 0..3 {
            trace.runs.push(run_with_gaps(&[1.0, 1.2], 31.0));
        }
        let report = evaluate_app(&trace, &SimConfig::paper(), PowerManagerKind::PCAP);
        assert_eq!(&*report.app, "test");
        assert_eq!(report.manager, "PCAP");
        assert_eq!(report.global.opportunities, 3);
        // Run 1 trains (backup hit), runs 2–3 predict (primary hits).
        assert_eq!(report.global.hit_backup, 1);
        assert_eq!(report.global.hit_primary, 2);
        assert!(report.table_entries.unwrap() >= 1);
        assert!(report.savings() > 0.0);
    }

    #[test]
    fn report_app_shares_trace_allocation() {
        let mut trace = ApplicationTrace::new("shared");
        trace.runs.push(run_with_gaps(&[1.0], 31.0));
        let report = evaluate_app(&trace, &SimConfig::paper(), PowerManagerKind::Timeout);
        assert!(std::sync::Arc::ptr_eq(&trace.app, &report.app));
    }

    #[test]
    fn decision_stream_matches_counts() {
        let run = run_with_gaps(&[1.0, 21.0, 29.0], 41.0);
        let config = SimConfig::paper();
        let streams = RunStreams::build(&run, &config);
        let mut manager = PowerManagerKind::Timeout.manager(&config);
        let mut collector = crate::AuditCollector::new();
        let out = simulate_run_observed(
            &streams,
            &config,
            &mut manager,
            &mut EngineScratch::new(),
            &mut collector,
        );
        let (log, ..) = collector.finish();
        assert_eq!(log.len(), streams.accesses.len());
        let count = |verdict| log.iter().filter(|r| r.verdict == verdict).count() as u64;
        assert_eq!(count(GapVerdict::Hit), out.global.hits());
        assert_eq!(count(GapVerdict::Miss), out.global.misses());
        assert_eq!(count(GapVerdict::NotPredicted), out.global.not_predicted);
        // The hit gap carries its shutdown instant and source.
        let hit = log.iter().find(|r| r.verdict == GapVerdict::Hit).unwrap();
        assert_eq!(hit.shutdown_source, Some(VoteSource::Primary));
        assert!(hit.shutdown_at.expect("hit has a shutdown") > hit.at);
    }

    #[test]
    fn kernel_writeback_after_helper_exit_routes_to_root() {
        // A helper dirties a page and exits; the flush daemon writes it
        // back ~30 s later, attributed to the (dead) helper pid. The
        // simulator must route that access to the application root
        // rather than panic or drop it.
        let mut b = pcap_trace::TraceRunBuilder::new(Pid(1));
        b.fork(SimTime::from_millis(10), Pid(1), Pid(2));
        b.io(
            SimTime::from_secs(1),
            Pid(2),
            Pc(0x2),
            IoKind::Write,
            Fd(4),
            FileId(9),
            0,
            4096,
        );
        b.exit(SimTime::from_secs(2), Pid(2));
        // Root stays alive; its read at 120 s advances the cache clock
        // past the write-back expiry.
        b.io(
            SimTime::from_secs(120),
            Pid(1),
            Pc(0x1),
            IoKind::Read,
            Fd(3),
            FileId(1),
            0,
            4096,
        );
        b.exit(SimTime::from_secs(150), Pid(1));
        let run = b.finish().unwrap();
        let config = SimConfig::paper();
        let streams = RunStreams::build(&run, &config);
        // The write-back exists and lands after the helper's exit.
        let flush = streams
            .accesses
            .iter()
            .find(|a| a.is_kernel())
            .expect("flush access present");
        assert!(flush.time > SimTime::from_secs(2));
        assert_eq!(flush.pid, Pid(2), "attributed to the dirtier");
        // And the simulation completes with consistent counts.
        let mut manager = PowerManagerKind::PCAP.manager(&config);
        let out = simulate_run(&streams, &config, &mut manager);
        assert!(out.global.opportunities >= 2);
        assert!(out.base_energy.total().0 > 0.0);
    }

    #[test]
    fn multistate_pcap_saves_at_least_as_much_as_pcap() {
        let mut trace = ApplicationTrace::new("ms");
        for _ in 0..4 {
            trace.runs.push(run_with_gaps(&[1.0, 1.2, 1.4], 61.4));
        }
        let config = SimConfig::paper();
        let plain = evaluate_app(&trace, &config, PowerManagerKind::PCAP);
        let multi = evaluate_app(&trace, &config, PowerManagerKind::MultiStatePcap);
        // Identical predictions (same PCAP underneath)...
        assert_eq!(plain.global, multi.global);
        // ...but the shallow wait-window state saves extra energy.
        assert!(
            multi.energy.total().0 < plain.energy.total().0,
            "{} vs {}",
            multi.energy.total(),
            plain.energy.total()
        );
    }

    #[test]
    fn wait_window_filters_subwindow_gaps() {
        // A trained PCAP whose path recurs followed by an immediate
        // access (0.5 s < wait-window): the prediction is cancelled, no
        // miss recorded.
        let config = SimConfig::paper();
        let mut manager = PowerManagerKind::PCAP.manager(&config);
        // Train: single access then long gap.
        let train = run_with_gaps(&[1.0], 31.0);
        let streams = RunStreams::build(&train, &config);
        simulate_run(&streams, &config, &mut manager);
        manager.on_run_end();
        // Replay: the same PC, but the next access comes 0.5 s later.
        let replay = run_with_gaps(&[1.0, 1.5], 3.0);
        let streams = RunStreams::build(&replay, &config);
        let out = simulate_run(&streams, &config, &mut manager);
        assert_eq!(out.global.misses(), 0, "wait-window must filter");
    }
}
