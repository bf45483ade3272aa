//! Merging per-application traces into whole-system sessions.
//!
//! The paper traces each application separately and evaluates them in
//! isolation ("Each application was traced separately, creating an
//! independent trace for each application", §6) — but its Global
//! Shutdown Predictor (§5) is motivated by "real systems \[where\] many
//! processes are running concurrently". This module builds that
//! scenario: it overlays one execution of each application into a
//! single multi-application session, remapping process ids and framing
//! everything under a synthetic session root, so the simulator can
//! evaluate the global predictor against a whole laptop's worth of
//! concurrent processes.

use crate::{ApplicationTrace, TraceError, TraceRun, TraceRunBuilder};
use pcap_types::{Pid, SimDuration, SimTime, TraceEvent};

/// Pid namespace stride per merged application: application `i`'s
/// `Pid(p)` becomes `Pid((i + 1) · 1000 + p)`.
const PID_STRIDE: u32 = 1000;

/// The pid of the synthetic session root that forks every application.
const SESSION_ROOT: Pid = Pid(1);

fn remap(pid: Pid, app_idx: usize) -> Pid {
    Pid((app_idx as u32 + 1) * PID_STRIDE + pid.0)
}

/// Overlays one run of each application into a single session run.
///
/// Each `(run, start)` pair contributes all its events shifted by
/// `start`; process ids are namespaced per application; a synthetic
/// session root forks each application's root at its start offset and
/// exits last.
///
/// # Errors
///
/// Returns a [`TraceError`] if the merged event stream fails
/// validation (impossible for valid inputs unless pid namespaces
/// overflow the stride).
pub fn merge_runs(runs: &[(&TraceRun, SimDuration)]) -> Result<TraceRun, TraceError> {
    let mut builder = TraceRunBuilder::new(SESSION_ROOT);
    let mut session_end = SimTime::ZERO;
    for (app_idx, (run, start)) in runs.iter().enumerate() {
        let shift = |t: SimTime| t + *start;
        builder.fork(shift(SimTime::ZERO), SESSION_ROOT, remap(run.root, app_idx));
        for event in &run.events {
            match *event {
                TraceEvent::Io(io) => {
                    builder.event(TraceEvent::Io(pcap_types::IoEvent {
                        time: shift(io.time),
                        pid: remap(io.pid, app_idx),
                        ..io
                    }));
                }
                TraceEvent::Fork {
                    time,
                    parent,
                    child,
                } => {
                    builder.fork(shift(time), remap(parent, app_idx), remap(child, app_idx));
                }
                TraceEvent::Exit { time, pid } => {
                    builder.exit(shift(time), remap(pid, app_idx));
                }
            }
        }
        session_end = session_end.max(shift(run.end));
    }
    builder.exit(session_end + SimDuration::from_millis(100), SESSION_ROOT);
    builder.finish()
}

/// Builds a whole-system trace by overlaying the applications'
/// executions pairwise: session `j` merges run `j` of every
/// application (as many sessions as the shortest trace allows), each
/// application starting `stagger` after the previous one.
///
/// # Errors
///
/// Propagates [`merge_runs`] failures.
///
/// ```
/// use pcap_trace::merge::merge_traces;
/// # use pcap_trace::{ApplicationTrace, TraceRunBuilder};
/// # use pcap_types::{Fd, FileId, IoKind, Pc, Pid, SimDuration, SimTime};
/// # let mut a = ApplicationTrace::new("a");
/// # let mut b = ApplicationTrace::new("b");
/// # for t in [&mut a, &mut b] {
/// #     let mut builder = TraceRunBuilder::new(Pid(1));
/// #     builder.io(SimTime::from_secs(1), Pid(1), Pc(2), IoKind::Read,
/// #                Fd(3), FileId(4), 0, 4096);
/// #     builder.exit(SimTime::from_secs(5), Pid(1));
/// #     t.runs.push(builder.finish()?);
/// # }
/// let system = merge_traces(&[a, b], SimDuration::from_secs(2))?;
/// assert_eq!(&*system.app, "system");
/// assert_eq!(system.runs.len(), 1);
/// assert_eq!(system.runs[0].pids().len(), 3); // session root + 2 apps
/// # Ok::<(), pcap_trace::TraceError>(())
/// ```
pub fn merge_traces(
    traces: &[ApplicationTrace],
    stagger: SimDuration,
) -> Result<ApplicationTrace, TraceError> {
    let sessions = traces.iter().map(|t| t.runs.len()).min().unwrap_or(0);
    let mut system = ApplicationTrace::new("system");
    for j in 0..sessions {
        let runs: Vec<(&TraceRun, SimDuration)> = traces
            .iter()
            .enumerate()
            .map(|(i, t)| (&t.runs[j], stagger * i as u64))
            .collect();
        system.runs.push(merge_runs(&runs)?);
    }
    Ok(system)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcap_types::{Fd, FileId, IoKind, Pc};

    fn little_run(io_secs: &[u64], end: u64) -> TraceRun {
        let mut b = TraceRunBuilder::new(Pid(1));
        for (i, &t) in io_secs.iter().enumerate() {
            b.io(
                SimTime::from_secs(t),
                Pid(1),
                Pc(0x10 + i as u32),
                IoKind::Read,
                Fd(3),
                FileId(1),
                (i as u64) * 4096,
                4096,
            );
        }
        b.exit(SimTime::from_secs(end), Pid(1));
        b.finish().unwrap()
    }

    #[test]
    fn merges_two_runs_with_offsets() {
        let a = little_run(&[1, 2], 10);
        let b = little_run(&[1], 5);
        let merged = merge_runs(&[(&a, SimDuration::ZERO), (&b, SimDuration::from_secs(3))])
            .expect("valid merge");
        assert_eq!(merged.root, SESSION_ROOT);
        // Session root + two app roots.
        assert_eq!(merged.pids(), vec![Pid(1), Pid(1001), Pid(2001)]);
        // b's I/O at t=1 shifted to t=4.
        let times: Vec<u64> = merged
            .io_events()
            .map(|io| io.time.as_micros() / 1_000_000)
            .collect();
        assert_eq!(times, vec![1, 2, 4]);
        // Session outlives the latest exit (10 s).
        assert!(merged.end > SimTime::from_secs(10));
    }

    #[test]
    fn merge_traces_pairs_runs() {
        let mut a = ApplicationTrace::new("a");
        let mut b = ApplicationTrace::new("b");
        for _ in 0..3 {
            a.runs.push(little_run(&[1], 4));
        }
        for _ in 0..2 {
            b.runs.push(little_run(&[2], 6));
        }
        let system = merge_traces(&[a, b], SimDuration::from_secs(1)).unwrap();
        assert_eq!(system.runs.len(), 2, "limited by the shortest trace");
        assert_eq!(&*system.app, "system");
        assert_eq!(system.total_ios(), 4);
    }

    #[test]
    fn pid_namespaces_do_not_collide() {
        let a = little_run(&[1], 4);
        let merged = merge_runs(&[
            (&a, SimDuration::ZERO),
            (&a, SimDuration::ZERO),
            (&a, SimDuration::ZERO),
        ])
        .unwrap();
        let pids = merged.pids();
        let unique: std::collections::HashSet<_> = pids.iter().collect();
        assert_eq!(pids.len(), unique.len());
    }

    #[test]
    fn empty_merge_is_empty_trace() {
        let system = merge_traces(&[], SimDuration::ZERO).unwrap();
        assert!(system.runs.is_empty());
    }
}
