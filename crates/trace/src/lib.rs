//! Application trace containers and serialization.
//!
//! The paper's evaluation (§6) drives a trace simulator with
//! strace-derived traces: one trace per application, covering many
//! executions ("runs") of that application, each run containing the I/O
//! operations of every process the application forked. This crate holds
//! that data model:
//!
//! * [`TraceRun`] — one execution: time-ordered [`TraceEvent`]s plus the
//!   root process and run end time,
//! * [`ApplicationTrace`] — all executions of one application,
//! * [`TraceRunBuilder`] — incremental, validity-enforcing construction,
//! * [`idle`] — idle-gap classification for the predictors and the
//!   gap-length histogram of `pcap profile`,
//! * [`io`] — JSON-lines persistence.
//!
//! # Example
//!
//! ```
//! use pcap_trace::TraceRunBuilder;
//! use pcap_types::{Fd, FileId, IoKind, Pc, Pid, SimTime};
//!
//! let mut b = TraceRunBuilder::new(Pid(1));
//! b.io(SimTime::from_millis(100), Pid(1), Pc(0x42), IoKind::Read, Fd(3), FileId(7), 0, 4096);
//! b.exit(SimTime::from_secs(10), Pid(1));
//! let run = b.finish()?;
//! assert_eq!(run.io_count(), 1);
//! # Ok::<(), pcap_trace::TraceError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod idle;
pub mod io;
pub mod merge;

use pcap_types::{Fd, FileId, IoKind, Pc, Pid, SimTime, TraceEvent};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Largest byte count one I/O event may carry: Linux's per-call cap on
/// `read`/`write` (`MAX_RW_COUNT`, `INT_MAX` rounded down to a 4 KB
/// page), 524,288 pages of 4 KB.
pub const MAX_RW_COUNT: u64 = 0x7fff_f000;

/// Most processes one run may start, the root included. The paper's
/// apps fork at most 3 helpers, and the largest run this repository
/// builds, the merged `system` session, starts 15. The bound caps the
/// per-run pid scans of validation, stream building and the global
/// predictor, so one run's cost stays linear in its events.
pub const MAX_PROCESSES: usize = 64;

/// Errors produced while building, validating or (de)serializing traces.
#[derive(Debug)]
pub enum TraceError {
    /// An event references a process that was never forked (and is not
    /// the root).
    UnknownPid(Pid),
    /// An event occurs for a process after its exit.
    EventAfterExit(Pid),
    /// A fork creates a pid that already exists.
    DuplicatePid(Pid),
    /// A process never exits before the end of the run.
    MissingExit(Pid),
    /// A fork would start more than [`MAX_PROCESSES`] processes.
    TooManyProcesses {
        /// The bound, [`MAX_PROCESSES`].
        limit: usize,
    },
    /// An I/O event's byte range ends past `u64::MAX`, or its length
    /// exceeds [`MAX_RW_COUNT`].
    IoRange {
        /// Index of the offending event (in time order).
        index: usize,
        /// The event's starting byte offset.
        offset: u64,
        /// The event's length in bytes.
        len: u64,
    },
    /// Underlying I/O failure while reading or writing a trace file.
    Io(std::io::Error),
    /// Malformed JSON while reading a trace file.
    Parse(serde_json::Error),
    /// Structurally invalid trace file (bad record order, etc.).
    Format(String),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::UnknownPid(pid) => write!(f, "event references unforked {pid}"),
            TraceError::EventAfterExit(pid) => write!(f, "event after exit of {pid}"),
            TraceError::DuplicatePid(pid) => write!(f, "fork of already-live {pid}"),
            TraceError::MissingExit(pid) => write!(f, "{pid} never exits"),
            TraceError::TooManyProcesses { limit } => {
                write!(f, "run starts more than {limit} processes")
            }
            TraceError::IoRange { index, offset, len } => write!(
                f,
                "event {index} reads or writes {len} bytes at offset {offset}: \
                 over the {MAX_RW_COUNT}-byte per-call cap or past the 64-bit offset range"
            ),
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::Parse(e) => write!(f, "trace parse error: {e}"),
            TraceError::Format(msg) => write!(f, "trace format error: {msg}"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            TraceError::Parse(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

impl From<serde_json::Error> for TraceError {
    fn from(e: serde_json::Error) -> Self {
        TraceError::Parse(e)
    }
}

/// One execution of an application: a validated, time-ordered event
/// stream covering every process of the application.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceRun {
    /// The initial process of the application.
    pub root: Pid,
    /// Time-ordered events (validated by [`TraceRunBuilder`]).
    pub events: Vec<TraceEvent>,
    /// End of the run (the last exit).
    pub end: SimTime,
}

impl TraceRun {
    /// Number of I/O events in the run.
    pub fn io_count(&self) -> usize {
        self.events.iter().filter(|e| e.as_io().is_some()).count()
    }

    /// All pids appearing in the run (root first, then forked children
    /// in fork order).
    pub fn pids(&self) -> Vec<Pid> {
        let mut pids = vec![self.root];
        for e in &self.events {
            if let TraceEvent::Fork { child, .. } = e {
                pids.push(*child);
            }
        }
        pids
    }

    /// Iterates over just the I/O events.
    pub fn io_events(&self) -> impl Iterator<Item = &pcap_types::IoEvent> {
        self.events.iter().filter_map(TraceEvent::as_io)
    }
}

/// All traced executions of one application.
///
/// The application name is interned as an `Arc<str>`: every report,
/// profile and statistics row derived from this trace shares the one
/// allocation instead of copying the string per cell of the manager
/// grid. (It serializes as a plain JSON string, exactly as before.)
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ApplicationTrace {
    /// Application name ("mozilla", "writer", …), shared by reference.
    pub app: std::sync::Arc<str>,
    /// The traced executions, in collection order.
    pub runs: Vec<TraceRun>,
}

impl ApplicationTrace {
    /// Creates an empty trace for `app`.
    pub fn new(app: impl Into<std::sync::Arc<str>>) -> ApplicationTrace {
        ApplicationTrace {
            app: app.into(),
            runs: Vec::new(),
        }
    }

    /// Total I/O events across all runs.
    pub fn total_ios(&self) -> usize {
        self.runs.iter().map(TraceRun::io_count).sum()
    }
}

/// Incrementally builds a validated [`TraceRun`]; see the
/// [crate docs](crate) for an example.
///
/// Events may be appended in any order; [`finish`](Self::finish) sorts
/// them stably by time and then validates process lifecycles.
#[derive(Debug, Clone)]
pub struct TraceRunBuilder {
    root: Pid,
    events: Vec<TraceEvent>,
}

impl TraceRunBuilder {
    /// Starts a run whose initial process is `root`.
    pub fn new(root: Pid) -> TraceRunBuilder {
        TraceRunBuilder {
            root,
            events: Vec::new(),
        }
    }

    /// Appends an I/O event.
    #[allow(clippy::too_many_arguments)]
    pub fn io(
        &mut self,
        time: SimTime,
        pid: Pid,
        pc: Pc,
        kind: IoKind,
        fd: Fd,
        file: FileId,
        offset: u64,
        len: u64,
    ) -> &mut Self {
        self.events.push(TraceEvent::Io(pcap_types::IoEvent {
            time,
            pid,
            pc,
            kind,
            fd,
            file,
            offset,
            len,
        }));
        self
    }

    /// Appends a pre-built event.
    pub fn event(&mut self, event: TraceEvent) -> &mut Self {
        self.events.push(event);
        self
    }

    /// Appends a fork event.
    pub fn fork(&mut self, time: SimTime, parent: Pid, child: Pid) -> &mut Self {
        self.events.push(TraceEvent::Fork {
            time,
            parent,
            child,
        });
        self
    }

    /// Appends an exit event.
    pub fn exit(&mut self, time: SimTime, pid: Pid) -> &mut Self {
        self.events.push(TraceEvent::Exit { time, pid });
        self
    }

    /// Sorts, validates and returns the run.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] if any event references an unknown or
    /// already-exited process, a fork duplicates a live pid or starts
    /// process number [`MAX_PROCESSES`] + 1
    /// ([`TraceError::TooManyProcesses`]), a process never exits
    /// ([`TraceError::MissingExit`] names the first such pid in start
    /// order: the root, then children in fork order), or an I/O's byte
    /// range overflows or exceeds [`MAX_RW_COUNT`]
    /// ([`TraceError::IoRange`]).
    pub fn finish(mut self) -> Result<TraceRun, TraceError> {
        self.events.sort_by_key(TraceEvent::time);

        // Every process the run started, in start order, and whether it
        // is still live. At most MAX_PROCESSES entries, so a linear
        // scan finds a pid.
        let mut procs: Vec<(Pid, bool)> = Vec::with_capacity(MAX_PROCESSES);
        procs.push((self.root, true));
        let mut end = SimTime::ZERO;
        for (index, e) in self.events.iter().enumerate() {
            end = end.max(e.time());
            match *e {
                TraceEvent::Fork { parent, child, .. } => {
                    live_index(&procs, parent)?;
                    if procs.iter().any(|&(pid, _)| pid == child) {
                        return Err(TraceError::DuplicatePid(child));
                    }
                    if procs.len() == MAX_PROCESSES {
                        return Err(TraceError::TooManyProcesses {
                            limit: MAX_PROCESSES,
                        });
                    }
                    procs.push((child, true));
                }
                TraceEvent::Exit { pid, .. } => {
                    let i = live_index(&procs, pid)?;
                    procs[i].1 = false;
                }
                TraceEvent::Io(ref io) => {
                    live_index(&procs, io.pid)?;
                    if io.len > MAX_RW_COUNT || io.offset.checked_add(io.len).is_none() {
                        return Err(TraceError::IoRange {
                            index,
                            offset: io.offset,
                            len: io.len,
                        });
                    }
                }
            }
        }
        if let Some(&(pid, _)) = procs.iter().find(|&&(_, live)| live) {
            return Err(TraceError::MissingExit(pid));
        }
        Ok(TraceRun {
            root: self.root,
            events: self.events,
            end,
        })
    }
}

/// The index of `pid` in `procs` if it is live, else the error an event
/// by it raises.
fn live_index(procs: &[(Pid, bool)], pid: Pid) -> Result<usize, TraceError> {
    match procs.iter().position(|&(p, _)| p == pid) {
        Some(i) if procs[i].1 => Ok(i),
        Some(_) => Err(TraceError::EventAfterExit(pid)),
        None => Err(TraceError::UnknownPid(pid)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcap_types::IoEvent;

    fn io_at(t: u64, pid: Pid) -> TraceEvent {
        TraceEvent::Io(IoEvent {
            time: SimTime::from_millis(t),
            pid,
            pc: Pc(0x42),
            kind: IoKind::Read,
            fd: Fd(3),
            file: FileId(1),
            offset: 0,
            len: 4096,
        })
    }

    #[test]
    fn builder_sorts_and_validates() {
        let mut b = TraceRunBuilder::new(Pid(1));
        b.exit(SimTime::from_secs(10), Pid(1));
        b.event(io_at(500, Pid(1)));
        b.event(io_at(100, Pid(1)));
        let run = b.finish().unwrap();
        assert_eq!(run.events[0].time(), SimTime::from_millis(100));
        assert_eq!(run.end, SimTime::from_secs(10));
        assert_eq!(run.io_count(), 2);
    }

    #[test]
    fn fork_makes_child_valid() {
        let mut b = TraceRunBuilder::new(Pid(1));
        b.fork(SimTime::from_millis(10), Pid(1), Pid(2));
        b.event(io_at(20, Pid(2)));
        b.exit(SimTime::from_millis(30), Pid(2));
        b.exit(SimTime::from_millis(40), Pid(1));
        let run = b.finish().unwrap();
        assert_eq!(run.pids(), vec![Pid(1), Pid(2)]);
    }

    #[test]
    fn io_from_unknown_pid_rejected() {
        let mut b = TraceRunBuilder::new(Pid(1));
        b.event(io_at(20, Pid(2)));
        b.exit(SimTime::from_millis(30), Pid(1));
        assert!(matches!(b.finish(), Err(TraceError::UnknownPid(Pid(2)))));
    }

    #[test]
    fn io_after_exit_rejected() {
        // Also with an I/O by the same pid before its exit.
        for io_before_exit in [false, true] {
            let mut b = TraceRunBuilder::new(Pid(1));
            if io_before_exit {
                b.event(io_at(5, Pid(1)));
            }
            b.exit(SimTime::from_millis(10), Pid(1));
            b.event(io_at(20, Pid(1)));
            assert!(matches!(
                b.finish(),
                Err(TraceError::EventAfterExit(Pid(1)))
            ));
        }
    }

    #[test]
    fn io_after_exit_rejected_after_another_pids_io() {
        // Pid 1 does I/O, pid 2 does I/O, pid 1 exits and does I/O
        // again: the last I/O's pid is not the exited one.
        let mut b = TraceRunBuilder::new(Pid(1));
        b.fork(SimTime::from_millis(1), Pid(1), Pid(2));
        b.event(io_at(5, Pid(1)));
        b.event(io_at(6, Pid(2)));
        b.exit(SimTime::from_millis(10), Pid(1));
        b.event(io_at(20, Pid(1)));
        b.exit(SimTime::from_millis(30), Pid(2));
        assert!(matches!(
            b.finish(),
            Err(TraceError::EventAfterExit(Pid(1)))
        ));
    }

    #[test]
    fn duplicate_fork_rejected() {
        let mut b = TraceRunBuilder::new(Pid(1));
        b.fork(SimTime::from_millis(1), Pid(1), Pid(2));
        b.fork(SimTime::from_millis(2), Pid(1), Pid(2));
        assert!(matches!(b.finish(), Err(TraceError::DuplicatePid(Pid(2)))));
    }

    #[test]
    fn a_run_starts_at_most_max_processes() {
        // The root forks `children` children in turn; each reads once
        // and exits before the next starts.
        let build = |children: u32| {
            let mut b = TraceRunBuilder::new(Pid(1));
            for child in 2..2 + children {
                let t = u64::from(child);
                b.fork(SimTime::from_millis(t), Pid(1), Pid(child));
                b.event(io_at(t, Pid(child)));
                b.exit(SimTime::from_millis(t + 1), Pid(child));
            }
            b.exit(SimTime::from_secs(10), Pid(1));
            b.finish()
        };
        let run = build(MAX_PROCESSES as u32 - 1).unwrap();
        assert_eq!(run.pids().len(), MAX_PROCESSES);
        assert!(matches!(
            build(MAX_PROCESSES as u32),
            Err(TraceError::TooManyProcesses {
                limit: MAX_PROCESSES
            })
        ));
    }

    #[test]
    fn missing_exit_rejected() {
        let mut b = TraceRunBuilder::new(Pid(1));
        b.event(io_at(20, Pid(1)));
        assert!(matches!(b.finish(), Err(TraceError::MissingExit(Pid(1)))));
    }

    #[test]
    fn missing_exit_names_the_first_live_pid_in_start_order() {
        // The root, then children in fork order — never an order that
        // depends on a hash set's random keys.
        let build = |children: [u32; 5], root_exits: bool| {
            let mut b = TraceRunBuilder::new(Pid(1));
            for (i, child) in (1..).zip(children) {
                b.fork(SimTime::from_millis(i), Pid(1), Pid(child));
            }
            if root_exits {
                b.exit(SimTime::from_millis(10), Pid(1));
            }
            b.finish()
        };
        for _ in 0..64 {
            assert!(matches!(
                build([2, 3, 4, 5, 6], false),
                Err(TraceError::MissingExit(Pid(1)))
            ));
            assert!(matches!(
                build([2, 3, 4, 5, 6], true),
                Err(TraceError::MissingExit(Pid(2)))
            ));
            assert!(matches!(
                build([6, 5, 4, 3, 2], true),
                Err(TraceError::MissingExit(Pid(6)))
            ));
        }
    }

    #[test]
    fn io_byte_ranges_are_bounded() {
        let with_range = |offset: u64, len: u64| {
            let mut b = TraceRunBuilder::new(Pid(1));
            b.io(
                SimTime::from_millis(1),
                Pid(1),
                Pc(0x42),
                IoKind::Read,
                Fd(3),
                FileId(1),
                offset,
                len,
            );
            b.exit(SimTime::from_millis(2), Pid(1));
            b.finish()
        };
        // Exactly one call's worth is accepted, at any offset that
        // leaves room for it.
        assert!(with_range(0, MAX_RW_COUNT).is_ok());
        assert!(with_range(u64::MAX - MAX_RW_COUNT, MAX_RW_COUNT).is_ok());
        assert!(with_range(u64::MAX, 0).is_ok());
        assert!(matches!(
            with_range(0, MAX_RW_COUNT + 1),
            Err(TraceError::IoRange { index: 0, offset: 0, len }) if len == MAX_RW_COUNT + 1
        ));
        let err = with_range(u64::MAX - 100, 4096).unwrap_err();
        assert!(matches!(
            err,
            TraceError::IoRange {
                index: 0,
                len: 4096,
                ..
            }
        ));
        assert!(err.to_string().contains("per-call cap"), "{err}");
    }

    #[test]
    fn application_trace_totals() {
        let mut t = ApplicationTrace::new("nedit");
        for _ in 0..3 {
            let mut b = TraceRunBuilder::new(Pid(1));
            b.event(io_at(1, Pid(1)));
            b.event(io_at(2, Pid(1)));
            b.exit(SimTime::from_millis(3), Pid(1));
            t.runs.push(b.finish().unwrap());
        }
        assert_eq!(t.total_ios(), 6);
        assert_eq!(&*t.app, "nedit");
    }

    #[test]
    fn error_display_is_informative() {
        let e = TraceError::UnknownPid(Pid(7));
        assert!(e.to_string().contains("pid:7"));
    }
}
