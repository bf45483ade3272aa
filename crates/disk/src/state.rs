//! An explicit disk power state machine that integrates energy over a
//! timeline of accesses and shutdown requests.
//!
//! This is the "physical" view of the disk: the figure-regeneration
//! simulator uses the closed-form accounting in [`crate::energy`], and
//! property tests cross-check the two (see `tests/` at the workspace
//! root).

use crate::energy::Joules;
use crate::model::DiskParams;
use pcap_types::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// The power state of the disk at an instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DiskState {
    /// Spinning and serving an access.
    Busy,
    /// Spinning, no access in flight.
    Idle,
    /// Transitioning from spinning to standby.
    SpinningDown,
    /// Spun down.
    Standby,
    /// Transitioning from standby to spinning.
    SpinningUp,
}

/// Accumulated time and energy per state, plus transition counts.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct EnergyLedger {
    /// Time spent serving accesses.
    pub busy_time: SimDuration,
    /// Time spent spinning idle.
    pub idle_time: SimDuration,
    /// Time spent spun down.
    pub standby_time: SimDuration,
    /// Time spent in spin-up/shutdown transitions.
    pub transition_time: SimDuration,
    /// Energy consumed while busy.
    pub busy_energy: Joules,
    /// Energy consumed while idle.
    pub idle_energy: Joules,
    /// Energy consumed in standby.
    pub standby_energy: Joules,
    /// Energy consumed by shutdown + spin-up transitions.
    pub transition_energy: Joules,
    /// Number of completed shutdown transitions.
    pub shutdowns: u64,
    /// Number of completed spin-up transitions.
    pub spinups: u64,
}

impl EnergyLedger {
    /// Total wall-clock time accounted for.
    pub fn total_time(&self) -> SimDuration {
        self.busy_time + self.idle_time + self.standby_time + self.transition_time
    }
}

/// Outcome of submitting one access to [`DiskSim::access`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// True if the disk had to spin up (or finish spinning down first)
    /// to serve this access.
    pub woke_disk: bool,
    /// When the access finishes service.
    pub completed_at: SimTime,
}

/// A stateful disk power simulator.
///
/// Feed it a monotone sequence of [`access`](DiskSim::access) and
/// [`request_shutdown`](DiskSim::request_shutdown) calls and read the
/// [`EnergyLedger`] at the end:
///
/// ```
/// use pcap_disk::{DiskParams, DiskSim};
/// use pcap_types::SimTime;
///
/// let mut disk = DiskSim::new(DiskParams::fujitsu_mhf2043at());
/// disk.access(SimTime::from_secs(0), 4);
/// disk.request_shutdown(SimTime::from_secs(1));
/// let out = disk.access(SimTime::from_secs(60), 4); // wakes the disk
/// assert!(out.woke_disk);
/// let ledger = disk.finish(SimTime::from_secs(65));
/// assert_eq!(ledger.shutdowns, 1);
/// assert_eq!(ledger.spinups, 1);
/// ```
#[derive(Debug, Clone)]
pub struct DiskSim {
    params: DiskParams,
    state: DiskState,
    now: SimTime,
    /// End of the in-flight transition or busy interval, if any.
    busy_or_transition_until: Option<SimTime>,
    ledger: EnergyLedger,
}

impl DiskSim {
    /// Creates a disk that is spinning idle at time zero.
    pub fn new(params: DiskParams) -> DiskSim {
        DiskSim {
            params,
            state: DiskState::Idle,
            now: SimTime::ZERO,
            busy_or_transition_until: None,
            ledger: EnergyLedger::default(),
        }
    }

    /// The current power state.
    pub fn state(&self) -> DiskState {
        self.state
    }

    /// The current simulated time (latest event processed).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The parameters this disk was built with.
    pub fn params(&self) -> &DiskParams {
        &self.params
    }

    /// Read-only view of the ledger so far (not advanced to any time).
    pub fn ledger(&self) -> &EnergyLedger {
        &self.ledger
    }

    fn charge(&mut self, state: DiskState, span: SimDuration) {
        if span.is_zero() {
            return;
        }
        let l = &mut self.ledger;
        match state {
            DiskState::Busy => {
                l.busy_time += span;
                l.busy_energy += self.params.busy_power * span;
            }
            DiskState::Idle => {
                l.idle_time += span;
                l.idle_energy += self.params.idle_power * span;
            }
            DiskState::Standby => {
                l.standby_time += span;
                l.standby_energy += self.params.standby_power * span;
            }
            // Transition *energy* is charged as a lump sum when the
            // transition starts (the paper gives transition energies,
            // not powers); only the time is integrated here.
            DiskState::SpinningDown | DiskState::SpinningUp => {
                l.transition_time += span;
            }
        }
    }

    /// Advances internal time to `t`, integrating energy and completing
    /// any transition that ends before `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is earlier than the last event processed.
    pub fn advance_to(&mut self, t: SimTime) {
        assert!(t >= self.now, "DiskSim events must be time-ordered");
        while let Some(end) = self.busy_or_transition_until {
            if end > t {
                break;
            }
            let span = end - self.now;
            self.charge(self.state, span);
            self.now = end;
            self.busy_or_transition_until = None;
            self.state = match self.state {
                DiskState::Busy => DiskState::Idle,
                DiskState::SpinningDown => {
                    self.ledger.shutdowns += 1;
                    DiskState::Standby
                }
                DiskState::SpinningUp => {
                    self.ledger.spinups += 1;
                    DiskState::Idle
                }
                s => s,
            };
        }
        let span = t - self.now;
        self.charge(self.state, span);
        self.now = t;
    }

    /// Requests a shutdown at time `t`. The request is honoured only if
    /// the disk is idle once `t` is reached; otherwise (busy, already
    /// down, or mid-transition) it is ignored, mirroring a power manager
    /// whose stale decision is preempted by new I/O.
    ///
    /// Returns whether the shutdown began.
    pub fn request_shutdown(&mut self, t: SimTime) -> bool {
        self.advance_to(t);
        if self.state != DiskState::Idle {
            return false;
        }
        self.state = DiskState::SpinningDown;
        self.busy_or_transition_until = Some(t + self.params.shutdown_time);
        self.ledger.transition_energy += self.params.shutdown_energy;
        true
    }

    /// Submits an access arriving at `t` that transfers `pages` 4 KB
    /// pages. If the disk is off (or shutting down) the access first
    /// waits for the platters: shutdown completes, then a spin-up is
    /// paid, then service begins.
    ///
    /// # Panics
    ///
    /// Panics if `t` is earlier than the last event processed.
    pub fn access(&mut self, t: SimTime, pages: u32) -> AccessOutcome {
        self.advance_to(t);
        let mut woke = false;
        // Let an in-flight transition (or previous access) run to
        // completion; service starts afterwards.
        let mut start = t;
        if let Some(end) = self.busy_or_transition_until {
            start = end;
            self.advance_to(end);
        }
        if self.state == DiskState::Standby {
            woke = true;
            self.state = DiskState::SpinningUp;
            let spun = start + self.params.spinup_time;
            self.busy_or_transition_until = Some(spun);
            self.ledger.transition_energy += self.params.spinup_energy;
            self.advance_to(spun);
            start = spun;
        }
        debug_assert_eq!(self.state, DiskState::Idle);
        let completed = start + self.params.service_time(pages);
        self.state = DiskState::Busy;
        self.busy_or_transition_until = Some(completed);
        AccessOutcome {
            woke_disk: woke,
            completed_at: completed,
        }
    }

    /// Advances to `t` (letting in-flight work finish if it ends before
    /// `t`) and returns the final ledger.
    pub fn finish(mut self, t: SimTime) -> EnergyLedger {
        self.advance_to(t);
        self.ledger
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim() -> DiskSim {
        DiskSim::new(DiskParams::fujitsu_mhf2043at())
    }

    #[test]
    fn starts_idle() {
        let s = sim();
        assert_eq!(s.state(), DiskState::Idle);
        assert_eq!(s.now(), SimTime::ZERO);
    }

    #[test]
    fn pure_idle_energy() {
        let s = sim();
        let ledger = s.finish(SimTime::from_secs(10));
        assert!((ledger.idle_energy.0 - 9.5).abs() < 1e-9);
        assert_eq!(ledger.total_time(), SimDuration::from_secs(10));
    }

    #[test]
    fn access_makes_disk_busy_then_idle() {
        let mut s = sim();
        let out = s.access(SimTime::from_secs(1), 2);
        assert!(!out.woke_disk);
        assert_eq!(s.state(), DiskState::Busy);
        s.advance_to(out.completed_at);
        assert_eq!(s.state(), DiskState::Idle);
        let service = s.params().service_time(2);
        assert_eq!(out.completed_at, SimTime::from_secs(1) + service);
    }

    #[test]
    fn shutdown_then_wake_pays_both_transitions() {
        let mut s = sim();
        s.access(SimTime::ZERO, 1);
        assert!(s.request_shutdown(SimTime::from_secs(2)));
        let out = s.access(SimTime::from_secs(30), 1);
        assert!(out.woke_disk);
        let ledger = s.finish(SimTime::from_secs(35));
        assert_eq!(ledger.shutdowns, 1);
        assert_eq!(ledger.spinups, 1);
        assert!((ledger.transition_energy.0 - (4.4 + 0.36)).abs() < 1e-9);
        assert!(ledger.standby_time > SimDuration::from_secs(25));
    }

    #[test]
    fn shutdown_request_while_busy_is_ignored() {
        let mut s = sim();
        let out = s.access(SimTime::from_secs(1), 100);
        assert!(s.now() < out.completed_at);
        assert!(!s.request_shutdown(SimTime::from_millis(1005)));
        assert_eq!(s.state(), DiskState::Busy);
    }

    #[test]
    fn shutdown_request_while_standby_is_ignored() {
        let mut s = sim();
        assert!(s.request_shutdown(SimTime::from_secs(1)));
        assert!(!s.request_shutdown(SimTime::from_secs(10)));
        let ledger = s.finish(SimTime::from_secs(20));
        assert_eq!(ledger.shutdowns, 1);
    }

    #[test]
    fn access_during_spindown_waits_then_spins_up() {
        let mut s = sim();
        assert!(s.request_shutdown(SimTime::from_secs(1)));
        // Arrives 0.1 s into the 0.67 s shutdown.
        let out = s.access(SimTime::from_millis(1100), 1);
        assert!(out.woke_disk);
        // Service can only start after shutdown completes (1.67 s) plus
        // spin-up (1.6 s).
        let expected_start = SimTime::from_micros(1_670_000 + 1_600_000);
        assert_eq!(
            out.completed_at,
            expected_start + s.params().service_time(1)
        );
    }

    #[test]
    fn ledger_matches_closed_form_for_managed_gap() {
        use crate::energy::GapBreakdown;
        let params = DiskParams::fujitsu_mhf2043at();
        let gap = SimDuration::from_secs(40);
        let shutdown_at = SimDuration::from_secs(2);

        // State machine: idle gap of 40 s with a shutdown 2 s in, then
        // an access that wakes the disk exactly at gap end. To compare
        // with the closed form (which folds spin-up time into the gap),
        // issue the wake so that spin-up completes at gap end.
        let mut s = DiskSim::new(params.clone());
        assert!(s.request_shutdown(SimTime::ZERO + shutdown_at));
        let wake_at = SimTime::ZERO + gap - params.spinup_time;
        s.access(wake_at, 0);
        // Stop the ledger right at the access start (end of gap).
        let ledger = s.finish(SimTime::ZERO + gap);

        let closed = GapBreakdown::managed(&params, gap, shutdown_at);
        let machine_total = ledger.idle_energy + ledger.standby_energy + ledger.transition_energy;
        assert!(
            (machine_total.0 - closed.total().0).abs() < 1e-6,
            "state machine {} vs closed form {}",
            machine_total,
            closed.total()
        );
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn time_travel_panics() {
        let mut s = sim();
        s.advance_to(SimTime::from_secs(5));
        s.advance_to(SimTime::from_secs(4));
    }
}
