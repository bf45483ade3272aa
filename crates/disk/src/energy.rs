//! Energy/power newtypes and closed-form per-gap energy accounting.
//!
//! The paper's Figure 8 splits each application's disk energy into four
//! components: *busy I/O*, *idle < breakeven*, *idle > breakeven* and
//! *power cycle*. [`GapBreakdown`] computes the contribution of a single
//! idle gap to those components under a given shutdown decision, which
//! is how [`pcap-sim`](https://docs.rs/pcap-sim) attributes energy.

use crate::model::DiskParams;
use crate::multistate::LowPowerState;
use pcap_types::SimDuration;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub};

/// An amount of energy in joules.
///
/// ```
/// use pcap_disk::{Joules, Watts};
/// use pcap_types::SimDuration;
/// let e = Watts(0.95) * SimDuration::from_secs(10);
/// assert!((e.0 - 9.5).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Joules(pub f64);

impl Joules {
    /// Zero energy.
    pub const ZERO: Joules = Joules(0.0);

    /// Clamps tiny negative values (float noise) to zero.
    ///
    /// # Panics
    ///
    /// Panics if the value is materially negative (< -1e-6 J), which
    /// indicates an accounting bug rather than rounding noise.
    pub fn assert_non_negative(self) -> Joules {
        assert!(self.0 > -1e-6, "negative energy: {self}");
        Joules(self.0.max(0.0))
    }
}

impl fmt::Display for Joules {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} J", self.0)
    }
}

impl Add for Joules {
    type Output = Joules;
    fn add(self, rhs: Joules) -> Joules {
        Joules(self.0 + rhs.0)
    }
}

impl AddAssign for Joules {
    fn add_assign(&mut self, rhs: Joules) {
        self.0 += rhs.0;
    }
}

impl Sub for Joules {
    type Output = Joules;
    fn sub(self, rhs: Joules) -> Joules {
        Joules(self.0 - rhs.0)
    }
}

impl Mul<f64> for Joules {
    type Output = Joules;
    fn mul(self, rhs: f64) -> Joules {
        Joules(self.0 * rhs)
    }
}

impl Sum for Joules {
    fn sum<I: Iterator<Item = Joules>>(iter: I) -> Joules {
        iter.fold(Joules::ZERO, Add::add)
    }
}

/// A power draw in watts. Multiplying by a [`SimDuration`] yields
/// [`Joules`]; see [`Joules`] for an example.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Watts(pub f64);

impl fmt::Display for Watts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} W", self.0)
    }
}

impl Mul<SimDuration> for Watts {
    type Output = Joules;
    fn mul(self, rhs: SimDuration) -> Joules {
        Joules(self.0 * rhs.as_secs_f64())
    }
}

/// Energy contribution of one idle gap, split the way Figure 8 reports
/// it, plus the resulting device-off interval.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct GapBreakdown {
    /// Energy spent spinning idle inside the gap (before any shutdown).
    pub idle: Joules,
    /// Energy spent in standby inside the gap.
    pub standby: Joules,
    /// Shutdown + spin-up transition energy attributable to the gap.
    pub power_cycle: Joules,
    /// How long the device was off (standby + transitions). Zero if no
    /// shutdown happened.
    pub off_interval: SimDuration,
}

impl GapBreakdown {
    /// Total energy of the gap.
    pub fn total(&self) -> Joules {
        self.idle + self.standby + self.power_cycle
    }

    /// Energy of the same gap had no power management been applied
    /// (spinning idle throughout).
    pub fn unmanaged(params: &DiskParams, gap: SimDuration) -> GapBreakdown {
        GapBreakdown {
            idle: params.idle_power * gap,
            standby: Joules::ZERO,
            power_cycle: Joules::ZERO,
            off_interval: SimDuration::ZERO,
        }
    }

    /// Energy of a gap of length `gap` in which the disk is told to shut
    /// down `shutdown_at` after the gap starts.
    ///
    /// If `shutdown_at >= gap` the request never fires and the gap is
    /// unmanaged. Otherwise the disk spins idle for `shutdown_at`, pays
    /// the shutdown transition, sits in standby, and pays the spin-up
    /// transition so that it is spinning again exactly at the end of the
    /// gap (trace-driven time is not stretched; if the gap is shorter
    /// than the two transitions the standby interval is empty and the
    /// transitions simply consume their energy — an energy-losing
    /// misprediction).
    pub fn managed(
        params: &DiskParams,
        gap: SimDuration,
        shutdown_at: SimDuration,
    ) -> GapBreakdown {
        if shutdown_at >= gap {
            return Self::unmanaged(params, gap);
        }
        let idle = params.idle_power * shutdown_at;
        let off = gap - shutdown_at;
        let transitions = params.shutdown_time + params.spinup_time;
        let standby_span = off.saturating_sub(transitions);
        GapBreakdown {
            idle,
            standby: params.standby_power * standby_span,
            power_cycle: params.shutdown_energy + params.spinup_energy,
            off_interval: off,
        }
    }

    /// Re-accounts the pre-shutdown `window` of this breakdown as spent
    /// in the shallow low-power `state` — the §7 wait-window policy —
    /// replacing the `idle` component with the state's entry/exit costs
    /// plus residency power when (and only when) that is cheaper. The
    /// shallow-state energy stays in `idle` (it replaces idle spinning),
    /// so the Figure 8 categorization stays comparable.
    ///
    /// A zero-length window is a no-op, and so is a breakdown in which
    /// no shutdown fired (zero `off_interval`): the disk then spun idle
    /// for the whole gap and had no window to spend elsewhere. Both
    /// charges of the simulator call this one function, the two-state
    /// one on [`managed`](Self::managed) and the ladder one on its
    /// descent, so they apply the identical float operations.
    pub fn substitute_window(self, state: &LowPowerState, window: SimDuration) -> GapBreakdown {
        if window.is_zero() || self.off_interval.is_zero() {
            return self;
        }
        let transitions = state.entry_time + state.exit_time;
        let residency = window.saturating_sub(transitions);
        let window_energy = state.entry_energy + state.exit_energy + state.power * residency;
        // Only substitute when the shallow state actually pays off for
        // this window (the manager checks breakeven, but guard anyway).
        if window_energy.0 < self.idle.0 {
            GapBreakdown {
                idle: window_energy,
                ..self
            }
        } else {
            self
        }
    }

    /// Whether this gap's shutdown actually saved energy relative to
    /// spinning idle for the whole gap.
    pub fn saved_energy(&self, params: &DiskParams, gap: SimDuration) -> bool {
        self.total().0 < Self::unmanaged(params, gap).total().0
    }
}

impl Add for GapBreakdown {
    type Output = GapBreakdown;
    fn add(self, rhs: GapBreakdown) -> GapBreakdown {
        GapBreakdown {
            idle: self.idle + rhs.idle,
            standby: self.standby + rhs.standby,
            power_cycle: self.power_cycle + rhs.power_cycle,
            off_interval: self.off_interval + rhs.off_interval,
        }
    }
}

impl AddAssign for GapBreakdown {
    fn add_assign(&mut self, rhs: GapBreakdown) {
        *self = *self + rhs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> DiskParams {
        DiskParams::fujitsu_mhf2043at()
    }

    #[test]
    fn watts_times_duration() {
        let e = Watts(2.0) * SimDuration::from_millis(500);
        assert!((e.0 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unmanaged_is_pure_idle() {
        let g = GapBreakdown::unmanaged(&p(), SimDuration::from_secs(10));
        assert!((g.idle.0 - 9.5).abs() < 1e-9);
        assert_eq!(g.power_cycle, Joules::ZERO);
        assert_eq!(g.off_interval, SimDuration::ZERO);
    }

    #[test]
    fn managed_long_gap_saves_energy() {
        let params = p();
        let gap = SimDuration::from_secs(60);
        let managed = GapBreakdown::managed(&params, gap, SimDuration::from_secs(1));
        let unmanaged = GapBreakdown::unmanaged(&params, gap);
        assert!(managed.total().0 < unmanaged.total().0);
        assert!(managed.saved_energy(&params, gap));
        assert_eq!(managed.off_interval, SimDuration::from_secs(59));
    }

    #[test]
    fn managed_short_gap_loses_energy() {
        let params = p();
        // Gap barely longer than the shutdown point: off interval of 2 s
        // is far below breakeven, so the power cycle dominates.
        let gap = SimDuration::from_secs(3);
        let managed = GapBreakdown::managed(&params, gap, SimDuration::from_secs(1));
        assert!(!managed.saved_energy(&params, gap));
    }

    #[test]
    fn shutdown_after_gap_end_is_unmanaged() {
        let params = p();
        let gap = SimDuration::from_secs(5);
        let g = GapBreakdown::managed(&params, gap, SimDuration::from_secs(10));
        assert_eq!(g, GapBreakdown::unmanaged(&params, gap));
    }

    #[test]
    fn breakeven_is_the_indifference_point() {
        let params = p();
        // Shutting down at t=0 for a gap exactly equal to the *derived*
        // breakeven should cost the same as staying idle (within float
        // tolerance).
        let be = params.derived_breakeven();
        let managed = GapBreakdown::managed(&params, be, SimDuration::ZERO);
        let unmanaged = GapBreakdown::unmanaged(&params, be);
        assert!((managed.total().0 - unmanaged.total().0).abs() < 1e-6);
    }

    #[test]
    fn breakdown_sums() {
        let params = p();
        let a = GapBreakdown::managed(
            &params,
            SimDuration::from_secs(20),
            SimDuration::from_secs(1),
        );
        let b = GapBreakdown::unmanaged(&params, SimDuration::from_secs(2));
        let s = a + b;
        assert!((s.total().0 - (a.total().0 + b.total().0)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "negative energy")]
    fn material_negative_energy_panics() {
        Joules(-1.0).assert_non_negative();
    }

    #[test]
    fn window_state_cuts_the_pre_shutdown_energy() {
        use crate::multistate::MultiStateParams;
        let params = p();
        let ladder = MultiStateParams::mobile_ata();
        let gap = SimDuration::from_secs(30);
        let at = SimDuration::from_secs(1);
        let state = ladder.best_state_for(at).expect("active-idle pays off");
        let plain = GapBreakdown::managed(&params, gap, at);
        let shallow = plain.substitute_window(state, at);
        assert!(shallow.idle.0 < plain.idle.0);
        assert_eq!(shallow.standby, plain.standby);
        assert_eq!(shallow.power_cycle, plain.power_cycle);
        assert!(shallow.total().0 < plain.total().0);
    }

    #[test]
    fn substitute_window_leaves_an_unmanaged_breakdown_unchanged() {
        use crate::multistate::MultiStateParams;
        let params = p();
        let ladder = MultiStateParams::mobile_ata();
        let state = &ladder.states[0];
        let gap = SimDuration::from_secs(3);
        let unmanaged = GapBreakdown::unmanaged(&params, gap);
        // A shutdown requested past the gap's end never fires.
        let late = GapBreakdown::managed(&params, gap, SimDuration::from_secs(5));
        assert_eq!(late, unmanaged);
        for window in [SimDuration::from_secs(1), SimDuration::from_secs(5)] {
            assert_eq!(late.substitute_window(state, window), unmanaged);
            assert_eq!(unmanaged.substitute_window(state, window), unmanaged);
        }
    }
}
