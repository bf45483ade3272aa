//! Multiple low-power states — the extension sketched in the paper's
//! conclusion ("PCAP can be further extended to handle multiple low
//! power states of hard disks").
//!
//! A [`MultiStateParams`] describes a ladder of progressively deeper
//! low-power states (e.g. *active idle* → *low-power idle* → *standby*),
//! each with its own residency power and entry/exit costs. The per-state
//! breakeven time tells a power manager how long an idle period must be
//! for that state to pay off, enabling the "enter a shallow state during
//! the wait-window, go deeper after it elapses" policy of §7.

use crate::energy::{Joules, Watts};
use crate::model::DiskParams;
use pcap_types::SimDuration;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Why a [`MultiStateParams`] ladder failed
/// [`validate`](MultiStateParams::validate).
///
/// Ladders can arrive through deserialization, so every structural
/// assumption the engines rely on — finite non-negative values, power
/// strictly decreasing with depth, breakevens strictly increasing — is
/// checked explicitly rather than trusted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LadderError {
    /// The ladder has no states.
    Empty,
    /// A power or energy value is NaN, infinite or negative. `state` is
    /// `None` for the ladder-wide `idle_power`.
    NotFinite {
        /// Index into `states`, or `None` for `idle_power`.
        state: Option<usize>,
        /// Which field failed.
        field: &'static str,
    },
    /// `states[index]` does not draw strictly less power than the state
    /// above it (spinning idle, for the first state).
    PowerNotDecreasing(usize),
    /// `states[index]`'s breakeven is not strictly longer than the
    /// previous state's, so descending to it could never be the right
    /// move at any gap length.
    BreakevenNotIncreasing(usize),
}

impl fmt::Display for LadderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LadderError::Empty => write!(f, "ladder has no states"),
            LadderError::NotFinite { state: None, field } => {
                write!(f, "ladder {field} is not a finite non-negative number")
            }
            LadderError::NotFinite {
                state: Some(i),
                field,
            } => write!(f, "state {i}: {field} is not a finite non-negative number"),
            LadderError::PowerNotDecreasing(i) => write!(
                f,
                "state {i}: power must be strictly below the state above it"
            ),
            LadderError::BreakevenNotIncreasing(i) => write!(
                f,
                "state {i}: breakeven must be strictly longer than the state above it"
            ),
        }
    }
}

impl std::error::Error for LadderError {}

/// One low-power state in the ladder.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LowPowerState {
    /// Human-readable name ("low-power idle", "standby", …).
    pub name: String,
    /// Residency power.
    pub power: Watts,
    /// Energy to enter the state from full idle.
    pub entry_energy: Joules,
    /// Time to enter the state from full idle.
    pub entry_time: SimDuration,
    /// Energy to return to full idle.
    pub exit_energy: Joules,
    /// Time to return to full idle.
    pub exit_time: SimDuration,
}

impl LowPowerState {
    /// Breakeven time of this state against spinning idle at
    /// `idle_power`: the minimum idle-gap length for which entering the
    /// state saves energy.
    ///
    /// The state's cost for a gap of length `T` is piecewise: flat at
    /// the full entry+exit energy while `T` is shorter than the
    /// combined transition time (the residency term saturates at zero,
    /// matching [`MultiStateParams::gap_energy_in`]), then growing at
    /// the residency power. Idle costs `idle_power · T` throughout, so
    /// the crossing can land in either regime — a state whose exit
    /// energy dominates its residency savings breaks even inside the
    /// flat regime, not at zero.
    ///
    /// Returns `None` if the state never pays off (its residency power
    /// is not below idle power).
    pub fn breakeven_against(&self, idle_power: Watts) -> Option<SimDuration> {
        let saving_rate = idle_power.0 - self.power.0;
        if saving_rate <= 0.0 {
            return None;
        }
        let transition_energy = self.entry_energy.0 + self.exit_energy.0;
        let transitions = (self.entry_time + self.exit_time).as_secs_f64();
        let flat_crossing = transition_energy / idle_power.0;
        let breakeven = if flat_crossing <= transitions {
            flat_crossing
        } else {
            (transition_energy - self.power.0 * transitions) / saving_rate
        };
        Some(SimDuration::from_secs_f64(breakeven))
    }
}

/// A ladder of low-power states ordered from shallowest to deepest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiStateParams {
    /// Power while spinning idle (the state the ladder descends from).
    pub idle_power: Watts,
    /// Low-power states, shallowest first.
    pub states: Vec<LowPowerState>,
}

impl MultiStateParams {
    /// A three-state ladder loosely modeled on mobile ATA disks:
    /// *active idle* (heads parked), *low-power idle* (heads unloaded),
    /// *standby* (spun down, the Table 2 state).
    pub fn mobile_ata() -> MultiStateParams {
        let ladder = MultiStateParams {
            idle_power: Watts(0.95),
            states: vec![
                LowPowerState {
                    name: "active-idle".into(),
                    power: Watts(0.70),
                    entry_energy: Joules(0.05),
                    entry_time: SimDuration::from_millis(40),
                    exit_energy: Joules(0.08),
                    exit_time: SimDuration::from_millis(60),
                },
                LowPowerState {
                    name: "low-power-idle".into(),
                    power: Watts(0.45),
                    entry_energy: Joules(0.3),
                    entry_time: SimDuration::from_millis(300),
                    exit_energy: Joules(0.9),
                    exit_time: SimDuration::from_millis(400),
                },
                LowPowerState {
                    name: "standby".into(),
                    power: Watts(0.13),
                    entry_energy: Joules(0.36),
                    entry_time: SimDuration::from_secs_f64(0.67),
                    exit_energy: Joules(4.4),
                    exit_time: SimDuration::from_secs_f64(1.6),
                },
            ],
        };
        ladder.validate().expect("mobile_ata ladder is valid");
        ladder
    }

    /// A single-state ladder equivalent to the two-state model of
    /// `params`: the only state is Table 2's standby, entered via the
    /// shutdown transition and exited via the spin-up transition.
    /// Descending this ladder reproduces
    /// [`GapBreakdown`](crate::GapBreakdown)`::managed` bit-for-bit,
    /// which is what pins the multi-state engine to the legacy
    /// two-state engine (see `pcap-sim`'s byte-identity tests).
    pub fn from_disk(params: &DiskParams) -> MultiStateParams {
        let ladder = MultiStateParams {
            idle_power: params.idle_power,
            states: vec![LowPowerState {
                name: "standby".into(),
                power: params.standby_power,
                entry_energy: params.shutdown_energy,
                entry_time: params.shutdown_time,
                exit_energy: params.spinup_energy,
                exit_time: params.spinup_time,
            }],
        };
        ladder.validate().expect("two-state ladder is valid");
        ladder
    }

    /// Checks every structural assumption the engines rely on: at least
    /// one state, all powers/energies finite and non-negative, power
    /// strictly decreasing down the ladder (starting below idle), and
    /// per-state breakevens strictly increasing with depth.
    ///
    /// Ladders reach the simulator through deserialization as well as
    /// the built-in constructors, so every entry point calls this
    /// before trusting the shape.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), LadderError> {
        let finite = |v: f64| v.is_finite() && v >= 0.0;
        if self.states.is_empty() {
            return Err(LadderError::Empty);
        }
        if !finite(self.idle_power.0) {
            return Err(LadderError::NotFinite {
                state: None,
                field: "idle_power",
            });
        }
        let mut prev_power = self.idle_power.0;
        let mut prev_breakeven: Option<SimDuration> = None;
        for (i, state) in self.states.iter().enumerate() {
            for (field, value) in [
                ("power", state.power.0),
                ("entry_energy", state.entry_energy.0),
                ("exit_energy", state.exit_energy.0),
            ] {
                if !finite(value) {
                    return Err(LadderError::NotFinite {
                        state: Some(i),
                        field,
                    });
                }
            }
            if state.power.0 >= prev_power {
                return Err(LadderError::PowerNotDecreasing(i));
            }
            prev_power = state.power.0;
            let breakeven = state
                .breakeven_against(self.idle_power)
                .expect("power below idle always pays off eventually");
            if prev_breakeven.is_some_and(|prev| breakeven <= prev) {
                return Err(LadderError::BreakevenNotIncreasing(i));
            }
            prev_breakeven = Some(breakeven);
        }
        Ok(())
    }

    /// The per-state breakeven times against spinning idle, shallowest
    /// first.
    ///
    /// # Panics
    ///
    /// Panics if a state never pays off — call on validated ladders.
    pub fn breakevens(&self) -> Vec<SimDuration> {
        self.states
            .iter()
            .map(|s| {
                s.breakeven_against(self.idle_power)
                    .expect("validated ladder states pay off")
            })
            .collect()
    }

    /// The deepest state whose breakeven time is at most `gap`, i.e. the
    /// best state to enter when an idle period of length `gap` is
    /// predicted. Returns `None` when even the shallowest state does not
    /// pay off.
    pub fn best_state_for(&self, gap: SimDuration) -> Option<&LowPowerState> {
        self.states
            .iter()
            .filter(|s| {
                s.breakeven_against(self.idle_power)
                    .is_some_and(|be| be <= gap)
            })
            .min_by(|a, b| a.power.0.partial_cmp(&b.power.0).expect("finite powers"))
    }

    /// Energy for an idle gap spent in `state` (entered at gap start,
    /// exited so the disk is ready at gap end), versus idle otherwise.
    pub fn gap_energy_in(&self, state: &LowPowerState, gap: SimDuration) -> Joules {
        let transitions = state.entry_time + state.exit_time;
        let residency = gap.saturating_sub(transitions);
        state.entry_energy + state.exit_energy + state.power * residency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deeper_states_have_longer_breakeven() {
        let m = MultiStateParams::mobile_ata();
        let bes: Vec<f64> = m
            .states
            .iter()
            .map(|s| s.breakeven_against(m.idle_power).unwrap().as_secs_f64())
            .collect();
        assert!(bes.windows(2).all(|w| w[0] < w[1]), "breakevens {bes:?}");
    }

    #[test]
    fn standby_breakeven_matches_two_state_model() {
        let m = MultiStateParams::mobile_ata();
        let standby = m.states.last().unwrap();
        let be = standby.breakeven_against(m.idle_power).unwrap();
        assert!((be.as_secs_f64() - 5.44).abs() < 0.05);
    }

    #[test]
    fn best_state_descends_with_gap_length() {
        let m = MultiStateParams::mobile_ata();
        assert!(m.best_state_for(SimDuration::from_millis(100)).is_none());
        assert_eq!(
            m.best_state_for(SimDuration::from_secs(1)).unwrap().name,
            "active-idle"
        );
        assert_eq!(
            m.best_state_for(SimDuration::from_secs(4)).unwrap().name,
            "low-power-idle"
        );
        assert_eq!(
            m.best_state_for(SimDuration::from_secs(60)).unwrap().name,
            "standby"
        );
    }

    #[test]
    fn useless_state_has_no_breakeven() {
        let s = LowPowerState {
            name: "bogus".into(),
            power: Watts(1.0),
            entry_energy: Joules(0.0),
            entry_time: SimDuration::ZERO,
            exit_energy: Joules(0.0),
            exit_time: SimDuration::ZERO,
        };
        assert_eq!(s.breakeven_against(Watts(0.95)), None);
    }

    #[test]
    fn gap_energy_beats_idle_beyond_breakeven() {
        let m = MultiStateParams::mobile_ata();
        let standby = m.states.last().unwrap();
        let gap = SimDuration::from_secs(30);
        let in_state = m.gap_energy_in(standby, gap);
        let idle = m.idle_power * gap;
        assert!(in_state.0 < idle.0);
    }

    /// The regression the old formula got wrong: a state whose exit
    /// energy dominates its residency savings used to compute a
    /// *negative* linear-regime crossing and clamp it to a 0 s
    /// breakeven, claiming the state pays off for every gap. The
    /// crossing actually lands in the flat regime, at
    /// `transition_energy / idle_power`.
    #[test]
    fn exit_energy_dominated_state_breaks_even_in_the_flat_regime() {
        let idle = Watts(0.95);
        let s = LowPowerState {
            name: "exit-heavy".into(),
            power: Watts(0.1),
            entry_energy: Joules(0.0),
            entry_time: SimDuration::from_secs(1),
            exit_energy: Joules(0.05),
            exit_time: SimDuration::from_secs(1),
        };
        let be = s.breakeven_against(idle).unwrap();
        let expected = 0.05 / 0.95;
        assert!(
            (be.as_secs_f64() - expected).abs() < 1e-6,
            "breakeven {} vs flat crossing {expected}",
            be.as_secs_f64()
        );
        // And the breakeven is consistent with the saturating cost
        // model: below it idle wins, above it the state wins.
        let m = MultiStateParams {
            idle_power: idle,
            states: vec![s],
        };
        let below = SimDuration::from_secs_f64(expected * 0.5);
        let above = SimDuration::from_secs_f64(expected * 2.0);
        assert!(m.gap_energy_in(&m.states[0], below).0 > (idle * below).0);
        assert!(m.gap_energy_in(&m.states[0], above).0 < (idle * above).0);
    }

    /// The two regimes agree at the joint: a state whose flat crossing
    /// lands exactly on the transition time gets the same breakeven
    /// from either formula.
    #[test]
    fn breakeven_regimes_are_continuous() {
        let idle = Watts(1.0);
        // transition_energy = idle_power · transitions ⇒ joint case.
        let s = LowPowerState {
            name: "joint".into(),
            power: Watts(0.5),
            entry_energy: Joules(1.0),
            entry_time: SimDuration::from_secs(1),
            exit_energy: Joules(1.0),
            exit_time: SimDuration::from_secs(1),
        };
        let be = s.breakeven_against(idle).unwrap().as_secs_f64();
        let linear: f64 = (2.0 - 0.5 * 2.0) / 0.5;
        assert!((be - 2.0).abs() < 1e-9);
        assert!((linear - 2.0).abs() < 1e-9);
    }

    #[test]
    fn builtin_ladders_validate() {
        assert_eq!(MultiStateParams::mobile_ata().validate(), Ok(()));
        let single = MultiStateParams::from_disk(&DiskParams::fujitsu_mhf2043at());
        assert_eq!(single.validate(), Ok(()));
        assert_eq!(single.states.len(), 1);
    }

    #[test]
    fn from_disk_breakeven_matches_derived_two_state_breakeven() {
        let params = DiskParams::fujitsu_mhf2043at();
        let single = MultiStateParams::from_disk(&params);
        let be = single.breakevens()[0];
        assert!((be.as_secs_f64() - params.derived_breakeven().as_secs_f64()).abs() < 1e-6);
    }

    #[test]
    fn validate_rejects_malformed_ladders() {
        let good = MultiStateParams::mobile_ata();

        let empty = MultiStateParams {
            idle_power: good.idle_power,
            states: Vec::new(),
        };
        assert_eq!(empty.validate(), Err(LadderError::Empty));

        let mut nan_power = good.clone();
        nan_power.states[1].power = Watts(f64::NAN);
        assert_eq!(
            nan_power.validate(),
            Err(LadderError::NotFinite {
                state: Some(1),
                field: "power",
            })
        );

        let mut negative_energy = good.clone();
        negative_energy.states[2].exit_energy = Joules(-4.4);
        assert_eq!(
            negative_energy.validate(),
            Err(LadderError::NotFinite {
                state: Some(2),
                field: "exit_energy",
            })
        );

        let mut bad_idle = good.clone();
        bad_idle.idle_power = Watts(f64::INFINITY);
        assert_eq!(
            bad_idle.validate(),
            Err(LadderError::NotFinite {
                state: None,
                field: "idle_power",
            })
        );

        let mut non_monotone_power = good.clone();
        non_monotone_power.states[1].power = Watts(0.70);
        assert_eq!(
            non_monotone_power.validate(),
            Err(LadderError::PowerNotDecreasing(1))
        );

        // A deeper state that is strictly cheaper to run *and* cheaper
        // to enter than the one above it makes the shallower state's
        // breakeven the longer of the two.
        let mut inverted_breakeven = good.clone();
        inverted_breakeven.states[2].entry_energy = Joules(0.0);
        inverted_breakeven.states[2].exit_energy = Joules(0.0);
        inverted_breakeven.states[2].entry_time = SimDuration::ZERO;
        inverted_breakeven.states[2].exit_time = SimDuration::ZERO;
        assert_eq!(
            inverted_breakeven.validate(),
            Err(LadderError::BreakevenNotIncreasing(2))
        );

        // Malformed ladders also survive a serde round-trip unchanged,
        // which is why validate() exists at the entry points.
        let json = serde_json::to_string(&non_monotone_power).unwrap();
        let back: MultiStateParams = serde_json::from_str(&json).unwrap();
        assert_eq!(back.validate(), Err(LadderError::PowerNotDecreasing(1)));
    }
}
