//! Power-manager construction: per-process predictors with
//! application-level shared state and table-reuse policy.

use pcap_baselines::{
    AdaptiveTimeout, ExponentialAverage, LastBusy, LearningTree, LtConfig, SharedTree, Stochastic,
    TimeoutPredictor,
};
use pcap_core::{
    IdlePredictor, Pcap, PcapConfig, PcapVariant, SharedTable, ShutdownVote, WithBackup,
};
use pcap_disk::{LowPowerState, MultiStateParams};
use pcap_types::SimDuration;
use serde::{Deserialize, Serialize};
use std::fmt;

use crate::SimConfig;

/// Which power manager to simulate — the x-axis of the paper's figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PowerManagerKind {
    /// Fixed timeout (TP) at [`SimConfig::timeout`].
    Timeout,
    /// The clairvoyant ideal predictor of Figure 8.
    Oracle,
    /// PCAP with a variant and table-reuse policy (`reuse: false` is
    /// the paper's PCAPa).
    Pcap {
        /// Which §4 variant.
        variant: PcapVariant,
        /// Keep the prediction table across executions (§4.2)?
        reuse: bool,
    },
    /// The Learning Tree (`reuse: false` is LTa).
    LearningTree {
        /// Keep the tree across executions?
        reuse: bool,
    },
    /// Hwang & Wu's exponential average (extension baseline).
    ExponentialAverage,
    /// Feedback-adjusted timeout (extension baseline).
    AdaptiveTimeout,
    /// Srivastava's L-shape rule (extension baseline).
    LastBusy,
    /// Sliding-window expected-benefit policy (stochastic family, §2).
    Stochastic,
    /// PCAP whose pre-shutdown idle interval (wait-window or backup
    /// timeout) is spent in the deepest shallow low-power state that
    /// pays off within a wait-window (the §7 multi-state extension).
    MultiStatePcap,
}

impl PowerManagerKind {
    /// Plain PCAP with table reuse — the paper's headline configuration.
    pub const PCAP: PowerManagerKind = PowerManagerKind::Pcap {
        variant: PcapVariant::Base,
        reuse: true,
    };

    /// LT with tree reuse.
    pub const LT: PowerManagerKind = PowerManagerKind::LearningTree { reuse: true };

    /// Whether this kind's per-process predictors may be recycled
    /// across processes (and devices) after
    /// [`on_run_end`](pcap_core::IdlePredictor::on_run_end).
    ///
    /// True for every kind whose `on_run_end` restores the predictor
    /// to its freshly constructed state (shared tables are owned by the
    /// [`Manager`], not the box). The one exception is
    /// [`AdaptiveTimeout`](PowerManagerKind::AdaptiveTimeout), whose
    /// feedback-adjusted timeout deliberately persists for the life of
    /// the box — recycling it would leak one process's adaptation into
    /// the next.
    pub fn recyclable_predictors(self) -> bool {
        !matches!(self, PowerManagerKind::AdaptiveTimeout)
    }

    /// The paper's label for the configuration ("TP", "PCAPh", "LTa", …).
    pub fn label(self) -> String {
        match self {
            PowerManagerKind::Timeout => "TP".into(),
            PowerManagerKind::Oracle => "Ideal".into(),
            PowerManagerKind::Pcap { variant, reuse } => {
                if reuse {
                    variant.label().into()
                } else {
                    format!("{}a", variant.label())
                }
            }
            PowerManagerKind::LearningTree { reuse } => {
                if reuse {
                    "LT".into()
                } else {
                    "LTa".into()
                }
            }
            PowerManagerKind::ExponentialAverage => "ExpAvg".into(),
            PowerManagerKind::AdaptiveTimeout => "AdaptTO".into(),
            PowerManagerKind::LastBusy => "LastBusy".into(),
            PowerManagerKind::Stochastic => "Stochastic".into(),
            PowerManagerKind::MultiStatePcap => "PCAP+ms".into(),
        }
    }

    /// Builds the per-application manager (shared state lives inside).
    pub fn manager(self, config: &SimConfig) -> Manager {
        Manager::new(self, config)
    }
}

impl fmt::Display for PowerManagerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// Application-level shared predictor state.
#[derive(Debug, Clone)]
enum Shared {
    None,
    Table(SharedTable),
    Tree(SharedTree),
}

/// A per-application power manager: constructs per-process predictors,
/// carries shared tables/trees across executions, and applies the
/// reuse-or-discard policy at run boundaries.
#[derive(Debug)]
pub struct Manager {
    kind: PowerManagerKind,
    config: SimConfig,
    shared: Shared,
    /// See [`Manager::window_state`]; resolved once here because the
    /// ladder it is chosen from allocates.
    window_state: Option<LowPowerState>,
}

impl Manager {
    fn new(kind: PowerManagerKind, config: &SimConfig) -> Manager {
        let shared = match kind {
            PowerManagerKind::Pcap { .. } | PowerManagerKind::MultiStatePcap => {
                Shared::Table(match config.pcap_table_capacity {
                    Some(capacity) => SharedTable::with_capacity(capacity),
                    None => SharedTable::unbounded(),
                })
            }
            PowerManagerKind::LearningTree { .. } => Shared::Tree(SharedTree::new()),
            _ => Shared::None,
        };
        let window_state = match kind {
            PowerManagerKind::MultiStatePcap => MultiStateParams::mobile_ata()
                .best_state_for(config.wait_window)
                .cloned(),
            _ => None,
        };
        Manager {
            kind,
            config: config.clone(),
            shared,
            window_state,
        }
    }

    /// The manager's kind.
    pub fn kind(&self) -> PowerManagerKind {
        self.kind
    }

    /// True for the ideal predictor, which the global simulator
    /// special-cases (it acts on merged gaps, not per-process votes).
    pub fn is_oracle(&self) -> bool {
        self.kind == PowerManagerKind::Oracle
    }

    fn pcap_config(&self, variant: PcapVariant) -> PcapConfig {
        PcapConfig {
            variant,
            wait_window: self.config.wait_window,
            breakeven: self.config.disk.breakeven_time(),
            history_len: self.config.pcap_history_len,
            scheme: self.config.signature_scheme,
        }
    }

    fn lt_config(&self) -> LtConfig {
        LtConfig {
            history_len: self.config.lt_history_len,
            wait_window: self.config.wait_window,
            breakeven: self.config.disk.breakeven_time(),
            ..LtConfig::paper()
        }
    }

    /// Creates the predictor for one process of the current execution.
    pub fn for_process(&mut self) -> Box<dyn IdlePredictor> {
        let backup = self.config.backup_timeout;
        match (self.kind, &self.shared) {
            (PowerManagerKind::Timeout, _) => Box::new(TimeoutPredictor::new(self.config.timeout)),
            (PowerManagerKind::Oracle, _) => Box::new(pcap_baselines::Oracle::new(
                self.config.disk.breakeven_time(),
            )),
            (PowerManagerKind::Pcap { variant, .. }, Shared::Table(table)) => Box::new(
                WithBackup::new(Pcap::new(self.pcap_config(variant), table.clone()), backup),
            ),
            (PowerManagerKind::MultiStatePcap, Shared::Table(table)) => Box::new(WithBackup::new(
                Pcap::new(self.pcap_config(PcapVariant::Base), table.clone()),
                backup,
            )),
            (PowerManagerKind::LearningTree { .. }, Shared::Tree(tree)) => Box::new(
                WithBackup::new(LearningTree::new(self.lt_config(), tree.clone()), backup),
            ),
            (PowerManagerKind::ExponentialAverage, _) => Box::new(WithBackup::new(
                ExponentialAverage::new(
                    0.5,
                    self.config.wait_window,
                    self.config.disk.breakeven_time(),
                ),
                backup,
            )),
            (PowerManagerKind::AdaptiveTimeout, _) => Box::new(AdaptiveTimeout::new(
                self.config.timeout,
                SimDuration::from_secs(1),
                SimDuration::from_secs(60),
                self.config.disk.breakeven_time(),
            )),
            (PowerManagerKind::LastBusy, _) => Box::new(WithBackup::new(
                LastBusy::new(
                    SimDuration::from_secs(2),
                    SimDuration::from_secs(1),
                    self.config.wait_window,
                ),
                backup,
            )),
            (PowerManagerKind::Stochastic, _) => Box::new(WithBackup::new(
                Stochastic::new(
                    64,
                    self.config.wait_window,
                    self.config.disk.breakeven_time(),
                ),
                backup,
            )),
            (kind, _) => unreachable!("inconsistent shared state for {kind:?}"),
        }
    }

    /// The standing vote of a process that has not yet performed any
    /// I/O, anchored at its start time: trainable predictors fall back
    /// to the backup timeout, plain timeouts to their own timer, the
    /// oracle abstains (it is special-cased anyway).
    pub fn initial_vote(&self) -> ShutdownVote {
        match self.kind {
            PowerManagerKind::Timeout => ShutdownVote::after(self.config.timeout),
            PowerManagerKind::AdaptiveTimeout => ShutdownVote::after(self.config.timeout),
            PowerManagerKind::Oracle => ShutdownVote::never(),
            _ => ShutdownVote::backup_after(self.config.backup_timeout),
        }
    }

    /// The shallow low-power state to hold during pre-shutdown idle
    /// intervals, if this manager uses the §7 multi-state extension.
    /// Chosen so it pays off even for the shortest such interval (one
    /// wait-window); longer intervals only save more.
    pub fn window_state(&self) -> Option<&LowPowerState> {
        self.window_state.as_ref()
    }

    /// Applies the run-boundary policy: discard shared state unless the
    /// configuration reuses tables across executions.
    pub fn on_run_end(&mut self) {
        let discard = match self.kind {
            PowerManagerKind::Pcap { reuse, .. } => !reuse,
            PowerManagerKind::LearningTree { reuse } => !reuse,
            _ => false,
        };
        if discard {
            match &self.shared {
                Shared::Table(t) => t.clear(),
                Shared::Tree(t) => t.clear(),
                Shared::None => {}
            }
        }
    }

    /// Forgets all shared predictor state (prediction table or learning
    /// tree) regardless of the reuse policy, keeping allocated capacity.
    ///
    /// A reset manager is behaviorally identical to a freshly built one
    /// — the streaming pipeline calls this at device boundaries so one
    /// manager (and the predictor boxes holding handles to its shared
    /// table) serves an unbounded device population.
    pub fn reset_shared(&mut self) {
        match &self.shared {
            Shared::Table(t) => t.clear(),
            Shared::Tree(t) => t.clear(),
            Shared::None => {}
        }
    }

    /// Entries in the shared prediction structure (Table 3), if the
    /// manager has one.
    pub fn table_entries(&self) -> Option<usize> {
        match &self.shared {
            Shared::Table(t) => Some(t.len()),
            Shared::Tree(t) => Some(t.len()),
            Shared::None => None,
        }
    }

    /// Detected signature-aliasing events in the prediction table (the
    /// paper reports "this signature aliasing did not occur" for its
    /// traces; we measure instead of assume).
    pub fn table_aliases(&self) -> Option<u64> {
        match &self.shared {
            Shared::Table(t) => Some(t.alias_count()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcap_core::VoteSource;
    use pcap_types::Pid;

    #[test]
    fn labels_match_paper() {
        assert_eq!(PowerManagerKind::Timeout.label(), "TP");
        assert_eq!(PowerManagerKind::PCAP.label(), "PCAP");
        assert_eq!(
            PowerManagerKind::Pcap {
                variant: PcapVariant::History,
                reuse: true
            }
            .label(),
            "PCAPh"
        );
        assert_eq!(
            PowerManagerKind::Pcap {
                variant: PcapVariant::Base,
                reuse: false
            }
            .label(),
            "PCAPa"
        );
        assert_eq!(PowerManagerKind::LT.label(), "LT");
        assert_eq!(
            PowerManagerKind::LearningTree { reuse: false }.label(),
            "LTa"
        );
        assert_eq!(PowerManagerKind::Oracle.to_string(), "Ideal");
    }

    #[test]
    fn manager_builds_predictors() {
        let config = SimConfig::paper();
        for kind in [
            PowerManagerKind::Timeout,
            PowerManagerKind::Oracle,
            PowerManagerKind::PCAP,
            PowerManagerKind::LT,
            PowerManagerKind::ExponentialAverage,
            PowerManagerKind::AdaptiveTimeout,
            PowerManagerKind::LastBusy,
        ] {
            let mut m = kind.manager(&config);
            let p = m.for_process();
            assert!(!p.name().is_empty(), "{kind}");
        }
    }

    #[test]
    fn initial_votes() {
        let config = SimConfig::paper();
        let tp = PowerManagerKind::Timeout.manager(&config);
        assert_eq!(tp.initial_vote().delay, Some(config.timeout));
        let pcap = PowerManagerKind::PCAP.manager(&config);
        let v = pcap.initial_vote();
        assert_eq!(v.source, VoteSource::Backup);
        assert_eq!(v.delay, Some(config.backup_timeout));
        assert_eq!(
            PowerManagerKind::Oracle
                .manager(&config)
                .initial_vote()
                .delay,
            None
        );
    }

    #[test]
    fn reuse_policy() {
        let config = SimConfig::paper();
        // Learn something through a process predictor, then end the run.
        let exercise = |kind: PowerManagerKind| -> usize {
            let mut m = kind.manager(&config);
            {
                let mut p = m.for_process();
                let access = pcap_types::DiskAccess {
                    time: pcap_types::SimTime::ZERO,
                    pid: Pid(1),
                    pc: pcap_types::Pc(7),
                    fd: pcap_types::Fd(3),
                    kind: pcap_types::IoKind::Read,
                    pages: 1,
                };
                p.on_access(&access, SimDuration::ZERO);
                p.on_idle_end(SimDuration::from_secs(30));
                p.on_run_end();
            }
            m.on_run_end();
            m.table_entries().unwrap()
        };
        assert_eq!(exercise(PowerManagerKind::PCAP), 1, "reuse keeps the table");
        assert_eq!(
            exercise(PowerManagerKind::Pcap {
                variant: PcapVariant::Base,
                reuse: false
            }),
            0,
            "PCAPa discards at exit"
        );
    }

    #[test]
    fn oracle_detection() {
        let config = SimConfig::paper();
        assert!(PowerManagerKind::Oracle.manager(&config).is_oracle());
        assert!(!PowerManagerKind::PCAP.manager(&config).is_oracle());
        assert_eq!(
            PowerManagerKind::PCAP.manager(&config).kind(),
            PowerManagerKind::PCAP
        );
    }
}
