//! The Program-Counter Access Predictor (§3–§4).

use crate::history::HistoryTracker;
use crate::predictor::{IdlePredictor, ShutdownVote};
use crate::signature::{SignatureScheme, SignatureTracker};
use crate::table::{SharedTable, TableKey};
use pcap_trace::idle::GapClass;
use pcap_types::{DiskAccess, Fd, Signature, SimDuration};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which of the paper's PCAP variants to run (§4.1.2, Figure 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PcapVariant {
    /// Path signature only.
    Base,
    /// Signature + idle-period history bit-vector (PCAPh).
    History,
    /// Signature + file descriptor of the last I/O (PCAPf).
    FileDescriptor,
    /// Signature + history + file descriptor (PCAPfh).
    FileDescriptorHistory,
}

impl PcapVariant {
    /// True if the variant keys on the idle-period history.
    pub fn uses_history(self) -> bool {
        matches!(
            self,
            PcapVariant::History | PcapVariant::FileDescriptorHistory
        )
    }

    /// True if the variant keys on file descriptors.
    pub fn uses_fd(self) -> bool {
        matches!(
            self,
            PcapVariant::FileDescriptor | PcapVariant::FileDescriptorHistory
        )
    }

    /// The paper's short label ("PCAP", "PCAPh", "PCAPf", "PCAPfh").
    pub fn label(self) -> &'static str {
        match self {
            PcapVariant::Base => "PCAP",
            PcapVariant::History => "PCAPh",
            PcapVariant::FileDescriptor => "PCAPf",
            PcapVariant::FileDescriptorHistory => "PCAPfh",
        }
    }
}

impl fmt::Display for PcapVariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Configuration of a [`Pcap`] predictor.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PcapConfig {
    /// The variant to run.
    pub variant: PcapVariant,
    /// Sliding wait-window before acting on a prediction (§4.1.1); the
    /// paper uses 1 s.
    pub wait_window: SimDuration,
    /// Breakeven time separating long from short idle periods; Table 2
    /// gives 5.43 s.
    pub breakeven: SimDuration,
    /// Idle-period history length for the `h` variants; the paper uses
    /// 6 ("which maximizes energy savings and minimizes
    /// mispredictions").
    pub history_len: usize,
    /// Path-encoding scheme (the paper's additive encoding by default;
    /// §3.2 leaves alternatives unexplored — see
    /// [`SignatureScheme`]).
    pub scheme: SignatureScheme,
}

impl PcapConfig {
    /// The paper's configuration for the base variant: 1 s wait-window,
    /// 5.43 s breakeven, history length 6.
    pub fn paper() -> PcapConfig {
        PcapConfig {
            variant: PcapVariant::Base,
            wait_window: SimDuration::from_secs(1),
            breakeven: SimDuration::from_secs_f64(5.43),
            history_len: 6,
            scheme: SignatureScheme::Additive,
        }
    }

    /// The paper configuration with a different variant.
    pub fn paper_variant(variant: PcapVariant) -> PcapConfig {
        PcapConfig {
            variant,
            ..PcapConfig::paper()
        }
    }
}

impl Default for PcapConfig {
    fn default() -> Self {
        PcapConfig::paper()
    }
}

/// One process's PCAP predictor (§3.2, Figure 4).
///
/// Holds the per-process state — current signature, idle-period history
/// and last file descriptor — and a [`SharedTable`] owned by the
/// application. After each I/O it folds the PC into the signature and
/// looks the resulting key up; a match predicts a long idle period
/// (vote: shut down after the wait-window), a miss is "no idle"
/// (no vote; compose with [`WithBackup`](crate::WithBackup) for the
/// backup timeout of §4.3). When an idle period longer than breakeven
/// ends and the key was unknown, the key is learned.
///
/// See the [crate docs](crate) for a complete worked example.
#[derive(Debug, Clone)]
pub struct Pcap {
    config: PcapConfig,
    table: SharedTable,
    signature: SignatureTracker,
    history: HistoryTracker,
    last_fd: Option<Fd>,
    /// Key used by the most recent lookup (with the path's reference
    /// hash); learned at idle end if the idle period turns out long.
    pending_key: Option<(TableKey, u64)>,
    /// Statistics: lookups that matched.
    matches: u64,
    /// Statistics: keys learned.
    learned: u64,
}

impl Pcap {
    /// Creates a predictor for one process, sharing `table` with the
    /// other processes of the application.
    pub fn new(config: PcapConfig, table: SharedTable) -> Pcap {
        let history_len = config.history_len;
        let scheme = config.scheme;
        Pcap {
            config,
            table,
            signature: SignatureTracker::with_scheme(scheme),
            history: HistoryTracker::new(history_len),
            last_fd: None,
            pending_key: None,
            matches: 0,
            learned: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &PcapConfig {
        &self.config
    }

    /// The shared prediction table.
    pub fn table(&self) -> &SharedTable {
        &self.table
    }

    /// (signature matches, keys learned) so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.matches, self.learned)
    }

    /// Builds the table key for the current per-process state.
    fn current_key(&self) -> Option<TableKey> {
        let signature = self.signature.current()?;
        Some(TableKey {
            signature,
            history: self
                .config
                .variant
                .uses_history()
                .then(|| self.history.bits()),
            fd: if self.config.variant.uses_fd() {
                self.last_fd
            } else {
                None
            },
        })
    }
}

impl IdlePredictor for Pcap {
    fn name(&self) -> String {
        self.config.variant.label().to_owned()
    }

    fn on_access(&mut self, access: &DiskAccess, _upcoming_idle: SimDuration) -> ShutdownVote {
        // Kernel flush-daemon write-backs carry no application PC, so
        // they never enter signatures.
        if !access.is_kernel() {
            self.signature.observe(access.pc);
            self.last_fd = Some(access.fd);
        }
        match self.current_key() {
            Some(key) => {
                self.pending_key = Some((key, self.signature.path_hash()));
                if self.table.lookup(key) {
                    self.matches += 1;
                    ShutdownVote::after(self.config.wait_window)
                } else {
                    ShutdownVote::never() // "no idle" — backup may override
                }
            }
            None => ShutdownVote::never(),
        }
    }

    fn on_idle_end(&mut self, idle: SimDuration) {
        let class = GapClass::of(idle, self.config.wait_window, self.config.breakeven);
        if class == GapClass::Long {
            if let Some((key, path_hash)) = self.pending_key.take() {
                // learn_path() is idempotent; count only genuinely new
                // keys, and let the table flag signature aliasing.
                let before = self.table.len();
                self.table.learn_path(key, path_hash);
                if self.table.len() > before {
                    self.learned += 1;
                }
            }
            // The next I/O starts a fresh path (§3.2: the signature "is
            // overwritten by the PC of the first I/O operation" after a
            // long idle period).
            self.signature.reset();
        }
        if let Some(bit) = class.history_bit() {
            self.history.push(bit);
        }
    }

    fn on_run_end(&mut self) {
        // Per-execution state dies with the process; the shared table
        // survives (its lifetime is managed by the owner — reused or
        // cleared depending on the table-reuse configuration, §4.2).
        self.signature = SignatureTracker::with_scheme(self.config.scheme);
        self.history.clear();
        self.last_fd = None;
        self.pending_key = None;
    }

    fn audit_signature(&self) -> Option<Signature> {
        self.signature.current()
    }

    fn audit_table_len(&self) -> Option<usize> {
        Some(self.table.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcap_types::{IoKind, Pc, Pid, SimTime};

    fn access(t: u64, pc: u32) -> DiskAccess {
        DiskAccess {
            time: SimTime::from_secs(t),
            pid: Pid(1),
            pc: Pc(pc),
            fd: Fd(3),
            kind: IoKind::Read,
            pages: 1,
        }
    }

    fn access_fd(t: u64, pc: u32, fd: u32) -> DiskAccess {
        DiskAccess {
            fd: Fd(fd),
            ..access(t, pc)
        }
    }

    const SHORT: SimDuration = SimDuration(100_000); // 0.1 s (sub-window)
    const MEDIUM: SimDuration = SimDuration(3_000_000); // 3 s
    const LONG: SimDuration = SimDuration(20_000_000); // 20 s

    fn drive(p: &mut Pcap, pcs: &[u32], gaps: &[SimDuration]) -> Vec<ShutdownVote> {
        let mut votes = Vec::new();
        for (i, (&pc, &gap)) in pcs.iter().zip(gaps).enumerate() {
            votes.push(p.on_access(&access(i as u64, pc), gap));
            p.on_idle_end(gap);
        }
        votes
    }

    #[test]
    fn figure3_learns_then_predicts() {
        let mut p = Pcap::new(PcapConfig::paper(), SharedTable::unbounded());
        // First sequence {PC1, PC2, PC1} + long idle: trains.
        let v1 = drive(&mut p, &[1, 2, 1], &[SHORT, SHORT, LONG]);
        assert!(v1.iter().all(|v| v.delay.is_none()));
        assert_eq!(p.table().len(), 1);

        // Second sequence: the completed path predicts.
        let v2 = drive(&mut p, &[1, 2, 1], &[SHORT, SHORT, LONG]);
        assert_eq!(v2[0].delay, None);
        assert_eq!(v2[1].delay, None);
        assert_eq!(v2[2].delay, Some(SimDuration::from_secs(1)));
        assert_eq!(p.table().len(), 1, "no duplicate learning");
    }

    #[test]
    fn subpath_alias_mispredicts_then_learns_longer_path() {
        let mut p = Pcap::new(PcapConfig::paper(), SharedTable::unbounded());
        drive(&mut p, &[1, 2, 1], &[SHORT, SHORT, LONG]);
        // Third sequence of Figure 3: {PC1, PC2, PC1} then PC2 within
        // the wait-window. The prefix matches (a would-be misprediction,
        // filtered by the wait-window at the simulator level), and the
        // extended path is learned when its long idle follows.
        let votes = drive(&mut p, &[1, 2, 1, 2], &[SHORT, SHORT, SHORT, LONG]);
        assert_eq!(
            votes[2].delay,
            Some(SimDuration::from_secs(1)),
            "subpath alias triggers a prediction"
        );
        assert_eq!(p.table().len(), 2, "extended path learned as new entry");
        // Replay: now the 4-PC path also predicts.
        let votes = drive(&mut p, &[1, 2, 1, 2], &[SHORT, SHORT, SHORT, LONG]);
        assert_eq!(votes[3].delay, Some(SimDuration::from_secs(1)));
    }

    #[test]
    fn medium_gap_does_not_train_or_reset() {
        let mut p = Pcap::new(PcapConfig::paper(), SharedTable::unbounded());
        drive(&mut p, &[1], &[MEDIUM]);
        assert_eq!(p.table().len(), 0, "gaps under breakeven never train");
        // Path keeps growing across the medium gap.
        p.on_access(&access(10, 2), LONG);
        p.on_idle_end(LONG);
        assert_eq!(p.table().snapshot().keys[0].signature.0, 3);
    }

    #[test]
    fn history_variant_distinguishes_contexts() {
        let mut p = Pcap::new(
            PcapConfig::paper_variant(PcapVariant::History),
            SharedTable::unbounded(),
        );
        // Same path, different preceding histories → different keys.
        drive(&mut p, &[1], &[MEDIUM]); // history: [0]
        drive(&mut p, &[1], &[LONG]); // learns (sig=2? no: sig=1+1)
                                      // After the long gap the signature resets. Rebuild same path
                                      // with a different history prefix.
        drive(&mut p, &[1], &[LONG]); // history now differs
        let snap = p.table().snapshot();
        assert!(snap.keys.iter().all(|k| k.history.is_some()));
        assert!(p.table().len() >= 2, "distinct histories → distinct keys");
    }

    #[test]
    fn fd_variant_keys_on_descriptor() {
        let mut p = Pcap::new(
            PcapConfig::paper_variant(PcapVariant::FileDescriptor),
            SharedTable::unbounded(),
        );
        p.on_access(&access_fd(0, 1, 3), LONG);
        p.on_idle_end(LONG);
        // Same PC but different fd: no match.
        let vote = p.on_access(&access_fd(10, 1, 4), LONG);
        assert_eq!(vote.delay, None);
        // Same fd: match.
        p.on_idle_end(LONG);
        let vote = p.on_access(&access_fd(20, 1, 3), LONG);
        assert_eq!(vote.delay, Some(SimDuration::from_secs(1)));
    }

    #[test]
    fn kernel_accesses_do_not_pollute_signatures() {
        let mut p = Pcap::new(PcapConfig::paper(), SharedTable::unbounded());
        p.on_access(&access(0, 1), SHORT);
        p.on_idle_end(SHORT);
        // Flush-daemon write-back (PC 0).
        let kernel = DiskAccess {
            pc: pcap_types::DiskAccess::KERNEL_PC,
            ..access(1, 0)
        };
        p.on_access(&kernel, SHORT);
        p.on_idle_end(SHORT);
        p.on_access(&access(2, 2), LONG);
        p.on_idle_end(LONG);
        let snap = p.table().snapshot();
        assert_eq!(snap.keys[0].signature.0, 3, "kernel PC not added");
    }

    #[test]
    fn no_vote_before_first_io() {
        let mut p = Pcap::new(PcapConfig::paper(), SharedTable::unbounded());
        let kernel = DiskAccess {
            pc: pcap_types::DiskAccess::KERNEL_PC,
            ..access(0, 0)
        };
        let vote = p.on_access(&kernel, LONG);
        assert_eq!(vote.delay, None);
    }

    #[test]
    fn run_end_clears_process_state_keeps_table() {
        let mut p = Pcap::new(PcapConfig::paper(), SharedTable::unbounded());
        drive(&mut p, &[1, 2], &[SHORT, LONG]);
        assert_eq!(p.table().len(), 1);
        p.on_run_end();
        assert_eq!(p.table().len(), 1, "table survives the execution");
        // Fresh signature: first I/O of the next run starts a new path.
        let vote = p.on_access(&access(100, 9), LONG);
        assert_eq!(vote.delay, None);
        p.on_idle_end(LONG);
        let snap = p.table().snapshot();
        assert!(snap.keys.iter().any(|k| k.signature.0 == 9));
    }

    #[test]
    fn table_reuse_predicts_without_retraining() {
        // Two "executions" sharing a table: the second predicts from the
        // first's training (§4.2).
        let table = SharedTable::unbounded();
        let mut run1 = Pcap::new(PcapConfig::paper(), table.clone());
        drive(&mut run1, &[1, 2, 1], &[SHORT, SHORT, LONG]);
        run1.on_run_end();

        let mut run2 = Pcap::new(PcapConfig::paper(), table.clone());
        let votes = drive(&mut run2, &[1, 2, 1], &[SHORT, SHORT, LONG]);
        assert_eq!(votes[2].delay, Some(SimDuration::from_secs(1)));
    }

    #[test]
    fn stats_track_matches_and_learning() {
        let mut p = Pcap::new(PcapConfig::paper(), SharedTable::unbounded());
        drive(&mut p, &[1], &[LONG]);
        drive(&mut p, &[1], &[LONG]);
        let (matches, learned) = p.stats();
        assert_eq!(matches, 1);
        assert_eq!(learned, 1);
    }

    #[test]
    fn audit_hooks_track_signature_and_table() {
        let mut p = Pcap::new(PcapConfig::paper(), SharedTable::unbounded());
        // Before the first I/O there is no signature but a (empty) table.
        assert_eq!(p.audit_signature(), None);
        assert_eq!(p.audit_table_len(), Some(0));
        p.on_access(&access(0, 1), SHORT);
        p.on_idle_end(SHORT);
        p.on_access(&access(1, 2), SHORT);
        assert_eq!(p.audit_signature(), Some(Signature(3)));
        p.on_idle_end(LONG);
        assert_eq!(p.audit_table_len(), Some(1));
        // The hooks forward through the backup composition.
        let mut wrapped = crate::WithBackup::new(p, SimDuration::from_secs(10));
        assert_eq!(wrapped.audit_table_len(), Some(1));
        wrapped.on_access(&access(2, 7), SHORT);
        assert_eq!(wrapped.audit_signature(), Some(Signature(7)));
    }

    #[test]
    fn kernel_writebacks_invisible_to_audit_signature() {
        // Pc(0) kernel write-backs must never be folded into signatures:
        // the audit hook sees an unchanged signature across them.
        let mut p = Pcap::new(PcapConfig::paper(), SharedTable::unbounded());
        p.on_access(&access(0, 5), SHORT);
        p.on_idle_end(SHORT);
        let before = p.audit_signature();
        let kernel = DiskAccess {
            pc: pcap_types::DiskAccess::KERNEL_PC,
            ..access(1, 0)
        };
        p.on_access(&kernel, SHORT);
        assert_eq!(p.audit_signature(), before, "kernel PC folded");
        p.on_idle_end(SHORT);
        assert_eq!(p.audit_signature(), Some(Signature(5)));
    }

    #[test]
    fn variant_labels() {
        assert_eq!(PcapVariant::Base.label(), "PCAP");
        assert_eq!(PcapVariant::History.to_string(), "PCAPh");
        assert_eq!(PcapVariant::FileDescriptor.label(), "PCAPf");
        assert_eq!(PcapVariant::FileDescriptorHistory.label(), "PCAPfh");
        assert!(PcapVariant::FileDescriptorHistory.uses_fd());
        assert!(PcapVariant::FileDescriptorHistory.uses_history());
        assert!(!PcapVariant::Base.uses_fd());
    }
}
