//! The predictor interface shared by PCAP and every baseline, plus the
//! backup-timeout composition of §4.3.

use pcap_types::{DiskAccess, Signature, SimDuration};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which component of a composed predictor produced a shutdown decision
/// — the paper's Figures 9 and 10 split hits and misses by this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum VoteSource {
    /// The primary predictor (PCAP, Learning Tree, …).
    Primary,
    /// The backup timeout that covers the primary's training periods.
    Backup,
}

impl fmt::Display for VoteSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            VoteSource::Primary => "primary",
            VoteSource::Backup => "backup",
        })
    }
}

/// A per-process shutdown vote, emitted after each of the process's disk
/// accesses and standing until its next access (§5: "Once a prediction
/// … is generated, it remains unchanged until the process performs I/O
/// that wakes up the disk").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShutdownVote {
    /// Shut down this long after the access completes; `None` votes to
    /// keep the disk spinning indefinitely.
    pub delay: Option<SimDuration>,
    /// Who made the call.
    pub source: VoteSource,
}

impl ShutdownVote {
    /// The sentinel a trainable primary returns when it has no entry
    /// for the current context; identical to [`ShutdownVote::never`]
    /// and turned into a backup timeout vote by [`WithBackup`].
    pub const NO_PREDICTION: ShutdownVote = ShutdownVote::never();

    /// A vote to never shut down (within this idle period).
    pub const fn never() -> ShutdownVote {
        ShutdownVote {
            delay: None,
            source: VoteSource::Primary,
        }
    }

    /// A primary vote to shut down `delay` after the access.
    pub const fn after(delay: SimDuration) -> ShutdownVote {
        ShutdownVote {
            delay: Some(delay),
            source: VoteSource::Primary,
        }
    }

    /// A backup vote to shut down `delay` after the access.
    pub const fn backup_after(delay: SimDuration) -> ShutdownVote {
        ShutdownVote {
            delay: Some(delay),
            source: VoteSource::Backup,
        }
    }
}

/// An idle-period shutdown predictor observing one process's stream of
/// disk accesses.
///
/// The simulator drives implementations with a strict alternation:
/// [`on_access`](Self::on_access) when an access by the process
/// completes (returning the standing vote for the following idle
/// period), then [`on_idle_end`](Self::on_idle_end) when that idle
/// period resolves (at the next access or run end), which is where
/// learning happens. [`on_run_end`](Self::on_run_end) marks an
/// application exit; state that the paper persists across executions
/// (prediction tables) survives it, per-execution state (signatures,
/// histories) must not.
///
/// `upcoming_idle` carries the length of the idle period that follows
/// the access. It exists **only** so the ideal predictor (the paper's
/// Figure 8 "Ideal") can be expressed through the same interface;
/// honest predictors must ignore it.
pub trait IdlePredictor {
    /// Stable display name ("TP", "PCAP", "PCAPh", …).
    fn name(&self) -> String;

    /// The process completed `access`; return the vote that stands
    /// until its next access.
    fn on_access(&mut self, access: &DiskAccess, upcoming_idle: SimDuration) -> ShutdownVote;

    /// The idle period that followed the last access lasted `idle`.
    fn on_idle_end(&mut self, idle: SimDuration) {
        let _ = idle;
    }

    /// The application execution ended (process exited).
    fn on_run_end(&mut self) {}

    /// Audit hook: the current PC-path signature, for predictors that
    /// track one (PCAP variants). `None` for baselines and for PCAP
    /// before its first observed access of an execution.
    fn audit_signature(&self) -> Option<Signature> {
        None
    }

    /// Audit hook: the number of prediction-table entries visible to
    /// this predictor, for table-based predictors. `None` for
    /// stateless baselines.
    fn audit_table_len(&self) -> Option<usize> {
        None
    }
}

/// Maps a shutdown decision onto a multi-state power-ladder target —
/// the §7 extension's "how deep should this shutdown go" policy.
///
/// A [`Primary`](VoteSource::Primary) decision carries a prediction of
/// a long idle period (the predictor only votes when it expects the
/// gap to clear breakeven), so it targets the deepest state. A
/// [`Backup`](VoteSource::Backup) timeout carries no such prediction —
/// only the evidence that the disk has already idled `observed_idle`
/// (the timeout itself) — so it targets the deepest state whose
/// breakeven the observed idle has already cleared, falling back to
/// the shallowest state.
///
/// `breakevens` is the ladder's per-state breakeven list, shallowest
/// first (see `MultiStateParams::breakevens` in `pcap-disk`); it must
/// be non-empty. On a single-state ladder every decision maps to state
/// 0, which is what keeps the multi-state engine bit-identical to the
/// two-state engine regardless of vote source.
///
/// # Panics
///
/// Panics if `breakevens` is empty.
pub fn ladder_target(
    source: VoteSource,
    observed_idle: SimDuration,
    breakevens: &[SimDuration],
) -> usize {
    assert!(
        !breakevens.is_empty(),
        "ladder must have at least one state"
    );
    match source {
        VoteSource::Primary => breakevens.len() - 1,
        VoteSource::Backup => breakevens
            .iter()
            .rposition(|&be| be <= observed_idle)
            .unwrap_or(0),
    }
}

/// Composes a primary predictor with the backup timeout of §4.3: when
/// the primary has no prediction ("no idle"), the backup votes to shut
/// down after a fixed timeout, covering the primary's training periods.
///
/// Any `delay: None` vote from the primary is overridden by the backup
/// timeout — §4.3: the backup "is the only time when the timeout
/// predictor overrides the no-idle prediction". Predictors whose
/// keep-spinning votes are authoritative (the ideal predictor) are
/// simply never wrapped.
///
/// ```
/// use pcap_core::{IdlePredictor, ShutdownVote, VoteSource, WithBackup};
/// use pcap_types::{DiskAccess, SimDuration};
///
/// struct Untrained;
/// impl IdlePredictor for Untrained {
///     fn name(&self) -> String { "untrained".into() }
///     fn on_access(&mut self, _: &DiskAccess, _: SimDuration) -> ShutdownVote {
///         ShutdownVote::NO_PREDICTION
///     }
/// }
///
/// let mut p = WithBackup::new(Untrained, SimDuration::from_secs(10));
/// # let access = pcap_types::DiskAccess {
/// #     time: pcap_types::SimTime::ZERO, pid: pcap_types::Pid(1),
/// #     pc: pcap_types::Pc(1), fd: pcap_types::Fd(0),
/// #     kind: pcap_types::IoKind::Read, pages: 1 };
/// let vote = p.on_access(&access, SimDuration::ZERO);
/// assert_eq!(vote.delay, Some(SimDuration::from_secs(10)));
/// assert_eq!(vote.source, VoteSource::Backup);
/// ```
#[derive(Debug, Clone)]
pub struct WithBackup<P> {
    primary: P,
    timeout: SimDuration,
}

impl<P> WithBackup<P> {
    /// Wraps `primary` with a backup timeout.
    pub fn new(primary: P, timeout: SimDuration) -> WithBackup<P> {
        WithBackup { primary, timeout }
    }

    /// The wrapped primary.
    pub fn primary(&self) -> &P {
        &self.primary
    }
}

impl<P: IdlePredictor> IdlePredictor for WithBackup<P> {
    fn name(&self) -> String {
        self.primary.name()
    }

    fn on_access(&mut self, access: &DiskAccess, upcoming_idle: SimDuration) -> ShutdownVote {
        let vote = self.primary.on_access(access, upcoming_idle);
        if vote.delay.is_none() {
            ShutdownVote::backup_after(self.timeout)
        } else {
            vote
        }
    }

    fn on_idle_end(&mut self, idle: SimDuration) {
        self.primary.on_idle_end(idle);
    }

    fn on_run_end(&mut self) {
        self.primary.on_run_end();
    }

    fn audit_signature(&self) -> Option<Signature> {
        self.primary.audit_signature()
    }

    fn audit_table_len(&self) -> Option<usize> {
        self.primary.audit_table_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcap_types::{Fd, IoKind, Pc, Pid, SimTime};

    fn access() -> DiskAccess {
        DiskAccess {
            time: SimTime::ZERO,
            pid: Pid(1),
            pc: Pc(1),
            fd: Fd(0),
            kind: IoKind::Read,
            pages: 1,
        }
    }

    /// A scriptable primary for composition tests.
    struct Scripted(Vec<ShutdownVote>, usize, u32);
    impl IdlePredictor for Scripted {
        fn name(&self) -> String {
            "scripted".into()
        }
        fn on_access(&mut self, _: &DiskAccess, _: SimDuration) -> ShutdownVote {
            let v = self.0[self.1 % self.0.len()];
            self.1 += 1;
            v
        }
        fn on_idle_end(&mut self, _: SimDuration) {
            self.2 += 1;
        }
        fn on_run_end(&mut self) {
            self.2 += 100;
        }
    }

    #[test]
    fn backup_fills_no_prediction() {
        let mut p = WithBackup::new(
            Scripted(vec![ShutdownVote::NO_PREDICTION], 0, 0),
            SimDuration::from_secs(10),
        );
        let v = p.on_access(&access(), SimDuration::ZERO);
        assert_eq!(v.delay, Some(SimDuration::from_secs(10)));
        assert_eq!(v.source, VoteSource::Backup);
    }

    #[test]
    fn primary_vote_passes_through() {
        let mut p = WithBackup::new(
            Scripted(vec![ShutdownVote::after(SimDuration::from_secs(1))], 0, 0),
            SimDuration::from_secs(10),
        );
        let v = p.on_access(&access(), SimDuration::ZERO);
        assert_eq!(v.delay, Some(SimDuration::from_secs(1)));
        assert_eq!(v.source, VoteSource::Primary);
    }

    #[test]
    fn lifecycle_forwards() {
        let mut p = WithBackup::new(
            Scripted(vec![ShutdownVote::never()], 0, 0),
            SimDuration::from_secs(10),
        );
        p.on_idle_end(SimDuration::from_secs(1));
        p.on_run_end();
        assert_eq!(p.primary().2, 101);
        assert_eq!(p.name(), "scripted");
    }

    #[test]
    fn ladder_target_maps_source_and_observed_idle() {
        let bes = [
            SimDuration::from_millis(240),
            SimDuration::from_millis(1770),
            SimDuration::from_millis(5445),
        ];
        // Primary predictions always jump to the deepest state.
        assert_eq!(
            ladder_target(VoteSource::Primary, SimDuration::ZERO, &bes),
            2
        );
        // Backup timeouts descend only as far as the observed idle
        // justifies.
        assert_eq!(
            ladder_target(VoteSource::Backup, SimDuration::from_millis(100), &bes),
            0
        );
        assert_eq!(
            ladder_target(VoteSource::Backup, SimDuration::from_secs(2), &bes),
            1
        );
        assert_eq!(
            ladder_target(VoteSource::Backup, SimDuration::from_secs(10), &bes),
            2
        );
        // Single-state ladders map everything to state 0.
        let single = [SimDuration::from_millis(5445)];
        assert_eq!(
            ladder_target(VoteSource::Primary, SimDuration::ZERO, &single),
            0
        );
        assert_eq!(
            ladder_target(VoteSource::Backup, SimDuration::ZERO, &single),
            0
        );
    }

    proptest::proptest! {
        /// A Backup vote never targets a deeper ladder state than a
        /// Primary vote given the same evidence: the timeout's
        /// observed idle is weaker information than the primary's
        /// long-gap prediction, so its descent must be at most as
        /// aggressive — on arbitrary ladders (breakeven lists) and
        /// observations.
        #[test]
        fn backup_never_maps_deeper_than_primary(
            raw in proptest::collection::vec(1u64..600_000_000, 1..6),
            observed_us in 0u64..1_000_000_000,
        ) {
            let mut breakevens: Vec<SimDuration> =
                raw.into_iter().map(SimDuration::from_micros).collect();
            breakevens.sort_unstable();
            breakevens.dedup();
            let observed = SimDuration::from_micros(observed_us);
            let primary = ladder_target(VoteSource::Primary, observed, &breakevens);
            let backup = ladder_target(VoteSource::Backup, observed, &breakevens);
            proptest::prop_assert!(
                backup <= primary,
                "backup target {backup} deeper than primary {primary} for {breakevens:?}"
            );
            // Both stay inside the ladder.
            proptest::prop_assert!(primary < breakevens.len());
            // And the backup target's breakeven is genuinely cleared
            // (unless even the shallowest state hasn't paid off yet,
            // where it falls back to state 0).
            if breakevens[0] <= observed {
                proptest::prop_assert!(breakevens[backup] <= observed);
            } else {
                proptest::prop_assert_eq!(backup, 0);
            }
        }
    }

    #[test]
    fn vote_constructors() {
        assert_eq!(ShutdownVote::never().delay, None);
        let v = ShutdownVote::after(SimDuration::from_secs(2));
        assert_eq!(v.source, VoteSource::Primary);
        let b = ShutdownVote::backup_after(SimDuration::from_secs(3));
        assert_eq!(b.source, VoteSource::Backup);
        assert_eq!(VoteSource::Backup.to_string(), "backup");
    }
}
