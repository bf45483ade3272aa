//! The Global Shutdown Predictor (§5, Figure 5).
//!
//! Each process runs its own private predictor and, after each of its
//! disk accesses, publishes a standing [`ShutdownVote`]. The global
//! predictor shuts the disk down only when **every** live process
//! predicts shutdown; the shutdown instant is therefore the latest of
//! the per-process vote-ready times, and the decision is attributed to
//! the predictor (primary or backup) "making the last decision before
//! the shutdown" (§6.4.1).
//!
//! Processes are named by *slot*: a small dense index that the caller
//! assigns, such as the simulation engine's compact pid index (the
//! root 0, then children in fork order). The votes sit in a vector
//! indexed by slot, so recording a vote costs no hash, and the table
//! holds as many entries as the highest slot used, never one per
//! possible [`Pid`](pcap_types::Pid). The decision depends only on the
//! set of standing votes, not on the order in which they are walked.

use crate::predictor::{ShutdownVote, VoteSource};
use pcap_types::SimTime;

/// The global shutdown decision for the current idle period.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GlobalDecision {
    /// Shut down at this instant, attributed to this source.
    ShutdownAt(SimTime, VoteSource),
    /// At least one process votes to keep the disk spinning.
    KeepSpinning,
}

/// Per-process standing vote.
#[derive(Debug, Clone, Copy)]
struct VoteState {
    ready_at: Option<SimTime>,
    source: VoteSource,
}

/// Tracks the standing votes of all live processes, by process slot;
/// see the [module docs](self) and the example below.
///
/// ```
/// use pcap_core::{GlobalDecision, GlobalPredictor, ShutdownVote, VoteSource};
/// use pcap_types::{SimDuration, SimTime};
///
/// let mut g = GlobalPredictor::new();
/// g.process_started(0, SimTime::ZERO);
/// g.process_started(1, SimTime::ZERO);
///
/// // Process 0 predicts shutdown 1 s after its access at t=10 s;
/// // process 1 has not voted yet (no prediction) — disk stays on.
/// g.record_vote(0, SimTime::from_secs(10), ShutdownVote::after(SimDuration::from_secs(1)));
/// assert_eq!(g.decision(), GlobalDecision::KeepSpinning);
///
/// // Process 1's backup timeout votes at t=12+10 s: the global shutdown
/// // fires at 22 s, attributed to the backup (the last decision).
/// g.record_vote(1, SimTime::from_secs(12), ShutdownVote::backup_after(SimDuration::from_secs(10)));
/// assert_eq!(
///     g.decision(),
///     GlobalDecision::ShutdownAt(SimTime::from_secs(22), VoteSource::Backup)
/// );
/// ```
#[derive(Debug, Clone, Default)]
pub struct GlobalPredictor {
    /// Standing vote per slot; `None` where no live process sits.
    votes: Vec<Option<VoteState>>,
}

impl GlobalPredictor {
    /// Creates a predictor with no processes.
    pub fn new() -> GlobalPredictor {
        GlobalPredictor::default()
    }

    /// Drops every registered process and standing vote, keeping the
    /// vote-table capacity. A cleared predictor is indistinguishable
    /// from a new one; the simulation engine reuses one instance across
    /// runs instead of allocating a fresh table per run.
    pub fn clear(&mut self) {
        self.votes.clear();
    }

    /// Registers the process in `slot` (application start or fork).
    /// Until its first access resolves, the process abstains —
    /// equivalent to a standing "no prediction", so the disk cannot
    /// shut down on its account unless a vote arrives. Callers composing
    /// with a backup timeout should immediately record a backup vote
    /// anchored at `now` if they want fork-time idle clocks (the
    /// simulator does).
    ///
    /// The table grows to `slot + 1` entries, so slots should be dense:
    /// a process index, never a raw pid.
    pub fn process_started(&mut self, slot: usize, now: SimTime) {
        let _ = now;
        if slot >= self.votes.len() {
            self.votes.resize(slot + 1, None);
        }
        self.votes[slot] = Some(VoteState {
            ready_at: None,
            source: VoteSource::Primary,
        });
    }

    /// Removes the exited process in `slot`; its vote no longer blocks
    /// shutdown.
    pub fn process_exited(&mut self, slot: usize) {
        if let Some(vote) = self.votes.get_mut(slot) {
            *vote = None;
        }
    }

    /// Records the standing vote `vote` emitted by the process in `slot`
    /// after its access completing at `access_end`.
    ///
    /// # Panics
    ///
    /// Panics if no live process was registered in `slot`.
    pub fn record_vote(&mut self, slot: usize, access_end: SimTime, vote: ShutdownVote) {
        let state = self
            .votes
            .get_mut(slot)
            .and_then(Option::as_mut)
            .expect("vote from unregistered process");
        state.ready_at = vote.delay.map(|d| access_end + d);
        state.source = vote.source;
    }

    /// Number of live processes.
    pub fn live_processes(&self) -> usize {
        self.votes.iter().flatten().count()
    }

    /// The current global decision: the latest vote-ready instant if
    /// every live process votes shutdown, attributed to the process
    /// whose vote arrives last (ties: backup wins, since the timeout is
    /// what the disk actually waited for).
    ///
    /// With no live processes the disk is trivially idle; the decision
    /// is to keep spinning (there is nothing to save once the
    /// application exited — the trace ends).
    pub fn decision(&self) -> GlobalDecision {
        let mut latest: Option<(SimTime, VoteSource)> = None;
        for state in self.votes.iter().flatten() {
            let Some(t) = state.ready_at else {
                return GlobalDecision::KeepSpinning;
            };
            latest = Some(match latest {
                Some((best, src))
                    if t < best || (t == best && state.source != VoteSource::Backup) =>
                {
                    (best, src)
                }
                _ => (t, state.source),
            });
        }
        match latest {
            Some((t, source)) => GlobalDecision::ShutdownAt(t, source),
            None => GlobalDecision::KeepSpinning,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcap_types::{Pid, SimDuration};
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn empty_keeps_spinning() {
        assert_eq!(
            GlobalPredictor::new().decision(),
            GlobalDecision::KeepSpinning
        );
    }

    #[test]
    fn unvoted_process_blocks_shutdown() {
        let mut g = GlobalPredictor::new();
        g.process_started(0, SimTime::ZERO);
        assert_eq!(g.decision(), GlobalDecision::KeepSpinning);
        assert_eq!(g.live_processes(), 1);
    }

    #[test]
    fn single_process_vote_decides() {
        let mut g = GlobalPredictor::new();
        g.process_started(0, SimTime::ZERO);
        g.record_vote(0, secs(5), ShutdownVote::after(SimDuration::from_secs(1)));
        assert_eq!(
            g.decision(),
            GlobalDecision::ShutdownAt(secs(6), VoteSource::Primary)
        );
    }

    #[test]
    fn latest_vote_wins_attribution() {
        let mut g = GlobalPredictor::new();
        g.process_started(0, SimTime::ZERO);
        g.process_started(1, SimTime::ZERO);
        g.record_vote(0, secs(5), ShutdownVote::after(SimDuration::from_secs(1)));
        g.record_vote(
            1,
            secs(3),
            ShutdownVote::backup_after(SimDuration::from_secs(10)),
        );
        // Votes ready at 6 s (primary) and 13 s (backup): shutdown at 13 s.
        assert_eq!(
            g.decision(),
            GlobalDecision::ShutdownAt(secs(13), VoteSource::Backup)
        );
    }

    #[test]
    fn never_vote_blocks() {
        let mut g = GlobalPredictor::new();
        g.process_started(0, SimTime::ZERO);
        g.process_started(1, SimTime::ZERO);
        g.record_vote(0, secs(5), ShutdownVote::after(SimDuration::ZERO));
        g.record_vote(1, secs(5), ShutdownVote::never());
        assert_eq!(g.decision(), GlobalDecision::KeepSpinning);
    }

    #[test]
    fn exit_unblocks() {
        let mut g = GlobalPredictor::new();
        g.process_started(0, SimTime::ZERO);
        g.process_started(1, SimTime::ZERO);
        g.record_vote(0, secs(5), ShutdownVote::after(SimDuration::ZERO));
        g.record_vote(1, secs(5), ShutdownVote::never());
        g.process_exited(1);
        assert_eq!(
            g.decision(),
            GlobalDecision::ShutdownAt(secs(5), VoteSource::Primary)
        );
    }

    #[test]
    fn revote_replaces_standing_vote() {
        let mut g = GlobalPredictor::new();
        g.process_started(0, SimTime::ZERO);
        g.record_vote(0, secs(5), ShutdownVote::never());
        assert_eq!(g.decision(), GlobalDecision::KeepSpinning);
        g.record_vote(0, secs(8), ShutdownVote::after(SimDuration::from_secs(1)));
        assert_eq!(
            g.decision(),
            GlobalDecision::ShutdownAt(secs(9), VoteSource::Primary)
        );
    }

    #[test]
    fn tie_attributes_to_backup() {
        let mut g = GlobalPredictor::new();
        g.process_started(0, SimTime::ZERO);
        g.process_started(1, SimTime::ZERO);
        g.record_vote(0, secs(5), ShutdownVote::after(SimDuration::from_secs(1)));
        g.record_vote(
            1,
            secs(5),
            ShutdownVote::backup_after(SimDuration::from_secs(1)),
        );
        assert_eq!(
            g.decision(),
            GlobalDecision::ShutdownAt(secs(6), VoteSource::Backup)
        );
    }

    #[test]
    #[should_panic(expected = "unregistered")]
    fn vote_from_unknown_process_panics() {
        let mut g = GlobalPredictor::new();
        g.record_vote(9, secs(1), ShutdownVote::never());
    }

    #[test]
    fn a_slot_is_reusable_after_exit() {
        let mut g = GlobalPredictor::new();
        g.process_started(3, SimTime::ZERO);
        g.record_vote(3, secs(1), ShutdownVote::never());
        g.process_exited(3);
        g.process_exited(3);
        assert_eq!(g.live_processes(), 0);
        g.process_started(3, secs(2));
        assert_eq!(g.live_processes(), 1);
        assert_eq!(g.decision(), GlobalDecision::KeepSpinning);
    }

    /// The predictor as it was before process slots: standing votes in
    /// a `HashMap` keyed by pid.
    #[derive(Default)]
    struct PidKeyed {
        votes: HashMap<Pid, VoteState>,
    }

    impl PidKeyed {
        fn process_started(&mut self, pid: Pid) {
            self.votes.insert(
                pid,
                VoteState {
                    ready_at: None,
                    source: VoteSource::Primary,
                },
            );
        }

        fn process_exited(&mut self, pid: Pid) {
            self.votes.remove(&pid);
        }

        fn record_vote(&mut self, pid: Pid, access_end: SimTime, vote: ShutdownVote) {
            let state = self.votes.get_mut(&pid).expect("registered");
            state.ready_at = vote.delay.map(|d| access_end + d);
            state.source = vote.source;
        }

        fn decision(&self) -> GlobalDecision {
            if self.votes.is_empty() {
                return GlobalDecision::KeepSpinning;
            }
            let mut latest: Option<(SimTime, VoteSource)> = None;
            for state in self.votes.values() {
                match state.ready_at {
                    None => return GlobalDecision::KeepSpinning,
                    Some(t) => {
                        latest = Some(match latest {
                            None => (t, state.source),
                            Some((best, src)) => {
                                if t > best || (t == best && state.source == VoteSource::Backup) {
                                    (t, state.source)
                                } else {
                                    (best, src)
                                }
                            }
                        });
                    }
                }
            }
            let (t, source) = latest.expect("non-empty votes");
            GlobalDecision::ShutdownAt(t, source)
        }
    }

    proptest! {
        /// The slot table decides exactly as the pid-keyed map does,
        /// in time and in source, after every start, vote and exit of
        /// six processes whose slots are assigned in a shuffled order.
        /// Ready times fall in 0–9 s, so ties, including ties of a
        /// backup and a primary vote, are common.
        #[test]
        fn slot_table_matches_pid_keyed_reference(
            shuffle in prop::collection::vec(any::<u32>(), 6),
            steps in prop::collection::vec(
                (0u8..100, 0usize..6, 0u64..5, prop::option::of(0u64..5), any::<bool>()),
                1..80,
            ),
        ) {
            let mut slots: Vec<usize> = (0..6).collect();
            slots.sort_by_key(|&i| shuffle[i]);
            let pid = |process: usize| Pid(1000 + 17 * process as u32);
            let mut table = GlobalPredictor::new();
            let mut reference = PidKeyed::default();
            for (op, process, at, delay, backup) in steps {
                let (slot, pid) = (slots[process], pid(process));
                let live = reference.votes.contains_key(&pid);
                match op {
                    0..=19 => {
                        table.process_started(slot, secs(at));
                        reference.process_started(pid);
                    }
                    20..=84 if live => {
                        let vote = match (delay, backup) {
                            (None, _) => ShutdownVote::never(),
                            (Some(d), false) => ShutdownVote::after(SimDuration::from_secs(d)),
                            (Some(d), true) => ShutdownVote::backup_after(SimDuration::from_secs(d)),
                        };
                        table.record_vote(slot, secs(at), vote);
                        reference.record_vote(pid, secs(at), vote);
                    }
                    85.. => {
                        table.process_exited(slot);
                        reference.process_exited(pid);
                    }
                    _ => {}
                }
                prop_assert_eq!(table.decision(), reference.decision());
                prop_assert_eq!(table.live_processes(), reference.votes.len());
            }
        }
    }
}
