//! Progress counters for journaled (resumable) sweeps.
//!
//! A journal-backed sweep wants the same cheap, always-on visibility
//! the pipeline observer gives the grid: how many cells were already
//! on disk when the run started, how many this process computed, how
//! many it ceded to a cooperating process, and whether crash recovery
//! had to truncate a torn tail. [`JournalProgress`] is a plain `Copy`
//! struct of counters: only the code holding the journal updates it,
//! and [`JournalProgress::summary`] renders it in one line.

/// Counters of one journaled sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JournalProgress {
    /// Cells found complete in the journal before any work ran.
    pub resumed: u64,
    /// Cells this process computed and appended.
    pub computed: u64,
    /// Cells skipped because a cooperating process finished them
    /// while this one was running.
    pub ceded: u64,
    /// Bytes of torn tail records truncated during recovery.
    pub torn_bytes: u64,
    /// Journal rescans performed (start-up plus each claim round).
    pub refreshes: u64,
}

impl JournalProgress {
    /// One human-readable status line, e.g.
    /// `resumed 12, computed 4, ceded 0, torn bytes truncated 0`.
    pub fn summary(&self) -> String {
        format!(
            "resumed {}, computed {}, ceded {}, torn bytes truncated {}",
            self.resumed, self.computed, self.ceded, self.torn_bytes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_names_every_reported_counter() {
        let p = JournalProgress {
            resumed: 3,
            computed: 3,
            torn_bytes: 17,
            ..JournalProgress::default()
        };
        assert_eq!(
            p.summary(),
            "resumed 3, computed 3, ceded 0, torn bytes truncated 17"
        );
    }
}
