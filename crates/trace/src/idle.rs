//! Idle-gap classification and histograms.
//!
//! An **idle period** (Figure 1 of the paper) is the interval between
//! the completion of one disk access and the arrival of the next. The
//! simulator measures those gaps from its prepared streams
//! (`RunStreams::global_gaps` in `pcap-sim`); this module classifies a
//! gap against the wait-window and breakeven thresholds for the
//! predictors, and buckets gap lengths for `pcap profile`.

use pcap_types::SimDuration;

/// Classification of a gap relative to the wait-window and breakeven
/// thresholds — the discretization used by idle-period histories
/// (PCAPh, §4.1.2) and the Learning Tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GapClass {
    /// Shorter than the wait-window: filtered at run time, never enters
    /// histories.
    SubWindow,
    /// Longer than the wait-window but shorter than breakeven: history
    /// bit 0.
    Short,
    /// Longer than breakeven: history bit 1 — a shutdown opportunity.
    Long,
}

impl GapClass {
    /// Classifies a gap length.
    pub fn of(length: SimDuration, wait_window: SimDuration, breakeven: SimDuration) -> GapClass {
        if length > breakeven {
            GapClass::Long
        } else if length > wait_window {
            GapClass::Short
        } else {
            GapClass::SubWindow
        }
    }

    /// The history bit of this class, or `None` for sub-window gaps
    /// (which are excluded from histories).
    pub fn history_bit(self) -> Option<bool> {
        match self {
            GapClass::SubWindow => None,
            GapClass::Short => Some(false),
            GapClass::Long => Some(true),
        }
    }
}

/// A logarithmic histogram of idle-gap lengths, bucketed the way power
/// management cares about them: sub-wait-window, short, near-breakeven,
/// and successively longer doublings.
#[derive(Debug, Clone, PartialEq)]
pub struct GapHistogram {
    /// Bucket upper bounds in seconds (the last bucket is unbounded).
    pub bounds: Vec<f64>,
    /// Gap counts per bucket (`bounds.len() + 1` entries).
    pub counts: Vec<usize>,
}

impl GapHistogram {
    /// The default power-management bucketing: 1 s (wait-window),
    /// 5.43 s (breakeven), then doublings to ~6 min.
    pub fn bounds_for_power_management() -> Vec<f64> {
        vec![1.0, 5.43, 10.86, 21.72, 43.44, 86.88, 173.76, 347.52]
    }

    /// Builds a histogram of the given gap lengths.
    pub fn of(gaps: impl IntoIterator<Item = SimDuration>, bounds: Vec<f64>) -> GapHistogram {
        let mut counts = vec![0usize; bounds.len() + 1];
        for gap in gaps {
            let secs = gap.as_secs_f64();
            let bucket = bounds
                .iter()
                .position(|&b| secs <= b)
                .unwrap_or(bounds.len());
            counts[bucket] += 1;
        }
        GapHistogram { bounds, counts }
    }

    /// Total gaps counted.
    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Renders the histogram as labelled text lines with proportional
    /// bars.
    pub fn render(&self) -> String {
        let max = self.counts.iter().copied().max().unwrap_or(0).max(1);
        let mut out = String::new();
        let mut lower = 0.0f64;
        for (i, &count) in self.counts.iter().enumerate() {
            let label = if i < self.bounds.len() {
                format!("{:>7.2}–{:<7.2}s", lower, self.bounds[i])
            } else {
                format!("{:>7.2}s and up ", lower)
            };
            let bar = "#".repeat(count * 40 / max);
            out.push_str(&format!(
                "{label} |{bar:<40}| {count}
"
            ));
            if i < self.bounds.len() {
                lower = self.bounds[i];
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_classification() {
        let ww = SimDuration::from_secs(1);
        let be = SimDuration::from_secs_f64(5.43);
        assert_eq!(
            GapClass::of(SimDuration::from_millis(500), ww, be),
            GapClass::SubWindow
        );
        assert_eq!(
            GapClass::of(SimDuration::from_secs(3), ww, be),
            GapClass::Short
        );
        assert_eq!(
            GapClass::of(SimDuration::from_secs(20), ww, be),
            GapClass::Long
        );
        // Boundaries: exactly the wait-window is sub-window; exactly
        // breakeven is short (strict comparisons).
        assert_eq!(GapClass::of(ww, ww, be), GapClass::SubWindow);
        assert_eq!(GapClass::of(be, ww, be), GapClass::Short);
    }

    #[test]
    fn histogram_buckets_and_renders() {
        let gaps = [1u64, 2, 17, 100, 380].map(SimDuration::from_secs);
        let h = GapHistogram::of(gaps, GapHistogram::bounds_for_power_management());
        assert_eq!(h.total(), gaps.len());
        assert_eq!(h.counts[0], 1, "1 s gap in the sub-window bucket");
        assert_eq!(h.counts[1], 1, "2 s gap below breakeven");
        assert_eq!(*h.counts.last().unwrap(), 1, "380 s gap in the tail");
        let text = h.render();
        assert!(text.contains("and up"));
        assert!(text.lines().count() == h.counts.len());
    }

    #[test]
    fn history_bits() {
        assert_eq!(GapClass::SubWindow.history_bit(), None);
        assert_eq!(GapClass::Short.history_bit(), Some(false));
        assert_eq!(GapClass::Long.history_bit(), Some(true));
    }
}
