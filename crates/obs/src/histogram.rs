//! The one log₂ histogram of the workspace: [`LogHistogram`] for
//! single-owner recording (decision-audit metrics, the tracing
//! registry) and [`AtomicHistogram`] for lock-free recording from many
//! threads (the daemon's stage histograms, the load client's latency
//! histogram). Both share one bucket layout and one quantile rule.

use std::sync::atomic::{AtomicU64, Ordering};

/// A fixed-size histogram over `log2` buckets of microsecond values.
///
/// Bucket 0 holds exact zeros; bucket `k` (1 ≤ k ≤ 31) holds values in
/// `[2^(k-1), 2^k)` microseconds, with everything ≥ 2³⁰ µs (~18 min)
/// clamped into the last bucket. Fixed arrays keep the audit hot path
/// allocation-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogHistogram {
    counts: [u64; 32],
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> LogHistogram {
        LogHistogram { counts: [0; 32] }
    }

    /// A histogram with the given per-bucket counts.
    pub(crate) fn from_counts(counts: [u64; 32]) -> LogHistogram {
        LogHistogram { counts }
    }

    /// The bucket index a value falls into.
    pub fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            (64 - value.leading_zeros() as usize).min(31)
        }
    }

    /// Microsecond bounds of bucket `index`: inclusive-exclusive for
    /// buckets 0–30, inclusive-*inclusive* for the clamp bucket 31,
    /// whose upper bound is `u64::MAX` (a `1 << 31`-style exclusive
    /// bound would be wrong: every value ≥ 2³⁰ µs lands there,
    /// including `u64::MAX` itself).
    pub fn bucket_bounds(index: usize) -> (u64, u64) {
        match index {
            0 => (0, 1),
            31 => (1 << 30, u64::MAX),
            k => (1 << (k - 1), 1 << k),
        }
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket_of(value)] += 1;
    }

    /// Per-bucket counts.
    pub fn counts(&self) -> &[u64; 32] {
        &self.counts
    }

    /// Total recorded values.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Approximate `q` quantile: the upper bound of the bucket holding
    /// the value of rank `ceil(total · q)`, or 0 when empty. The clamp
    /// bucket reports `u64::MAX`.
    ///
    /// The rank is clamped to `[1, total]`: `q ≈ 0` would otherwise
    /// round to rank 0 and report the first bucket even when it is
    /// empty, and `q = 1.0` can round *above* `total` through the `f64`
    /// multiply and walk past the last occupied bucket.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.total();
        if total == 0 {
            return 0;
        }
        let target = (((total as f64) * q).ceil() as u64).clamp(1, total);
        let mut seen = 0;
        let index = self
            .counts
            .iter()
            .position(|&count| {
                seen += count;
                seen >= target
            })
            .expect("rank is clamped to the total");
        Self::bucket_bounds(index).1
    }
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

/// A [`LogHistogram`] with relaxed-atomic buckets plus a value sum,
/// recordable from any thread without locking. Reads are monotone per
/// bucket but not a consistent cut across buckets, the standard
/// Prometheus scrape contract.
#[derive(Debug, Default)]
pub struct AtomicHistogram {
    buckets: [AtomicU64; 32],
    sum: AtomicU64,
}

impl AtomicHistogram {
    /// Records one value.
    pub fn record(&self, value: u64) {
        self.buckets[LogHistogram::bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// A plain-histogram snapshot plus the value sum.
    pub fn snapshot(&self) -> (LogHistogram, u64) {
        let counts = std::array::from_fn(|k| self.buckets[k].load(Ordering::Relaxed));
        (
            LogHistogram::from_counts(counts),
            self.sum.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_histogram_buckets() {
        assert_eq!(LogHistogram::bucket_of(0), 0);
        assert_eq!(LogHistogram::bucket_of(1), 1);
        assert_eq!(LogHistogram::bucket_of(2), 2);
        assert_eq!(LogHistogram::bucket_of(3), 2);
        assert_eq!(LogHistogram::bucket_of(4), 3);
        assert_eq!(LogHistogram::bucket_of(u64::MAX), 31);
        let mut h = LogHistogram::new();
        for v in [0, 1, 2, 3, 1_000_000, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.total(), 6);
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[2], 2);
        assert_eq!(h.counts()[31], 1);
        for k in 0..32 {
            let (lo, hi) = LogHistogram::bucket_bounds(k);
            assert!(lo < hi, "bucket {k}");
            assert_eq!(LogHistogram::bucket_of(lo), k);
        }
    }

    /// Pins the full `bucket_of`/`bucket_bounds` round-trip for all 32
    /// indices: both edges of every bucket map back to it, the clamp
    /// bucket's upper bound is `u64::MAX` (inclusive — `bucket_of`
    /// sends `u64::MAX` itself to 31), and consecutive buckets tile the
    /// u64 range with no gap.
    #[test]
    fn log_histogram_bounds_round_trip_for_all_buckets() {
        for k in 0..32 {
            let (lo, hi) = LogHistogram::bucket_bounds(k);
            assert_eq!(LogHistogram::bucket_of(lo), k, "lower edge of {k}");
            if k < 31 {
                assert_eq!(LogHistogram::bucket_of(hi - 1), k, "upper edge of {k}");
                assert_eq!(LogHistogram::bucket_of(hi), k + 1, "first value past {k}");
                assert_eq!(
                    LogHistogram::bucket_bounds(k + 1).0,
                    hi,
                    "buckets {k},{} must tile",
                    k + 1
                );
            } else {
                assert_eq!(hi, u64::MAX, "clamp bucket tops out at u64::MAX");
                assert_eq!(LogHistogram::bucket_of(hi), 31, "inclusive top");
            }
        }
    }

    #[test]
    fn quantiles_walk_the_buckets() {
        let mut h = LogHistogram::new();
        assert_eq!(h.quantile(0.5), 0, "empty histogram");
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(1_000_000);
        }
        let p50 = h.quantile(0.50);
        let p99 = h.quantile(0.99);
        assert!((100..1000).contains(&p50), "p50 near the bulk: {p50}");
        assert!(p99 >= 1_000_000, "p99 in the tail bucket: {p99}");
    }

    #[test]
    fn quantile_edge_cases_stay_in_occupied_buckets() {
        // Empty: every quantile is 0, including the extremes.
        let empty = LogHistogram::new();
        assert_eq!(empty.quantile(0.0), 0);
        assert_eq!(empty.quantile(1.0), 0);

        // One sample in a high bucket: rank 0 must not fall into the
        // empty first bucket, and q=1.0 must not walk past the end.
        let mut one = LogHistogram::new();
        one.record(5_000);
        let bound = one.quantile(0.5);
        assert!(bound >= 5_000, "single sample's bucket: {bound}");
        assert_eq!(one.quantile(0.0), bound, "q=0 clamps to rank 1");
        assert_eq!(one.quantile(1.0), bound, "q=1 stays on the sample");
        assert_ne!(one.quantile(1.0), u64::MAX, "no sentinel leaks");

        // q=1.0 on a total whose f64 product rounds above the count.
        let mut big = LogHistogram::new();
        for _ in 0..49 {
            big.record(10);
        }
        for _ in 0..51 {
            big.record(100);
        }
        let last = big.quantile(1.0);
        assert!(
            (100..1000).contains(&last),
            "q=1 is the last bucket: {last}"
        );

        // Monotone in q over a spread histogram.
        let mut spread = LogHistogram::new();
        for magnitude in [1u64, 10, 100, 1_000, 10_000] {
            for _ in 0..20 {
                spread.record(magnitude);
            }
        }
        let qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0];
        let bounds: Vec<u64> = qs.iter().map(|&q| spread.quantile(q)).collect();
        assert!(
            bounds.windows(2).all(|w| w[0] <= w[1]),
            "quantiles must be monotone: {bounds:?}"
        );

        // Only the clamp bucket reports the u64::MAX bound.
        let mut huge = LogHistogram::new();
        huge.record(u64::MAX);
        assert_eq!(huge.quantile(0.5), u64::MAX);
    }

    #[test]
    fn atomic_snapshot_matches_plain_recording() {
        let atomic = AtomicHistogram::default();
        let mut plain = LogHistogram::new();
        for v in [0, 1, 5, 5, 1_000_000, u64::MAX / 2] {
            atomic.record(v);
            plain.record(v);
        }
        let (hist, sum) = atomic.snapshot();
        assert_eq!(hist, plain);
        assert_eq!(sum, 1_000_011 + u64::MAX / 2);
        assert_eq!(hist.counts()[3], 2, "two fives in [4,8)");
    }
}
