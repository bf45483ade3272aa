//! Order statistics over raw samples.
//!
//! Every timing the benchmark reports is a median over raw samples
//! kept in a sorted `Vec`, never a histogram bucket bound: a log₂
//! bucket cannot show a 10% change. Quartiles follow Python's
//! `statistics.quantiles(values, n=4)` (the "exclusive" method), so a
//! spread printed here matches the one a reviewer computes by hand.

/// Raw samples of one quantity, sorted ascending.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Samples {
    sorted: Vec<f64>,
}

/// Fewest samples that must lie beyond a tail percentile before it is
/// reported.
pub const MIN_TAIL_SAMPLES: usize = 10;

impl Samples {
    /// Sorts `values` into a sample set.
    pub fn new(mut values: Vec<f64>) -> Samples {
        values.sort_by(f64::total_cmp);
        Samples { sorted: values }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The samples, ascending.
    pub fn values(&self) -> &[f64] {
        &self.sorted
    }

    /// The median (mean of the two middle samples for an even count);
    /// 0 for an empty set.
    pub fn median(&self) -> f64 {
        let n = self.sorted.len();
        match n {
            0 => 0.0,
            _ if n % 2 == 1 => self.sorted[n / 2],
            _ => (self.sorted[n / 2 - 1] + self.sorted[n / 2]) / 2.0,
        }
    }

    /// First and third quartiles, as `statistics.quantiles(n=4)`
    /// computes them. A single sample is its own quartiles.
    pub fn quartiles(&self) -> (f64, f64) {
        let data = &self.sorted;
        let len = data.len();
        match len {
            0 => (0.0, 0.0),
            1 => (data[0], data[0]),
            _ => {
                let m = len + 1;
                let cut = |i: usize| {
                    let j = (i * m / 4).clamp(1, len - 1);
                    let delta = (i * m) as f64 - (j * 4) as f64;
                    (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
                };
                (cut(1), cut(3))
            }
        }
    }

    /// Interquartile range as a share of the median (0 when the median
    /// is 0).
    pub fn relative_spread(&self) -> f64 {
        let (q1, q3) = self.quartiles();
        let median = self.median();
        if median == 0.0 {
            0.0
        } else {
            (q3 - q1) / median.abs()
        }
    }

    /// The `q` quantile by nearest rank, or `None` when fewer than
    /// [`MIN_TAIL_SAMPLES`] samples lie beyond it.
    pub fn tail(&self, q: f64) -> Option<f64> {
        let n = self.sorted.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
        (n >= rank + MIN_TAIL_SAMPLES).then(|| self.sorted[rank - 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let s = Samples::new((1..=10).map(f64::from).collect());
        assert_eq!(s.quartiles(), (2.75, 8.25));
        assert_eq!(s.median(), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Samples::new(vec![3.0, 1.0, 2.0]);
        assert_eq!(s.quartiles(), (1.0, 3.0));
        assert_eq!(s.median(), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let s = Samples::new((1..=999).map(f64::from).collect());
        assert_eq!(s.tail(0.99), None, "999 samples leave 9 beyond p99");
        let s = Samples::new((1..=1000).map(f64::from).collect());
        assert_eq!(s.tail(0.99), Some(990.0));
    }
}
