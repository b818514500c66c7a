//! Empirical cumulative distribution functions.

use core::fmt;

/// An empirical CDF built from a collected sample set.
///
/// Figure 4.1 of the paper plots the CDF of the bus waiting time for the RR
/// and FCFS protocols; Table 4.3's execution-overlap experiment derives its
/// overlap parameter from the crossing point of the two CDFs. `Cdf` stores
/// the raw samples and sorts them lazily on first evaluation;
/// [`Cdf::eval_integers`] and [`Cdf::quantiles`] answer without a full
/// sort.
///
/// # Examples
///
/// ```
/// use busarb_stats::Cdf;
///
/// let mut cdf = Cdf::new();
/// cdf.extend([1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(cdf.eval(2.5), 0.5);
/// assert_eq!(cdf.quantile(0.5), Some(2.0));
/// ```
#[derive(Clone, Debug, Default)]
pub struct Cdf {
    samples: Vec<f64>,
    sorted: bool,
}

impl Cdf {
    /// Creates an empty CDF.
    #[must_use]
    pub fn new() -> Self {
        Cdf {
            samples: Vec::new(),
            sorted: true,
        }
    }

    /// Creates an empty CDF with capacity for `n` samples.
    #[must_use]
    pub fn with_capacity(n: usize) -> Self {
        Cdf {
            samples: Vec::with_capacity(n),
            sorted: true,
        }
    }

    /// Records one sample.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN.
    pub fn record(&mut self, x: f64) {
        assert!(!x.is_nan(), "CDF samples must not be NaN");
        self.samples.push(x);
        self.sorted = false;
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Returns `true` if no samples were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("no NaN by construction"));
            self.sorted = true;
        }
    }

    /// Evaluates the empirical CDF at `x`: the fraction of samples `<= x`.
    ///
    /// Returns 0 for an empty sample set.
    #[must_use]
    pub fn eval(&mut self, x: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let n = self.samples.partition_point(|&s| s <= x);
        n as f64 / self.samples.len() as f64
    }

    /// The empirical CDF at every integer `x` in `0..=limit`, from one
    /// pass over the samples and without sorting them: element `x` equals
    /// [`Cdf::eval`]`(x)` bit for bit. For an integer `x`, `s <= x` holds
    /// exactly when `ceil(s) <= x`, so counting the samples by `ceil(s)`
    /// and summing the counts gives the same `count / len` ratios `eval`
    /// computes. The recorded sample order is left as it is.
    ///
    /// The result holds `limit + 1` values (zeros for an empty sample
    /// set), so `limit` should be a bound of the search, not a sentinel.
    #[must_use]
    pub fn eval_integers(&self, limit: u32) -> Vec<f64> {
        let mut counts = vec![0usize; limit as usize + 1];
        if self.samples.is_empty() {
            return vec![0.0; counts.len()];
        }
        for &s in &self.samples {
            let c = s.ceil();
            if c <= 0.0 {
                counts[0] += 1;
            } else if c <= f64::from(limit) {
                // An integral value in 1..=limit: the cast is exact.
                counts[c as usize] += 1;
            }
        }
        let n = self.samples.len() as f64;
        let mut at_or_below = 0;
        counts
            .into_iter()
            .map(|count| {
                at_or_below += count;
                at_or_below as f64 / n
            })
            .collect()
    }

    /// The `q`-quantile (0 <= q <= 1) using the inverse-CDF convention, or
    /// `None` for an empty sample set.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.samples.is_empty() {
            return None;
        }
        self.ensure_sorted();
        Some(self.samples[quantile_index(q, self.samples.len())])
    }

    /// Several quantiles at once, each by the rule of [`Cdf::quantile`],
    /// or `None` for an empty sample set. Unsorted samples are not
    /// sorted: each quantile is found by selection in the part of the
    /// samples not yet split off, O(n) per quantile instead of a full
    /// O(n log n) sort. Selection reorders the samples, as sorting does.
    ///
    /// # Panics
    ///
    /// Panics if any `q` is outside `[0, 1]`.
    #[must_use]
    pub fn quantiles<const K: usize>(&mut self, qs: [f64; K]) -> Option<[f64; K]> {
        assert!(
            qs.iter().all(|q| (0.0..=1.0).contains(q)),
            "quantile must be in [0, 1]"
        );
        if self.samples.is_empty() {
            return None;
        }
        let n = self.samples.len();
        let mut wanted: [(usize, usize); K] =
            core::array::from_fn(|i| (quantile_index(qs[i], n), i));
        wanted.sort_unstable();
        let mut out = [0.0; K];
        // A selection at `idx` leaves the order statistic there and moves
        // every larger sample after it, so the next larger index is
        // selected in `samples[idx + 1..]` and `samples[..=idx]` is never
        // touched again.
        let mut lo = 0;
        for (idx, i) in wanted {
            if !self.sorted && idx >= lo {
                self.samples[lo..].select_nth_unstable_by(idx - lo, |a, b| {
                    a.partial_cmp(b).expect("no NaN by construction")
                });
                lo = idx + 1;
            }
            out[i] = self.samples[idx];
        }
        Some(out)
    }

    /// Produces `(x, F(x))` pairs sampled at `points` evenly spaced values
    /// spanning the sample range — the series plotted in Figure 4.1.
    ///
    /// Returns an empty vector for an empty sample set or `points == 0`.
    #[must_use]
    pub fn series(&mut self, points: usize) -> Vec<(f64, f64)> {
        if self.samples.is_empty() || points == 0 {
            return Vec::new();
        }
        self.ensure_sorted();
        let lo = self.samples[0];
        let hi = self.samples[self.samples.len() - 1];
        let step = if points > 1 {
            (hi - lo) / (points - 1) as f64
        } else {
            0.0
        };
        (0..points)
            .map(|i| {
                let x = lo + step * i as f64;
                (x, self.eval(x))
            })
            .collect()
    }

    /// Read-only view of the recorded samples (unsorted order not
    /// guaranteed).
    #[must_use]
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// The sample index of the `q`-quantile among `n` sorted samples.
fn quantile_index(q: f64, n: usize) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

impl Extend<f64> for Cdf {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.record(x);
        }
    }
}

impl FromIterator<f64> for Cdf {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut cdf = Cdf::new();
        cdf.extend(iter);
        cdf
    }
}

impl fmt::Display for Cdf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "empirical cdf over {} samples", self.samples.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_cdf() {
        let mut cdf = Cdf::new();
        assert!(cdf.is_empty());
        assert_eq!(cdf.eval(10.0), 0.0);
        assert_eq!(cdf.quantile(0.5), None);
        assert!(cdf.series(5).is_empty());
    }

    #[test]
    fn eval_counts_fraction_at_or_below() {
        let mut cdf: Cdf = [3.0, 1.0, 2.0, 4.0].into_iter().collect();
        assert_eq!(cdf.eval(0.5), 0.0);
        assert_eq!(cdf.eval(1.0), 0.25);
        assert_eq!(cdf.eval(2.5), 0.5);
        assert_eq!(cdf.eval(4.0), 1.0);
        assert_eq!(cdf.eval(9.0), 1.0);
    }

    #[test]
    fn quantiles() {
        let mut cdf: Cdf = (1..=100).map(f64::from).collect();
        assert_eq!(cdf.quantile(0.0), Some(1.0));
        assert_eq!(cdf.quantile(0.5), Some(50.0));
        assert_eq!(cdf.quantile(1.0), Some(100.0));
        assert_eq!(cdf.quantile(0.905), Some(91.0));
    }

    #[test]
    fn duplicates_are_handled() {
        let mut cdf: Cdf = [2.0, 2.0, 2.0, 5.0].into_iter().collect();
        assert_eq!(cdf.eval(2.0), 0.75);
        assert_eq!(cdf.eval(1.9), 0.0);
        assert_eq!(cdf.quantile(0.5), Some(2.0));
    }

    #[test]
    fn series_spans_range() {
        let mut cdf: Cdf = [0.0, 10.0].into_iter().collect();
        let series = cdf.series(3);
        assert_eq!(series.len(), 3);
        assert_eq!(series[0], (0.0, 0.5));
        assert_eq!(series[1], (5.0, 0.5));
        assert_eq!(series[2], (10.0, 1.0));
    }

    #[test]
    fn eval_integers_counts_by_ceiling() {
        let cdf: Cdf = [12.0, 0.5, 2.5, 0.0, 1.0, 9.0].into_iter().collect();
        // 0 -> {0}; 1 -> {0, 0.5, 1}; 3 -> {.., 2.5}; 9 and 12 lie past 3.
        let sixths = |k: u32| f64::from(k) / 6.0;
        assert_eq!(
            cdf.eval_integers(3),
            vec![sixths(1), sixths(3), sixths(3), sixths(4)]
        );
        assert_eq!(cdf.samples()[0], 12.0, "recorded order is kept");
        assert_eq!(Cdf::new().eval_integers(2), vec![0.0; 3]);
    }

    #[test]
    fn incremental_recording_resorts() {
        let mut cdf = Cdf::new();
        cdf.record(5.0);
        assert_eq!(cdf.eval(5.0), 1.0);
        cdf.record(1.0);
        assert_eq!(cdf.eval(1.0), 0.5);
        assert_eq!(cdf.len(), 2);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_sample_panics() {
        Cdf::new().record(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn bad_quantile_panics() {
        let mut cdf: Cdf = [1.0].into_iter().collect();
        let _ = cdf.quantile(1.5);
    }
}
