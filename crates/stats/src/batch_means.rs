//! The method of batch means.

use busarb_types::Error;

use crate::student_t;
use crate::Summary;

/// Configuration for a [`BatchMeans`] analysis.
///
/// The paper's setting is 10 batches of 8000 samples at 90% confidence
/// ([`BatchMeansConfig::paper`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BatchMeansConfig {
    /// Number of batches.
    pub batches: usize,
    /// Samples per batch.
    pub samples_per_batch: usize,
    /// Confidence level for the interval, e.g. `0.90`.
    pub confidence: f64,
}

impl BatchMeansConfig {
    /// The paper's configuration: 10 batches × 8000 samples, 90% CI.
    #[must_use]
    pub fn paper() -> Self {
        BatchMeansConfig {
            batches: 10,
            samples_per_batch: 8000,
            confidence: 0.90,
        }
    }

    /// A scaled-down configuration for quick runs and benches, keeping the
    /// batch structure but with `samples_per_batch` reduced.
    #[must_use]
    pub fn quick(samples_per_batch: usize) -> Self {
        BatchMeansConfig {
            samples_per_batch,
            ..BatchMeansConfig::paper()
        }
    }

    /// Total number of samples needed to fill every batch.
    #[must_use]
    pub fn total_samples(&self) -> usize {
        self.batches * self.samples_per_batch
    }

    fn validate(&self) -> Result<(), Error> {
        if self.batches < 2 || self.samples_per_batch == 0 {
            return Err(Error::InvalidBatchConfig {
                batches: self.batches,
                samples_per_batch: self.samples_per_batch,
            });
        }
        if !(self.confidence > 0.0 && self.confidence < 1.0) {
            return Err(Error::InvalidBatchConfig {
                batches: self.batches,
                samples_per_batch: self.samples_per_batch,
            });
        }
        Ok(())
    }
}

impl Default for BatchMeansConfig {
    fn default() -> Self {
        BatchMeansConfig::paper()
    }
}

/// A point estimate with a confidence interval, as reported throughout the
/// paper's tables (`value ± halfwidth`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Estimate {
    /// The point estimate (mean of the batch means).
    pub mean: f64,
    /// Half-width of the confidence interval.
    pub halfwidth: f64,
    /// The confidence level the interval was built at.
    pub confidence: f64,
}

impl Estimate {
    /// Lower end of the interval.
    #[must_use]
    pub fn lo(&self) -> f64 {
        self.mean - self.halfwidth
    }

    /// Upper end of the interval.
    #[must_use]
    pub fn hi(&self) -> f64 {
        self.mean + self.halfwidth
    }

    /// Returns `true` if `value` lies inside the interval.
    #[must_use]
    pub fn covers(&self, value: f64) -> bool {
        value >= self.lo() && value <= self.hi()
    }

    /// Relative half-width (`halfwidth / |mean|`); infinite for a zero mean.
    #[must_use]
    pub fn relative_halfwidth(&self) -> f64 {
        if self.mean == 0.0 {
            f64::INFINITY
        } else {
            self.halfwidth / self.mean.abs()
        }
    }

    /// Builds an estimate from a slice of batch statistics (one value per
    /// batch) at the given confidence.
    ///
    /// This is the general entry point used for derived statistics such as
    /// throughput ratios: compute the statistic within each batch, then form
    /// the interval over the per-batch values.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two batch values are supplied.
    #[must_use]
    pub fn from_batch_values(values: &[f64], confidence: f64) -> Estimate {
        assert!(values.len() >= 2, "need at least two batches");
        let summary: Summary = values.iter().copied().collect();
        let t = student_t::two_sided(confidence, (values.len() - 1) as u64);
        Estimate {
            mean: summary.mean(),
            halfwidth: t * summary.std_dev() / (values.len() as f64).sqrt(),
            confidence,
        }
    }
}

impl core::fmt::Display for Estimate {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:.2} \u{b1} {:.2}", self.mean, self.halfwidth)
    }
}

/// Batch-means accumulator for one scalar output measure.
///
/// Samples are assigned to consecutive fixed-size batches; when all batches
/// are full, [`BatchMeans::estimate`] returns the mean of the batch means
/// with a Student-t confidence interval. Samples beyond the configured total
/// are ignored (the run has collected enough output).
///
/// Warm-up handling is the caller's responsibility: [`crate::MeasurementWindow`]
/// discards an initial transient before routing samples here.
#[derive(Clone, Debug)]
pub struct BatchMeans {
    config: BatchMeansConfig,
    batch_sums: Vec<f64>,
    batch_counts: Vec<usize>,
    current: usize,
    overall: Summary,
}

impl BatchMeans {
    /// Creates an accumulator for the given configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidBatchConfig`] if fewer than 2 batches, zero
    /// samples per batch, or a confidence outside (0, 1) is requested.
    pub fn new(config: BatchMeansConfig) -> Result<Self, Error> {
        config.validate()?;
        Ok(BatchMeans {
            config,
            batch_sums: vec![0.0; config.batches],
            batch_counts: vec![0; config.batches],
            current: 0,
            overall: Summary::new(),
        })
    }

    /// The configuration this accumulator was built with.
    #[must_use]
    pub fn config(&self) -> &BatchMeansConfig {
        &self.config
    }

    /// Records one sample. Samples arriving after all batches are full are
    /// ignored.
    pub fn record(&mut self, x: f64) {
        if self.is_complete() {
            return;
        }
        self.batch_sums[self.current] += x;
        self.batch_counts[self.current] += 1;
        self.overall.record(x);
        if self.batch_counts[self.current] == self.config.samples_per_batch {
            self.current += 1;
        }
    }

    /// Returns `true` once every batch has its full complement of samples.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.current == self.config.batches
    }

    /// Total samples recorded so far (capped at the configured total).
    #[must_use]
    pub fn samples_recorded(&self) -> usize {
        self.overall.count() as usize
    }

    /// Summary over all recorded samples (for std-dev measures such as
    /// Table 4.2's σ_W, which is a property of the sample stream, not of the
    /// batch means).
    #[must_use]
    pub fn overall(&self) -> &Summary {
        &self.overall
    }

    /// Per-batch means computed so far (only full batches).
    #[must_use]
    pub fn batch_means(&self) -> Vec<f64> {
        self.batch_sums
            .iter()
            .zip(&self.batch_counts)
            .filter(|&(_, &n)| n == self.config.samples_per_batch)
            .map(|(&s, &n)| s / n as f64)
            .collect()
    }

    /// The batch-means estimate, or `None` until every batch is full.
    #[must_use]
    pub fn estimate(&self) -> Option<Estimate> {
        if !self.is_complete() {
            return None;
        }
        Some(Estimate::from_batch_values(
            &self.batch_means(),
            self.config.confidence,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation() {
        assert!(BatchMeans::new(BatchMeansConfig {
            batches: 1,
            samples_per_batch: 10,
            confidence: 0.9
        })
        .is_err());
        assert!(BatchMeans::new(BatchMeansConfig {
            batches: 10,
            samples_per_batch: 0,
            confidence: 0.9
        })
        .is_err());
        assert!(BatchMeans::new(BatchMeansConfig {
            batches: 10,
            samples_per_batch: 10,
            confidence: 1.0
        })
        .is_err());
        assert!(BatchMeans::new(BatchMeansConfig::paper()).is_ok());
    }

    #[test]
    fn paper_config_shape() {
        let c = BatchMeansConfig::paper();
        assert_eq!(c.batches, 10);
        assert_eq!(c.samples_per_batch, 8000);
        assert_eq!(c.total_samples(), 80_000);
        assert_eq!(c.confidence, 0.90);
        assert_eq!(BatchMeansConfig::default(), c);
    }

    #[test]
    fn incomplete_returns_none() {
        let mut bm = BatchMeans::new(BatchMeansConfig {
            batches: 2,
            samples_per_batch: 3,
            confidence: 0.9,
        })
        .unwrap();
        for _ in 0..5 {
            bm.record(1.0);
        }
        assert!(!bm.is_complete());
        assert!(bm.estimate().is_none());
        bm.record(1.0);
        assert!(bm.is_complete());
        assert!(bm.estimate().is_some());
    }

    #[test]
    fn extra_samples_are_ignored() {
        let mut bm = BatchMeans::new(BatchMeansConfig {
            batches: 2,
            samples_per_batch: 2,
            confidence: 0.9,
        })
        .unwrap();
        for _ in 0..4 {
            bm.record(2.0);
        }
        bm.record(1000.0); // ignored
        assert_eq!(bm.samples_recorded(), 4);
        let est = bm.estimate().unwrap();
        assert_eq!(est.mean, 2.0);
        assert_eq!(est.halfwidth, 0.0);
    }

    #[test]
    fn constant_stream_gives_zero_halfwidth() {
        let mut bm = BatchMeans::new(BatchMeansConfig {
            batches: 10,
            samples_per_batch: 100,
            confidence: 0.9,
        })
        .unwrap();
        for _ in 0..1000 {
            bm.record(7.5);
        }
        let est = bm.estimate().unwrap();
        assert_eq!(est.mean, 7.5);
        assert!(est.halfwidth < 1e-12);
        assert!(est.covers(7.5));
    }

    #[test]
    fn interval_uses_t_critical_value() {
        // Batch means will be 0,1,0,1,... — known spread.
        let mut bm = BatchMeans::new(BatchMeansConfig {
            batches: 10,
            samples_per_batch: 1,
            confidence: 0.90,
        })
        .unwrap();
        for i in 0..10 {
            bm.record((i % 2) as f64);
        }
        let means = bm.batch_means();
        let s: Summary = means.iter().copied().collect();
        let expected = student_t::two_sided(0.90, 9) * s.std_dev() / 10f64.sqrt();
        let est = bm.estimate().unwrap();
        assert!((est.halfwidth - expected).abs() < 1e-12);
        assert_eq!(est.mean, 0.5);
    }

    #[test]
    fn ci_covers_true_mean_for_iid_uniform() {
        // Deterministic LCG so the test is reproducible without rand.
        let mut state = 0x2545_F491_4F6C_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut covered = 0;
        const TRIALS: usize = 200;
        for _ in 0..TRIALS {
            let mut bm = BatchMeans::new(BatchMeansConfig {
                batches: 10,
                samples_per_batch: 50,
                confidence: 0.90,
            })
            .unwrap();
            for _ in 0..500 {
                bm.record(next());
            }
            if bm.estimate().unwrap().covers(0.5) {
                covered += 1;
            }
        }
        // Expected coverage ~90%; allow generous slack for 200 trials.
        assert!(covered >= 160, "coverage too low: {covered}/200");
    }

    #[test]
    fn estimate_accessors() {
        let est = Estimate {
            mean: 10.0,
            halfwidth: 2.0,
            confidence: 0.9,
        };
        assert_eq!(est.lo(), 8.0);
        assert_eq!(est.hi(), 12.0);
        assert!(est.covers(9.0));
        assert!(!est.covers(12.5));
        assert_eq!(est.relative_halfwidth(), 0.2);
        assert!(format!("{est}").contains("10.00"));
    }

    #[test]
    fn overall_summary_tracks_all_samples() {
        let mut bm = BatchMeans::new(BatchMeansConfig {
            batches: 2,
            samples_per_batch: 2,
            confidence: 0.9,
        })
        .unwrap();
        for x in [1.0, 2.0, 3.0, 4.0] {
            bm.record(x);
        }
        assert_eq!(bm.overall().count(), 4);
        assert_eq!(bm.overall().mean(), 2.5);
    }
}
