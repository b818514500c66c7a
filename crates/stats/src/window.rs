//! The measurement window of one run: which completions count, and over
//! what interval utilization is taken.

use busarb_types::{Error, Time};

use crate::{BatchMeans, BatchMeansConfig};

/// The paper's measurement rule (§4.1): discard a warm-up of
/// completions, then feed the waits of the next
/// [`BatchMeansConfig::total_samples`] completions to a [`BatchMeans`]
/// and ignore the rest.
///
/// The measured interval runs from the completion that ends the warm-up
/// to the last counted completion (from time zero when there is no
/// warm-up), and utilization is the counted completions over that
/// interval — one bus transaction per completion. The live runner and
/// the trace replay both hold one, so a replayed export reproduces the
/// run's aggregates bit for bit.
#[derive(Clone, Debug)]
pub struct MeasurementWindow {
    batches: BatchMeans,
    warmup: u64,
    warmup_remaining: u64,
    start: Time,
    end: Time,
}

impl MeasurementWindow {
    /// Creates a window that discards `warmup` completions before
    /// measuring `batches`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidBatchConfig`] when [`BatchMeans::new`]
    /// rejects `batches`.
    pub fn new(warmup: u64, batches: BatchMeansConfig) -> Result<Self, Error> {
        Ok(MeasurementWindow {
            batches: BatchMeans::new(batches)?,
            warmup,
            warmup_remaining: warmup,
            start: Time::ZERO,
            end: Time::ZERO,
        })
    }

    /// Offers the completion at time `at` with waiting time `wait`, and
    /// returns `true` when it was measured: past the warm-up and before
    /// every batch is full.
    #[inline]
    pub fn record(&mut self, at: Time, wait: f64) -> bool {
        if self.warmup_remaining > 0 {
            self.warmup_remaining -= 1;
            if self.warmup_remaining == 0 {
                self.start = at;
            }
            return false;
        }
        if self.batches.is_complete() {
            return false;
        }
        self.batches.record(wait);
        self.end = at;
        true
    }

    /// The batch-means accumulator of the measured waits.
    #[must_use]
    pub fn batches(&self) -> &BatchMeans {
        &self.batches
    }

    /// Completions the warm-up has discarded so far.
    #[must_use]
    pub fn warmup_consumed(&self) -> u64 {
        self.warmup - self.warmup_remaining
    }

    /// Time of the last measured completion (zero before the first).
    #[must_use]
    pub fn end(&self) -> Time {
        self.end
    }

    /// Length of the measured interval.
    #[must_use]
    pub fn measured_time(&self) -> Time {
        self.end - self.start
    }

    /// Measured completions per unit of measured time: the bus
    /// utilization, or 0 when the interval is empty.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        let measured_time = self.measured_time();
        if measured_time > Time::ZERO {
            self.batches.samples_recorded() as f64 / measured_time.as_f64()
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(warmup: u64) -> MeasurementWindow {
        MeasurementWindow::new(
            warmup,
            BatchMeansConfig {
                batches: 2,
                samples_per_batch: 3,
                confidence: 0.9,
            },
        )
        .unwrap()
    }

    #[test]
    fn the_completion_ending_the_warmup_opens_the_interval_unmeasured() {
        let mut w = window(2);
        assert!(!w.record(Time::from(1.0), 9.0));
        assert!(!w.record(Time::from(2.0), 9.0));
        assert_eq!(w.warmup_consumed(), 2);
        assert_eq!(w.batches().samples_recorded(), 0);
        assert!(w.record(Time::from(5.0), 1.0));
        assert_eq!(w.measured_time(), Time::from(3.0));
        assert_eq!(w.end(), Time::from(5.0));
        assert_eq!(w.utilization(), 1.0 / 3.0);
        assert_eq!(w.batches().overall().mean(), 1.0);
    }

    #[test]
    fn record_refuses_completions_once_the_batches_are_full() {
        let mut w = window(0);
        for t in 1..=6 {
            assert!(w.record(Time::from(f64::from(t)), 1.0));
        }
        assert!(w.batches().is_complete());
        assert!(!w.record(Time::from(7.0), 1.0));
        assert_eq!(w.end(), Time::from(6.0));
        assert_eq!(w.batches().samples_recorded(), 6);
    }

    #[test]
    fn a_zero_warmup_measures_from_time_zero() {
        let mut w = window(0);
        assert!(w.record(Time::from(4.0), 2.0));
        assert_eq!(w.warmup_consumed(), 0);
        assert_eq!(w.measured_time(), Time::from(4.0));
        assert_eq!(w.utilization(), 0.25);
    }

    #[test]
    fn an_empty_interval_has_zero_utilization() {
        let mut w = window(1);
        assert_eq!(w.utilization(), 0.0);
        assert!(!w.record(Time::from(3.0), 1.0));
        // One completion at the warm-up's end: no time has passed.
        assert!(w.record(Time::from(3.0), 1.0));
        assert_eq!(w.measured_time(), Time::ZERO);
        assert_eq!(w.utilization(), 0.0);
    }
}
