//! Allocation-free metric primitives: log-scale histograms and windowed
//! rates.
//!
//! Both types are fixed-size at construction and their `record` methods
//! touch no heap memory — they are safe to call once per simulated
//! event. `cargo xtask lint` and the crate's counting-allocator test pin
//! this down.

/// Number of buckets in a [`LogHistogram`].
pub const HISTOGRAM_BUCKETS: usize = 32;

/// Resolution scale of a [`LogHistogram`]: values are quantized to
/// `1/SCALE` (in units of bus-transaction times) before bucketing.
const SCALE: f64 = 1024.0;

/// Length of one [`WindowedRate`] accumulation window, in simulated
/// bus-transaction times.
pub const RATE_WINDOW: f64 = 64.0;

/// `1 / RATE_WINDOW`. The window is a power of two, so multiplying by
/// its reciprocal is the same exact scaling as dividing by it.
const INV_RATE_WINDOW: f64 = 1.0 / RATE_WINDOW;

/// A fixed-bucket base-2 log-scale histogram over non-negative samples.
///
/// Samples are quantized to 1024 counts per unit; bucket `i` then
/// covers the half-open range `[bucket_edge(i-1), bucket_edge(i))` with
/// exclusive upper edges doubling from `1/1024` time units (bucket 0,
/// which also absorbs everything below the resolution) up to
/// `2^31/1024` (≈ 2 million transaction times); larger samples clamp
/// into the last bucket. Alongside the buckets it tracks exact count,
/// sum, min, and max, so the mean is not subject to bucketing error.
#[derive(Clone, Debug)]
pub struct LogHistogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl LogHistogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        LogHistogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Bucket index for a sample (see the type docs for the edges).
    #[must_use]
    #[inline]
    pub fn bucket_of(x: f64) -> usize {
        let scaled = (x * SCALE) as u64;
        let index = (u64::BITS - scaled.leading_zeros()) as usize;
        index.min(HISTOGRAM_BUCKETS - 1)
    }

    /// Exclusive upper edge of bucket `i`, in sample units (the last
    /// bucket's edge is nominal: it also absorbs larger samples).
    #[must_use]
    pub fn bucket_edge(i: usize) -> f64 {
        (1u64 << i.min(63)) as f64 / SCALE
    }

    /// Records one sample. Negative samples are clamped to zero (waiting
    /// times and queue depths are non-negative by construction; the
    /// clamp keeps a rounding artifact from indexing out of range).
    #[inline]
    pub fn record(&mut self, x: f64) {
        let x = x.max(0.0);
        self.buckets[Self::bucket_of(x)] += 1;
        self.count += 1;
        self.sum += x;
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of recorded samples.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Exact mean of recorded samples (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest recorded sample (`+inf` when empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest recorded sample (`-inf` when empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// The per-bucket counts.
    #[must_use]
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

/// An event-per-window rate tracker over simulated time.
///
/// Simulated time is divided into fixed windows of [`RATE_WINDOW`]
/// transaction times. Recording an occurrence at time `t` credits the
/// window containing `t`; when time advances past a window boundary the
/// finished window (and any empty windows skipped over) are folded into
/// the closed totals. No per-window storage is kept — just the closed
/// count/window totals and the busiest window seen — so the tracker is
/// constant-size and `record` never allocates. Timestamps must be
/// non-decreasing, which the event loop guarantees.
#[derive(Clone, Debug)]
pub struct WindowedRate {
    current_index: u64,
    current_count: u64,
    closed_windows: u64,
    closed_count: u64,
    peak: u64,
}

impl WindowedRate {
    /// Creates a tracker over [`RATE_WINDOW`] windows.
    #[must_use]
    pub fn new() -> Self {
        WindowedRate {
            current_index: 0,
            current_count: 0,
            closed_windows: 0,
            closed_count: 0,
            peak: 0,
        }
    }

    /// Records one occurrence at simulated time `t`.
    #[inline]
    pub fn record(&mut self, t: f64) {
        let index = (t * INV_RATE_WINDOW) as u64;
        if index > self.current_index {
            self.closed_windows += index - self.current_index;
            self.closed_count += self.current_count;
            if self.current_count > self.peak {
                self.peak = self.current_count;
            }
            self.current_index = index;
            self.current_count = 0;
        }
        self.current_count += 1;
    }

    /// The window length in simulated time units: [`RATE_WINDOW`].
    #[must_use]
    pub fn window(&self) -> f64 {
        RATE_WINDOW
    }

    /// Completed (closed) windows so far, including empty ones skipped
    /// over by a jump in time.
    #[must_use]
    pub fn closed_windows(&self) -> u64 {
        self.closed_windows
    }

    /// Occurrences inside closed windows.
    #[must_use]
    pub fn closed_count(&self) -> u64 {
        self.closed_count
    }

    /// Occurrences in the busiest single window, including the current
    /// (still open) one.
    #[must_use]
    pub fn peak(&self) -> u64 {
        self.peak.max(self.current_count)
    }

    /// Mean rate over closed windows, in occurrences per simulated time
    /// unit (0 until the first window closes).
    #[must_use]
    pub fn mean_rate(&self) -> f64 {
        if self.closed_windows == 0 {
            0.0
        } else {
            self.closed_count as f64 / (self.closed_windows as f64 * RATE_WINDOW)
        }
    }
}

impl Default for WindowedRate {
    fn default() -> Self {
        WindowedRate::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_log_spaced() {
        assert_eq!(LogHistogram::bucket_of(0.0), 0);
        // 1/1024 is the edge of bucket 1.
        assert_eq!(LogHistogram::bucket_of(1.0 / 1024.0), 1);
        assert_eq!(LogHistogram::bucket_of(1.0), 11); // 1024 = 2^10 -> bucket 11
        assert_eq!(LogHistogram::bucket_of(f64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(LogHistogram::bucket_edge(0), 1.0 / 1024.0);
        assert_eq!(LogHistogram::bucket_edge(11), 2.0);
        // Every sample lands in the bucket whose half-open range holds it.
        for x in [0.001, 0.5, 1.0, 1.5, 2.0, 3.0, 100.0, 1e6] {
            let b = LogHistogram::bucket_of(x);
            if b < HISTOGRAM_BUCKETS - 1 {
                assert!(x < LogHistogram::bucket_edge(b), "x = {x}, bucket {b}");
            }
            if b > 0 {
                assert!(x >= LogHistogram::bucket_edge(b - 1), "x = {x}, bucket {b}");
            }
        }
    }

    #[test]
    fn histogram_tracks_exact_moments() {
        let mut h = LogHistogram::new();
        assert_eq!(h.mean(), 0.0);
        for x in [1.5, 0.5, 4.0] {
            h.record(x);
        }
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 6.0);
        assert_eq!(h.mean(), 2.0);
        assert_eq!(h.min(), 0.5);
        assert_eq!(h.max(), 4.0);
        assert_eq!(h.buckets().iter().sum::<u64>(), 3);
        h.record(-1.0); // clamped to zero
        assert_eq!(h.min(), 0.0);
    }

    #[test]
    fn windowed_rate_closes_windows_as_time_advances() {
        let w = RATE_WINDOW;
        let mut r = WindowedRate::new();
        for t in [0.1, 0.2, 0.3] {
            r.record(t * w);
        }
        assert_eq!(r.closed_windows(), 0);
        assert_eq!(r.peak(), 3);
        assert_eq!(r.mean_rate(), 0.0);
        r.record(1.5 * w); // closes window 0
        assert_eq!(r.closed_windows(), 1);
        assert_eq!(r.closed_count(), 3);
        assert_eq!(r.mean_rate(), 3.0 / w);
        r.record(4.5 * w); // closes windows 1 (1 event), 2 and 3 (empty)
        assert_eq!(r.closed_windows(), 4);
        assert_eq!(r.closed_count(), 4);
        assert_eq!(r.peak(), 3);
        assert_eq!(r.mean_rate(), 1.0 / w);
        assert_eq!(r.window(), w);
    }
}
