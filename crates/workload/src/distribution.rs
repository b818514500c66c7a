//! Interrequest-time distributions.

use core::fmt;
use std::sync::Arc;

use busarb_types::{Error, Time};
use rand::Rng;

/// Largest Erlang shape [`InterrequestTime::from_mean_cv`] accepts: CV
/// 0.01. The reference sampler draws one uniform per stage, so the shape
/// bounds the cost of a draw; the paper's smallest CV, 0.1, needs 100.
pub const MAX_ERLANG_SHAPE: u32 = 10_000;

/// An interrequest-time distribution, parameterized by mean and coefficient
/// of variation (CV = standard deviation / mean), following Section 4.1 of
/// the paper:
///
/// * CV = 0 — deterministic,
/// * 0 < CV < 1 — Erlang-k with `k = round(1 / CV²)` (the Erlang family
///   realizes CVs of exactly `1/sqrt(k)`; the paper's sweep values 0.1,
///   0.2, 0.25, 1/3, 0.5 are all exactly realizable),
/// * CV = 1 — exponential.
///
/// # Examples
///
/// ```
/// use busarb_workload::InterrequestTime;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), busarb_types::Error> {
/// let d = InterrequestTime::from_mean_cv(3.0, 0.5)?;
/// assert_eq!(d.mean(), 3.0);
/// assert_eq!(d.cv(), 0.5); // Erlang-4
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let x = d.sample(&mut rng);
/// assert!(x.as_f64() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Debug)]
pub enum InterrequestTime {
    /// Always exactly `value` (CV = 0).
    Deterministic {
        /// The constant interrequest time.
        value: f64,
    },
    /// Erlang distribution: sum of `shape` exponentials (0 < CV < 1).
    Erlang {
        /// Mean of the whole Erlang variate.
        mean: f64,
        /// Number of exponential stages (k ≥ 2 here; k = 1 is
        /// [`InterrequestTime::Exponential`]).
        shape: u32,
    },
    /// Exponential distribution (CV = 1) — the highest-contention case in
    /// the paper's sweep.
    Exponential {
        /// Mean interrequest time.
        mean: f64,
    },
    /// Empirical distribution: interrequest times resampled uniformly
    /// from a recorded trace. This is the trace-driven evaluation mode
    /// (cf. the paper's \[EgGi87\] citation) and the only family that can
    /// exceed CV = 1 (bursty traffic).
    Empirical {
        /// The recorded interrequest times.
        samples: Arc<[f64]>,
        /// Cached trace mean.
        mean: f64,
        /// Cached trace coefficient of variation.
        cv: f64,
    },
}

impl InterrequestTime {
    /// Builds the distribution for a given mean and CV, choosing the family
    /// as the paper does.
    ///
    /// For 0 < CV < 1 the Erlang shape is `round(1/CV²)` clamped to ≥ 2;
    /// the *achieved* CV is `1/sqrt(shape)` and can be read back with
    /// [`Self::cv`]. The shape is at most [`MAX_ERLANG_SHAPE`].
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidMean`] if `mean` is not positive and finite
    ///   (except that a zero mean is allowed for CV = 0, meaning the agent
    ///   re-requests immediately).
    /// * [`Error::InvalidCv`] if `cv` is outside `[0, 1]`.
    /// * [`Error::CvTooSmall`] if `cv` is positive but its Erlang shape
    ///   exceeds [`MAX_ERLANG_SHAPE`] (CV below about 0.01).
    pub fn from_mean_cv(mean: f64, cv: f64) -> Result<Self, Error> {
        if !(0.0..=1.0).contains(&cv) || !cv.is_finite() {
            return Err(Error::InvalidCv { cv });
        }
        if !mean.is_finite() || mean < 0.0 || (mean == 0.0 && cv != 0.0) {
            return Err(Error::InvalidMean { mean });
        }
        if cv == 0.0 {
            Ok(InterrequestTime::Deterministic { value: mean })
        } else if cv == 1.0 {
            Ok(InterrequestTime::Exponential { mean })
        } else {
            let shape = (1.0 / (cv * cv)).round().max(2.0);
            if shape > f64::from(MAX_ERLANG_SHAPE) {
                return Err(Error::CvTooSmall {
                    cv,
                    max_shape: MAX_ERLANG_SHAPE,
                });
            }
            Ok(InterrequestTime::Erlang {
                mean,
                shape: shape as u32,
            })
        }
    }

    /// Builds an empirical distribution that resamples (bootstraps) from
    /// a recorded trace of interrequest times.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidScenario`] if the trace is empty or
    /// contains a negative or non-finite value.
    pub fn from_trace(samples: Vec<f64>) -> Result<Self, Error> {
        if samples.is_empty() {
            return Err(Error::InvalidScenario {
                reason: "empirical trace must not be empty".to_string(),
            });
        }
        if samples.iter().any(|&x| !x.is_finite() || x < 0.0) {
            return Err(Error::InvalidScenario {
                reason: "empirical trace values must be finite and non-negative".to_string(),
            });
        }
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        let cv = if mean > 0.0 { var.sqrt() / mean } else { 0.0 };
        Ok(InterrequestTime::Empirical {
            samples: samples.into(),
            mean,
            cv,
        })
    }

    /// The distribution mean.
    #[must_use]
    pub fn mean(&self) -> f64 {
        match *self {
            InterrequestTime::Deterministic { value } => value,
            InterrequestTime::Erlang { mean, .. } | InterrequestTime::Exponential { mean } => mean,
            InterrequestTime::Empirical { mean, .. } => mean,
        }
    }

    /// The achieved coefficient of variation.
    #[must_use]
    pub fn cv(&self) -> f64 {
        match *self {
            InterrequestTime::Deterministic { .. } => 0.0,
            InterrequestTime::Erlang { shape, .. } => 1.0 / f64::from(shape).sqrt(),
            InterrequestTime::Exponential { .. } => 1.0,
            InterrequestTime::Empirical { cv, .. } => cv,
        }
    }

    /// The distribution variance.
    #[must_use]
    pub fn variance(&self) -> f64 {
        let sd = self.cv() * self.mean();
        sd * sd
    }

    /// Draws one interrequest time.
    ///
    /// Sampling uses inverse-transform for the exponential and the
    /// product-of-uniforms identity for the Erlang (`-θ · ln Π uᵢ` over
    /// `shape` uniforms with `θ = mean / shape`).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Time {
        let value = match *self {
            InterrequestTime::Deterministic { value } => value,
            InterrequestTime::Exponential { mean } => -mean * ln_nonzero_uniform(rng),
            InterrequestTime::Erlang { mean, shape } => {
                let theta = mean / f64::from(shape);
                let mut ln_sum = 0.0;
                for _ in 0..shape {
                    ln_sum += ln_nonzero_uniform(rng);
                }
                -theta * ln_sum
            }
            InterrequestTime::Empirical { ref samples, .. } => {
                samples[rng.gen_range(0..samples.len())]
            }
        };
        // Every branch above yields a finite value; `saturating` (same
        // result, no panic branch) keeps the per-draw path unwind-free.
        Time::saturating(value)
    }
}

/// `ln(u)` for `u` uniform on (0, 1], avoiding `ln(0)`.
fn ln_nonzero_uniform<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // gen::<f64>() is uniform on [0, 1); map to (0, 1].
    let u: f64 = 1.0 - rng.gen::<f64>();
    u.ln()
}

impl fmt::Display for InterrequestTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            InterrequestTime::Deterministic { value } => {
                write!(f, "deterministic({value})")
            }
            InterrequestTime::Erlang { mean, shape } => {
                write!(f, "erlang(mean={mean}, k={shape})")
            }
            InterrequestTime::Exponential { mean } => {
                write!(f, "exponential(mean={mean})")
            }
            InterrequestTime::Empirical {
                ref samples,
                mean,
                cv,
            } => {
                write!(
                    f,
                    "empirical({} samples, mean={mean:.3}, cv={cv:.3})",
                    samples.len()
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use busarb_stats::Summary;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_summary(d: InterrequestTime, n: usize, seed: u64) -> Summary {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| d.sample(&mut rng).as_f64()).collect()
    }

    #[test]
    fn family_selection_matches_paper() {
        assert!(matches!(
            InterrequestTime::from_mean_cv(2.0, 0.0).unwrap(),
            InterrequestTime::Deterministic { .. }
        ));
        assert!(matches!(
            InterrequestTime::from_mean_cv(2.0, 1.0).unwrap(),
            InterrequestTime::Exponential { .. }
        ));
        let erlang = InterrequestTime::from_mean_cv(2.0, 0.5).unwrap();
        assert_eq!(
            erlang,
            InterrequestTime::Erlang {
                mean: 2.0,
                shape: 4
            }
        );
    }

    #[test]
    fn paper_cv_sweep_is_exactly_realizable() {
        // Table 4.5 sweeps CV in {0, 0.1, 0.2, 0.25, 1/3, 0.5, 1.0}.
        for &(cv, shape) in &[(0.1, 100), (0.2, 25), (0.25, 16), (1.0 / 3.0, 9), (0.5, 4)] {
            match InterrequestTime::from_mean_cv(1.0, cv).unwrap() {
                InterrequestTime::Erlang { shape: k, .. } => {
                    assert_eq!(k, shape, "cv={cv}");
                }
                other => panic!("expected Erlang for cv={cv}, got {other}"),
            }
        }
    }

    #[test]
    fn tiny_cvs_are_rejected_not_sampled_forever() {
        // round(1/CV²) saturated to u32::MAX before the cap, and every
        // reference draw then looped over ~4.3e9 stages.
        for cv in [1e-3, 1e-9, 1e-300, f64::MIN_POSITIVE] {
            assert_eq!(
                InterrequestTime::from_mean_cv(1.0, cv),
                Err(Error::CvTooSmall {
                    cv,
                    max_shape: MAX_ERLANG_SHAPE
                }),
                "cv={cv}"
            );
        }
        // The cap itself and Table 4.5's CV 0.1 stay Erlang.
        for (cv, shape) in [(0.01, MAX_ERLANG_SHAPE), (0.1, 100)] {
            assert_eq!(
                InterrequestTime::from_mean_cv(1.0, cv),
                Ok(InterrequestTime::Erlang { mean: 1.0, shape }),
                "cv={cv}"
            );
        }
    }

    #[test]
    fn achieved_cv_is_reported() {
        let d = InterrequestTime::from_mean_cv(5.0, 1.0 / 3.0).unwrap();
        assert!((d.cv() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(d.mean(), 5.0);
        assert!((d.variance() - (5.0 / 3.0f64).powi(2)).abs() < 1e-12);
    }

    #[test]
    fn validation() {
        assert!(InterrequestTime::from_mean_cv(1.0, -0.1).is_err());
        assert!(InterrequestTime::from_mean_cv(1.0, 1.5).is_err());
        assert!(InterrequestTime::from_mean_cv(-1.0, 0.5).is_err());
        assert!(InterrequestTime::from_mean_cv(f64::NAN, 0.5).is_err());
        // Zero mean allowed only for the deterministic family.
        assert!(InterrequestTime::from_mean_cv(0.0, 0.0).is_ok());
        assert!(InterrequestTime::from_mean_cv(0.0, 0.5).is_err());
    }

    #[test]
    fn deterministic_sampling_is_constant() {
        let d = InterrequestTime::from_mean_cv(2.5, 0.0).unwrap();
        let s = sample_summary(d, 100, 1);
        assert_eq!(s.mean(), 2.5);
        assert_eq!(s.sample_variance(), 0.0);
    }

    #[test]
    fn exponential_moments() {
        let d = InterrequestTime::from_mean_cv(3.0, 1.0).unwrap();
        let s = sample_summary(d, 200_000, 42);
        assert!((s.mean() - 3.0).abs() < 0.05, "mean {}", s.mean());
        let cv = s.std_dev() / s.mean();
        assert!((cv - 1.0).abs() < 0.02, "cv {cv}");
        assert!(s.min().unwrap() > 0.0);
    }

    #[test]
    fn erlang_moments() {
        let d = InterrequestTime::from_mean_cv(4.0, 0.5).unwrap();
        let s = sample_summary(d, 200_000, 43);
        assert!((s.mean() - 4.0).abs() < 0.05);
        let cv = s.std_dev() / s.mean();
        assert!((cv - 0.5).abs() < 0.01, "cv {cv}");
    }

    #[test]
    fn erlang_high_shape_moments() {
        let d = InterrequestTime::from_mean_cv(10.0, 0.1).unwrap();
        let s = sample_summary(d, 100_000, 44);
        assert!((s.mean() - 10.0).abs() < 0.05);
        let cv = s.std_dev() / s.mean();
        assert!((cv - 0.1).abs() < 0.005, "cv {cv}");
    }

    #[test]
    fn sampling_is_reproducible_with_seed() {
        let d = InterrequestTime::from_mean_cv(1.0, 1.0).unwrap();
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        for _ in 0..100 {
            assert_eq!(d.sample(&mut a), d.sample(&mut b));
        }
    }

    #[test]
    fn display_names_family() {
        assert!(
            format!("{}", InterrequestTime::from_mean_cv(1.0, 0.0).unwrap())
                .starts_with("deterministic")
        );
        assert!(
            format!("{}", InterrequestTime::from_mean_cv(1.0, 0.5).unwrap()).starts_with("erlang")
        );
        assert!(
            format!("{}", InterrequestTime::from_mean_cv(1.0, 1.0).unwrap())
                .starts_with("exponential")
        );
    }
}
