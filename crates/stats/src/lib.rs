//! Simulation output analysis for the `busarb` workspace.
//!
//! Vernon & Manber analyze their simulation outputs with the **method of
//! batch means** (Section 4.1, citing Lavenberg's *Computer Performance
//! Modeling Handbook*): every run uses 10 batches of 8000 sample outputs
//! each, and 90% confidence intervals are reported for every measure. This
//! crate implements that machinery from scratch:
//!
//! * [`Summary`] — numerically stable (Welford) running mean / variance /
//!   extrema.
//! * [`BatchMeans`] — fixed-size batching of a sample stream with Student-t
//!   confidence intervals over the batch means.
//! * [`MeasurementWindow`] — the warm-up discard, the batch budget and
//!   the measured interval that utilization is taken over: the one
//!   measurement rule the simulator and the trace replay share.
//! * [`BatchTally`] — per-batch tallies of per-agent counts, used to put
//!   confidence intervals on **ratios** (e.g. throughput of agent N over
//!   throughput of agent 1 in Table 4.1).
//! * [`Cdf`] — empirical cumulative distribution functions (Figure 4.1) and
//!   quantiles.
//! * [`student_t`] — two-sided Student-t critical values.
//!
//! # Examples
//!
//! ```
//! use busarb_stats::{BatchMeans, BatchMeansConfig};
//!
//! # fn main() -> Result<(), busarb_types::Error> {
//! let mut bm = BatchMeans::new(BatchMeansConfig {
//!     batches: 10,
//!     samples_per_batch: 100,
//!     confidence: 0.90,
//! })?;
//! for i in 0..1000 {
//!     bm.record((i % 7) as f64);
//! }
//! let est = bm.estimate().expect("all batches full");
//! assert!((est.mean - 3.0).abs() < 0.1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch_means;
mod cdf;
pub mod independence;
mod ratio;
pub mod student_t;
mod summary;
mod window;

pub use batch_means::{BatchMeans, BatchMeansConfig, Estimate};
pub use cdf::Cdf;
pub use independence::{batch_independence, IndependenceCheck};
pub use ratio::{BatchTally, RatioEstimate};
pub use summary::Summary;
pub use window::MeasurementWindow;
