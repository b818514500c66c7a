//! Workload generation for bus arbitration studies.
//!
//! Section 4.1 of Vernon & Manber (ISCA 1988) fixes the workload model used
//! throughout the paper's evaluation:
//!
//! * Bus transaction times are **deterministic** and define the unit of
//!   time.
//! * Interrequest times (the time an agent computes between completing one
//!   bus transaction and issuing its next request) are random with a
//!   specified mean and coefficient of variation (CV). CV = 0 is
//!   deterministic, CV = 1 is exponential, and intermediate values use the
//!   **Erlang** distribution.
//! * The *offered load* of an agent is `S / (S + mean interrequest)` with
//!   `S = 1` (the bus transaction time): the fraction of time the agent
//!   would keep the bus busy absent interference. The *total offered load*
//!   is the sum over agents.
//!
//! This crate provides:
//!
//! * [`InterrequestTime`] — the three-family distribution with exact
//!   mean/CV bookkeeping and seeded sampling via [`rand`].
//! * [`Scenario`] — per-agent workload assignments with builders for every
//!   experiment in the paper (equal loads, one agent at a rate multiple,
//!   and the Table 4.5 "just miss" worst case for round-robin).
//! * [`load`] — conversions between offered load and mean interrequest
//!   time.
//! * [`DrawEngine`] — the pluggable source of workload randomness: the
//!   byte-stable [`ReferenceEngine`] (ChaCha12 + exact `ln`) and the
//!   statistically equivalent [`FastEngine`] (per-agent Philox4x32-10
//!   counter streams with batched inverse-CDF sampling).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod distribution;
mod engine;
pub mod load;
mod scenario;
pub mod trace;

pub use busarb_mem::CoherenceConfig;
pub use distribution::{InterrequestTime, MAX_ERLANG_SHAPE};
pub use engine::{DrawEngine, DrawEngineKind, FastEngine, ReferenceEngine, BATCH};
pub use scenario::{AgentWorkload, Scenario};
pub use trace::BurstyTrace;
