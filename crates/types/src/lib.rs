//! Base vocabulary types shared by every layer of the `busarb` workspace.
//!
//! This crate defines the handful of concepts that the signal-level bus
//! model ([`busarb-bus`]), the protocol library ([`busarb-core`]), the
//! discrete-event simulator ([`busarb-sim`]), and the experiment harness all
//! agree on:
//!
//! * [`Time`] — simulation time, a total-ordered, non-NaN `f64` newtype.
//!   The unit of time throughout the workspace is **one bus transaction
//!   time**, following Section 4.1 of Vernon & Manber (ISCA 1988).
//! * [`AgentId`] — the statically assigned identity of a bus agent.
//!   Identities are 1-based: the parallel contention arbiter reserves the
//!   all-zero arbitration number to mean "no competitor".
//! * [`Priority`] — whether a request is urgent (competes with the priority
//!   bit set) or ordinary (follows the fairness protocol).
//! * [`Error`] — configuration and validation errors for the workspace.
//!
//! # Examples
//!
//! ```
//! use busarb_types::{AgentId, Time};
//!
//! # fn main() -> Result<(), busarb_types::Error> {
//! let a = AgentId::new(3)?;
//! assert_eq!(a.get(), 3);
//!
//! let t = Time::new(1.5)?;
//! assert!(t + Time::ZERO == t);
//! # Ok(())
//! # }
//! ```
//!
//! [`busarb-bus`]: https://example.com/busarb
//! [`busarb-core`]: https://example.com/busarb
//! [`busarb-sim`]: https://example.com/busarb

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod agent;
mod error;
pub mod fingerprint;
mod priority;
mod time;
mod trace;

pub use agent::{AgentId, AgentSet};
pub use error::Error;
pub use priority::Priority;
pub use time::Time;
pub use trace::{CoherenceOp, TraceEvent, TraceKind};

/// Convenient result alias for fallible `busarb` operations.
pub type Result<T, E = Error> = core::result::Result<T, E>;
