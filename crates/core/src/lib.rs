//! Scheduling-level implementations of the bus arbitration protocols from
//! Vernon & Manber, *"Distributed Round-Robin and First-Come First-Serve
//! Protocols and Their Application to Multiprocessor Bus Arbitration"*
//! (ISCA 1988) — plus the baselines they are compared against and the
//! hybrid/adaptive extensions sketched in the paper's Section 5.
//!
//! Every protocol implements the [`Arbiter`] trait: requests are injected
//! with [`Arbiter::on_request`] and one bus arbitration is resolved with
//! [`Arbiter::arbitrate`]. The protocols are *deterministic state
//! machines*; all randomness lives in the workload layer. Their decisions
//! are verified against the register-level models in [`busarb_bus::signal`]
//! by the workspace integration tests.
//!
//! # Protocol inventory
//!
//! | Type | Paper section | Scheduling policy |
//! |------|--------------|-------------------|
//! | [`FixedPriority`] | §2.1 | highest static identity wins (unfair baseline) |
//! | [`AssuredAccess`] (idle-batch) | §2.2 | Fastbus / NuBus / Multibus II batching |
//! | [`AssuredAccess`] (fairness-release) | §2.2 | Futurebus inhibit / release batching |
//! | [`DistributedRoundRobin`] | §3.1 | true round-robin via static identities (3 hardware implementations) |
//! | [`DistributedFcfs`] | §3.2 | FCFS via waiting-time counters (2 counter strategies) |
//! | [`CentralRoundRobin`] | §3.1 | reference central RR arbiter |
//! | [`CentralFcfs`] | §3.2 | reference central FCFS arbiter |
//! | [`HybridRrFcfs`] | §5 | FCFS across arrival windows, RR within a window |
//! | [`AdaptiveArbiter`] | §5 | switches RR/FCFS from observed request patterns |
//!
//! # Examples
//!
//! ```
//! use busarb_core::{Arbiter, DistributedRoundRobin};
//! use busarb_types::{AgentId, Priority, Time};
//!
//! # fn main() -> Result<(), busarb_types::Error> {
//! let mut rr = DistributedRoundRobin::new(4)?;
//! for i in 1..=4 {
//!     rr.on_request(Time::ZERO, AgentId::new(i)?, Priority::Ordinary);
//! }
//! let order: Vec<u32> = (0..4)
//!     .map(|_| rr.arbitrate(Time::ZERO).unwrap().agent.get())
//!     .collect();
//! assert_eq!(order, [4, 3, 2, 1]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adaptive;
mod arbiter;
mod arrival;
mod assured_access;
mod central;
mod fcfs;
mod fixed_priority;
mod hybrid;
mod rotating;
mod round_robin;
mod ticket;

pub use adaptive::{AdaptiveArbiter, AdaptiveConfig, AdaptiveMode};
pub use arbiter::{Arbiter, ArbiterVisitor, Grant, ProtocolKind};
pub use assured_access::{AssuredAccess, BatchingRule};
pub use central::{CentralFcfs, CentralRoundRobin};
pub use fcfs::{CounterStrategy, DistributedFcfs, FcfsConfig, PriorityCounterRule};
pub use fixed_priority::FixedPriority;
pub use hybrid::HybridRrFcfs;
pub use rotating::RotatingPriority;
pub use round_robin::{DistributedRoundRobin, RrImplementation};
pub use ticket::TicketFcfs;

// Re-export the counter-overflow policy shared with the signal level.
pub use busarb_bus::signal::CounterPolicy;
