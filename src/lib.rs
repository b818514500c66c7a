//! # busarb
//!
//! A full reproduction of **Vernon & Manber, "Distributed Round-Robin and
//! First-Come First-Serve Protocols and Their Application to
//! Multiprocessor Bus Arbitration" (ISCA 1988)** — the protocol library,
//! the parallel-contention-arbiter substrate it runs on, a discrete-event
//! bus simulator, and the harness that regenerates every table and figure
//! in the paper's evaluation.
//!
//! This crate is a facade: it re-exports the workspace's public API under
//! stable module names.
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`types`] | `busarb-types` | [`Time`], [`AgentId`], [`Priority`], errors |
//! | [`analysis`] | `busarb-analysis` | exact asymptotics + mean value analysis for cross-validating the simulator |
//! | [`bus`] | `busarb-bus` | wired-OR settle dynamics, composite arbitration numbers, signal-level protocol models |
//! | [`protocols`] | `busarb-core` | the RR and FCFS protocols, assured-access baselines, central references, hybrid/adaptive extensions |
//! | [`sim`] | `busarb-sim` | the Section 4.1 bus model and discrete-event engine |
//! | [`stats`] | `busarb-stats` | batch means, CDFs, throughput ratios |
//! | [`workload`] | `busarb-workload` | interrequest-time distributions and scenario builders |
//! | [`experiments`] | `busarb-experiments` | one module per paper table/figure |
//!
//! ## Quickstart
//!
//! Simulate a 10-processor bus under the distributed round-robin protocol
//! and check that it is perfectly fair:
//!
//! ```
//! use busarb::prelude::*;
//!
//! # fn main() -> Result<(), busarb::types::Error> {
//! let scenario = Scenario::equal_load(10, 2.0, 1.0)?;
//! let config = SystemConfig::new(scenario)
//!     .with_batches(BatchMeansConfig::quick(500))
//!     .with_seed(7);
//! let report = Simulation::new(config)?.run_kind(ProtocolKind::RoundRobin)?;
//!
//! let fairness = report.throughput_ratio(10, 1, 0.90).unwrap();
//! assert!((fairness.estimate.mean - 1.0).abs() < 0.1);
//! # Ok(())
//! # }
//! ```
//!
//! See the `examples/` directory for runnable scenarios: `quickstart`,
//! `fairness_audit`, `protocol_shootout`, `signal_trace`,
//! `priority_traffic`, and `pipelined_agents`.
//!
//! [`Time`]: types::Time
//! [`AgentId`]: types::AgentId
//! [`Priority`]: types::Priority

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use busarb_analysis as analysis;
pub use busarb_bus as bus;
pub use busarb_core as protocols;
pub use busarb_experiments as experiments;
pub use busarb_sim as sim;
pub use busarb_stats as stats;
pub use busarb_types as types;
pub use busarb_workload as workload;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use busarb_analysis::BusModel;
    pub use busarb_core::{
        AdaptiveArbiter, Arbiter, AssuredAccess, BatchingRule, CentralFcfs, CentralRoundRobin,
        CounterStrategy, DistributedFcfs, DistributedRoundRobin, FcfsConfig, FixedPriority, Grant,
        HybridRrFcfs, ProtocolKind, RotatingPriority, RrImplementation, TicketFcfs,
    };
    pub use busarb_sim::{ArbitrationStartRule, RunReport, Simulation, SystemConfig};
    pub use busarb_stats::{BatchMeansConfig, Cdf, Estimate, Summary};
    pub use busarb_types::{AgentId, AgentSet, Priority, Request, Time};
    pub use busarb_workload::{InterrequestTime, Scenario};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_line_up() {
        // A couple of spot checks that the re-exported paths resolve to
        // the same types.
        fn takes_time(_: crate::types::Time) {}
        takes_time(busarb_types::Time::ZERO);
        let _kind: crate::prelude::ProtocolKind = busarb_core::ProtocolKind::RoundRobin;
    }
}
