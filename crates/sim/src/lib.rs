//! Discrete-event simulation of a multiprocessor bus, following the
//! modeling assumptions of Section 4.1 of Vernon & Manber (ISCA 1988):
//!
//! * Bus transaction times are deterministic and equal to **1 unit**.
//! * Arbitration overhead is **0.5 units**, and arbitration for the next
//!   master is overlapped with the current bus transaction whenever
//!   requests are waiting.
//! * Interrequest times are drawn from a distribution with configurable
//!   mean and coefficient of variation ([`busarb_workload`]).
//! * An agent blocks while waiting for the bus (the multiprocessor's
//!   processors "do not continue executing while waiting for a memory
//!   request") — unless the multiple-outstanding-requests extension is
//!   enabled.
//! * The reported *waiting time* `W` is the **response time** of a
//!   request: from the instant the agent asserts the bus-request line to
//!   the completion of its bus transaction (the definition consistent with
//!   the paper's saturated-load numbers; see DESIGN.md §3).
//!
//! Output analysis uses the method of batch means with the paper's 10 ×
//! 8000-sample configuration by default ([`busarb_stats`]).
//!
//! A [`Simulation`] has two entry points, both running one event loop
//! monomorphized over the arbiter type: [`Simulation::run`] takes any
//! [`Arbiter`](busarb_core::Arbiter) (a concrete protocol, or a
//! `Box<dyn Arbiter>`), and [`Simulation::run_kind`] builds the
//! default-parameter arbiter a [`ProtocolKind`](busarb_core::ProtocolKind)
//! names and runs it as its concrete type.
//!
//! # Examples
//!
//! ```
//! use busarb_core::ProtocolKind;
//! use busarb_sim::{Simulation, SystemConfig};
//! use busarb_stats::BatchMeansConfig;
//! use busarb_workload::Scenario;
//!
//! # fn main() -> Result<(), busarb_types::Error> {
//! let scenario = Scenario::equal_load(10, 1.5, 1.0)?;
//! let config = SystemConfig::new(scenario)
//!     .with_batches(busarb_stats::BatchMeansConfig::quick(200))
//!     .with_seed(42);
//! # let _ = BatchMeansConfig::quick(1);
//! let report = Simulation::new(config)?.run_kind(ProtocolKind::RoundRobin)?;
//! assert!(report.mean_wait.mean > 1.0);
//! assert!(report.utilization > 0.9);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod event;
mod legacy;
mod report;
mod system;
mod trace;

pub use busarb_obs::TraceFormat;
pub use config::{ArbitrationStartRule, OverheadModel, SystemConfig, TraceExportConfig};
pub use event::{CalendarQueue, Event, EventQueue, HeapEventQueue};
pub use report::RunReport;
pub use system::Simulation;
pub use trace::{Trace, TraceEvent, TraceKind};
