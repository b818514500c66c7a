//! Workspace-wide error type.

use core::fmt;

/// Errors produced when validating `busarb` configuration or inputs.
///
/// Every fallible constructor in the workspace returns this type, so
/// downstream code can handle all configuration problems uniformly.
#[derive(Clone, PartialEq, Debug)]
#[non_exhaustive]
pub enum Error {
    /// A [`Time`](crate::Time) was constructed from NaN or an infinity.
    NonFiniteTime {
        /// The offending raw value.
        value: f64,
    },
    /// An [`AgentId`](crate::AgentId) was constructed from zero, which the
    /// parallel contention arbiter reserves for "no competitor".
    ZeroAgentId,
    /// A system was configured with no agents, or with more agents than the
    /// supported maximum.
    InvalidAgentCount {
        /// The requested number of agents.
        requested: u32,
        /// The supported maximum.
        max: u32,
    },
    /// An agent identity exceeded the configured system size.
    AgentOutOfRange {
        /// The offending identity.
        id: u32,
        /// The number of agents in the system.
        agents: u32,
    },
    /// A coefficient of variation outside the supported range was requested.
    InvalidCv {
        /// The requested coefficient of variation.
        cv: f64,
    },
    /// A coefficient of variation so small that its Erlang shape
    /// `round(1/CV²)` exceeds the supported maximum: each draw costs one
    /// uniform per stage, so an unbounded shape makes sampling unbounded.
    CvTooSmall {
        /// The requested coefficient of variation.
        cv: f64,
        /// The largest supported Erlang shape.
        max_shape: u32,
    },
    /// A non-positive or non-finite mean was given for a distribution.
    InvalidMean {
        /// The requested mean.
        mean: f64,
    },
    /// A non-positive or non-finite offered load was requested.
    InvalidLoad {
        /// The requested offered load.
        load: f64,
    },
    /// A counter width of zero bits was requested for the FCFS protocol.
    ZeroCounterWidth,
    /// The maximum number of outstanding requests per agent must be at
    /// least one.
    ZeroOutstandingLimit,
    /// An arbitration-number layout needs more bus lines than the
    /// composite number's machine word holds.
    LayoutTooWide {
        /// Lines the layout needs.
        width: u32,
        /// The supported maximum.
        max: u32,
    },
    /// Batch-means analysis was configured with too few batches or samples.
    InvalidBatchConfig {
        /// Requested number of batches.
        batches: usize,
        /// Requested samples per batch.
        samples_per_batch: usize,
    },
    /// An experiment or scenario was given inconsistent parameters.
    InvalidScenario {
        /// Human-readable description of the inconsistency.
        reason: String,
    },
    /// A bus control event arrived in a phase where the protocol does not
    /// allow it (e.g. a handover while no arbitration has settled).
    PhaseViolation {
        /// The phase the controller was in.
        phase: &'static str,
        /// The event that was attempted.
        event: &'static str,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::NonFiniteTime { value } => {
                write!(f, "time value must be finite, got {value}")
            }
            Error::ZeroAgentId => {
                f.write_str("agent identity 0 is reserved by the parallel contention arbiter")
            }
            Error::InvalidAgentCount { requested, max } => {
                write!(f, "agent count {requested} outside supported range 1..={max}")
            }
            Error::AgentOutOfRange { id, agents } => {
                write!(f, "agent identity {id} exceeds system size {agents}")
            }
            Error::InvalidCv { cv } => {
                write!(f, "coefficient of variation {cv} outside supported range [0, 1]")
            }
            Error::CvTooSmall { cv, max_shape } => write!(
                f,
                "coefficient of variation {cv} needs an Erlang shape above the supported \
                 maximum {max_shape} (use 0 for deterministic times)"
            ),
            Error::InvalidMean { mean } => {
                write!(f, "distribution mean {mean} must be positive and finite")
            }
            Error::InvalidLoad { load } => {
                write!(f, "offered load {load} must be positive and finite")
            }
            Error::ZeroCounterWidth => {
                f.write_str("FCFS waiting-time counter needs at least one bit")
            }
            Error::ZeroOutstandingLimit => {
                f.write_str("maximum outstanding requests per agent must be at least one")
            }
            Error::LayoutTooWide { width, max } => {
                write!(f, "arbitration number needs {width} lines, more than the supported {max}")
            }
            Error::InvalidBatchConfig {
                batches,
                samples_per_batch,
            } => write!(
                f,
                "batch means needs >= 2 batches and >= 1 sample per batch, got {batches} x {samples_per_batch}"
            ),
            Error::InvalidScenario { reason } => {
                write!(f, "invalid scenario: {reason}")
            }
            Error::PhaseViolation { phase, event } => {
                write!(f, "bus control event '{event}' is illegal in phase '{phase}'")
            }
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_nonempty() {
        let errors = [
            Error::NonFiniteTime { value: f64::NAN },
            Error::ZeroAgentId,
            Error::InvalidAgentCount {
                requested: 0,
                max: 128,
            },
            Error::AgentOutOfRange { id: 11, agents: 10 },
            Error::InvalidCv { cv: 2.0 },
            Error::CvTooSmall {
                cv: 1e-9,
                max_shape: 10_000,
            },
            Error::InvalidMean { mean: -1.0 },
            Error::InvalidLoad { load: 0.0 },
            Error::ZeroCounterWidth,
            Error::ZeroOutstandingLimit,
            Error::LayoutTooWide { width: 65, max: 64 },
            Error::InvalidBatchConfig {
                batches: 1,
                samples_per_batch: 0,
            },
            Error::InvalidScenario {
                reason: "x".to_string(),
            },
            Error::PhaseViolation {
                phase: "idle",
                event: "handover",
            },
        ];
        for e in errors {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(msg.chars().next().unwrap().is_lowercase() || msg.starts_with("FCFS"));
            assert!(!msg.ends_with('.'));
        }
    }

    #[test]
    fn error_is_std_error_send_sync() {
        fn assert_traits<T: std::error::Error + Send + Sync + 'static>() {}
        assert_traits::<Error>();
    }
}
