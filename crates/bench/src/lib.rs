//! Shared helpers for the `busarb` criterion benches.
//!
//! The benches in `benches/` time what no workload of the repository
//! benchmark (`benchmark/`, `BENCHMARK.json`) reaches; the benchmark
//! times the event loop, the draw engines, the trace pipeline and
//! `repro all` end to end and layer by layer.
//!
//! * `protocols` — arbitration-decision throughput of every protocol on
//!   a saturated bus, up to 128 agents (two-word agent planes).
//! * `contention` — wired-OR settle dynamics and the signal-level
//!   protocol systems.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use busarb_core::{Arbiter, ProtocolKind};
use busarb_types::{AgentId, Priority, Time};

/// Builds an arbiter of `kind` with all `n` agents already requesting.
///
/// # Panics
///
/// Panics if `n` is not a valid system size.
#[must_use]
pub fn saturated_arbiter(kind: ProtocolKind, n: u32) -> Box<dyn Arbiter> {
    let mut arbiter = kind.build(n).expect("valid size");
    for agent in AgentId::all(n) {
        arbiter.on_request(Time::ZERO, agent, Priority::Ordinary);
    }
    arbiter
}

/// Performs `grants` arbitration decisions on a saturated system,
/// re-requesting after every grant; returns a checksum of winners so the
/// optimizer cannot discard the work.
pub fn drive_saturated(arbiter: &mut dyn Arbiter, grants: usize) -> u64 {
    let mut checksum = 0u64;
    for i in 0..grants {
        let now = Time::from(i as f64);
        let grant = arbiter.arbitrate(now).expect("saturated system");
        checksum = checksum
            .wrapping_mul(31)
            .wrapping_add(u64::from(grant.agent.get()));
        arbiter.on_request(now, grant.agent, Priority::Ordinary);
    }
    checksum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drive_saturated_is_deterministic() {
        let mut a = saturated_arbiter(ProtocolKind::RoundRobin, 8);
        let mut b = saturated_arbiter(ProtocolKind::RoundRobin, 8);
        assert_eq!(
            drive_saturated(a.as_mut(), 100),
            drive_saturated(b.as_mut(), 100)
        );
    }
}
