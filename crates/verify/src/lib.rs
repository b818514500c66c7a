//! Exhaustive bounded model checking for the arbitration protocol family.
//!
//! For each [`busarb_core::ProtocolKind`] the checker builds
//! a *lockstep group* — the scheduling-level arbiter(s) from `busarb-core`
//! plus the signal-level register model(s) from `busarb_bus::signal` where
//! they exist — and explores every reachable state of the group under
//! every request-arrival pattern up to a configurable depth. Per
//! transition it checks:
//!
//! * **grant safety** — the winner was an actual competitor;
//! * **work conservation** — pending requests always produce a grant;
//! * **abstract/signal equivalence** — every group member grants the same
//!   agent;
//! * **bounded bypass** — a waiting request is overtaken at most `N − 1`
//!   times (round robin, FCFS family) or `2(N − 1)` times (assured
//!   access); fixed priority is exempt (it is allowed to starve);
//! * **FIFO order** — FCFS-2/central FCFS/ticket FCFS serve the earliest
//!   cohort with their respective hardware tie rules;
//! * **FCFS-1 counter semantics** — the waiting-time counter equals the
//!   arbitrations lost since arrival and never wraps at the default width;
//! * **RR-3 recovery** — the empty-arbitration wraparound happens exactly
//!   when no requester is below the winner register.
//!
//! States are deduplicated on normalized fingerprints (see
//! `busarb_types::fingerprint` and the `verify_signature` methods on each
//! protocol type), so the search covers behaviors, not schedules. The
//! first counterexample found is minimal in schedule length thanks to BFS
//! order.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checker;
pub mod export;
pub mod model;
pub mod spec;

pub use checker::{CheckConfig, CheckReport, TraceStep, Violation};
pub use export::{violation_to_value, COUNTEREXAMPLE_SCHEMA};
pub use model::{build_group, ModelGrant, VerifyTarget};
pub use spec::{Fifo, Spec};

use busarb_core::ProtocolKind;
use busarb_types::Error;

/// Checks one protocol kind at system size `n`.
///
/// # Errors
///
/// Propagates model construction errors (e.g. invalid agent counts).
pub fn check_kind(kind: ProtocolKind, n: u32, cfg: &CheckConfig) -> Result<CheckReport, Error> {
    let group = model::build_group(kind, n)?;
    let spec = Spec::for_kind(kind, n);
    Ok(checker::check_group(
        &kind.to_string(),
        n,
        group,
        &spec,
        cfg,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use busarb_types::{AgentId, AgentSet, Time};

    /// A deliberately unfair mutant: claims to be round robin but always
    /// grants the highest requesting identity (fixed-priority behavior).
    /// The checker must refute it with a minimal trace.
    #[derive(Clone)]
    struct MutantRr {
        requesting: AgentSet,
    }

    impl VerifyTarget for MutantRr {
        fn label(&self) -> &'static str {
            "mutant-rr"
        }

        fn inject(&mut self, _now: Time, batch: &[AgentId]) {
            for &a in batch {
                self.requesting.insert(a);
            }
        }

        fn arbitrate(&mut self, _now: Time) -> Option<ModelGrant> {
            let winner = self.requesting.iter().max_by_key(|a| a.get())?;
            self.requesting.remove(winner);
            Some(ModelGrant {
                winner,
                arbitrations: 1,
            })
        }

        fn signature(&self, out: &mut Vec<u64>) {
            busarb_types::fingerprint::push_set(out, self.requesting);
        }

        fn clone_box(&self) -> Box<dyn VerifyTarget> {
            Box::new(self.clone())
        }
    }

    #[test]
    fn injected_fairness_bug_is_caught_with_minimal_trace() {
        let n = 3;
        let spec = Spec {
            bypass_bound: Some(u64::from(n - 1)),
            fifo: Fifo::None,
            fcfs1_counters: false,
            rr3_recovery: false,
        };
        let group: Vec<Box<dyn VerifyTarget>> = vec![Box::new(MutantRr {
            requesting: AgentSet::new(),
        })];
        let report = checker::check_group("mutant-rr", n, group, &spec, &CheckConfig::default());
        let violation = report.violation.expect("the mutant must be refuted");
        assert_eq!(violation.invariant, "bounded bypass");
        // Minimal schedule: everyone requests, then agent 3 re-requests
        // and wins twice more — agent 1 is bypassed 3 > 2 times. That
        // takes exactly 3 steps; BFS must not return a longer trace.
        assert_eq!(violation.trace.len(), 3, "{violation}");
        assert!(violation.trace.iter().all(|s| s.arbitrated));
        // The rendered trace carries the bus-line state.
        assert_eq!(violation.trace[0].request_lines, 0b111);
    }

    #[test]
    fn real_round_robin_passes_where_the_mutant_fails() {
        let cfg = CheckConfig {
            depth: 4,
            ..CheckConfig::default()
        };
        let report =
            check_kind(busarb_core::ProtocolKind::RoundRobin, 3, &cfg).expect("valid system size");
        assert!(report.violation.is_none(), "{:?}", report.violation);
        assert!(!report.truncated);
        assert!(report.states > 1);
        assert!(report.grants > 0);
    }
}
