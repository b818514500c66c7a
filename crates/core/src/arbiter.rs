//! The arbitration protocol interface.

use core::fmt;

use busarb_bus::NumberLayout;
use busarb_types::{AgentId, AgentSet, Error, Priority, Time};

/// The outcome of one bus arbitration: who gets the bus next.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Grant {
    /// The agent granted bus mastership.
    pub agent: AgentId,
    /// The service class of the granted request.
    pub priority: Priority,
    /// Number of line arbitrations consumed producing this grant (2 when
    /// the RR-3 implementation wraps around via an empty arbitration, or
    /// when a Futurebus fairness-release cycle preceded the productive
    /// arbitration).
    pub arbitrations: u32,
}

impl Grant {
    pub(crate) fn ordinary(agent: AgentId) -> Self {
        Grant {
            agent,
            priority: Priority::Ordinary,
            arbitrations: 1,
        }
    }
}

impl fmt::Display for Grant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "grant(agent={}, {}, {} arbitration(s))",
            self.agent, self.priority, self.arbitrations
        )
    }
}

/// A bus arbitration protocol, modeled at the scheduling level.
///
/// The contract mirrors what the hardware sees:
///
/// * [`Arbiter::on_request`] — the agent asserts the shared bus-request
///   line at `now`. Calls must be non-decreasing in time. An agent may have
///   several outstanding requests only if the protocol supports it
///   (the FCFS extension); others panic.
/// * [`Arbiter::arbitrate`] — resolve one arbitration among the currently
///   eligible competitors. Requests injected *after* the previous
///   `arbitrate` call are visible (the simulator snapshots competitor sets
///   by calling `arbitrate` at the arbitration's start time).
///
/// Implementations are deterministic; identical call sequences produce
/// identical grant sequences.
pub trait Arbiter {
    /// Protocol name for reports, e.g. `"rr"` or `"fcfs-1"`.
    fn name(&self) -> &'static str;

    /// Number of agents on the bus.
    fn agents(&self) -> u32;

    /// The arbitration-number layout used on the bus lines, if the
    /// protocol is a distributed one with a defined line cost.
    fn layout(&self) -> Option<NumberLayout> {
        None
    }

    /// An agent asserts the bus-request line.
    ///
    /// # Panics
    ///
    /// Panics if `agent` exceeds the system size, or if the agent already
    /// has the maximum number of outstanding requests the protocol
    /// supports.
    fn on_request(&mut self, now: Time, agent: AgentId, priority: Priority);

    /// Resolves one arbitration at `now`, returning the granted agent, or
    /// `None` if no requests are pending.
    fn arbitrate(&mut self, now: Time) -> Option<Grant>;

    /// Number of requests currently pending (asserting the request line or
    /// deferred by the protocol's batching rules).
    fn pending(&self) -> usize;
}

/// Boxed arbiters delegate to their contents, so `Box<dyn Arbiter>` can be
/// handed to code that is generic over `A: Arbiter` (the simulator's
/// monomorphized runner) without a separate dynamic entry point.
impl<A: Arbiter + ?Sized> Arbiter for Box<A> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn agents(&self) -> u32 {
        (**self).agents()
    }

    fn layout(&self) -> Option<NumberLayout> {
        (**self).layout()
    }

    fn on_request(&mut self, now: Time, agent: AgentId, priority: Priority) {
        (**self).on_request(now, agent, priority);
    }

    fn arbitrate(&mut self, now: Time) -> Option<Grant> {
        (**self).arbitrate(now)
    }

    fn pending(&self) -> usize {
        (**self).pending()
    }
}

/// A computation generic over the concrete arbiter type, run by
/// [`ProtocolKind::visit`] on the arbiter a kind names. This is how code
/// holding a runtime [`ProtocolKind`] gets a statically dispatched
/// arbiter (the simulator monomorphizes its whole event loop this way).
pub trait ArbiterVisitor {
    /// What the visit produces.
    type Output;

    /// Consumes the freshly built arbiter.
    fn visit<A: Arbiter + 'static>(self, arbiter: A) -> Self::Output;
}

/// Enumeration of every protocol in the library, for building arbiters
/// from experiment configuration.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[non_exhaustive]
pub enum ProtocolKind {
    /// Fixed priority by static identity (§2.1).
    FixedPriority,
    /// Assured access, idle-batch rule (Fastbus/NuBus/Multibus II, §2.2).
    AssuredAccessIdleBatch,
    /// Assured access, fairness-release rule (Futurebus, §2.2).
    AssuredAccessFairnessRelease,
    /// Assured access, modified fairness-release rule (closed batches).
    AssuredAccessClosedBatch,
    /// Distributed round-robin (§3.1), RR-1 implementation.
    RoundRobin,
    /// Distributed FCFS (§3.2), counter-per-lost-arbitration strategy.
    Fcfs1,
    /// Distributed FCFS (§3.2), a-incr counter strategy.
    Fcfs2,
    /// Central round-robin reference arbiter.
    CentralRoundRobin,
    /// Central FCFS reference arbiter.
    CentralFcfs,
    /// Hybrid RR-within-window / FCFS-across-windows (§5).
    Hybrid,
    /// Adaptive RR/FCFS switcher (§5).
    Adaptive,
    /// Rotating-priority round robin (the prior art of §2.2).
    RotatingRr,
    /// Ticket-based FCFS \[ShAh81\] (the prior FCFS proposal).
    TicketFcfs,
}

impl ProtocolKind {
    /// Builds the default-parameter arbiter of this kind for `n` agents
    /// and hands it, as its concrete type, to `visitor`.
    ///
    /// This is the workspace's one kind-to-constructor table: the boxed
    /// [`ProtocolKind::build`] and the simulator's monomorphized
    /// `run_kind` are both visitors over it.
    ///
    /// # Errors
    ///
    /// Propagates construction errors (e.g. invalid agent counts).
    pub fn visit<V: ArbiterVisitor>(self, n: u32, visitor: V) -> Result<V::Output, Error> {
        use crate::{
            AdaptiveArbiter, AssuredAccess, BatchingRule, CentralFcfs, CentralRoundRobin,
            CounterStrategy, DistributedFcfs, DistributedRoundRobin, FixedPriority, HybridRrFcfs,
            RotatingPriority, TicketFcfs,
        };
        Ok(match self {
            ProtocolKind::FixedPriority => visitor.visit(FixedPriority::new(n)?),
            ProtocolKind::AssuredAccessIdleBatch => {
                visitor.visit(AssuredAccess::new(n, BatchingRule::IdleBatch)?)
            }
            ProtocolKind::AssuredAccessFairnessRelease => {
                visitor.visit(AssuredAccess::new(n, BatchingRule::FairnessRelease)?)
            }
            ProtocolKind::AssuredAccessClosedBatch => {
                visitor.visit(AssuredAccess::new(n, BatchingRule::ClosedBatch)?)
            }
            ProtocolKind::RoundRobin => visitor.visit(DistributedRoundRobin::new(n)?),
            ProtocolKind::Fcfs1 => visitor.visit(DistributedFcfs::new(
                n,
                CounterStrategy::PerLostArbitration,
            )?),
            ProtocolKind::Fcfs2 => {
                visitor.visit(DistributedFcfs::new(n, CounterStrategy::PerArrival)?)
            }
            ProtocolKind::CentralRoundRobin => visitor.visit(CentralRoundRobin::new(n)?),
            ProtocolKind::CentralFcfs => visitor.visit(CentralFcfs::new(n)?),
            ProtocolKind::Hybrid => visitor.visit(HybridRrFcfs::new(n)?),
            ProtocolKind::Adaptive => visitor.visit(AdaptiveArbiter::new(n)?),
            ProtocolKind::RotatingRr => visitor.visit(RotatingPriority::new(n)?),
            ProtocolKind::TicketFcfs => visitor.visit(TicketFcfs::new(n)?),
        })
    }

    /// Builds a boxed arbiter of this kind for `n` agents with default
    /// parameters.
    ///
    /// # Errors
    ///
    /// Propagates construction errors (e.g. invalid agent counts).
    pub fn build(self, n: u32) -> Result<Box<dyn Arbiter>, Error> {
        struct Boxed;
        impl ArbiterVisitor for Boxed {
            type Output = Box<dyn Arbiter>;
            fn visit<A: Arbiter + 'static>(self, arbiter: A) -> Box<dyn Arbiter> {
                Box::new(arbiter)
            }
        }
        self.visit(n, Boxed)
    }

    /// The protocol's CLI and file-name slug (`"rr"`, `"fcfs-1"`, …): the
    /// one name table behind [`Display`](fmt::Display) and
    /// [`FromStr`](core::str::FromStr).
    #[must_use]
    pub const fn slug(self) -> &'static str {
        match self {
            ProtocolKind::FixedPriority => "fixed-priority",
            ProtocolKind::AssuredAccessIdleBatch => "aap-1",
            ProtocolKind::AssuredAccessFairnessRelease => "aap-2",
            ProtocolKind::AssuredAccessClosedBatch => "aap-2m",
            ProtocolKind::RoundRobin => "rr",
            ProtocolKind::Fcfs1 => "fcfs-1",
            ProtocolKind::Fcfs2 => "fcfs-2",
            ProtocolKind::CentralRoundRobin => "central-rr",
            ProtocolKind::CentralFcfs => "central-fcfs",
            ProtocolKind::Hybrid => "hybrid",
            ProtocolKind::Adaptive => "adaptive",
            ProtocolKind::RotatingRr => "rotating-rr",
            ProtocolKind::TicketFcfs => "ticket-fcfs",
        }
    }

    /// Whether the arbiter [`ProtocolKind::build`] and
    /// [`ProtocolKind::visit`] make for this kind admits more than one
    /// outstanding request per agent. Only the central FCFS queue does;
    /// the replicated protocols are built for one request per agent
    /// ([`DistributedFcfs`](crate::DistributedFcfs) admits more only when
    /// configured for it, which the default build is not).
    #[must_use]
    pub const fn admits_several_outstanding(self) -> bool {
        matches!(self, ProtocolKind::CentralFcfs)
    }

    /// All kinds, for exhaustive comparisons.
    #[must_use]
    pub fn all() -> &'static [ProtocolKind] {
        &[
            ProtocolKind::FixedPriority,
            ProtocolKind::AssuredAccessIdleBatch,
            ProtocolKind::AssuredAccessFairnessRelease,
            ProtocolKind::AssuredAccessClosedBatch,
            ProtocolKind::RoundRobin,
            ProtocolKind::Fcfs1,
            ProtocolKind::Fcfs2,
            ProtocolKind::CentralRoundRobin,
            ProtocolKind::CentralFcfs,
            ProtocolKind::Hybrid,
            ProtocolKind::Adaptive,
            ProtocolKind::RotatingRr,
            ProtocolKind::TicketFcfs,
        ]
    }

    /// The protocols whose mean waiting times must agree by the
    /// conservation law for work-conserving, non-preemptive disciplines
    /// (paper footnote 4, citing Kleinrock). Every protocol in the library
    /// is work conserving — an arbitration always produces a grant while
    /// requests are pending — so this is the full set; it exists as a
    /// named concept for the conservation-law integration test.
    #[must_use]
    pub fn work_conserving() -> &'static [ProtocolKind] {
        Self::all()
    }
}

impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.slug())
    }
}

impl core::str::FromStr for ProtocolKind {
    type Err = String;

    /// Parses a slug as printed by [`ProtocolKind::slug`]; the error
    /// lists the valid slugs.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let all = ProtocolKind::all();
        all.iter()
            .copied()
            .find(|kind| kind.slug() == s)
            .ok_or_else(|| {
                let slugs: Vec<&str> = all.iter().map(|kind| kind.slug()).collect();
                format!("unknown protocol '{s}' ({})", slugs.join("|"))
            })
    }
}

/// Shared validation for protocol constructors.
pub(crate) fn validate_agents(n: u32) -> Result<(), Error> {
    if n == 0 || n > 128 {
        Err(Error::InvalidAgentCount {
            requested: n,
            max: 128,
        })
    } else {
        Ok(())
    }
}

/// Shared request-injection sanity checks.
pub(crate) fn check_agent(agent: AgentId, n: u32) {
    assert!(agent.get() <= n, "agent {agent} exceeds system size {n}");
}

/// The round-robin scan over `set` from winner register `register`: the
/// highest identity strictly below it, wrapping to the highest identity
/// when none is. A register above every identity (the initial `N + 1`)
/// starts the scan at the top. `None` only for an empty `set`.
#[inline]
pub(crate) fn rr_pick(set: AgentSet, register: u32) -> Option<AgentId> {
    // A zero register cannot occur; `.ok()` folds it into the wraparound
    // branch instead of a hot-path panic.
    let below = if register > AgentSet::MAX_ID {
        None
    } else {
        AgentId::new(register)
            .ok()
            .and_then(|bound| set.max_below(bound))
    };
    below.or_else(|| set.max())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_every_kind() {
        for &kind in ProtocolKind::all() {
            let arb = kind.build(10).unwrap();
            assert_eq!(arb.agents(), 10);
            assert_eq!(arb.pending(), 0);
            assert!(!arb.name().is_empty());
            assert!(!kind.to_string().is_empty());
        }
    }

    #[test]
    fn build_rejects_bad_sizes() {
        for &kind in ProtocolKind::all() {
            assert!(kind.build(0).is_err(), "{kind}");
            assert!(kind.build(200).is_err(), "{kind}");
        }
    }

    #[test]
    fn slugs_round_trip_through_from_str() {
        for &kind in ProtocolKind::all() {
            assert_eq!(kind.to_string(), kind.slug());
            assert_eq!(kind.slug().parse::<ProtocolKind>(), Ok(kind));
        }
    }

    #[test]
    fn unknown_slug_error_lists_the_valid_slugs() {
        let message = "round-robin".parse::<ProtocolKind>().unwrap_err();
        assert!(message.contains("'round-robin'"), "{message}");
        for &kind in ProtocolKind::all() {
            assert!(message.contains(kind.slug()), "{message} lacks {kind}");
        }
        assert!("".parse::<ProtocolKind>().is_err());
        assert!("RR".parse::<ProtocolKind>().is_err());
    }

    #[test]
    fn every_protocol_is_work_conserving() {
        let wc = ProtocolKind::work_conserving();
        assert_eq!(wc, ProtocolKind::all());
        assert!(wc.contains(&ProtocolKind::RoundRobin));
        assert!(wc.contains(&ProtocolKind::Fcfs1));
        assert!(wc.contains(&ProtocolKind::Fcfs2));
    }

    #[test]
    fn grant_display() {
        let g = Grant::ordinary(AgentId::new(3).unwrap());
        assert!(g.to_string().contains("agent=3"));
        assert_eq!(g.arbitrations, 1);
    }
}
