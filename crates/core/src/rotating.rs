//! The *rotating-priority* round-robin scheme — the prior art the
//! paper's RR protocol replaces.
//!
//! Section 2.2: "Round-robin scheduling, implemented using a dynamic
//! assignment of arbitration numbers, has been proposed. However, this
//! scheme is less robust and more complex to implement than schemes that
//! are based on static identities."
//!
//! In the rotating scheme every agent holds a *dynamic* arbitration
//! number register; after each arbitration every agent renumbers itself
//! relative to the winner (the winner takes the lowest priority, agents
//! "after" it in cyclic order take higher numbers). The schedule is the
//! same true round-robin as [`DistributedRoundRobin`], which the
//! equivalence tests verify — but the hardware cost is different, and
//! this model exposes it:
//!
//! * every agent rewrites a k-bit register after **every** arbitration
//!   ([`RotatingPriority::renumber_events`] counts the total register
//!   writes), versus one latch of the winner identity in the static
//!   scheme. The count is the modelled hardware's activity, not work
//!   the simulator does: every healthy register holds a closed form of
//!   the last winner (`w - 1` highest, descending cyclically to `w`
//!   lowest), so the model stores only that winner, renumbers with one
//!   store, and selects with the static scheme's `max_below`/`max` mask
//!   scan;
//! * a stuck renumbering circuit permanently corrupts the priority
//!   ordering (the robustness argument) — modeled by
//!   [`RotatingPriority::inject_stuck_register`], which the
//!   fault-injection tests use to show the divergence that the
//!   static-identity protocol cannot suffer (its only dynamic state is
//!   the broadcast winner identity, re-learned at every arbitration). A
//!   stuck register keeps the value it held when the fault was injected;
//!   selection falls back to comparing every competitor's dynamic number
//!   while a stuck agent competes.
//!
//! [`DistributedRoundRobin`]: crate::DistributedRoundRobin

use busarb_bus::NumberLayout;
use busarb_types::{AgentId, AgentSet, Error, Priority, Time};

use crate::arbiter::{check_agent, rr_pick, validate_agents, Arbiter, Grant};

/// Round-robin arbitration via dynamically rotated arbitration numbers.
///
/// # Examples
///
/// ```
/// use busarb_core::{Arbiter, RotatingPriority};
/// use busarb_types::{AgentId, Priority, Time};
///
/// # fn main() -> Result<(), busarb_types::Error> {
/// let mut rp = RotatingPriority::new(4)?;
/// for i in 1..=4 {
///     rp.on_request(Time::ZERO, AgentId::new(i)?, Priority::Ordinary);
/// }
/// let order: Vec<u32> = (0..4)
///     .map(|_| rp.arbitrate(Time::ZERO).unwrap().agent.get())
///     .collect();
/// assert_eq!(order, [4, 3, 2, 1]); // true round-robin
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct RotatingPriority {
    n: u32,
    layout: NumberLayout,
    /// Identity of the last winner (`n + 1` before the first grant, which
    /// gives agent `i` dynamic number `i`). Every register outside
    /// `stuck` holds [`RotatingPriority::rotated`] of it.
    last_winner: u32,
    /// The value each stuck register froze at (indexed by
    /// `AgentId::index`; read only for members of `stuck`).
    frozen: Box<[u32]>,
    ordinary: AgentSet,
    urgent: AgentSet,
    renumber_events: u64,
    stuck: AgentSet,
}

impl RotatingPriority {
    /// Creates a rotating-priority arbiter; agent `i` initially holds
    /// dynamic number `i`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidAgentCount`] if `n` is 0 or exceeds 128.
    pub fn new(n: u32) -> Result<Self, Error> {
        validate_agents(n)?;
        Ok(RotatingPriority {
            n,
            layout: NumberLayout::for_agents(n)?.with_priority_bit(),
            last_winner: n + 1,
            frozen: vec![0; n as usize].into_boxed_slice(),
            ordinary: AgentSet::new(),
            urgent: AgentSet::new(),
            renumber_events: 0,
            stuck: AgentSet::new(),
        })
    }

    /// Total per-agent register writes performed so far — the hardware
    /// activity the static-identity protocol avoids.
    #[must_use]
    pub fn renumber_events(&self) -> u64 {
        self.renumber_events
    }

    /// Current dynamic number of an agent.
    ///
    /// # Panics
    ///
    /// Panics if `agent` exceeds the system size.
    #[must_use]
    pub fn dynamic_number(&self, agent: AgentId) -> u32 {
        // Indexed unconditionally: an identity beyond the system panics
        // here rather than underflowing in `rotated`.
        let frozen = self.frozen[agent.index()];
        if self.stuck.contains(agent) {
            frozen
        } else {
            self.rotated(agent)
        }
    }

    /// A healthy register's value after the last winner `w` renumbered
    /// the bus: `w - 1` gets N, `w - 2` gets N - 1, …, wrapping to `w`
    /// itself with 1 — the next scan prefers `w - 1`, then `w - 2`, …
    #[inline]
    fn rotated(&self, agent: AgentId) -> u32 {
        // `last_winner` is in 1..=n+1 and `agent` in 1..=n, so the
        // difference cannot underflow.
        self.n - (self.last_winner + self.n - 1 - agent.get()) % self.n
    }

    /// Fault injection: `agent`'s renumbering circuit sticks, so its
    /// dynamic-number register stops updating. This is the failure mode
    /// the paper's robustness argument is about; the dynamic numbers
    /// collide and the round-robin order silently breaks, with no
    /// mechanism to resynchronize.
    pub fn inject_stuck_register(&mut self, agent: AgentId) {
        check_agent(agent, self.n);
        let value = self.dynamic_number(agent);
        if self.stuck.insert(agent) {
            self.frozen[agent.index()] = value;
        }
    }

    /// Whether any injected fault has fired.
    #[must_use]
    pub fn is_corrupted(&self) -> bool {
        // After a fault fires, numbers may collide.
        let mut seen = 0u128;
        for d in AgentId::all(self.n).map(|a| self.dynamic_number(a)) {
            let bit = 1u128 << (d % 128);
            if seen & bit != 0 {
                return true;
            }
            seen |= bit;
        }
        false
    }

    /// Appends a normalized fingerprint of the arbitration-relevant state
    /// (request sets, dynamic number registers, stuck-fault set) to `out`.
    /// The renumber-event statistic is excluded.
    #[doc(hidden)]
    pub fn verify_signature(&self, out: &mut Vec<u64>) {
        busarb_types::fingerprint::push_set(out, self.ordinary);
        busarb_types::fingerprint::push_set(out, self.urgent);
        busarb_types::fingerprint::push_set(out, self.stuck);
        out.extend(AgentId::all(self.n).map(|a| u64::from(self.dynamic_number(a))));
    }

    /// Rotates every healthy agent's dynamic number after `winner` wins:
    /// the winner takes number 1 (lowest), and each agent's new number is
    /// its cyclic distance from the winner. The n - |stuck| register
    /// writes are counted; the model itself stores only the winner.
    fn renumber(&mut self, winner: AgentId) {
        self.last_winner = winner.get();
        self.renumber_events += u64::from(self.n) - self.stuck.len() as u64;
    }

    /// The competitor in `set` with the highest dynamic number. Healthy
    /// registers are distinct closed forms of the last winner, so their
    /// maximum is the round-robin pick; a competing stuck register needs
    /// the full compare (ties to the highest identity).
    fn select(&self, set: AgentSet) -> Option<AgentId> {
        if self.stuck.intersection(set).is_empty() {
            rr_pick(set, self.last_winner)
        } else {
            set.iter().max_by_key(|&a| self.dynamic_number(a))
        }
    }
}

impl Arbiter for RotatingPriority {
    fn name(&self) -> &'static str {
        "rotating-rr"
    }

    fn agents(&self) -> u32 {
        self.n
    }

    fn layout(&self) -> Option<NumberLayout> {
        Some(self.layout)
    }

    fn on_request(&mut self, _now: Time, agent: AgentId, priority: Priority) {
        check_agent(agent, self.n);
        let set = match priority {
            Priority::Urgent => &mut self.urgent,
            Priority::Ordinary => &mut self.ordinary,
        };
        assert!(
            set.insert(agent),
            "agent {agent} already has an outstanding request"
        );
    }

    fn arbitrate(&mut self, _now: Time) -> Option<Grant> {
        if let Some(winner) = self.urgent.max() {
            self.urgent.remove(winner);
            self.renumber(winner);
            return Some(Grant {
                agent: winner,
                priority: Priority::Urgent,
                arbitrations: 1,
            });
        }
        let winner = self.select(self.ordinary)?;
        self.ordinary.remove(winner);
        self.renumber(winner);
        Some(Grant::ordinary(winner))
    }

    fn pending(&self) -> usize {
        self.ordinary.len() + self.urgent.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DistributedRoundRobin;

    fn id(n: u32) -> AgentId {
        AgentId::new(n).unwrap()
    }

    fn req(a: &mut RotatingPriority, agent: u32) {
        a.on_request(Time::ZERO, id(agent), Priority::Ordinary);
    }

    fn grant(a: &mut RotatingPriority) -> u32 {
        a.arbitrate(Time::ZERO).unwrap().agent.get()
    }

    #[test]
    fn saturated_cycle_matches_round_robin() {
        let mut a = RotatingPriority::new(5).unwrap();
        for agent in 1..=5 {
            req(&mut a, agent);
        }
        let mut order = Vec::new();
        for _ in 0..10 {
            let w = grant(&mut a);
            order.push(w);
            req(&mut a, w);
        }
        assert_eq!(order, [5, 4, 3, 2, 1, 5, 4, 3, 2, 1]);
    }

    #[test]
    fn matches_static_identity_rr_on_irregular_schedules() {
        let mut rotating = RotatingPriority::new(7).unwrap();
        let mut static_rr = DistributedRoundRobin::new(7).unwrap();
        let schedule: &[&[u32]] = &[
            &[2, 6],
            &[],
            &[1, 7, 4],
            &[3],
            &[],
            &[5],
            &[2],
            &[6, 7],
            &[],
            &[],
            &[1],
        ];
        for batch in schedule {
            for &agent in *batch {
                rotating.on_request(Time::ZERO, id(agent), Priority::Ordinary);
                static_rr.on_request(Time::ZERO, id(agent), Priority::Ordinary);
            }
            assert_eq!(
                rotating.arbitrate(Time::ZERO).map(|g| g.agent),
                static_rr.arbitrate(Time::ZERO).map(|g| g.agent)
            );
        }
        loop {
            let a = rotating.arbitrate(Time::ZERO).map(|g| g.agent);
            let b = static_rr.arbitrate(Time::ZERO).map(|g| g.agent);
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn renumbering_cost_is_n_registers_per_arbitration() {
        let mut a = RotatingPriority::new(8).unwrap();
        req(&mut a, 3);
        req(&mut a, 5);
        assert_eq!(a.renumber_events(), 0);
        grant(&mut a);
        assert_eq!(a.renumber_events(), 8);
        grant(&mut a);
        assert_eq!(a.renumber_events(), 16);
    }

    #[test]
    fn dynamic_numbers_rotate() {
        let mut a = RotatingPriority::new(4).unwrap();
        req(&mut a, 2);
        assert_eq!(grant(&mut a), 2);
        // Winner 2 gets the lowest number; 1 (just below it in the scan)
        // gets the highest, then the scan wraps: 4, then 3.
        assert_eq!(a.dynamic_number(id(2)), 1);
        assert_eq!(a.dynamic_number(id(1)), 4);
        assert_eq!(a.dynamic_number(id(4)), 3);
        assert_eq!(a.dynamic_number(id(3)), 2);
    }

    #[test]
    fn stuck_register_corrupts_the_ordering() {
        let mut a = RotatingPriority::new(4).unwrap();
        for agent in 1..=4 {
            req(&mut a, agent);
        }
        assert!(!a.is_corrupted());
        a.inject_stuck_register(id(1));
        grant(&mut a); // agent 1 misses this renumbering
        assert!(
            a.is_corrupted(),
            "stale register should collide with a rotated one"
        );
        // The static-identity protocol has no such failure mode: its only
        // dynamic state is the broadcast winner identity.
    }

    #[test]
    fn fault_divergence_from_static_rr() {
        let mut rotating = RotatingPriority::new(4).unwrap();
        let mut static_rr = DistributedRoundRobin::new(4).unwrap();
        for agent in 1..=4 {
            rotating.on_request(Time::ZERO, id(agent), Priority::Ordinary);
            static_rr.on_request(Time::ZERO, id(agent), Priority::Ordinary);
        }
        // Stick the top agent's register while it holds the highest
        // number: it keeps winning out of turn.
        rotating.inject_stuck_register(id(4));
        let mut diverged = false;
        for _ in 0..8 {
            let a = rotating.arbitrate(Time::ZERO).map(|g| g.agent);
            let b = static_rr.arbitrate(Time::ZERO).map(|g| g.agent);
            if a != b {
                diverged = true;
                break;
            }
            if let Some(w) = a {
                rotating.on_request(Time::ZERO, w, Priority::Ordinary);
                static_rr.on_request(Time::ZERO, w, Priority::Ordinary);
            }
        }
        assert!(diverged, "a missed renumbering should break the schedule");
    }

    #[test]
    fn urgent_served_first() {
        let mut a = RotatingPriority::new(4).unwrap();
        req(&mut a, 4);
        a.on_request(Time::ZERO, id(1), Priority::Urgent);
        let g = a.arbitrate(Time::ZERO).unwrap();
        assert_eq!((g.agent, g.priority), (id(1), Priority::Urgent));
    }
}
