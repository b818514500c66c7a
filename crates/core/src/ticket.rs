//! Ticket-based FCFS — Sharma & Ahuja's bus allocation scheme
//! \[ShAh81\], the prior FCFS proposal the paper cites.
//!
//! *"A First-Come-First-Serve Bus Allocation Scheme Using Ticket
//! Assignments", Bell System Technical Journal 60(7), 1981.* The scheme
//! works like a deli counter: each arriving request draws a ticket from
//! a global modulo dispenser, a *service counter* on the bus displays
//! the ticket currently entitled to the bus, and an agent competes when
//! the displayed value matches its ticket. Service order is exact FCFS
//! in ticket-draw order as long as the window of outstanding tickets
//! never exceeds the ticket space.
//!
//! The scheme's practical weaknesses — the reason Vernon & Manber call
//! their counter-based protocol "the first **practical** proposal for a
//! FCFS arbiter" — are modeled explicitly:
//!
//! * **Serialized dispensing**: simultaneous arrivals must still draw
//!   *distinct* tickets, which requires an extra serializing interaction
//!   on the bus for every request; the model counts them
//!   ([`TicketFcfs::dispenser_grants`]). The Vernon–Manber counters need
//!   no dispenser at all — ties simply share a counter value.
//! * **Ticket collisions**: with a `w`-bit dispenser, more than `2^w`
//!   simultaneously outstanding requests alias tickets; two agents then
//!   hold the same number, the collision resolves by static identity,
//!   and FCFS order silently inverts.
//!   [`TicketFcfs::with_ticket_bits`] exposes the width so tests can
//!   demonstrate the hazard; the default width makes collisions
//!   impossible with one outstanding request per agent.

use std::collections::VecDeque;

use busarb_bus::NumberLayout;
use busarb_types::{AgentId, AgentSet, Error, Priority, Time};

use crate::arbiter::{check_agent, validate_agents, Arbiter, Grant};

/// The \[ShAh81\] ticket arbiter.
///
/// Urgent requests bypass the ticket machinery entirely (priority bit,
/// identity order), leaving the ordinary-class ticket sequence dense.
///
/// # Examples
///
/// ```
/// use busarb_core::{Arbiter, TicketFcfs};
/// use busarb_types::{AgentId, Priority, Time};
///
/// # fn main() -> Result<(), busarb_types::Error> {
/// let mut t = TicketFcfs::new(8)?;
/// t.on_request(Time::from(0.0), AgentId::new(5)?, Priority::Ordinary);
/// t.on_request(Time::from(1.0), AgentId::new(8)?, Priority::Ordinary);
/// // Exact FCFS by ticket order:
/// assert_eq!(t.arbitrate(Time::from(1.0)).unwrap().agent.get(), 5);
/// assert_eq!(t.arbitrate(Time::from(1.0)).unwrap().agent.get(), 8);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct TicketFcfs {
    n: u32,
    layout: NumberLayout,
    ticket_bits: u32,
    /// Next ticket the dispenser will hand out (already modulo-reduced).
    next_ticket: u64,
    /// The ticket value the service counter currently displays.
    serving: u64,
    /// Agents currently holding an ordinary-class ticket.
    holders: AgentSet,
    /// The ticket each holder drew, indexed by agent identity. Slots of
    /// agents outside `holders` are stale.
    tickets: Box<[u64]>,
    /// Whether the holders, in draw order, hold the consecutive tickets
    /// `serving, serving + 1, …` — true until a draw finds the ticket
    /// space full (aliasing), and true again once the holders drain with
    /// the dispenser and service counter in step.
    in_order: bool,
    /// The holders in draw order while `in_order` holds (capacity `n`,
    /// allocated at construction); the front holds the served ticket.
    order: VecDeque<AgentId>,
    urgent: AgentSet,
    dispenser_grants: u64,
}

impl TicketFcfs {
    /// Creates a ticket arbiter with a dispenser wide enough that tickets
    /// can never collide while at most one request per agent is
    /// outstanding (`ceil(log2(N+1)) + 1` bits).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidAgentCount`] if `n` is 0 or exceeds 128.
    pub fn new(n: u32) -> Result<Self, Error> {
        Self::with_ticket_bits(n, AgentId::lines_required(n) + 1)
    }

    /// Creates a ticket arbiter with an explicit dispenser width — narrow
    /// widths demonstrate the collision hazard.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidAgentCount`] for a bad `n`,
    /// [`Error::ZeroCounterWidth`] for a zero width, and
    /// [`Error::LayoutTooWide`] when the ticket field pushes the
    /// arbitration number past 64 lines.
    pub fn with_ticket_bits(n: u32, ticket_bits: u32) -> Result<Self, Error> {
        validate_agents(n)?;
        if ticket_bits == 0 {
            return Err(Error::ZeroCounterWidth);
        }
        Ok(TicketFcfs {
            n,
            layout: NumberLayout::for_agents(n)?
                .with_counter_bits(ticket_bits)
                .with_priority_bit()
                .checked()?,
            ticket_bits,
            next_ticket: 0,
            serving: 0,
            holders: AgentSet::new(),
            tickets: vec![0; n as usize].into_boxed_slice(),
            in_order: true,
            order: VecDeque::with_capacity(n as usize),
            urgent: AgentSet::new(),
            dispenser_grants: 0,
        })
    }

    /// Size of the ticket space.
    fn ticket_space(&self) -> u64 {
        // The checked layout keeps `ticket_bits` below 64.
        1u64 << self.ticket_bits
    }

    /// Total dispenser interactions — each one is an extra serialized
    /// bus transaction in the \[ShAh81\] scheme.
    #[must_use]
    pub fn dispenser_grants(&self) -> u64 {
        self.dispenser_grants
    }

    /// The ticket value the service counter currently displays.
    #[must_use]
    pub fn serving(&self) -> u64 {
        self.serving
    }

    /// Appends a normalized fingerprint of the arbitration-relevant state
    /// to `out`. Ticket values are encoded relative to the service counter
    /// (the dispenser pair only ever compares modulo the ticket space) and
    /// holders are emitted sorted by `(relative ticket, identity)` via an
    /// allocation-free selection scan. The dispenser-grant statistic is
    /// excluded.
    #[doc(hidden)]
    pub fn verify_signature(&self, out: &mut Vec<u64>) {
        let space = self.ticket_space();
        let delta = |ticket: u64| (ticket + space - self.serving) % space;
        out.push(delta(self.next_ticket));
        out.push(self.holders.len() as u64);
        let mut last: Option<(u64, u32)> = None;
        for _ in 0..self.holders.len() {
            let (d, agent) = self
                .holders
                .iter()
                .map(|a| (delta(self.tickets[a.index()]), a.get()))
                .filter(|&key| last.is_none_or(|l| key > l))
                .min()
                .expect("selection scan visits each holder once");
            out.push(d);
            out.push(u64::from(agent));
            last = Some((d, agent));
        }
        busarb_types::fingerprint::push_set(out, self.urgent);
    }

    /// The ticket held by an agent's request, if it holds one.
    #[must_use]
    pub fn ticket_of(&self, agent: AgentId) -> Option<u64> {
        self.holders
            .contains(agent)
            .then(|| self.tickets[agent.index()])
    }
}

impl Arbiter for TicketFcfs {
    fn name(&self) -> &'static str {
        "ticket-fcfs"
    }

    fn agents(&self) -> u32 {
        self.n
    }

    fn layout(&self) -> Option<NumberLayout> {
        Some(self.layout)
    }

    fn on_request(&mut self, _now: Time, agent: AgentId, priority: Priority) {
        check_agent(agent, self.n);
        if priority.is_urgent() {
            assert!(
                self.urgent.insert(agent),
                "agent {agent} already has an outstanding urgent request"
            );
            return;
        }
        let ahead = self.holders.len() as u64;
        assert!(
            self.holders.insert(agent),
            "agent {agent} already has an outstanding request"
        );
        if ahead == 0 && self.serving == self.next_ticket {
            self.in_order = true;
            self.order.clear();
        }
        if ahead >= self.ticket_space() {
            // The new ticket aliases an outstanding one.
            self.in_order = false;
        }
        if self.in_order {
            self.order.push_back(agent);
        }
        // Draw a ticket. Each draw is a serialized dispenser interaction.
        self.tickets[agent.index()] = self.next_ticket;
        self.next_ticket = (self.next_ticket + 1) % self.ticket_space();
        self.dispenser_grants += 1;
    }

    fn arbitrate(&mut self, _now: Time) -> Option<Grant> {
        if let Some(winner) = self.urgent.max() {
            self.urgent.remove(winner);
            return Some(Grant {
                agent: winner,
                priority: Priority::Urgent,
                arbitrations: 1,
            });
        }
        if self.holders.is_empty() {
            // An idle dispenser/counter pair resynchronizes.
            self.serving = self.next_ticket;
            return None;
        }
        // Agents whose ticket matches the displayed service counter
        // compete. Without aliasing that is exactly the oldest holder.
        // A collision resolves by the parallel contention lines, i.e. by
        // static identity: the ascending scan's last match is that
        // highest identity.
        let winner = if self.in_order {
            self.order.pop_front()
        } else {
            let mut winner = None;
            for agent in self.holders {
                if self.tickets[agent.index()] == self.serving {
                    winner = Some(agent);
                }
            }
            winner
        };
        // The oldest outstanding ordinary ticket always equals the
        // service counter, so both paths find a winner.
        let winner = winner?;
        self.holders.remove(winner);
        self.serving = (self.serving + 1) % self.ticket_space();
        Some(Grant::ordinary(winner))
    }

    fn pending(&self) -> usize {
        self.holders.len() + self.urgent.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CentralFcfs;

    fn id(n: u32) -> AgentId {
        AgentId::new(n).unwrap()
    }

    #[test]
    fn exact_fcfs_in_issue_order() {
        let mut t = TicketFcfs::new(10).unwrap();
        for (i, agent) in [7u32, 2, 9, 4].into_iter().enumerate() {
            t.on_request(Time::from(i as f64), id(agent), Priority::Ordinary);
        }
        let order: Vec<u32> = (0..4)
            .map(|_| t.arbitrate(Time::ZERO).unwrap().agent.get())
            .collect();
        assert_eq!(order, [7, 2, 9, 4]);
    }

    #[test]
    fn matches_central_fcfs_with_distinct_arrivals() {
        let mut ticket = TicketFcfs::new(8).unwrap();
        let mut central = CentralFcfs::new(8).unwrap();
        let schedule = [(0.0, 3u32), (0.5, 8), (1.0, 1), (1.5, 5), (2.0, 7)];
        for &(at, agent) in &schedule {
            ticket.on_request(Time::from(at), id(agent), Priority::Ordinary);
            central.on_request(Time::from(at), id(agent), Priority::Ordinary);
        }
        for _ in 0..schedule.len() {
            assert_eq!(
                ticket.arbitrate(Time::ZERO).map(|g| g.agent),
                central.arbitrate(Time::ZERO).map(|g| g.agent)
            );
        }
    }

    #[test]
    fn dispenser_serialization_is_counted() {
        let mut t = TicketFcfs::new(8).unwrap();
        for agent in 1..=5 {
            t.on_request(Time::ZERO, id(agent), Priority::Ordinary);
        }
        // Five simultaneous arrivals still require five serialized
        // dispenser interactions — the scheme's practicality problem.
        assert_eq!(t.dispenser_grants(), 5);
        // Simultaneous arrivals are ordered by draw order, not by
        // identity (unlike the Vernon-Manber counters, which tie).
        assert_eq!(t.arbitrate(Time::ZERO).unwrap().agent, id(1));
        assert_eq!(t.arbitrate(Time::ZERO).unwrap().agent, id(2));
    }

    #[test]
    fn ticket_collision_inverts_fcfs_order() {
        // 1-bit dispenser: three simultaneously outstanding requests must
        // alias. Agents 3 and 5 both hold ticket 0; when the counter
        // displays 0 the collision resolves by identity, so agent 5 —
        // which arrived LAST — is served FIRST.
        let mut t = TicketFcfs::with_ticket_bits(8, 1).unwrap();
        t.on_request(Time::ZERO, id(3), Priority::Ordinary); // ticket 0
        t.on_request(Time::ZERO, id(4), Priority::Ordinary); // ticket 1
        t.on_request(Time::ZERO, id(5), Priority::Ordinary); // ticket 0!
        assert_eq!(t.ticket_of(id(3)), Some(0));
        assert_eq!(t.ticket_of(id(5)), Some(0));
        assert_eq!(t.arbitrate(Time::ZERO).unwrap().agent, id(5));
        assert_eq!(t.arbitrate(Time::ZERO).unwrap().agent, id(4));
        assert_eq!(t.arbitrate(Time::ZERO).unwrap().agent, id(3));
    }

    #[test]
    fn default_width_is_exact_over_long_runs() {
        let n = 10u32;
        let mut t = TicketFcfs::new(n).unwrap();
        let mut central = CentralFcfs::new(n).unwrap();
        // Hundreds of wrap-arounds of the dispenser under saturation;
        // order must match a true FCFS queue throughout. Arrivals are
        // staggered because the ticket dispenser serializes same-instant
        // arrivals by draw order while the central queue ties by
        // identity.
        for agent in 1..=n {
            let at = Time::from(f64::from(agent) * 0.01);
            t.on_request(at, id(agent), Priority::Ordinary);
            central.on_request(at, id(agent), Priority::Ordinary);
        }
        for round in 0..1000u32 {
            let a = t.arbitrate(Time::ZERO).unwrap().agent;
            let b = central.arbitrate(Time::ZERO).unwrap().agent;
            assert_eq!(a, b, "round {round}");
            let at = Time::from(f64::from(round) + 1.0);
            t.on_request(at, a, Priority::Ordinary);
            central.on_request(at, a, Priority::Ordinary);
        }
    }

    #[test]
    fn idle_resynchronizes_the_counters() {
        let mut t = TicketFcfs::with_ticket_bits(4, 2).unwrap();
        t.on_request(Time::ZERO, id(1), Priority::Ordinary);
        t.arbitrate(Time::ZERO).unwrap();
        assert!(t.arbitrate(Time::ZERO).is_none());
        assert_eq!(t.serving(), 1);
        t.on_request(Time::ZERO, id(2), Priority::Ordinary);
        assert_eq!(t.arbitrate(Time::ZERO).unwrap().agent, id(2));
    }

    #[test]
    fn urgent_bypasses_the_dispenser() {
        let mut t = TicketFcfs::new(8).unwrap();
        t.on_request(Time::ZERO, id(6), Priority::Ordinary);
        t.on_request(Time::ZERO, id(2), Priority::Urgent);
        assert_eq!(t.dispenser_grants(), 1); // only the ordinary request drew
        let g = t.arbitrate(Time::ZERO).unwrap();
        assert_eq!((g.agent, g.priority), (id(2), Priority::Urgent));
        assert_eq!(t.arbitrate(Time::ZERO).unwrap().agent, id(6));
    }

    #[test]
    fn ticket_fields_past_the_composite_word_are_rejected() {
        // 8 agents: 4 identity lines plus the priority bit leave 59
        // ticket lines in a 64-bit arbitration number.
        for bits in [60, 63, 64] {
            assert_eq!(
                TicketFcfs::with_ticket_bits(8, bits).unwrap_err(),
                Error::LayoutTooWide {
                    width: 5 + bits,
                    max: 64
                },
                "{bits} ticket lines"
            );
        }
        let mut t = TicketFcfs::with_ticket_bits(8, 59).unwrap();
        assert_eq!(t.layout().unwrap().width(), 64);
        for agent in [6, 2, 8] {
            t.on_request(Time::ZERO, id(agent), Priority::Ordinary);
        }
        let order: Vec<u32> = (0..3)
            .map(|_| t.arbitrate(Time::ZERO).unwrap().agent.get())
            .collect();
        assert_eq!(order, [6, 2, 8]);
    }

    #[test]
    fn validation_and_metadata() {
        assert!(TicketFcfs::new(0).is_err());
        assert!(TicketFcfs::with_ticket_bits(8, 0).is_err());
        let t = TicketFcfs::new(30).unwrap();
        assert_eq!(t.name(), "ticket-fcfs");
        assert!(t.layout().unwrap().counter_bits() >= 6);
        assert_eq!(t.ticket_of(id(3)), None);
        assert_eq!(t.serving(), 0);
    }
}
