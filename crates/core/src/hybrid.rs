//! The hybrid RR/FCFS protocol sketched in the paper's Section 5.

use busarb_bus::signal::CounterPolicy;
use busarb_bus::NumberLayout;
use busarb_types::{AgentId, Error, Priority, Time};

use crate::arbiter::{check_agent, validate_agents, Arbiter, Grant};
use crate::arrival::ArrivalGroups;

/// A hybrid protocol: **FCFS across arrival windows, round-robin within a
/// window**.
///
/// The paper's conclusions suggest that "the round robin protocol might be
/// used only for requests that arrive at the same time, while the FCFS
/// protocol is used for other requests". This implementation realizes that
/// idea with the composite arbitration number
/// `[priority | waiting-time counter | rr bit | static identity]`:
/// the counter (incremented per `a-incr` pulse as in FCFS-2) orders
/// requests from different arrival windows first-come first-serve, while
/// the round-robin bit breaks same-window ties fairly instead of always
/// favoring high identities.
///
/// This costs one more line than FCFS-2 and removes its only residual
/// unfairness at the price of RR's (slightly) higher waiting-time variance
/// *within* windows — the `hybrid` experiment quantifies the trade.
///
/// # Examples
///
/// ```
/// use busarb_core::{Arbiter, HybridRrFcfs};
/// use busarb_types::{AgentId, Priority, Time};
///
/// # fn main() -> Result<(), busarb_types::Error> {
/// let mut h = HybridRrFcfs::new(8)?;
/// // Same-instant arrivals tie; the rr bit arbitrates the tie fairly.
/// h.on_request(Time::ZERO, AgentId::new(3)?, Priority::Ordinary);
/// h.on_request(Time::ZERO, AgentId::new(6)?, Priority::Ordinary);
/// assert_eq!(h.arbitrate(Time::ZERO).unwrap().agent.get(), 6);
/// assert_eq!(h.arbitrate(Time::ZERO).unwrap().agent.get(), 3);
/// # Ok(())
/// # }
/// ```
/// Outstanding requests live in arrival groups: class membership
/// masks, waiting-time counters derived from one pulse epoch (saturating
/// at the line capacity), and same-window arrivals grouped oldest first.
/// The hybrid admits one outstanding request per agent, which makes the
/// derived counter exact. While no counter has saturated the oldest group
/// holds the unique largest counter, so a grant is the round-robin pick
/// inside that group — `max_below(last_winner)`, else `max`.
#[derive(Clone, Debug)]
pub struct HybridRrFcfs {
    n: u32,
    layout: NumberLayout,
    tie_window: Time,
    requests: ArrivalGroups,
    last_pulse: Option<Time>,
    last_winner: u32,
}

impl HybridRrFcfs {
    /// Creates a hybrid arbiter with a zero tie window (only same-instant
    /// arrivals tie).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidAgentCount`] if `n` is 0 or exceeds 128.
    pub fn new(n: u32) -> Result<Self, Error> {
        Self::with_tie_window(n, Time::ZERO)
    }

    /// Creates a hybrid arbiter whose arrival windows have the given
    /// width.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidAgentCount`] for a bad `n`, or
    /// [`Error::InvalidScenario`] for a negative window.
    pub fn with_tie_window(n: u32, tie_window: Time) -> Result<Self, Error> {
        validate_agents(n)?;
        if tie_window < Time::ZERO {
            return Err(Error::InvalidScenario {
                reason: "tie window must be non-negative".to_string(),
            });
        }
        let layout = NumberLayout::for_agents(n)?
            .with_counter_bits(AgentId::lines_required(n).max(1))
            .with_rr_bit()
            .with_priority_bit();
        Ok(HybridRrFcfs {
            n,
            layout,
            tie_window,
            requests: ArrivalGroups::new(
                n,
                1,
                CounterPolicy::Saturate,
                layout.counter_max(),
                false,
            ),
            last_pulse: None,
            last_winner: n + 1,
        })
    }

    /// The waiting-time counter of `agent`'s outstanding request — pulses
    /// since its arrival, saturated at the counter-line capacity — if it
    /// has one.
    #[must_use]
    pub fn counter(&self, agent: AgentId) -> Option<u64> {
        self.requests.counter(agent)
    }

    /// Current contents of the replicated winner register.
    #[must_use]
    pub fn last_winner(&self) -> u32 {
        self.last_winner
    }

    /// Appends a normalized fingerprint of the arbitration-relevant state
    /// to `out`: outstanding entries in arrival order (sequence numbers
    /// rank-normalized away) plus the winner register. The `last_pulse`
    /// stamp is excluded — the bounded model checker drives the arbiter
    /// with strictly increasing times and a zero tie window, so a past
    /// pulse can never merge with a future arrival.
    #[doc(hidden)]
    pub fn verify_signature(&self, out: &mut Vec<u64>) {
        self.requests.push_signature(out);
        out.push(u64::from(self.last_winner));
    }
}

impl Arbiter for HybridRrFcfs {
    fn name(&self) -> &'static str {
        "hybrid"
    }

    fn agents(&self) -> u32 {
        self.n
    }

    fn layout(&self) -> Option<NumberLayout> {
        Some(self.layout)
    }

    fn on_request(&mut self, now: Time, agent: AgentId, priority: Priority) {
        check_agent(agent, self.n);
        assert!(
            self.requests.outstanding(agent) == 0,
            "agent {agent} already has an outstanding request"
        );
        let merged = self.last_pulse.is_some_and(|t| now - t <= self.tie_window);
        if !merged {
            // One epoch bump stands in for incrementing every outstanding
            // counter; saturation is applied when the counter is read.
            self.requests.pulse(priority);
            self.last_pulse = Some(now);
        }
        self.requests.insert(agent, priority);
    }

    fn arbitrate(&mut self, _now: Time) -> Option<Grant> {
        // Composite number compare [priority | counter | rr bit |
        // identity]: the top class competes, the largest counter wins,
        // and the rr bit then identity break ties.
        let priority = self.requests.top_class()?;
        let (winner, at) = self.requests.select(priority, self.last_winner)?;
        self.requests.remove(winner, at);
        self.last_winner = winner.get();
        Some(Grant {
            agent: winner,
            priority,
            arbitrations: 1,
        })
    }

    fn pending(&self) -> usize {
        self.requests.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u32) -> AgentId {
        AgentId::new(n).unwrap()
    }

    fn req(h: &mut HybridRrFcfs, now: f64, agent: u32) {
        h.on_request(Time::from(now), id(agent), Priority::Ordinary);
    }

    fn grant(h: &mut HybridRrFcfs) -> u32 {
        h.arbitrate(Time::ZERO).unwrap().agent.get()
    }

    #[test]
    fn fcfs_across_windows() {
        let mut h = HybridRrFcfs::new(8).unwrap();
        req(&mut h, 0.0, 2);
        req(&mut h, 1.0, 8);
        req(&mut h, 2.0, 5);
        let order: Vec<u32> = (0..3).map(|_| grant(&mut h)).collect();
        assert_eq!(order, [2, 8, 5]);
    }

    #[test]
    fn rr_within_a_window() {
        let mut h = HybridRrFcfs::new(8).unwrap();
        // Seed the winner register at 5.
        req(&mut h, 0.0, 5);
        assert_eq!(grant(&mut h), 5);
        // Three same-instant arrivals: RR order relative to register 5 is
        // 4, 2 (below 5, high first), then 7.
        for agent in [2, 4, 7] {
            req(&mut h, 1.0, agent);
        }
        assert_eq!(grant(&mut h), 4);
        assert_eq!(grant(&mut h), 2);
        assert_eq!(grant(&mut h), 7);
    }

    #[test]
    fn plain_fcfs_would_order_ties_by_identity_only() {
        // Contrast with the FCFS protocols: hybrid does not always favor
        // the high identity in a tie.
        let mut h = HybridRrFcfs::new(8).unwrap();
        req(&mut h, 0.0, 6);
        assert_eq!(grant(&mut h), 6); // register = 6
        req(&mut h, 1.0, 3);
        req(&mut h, 1.0, 7);
        // 3 is below the register: the rr bit puts it ahead of 7.
        assert_eq!(grant(&mut h), 3);
        assert_eq!(grant(&mut h), 7);
    }

    #[test]
    fn seniority_still_beats_rr_bit() {
        let mut h = HybridRrFcfs::new(8).unwrap();
        req(&mut h, 0.0, 6);
        assert_eq!(grant(&mut h), 6); // register = 6
        req(&mut h, 1.0, 7); // older request, above register
        req(&mut h, 2.0, 3); // fresh request, below register
                             // FCFS across windows dominates the rr tie-break.
        assert_eq!(grant(&mut h), 7);
        assert_eq!(grant(&mut h), 3);
    }

    #[test]
    fn urgent_first() {
        let mut h = HybridRrFcfs::new(8).unwrap();
        req(&mut h, 0.0, 5);
        h.on_request(Time::from(1.0), id(2), Priority::Urgent);
        let g = h.arbitrate(Time::ZERO).unwrap();
        assert_eq!((g.agent, g.priority), (id(2), Priority::Urgent));
    }

    #[test]
    fn tie_window_groups_arrivals() {
        let mut h = HybridRrFcfs::with_tie_window(8, Time::from(0.5)).unwrap();
        req(&mut h, 0.0, 7);
        assert_eq!(grant(&mut h), 7); // register = 7
        req(&mut h, 1.0, 8);
        req(&mut h, 1.3, 2); // within the 0.5 window: same group
                             // Same group: rr order (2 below 7) beats identity.
        assert_eq!(grant(&mut h), 2);
        assert_eq!(grant(&mut h), 8);
    }

    #[test]
    fn validation_and_metadata() {
        assert!(HybridRrFcfs::new(0).is_err());
        assert!(HybridRrFcfs::with_tie_window(4, Time::from(-1.0)).is_err());
        let h = HybridRrFcfs::new(30).unwrap();
        assert_eq!(h.name(), "hybrid");
        let k = AgentId::lines_required(30);
        assert_eq!(h.layout().unwrap().width(), 2 * k + 2);
        assert_eq!(h.last_winner(), 31);
    }

    #[test]
    #[should_panic(expected = "already has an outstanding request")]
    fn duplicate_request_panics() {
        let mut h = HybridRrFcfs::new(4).unwrap();
        req(&mut h, 0.0, 2);
        req(&mut h, 1.0, 2);
    }
}
