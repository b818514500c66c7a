//! FCFS-1: waiting-time counters incremented per lost arbitration.

use busarb_types::{AgentId, AgentSet, Error};

use crate::signal::{
    check_new_request, validate_agent_count, CounterPolicy, SignalOutcome, SignalProtocol,
};
use crate::{ArbitrationNumber, NumberLayout, ParallelContention};

/// The simpler (coarser) implementation of the FCFS protocol.
///
/// Each agent's arbitration number is the concatenation
/// `[waiting-time counter | static identity]`, counter most significant.
/// The counter is reset to zero when a new request is generated and
/// **incremented each time the agent loses an arbitration**. Requests
/// generated in the same interval between two successive arbitrations end
/// up with equal counters and are served in static-identity order — the
/// source of the residual unfairness quantified in Table 4.1.
///
/// Per-agent hardware: a modulo counter incremented by the arbitration
/// result "lose" and reset by "win" (Section 3.2).
///
/// # Examples
///
/// ```
/// use busarb_bus::signal::{Fcfs1System, SignalProtocol};
/// use busarb_types::AgentId;
///
/// # fn main() -> Result<(), busarb_types::Error> {
/// let mut sys = Fcfs1System::new(4)?;
/// sys.on_requests(&[AgentId::new(2)?, AgentId::new(4)?]);
/// // Same batch: identity order.
/// assert_eq!(sys.arbitrate().unwrap().winner.get(), 4);
/// // Agent 2 lost once, so its counter now beats a fresh request from 3.
/// sys.on_requests(&[AgentId::new(3)?]);
/// assert_eq!(sys.arbitrate().unwrap().winner.get(), 2);
/// assert_eq!(sys.arbitrate().unwrap().winner.get(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Fcfs1System {
    n: u32,
    layout: NumberLayout,
    contention: ParallelContention,
    requesting: AgentSet,
    counters: Vec<u64>,
    policy: CounterPolicy,
    /// Reusable competitor-pattern buffer so steady-state arbitration
    /// performs no heap allocation.
    scratch: Vec<u64>,
}

impl Fcfs1System {
    /// Creates a system of `n` agents with the default counter width
    /// (`ceil(log2(N+1))` bits — enough that the counter can never wrap
    /// when each agent has at most one outstanding request) and the
    /// wrap-on-overflow policy.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidAgentCount`] if `n` is 0 or exceeds 128.
    pub fn new(n: u32) -> Result<Self, Error> {
        Self::with_counter(n, AgentId::lines_required(n), CounterPolicy::Wrap)
    }

    /// Creates a system with an explicit counter width and overflow policy
    /// — the knobs for the counter-width ablation study.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidAgentCount`] for a bad `n`,
    /// [`Error::ZeroCounterWidth`] if `counter_bits` is 0, and
    /// [`Error::LayoutTooWide`] if the identity and counter fields need
    /// more than [`ParallelContention::MAX_WIDTH`] lines.
    pub fn with_counter(n: u32, counter_bits: u32, policy: CounterPolicy) -> Result<Self, Error> {
        validate_agent_count(n)?;
        if counter_bits == 0 {
            return Err(Error::ZeroCounterWidth);
        }
        let layout = NumberLayout::for_agents(n)?.with_counter_bits(counter_bits);
        Ok(Fcfs1System {
            n,
            layout,
            contention: ParallelContention::for_layout(&layout)?,
            requesting: AgentSet::new(),
            counters: vec![0; n as usize],
            policy,
            scratch: Vec::new(),
        })
    }

    /// Current counter value of one agent.
    ///
    /// # Panics
    ///
    /// Panics if `id` exceeds the system size.
    #[must_use]
    pub fn counter(&self, id: AgentId) -> u64 {
        self.counters[id.index()]
    }

    /// Appends a normalized fingerprint of the arbitration-relevant state
    /// to `out`: the request set and the counters of requesting agents in
    /// identity order. A non-requesting agent's counter is reset before it
    /// is ever read again, so stale values are excluded.
    #[doc(hidden)]
    pub fn verify_signature(&self, out: &mut Vec<u64>) {
        busarb_types::fingerprint::push_set(out, self.requesting);
        out.extend(self.requesting.iter().map(|id| self.counters[id.index()]));
    }
}

impl SignalProtocol for Fcfs1System {
    fn name(&self) -> &'static str {
        "fcfs-1"
    }

    fn layout(&self) -> NumberLayout {
        self.layout
    }

    fn on_requests(&mut self, ids: &[AgentId]) {
        for &id in ids {
            check_new_request(id, self.n, self.requesting);
            self.requesting.insert(id);
            // The counter is set to 0 when the agent has a new request.
            self.counters[id.index()] = 0;
        }
    }

    fn arbitrate(&mut self) -> Option<SignalOutcome> {
        if self.requesting.is_empty() {
            return None;
        }
        let mut competitors = core::mem::take(&mut self.scratch);
        competitors.clear();
        competitors.extend(self.requesting.iter().map(|id| {
            self.layout
                .compose(ArbitrationNumber::new(id).with_counter(self.counters[id.index()]))
        }));
        let resolution = self.contention.resolve(&competitors);
        self.scratch = competitors;
        // A non-empty competition always decodes to a winner.
        let winner = self.layout.decode_id(resolution.winner_value)?;
        self.requesting.remove(winner);
        // "Lose" increments every remaining competitor's counter.
        let capacity = self.layout.counter_max();
        for loser in self.requesting {
            let c = &mut self.counters[loser.index()];
            *c = self.policy.increment(*c, capacity);
        }
        Some(SignalOutcome {
            winner,
            rounds: resolution.rounds,
            arbitrations: 1,
        })
    }

    fn pending(&self) -> usize {
        self.requesting.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u32) -> AgentId {
        AgentId::new(n).unwrap()
    }

    fn ids(ns: &[u32]) -> Vec<AgentId> {
        ns.iter().map(|&n| id(n)).collect()
    }

    #[test]
    fn serves_distinct_batches_in_arrival_order() {
        let mut sys = Fcfs1System::new(8).unwrap();
        sys.on_requests(&ids(&[3]));
        sys.on_requests(&ids(&[8])); // arrives in the same inter-arbitration gap
                                     // Same interval: identity order, so 8 beats 3 despite arriving later.
        assert_eq!(sys.arbitrate().unwrap().winner, id(8));
        // Now 3 has lost once; a later arrival from 7 cannot overtake it.
        sys.on_requests(&ids(&[7]));
        assert_eq!(sys.arbitrate().unwrap().winner, id(3));
        assert_eq!(sys.arbitrate().unwrap().winner, id(7));
    }

    #[test]
    fn counter_beats_identity() {
        let mut sys = Fcfs1System::new(10).unwrap();
        sys.on_requests(&ids(&[1, 10]));
        assert_eq!(sys.arbitrate().unwrap().winner, id(10));
        assert_eq!(sys.counter(id(1)), 1);
        sys.on_requests(&ids(&[9]));
        // 1 waited one arbitration; 9 is fresh.
        assert_eq!(sys.arbitrate().unwrap().winner, id(1));
    }

    #[test]
    fn bounded_overtaking() {
        // An agent can be overtaken only by requests arriving in its own
        // arrival interval — at most N-1 of them.
        let n = 6u32;
        let mut sys = Fcfs1System::new(n).unwrap();
        sys.on_requests(&ids(&[1])); // the victim, lowest identity
        let mut served_before_victim = 0;
        // Everyone else arrives in the same interval.
        sys.on_requests(&ids(&[2, 3, 4, 5, 6]));
        loop {
            let w = sys.arbitrate().unwrap().winner;
            if w == id(1) {
                break;
            }
            served_before_victim += 1;
            // Immediately re-request to try to starve agent 1.
            sys.on_requests(&[w]);
        }
        assert_eq!(served_before_victim, (n - 1) as usize);
    }

    #[test]
    fn counter_resets_on_new_request() {
        let mut sys = Fcfs1System::new(4).unwrap();
        sys.on_requests(&ids(&[1, 4]));
        sys.arbitrate().unwrap(); // 4 wins; counter(1) = 1
        assert_eq!(sys.counter(id(1)), 1);
        sys.arbitrate().unwrap(); // 1 wins
        sys.on_requests(&ids(&[1]));
        assert_eq!(sys.counter(id(1)), 0);
    }

    #[test]
    fn default_counter_width_never_wraps_with_single_outstanding() {
        let n = 10u32;
        let mut sys = Fcfs1System::new(n).unwrap();
        // Agent 1 waits while all others are served once each: loses
        // n-1 arbitrations, counter must hold n-1 without wrapping.
        sys.on_requests(&ids(&[1]));
        sys.on_requests(&ids(&[2, 3, 4, 5, 6, 7, 8, 9, 10]));
        for _ in 0..9 {
            let w = sys.arbitrate().unwrap().winner;
            assert_ne!(w, id(1));
        }
        assert_eq!(sys.counter(id(1)), 9);
        assert!(sys.layout().counter_max() >= 9);
        assert_eq!(sys.arbitrate().unwrap().winner, id(1));
    }

    #[test]
    fn narrow_wrap_counter_can_invert_order() {
        // 1-bit counter with wrap: after two losses agent 1's counter
        // wraps back to 0 and a fresh higher-identity request overtakes it
        // — losing the FCFS ordering.
        let mut sys = Fcfs1System::with_counter(8, 1, CounterPolicy::Wrap).unwrap();
        sys.on_requests(&ids(&[1, 7, 8]));
        assert_eq!(sys.arbitrate().unwrap().winner, id(8)); // ctr(1): 0 -> 1
        assert_eq!(sys.arbitrate().unwrap().winner, id(7)); // ctr(1): 1 -> wraps to 0
        assert_eq!(sys.counter(id(1)), 0);
        sys.on_requests(&ids(&[6]));
        // Fresh request from 6 (counter 0) overtakes the long-waiting 1.
        assert_eq!(sys.arbitrate().unwrap().winner, id(6));
        assert_eq!(sys.arbitrate().unwrap().winner, id(1));
    }

    #[test]
    fn saturating_narrow_counter_keeps_seniority() {
        let mut sys = Fcfs1System::with_counter(8, 1, CounterPolicy::Saturate).unwrap();
        sys.on_requests(&ids(&[1]));
        for other in [8, 7, 6, 5] {
            sys.on_requests(&ids(&[other]));
            let w = sys.arbitrate().unwrap().winner;
            if w == id(1) {
                return; // seniority held
            }
        }
        // With saturation, agent 1 (counter stuck at 1) beats every fresh
        // request (counter 0), so it must have been served above.
        panic!("agent 1 was starved despite saturating counter");
    }

    #[test]
    fn layout_width_doubles_identity_at_most() {
        let sys = Fcfs1System::new(30).unwrap();
        let k = AgentId::lines_required(30);
        assert_eq!(sys.layout().width(), 2 * k);
        assert_eq!(sys.name(), "fcfs-1");
    }

    #[test]
    fn zero_counter_width_rejected() {
        assert!(matches!(
            Fcfs1System::with_counter(4, 0, CounterPolicy::Wrap),
            Err(Error::ZeroCounterWidth)
        ));
    }

    #[test]
    fn empty_system_returns_none() {
        let mut sys = Fcfs1System::new(2).unwrap();
        assert!(sys.arbitrate().is_none());
        assert_eq!(sys.pending(), 0);
    }

    #[test]
    fn counter_fields_past_the_line_model_are_rejected() {
        // 8 agents take 4 identity lines, so 59 counter lines fill all 63.
        let mut widest = Fcfs1System::with_counter(8, 59, CounterPolicy::Wrap).unwrap();
        assert_eq!(widest.layout.width(), 63);
        widest.on_requests(&ids(&[1, 8]));
        assert_eq!(widest.arbitrate().unwrap().winner, id(8));
        for bits in [60, 64, u32::MAX] {
            assert!(
                matches!(
                    Fcfs1System::with_counter(8, bits, CounterPolicy::Wrap),
                    Err(Error::LayoutTooWide { max: 63, .. })
                ),
                "{bits} counter lines"
            );
        }
    }
}
