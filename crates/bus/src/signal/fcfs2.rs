//! FCFS-2: waiting-time counters driven by the `a-incr` line.

use busarb_types::{AgentId, AgentSet, Error};

use crate::signal::{
    check_new_request, validate_agent_count, CounterPolicy, SignalOutcome, SignalProtocol,
};
use crate::{ArbitrationNumber, NumberLayout, ParallelContention};

/// The finer (more accurate) implementation of the FCFS protocol.
///
/// An extra bus line, **`a-incr`**, is pulsed for a few propagation delays
/// by any agent generating a new request. Every *waiting* agent increments
/// its counter on each pulse, so the counters record arrival order at the
/// granularity of the pulse-sensing window rather than at whole-arbitration
/// granularity. Two requests arriving within the same window see a single
/// merged pulse, get equal counters, and fall back to static-identity
/// order; the paper argues this window is far smaller than the interval
/// between arbitrations, making FCFS-2 "nearly perfectly fair".
///
/// Arrivals passed together to [`SignalProtocol::on_requests`] model a
/// same-window tie.
///
/// # Examples
///
/// ```
/// use busarb_bus::signal::{Fcfs2System, SignalProtocol};
/// use busarb_types::AgentId;
///
/// # fn main() -> Result<(), busarb_types::Error> {
/// let mut sys = Fcfs2System::new(8)?;
/// sys.on_requests(&[AgentId::new(3)?]); // arrives first
/// sys.on_requests(&[AgentId::new(8)?]); // later window
/// // Unlike FCFS-1, arrival order wins even without an intervening
/// // arbitration:
/// assert_eq!(sys.arbitrate().unwrap().winner.get(), 3);
/// assert_eq!(sys.arbitrate().unwrap().winner.get(), 8);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Fcfs2System {
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

impl Fcfs2System {
    /// Creates a system of `n` agents with the default counter width
    /// (`ceil(log2(N+1))` bits) and wrap-on-overflow policy.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidAgentCount`] if `n` is 0 or exceeds 128.
    pub fn new(n: u32) -> Result<Self, Error> {
        Self::with_counter(n, AgentId::lines_required(n), CounterPolicy::Wrap)
    }

    /// Creates a system with an explicit counter width and overflow policy.
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
        Ok(Fcfs2System {
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

impl SignalProtocol for Fcfs2System {
    fn name(&self) -> &'static str {
        "fcfs-2"
    }

    fn layout(&self) -> NumberLayout {
        self.layout
    }

    fn on_requests(&mut self, ids: &[AgentId]) {
        if ids.is_empty() {
            return;
        }
        // All newcomers pulse a-incr within the same window; the wired-OR
        // merges the pulses, so waiting agents see exactly one increment.
        let capacity = self.layout.counter_max();
        for waiter in self.requesting {
            let c = &mut self.counters[waiter.index()];
            *c = self.policy.increment(*c, capacity);
        }
        for &id in ids {
            check_new_request(id, self.n, self.requesting);
            self.requesting.insert(id);
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
    fn arrival_order_is_respected_across_windows() {
        let mut sys = Fcfs2System::new(10).unwrap();
        sys.on_requests(&ids(&[2]));
        sys.on_requests(&ids(&[9]));
        sys.on_requests(&ids(&[5]));
        assert_eq!(sys.arbitrate().unwrap().winner, id(2));
        assert_eq!(sys.arbitrate().unwrap().winner, id(9));
        assert_eq!(sys.arbitrate().unwrap().winner, id(5));
    }

    #[test]
    fn same_window_ties_break_by_identity() {
        let mut sys = Fcfs2System::new(10).unwrap();
        sys.on_requests(&ids(&[4, 8])); // merged a-incr pulse
        assert_eq!(sys.counter(id(4)), 0);
        assert_eq!(sys.counter(id(8)), 0);
        assert_eq!(sys.arbitrate().unwrap().winner, id(8));
        assert_eq!(sys.arbitrate().unwrap().winner, id(4));
    }

    #[test]
    fn merged_pulse_increments_waiters_once() {
        let mut sys = Fcfs2System::new(10).unwrap();
        sys.on_requests(&ids(&[1]));
        // Two simultaneous newcomers: waiter 1 sees one pulse, not two.
        sys.on_requests(&ids(&[5, 6]));
        assert_eq!(sys.counter(id(1)), 1);
        assert_eq!(sys.counter(id(5)), 0);
        assert_eq!(sys.counter(id(6)), 0);
    }

    #[test]
    fn counters_track_arrivals_not_arbitrations() {
        let mut sys = Fcfs2System::new(10).unwrap();
        sys.on_requests(&ids(&[1]));
        // Several arbitration-free arrivals accumulate in the counter.
        sys.on_requests(&ids(&[2]));
        sys.on_requests(&ids(&[3]));
        sys.on_requests(&ids(&[4]));
        assert_eq!(sys.counter(id(1)), 3);
        assert_eq!(sys.counter(id(2)), 2);
        assert_eq!(sys.counter(id(3)), 1);
        assert_eq!(sys.counter(id(4)), 0);
        // Service order = arrival order.
        for expect in [1, 2, 3, 4] {
            assert_eq!(sys.arbitrate().unwrap().winner, id(expect));
        }
    }

    #[test]
    fn more_accurate_than_fcfs1_within_a_gap() {
        // Two arrivals in the same inter-arbitration gap but different
        // sensing windows: FCFS-1 serves identity order, FCFS-2 serves
        // arrival order.
        use crate::signal::Fcfs1System;
        let mut coarse = Fcfs1System::new(8).unwrap();
        let mut fine = Fcfs2System::new(8).unwrap();
        for sys in [&mut coarse as &mut dyn SignalProtocol, &mut fine] {
            sys.on_requests(&ids(&[3]));
            sys.on_requests(&ids(&[8]));
        }
        assert_eq!(coarse.arbitrate().unwrap().winner, id(8));
        assert_eq!(fine.arbitrate().unwrap().winner, id(3));
    }

    #[test]
    fn empty_pulse_batch_is_a_no_op() {
        let mut sys = Fcfs2System::new(4).unwrap();
        sys.on_requests(&ids(&[2]));
        sys.on_requests(&[]); // no newcomers: no pulse
        assert_eq!(sys.counter(id(2)), 0);
    }

    #[test]
    fn layout_and_name() {
        let sys = Fcfs2System::new(64).unwrap();
        assert_eq!(sys.layout().width(), 2 * AgentId::lines_required(64));
        assert_eq!(sys.name(), "fcfs-2");
        assert!(Fcfs2System::with_counter(4, 0, CounterPolicy::Wrap).is_err());
    }

    #[test]
    fn wrap_policy_applies_to_pulse_increments() {
        let mut sys = Fcfs2System::with_counter(8, 1, CounterPolicy::Wrap).unwrap();
        sys.on_requests(&ids(&[1]));
        sys.on_requests(&ids(&[2]));
        sys.on_requests(&ids(&[3])); // counter(1) wraps 1 -> 0
        assert_eq!(sys.counter(id(1)), 0);
        assert_eq!(sys.counter(id(2)), 1);
        // Agent 2 now looks "older" than agent 1: order inverted by wrap.
        assert_eq!(sys.arbitrate().unwrap().winner, id(2));
    }

    #[test]
    fn counter_fields_past_the_line_model_are_rejected() {
        // 8 agents take 4 identity lines, so 59 counter lines fill all 63.
        let mut widest = Fcfs2System::with_counter(8, 59, CounterPolicy::Wrap).unwrap();
        assert_eq!(widest.layout.width(), 63);
        widest.on_requests(&ids(&[1, 8]));
        assert_eq!(widest.arbitrate().unwrap().winner, id(8));
        for bits in [60, 64, u32::MAX] {
            assert!(
                matches!(
                    Fcfs2System::with_counter(8, bits, CounterPolicy::Wrap),
                    Err(Error::LayoutTooWide { max: 63, .. })
                ),
                "{bits} counter lines"
            );
        }
    }
}
