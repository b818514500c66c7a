//! The distributed first-come first-serve protocol (paper §3.2).

use busarb_bus::signal::CounterPolicy;
use busarb_bus::NumberLayout;
use busarb_types::{AgentId, Error, Priority, Time};

use crate::arbiter::{check_agent, validate_agents, Arbiter, Grant};
use crate::arrival::ArrivalGroups;

/// How the waiting-time counters are incremented.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CounterStrategy {
    /// FCFS-1: increment on every **lost arbitration**. Simple hardware (a
    /// modulo counter clocked by the lose signal), but requests arriving in
    /// the same inter-arbitration interval tie and fall back to identity
    /// order.
    PerLostArbitration,
    /// FCFS-2: increment on every **`a-incr` pulse** generated by a newly
    /// arriving request. Requires the extra `a-incr` line but narrows the
    /// tie interval to the pulse-sensing window, making the protocol
    /// "nearly perfectly fair".
    PerArrival,
}

impl core::fmt::Display for CounterStrategy {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CounterStrategy::PerLostArbitration => f.write_str("per lost arbitration"),
            CounterStrategy::PerArrival => f.write_str("per arrival (a-incr)"),
        }
    }
}

/// How priority traffic interacts with the ordinary-class waiting-time
/// counters (paper §3.2, priority integration).
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash, Debug)]
pub enum PriorityCounterRule {
    /// Increment counters on every event regardless of class. Ordinary
    /// counters may overflow under heavy priority traffic and wrap to zero
    /// — "this may be the right approach if the likelihood of overflow is
    /// small".
    #[default]
    Always,
    /// Increment a request's counter only when the triggering event is of
    /// the *same* class: for FCFS-1, only when the winning identity's
    /// priority bit matches; for FCFS-2, via separate `a-incr` and
    /// `a-incr-priority` lines.
    MatchingClassOnly,
}

impl core::fmt::Display for PriorityCounterRule {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PriorityCounterRule::Always => f.write_str("always"),
            PriorityCounterRule::MatchingClassOnly => f.write_str("matching class only"),
        }
    }
}

/// Full configuration of a [`DistributedFcfs`] arbiter.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct FcfsConfig {
    /// Width of the waiting-time counter field in bus lines.
    pub counter_bits: u32,
    /// Overflow behavior of the counters.
    pub policy: CounterPolicy,
    /// Counter increment strategy (FCFS-1 vs FCFS-2).
    pub strategy: CounterStrategy,
    /// Interaction of priority traffic with ordinary counters.
    pub priority_rule: PriorityCounterRule,
    /// Maximum outstanding requests per agent (`r` in the paper). Each
    /// request has its own counter; `ceil(log2 r)` extra counter bits
    /// keep every counter from wrapping. The arbiter allocates `n · r`
    /// request slots at construction.
    pub max_outstanding: u32,
    /// FCFS-2 only: arrivals within this window of the previous `a-incr`
    /// pulse merge with it (equal counters, identity-order tie). Zero means
    /// only arrivals at the identical simulated instant tie.
    pub tie_window: Time,
}

impl FcfsConfig {
    /// The default configuration for `n` agents and a given strategy:
    /// counter just wide enough that it cannot wrap with one outstanding
    /// request per agent, wrap-on-overflow, single outstanding request,
    /// zero tie window.
    #[must_use]
    pub fn for_agents(n: u32, strategy: CounterStrategy) -> Self {
        FcfsConfig {
            counter_bits: AgentId::lines_required(n).max(1),
            policy: CounterPolicy::Wrap,
            strategy,
            priority_rule: PriorityCounterRule::Always,
            max_outstanding: 1,
            tie_window: Time::ZERO,
        }
    }

    fn validate(&self) -> Result<(), Error> {
        if self.counter_bits == 0 {
            return Err(Error::ZeroCounterWidth);
        }
        if self.max_outstanding == 0 {
            return Err(Error::ZeroOutstandingLimit);
        }
        if self.tie_window < Time::ZERO {
            return Err(Error::InvalidScenario {
                reason: "tie window must be non-negative".to_string(),
            });
        }
        Ok(())
    }
}

/// The distributed FCFS arbiter.
///
/// Each agent's arbitration number is `[priority | waiting-time counter |
/// static identity]`, counter above identity, so the maximum-finding lines
/// select the longest-waiting request — "exactly the goal in the FCFS
/// policy". The counter resolution determines how closely true FCFS order
/// is approximated; see [`CounterStrategy`].
///
/// Supports up to [`FcfsConfig::max_outstanding`] requests per agent
/// (paper: *r* outstanding requests need only `ceil(log2 r)` more counter
/// bits). Every request carries its own counter, and one store
/// (`ArrivalGroups`) keeps them for any *r*; an agent's requests with
/// equal counters are served oldest first.
///
/// # Examples
///
/// ```
/// use busarb_core::{Arbiter, CounterStrategy, DistributedFcfs};
/// use busarb_types::{AgentId, Priority, Time};
///
/// # fn main() -> Result<(), busarb_types::Error> {
/// let mut fcfs = DistributedFcfs::new(8, CounterStrategy::PerArrival)?;
/// fcfs.on_request(Time::from(0.0), AgentId::new(3)?, Priority::Ordinary);
/// fcfs.on_request(Time::from(0.1), AgentId::new(8)?, Priority::Ordinary);
/// // Arrival order, not identity order:
/// assert_eq!(fcfs.arbitrate(Time::from(0.2)).unwrap().agent.get(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct DistributedFcfs {
    n: u32,
    config: FcfsConfig,
    layout: NumberLayout,
    /// Pending requests, up to `max_outstanding` per agent, with their
    /// derived counters.
    requests: ArrivalGroups,
    /// Last `a-incr` pulse time per class: `[ordinary, urgent]`. With
    /// [`PriorityCounterRule::Always`] only the ordinary slot is used (a
    /// single shared line).
    last_pulse: [Option<Time>; 2],
}

impl DistributedFcfs {
    /// Creates an FCFS arbiter with [`FcfsConfig::for_agents`] defaults.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidAgentCount`] if `n` is 0 or exceeds 128.
    pub fn new(n: u32, strategy: CounterStrategy) -> Result<Self, Error> {
        Self::with_config(n, FcfsConfig::for_agents(n, strategy))
    }

    /// Creates an FCFS arbiter with an explicit configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidAgentCount`] for a bad `n`,
    /// [`Error::ZeroCounterWidth`] / [`Error::ZeroOutstandingLimit`] /
    /// [`Error::InvalidScenario`] for bad configuration fields (including
    /// `n · max_outstanding` request slots past `u32`), and
    /// [`Error::LayoutTooWide`] when the counter field pushes the
    /// arbitration number past 64 lines.
    pub fn with_config(n: u32, config: FcfsConfig) -> Result<Self, Error> {
        validate_agents(n)?;
        config.validate()?;
        if n.checked_mul(config.max_outstanding).is_none() {
            return Err(Error::InvalidScenario {
                reason: format!(
                    "{n} agents x {} outstanding requests overflow the request pool",
                    config.max_outstanding
                ),
            });
        }
        let layout = NumberLayout::for_agents(n)?
            .with_counter_bits(config.counter_bits)
            .with_priority_bit()
            .checked()?;
        Ok(DistributedFcfs {
            n,
            config,
            layout,
            requests: ArrivalGroups::new(
                n,
                config.max_outstanding,
                config.policy,
                layout.counter_max(),
                config.priority_rule == PriorityCounterRule::MatchingClassOnly,
            ),
            last_pulse: [None, None],
        })
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &FcfsConfig {
        &self.config
    }

    /// Current counter of the oldest outstanding request of `agent`, if
    /// any — mainly for tests and diagnostics.
    #[must_use]
    pub fn counter(&self, agent: AgentId) -> Option<u64> {
        self.requests.counter(agent)
    }

    /// Appends a normalized fingerprint of the arbitration-relevant state
    /// to `out`: outstanding requests in arrival order (sequence numbers
    /// rank-normalized away) with their class and counter value. The
    /// `last_pulse` stamps are excluded — the bounded model checker drives
    /// the arbiter with strictly increasing times and a zero tie window,
    /// so a past pulse can never merge with a future arrival.
    ///
    /// The arrival order is recovered by an in-place selection scan over
    /// the sequence numbers (quadratic in the pending count, but
    /// allocation-free and diagnostic-only).
    #[doc(hidden)]
    pub fn verify_signature(&self, out: &mut Vec<u64>) {
        self.requests.push_signature(out);
    }
}

/// Which pulse stream an event of class `priority` belongs to under
/// `rule`: one shared `a-incr` line, or one per class.
#[inline]
fn stream_of(rule: PriorityCounterRule, priority: Priority) -> usize {
    match rule {
        PriorityCounterRule::Always => 0,
        PriorityCounterRule::MatchingClassOnly => priority.bit() as usize,
    }
}

impl Arbiter for DistributedFcfs {
    fn name(&self) -> &'static str {
        match self.config.strategy {
            CounterStrategy::PerLostArbitration => "fcfs-1",
            CounterStrategy::PerArrival => "fcfs-2",
        }
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
            self.requests.outstanding(agent) < self.config.max_outstanding,
            "agent {agent} exceeds its outstanding-request limit {}",
            self.config.max_outstanding
        );
        if self.config.strategy == CounterStrategy::PerArrival {
            let stream = stream_of(self.config.priority_rule, priority);
            let merged = self.last_pulse[stream].is_some_and(|t| now - t <= self.config.tie_window);
            if !merged {
                // A fresh a-incr pulse: every listening waiter
                // increments — one epoch bump instead of a walk.
                self.last_pulse[stream] = Some(now);
                self.requests.pulse(priority);
            }
        }
        self.requests.insert(agent, priority);
    }

    fn arbitrate(&mut self, _now: Time) -> Option<Grant> {
        // The maximum-finding lines select the highest composite number
        // [priority | counter | identity]: any urgent request beats every
        // ordinary one, so only the top non-empty class competes, and
        // within it the oldest arrival group (exact scan once a counter
        // has wrapped or saturated), ties to the highest identity and
        // then to that agent's oldest request.
        let priority = self.requests.top_class()?;
        let (agent, at) = self.requests.select(priority, u32::MAX)?;
        self.requests.remove(agent, at);
        if self.config.strategy == CounterStrategy::PerLostArbitration {
            // Every still-listening waiter increments: one epoch bump
            // replaces the per-request walk (waiters of the other class
            // under MatchingClassOnly keep their stream's epoch
            // untouched).
            self.requests.pulse(priority);
        }
        Some(Grant {
            agent,
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

    fn fcfs1(n: u32) -> DistributedFcfs {
        DistributedFcfs::new(n, CounterStrategy::PerLostArbitration).unwrap()
    }

    fn fcfs2(n: u32) -> DistributedFcfs {
        DistributedFcfs::new(n, CounterStrategy::PerArrival).unwrap()
    }

    fn req(a: &mut DistributedFcfs, now: f64, agent: u32) {
        a.on_request(Time::from(now), id(agent), Priority::Ordinary);
    }

    fn grant(a: &mut DistributedFcfs) -> u32 {
        a.arbitrate(Time::ZERO).unwrap().agent.get()
    }

    #[test]
    fn fcfs1_ties_within_interval_resolve_by_identity() {
        let mut a = fcfs1(8);
        req(&mut a, 0.0, 3);
        req(&mut a, 0.1, 8); // same inter-arbitration interval
        assert_eq!(grant(&mut a), 8);
        assert_eq!(grant(&mut a), 3);
    }

    #[test]
    fn fcfs1_seniority_beats_identity_across_intervals() {
        let mut a = fcfs1(8);
        req(&mut a, 0.0, 3);
        req(&mut a, 0.0, 5);
        assert_eq!(grant(&mut a), 5); // 3's counter -> 1
        req(&mut a, 1.0, 8);
        assert_eq!(grant(&mut a), 3);
        assert_eq!(grant(&mut a), 8);
    }

    #[test]
    fn fcfs2_serves_strict_arrival_order() {
        let mut a = fcfs2(10);
        req(&mut a, 0.0, 2);
        req(&mut a, 0.5, 9);
        req(&mut a, 1.0, 5);
        req(&mut a, 1.5, 1);
        let order: Vec<u32> = (0..4).map(|_| grant(&mut a)).collect();
        assert_eq!(order, [2, 9, 5, 1]);
    }

    #[test]
    fn fcfs2_same_instant_ties_by_identity() {
        let mut a = fcfs2(10);
        req(&mut a, 1.0, 4);
        req(&mut a, 1.0, 7); // identical instant: merged pulse
        assert_eq!(a.counter(id(4)), Some(0));
        assert_eq!(a.counter(id(7)), Some(0));
        assert_eq!(grant(&mut a), 7);
        assert_eq!(grant(&mut a), 4);
    }

    #[test]
    fn fcfs2_tie_window_merges_nearby_arrivals() {
        let config = FcfsConfig {
            tie_window: Time::from(0.25),
            ..FcfsConfig::for_agents(10, CounterStrategy::PerArrival)
        };
        let mut a = DistributedFcfs::with_config(10, config).unwrap();
        req(&mut a, 0.0, 3);
        req(&mut a, 0.2, 9); // within the window: merged, tie
        req(&mut a, 0.6, 5); // outside: fresh pulse
        assert_eq!(grant(&mut a), 9); // tie broken by identity
        assert_eq!(grant(&mut a), 3);
        assert_eq!(grant(&mut a), 5);
    }

    #[test]
    fn multiple_outstanding_served_oldest_first() {
        let config = FcfsConfig {
            max_outstanding: 3,
            counter_bits: 6,
            ..FcfsConfig::for_agents(8, CounterStrategy::PerArrival)
        };
        let mut a = DistributedFcfs::with_config(8, config).unwrap();
        req(&mut a, 0.0, 2);
        req(&mut a, 1.0, 5);
        req(&mut a, 2.0, 2);
        let order: Vec<u32> = (0..3).map(|_| grant(&mut a)).collect();
        assert_eq!(order, [2, 5, 2]);
    }

    #[test]
    #[should_panic(expected = "outstanding-request limit")]
    fn outstanding_limit_is_enforced() {
        let mut a = fcfs2(4);
        req(&mut a, 0.0, 2);
        req(&mut a, 1.0, 2);
    }

    #[test]
    fn urgent_requests_beat_senior_ordinary_requests() {
        let mut a = fcfs2(8);
        req(&mut a, 0.0, 3);
        req(&mut a, 1.0, 4);
        a.on_request(Time::from(2.0), id(1), Priority::Urgent);
        let g = a.arbitrate(Time::from(2.0)).unwrap();
        assert_eq!((g.agent, g.priority), (id(1), Priority::Urgent));
        assert_eq!(grant(&mut a), 3);
    }

    #[test]
    fn priority_rule_always_can_overflow_ordinary_counters() {
        // 1-bit counters; urgent traffic increments ordinary counters
        // under Always, wrapping them.
        let config = FcfsConfig {
            counter_bits: 1,
            ..FcfsConfig::for_agents(4, CounterStrategy::PerArrival)
        };
        let mut a = DistributedFcfs::with_config(4, config).unwrap();
        req(&mut a, 0.0, 1);
        a.on_request(Time::from(1.0), id(2), Priority::Urgent);
        a.on_request(Time::from(2.0), id(3), Priority::Urgent);
        // Agent 1's counter was pulsed twice: 0 -> 1 -> 0 (wrapped).
        assert_eq!(a.counter(id(1)), Some(0));
    }

    #[test]
    fn priority_rule_matching_class_shields_ordinary_counters() {
        let config = FcfsConfig {
            counter_bits: 1,
            priority_rule: PriorityCounterRule::MatchingClassOnly,
            ..FcfsConfig::for_agents(4, CounterStrategy::PerArrival)
        };
        let mut a = DistributedFcfs::with_config(4, config).unwrap();
        req(&mut a, 0.0, 1);
        a.on_request(Time::from(1.0), id(2), Priority::Urgent);
        a.on_request(Time::from(2.0), id(3), Priority::Urgent);
        // Urgent arrivals pulse the a-incr-priority line only.
        assert_eq!(a.counter(id(1)), Some(0));
        // But an ordinary arrival still pulses it.
        req(&mut a, 3.0, 4);
        assert_eq!(a.counter(id(1)), Some(1));
    }

    #[test]
    fn fcfs1_matching_class_rule_counts_same_class_wins_only() {
        let config = FcfsConfig {
            priority_rule: PriorityCounterRule::MatchingClassOnly,
            ..FcfsConfig::for_agents(8, CounterStrategy::PerLostArbitration)
        };
        let mut a = DistributedFcfs::with_config(8, config).unwrap();
        req(&mut a, 0.0, 1);
        a.on_request(Time::ZERO, id(5), Priority::Urgent);
        // Urgent win: ordinary counter not incremented.
        assert_eq!(a.arbitrate(Time::ZERO).unwrap().agent, id(5));
        assert_eq!(a.counter(id(1)), Some(0));
        req(&mut a, 0.0, 6);
        // Ordinary win by 6: now 1's counter advances.
        assert_eq!(grant(&mut a), 6);
        assert_eq!(a.counter(id(1)), Some(1));
    }

    #[test]
    fn config_validation() {
        let bad_counter = FcfsConfig {
            counter_bits: 0,
            ..FcfsConfig::for_agents(4, CounterStrategy::PerArrival)
        };
        assert!(DistributedFcfs::with_config(4, bad_counter).is_err());
        let bad_outstanding = FcfsConfig {
            max_outstanding: 0,
            ..FcfsConfig::for_agents(4, CounterStrategy::PerArrival)
        };
        assert!(DistributedFcfs::with_config(4, bad_outstanding).is_err());
        let huge_outstanding = FcfsConfig {
            max_outstanding: u32::MAX,
            ..FcfsConfig::for_agents(4, CounterStrategy::PerArrival)
        };
        assert!(matches!(
            DistributedFcfs::with_config(4, huge_outstanding),
            Err(Error::InvalidScenario { .. })
        ));
        assert!(DistributedFcfs::new(0, CounterStrategy::PerArrival).is_err());
    }

    #[test]
    fn counter_fields_past_the_composite_word_are_rejected() {
        // 8 agents: 4 identity lines plus the priority bit leave 59
        // counter lines in a 64-bit arbitration number.
        for bits in [60, 64, 65] {
            let config = FcfsConfig {
                counter_bits: bits,
                ..FcfsConfig::for_agents(8, CounterStrategy::PerArrival)
            };
            assert_eq!(
                DistributedFcfs::with_config(8, config).unwrap_err(),
                Error::LayoutTooWide {
                    width: 5 + bits,
                    max: 64
                },
                "{bits} counter lines"
            );
        }
        let widest = FcfsConfig {
            counter_bits: 59,
            ..FcfsConfig::for_agents(8, CounterStrategy::PerLostArbitration)
        };
        let mut a = DistributedFcfs::with_config(8, widest).unwrap();
        assert_eq!(a.layout().unwrap().width(), 64);
        req(&mut a, 0.0, 3);
        assert_eq!(grant(&mut a), 3);
        req(&mut a, 1.0, 2);
        req(&mut a, 1.0, 7);
        assert_eq!(grant(&mut a), 7); // 2's counter -> 1
        req(&mut a, 2.0, 8);
        assert_eq!(grant(&mut a), 2);
        assert_eq!(grant(&mut a), 8);
    }

    #[test]
    fn names_and_layout() {
        let a = fcfs1(30);
        assert_eq!(a.name(), "fcfs-1");
        let b = fcfs2(30);
        assert_eq!(b.name(), "fcfs-2");
        let k = AgentId::lines_required(30);
        // identity + counter + priority bit
        assert_eq!(b.layout().unwrap().width(), 2 * k + 1);
        assert_eq!(b.config().max_outstanding, 1);
        assert_eq!(
            CounterStrategy::PerArrival.to_string(),
            "per arrival (a-incr)"
        );
        assert_eq!(PriorityCounterRule::Always.to_string(), "always");
    }

    mod differential {
        //! The arrival-group store against a test-local entry list: one
        //! explicit counter per request, incremented on every listening
        //! event, and the winner found by comparing whole composite
        //! numbers.

        use core::cmp::Reverse;

        use super::*;
        use proptest::prelude::*;

        struct Entry {
            agent: AgentId,
            priority: Priority,
            counter: u64,
            seq: u64,
        }

        /// The entry-list model; `entries` stays in arrival order.
        struct Model {
            config: FcfsConfig,
            capacity: u64,
            entries: Vec<Entry>,
            next_seq: u64,
            last_pulse: [Option<Time>; 2],
        }

        impl Model {
            fn pulse(&mut self, class: Priority) {
                let rule = self.config.priority_rule;
                for e in &mut self.entries {
                    if rule == PriorityCounterRule::Always || e.priority == class {
                        e.counter = self.config.policy.increment(e.counter, self.capacity);
                    }
                }
            }

            fn request(&mut self, now: Time, agent: AgentId, priority: Priority) {
                if self.config.strategy == CounterStrategy::PerArrival {
                    let stream = stream_of(self.config.priority_rule, priority);
                    let last = &mut self.last_pulse[stream];
                    if !last.is_some_and(|t| now - t <= self.config.tie_window) {
                        *last = Some(now);
                        self.pulse(priority);
                    }
                }
                self.entries.push(Entry {
                    agent,
                    priority,
                    counter: 0,
                    seq: self.next_seq,
                });
                self.next_seq += 1;
            }

            fn arbitrate(&mut self) -> Option<Grant> {
                let (i, _) = self
                    .entries
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, e)| (e.priority, e.counter, e.agent, Reverse(e.seq)))?;
                let winner = self.entries.remove(i);
                if self.config.strategy == CounterStrategy::PerLostArbitration {
                    self.pulse(winner.priority);
                }
                Some(Grant {
                    agent: winner.agent,
                    priority: winner.priority,
                    arbitrations: 1,
                })
            }

            fn outstanding(&self, agent: AgentId) -> u32 {
                self.entries.iter().filter(|e| e.agent == agent).count() as u32
            }

            fn counter(&self, agent: AgentId) -> Option<u64> {
                self.entries
                    .iter()
                    .find(|e| e.agent == agent)
                    .map(|e| e.counter)
            }

            fn signature(&self) -> Vec<u64> {
                let mut out = vec![self.entries.len() as u64];
                for e in &self.entries {
                    out.extend([
                        u64::from(e.agent.get()),
                        u64::from(e.priority.bit()),
                        e.counter,
                    ]);
                }
                out
            }
        }

        #[derive(Clone, Copy, Debug)]
        enum Op {
            Request(u32, bool, u32),
            Arbitrate,
        }

        fn op_strategy() -> impl Strategy<Value = Op> {
            prop_oneof![
                (1u32..=8, any::<bool>(), 0u32..6)
                    .prop_map(|(a, urgent, dt)| Op::Request(a, urgent, dt)),
                Just(Op::Arbitrate),
            ]
        }

        fn drive(ops: &[Op], config: FcfsConfig) {
            let mut arbiter = DistributedFcfs::with_config(8, config).unwrap();
            let mut model = Model {
                config,
                capacity: arbiter.layout.counter_max(),
                entries: Vec::new(),
                next_seq: 0,
                last_pulse: [None, None],
            };
            let mut now = 0.0f64;
            for &op in ops {
                match op {
                    Op::Request(a, urgent, dt) => {
                        if model.outstanding(id(a)) == config.max_outstanding {
                            continue;
                        }
                        now += f64::from(dt) * 0.125;
                        let t = Time::from(now);
                        let p = if urgent {
                            Priority::Urgent
                        } else {
                            Priority::Ordinary
                        };
                        arbiter.on_request(t, id(a), p);
                        model.request(t, id(a), p);
                    }
                    Op::Arbitrate => {
                        now += 0.5;
                        assert_eq!(arbiter.arbitrate(Time::from(now)), model.arbitrate());
                    }
                }
                assert_eq!(arbiter.pending(), model.entries.len());
                for a in 1..=8 {
                    assert_eq!(arbiter.counter(id(a)), model.counter(id(a)), "agent {a}");
                }
                let mut signature = Vec::new();
                arbiter.verify_signature(&mut signature);
                assert_eq!(signature, model.signature());
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// Grants, pending counts, live counters, and signature
            /// fingerprints agree with the entry-list model across every
            /// outstanding limit × strategy × priority rule × overflow
            /// policy × counter width × tie window combination.
            #[test]
            fn arrival_groups_match_the_entry_list(
                ops in prop::collection::vec(op_strategy(), 0..60),
                max_outstanding in 1u32..=3,
                strategy_arrival in any::<bool>(),
                matching_only in any::<bool>(),
                saturate in any::<bool>(),
                counter_bits in 1u32..=5,
                tie_window in prop::sample::select(vec![0.0, 0.25]),
            ) {
                let config = FcfsConfig {
                    counter_bits,
                    policy: if saturate {
                        CounterPolicy::Saturate
                    } else {
                        CounterPolicy::Wrap
                    },
                    strategy: if strategy_arrival {
                        CounterStrategy::PerArrival
                    } else {
                        CounterStrategy::PerLostArbitration
                    },
                    priority_rule: if matching_only {
                        PriorityCounterRule::MatchingClassOnly
                    } else {
                        PriorityCounterRule::Always
                    },
                    max_outstanding,
                    tie_window: Time::from(tie_window),
                };
                drive(&ops, config);
            }
        }
    }

    #[test]
    fn never_starves_fcfs1() {
        // Adversarial pattern: fresh high-identity requests every
        // arbitration. Agent 1's counter grows monotonically, so it is
        // served within N-1 grants.
        let mut a = fcfs1(8);
        req(&mut a, 0.0, 1);
        let mut served = 0;
        for round in 0..20 {
            let fresh = 2 + (round % 7) as u32;
            if a.counter(id(fresh)).is_none() {
                req(&mut a, round as f64, fresh);
            }
            if grant(&mut a) == 1 {
                served = round + 1;
                break;
            }
        }
        assert!(served > 0 && served <= 8, "agent 1 starved");
    }
}
