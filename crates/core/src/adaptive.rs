//! An adaptive arbiter that switches policy from observed request
//! patterns (paper §5).
//!
//! The paper closes by suggesting "an adaptive scheme that uses the
//! history of request patterns to optimize its behavior". The paper gives
//! no mechanism, so this module documents its own: the arbiter tracks the
//! fraction of recent arrivals that *tied* with another arrival in the
//! same sensing window. A high tie fraction means the FCFS counters are
//! doing little (ties are resolved by raw identity — unfair), so the
//! arbiter switches to round-robin selection; when ties become rare it
//! switches back to FCFS to enjoy the lower waiting-time variance. A 2:1
//! hysteresis between the two thresholds prevents oscillation.

use busarb_bus::signal::CounterPolicy;
use busarb_bus::NumberLayout;
use busarb_types::{AgentId, Error, Priority, Time};

use crate::arbiter::{check_agent, rr_pick, validate_agents, Arbiter, Grant};
use crate::arrival::ArrivalGroups;

/// The policy an [`AdaptiveArbiter`] is currently applying.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash, Debug)]
pub enum AdaptiveMode {
    /// Order by waiting-time counters (FCFS-2 selection).
    #[default]
    Fcfs,
    /// Order by the round-robin scan (RR selection).
    RoundRobin,
}

impl core::fmt::Display for AdaptiveMode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AdaptiveMode::Fcfs => f.write_str("fcfs"),
            AdaptiveMode::RoundRobin => f.write_str("round-robin"),
        }
    }
}

/// Tuning parameters for the [`AdaptiveArbiter`].
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct AdaptiveConfig {
    /// Switch to round-robin when the recent tie fraction exceeds this.
    pub tie_threshold: f64,
    /// Number of recent arrivals considered.
    pub history: usize,
    /// Arrivals within this window of the previous one count as tied.
    pub tie_window: Time,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            tie_threshold: 0.5,
            history: 64,
            tie_window: Time::ZERO,
        }
    }
}

impl AdaptiveConfig {
    fn validate(&self) -> Result<(), Error> {
        if !(0.0..=1.0).contains(&self.tie_threshold) || self.history == 0 {
            return Err(Error::InvalidScenario {
                reason: format!(
                    "adaptive config needs tie_threshold in [0,1] and history > 0, got {} / {}",
                    self.tie_threshold, self.history
                ),
            });
        }
        if self.tie_window < Time::ZERO {
            return Err(Error::InvalidScenario {
                reason: "tie window must be non-negative".to_string(),
            });
        }
        Ok(())
    }
}

/// A fixed-capacity ring of booleans packed 64 to a word, tracking how
/// many are set.
///
/// Replaces a `VecDeque<bool>` (one byte per sample plus an O(history)
/// scan in `tie_fraction`) with a bit plane: push and the running tie
/// count are O(1), and the whole default 64-sample history lives in one
/// machine word.
#[derive(Clone, Debug)]
struct TieRing {
    words: Box<[u64]>,
    capacity: usize,
    /// Bit position of the oldest sample.
    start: usize,
    len: usize,
    /// Number of `true` samples currently in the ring.
    trues: usize,
}

impl TieRing {
    fn new(capacity: usize) -> Self {
        TieRing {
            words: vec![0; capacity.div_ceil(64)].into_boxed_slice(),
            capacity,
            start: 0,
            len: 0,
            trues: 0,
        }
    }

    /// The sample at logical index `i` (0 = oldest).
    fn bit(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let mut pos = self.start + i;
        if pos >= self.capacity {
            pos -= self.capacity;
        }
        (self.words[pos / 64] >> (pos % 64)) & 1 == 1
    }

    /// Appends a sample, evicting the oldest once at capacity.
    fn push(&mut self, sample: bool) {
        if self.len == self.capacity {
            self.trues -= usize::from(self.bit(0));
            self.start += 1;
            if self.start == self.capacity {
                self.start = 0;
            }
            self.len -= 1;
        }
        let mut pos = self.start + self.len;
        if pos >= self.capacity {
            pos -= self.capacity;
        }
        let mask = 1u64 << (pos % 64);
        if sample {
            self.words[pos / 64] |= mask;
        } else {
            self.words[pos / 64] &= !mask;
        }
        self.len += 1;
        self.trues += usize::from(sample);
    }
}

/// An arbiter that adapts between FCFS and round-robin selection based on
/// the observed arrival pattern.
///
/// # Examples
///
/// ```
/// use busarb_core::{AdaptiveArbiter, AdaptiveMode, Arbiter};
/// use busarb_types::{AgentId, Priority, Time};
///
/// # fn main() -> Result<(), busarb_types::Error> {
/// let mut a = AdaptiveArbiter::new(8)?;
/// assert_eq!(a.mode(), AdaptiveMode::Fcfs);
/// a.on_request(Time::ZERO, AgentId::new(3)?, Priority::Ordinary);
/// assert_eq!(a.arbitrate(Time::ZERO).unwrap().agent.get(), 3);
/// # Ok(())
/// # }
/// ```
/// As in the FCFS and hybrid arbiters, outstanding requests live in
/// class masks with waiting-time counters derived from one pulse epoch
/// (the protocol admits one outstanding request per agent, which makes
/// the derived counter exact), grouped by arrival window oldest first:
/// an FCFS-mode grant is the highest identity of the oldest group, an
/// RR-mode grant a mask scan.
#[derive(Clone, Debug)]
pub struct AdaptiveArbiter {
    n: u32,
    config: AdaptiveConfig,
    layout: NumberLayout,
    requests: ArrivalGroups,
    last_pulse: Option<Time>,
    last_winner: u32,
    mode: AdaptiveMode,
    /// Ring of recent arrivals: `true` = tied with the previous arrival.
    recent_ties: TieRing,
    switches: u64,
}

impl AdaptiveArbiter {
    /// Creates an adaptive arbiter with [`AdaptiveConfig::default`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidAgentCount`] if `n` is 0 or exceeds 128.
    pub fn new(n: u32) -> Result<Self, Error> {
        Self::with_config(n, AdaptiveConfig::default())
    }

    /// Creates an adaptive arbiter with explicit tuning.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidAgentCount`] for a bad `n` and
    /// [`Error::InvalidScenario`] for bad tuning parameters.
    pub fn with_config(n: u32, config: AdaptiveConfig) -> Result<Self, Error> {
        validate_agents(n)?;
        config.validate()?;
        let layout = NumberLayout::for_agents(n)?
            .with_counter_bits(AgentId::lines_required(n).max(1))
            .with_rr_bit()
            .with_priority_bit();
        Ok(AdaptiveArbiter {
            n,
            config,
            layout,
            requests: ArrivalGroups::new(
                n,
                1,
                CounterPolicy::Saturate,
                layout.counter_max(),
                false,
            ),
            last_pulse: None,
            last_winner: n + 1,
            mode: AdaptiveMode::Fcfs,
            recent_ties: TieRing::new(config.history),
            switches: 0,
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

    /// The policy currently in force.
    #[must_use]
    pub fn mode(&self) -> AdaptiveMode {
        self.mode
    }

    /// Number of mode switches so far.
    #[must_use]
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// Fraction of recent arrivals that tied with their predecessor.
    #[must_use]
    pub fn tie_fraction(&self) -> f64 {
        if self.recent_ties.len == 0 {
            0.0
        } else {
            self.recent_ties.trues as f64 / self.recent_ties.len as f64
        }
    }

    /// Appends a normalized fingerprint of the arbitration-relevant state
    /// to `out`: outstanding entries in arrival order (sequence numbers
    /// rank-normalized away), the winner register, the mode, and the
    /// tie-history ring (chunked into 64-bit words). The switch statistic
    /// and the `last_pulse` stamp are excluded — the bounded model checker
    /// drives the arbiter with strictly increasing times and a zero tie
    /// window, so a past pulse can never merge with a future arrival.
    #[doc(hidden)]
    pub fn verify_signature(&self, out: &mut Vec<u64>) {
        self.requests.push_signature(out);
        out.push(u64::from(self.last_winner));
        out.push(match self.mode {
            AdaptiveMode::Fcfs => 0,
            AdaptiveMode::RoundRobin => 1,
        });
        // Tie history oldest-first, re-packed into dense 64-bit chunks
        // (the ring's physical words rotate, so they are re-based here).
        out.push(self.recent_ties.len as u64);
        let mut word = 0u64;
        for i in 0..self.recent_ties.len {
            word |= u64::from(self.recent_ties.bit(i)) << (i % 64);
            if i % 64 == 63 || i + 1 == self.recent_ties.len {
                out.push(word);
                word = 0;
            }
        }
    }

    fn update_mode(&mut self) {
        if self.recent_ties.len < self.config.history {
            return; // not enough evidence yet
        }
        let f = self.tie_fraction();
        let next = match self.mode {
            AdaptiveMode::Fcfs if f > self.config.tie_threshold => AdaptiveMode::RoundRobin,
            // 2:1 hysteresis on the way back down.
            AdaptiveMode::RoundRobin if f < self.config.tie_threshold / 2.0 => AdaptiveMode::Fcfs,
            m => m,
        };
        if next != self.mode {
            self.mode = next;
            self.switches += 1;
        }
    }
}

impl Arbiter for AdaptiveArbiter {
    fn name(&self) -> &'static str {
        "adaptive"
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
        let tied = self
            .last_pulse
            .is_some_and(|t| now - t <= self.config.tie_window);
        if !tied {
            // One epoch bump stands in for incrementing every outstanding
            // counter; saturation is applied when the counter is read.
            self.requests.pulse(priority);
            self.last_pulse = Some(now);
        }
        self.recent_ties.push(tied);
        self.update_mode();
        self.requests.insert(agent, priority);
    }

    fn arbitrate(&mut self, _now: Time) -> Option<Grant> {
        let priority = self.requests.top_class()?;
        let (winner, at) = match self.mode {
            // Highest counter (the oldest arrival group), ties to the
            // highest identity.
            AdaptiveMode::Fcfs => self.requests.select(priority, u32::MAX),
            // The RR scan is a pure mask operation: the highest identity
            // below the winner register, wrapping to the top.
            AdaptiveMode::RoundRobin => rr_pick(self.requests.members(priority), self.last_winner)
                .and_then(|agent| Some((agent, self.requests.oldest_of(agent, priority)?))),
        }?; // the top class is non-empty, so both picks find a winner.
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

    fn small_config() -> AdaptiveConfig {
        AdaptiveConfig {
            tie_threshold: 0.5,
            history: 4,
            tie_window: Time::ZERO,
        }
    }

    #[test]
    fn starts_in_fcfs_mode_and_orders_by_arrival() {
        let mut a = AdaptiveArbiter::new(8).unwrap();
        a.on_request(Time::from(0.0), id(2), Priority::Ordinary);
        a.on_request(Time::from(1.0), id(7), Priority::Ordinary);
        assert_eq!(a.mode(), AdaptiveMode::Fcfs);
        assert_eq!(a.arbitrate(Time::ZERO).unwrap().agent, id(2));
        assert_eq!(a.arbitrate(Time::ZERO).unwrap().agent, id(7));
    }

    #[test]
    fn switches_to_rr_under_heavy_ties() {
        let mut a = AdaptiveArbiter::with_config(8, small_config()).unwrap();
        // Four arrivals at the same instant: tie fraction 3/4 > 0.5.
        for agent in [1, 2, 3, 4] {
            a.on_request(Time::ZERO, id(agent), Priority::Ordinary);
        }
        assert_eq!(a.mode(), AdaptiveMode::RoundRobin);
        assert_eq!(a.switches(), 1);
        assert!(a.tie_fraction() > 0.5);
    }

    #[test]
    fn switches_back_with_hysteresis() {
        let mut a = AdaptiveArbiter::with_config(8, small_config()).unwrap();
        for agent in [1, 2, 3, 4] {
            a.on_request(Time::ZERO, id(agent), Priority::Ordinary);
        }
        assert_eq!(a.mode(), AdaptiveMode::RoundRobin);
        for _ in 0..4 {
            a.arbitrate(Time::ZERO);
        }
        // Spread-out arrivals: tie fraction falls to 0 < 0.25.
        for (i, agent) in [5, 6, 7, 8].into_iter().enumerate() {
            a.on_request(Time::from(1.0 + i as f64), id(agent), Priority::Ordinary);
        }
        assert_eq!(a.mode(), AdaptiveMode::Fcfs);
        assert_eq!(a.switches(), 2);
    }

    #[test]
    fn rr_mode_selects_round_robin_order() {
        let mut a = AdaptiveArbiter::with_config(8, small_config()).unwrap();
        // Seed register: serve 5 first.
        a.on_request(Time::ZERO, id(5), Priority::Ordinary);
        a.arbitrate(Time::ZERO);
        // Four same-instant arrivals push the tie fraction to 3/4 > 1/2.
        for agent in [2, 6, 7, 3] {
            a.on_request(Time::from(1.0), id(agent), Priority::Ordinary);
        }
        assert_eq!(a.mode(), AdaptiveMode::RoundRobin);
        // RR scan relative to register 5: 3, 2, then wrap to 7, 6.
        assert_eq!(a.arbitrate(Time::ZERO).unwrap().agent, id(3));
        assert_eq!(a.arbitrate(Time::ZERO).unwrap().agent, id(2));
        assert_eq!(a.arbitrate(Time::ZERO).unwrap().agent, id(7));
        assert_eq!(a.arbitrate(Time::ZERO).unwrap().agent, id(6));
    }

    #[test]
    fn urgent_requests_always_first() {
        let mut a = AdaptiveArbiter::new(8).unwrap();
        a.on_request(Time::from(0.0), id(3), Priority::Ordinary);
        a.on_request(Time::from(1.0), id(1), Priority::Urgent);
        let g = a.arbitrate(Time::ZERO).unwrap();
        assert_eq!((g.agent, g.priority), (id(1), Priority::Urgent));
    }

    #[test]
    fn config_validation() {
        assert!(AdaptiveArbiter::with_config(
            8,
            AdaptiveConfig {
                tie_threshold: 1.5,
                ..AdaptiveConfig::default()
            }
        )
        .is_err());
        assert!(AdaptiveArbiter::with_config(
            8,
            AdaptiveConfig {
                history: 0,
                ..AdaptiveConfig::default()
            }
        )
        .is_err());
        assert!(AdaptiveArbiter::new(0).is_err());
    }

    #[test]
    fn metadata() {
        let a = AdaptiveArbiter::new(16).unwrap();
        assert_eq!(a.name(), "adaptive");
        assert_eq!(a.agents(), 16);
        assert_eq!(a.tie_fraction(), 0.0);
        assert!(a.layout().is_some());
        assert_eq!(AdaptiveMode::Fcfs.to_string(), "fcfs");
        assert_eq!(AdaptiveMode::RoundRobin.to_string(), "round-robin");
    }
}
