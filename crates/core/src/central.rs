//! Central reference arbiters.
//!
//! The paper's claim for the distributed RR protocol is that it is
//! "identical to the central round-robin arbiter", and the FCFS protocol
//! approximates a central FCFS queue. These reference implementations are
//! written *independently* of the distributed ones — the central RR holds a
//! hardware-style request register and rotates it so the scan is a single
//! leading-bit pick (where the distributed arbiter masks below a register
//! value); the central FCFS keeps an arrival-ordered queue — so that
//! equality of grant sequences is a meaningful cross-check (see the
//! `equivalence` property tests).

use core::cmp::Reverse;
use std::collections::VecDeque;

use busarb_types::{AgentId, Error, Priority, Time};

use crate::arbiter::{check_agent, validate_agents, Arbiter, Grant};

/// A central round-robin arbiter: a pointer register plus a request
/// register, scanned by rotating the register and taking its leading bit.
///
/// # Examples
///
/// ```
/// use busarb_core::{Arbiter, CentralRoundRobin};
/// use busarb_types::{AgentId, Priority, Time};
///
/// # fn main() -> Result<(), busarb_types::Error> {
/// let mut rr = CentralRoundRobin::new(3)?;
/// for i in 1..=3 {
///     rr.on_request(Time::ZERO, AgentId::new(i)?, Priority::Ordinary);
/// }
/// assert_eq!(rr.arbitrate(Time::ZERO).unwrap().agent.get(), 3);
/// assert_eq!(rr.arbitrate(Time::ZERO).unwrap().agent.get(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct CentralRoundRobin {
    n: u32,
    /// Request register: bit `a-1` is set while agent `a` has an ordinary
    /// request pending.
    ordinary: u128,
    /// Request register for the urgent class.
    urgent: u128,
    /// Identity of the most recent winner; the next scan starts just below
    /// it and wraps.
    pointer: u32,
}

impl CentralRoundRobin {
    /// Creates a central round-robin arbiter for `n` agents.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidAgentCount`] if `n` is 0 or exceeds 128.
    pub fn new(n: u32) -> Result<Self, Error> {
        validate_agents(n)?;
        Ok(CentralRoundRobin {
            n,
            ordinary: 0,
            urgent: 0,
            // Start as if agent N+1 had just been served, so the first
            // scan begins at the top identity N — matching the distributed
            // protocol's initial register value.
            pointer: n + 1,
        })
    }

    /// Appends a normalized fingerprint of the arbitration-relevant state
    /// (request registers and the scan pointer) to `out`.
    #[doc(hidden)]
    pub fn verify_signature(&self, out: &mut Vec<u64>) {
        for bits in [self.ordinary, self.urgent] {
            out.push(bits as u64);
            out.push((bits >> 64) as u64);
        }
        out.push(u64::from(self.pointer));
    }

    /// Scans `pointer-1, pointer-2, …, 1, N, N-1, …, pointer` and returns
    /// the first requesting agent in `register`.
    ///
    /// The scan is realized as a barrel rotation: aligning the register so
    /// the pointer agent sits at bit 0 places the scan's first candidate at
    /// the top bit, so the whole circular walk collapses to one
    /// leading-bit pick on the rotated word.
    fn scan(&self, register: u128) -> Option<AgentId> {
        if register == 0 {
            return None;
        }
        let n = self.n;
        // `pointer` is in 1..=n+1; both 1 and n+1 start the scan at N.
        let shift = (self.pointer - 1) % n;
        let rotated = if shift == 0 {
            register
        } else {
            let mask = if n == 128 { u128::MAX } else { (1 << n) - 1 };
            ((register >> shift) | (register << (n - shift))) & mask
        };
        let top = 127 - rotated.leading_zeros();
        let winner = (top + shift) % n + 1;
        // `winner >= 1` by construction; `.ok()` folds the (impossible)
        // zero into "no winner" instead of a hot-path panic.
        AgentId::new(winner).ok()
    }
}

impl Arbiter for CentralRoundRobin {
    fn name(&self) -> &'static str {
        "central-rr"
    }

    fn agents(&self) -> u32 {
        self.n
    }

    fn on_request(&mut self, _now: Time, agent: AgentId, priority: Priority) {
        check_agent(agent, self.n);
        let register = match priority {
            Priority::Urgent => &mut self.urgent,
            Priority::Ordinary => &mut self.ordinary,
        };
        let bit = 1u128 << agent.index();
        assert!(
            *register & bit == 0,
            "agent {agent} already has an outstanding request"
        );
        *register |= bit;
    }

    fn arbitrate(&mut self, _now: Time) -> Option<Grant> {
        if self.urgent != 0 {
            // Urgent requests ignore the fairness protocol: served in
            // identity order, matching the distributed default. The
            // identity is built before the register/pointer updates so
            // the (impossible) zero-winner path cannot tear state.
            let winner = 128 - self.urgent.leading_zeros();
            let agent = AgentId::new(winner).ok()?;
            self.urgent &= !(1u128 << (winner - 1));
            self.pointer = winner;
            return Some(Grant {
                agent,
                priority: Priority::Urgent,
                arbitrations: 1,
            });
        }
        let winner = self.scan(self.ordinary)?;
        self.ordinary &= !(1u128 << winner.index());
        self.pointer = winner.get();
        Some(Grant::ordinary(winner))
    }

    fn pending(&self) -> usize {
        (self.ordinary.count_ones() + self.urgent.count_ones()) as usize
    }
}

/// One queued request in the central FCFS arbiter.
#[derive(Clone, Copy, Debug)]
struct QueuedRequest {
    agent: AgentId,
    arrived: Time,
    priority: Priority,
    seq: u64,
}

impl QueuedRequest {
    /// Service order within a class, smallest first: earliest arrival,
    /// then highest identity, then injection order. Sequence numbers are
    /// unique, so the order is total.
    fn service_key(&self) -> (Time, Reverse<AgentId>, u64) {
        (self.arrived, Reverse(self.agent), self.seq)
    }
}

/// A central first-come first-serve arbiter: a literal arrival-ordered
/// queue.
///
/// Requests arriving at exactly the same instant are served in descending
/// static-identity order, matching the distributed protocols' tie rule.
/// Urgent requests form a separate queue served first (FCFS within the
/// class).
///
/// Each class's queue is kept sorted in service order, so a grant pops
/// the front. A request is inserted by walking back from the tail past
/// requests it precedes — nothing, for the usual in-order arrival.
///
/// Unlike the basic protocols, the central queue naturally supports
/// multiple outstanding requests per agent.
///
/// # Examples
///
/// ```
/// use busarb_core::{Arbiter, CentralFcfs};
/// use busarb_types::{AgentId, Priority, Time};
///
/// # fn main() -> Result<(), busarb_types::Error> {
/// let mut fcfs = CentralFcfs::new(8)?;
/// fcfs.on_request(Time::from(1.0), AgentId::new(7)?, Priority::Ordinary);
/// fcfs.on_request(Time::from(0.5), AgentId::new(2)?, Priority::Ordinary);
/// // Earlier arrival wins regardless of identity.
/// assert_eq!(fcfs.arbitrate(Time::from(1.0)).unwrap().agent.get(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct CentralFcfs {
    n: u32,
    /// Queued requests per class (indexed by [`Priority::bit`]), each
    /// sorted by [`QueuedRequest::service_key`].
    queues: [VecDeque<QueuedRequest>; 2],
    next_seq: u64,
}

impl CentralFcfs {
    /// Creates a central FCFS arbiter for `n` agents.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidAgentCount`] if `n` is 0 or exceeds 128.
    pub fn new(n: u32) -> Result<Self, Error> {
        validate_agents(n)?;
        Ok(CentralFcfs {
            n,
            queues: [VecDeque::new(), VecDeque::new()],
            next_seq: 0,
        })
    }

    /// Every queued request, in no particular order.
    fn queued(&self) -> impl Iterator<Item = &QueuedRequest> {
        self.queues[0].iter().chain(&self.queues[1])
    }

    /// Appends a normalized fingerprint of the arbitration-relevant state
    /// to `out`: queued requests in injection order with their class,
    /// identity, and arrival *rank* (absolute arrival times and sequence
    /// numbers grow without bound; only their relative order matters).
    /// Injection order is recovered by a selection scan over the sequence
    /// numbers — allocation-free and diagnostic-only.
    #[doc(hidden)]
    pub fn verify_signature(&self, out: &mut Vec<u64>) {
        out.push(self.pending() as u64);
        let mut last: Option<u64> = None;
        for _ in 0..self.pending() {
            let Some(r) = self
                .queued()
                .filter(|r| last.is_none_or(|l| r.seq > l))
                .min_by_key(|r| r.seq)
            else {
                break;
            };
            let rank = self.queued().filter(|o| o.arrived < r.arrived).count();
            out.push(u64::from(r.agent.get()));
            out.push(u64::from(r.priority.bit()));
            out.push(rank as u64);
            last = Some(r.seq);
        }
    }
}

impl Arbiter for CentralFcfs {
    fn name(&self) -> &'static str {
        "central-fcfs"
    }

    fn agents(&self) -> u32 {
        self.n
    }

    fn on_request(&mut self, now: Time, agent: AgentId, priority: Priority) {
        check_agent(agent, self.n);
        let request = QueuedRequest {
            agent,
            arrived: now,
            priority,
            seq: self.next_seq,
        };
        self.next_seq += 1;
        let queue = &mut self.queues[priority.bit() as usize];
        let key = request.service_key();
        let at = queue
            .iter()
            .rposition(|r| r.service_key() < key)
            .map_or(0, |i| i + 1);
        queue.insert(at, request);
    }

    fn arbitrate(&mut self, _now: Time) -> Option<Grant> {
        let [ordinary, urgent] = &mut self.queues;
        let queue = if urgent.is_empty() { ordinary } else { urgent };
        let r = queue.pop_front()?;
        Some(Grant {
            agent: r.agent,
            priority: r.priority,
            arbitrations: 1,
        })
    }

    fn pending(&self) -> usize {
        self.queues[0].len() + self.queues[1].len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u32) -> AgentId {
        AgentId::new(n).unwrap()
    }

    #[test]
    fn central_rr_cycles() {
        let mut a = CentralRoundRobin::new(4).unwrap();
        for i in 1..=4 {
            a.on_request(Time::ZERO, id(i), Priority::Ordinary);
        }
        let mut order = Vec::new();
        for _ in 0..8 {
            let g = a.arbitrate(Time::ZERO).unwrap();
            order.push(g.agent.get());
            a.on_request(Time::ZERO, g.agent, Priority::Ordinary);
        }
        assert_eq!(order, [4, 3, 2, 1, 4, 3, 2, 1]);
    }

    #[test]
    fn central_rr_scan_wraps() {
        let mut a = CentralRoundRobin::new(8).unwrap();
        a.on_request(Time::ZERO, id(4), Priority::Ordinary);
        assert_eq!(a.arbitrate(Time::ZERO).unwrap().agent, id(4));
        // Pointer at 4: agent 5 is at the *end* of the scan, agent 3 first.
        a.on_request(Time::ZERO, id(5), Priority::Ordinary);
        a.on_request(Time::ZERO, id(3), Priority::Ordinary);
        assert_eq!(a.arbitrate(Time::ZERO).unwrap().agent, id(3));
        assert_eq!(a.arbitrate(Time::ZERO).unwrap().agent, id(5));
    }

    #[test]
    fn central_fcfs_serves_in_arrival_order() {
        let mut a = CentralFcfs::new(8).unwrap();
        a.on_request(Time::from(3.0), id(8), Priority::Ordinary);
        a.on_request(Time::from(1.0), id(1), Priority::Ordinary);
        a.on_request(Time::from(2.0), id(5), Priority::Ordinary);
        let order: Vec<u32> = (0..3)
            .map(|_| a.arbitrate(Time::from(3.0)).unwrap().agent.get())
            .collect();
        assert_eq!(order, [1, 5, 8]);
    }

    #[test]
    fn central_fcfs_simultaneous_ties_by_identity() {
        let mut a = CentralFcfs::new(8).unwrap();
        a.on_request(Time::from(1.0), id(3), Priority::Ordinary);
        a.on_request(Time::from(1.0), id(6), Priority::Ordinary);
        assert_eq!(a.arbitrate(Time::from(1.0)).unwrap().agent, id(6));
        assert_eq!(a.arbitrate(Time::from(1.0)).unwrap().agent, id(3));
    }

    #[test]
    fn central_fcfs_supports_multiple_outstanding() {
        let mut a = CentralFcfs::new(4).unwrap();
        a.on_request(Time::from(1.0), id(2), Priority::Ordinary);
        a.on_request(Time::from(2.0), id(2), Priority::Ordinary);
        a.on_request(Time::from(1.5), id(3), Priority::Ordinary);
        let order: Vec<u32> = (0..3)
            .map(|_| a.arbitrate(Time::from(2.0)).unwrap().agent.get())
            .collect();
        assert_eq!(order, [2, 3, 2]);
        assert_eq!(a.pending(), 0);
    }

    #[test]
    fn central_fcfs_urgent_first_fcfs_within_class() {
        let mut a = CentralFcfs::new(8).unwrap();
        a.on_request(Time::from(0.0), id(8), Priority::Ordinary);
        a.on_request(Time::from(1.0), id(2), Priority::Urgent);
        a.on_request(Time::from(2.0), id(5), Priority::Urgent);
        let g1 = a.arbitrate(Time::from(2.0)).unwrap();
        assert_eq!((g1.agent, g1.priority), (id(2), Priority::Urgent));
        assert_eq!(a.arbitrate(Time::from(2.0)).unwrap().agent, id(5));
        assert_eq!(a.arbitrate(Time::from(2.0)).unwrap().agent, id(8));
    }

    #[test]
    fn central_rr_urgent_first() {
        let mut a = CentralRoundRobin::new(8).unwrap();
        a.on_request(Time::ZERO, id(8), Priority::Ordinary);
        a.on_request(Time::ZERO, id(2), Priority::Urgent);
        let g = a.arbitrate(Time::ZERO).unwrap();
        assert_eq!((g.agent, g.priority), (id(2), Priority::Urgent));
    }

    #[test]
    fn empty_arbiters_return_none() {
        assert!(CentralRoundRobin::new(4)
            .unwrap()
            .arbitrate(Time::ZERO)
            .is_none());
        assert!(CentralFcfs::new(4).unwrap().arbitrate(Time::ZERO).is_none());
    }

    #[test]
    #[should_panic(expected = "already has an outstanding request")]
    fn central_rr_rejects_duplicates() {
        let mut a = CentralRoundRobin::new(4).unwrap();
        a.on_request(Time::ZERO, id(2), Priority::Ordinary);
        a.on_request(Time::ZERO, id(2), Priority::Ordinary);
    }
}
