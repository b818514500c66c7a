//! Pending requests grouped by arrival epoch, oldest group first: the
//! waiting-time bookkeeping shared by the FCFS planes, the hybrid
//! arbiter, and the adaptive arbiter.
//!
//! **Derived counters.** Each pulse stream keeps a monotone event count
//! (`epoch`); an arriving agent records its class's stream epoch
//! (`base`), and its live waiting-time counter is recovered from
//! `delta = epoch - base`: `delta & capacity` under
//! [`CounterPolicy::Wrap`] (the modulus is `capacity + 1`, a power of
//! two) and `min(delta, capacity)` under [`CounterPolicy::Saturate`].
//! With one outstanding request per agent this is exact — a counter
//! depends only on how many listening events elapsed since its arrival —
//! so incrementing every waiter is one integer add.
//!
//! **Arrival groups.** Agents of one class that recorded the same base
//! hold equal counters at every instant; they form a group. Each class
//! keeps its groups in a list ordered oldest first (bases strictly
//! increase along it, since epochs only grow), threaded through a pool of
//! `n` slots allocated at construction — a live group is never empty, so
//! there are never more live groups than pending agents. Joining the
//! youngest group, opening a new one, and leaving any group (unlinking it
//! when it empties) are all O(1).
//!
//! **Selection.** While the oldest group's delta is at most `capacity`,
//! no pending counter of the class has wrapped or saturated: every
//! counter equals its delta, deltas of distinct groups differ, and the
//! oldest group holds the unique largest counter. The maximum-finding
//! lines then pick inside that one group, a mask operation. Only a
//! wrapped or saturated counter — narrow counter fields, or another
//! class's traffic pulsing a shared stream — sends selection to the exact
//! scan over every member.

use busarb_bus::signal::CounterPolicy;
use busarb_types::{AgentId, AgentSet, Priority};

use crate::arbiter::rr_pick;

/// End-of-list / no-slot marker for the group links.
const NIL: u32 = u32::MAX;

/// One arrival group: the agents of a class that share a base epoch.
#[derive(Clone, Copy, Debug)]
struct Group {
    base: u64,
    members: AgentSet,
    /// Next-younger group of the class; for a free slot, the next free
    /// slot.
    younger: u32,
    /// Next-older group of the class.
    older: u32,
}

/// Pending agents of both service classes with their derived
/// waiting-time counters, grouped by arrival epoch (see the module
/// documentation).
#[derive(Clone, Debug)]
pub(crate) struct ArrivalGroups {
    /// Pending agents per class, indexed by [`Priority::bit`].
    pending: [AgentSet; 2],
    /// Oldest and youngest group slot per class (`NIL` when empty).
    oldest: [u32; 2],
    youngest: [u32; 2],
    /// The group slot pool, `n` entries.
    groups: Box<[Group]>,
    /// Head of the free-slot list threaded through `Group::younger`.
    free: u32,
    /// Stream epoch at each agent's arrival (indexed by
    /// `AgentId::index()`).
    base: Box<[u64]>,
    /// Group slot of each pending agent.
    slot: Box<[u32]>,
    /// Arrival sequence number of each pending agent (signatures only).
    seq: Box<[u64]>,
    next_seq: u64,
    /// Monotone event count per pulse stream, `[ordinary, urgent]`; with
    /// a shared stream only index 0 moves.
    epoch: [u64; 2],
    /// Whether each class has its own pulse stream, or both share one.
    split_streams: bool,
    policy: CounterPolicy,
    /// Largest storable counter value.
    capacity: u64,
}

impl ArrivalGroups {
    /// Empty bookkeeping for `n` agents whose counters hold at most
    /// `capacity` and overflow by `policy`. With `split_streams`, each
    /// class's counters listen only to that class's pulses.
    pub(crate) fn new(n: u32, policy: CounterPolicy, capacity: u64, split_streams: bool) -> Self {
        let free_list = (1..=n).map(|next| Group {
            base: 0,
            members: AgentSet::new(),
            younger: if next == n { NIL } else { next },
            older: NIL,
        });
        ArrivalGroups {
            pending: [AgentSet::new(); 2],
            oldest: [NIL; 2],
            youngest: [NIL; 2],
            groups: free_list.collect(),
            free: 0,
            base: vec![0; n as usize].into_boxed_slice(),
            slot: vec![NIL; n as usize].into_boxed_slice(),
            seq: vec![0; n as usize].into_boxed_slice(),
            next_seq: 0,
            epoch: [0; 2],
            split_streams,
            policy,
            capacity,
        }
    }

    #[inline]
    fn stream(&self, priority: Priority) -> usize {
        if self.split_streams {
            priority.bit() as usize
        } else {
            0
        }
    }

    /// The counter value after `delta` listening events.
    #[inline]
    fn reduce(&self, delta: u64) -> u64 {
        match self.policy {
            CounterPolicy::Wrap => delta & self.capacity,
            CounterPolicy::Saturate => delta.min(self.capacity),
        }
    }

    /// Pending agents of one class.
    #[inline]
    pub(crate) fn members(&self, priority: Priority) -> AgentSet {
        self.pending[priority.bit() as usize]
    }

    /// The class a pending agent waits in, if it is pending.
    #[inline]
    pub(crate) fn class_of(&self, agent: AgentId) -> Option<Priority> {
        if self.pending[1].contains(agent) {
            Some(Priority::Urgent)
        } else if self.pending[0].contains(agent) {
            Some(Priority::Ordinary)
        } else {
            None
        }
    }

    /// The highest class with a pending request.
    #[inline]
    pub(crate) fn top_class(&self) -> Option<Priority> {
        if !self.pending[1].is_empty() {
            Some(Priority::Urgent)
        } else if !self.pending[0].is_empty() {
            Some(Priority::Ordinary)
        } else {
            None
        }
    }

    /// Number of pending agents.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.pending[0].len() + self.pending[1].len()
    }

    /// The live counter of a pending agent of class `priority`.
    #[inline]
    fn counter_in(&self, agent: AgentId, priority: Priority) -> u64 {
        self.reduce(self.epoch[self.stream(priority)] - self.base[agent.index()])
    }

    /// The live counter of `agent`, if it is pending.
    pub(crate) fn counter(&self, agent: AgentId) -> Option<u64> {
        self.class_of(agent).map(|p| self.counter_in(agent, p))
    }

    /// One counter event of class `priority`: every waiter listening to
    /// its stream increments.
    #[inline]
    pub(crate) fn pulse(&mut self, priority: Priority) {
        self.epoch[self.stream(priority)] += 1;
    }

    /// Records the arrival of a request from `agent`, which must not be
    /// pending: it joins the youngest group of its class if that group
    /// arrived at the current epoch, else opens a new youngest group.
    #[inline]
    pub(crate) fn insert(&mut self, agent: AgentId, priority: Priority) {
        let class = priority.bit() as usize;
        let base = self.epoch[self.stream(priority)];
        let youngest = self.youngest[class];
        let slot = match self.groups.get(youngest as usize) {
            Some(group) if group.base == base => youngest,
            _ => {
                // Fewer than `n` agents are pending, so fewer than `n`
                // groups are live and the free list is non-empty.
                let slot = self.free;
                let group = &mut self.groups[slot as usize];
                self.free = group.younger;
                *group = Group {
                    base,
                    members: AgentSet::new(),
                    younger: NIL,
                    older: youngest,
                };
                match self.groups.get_mut(youngest as usize) {
                    Some(previous) => previous.younger = slot,
                    None => self.oldest[class] = slot,
                }
                self.youngest[class] = slot;
                slot
            }
        };
        self.groups[slot as usize].members.insert(agent);
        self.pending[class].insert(agent);
        let i = agent.index();
        self.base[i] = base;
        self.slot[i] = slot;
        self.seq[i] = self.next_seq;
        self.next_seq += 1;
    }

    /// Removes pending `agent` of class `priority`, unlinking its group
    /// if it leaves the group empty.
    #[inline]
    pub(crate) fn remove(&mut self, agent: AgentId, priority: Priority) {
        let class = priority.bit() as usize;
        self.pending[class].remove(agent);
        let slot = self.slot[agent.index()];
        let group = &mut self.groups[slot as usize];
        group.members.remove(agent);
        if !group.members.is_empty() {
            return;
        }
        let (older, younger) = (group.older, group.younger);
        group.younger = self.free;
        self.free = slot;
        match self.groups.get_mut(older as usize) {
            Some(g) => g.younger = younger,
            None => self.oldest[class] = younger,
        }
        match self.groups.get_mut(younger as usize) {
            Some(g) => g.older = older,
            None => self.youngest[class] = older,
        }
    }

    /// The winner among class `priority`: the largest counter, ties to
    /// the round-robin pick relative to `register` (the highest identity
    /// below it, else the highest overall — the hybrid's rr bit). A
    /// register above every identity reduces the tie-break to plain
    /// identity order, as in the FCFS composite number.
    #[inline]
    pub(crate) fn select(&self, priority: Priority, register: u32) -> Option<AgentId> {
        let oldest = self
            .groups
            .get(self.oldest[priority.bit() as usize] as usize)?;
        let epoch = self.epoch[self.stream(priority)];
        if epoch - oldest.base <= self.capacity {
            return rr_pick(oldest.members, register);
        }
        // A wrapped or saturated counter: compare every member's
        // [counter | rr bit | identity] — the ascending scan with a
        // non-strict compare gives exact ties to the highest identity.
        let mut winner = None;
        let mut best = (0u64, false);
        for agent in self.members(priority) {
            let key = (
                self.reduce(epoch - self.base[agent.index()]),
                agent.get() < register,
            );
            if winner.is_none() || key >= best {
                winner = Some(agent);
                best = key;
            }
        }
        winner
    }

    /// Appends the pending requests in arrival order as `(identity,
    /// class bit, counter)` triples after their count. The order is
    /// recovered by a selection scan over the sequence numbers —
    /// quadratic in the pending count, but allocation-free and
    /// diagnostic-only.
    pub(crate) fn push_signature(&self, out: &mut Vec<u64>) {
        let members = self.pending[0].union(self.pending[1]);
        out.push(members.len() as u64);
        let mut last: Option<u64> = None;
        for _ in 0..members.len() {
            let next = members
                .iter()
                .filter(|a| last.is_none_or(|l| self.seq[a.index()] > l))
                .min_by_key(|a| self.seq[a.index()]);
            let Some((agent, priority)) = next.and_then(|a| Some((a, self.class_of(a)?))) else {
                break;
            };
            out.push(u64::from(agent.get()));
            out.push(u64::from(priority.bit()));
            out.push(self.counter_in(agent, priority));
            last = Some(self.seq[agent.index()]);
        }
    }
}
