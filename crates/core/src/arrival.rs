//! Pending requests grouped by arrival epoch, oldest group first: the
//! waiting-time bookkeeping shared by the FCFS planes, the hybrid
//! arbiter, and the adaptive arbiter.
//!
//! **Derived counters.** Each pulse stream keeps a monotone event count
//! (`epoch`); an arriving request records its class's stream epoch
//! (`base`), and its live waiting-time counter is recovered from
//! `delta = epoch - base`: `delta & capacity` under
//! [`CounterPolicy::Wrap`] (the modulus is `capacity + 1`, a power of
//! two) and `min(delta, capacity)` under [`CounterPolicy::Saturate`].
//! This is exact for every request, however many an agent holds: a
//! request's counter depends only on how many listening events elapsed
//! since *its* arrival — so incrementing every waiter is one integer add.
//!
//! **Request queues.** An agent holds up to `r` pending requests (the
//! outstanding limit) in its own `r` pool slots, packed oldest first, so
//! slot order is the agent's arrival order.
//!
//! **Arrival groups.** Requests of one class that recorded the same base
//! hold equal counters at every instant; they form a group, whose member
//! set lists the agents with at least one request in it. Each class
//! keeps its groups in a list ordered oldest first (bases strictly
//! increase along it, since epochs only grow), threaded through a pool of
//! `n · r` slots allocated at construction — a live group is never empty,
//! so there are never more live groups than pending requests. An agent's
//! requests of one class have non-decreasing bases, so those that share a
//! group are adjacent in its queue. Joining the youngest group and opening
//! a new one are O(1); leaving a group (unlinking it when it empties) is
//! an O(r) look at the agent's other requests.
//!
//! **Selection.** While the oldest group's delta is at most `capacity`,
//! no pending counter of the class has wrapped or saturated: every
//! counter equals its delta, deltas of distinct groups differ, and the
//! oldest group holds the unique largest counter. The maximum-finding
//! lines then pick an agent inside that one group, a mask operation, and
//! the agent's oldest request of the class is the one in that group. Only
//! a wrapped or saturated counter — narrow counter fields, or another
//! class's traffic pulsing a shared stream — sends selection to the exact
//! scan over every request of the class.

use core::cmp::Reverse;

use busarb_bus::signal::CounterPolicy;
use busarb_types::{AgentId, AgentSet, Priority};

use crate::arbiter::rr_pick;

/// End-of-list / no-slot marker for the group links.
const NIL: u32 = u32::MAX;

/// One arrival group: the requests of a class that share a base epoch.
#[derive(Clone, Copy, Debug)]
struct Group {
    base: u64,
    /// Agents with at least one request in the group.
    members: AgentSet,
    /// Next-younger group of the class; for a free slot, the next free
    /// slot.
    younger: u32,
    /// Next-older group of the class.
    older: u32,
}

/// One pending request.
#[derive(Clone, Copy, Default, Debug)]
struct Request {
    /// Stream epoch at arrival.
    base: u64,
    /// Arrival sequence number: orders an agent's tied requests and the
    /// signature.
    seq: u64,
    /// Arrival group slot.
    group: u32,
    class: Priority,
}

/// Pending requests of both service classes with their derived
/// waiting-time counters, grouped by arrival epoch (see the module
/// documentation).
#[derive(Clone, Debug)]
pub(crate) struct ArrivalGroups {
    /// Agents with a pending request per class, indexed by
    /// [`Priority::bit`].
    pending: [AgentSet; 2],
    /// Oldest and youngest group slot per class (`NIL` when empty).
    oldest: [u32; 2],
    youngest: [u32; 2],
    /// The group slot pool, `n · r` entries.
    groups: Box<[Group]>,
    /// Head of the free-slot list threaded through `Group::younger`.
    free: u32,
    /// The request queues: agent index `a` owns pool slots `a · r` up to
    /// `(a + 1) · r`, its pending requests packed oldest first.
    requests: Box<[Request]>,
    /// Pending requests per agent.
    len: Box<[u32]>,
    /// Pool slots per agent, `r`, the outstanding-request limit.
    limit: u32,
    /// Pending requests over every agent.
    total: usize,
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
    /// Empty bookkeeping for `n` agents with up to `limit` pending
    /// requests each, whose counters hold at most `capacity` and overflow
    /// by `policy`. With `split_streams`, each class's counters listen
    /// only to that class's pulses.
    pub(crate) fn new(
        n: u32,
        limit: u32,
        policy: CounterPolicy,
        capacity: u64,
        split_streams: bool,
    ) -> Self {
        let slots = n * limit;
        let free_list = (1..=slots).map(|next| Group {
            base: 0,
            members: AgentSet::new(),
            younger: if next == slots { NIL } else { next },
            older: NIL,
        });
        ArrivalGroups {
            pending: [AgentSet::new(); 2],
            oldest: [NIL; 2],
            youngest: [NIL; 2],
            groups: free_list.collect(),
            free: 0,
            requests: vec![Request::default(); slots as usize].into_boxed_slice(),
            len: vec![0; n as usize].into_boxed_slice(),
            limit,
            total: 0,
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

    /// The live counter of a pending request.
    #[inline]
    fn counter_of(&self, request: &Request) -> u64 {
        self.reduce(self.epoch[self.stream(request.class)] - request.base)
    }

    /// `agent`'s pending requests, oldest first.
    #[inline]
    fn queue(&self, agent: AgentId) -> &[Request] {
        let a = agent.index();
        &self.requests[a * self.limit as usize..][..self.len[a] as usize]
    }

    /// Agents with a pending request of one class.
    #[inline]
    pub(crate) fn members(&self, priority: Priority) -> AgentSet {
        self.pending[priority.bit() as usize]
    }

    /// Number of requests `agent` has pending.
    #[inline]
    pub(crate) fn outstanding(&self, agent: AgentId) -> u32 {
        self.len[agent.index()]
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

    /// Number of pending requests.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.total
    }

    /// The live counter of `agent`'s oldest pending request, if it has
    /// one.
    pub(crate) fn counter(&self, agent: AgentId) -> Option<u64> {
        self.queue(agent).first().map(|q| self.counter_of(q))
    }

    /// One counter event of class `priority`: every waiter listening to
    /// its stream increments.
    #[inline]
    pub(crate) fn pulse(&mut self, priority: Priority) {
        self.epoch[self.stream(priority)] += 1;
    }

    /// Records the arrival of a request from `agent`, which must hold
    /// fewer than `r`: it joins the youngest group of its class if that
    /// group arrived at the current epoch, else opens a new youngest
    /// group.
    #[inline]
    pub(crate) fn insert(&mut self, agent: AgentId, priority: Priority) {
        let class = priority.bit() as usize;
        let base = self.epoch[self.stream(priority)];
        let youngest = self.youngest[class];
        let slot = match self.groups.get(youngest as usize) {
            Some(group) if group.base == base => youngest,
            _ => {
                // Fewer than `n · r` requests are pending, so fewer than
                // `n · r` groups are live and the free list is non-empty.
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
        let a = agent.index();
        self.requests[a * self.limit as usize + self.len[a] as usize] = Request {
            base,
            seq: self.next_seq,
            group: slot,
            class: priority,
        };
        self.len[a] += 1;
        self.total += 1;
        self.next_seq += 1;
    }

    /// Position of `agent`'s oldest pending request of class `priority`
    /// in its queue, if it has one.
    #[inline]
    pub(crate) fn oldest_of(&self, agent: AgentId, priority: Priority) -> Option<usize> {
        self.queue(agent).iter().position(|q| q.class == priority)
    }

    /// Removes `agent`'s request at queue position `at`, unlinking its
    /// group if that leaves the group empty.
    #[inline]
    pub(crate) fn remove(&mut self, agent: AgentId, at: usize) {
        let a = agent.index();
        let queue = &mut self.requests[a * self.limit as usize..][..self.len[a] as usize];
        let removed = queue[at];
        // The younger requests move up one slot (none at `r = 1`).
        for k in at + 1..queue.len() {
            queue[k - 1] = queue[k];
        }
        self.len[a] -= 1;
        self.total -= 1;
        // The agent stays in the class, and in the group, while another
        // of its requests is.
        let rest = self.queue(agent);
        let in_class = rest.iter().any(|q| q.class == removed.class);
        let in_group = rest.iter().any(|q| q.group == removed.group);
        let class = removed.class.bit() as usize;
        if !in_class {
            self.pending[class].remove(agent);
        }
        if in_group {
            return;
        }
        let slot = removed.group;
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

    /// The winning request of class `priority`, as its agent and queue
    /// position: the largest counter, ties to the round-robin pick relative
    /// to `register` (the highest identity below it, else the highest
    /// overall — the hybrid's rr bit), then to the agent's oldest request.
    /// A register above every identity reduces the tie-break to plain
    /// identity order, as in the FCFS composite number.
    #[inline]
    pub(crate) fn select(&self, priority: Priority, register: u32) -> Option<(AgentId, usize)> {
        let oldest = self
            .groups
            .get(self.oldest[priority.bit() as usize] as usize)?;
        let epoch = self.epoch[self.stream(priority)];
        if epoch - oldest.base <= self.capacity {
            let agent = rr_pick(oldest.members, register)?;
            return Some((agent, self.oldest_of(agent, priority)?));
        }
        // A wrapped or saturated counter: compare every request's
        // [counter | rr bit | identity], and among one agent's equal
        // requests take the oldest (`Reverse(seq)`; the key is unique
        // per request).
        let mut best = None;
        for agent in self.members(priority) {
            for (at, q) in self.queue(agent).iter().enumerate() {
                if q.class != priority {
                    continue;
                }
                let key = (
                    self.reduce(epoch - q.base),
                    agent.get() < register,
                    agent,
                    Reverse(q.seq),
                );
                if best.as_ref().is_none_or(|(k, _)| key >= *k) {
                    best = Some((key, at));
                }
            }
        }
        best.map(|((_, _, agent, _), at)| (agent, at))
    }

    /// Appends the pending requests in arrival order as `(identity,
    /// class bit, counter)` triples after their count. The order is
    /// recovered by a selection scan over the sequence numbers —
    /// quadratic in the pending count, but allocation-free and
    /// diagnostic-only.
    pub(crate) fn push_signature(&self, out: &mut Vec<u64>) {
        out.push(self.total as u64);
        let agents = self.pending[0].union(self.pending[1]);
        let mut last: Option<u64> = None;
        for _ in 0..self.total {
            let next = agents
                .iter()
                .flat_map(|agent| self.queue(agent).iter().map(move |q| (agent, q)))
                .filter(|(_, q)| last.is_none_or(|l| q.seq > l))
                .min_by_key(|(_, q)| q.seq);
            let Some((agent, q)) = next else {
                break;
            };
            out.push(u64::from(agent.get()));
            out.push(u64::from(q.class.bit()));
            out.push(self.counter_of(q));
            last = Some(q.seq);
        }
    }
}
