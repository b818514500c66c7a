//! The event queue.
//!
//! The simulator's future-event population is structurally tiny and
//! bounded: at most **one** pending [`Event::RequestArrival`] per agent
//! (an agent's next arrival is scheduled only when its previous one has
//! been consumed), at most one [`Event::ArbitrationComplete`] (arbitration
//! is exclusive on the lines), and at most one [`Event::TransactionEnd`]
//! (the bus carries one transaction at a time). [`CalendarQueue`] exploits
//! that bound with a **fixed-slot calendar** — one slot per agent plus two
//! singleton slots — and picks the next event in constant time instead of
//! maintaining a general-purpose heap.
//!
//! **Self-indexing keys.** Each pending arrival is one `u128` ordering
//! key, stored in struct-of-arrays planes monomorphized over the width
//! `W` (in 64-slot words, so `CalendarQueue<1>` covers 64 agents and
//! `CalendarQueue<2>` the full 128-agent ceiling):
//!
//! ```text
//! key = time_key << 64 | seq << 7 | slot
//! ```
//!
//! `time_key` is a monotone image of the timestamp, `seq` the insertion
//! sequence and `slot` the agent's index. `seq` is unique, so the slot
//! bits never decide an order: a plain `u128` minimum realizes the
//! `(time, insertion)` arrival order, and the minimum names its own
//! winner as `key & 127`. This is the paper's composite arbitration
//! number in software — the winner's identity is the low-order field of
//! the number the maximum-finding lines settle to, so no separate index
//! is needed. A verbatim [`Time`] plane returns exact timestamps (the
//! key normalizes `-0.0`).
//!
//! **Cached arrival minimum.** Each 64-slot word is split into 8 groups
//! of 8 slots. The calendar keeps the minimum key of every group and one
//! cached minimum over all groups. Scheduling an arrival folds its key
//! into its group minimum and the cached minimum, one `min` each. Only
//! popping an arrival changes the cached minimum: the pop rescans its own
//! 8-slot group and then refolds the `8 * W` group minimums. Singleton
//! pops (completion and transaction end, two pops in three in the
//! paper's cells) leave the arrival index untouched, and picking the next
//! event is two singleton compares plus one key compare. The
//! self-rearming request cycle additionally uses the fused
//! [`CalendarQueue::schedule_arrival`] fast path, which skips the
//! event-kind dispatch and re-validation of the general
//! [`CalendarQueue::schedule`] entry point.
//!
//! The legacy `BinaryHeap` implementation is retained as
//! [`HeapEventQueue`] and serves as the reference oracle for the
//! equivalence property tests below.

use busarb_types::{AgentId, Time};

/// A simulation event.
///
/// At equal timestamps events are processed in the order: arbitration
/// completion, transaction end, request arrival (then by insertion order).
/// The arrival-last rule means a request arriving exactly at a transaction
/// boundary has *missed* the arbitration starting at that boundary, which
/// is the conservative hardware interpretation (its request-line assertion
/// propagates after the arbitration-start strobe).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Event {
    /// An in-flight arbitration settles; its winner becomes the next
    /// master.
    ArbitrationComplete,
    /// The current bus transaction finishes.
    TransactionEnd,
    /// An agent finishes its think time and asserts the bus-request line.
    RequestArrival(AgentId),
}

impl Event {
    /// Tie-break rank at equal timestamps (lower runs first). The calendar
    /// encodes these ranks positionally in `CalendarQueue::pick`; only
    /// the reference heap consults this method.
    fn rank(&self) -> u8 {
        match self {
            Event::ArbitrationComplete => 0,
            Event::TransactionEnd => 1,
            Event::RequestArrival(_) => 2,
        }
    }
}

/// Monotone order-preserving map from a finite timestamp to a `u64` key:
/// `a < b ⇔ key(a) < key(b)` and `a == b ⇔ key(a) == key(b)`.
///
/// The IEEE-754 bit pattern of a non-negative float already orders like
/// its value; setting the top bit lifts it above every negative value,
/// whose bits are complemented to reverse their order. Adding `+0.0`
/// first collapses `-0.0` onto `+0.0` (an exponential sample can be
/// `-0.0` when the uniform draw is exactly zero) so the two compare
/// *equal*, exactly as `Time`'s total order treats them. Every finite
/// input maps strictly below `u64::MAX`, which is therefore free to mean
/// "empty slot".
#[inline]
fn time_key(t: Time) -> u64 {
    let bits = (t.as_f64() + 0.0).to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// Width of the slot field at the bottom of an arrival key. Seven bits
/// name the 128 slots of the widest calendar (`W = 2`); wider calendars
/// fail to compile (see `CalendarQueue::SLOTS_FIT`).
///
/// The sequence field above it keeps the remaining 57 bits of the low
/// half. `seq` counts arrival schedules on one calendar, and every run
/// stays far below `2^57 ≈ 1.4 · 10^17` of them: at one schedule per
/// nanosecond a single calendar would need more than four years to
/// exhaust the field, and a run's event budget ends it long before.
const SLOT_BITS: u32 = 7;

/// Extracts the slot index from an arrival key.
const SLOT_MASK: u128 = (1 << SLOT_BITS) - 1;

/// Key of an empty arrival slot or group. No pending arrival reaches it,
/// since every time key is below `u64::MAX`.
const VACANT: u128 = u128::MAX;

/// A singleton slot: the monotone time key (`u64::MAX` while empty) and
/// the verbatim timestamp.
#[derive(Clone, Copy, Debug)]
struct Single {
    key: u64,
    at: Time,
}

impl Single {
    const EMPTY: Single = Single {
        key: u64::MAX,
        at: Time::ZERO,
    };

    fn is_empty(&self) -> bool {
        self.key == u64::MAX
    }

    /// Empties the slot and returns the timestamp it held.
    fn take(&mut self) -> Time {
        self.key = u64::MAX;
        self.at
    }
}

/// Which calendar slot holds the earliest event (internal scan result).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Pick {
    Empty,
    Completion,
    End,
    /// The arrival whose key is the cached minimum.
    Arrival,
}

/// A deterministic future-event list, stored as fixed struct-of-arrays
/// calendar planes over `W * 64` agent slots.
///
/// Events pop in timestamp order; ties resolve by event kind (see
/// [`Event`]) and then by insertion order, so identically seeded runs
/// replay identically — the pop order is bit-for-bit the order the legacy
/// heap implementation ([`HeapEventQueue`]) produces.
///
/// Because each slot holds at most one event, scheduling a second
/// `ArbitrationComplete`, a second `TransactionEnd`, or a second arrival
/// for the same agent before the first has popped is a bug in the caller
/// and panics.
///
/// # Examples
///
/// ```
/// use busarb_sim::{Event, EventQueue};
/// use busarb_types::{AgentId, Time};
///
/// # fn main() -> Result<(), busarb_types::Error> {
/// let mut q = EventQueue::new();
/// q.schedule(Time::from(2.0), Event::TransactionEnd);
/// q.schedule(Time::from(1.0), Event::RequestArrival(AgentId::new(1)?));
/// let (t, e) = q.pop().unwrap();
/// assert_eq!(t, Time::from(1.0));
/// assert!(matches!(e, Event::RequestArrival(_)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct CalendarQueue<const W: usize> {
    /// Singleton slot for the in-flight arbitration's completion.
    completion: Single,
    /// Singleton slot for the current transaction's end.
    end: Single,
    /// Self-indexing arrival keys, one per agent slot (indexed by
    /// `AgentId::index()`, in 64-slot words): time key, insertion
    /// sequence and slot index packed as the module docs describe.
    /// Vacant slots hold [`VACANT`].
    keys: [[u128; 64]; W],
    /// Verbatim timestamps, parallel to `keys` — popped events return the
    /// exact `Time` that was scheduled (the key plane normalizes `-0.0`
    /// and is not inverted back).
    times: [[Time; 64]; W],
    /// The smallest key of each group of 8 consecutive slots ([`VACANT`]
    /// when the group is empty).
    gkey: [[u128; 8]; W],
    /// The smallest key over all groups: the next arrival, named by its
    /// slot field ([`VACANT`] when no arrival is pending).
    amin: u128,
    next_seq: u64,
    len: usize,
}

/// The default-width calendar: two occupancy words, covering the
/// workspace-wide 128-agent ceiling.
pub type EventQueue = CalendarQueue<2>;

impl<const W: usize> CalendarQueue<W> {
    /// Rejects, at compile time, a width whose slots the key's slot field
    /// cannot name (`W > 2`).
    const SLOTS_FIT: () = assert!(
        64 * W <= 1 << SLOT_BITS,
        "the arrival key's slot field covers at most 128 slots"
    );

    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        let () = Self::SLOTS_FIT;
        CalendarQueue {
            completion: Single::EMPTY,
            end: Single::EMPTY,
            keys: [[VACANT; 64]; W],
            times: [[Time::ZERO; 64]; W],
            gkey: [[VACANT; 8]; W],
            amin: VACANT,
            next_seq: 0,
            len: 0,
        }
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if the event's calendar slot is already occupied (two
    /// pending arrivals for one agent, or a second pending singleton
    /// event) — the simulator never does this; see the type docs — or if
    /// an arrival's agent identity exceeds the `W * 64` slots this width
    /// covers.
    pub fn schedule(&mut self, at: Time, event: Event) {
        let single = match event {
            Event::ArbitrationComplete => &mut self.completion,
            Event::TransactionEnd => &mut self.end,
            Event::RequestArrival(agent) => {
                let idx = agent.index();
                assert!(
                    idx < 64 * W,
                    "agent {} exceeds the {} slots of this calendar width",
                    agent.get(),
                    64 * W
                );
                assert!(
                    self.keys[idx / 64][idx % 64] == VACANT,
                    "calendar slot for {event:?} already occupied"
                );
                self.schedule_arrival(at, agent);
                return;
            }
        };
        assert!(
            single.is_empty(),
            "calendar slot for {event:?} already occupied"
        );
        *single = Single {
            key: time_key(at),
            at,
        };
        self.len += 1;
    }

    /// Fused fast path for the self-rearming request cycle: schedules
    /// `RequestArrival(agent)`, skipping the event-kind dispatch and the
    /// release-mode occupancy re-validation of [`CalendarQueue::schedule`].
    /// The simulator calls this for every think-time re-arm — the slot
    /// was vacated when the agent's previous arrival popped, so the
    /// invariant is upheld by construction (and still checked in debug
    /// builds). The key is folded into its group minimum and the cached
    /// minimum, one `min` each.
    #[inline]
    pub fn schedule_arrival(&mut self, at: Time, agent: AgentId) {
        let idx = agent.index();
        debug_assert!(
            idx < 64 * W,
            "agent {} exceeds the {} slots of this calendar width",
            agent.get(),
            64 * W
        );
        debug_assert!(
            self.keys[idx / 64][idx % 64] == VACANT,
            "calendar slot for RequestArrival({agent:?}) already occupied"
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        debug_assert!(seq < 1 << (64 - SLOT_BITS), "sequence field exhausted");
        let key = (u128::from(time_key(at)) << 64) | (u128::from(seq) << SLOT_BITS) | idx as u128;
        let (w, i) = (idx / 64, idx % 64);
        self.keys[w][i] = key;
        self.times[w][i] = at;
        let group = &mut self.gkey[w][i / 8];
        *group = (*group).min(key);
        self.amin = self.amin.min(key);
        self.len += 1;
    }

    /// Locates the earliest pending event from the two singleton keys and
    /// the cached arrival minimum. Completion outranks end at equal time
    /// keys, and an arrival preempts them only when its time key is
    /// *strictly* smaller (arrivals carry the highest tie-break rank).
    #[inline]
    fn pick(&self) -> Pick {
        let (completion, end) = (self.completion.key, self.end.key);
        let single = completion.min(end);
        // A vacant `amin` has high half `u64::MAX`, which is never
        // strictly below `single`, and `single == u64::MAX` ⇔ no
        // singleton is pending.
        if ((self.amin >> 64) as u64) < single {
            Pick::Arrival
        } else if single == u64::MAX {
            Pick::Empty
        } else if completion == single {
            Pick::Completion
        } else {
            Pick::End
        }
    }

    /// Pops the earliest event.
    pub fn pop(&mut self) -> Option<(Time, Event)> {
        let popped = match self.pick() {
            Pick::Empty => return None,
            Pick::Completion => (self.completion.take(), Event::ArbitrationComplete),
            Pick::End => (self.end.take(), Event::TransactionEnd),
            Pick::Arrival => {
                let idx = (self.amin & SLOT_MASK) as usize;
                // `idx + 1 >= 1`, so the identity always constructs;
                // built before any slot bookkeeping so a (debug-only)
                // failure cannot leave the planes half-updated.
                let agent = AgentId::new(idx as u32 + 1).ok()?;
                let (w, i) = (idx / 64, idx % 64);
                self.keys[w][i] = VACANT;
                // The popped key was its group's minimum and the cached
                // minimum: rescan the group's 8 slots (vacant ones lose
                // every comparison), then refold the group minimums.
                let base = i / 8 * 8;
                self.gkey[w][i / 8] = self.keys[w][base..base + 8]
                    .iter()
                    .fold(VACANT, |m, &k| m.min(k));
                self.amin = self.gkey.iter().flatten().fold(VACANT, |m, &k| m.min(k));
                (self.times[w][i], Event::RequestArrival(agent))
            }
        };
        self.len -= 1;
        Some(popped)
    }

    /// Timestamp of the earliest pending event.
    #[must_use]
    pub fn peek_time(&self) -> Option<Time> {
        match self.pick() {
            Pick::Empty => None,
            Pick::Completion => Some(self.completion.at),
            Pick::End => Some(self.end.at),
            Pick::Arrival => {
                let idx = (self.amin & SLOT_MASK) as usize;
                Some(self.times[idx / 64][idx % 64])
            }
        }
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<const W: usize> Default for CalendarQueue<W> {
    fn default() -> Self {
        CalendarQueue::new()
    }
}

/// The pre-calendar `BinaryHeap` event queue, kept as the reference
/// implementation the slot calendar is property-tested against, and as
/// the queue behind the legacy per-agent runner that oracles the
/// struct-of-arrays event loop. Same pop order, bit-for-bit; unlike
/// [`CalendarQueue`] it accepts arbitrarily many pending events of each
/// kind.
pub mod reference {
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    use super::Event;
    use busarb_types::Time;

    /// A scheduled event (internal heap entry).
    #[derive(Clone, Copy, Debug)]
    struct Scheduled {
        at: Time,
        rank: u8,
        seq: u64,
        event: Event,
    }

    impl PartialEq for Scheduled {
        fn eq(&self, other: &Self) -> bool {
            self.cmp(other) == Ordering::Equal
        }
    }

    impl Eq for Scheduled {}

    impl Ord for Scheduled {
        fn cmp(&self, other: &Self) -> Ordering {
            // BinaryHeap is a max-heap; reverse so the earliest event pops
            // first.
            (other.at, other.rank, other.seq).cmp(&(self.at, self.rank, self.seq))
        }
    }

    impl PartialOrd for Scheduled {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    /// The legacy heap-backed deterministic future-event list.
    #[derive(Debug, Default)]
    pub struct HeapEventQueue {
        heap: BinaryHeap<Scheduled>,
        next_seq: u64,
    }

    impl HeapEventQueue {
        /// Creates an empty queue.
        #[must_use]
        pub fn new() -> Self {
            HeapEventQueue::default()
        }

        /// Schedules `event` at absolute time `at`.
        pub fn schedule(&mut self, at: Time, event: Event) {
            self.heap.push(Scheduled {
                at,
                rank: event.rank(),
                seq: self.next_seq,
                event,
            });
            self.next_seq += 1;
        }

        /// Pops the earliest event.
        pub fn pop(&mut self) -> Option<(Time, Event)> {
            self.heap.pop().map(|s| (s.at, s.event))
        }

        /// Timestamp of the earliest pending event.
        #[must_use]
        pub fn peek_time(&self) -> Option<Time> {
            self.heap.peek().map(|s| s.at)
        }

        /// Number of pending events.
        #[must_use]
        pub fn len(&self) -> usize {
            self.heap.len()
        }

        /// Whether the queue is empty.
        #[must_use]
        pub fn is_empty(&self) -> bool {
            self.heap.is_empty()
        }
    }
}

pub use reference::HeapEventQueue;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn id(n: u32) -> AgentId {
        AgentId::new(n).unwrap()
    }

    #[test]
    fn time_key_is_monotone_and_collapses_signed_zero() {
        let samples = [
            -f64::MAX,
            -1.5,
            -f64::MIN_POSITIVE,
            0.0,
            f64::MIN_POSITIVE,
            1.0,
            1.5,
            f64::MAX,
        ];
        for pair in samples.windows(2) {
            let (a, b) = (Time::from(pair[0]), Time::from(pair[1]));
            assert!(time_key(a) < time_key(b), "{a:?} vs {b:?}");
        }
        assert_eq!(time_key(Time::from(-0.0)), time_key(Time::from(0.0)));
        for s in samples {
            assert!(time_key(Time::from(s)) < u64::MAX);
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Time::from(3.0), Event::TransactionEnd);
        q.schedule(Time::from(1.0), Event::RequestArrival(id(1)));
        q.schedule(Time::from(2.0), Event::ArbitrationComplete);
        let times: Vec<f64> = std::iter::from_fn(|| q.pop())
            .map(|(t, _)| t.as_f64())
            .collect();
        assert_eq!(times, [1.0, 2.0, 3.0]);
    }

    #[test]
    fn tie_break_by_event_kind() {
        let mut q = EventQueue::new();
        let t = Time::from(5.0);
        q.schedule(t, Event::RequestArrival(id(1)));
        q.schedule(t, Event::TransactionEnd);
        q.schedule(t, Event::ArbitrationComplete);
        assert_eq!(q.pop().unwrap().1, Event::ArbitrationComplete);
        assert_eq!(q.pop().unwrap().1, Event::TransactionEnd);
        assert_eq!(q.pop().unwrap().1, Event::RequestArrival(id(1)));
    }

    #[test]
    fn tie_break_by_insertion_order_within_kind() {
        let mut q = EventQueue::new();
        let t = Time::from(1.0);
        q.schedule(t, Event::RequestArrival(id(2)));
        q.schedule(t, Event::RequestArrival(id(1)));
        assert_eq!(q.pop().unwrap().1, Event::RequestArrival(id(2)));
        assert_eq!(q.pop().unwrap().1, Event::RequestArrival(id(1)));
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(Time::from(4.0), Event::TransactionEnd);
        q.schedule(Time::from(2.0), Event::ArbitrationComplete);
        assert_eq!(q.peek_time(), Some(Time::from(2.0)));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn slot_frees_on_pop_and_can_be_rescheduled() {
        let mut q = EventQueue::new();
        q.schedule(Time::from(1.0), Event::TransactionEnd);
        assert_eq!(q.pop().unwrap().1, Event::TransactionEnd);
        q.schedule(Time::from(2.0), Event::TransactionEnd);
        assert_eq!(q.pop().unwrap().0, Time::from(2.0));
        assert!(q.pop().is_none());
    }

    #[test]
    fn schedule_arrival_fast_path_orders_like_schedule() {
        let mut fused = EventQueue::new();
        let mut general = EventQueue::new();
        for (agent, at) in [(3u32, 2.0), (1, 2.0), (7, 0.5), (5, 9.0)] {
            fused.schedule_arrival(Time::from(at), id(agent));
            general.schedule(Time::from(at), Event::RequestArrival(id(agent)));
        }
        fused.schedule(Time::from(2.0), Event::ArbitrationComplete);
        general.schedule(Time::from(2.0), Event::ArbitrationComplete);
        loop {
            let (a, b) = (fused.pop(), general.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn group_min_survives_pops_within_a_crowded_group() {
        // Agents 1..=8 share slot group 0; popping the minimum must
        // re-find the next-smallest key inside the same group each time.
        let mut q: CalendarQueue<1> = CalendarQueue::new();
        for agent in 1..=8u32 {
            q.schedule_arrival(Time::from(f64::from(9 - agent)), id(agent));
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::RequestArrival(a) => a.get(),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(order, [8, 7, 6, 5, 4, 3, 2, 1]);
    }

    #[test]
    fn narrow_width_covers_agent_64_and_spans_words_at_two() {
        let mut narrow: CalendarQueue<1> = CalendarQueue::new();
        narrow.schedule(Time::from(1.0), Event::RequestArrival(id(64)));
        assert_eq!(narrow.pop().unwrap().1, Event::RequestArrival(id(64)));

        let mut wide: CalendarQueue<2> = CalendarQueue::new();
        wide.schedule(Time::from(2.0), Event::RequestArrival(id(65)));
        wide.schedule(Time::from(1.0), Event::RequestArrival(id(128)));
        assert_eq!(wide.pop().unwrap().1, Event::RequestArrival(id(128)));
        assert_eq!(wide.pop().unwrap().1, Event::RequestArrival(id(65)));
    }

    #[test]
    #[should_panic(expected = "exceeds the 64 slots")]
    fn narrow_width_rejects_agents_beyond_its_slots() {
        let mut q: CalendarQueue<1> = CalendarQueue::new();
        q.schedule(Time::from(1.0), Event::RequestArrival(id(65)));
    }

    #[test]
    #[should_panic(expected = "already occupied")]
    fn double_scheduling_a_slot_panics() {
        let mut q = EventQueue::new();
        q.schedule(Time::from(1.0), Event::RequestArrival(id(3)));
        q.schedule(Time::from(2.0), Event::RequestArrival(id(3)));
    }

    #[test]
    #[should_panic(expected = "already occupied")]
    fn double_scheduling_a_singleton_panics() {
        let mut q = EventQueue::new();
        q.schedule(Time::from(1.0), Event::TransactionEnd);
        q.schedule(Time::from(2.0), Event::TransactionEnd);
    }

    /// Shadow occupancy for generating valid calendar traces.
    struct Occupancy {
        completion: bool,
        end: bool,
        arrivals: [bool; 128],
    }

    impl Default for Occupancy {
        fn default() -> Self {
            Occupancy {
                completion: false,
                end: false,
                arrivals: [false; 128],
            }
        }
    }

    impl Occupancy {
        fn slot(&mut self, event: Event) -> &mut bool {
            match event {
                Event::ArbitrationComplete => &mut self.completion,
                Event::TransactionEnd => &mut self.end,
                Event::RequestArrival(a) => &mut self.arrivals[a.index()],
            }
        }
    }

    /// Drives one interleaved schedule/pop trace against the reference
    /// heap at an arbitrary calendar width. Agents beyond the width's
    /// `64 * W` slots fold back into it, so the narrow calendar sees the
    /// same trace shape over fewer slots.
    fn check_against_heap<const W: usize>(ops: &[(bool, u8, u32, u32)]) {
        let mut calendar: CalendarQueue<W> = CalendarQueue::new();
        let mut heap = HeapEventQueue::new();
        let mut busy = Occupancy::default();
        for &(is_pop, kind, agent, half_ticks) in ops {
            if is_pop {
                let got = calendar.pop();
                prop_assert_eq!(got, heap.pop());
                if let Some((_, event)) = got {
                    *busy.slot(event) = false;
                }
            } else {
                let event = match kind {
                    0 => Event::ArbitrationComplete,
                    1 => Event::TransactionEnd,
                    _ => Event::RequestArrival(id((agent - 1) % (64 * W as u32) + 1)),
                };
                // Respect the calendar's one-event-per-slot invariant
                // (which the simulator upholds by construction).
                let slot = busy.slot(event);
                if *slot {
                    continue;
                }
                *slot = true;
                let at = Time::from(f64::from(half_ticks) * 0.5);
                // Arrivals alternate between the general entry point and
                // the fused fast path, which must order identically.
                match event {
                    Event::RequestArrival(a) if half_ticks % 2 == 0 => {
                        calendar.schedule_arrival(at, a);
                    }
                    _ => calendar.schedule(at, event),
                }
                heap.schedule(at, event);
            }
            prop_assert_eq!(calendar.len(), heap.len());
            prop_assert_eq!(calendar.peek_time(), heap.peek_time());
        }
        // Drain: the full remaining pop sequences must also agree.
        loop {
            let (a, b) = (calendar.pop(), heap.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The calendar pops the identical `(Time, Event)` sequence the
        /// legacy heap pops, for arbitrary interleaved schedule/pop traces
        /// — including equal-timestamp ties (times are quantized to halves
        /// so collisions are common) — at both monomorphized widths.
        /// Agents come from three clusters: two crowded 8-slot groups at
        /// the bottom of word 0, the boundary between the two words, and
        /// the top of word 1. Pops therefore rescan crowded groups, empty
        /// groups, and move the cached minimum across groups and words.
        #[test]
        fn calendar_matches_reference_heap(
            ops in prop::collection::vec(
                (
                    any::<bool>(),
                    0u8..3,
                    prop_oneof![1u32..=16, 57u32..=72, 121u32..=128],
                    0u32..12,
                ),
                0..200,
            ),
        ) {
            check_against_heap::<1>(&ops);
            check_against_heap::<2>(&ops);
        }
    }
}
