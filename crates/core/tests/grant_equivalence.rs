//! Grant equivalence: every grant of the arbiters whose selection is a
//! shortcut — arrival groups (FCFS planes, hybrid, adaptive), the
//! closed-form rotation (rotating-rr), and the sorted queues (central and
//! ticket FCFS) — equals the maximum of that protocol's composite
//! arbitration number, recomputed just before the arbitration from the
//! public per-agent state (`counter()`, `dynamic_number()`,
//! `last_winner()`, `ticket_of()`) and the requests the test itself
//! injected.
//!
//! The schedules reach every exact fallback: 1–2-bit counters under both
//! overflow policies, urgent traffic pulsing ordinary counters, nonzero
//! tie windows, stuck rotating registers injected mid-run, narrow ticket
//! dispensers that alias, and out-of-order arrival stamps for the central
//! queue.

use std::cmp::Reverse;

use busarb_bus::{ArbitrationNumber, NumberLayout};
use busarb_core::{
    AdaptiveArbiter, AdaptiveConfig, AdaptiveMode, Arbiter, CentralFcfs, CounterPolicy,
    CounterStrategy, DistributedFcfs, FcfsConfig, HybridRrFcfs, PriorityCounterRule,
    RotatingPriority, TicketFcfs,
};
use busarb_types::{AgentId, Priority, Time};
use proptest::prelude::*;

#[derive(Clone, Copy, Debug)]
enum Op {
    /// Agent (reduced modulo the system size), urgent class, time step in
    /// eighths, and whether the stamp lies before the previous one.
    Request(u32, bool, u32, bool),
    Arbitrate,
    /// Stick an agent's rotating register (other arbiters ignore it).
    Fault(u32),
    /// `k` rounds of an urgent request from one agent followed by an
    /// arbitration: pulses that age every waiting ordinary counter past
    /// its capacity.
    Burst(u32, u32),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (1u32..=16, any::<bool>(), 0u32..6, any::<bool>())
                .prop_map(|(a, urgent, dt, back)| Op::Request(a, urgent, dt, back)),
            Just(Op::Arbitrate),
            Just(Op::Arbitrate),
            (1u32..=16).prop_map(Op::Fault),
            (1u32..=16, 1u32..6).prop_map(|(a, k)| Op::Burst(a, k)),
            (1u32..=16, 3u32..6).prop_map(|(a, k)| Op::Burst(a, k)),
        ],
        0..120,
    )
}

fn id(a: u32) -> AgentId {
    AgentId::new(a).expect("identities start at 1")
}

/// What the test knows about one pending request.
#[derive(Clone, Copy, Debug)]
struct Pending {
    agent: AgentId,
    priority: Priority,
    arrived: Time,
    seq: u64,
}

/// Drives `arbiter` through `ops`, asserting before every arbitration
/// that the grant is the pending request with the largest `key` (and
/// `None` exactly when `key` rates no request eligible). With
/// `multiple`, an agent may hold several requests; otherwise requests
/// from busy agents are skipped.
fn check<A: Arbiter, K: Ord>(
    n: u32,
    mut arbiter: A,
    ops: &[Op],
    multiple: bool,
    mut key: impl FnMut(&A, &Pending) -> Option<K>,
    mut fault: impl FnMut(&mut A, AgentId),
) {
    let mut pending: Vec<Pending> = Vec::new();
    let mut now = 0.0f64;
    let mut seq = 0u64;
    let rounds = ops.iter().flat_map(|&op| match op {
        Op::Burst(a, k) => [Op::Request(a, true, 1, false), Op::Arbitrate].repeat(k as usize),
        op => vec![op],
    });
    for op in rounds {
        match op {
            Op::Request(a, urgent, dt, back) => {
                let agent = id((a - 1) % n + 1);
                if !multiple && pending.iter().any(|p| p.agent == agent) {
                    continue;
                }
                now += f64::from(dt) * 0.125;
                let stamp = if back && multiple { now - 0.5 } else { now };
                let priority = if urgent {
                    Priority::Urgent
                } else {
                    Priority::Ordinary
                };
                arbiter.on_request(Time::from(stamp), agent, priority);
                pending.push(Pending {
                    agent,
                    priority,
                    arrived: Time::from(stamp),
                    seq,
                });
                seq += 1;
            }
            Op::Arbitrate => {
                now += 0.25;
                let expected = pending
                    .iter()
                    .enumerate()
                    .filter_map(|(i, p)| key(&arbiter, p).map(|k| (k, i)))
                    .max()
                    .map(|(_, i)| i);
                let grant = arbiter.arbitrate(Time::from(now));
                match expected {
                    Some(i) => {
                        let want = pending.remove(i);
                        let grant = grant.expect("a pending request must be granted");
                        assert_eq!((grant.agent, grant.priority), (want.agent, want.priority));
                    }
                    None => assert_eq!(grant, None),
                }
            }
            Op::Fault(a) => fault(&mut arbiter, id((a - 1) % n + 1)),
            Op::Burst(..) => unreachable!("bursts are expanded above"),
        }
        assert_eq!(arbiter.pending(), pending.len());
    }
}

/// The composite number `[priority | rr | counter | identity]` as the
/// bus lines would carry it, widened so ties between equal composites
/// (impossible on real lines, whose identity fields differ) still rank.
fn composite(layout: NumberLayout, p: &Pending, counter: u64, rr: bool) -> u128 {
    u128::from(
        layout.compose(
            ArbitrationNumber::new(p.agent)
                .with_counter(counter)
                .with_rr(rr)
                .with_priority(p.priority),
        ),
    )
}

fn policy(saturate: bool) -> CounterPolicy {
    if saturate {
        CounterPolicy::Saturate
    } else {
        CounterPolicy::Wrap
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// FCFS-1 and FCFS-2 grant the largest `[priority | counter |
    /// identity]`, including after counters wrap or saturate.
    #[test]
    fn fcfs_grants_the_largest_composite(
        ops in ops(),
        n in prop::sample::select(vec![2u32, 5, 8, 16]),
        counter_bits in prop::sample::select(vec![1u32, 2, 0]),
        saturate in any::<bool>(),
        per_arrival in any::<bool>(),
        matching_only in any::<bool>(),
        tie_window in prop::sample::select(vec![0.0, 0.25]),
    ) {
        let strategy = if per_arrival {
            CounterStrategy::PerArrival
        } else {
            CounterStrategy::PerLostArbitration
        };
        let defaults = FcfsConfig::for_agents(n, strategy);
        let config = FcfsConfig {
            // 0 selects the default (never-wrapping) width.
            counter_bits: if counter_bits == 0 { defaults.counter_bits } else { counter_bits },
            policy: policy(saturate),
            priority_rule: if matching_only {
                PriorityCounterRule::MatchingClassOnly
            } else {
                PriorityCounterRule::Always
            },
            tie_window: Time::from(tie_window),
            ..defaults
        };
        let fcfs = DistributedFcfs::with_config(n, config).unwrap();
        let layout = fcfs.layout().unwrap();
        check(n, fcfs, &ops, false, |a, p| {
            Some(composite(layout, p, a.counter(p.agent).unwrap(), false))
        }, |_, _| {});
    }

    /// The hybrid grants the largest `[priority | counter | rr bit |
    /// identity]`, the rr bit set below the winner register. (The rr bit
    /// sits *below* the counter here, unlike in [`NumberLayout`]'s RR-1
    /// field order, so the key is spelled out as a tuple.)
    #[test]
    fn hybrid_grants_the_largest_composite(
        ops in ops(),
        n in prop::sample::select(vec![2u32, 3, 3, 8, 16]),
        tie_window in prop::sample::select(vec![0.0, 0.25, 0.5]),
    ) {
        let hybrid = HybridRrFcfs::with_tie_window(n, Time::from(tie_window)).unwrap();
        check(n, hybrid, &ops, false, |a, p| {
            let rr = p.agent.get() < a.last_winner();
            Some((p.priority, a.counter(p.agent).unwrap(), rr, p.agent))
        }, |_, _| {});
    }

    /// The adaptive arbiter grants the largest FCFS composite in FCFS
    /// mode and the largest round-robin composite in RR mode.
    #[test]
    fn adaptive_grants_the_largest_composite_of_its_mode(
        ops in ops(),
        n in prop::sample::select(vec![2u32, 3, 3, 8, 16]),
        history in 1usize..6,
        tie_threshold in prop::sample::select(vec![0.2, 0.5]),
        tie_window in prop::sample::select(vec![0.0, 0.25]),
    ) {
        let config = AdaptiveConfig {
            tie_threshold,
            history,
            tie_window: Time::from(tie_window),
        };
        let adaptive = AdaptiveArbiter::with_config(n, config).unwrap();
        let layout = adaptive.layout().unwrap();
        check(n, adaptive, &ops, false, |a, p| {
            Some(match a.mode() {
                AdaptiveMode::Fcfs => composite(layout, p, a.counter(p.agent).unwrap(), false),
                AdaptiveMode::RoundRobin => {
                    composite(layout, p, 0, p.agent.get() < a.last_winner())
                }
            })
        }, |_, _| {});
    }

    /// Rotating-rr grants the largest `[priority | dynamic number]`
    /// (urgent requests by identity), ties between collided registers to
    /// the highest identity — with stuck registers injected mid-run.
    #[test]
    fn rotating_rr_grants_the_largest_dynamic_number(
        ops in ops(),
        n in prop::sample::select(vec![1u32, 2, 5, 8, 16]),
    ) {
        check(n, RotatingPriority::new(n).unwrap(), &ops, false, |a, p| {
            let dynamic = match p.priority {
                Priority::Urgent => 0,
                Priority::Ordinary => a.dynamic_number(p.agent),
            };
            Some((u128::from(p.priority.bit()) << 64)
                | (u128::from(dynamic) << 32)
                | u128::from(p.agent.get()))
        }, RotatingPriority::inject_stuck_register);
    }

    /// Central FCFS serves the earliest arrival stamp of the top class,
    /// then the highest identity, then injection order — with multiple
    /// requests per agent and stamps that run backwards.
    #[test]
    fn central_fcfs_serves_the_earliest_stamp(
        ops in ops(),
        n in prop::sample::select(vec![1u32, 3, 8]),
    ) {
        check(n, CentralFcfs::new(n).unwrap(), &ops, true, |_, p| {
            Some((p.priority, Reverse(p.arrived), p.agent, Reverse(p.seq)))
        }, |_, _| {});
    }

    /// Ticket FCFS grants the highest identity among the holders of the
    /// displayed ticket (urgent requests first, by identity) — including
    /// dispensers narrow enough to alias.
    #[test]
    fn ticket_fcfs_serves_the_displayed_ticket(
        ops in ops(),
        n in prop::sample::select(vec![1u32, 3, 8, 16]),
        ticket_bits in prop::sample::select(vec![1u32, 2, 3, 0]),
    ) {
        let ticket = if ticket_bits == 0 {
            TicketFcfs::new(n).unwrap()
        } else {
            TicketFcfs::with_ticket_bits(n, ticket_bits).unwrap()
        };
        let layout = ticket.layout().unwrap();
        check(n, ticket, &ops, false, |a, p| match p.priority {
            Priority::Urgent => Some(composite(layout, p, 0, false)),
            Priority::Ordinary => {
                let drawn = a.ticket_of(p.agent).unwrap();
                (drawn == a.serving()).then(|| composite(layout, p, drawn, false))
            }
        }, |_, _| {});
    }
}
