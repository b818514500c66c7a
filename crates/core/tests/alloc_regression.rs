//! Allocation regression: steady-state protocol arbitration must not
//! touch the heap.
//!
//! The plane-based arbiters keep all mutable state in fixed-size bit
//! masks and per-agent slot arrays allocated at construction (the
//! arrival-group pool, the rotating arbiter's frozen-register slots, the
//! ticket arbiter's draw-order ring), so `on_request`, `arbitrate`, and
//! the `verify_signature` fingerprint (which writes into a caller-reused
//! buffer via an in-place selection scan) perform zero allocations once
//! warm — on the shortcut paths and on the exact fallbacks alike (narrow
//! FCFS counters, an aliasing ticket dispenser, a stuck rotating
//! register). The central-queue FCFS arbiter reaches the same steady
//! state after its `VecDeque`s grow to the saturated depth. This test pins both with a counting global
//! allocator; `cargo xtask lint` pins the same property structurally by
//! scanning the hot function bodies for allocating constructs.
//!
//! All checks live in ONE `#[test]` function: the test harness runs tests
//! on separate threads, and a concurrently running test would perturb the
//! process-wide allocation counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use busarb_core::{
    AdaptiveArbiter, Arbiter, AssuredAccess, BatchingRule, CentralFcfs, CentralRoundRobin,
    CounterPolicy, CounterStrategy, DistributedFcfs, DistributedRoundRobin, FcfsConfig,
    FixedPriority, HybridRrFcfs, RotatingPriority, TicketFcfs,
};
use busarb_types::{AgentId, Priority, Time};

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Minimum allocation count of `f` over a few repetitions. The counter is
/// process-wide, so a test-harness thread allocating concurrently can leak
/// a spurious count into one window; a genuine steady-state allocation in
/// `f` shows up in **every** window, so the minimum isolates it.
fn steady_allocations_in(mut f: impl FnMut()) -> usize {
    (0..3)
        .map(|_| {
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            f();
            ALLOCATIONS.load(Ordering::Relaxed) - before
        })
        .min()
        .expect("non-empty repetition count")
}

/// Saturates `arbiter` (every agent requesting, each winner immediately
/// re-requesting at a strictly later time), warms it through `4 * n`
/// grants so every internal buffer — the central queue's ring, the
/// signature scratch — reaches its steady capacity, then counts
/// allocations across a grant loop that also fingerprints the full state
/// after every grant.
fn steady_state_allocations<A: Arbiter>(
    arbiter: &mut A,
    n: u32,
    sig: impl Fn(&A, &mut Vec<u64>),
) -> usize {
    let mut clock = 0.0f64;
    let mut signature = Vec::new();
    for a in 1..=n {
        clock += 1.0;
        arbiter.on_request(
            Time::from(clock),
            AgentId::new(a).expect("valid id"),
            Priority::Ordinary,
        );
    }
    for _ in 0..4 * n {
        clock += 1.0;
        let grant = arbiter
            .arbitrate(Time::from(clock))
            .expect("saturated arbiter grants");
        clock += 1.0;
        arbiter.on_request(Time::from(clock), grant.agent, Priority::Ordinary);
        signature.clear();
        sig(arbiter, &mut signature);
    }
    steady_allocations_in(|| {
        for _ in 0..256 {
            clock += 1.0;
            let grant = arbiter
                .arbitrate(Time::from(clock))
                .expect("saturated arbiter grants");
            clock += 1.0;
            arbiter.on_request(Time::from(clock), grant.agent, Priority::Ordinary);
            signature.clear();
            sig(arbiter, &mut signature);
        }
    })
}

#[test]
fn steady_state_arbitration_and_signatures_do_not_allocate() {
    let n = 32;

    let mut fcfs1 =
        DistributedFcfs::new(n, CounterStrategy::PerLostArbitration).expect("valid size");
    assert_eq!(
        steady_state_allocations(&mut fcfs1, n, DistributedFcfs::verify_signature),
        0,
        "fcfs-1: steady-state arbitration allocated"
    );

    let mut fcfs2 = DistributedFcfs::new(n, CounterStrategy::PerArrival).expect("valid size");
    assert_eq!(
        steady_state_allocations(&mut fcfs2, n, DistributedFcfs::verify_signature),
        0,
        "fcfs-2: steady-state arbitration allocated"
    );

    let mut hybrid = HybridRrFcfs::new(n).expect("valid size");
    assert_eq!(
        steady_state_allocations(&mut hybrid, n, HybridRrFcfs::verify_signature),
        0,
        "hybrid: steady-state arbitration allocated"
    );

    let mut adaptive = AdaptiveArbiter::new(n).expect("valid size");
    assert_eq!(
        steady_state_allocations(&mut adaptive, n, AdaptiveArbiter::verify_signature),
        0,
        "adaptive: steady-state arbitration allocated"
    );

    let mut central_rr = CentralRoundRobin::new(n).expect("valid size");
    assert_eq!(
        steady_state_allocations(&mut central_rr, n, CentralRoundRobin::verify_signature),
        0,
        "central-rr: steady-state arbitration allocated"
    );

    let mut central_fcfs = CentralFcfs::new(n).expect("valid size");
    assert_eq!(
        steady_state_allocations(&mut central_fcfs, n, CentralFcfs::verify_signature),
        0,
        "central-fcfs: steady-state arbitration allocated"
    );

    let mut ticket = TicketFcfs::new(n).expect("valid size");
    assert_eq!(
        steady_state_allocations(&mut ticket, n, TicketFcfs::verify_signature),
        0,
        "ticket-fcfs: steady-state arbitration allocated"
    );

    let mut rr = DistributedRoundRobin::new(n).expect("valid size");
    assert_eq!(
        steady_state_allocations(&mut rr, n, DistributedRoundRobin::verify_signature),
        0,
        "rr: steady-state arbitration allocated"
    );

    let mut fixed = FixedPriority::new(n).expect("valid size");
    assert_eq!(
        steady_state_allocations(&mut fixed, n, FixedPriority::verify_signature),
        0,
        "fixed-priority: steady-state arbitration allocated"
    );

    for (rule, name) in [
        (BatchingRule::IdleBatch, "aap-1"),
        (BatchingRule::FairnessRelease, "aap-2"),
        (BatchingRule::ClosedBatch, "aap-2m"),
    ] {
        let mut aap = AssuredAccess::new(n, rule).expect("valid size");
        assert_eq!(
            steady_state_allocations(&mut aap, n, AssuredAccess::verify_signature),
            0,
            "{name}: steady-state arbitration allocated"
        );
    }

    let mut rotating = RotatingPriority::new(n).expect("valid size");
    assert_eq!(
        steady_state_allocations(&mut rotating, n, RotatingPriority::verify_signature),
        0,
        "rotating-rr: steady-state arbitration allocated"
    );

    // The exact fallbacks: a stuck register competing in every scan, an
    // FCFS counter too narrow for the waiting times, and a dispenser whose
    // tickets alias.
    let mut stuck = RotatingPriority::new(n).expect("valid size");
    stuck.inject_stuck_register(AgentId::new(n).expect("valid id"));
    assert_eq!(
        steady_state_allocations(&mut stuck, n, RotatingPriority::verify_signature),
        0,
        "rotating-rr (stuck register): steady-state arbitration allocated"
    );

    let narrow = FcfsConfig {
        counter_bits: 1,
        policy: CounterPolicy::Saturate,
        ..FcfsConfig::for_agents(n, CounterStrategy::PerArrival)
    };
    let mut narrow = DistributedFcfs::with_config(n, narrow).expect("valid config");
    assert_eq!(
        steady_state_allocations(&mut narrow, n, DistributedFcfs::verify_signature),
        0,
        "fcfs-2 (1-bit counter): steady-state arbitration allocated"
    );

    let mut aliased = TicketFcfs::with_ticket_bits(n, 2).expect("valid width");
    assert_eq!(
        steady_state_allocations(&mut aliased, n, TicketFcfs::verify_signature),
        0,
        "ticket-fcfs (2-bit dispenser): steady-state arbitration allocated"
    );
}
