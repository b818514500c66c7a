//! Allocation regression: the metrics hot path and the binary trace
//! sink must not touch the heap.
//!
//! Every `MetricsRegistry::on_*` method runs once per simulated event —
//! inside the engine's monomorphized hot loop — and so does
//! `BinarySink::record` when the run exports a binary trace. Registry
//! storage and the sink's block are allocated at construction, so
//! steady-state updates and records (block writes included) must
//! perform zero heap allocations. This test pins that with a counting
//! global allocator, the same harness as `busarb-bus`'s arbitration
//! hot-path test.
//!
//! All checks live in ONE `#[test]` function: the test harness runs
//! tests on separate threads, and a concurrently running test would
//! perturb the process-wide allocation counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use busarb_obs::{BinarySink, MetricsRegistry, TraceHeader, TraceSink, TRACE_SCHEMA};
use busarb_types::{AgentId, CoherenceOp, Time, TraceEvent, TraceKind};

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

/// Minimum allocation count of `f` over a few repetitions. The counter
/// is process-wide, so a test-harness thread allocating concurrently can
/// leak a spurious count into one window; a genuine steady-state
/// allocation in `f` shows up in **every** window, so the minimum
/// isolates it.
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

#[test]
fn metrics_hot_path_does_not_allocate() {
    let n = 32u32;
    let mut registry = MetricsRegistry::new(n);
    let ids: Vec<AgentId> = AgentId::all(n).collect();

    // Warm up: drive the registry through a representative event mix.
    let drive = |registry: &mut MetricsRegistry, rounds: usize| {
        let mut t = 0.0f64;
        for i in 0..rounds {
            t += 0.37;
            let agent = ids[i % ids.len()];
            registry.on_event(Time::from(t));
            registry.on_request((i % 17) as u32);
            registry.on_grant(Time::from(t), 1 + (i % 3) as u32);
            registry.on_transfer_start();
            registry.on_completion(agent, t % 11.0);
        }
    };
    drive(&mut registry, 64);

    let allocs = steady_allocations_in(|| drive(&mut registry, 4096));
    assert_eq!(allocs, 0, "metrics hot path allocated");

    // The binary sink: 4096 records of every kind span more than one
    // 64 KiB block, so each window also writes a block out.
    let header = TraceHeader {
        schema: TRACE_SCHEMA.to_string(),
        protocol: "rr".to_string(),
        agents: n,
        seed: 1,
        warmup_samples: 0,
        batches: 2,
        samples_per_batch: 1,
        confidence: 0.9,
    };
    let mut sink = BinarySink::new(std::io::sink(), &header).expect("header encodes");
    let record = |sink: &mut BinarySink<std::io::Sink>, rounds: usize| {
        for i in 0..rounds {
            let agent = ids[i % ids.len()];
            let at = Time::from(i as f64 * 0.37);
            let kind = match i % 5 {
                0 => TraceKind::Request { agent },
                1 => TraceKind::ArbitrationStart {
                    winner: agent,
                    completes: Time::from(i as f64),
                },
                2 => TraceKind::TransferStart { agent },
                3 => TraceKind::TransferEnd { agent, wait: 1.5 },
                _ => TraceKind::Coherence {
                    agent,
                    op: CoherenceOp::WriteMiss,
                    invalidated: 2,
                },
            };
            sink.record(&TraceEvent { at, kind }).expect("sink writes");
        }
    };
    record(&mut sink, 64);
    let allocs = steady_allocations_in(|| record(&mut sink, 4096));
    assert_eq!(allocs, 0, "BinarySink::record allocated");
}
