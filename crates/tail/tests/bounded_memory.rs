//! Bounded-memory guarantee: analyzing a trace 16× longer must not use
//! more heap.
//!
//! The central guarantee of `busarb analyze` is that
//! peak memory is *independent of trace length* — the analyzers hold
//! O(agents + buckets) state and the reader decodes records in place
//! from a fixed-size read buffer. Rather
//! than spot-checking RSS (noisy, allocator-dependent), this test swaps
//! in a global allocator that tracks live bytes and their high-water
//! mark, encodes BTRC streams of two very different lengths into memory
//! with the trace exporter's `BinarySink` before measuring, and asserts
//! the peak while analyzing the long stream does not exceed the short
//! stream's peak plus slack, and that both make the same number
//! of allocations (the decode thread and its batch ring cost a fixed
//! count). It also pins the hot loop: after the pipeline is warm,
//! pushing events performs zero steady-state allocations.
//!
//! Everything runs in ONE `#[test]`: the harness runs tests on separate
//! threads and the allocator counters are process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use busarb_obs::{BinarySink, TraceHeader, TraceReader, TraceSink, TRACE_SCHEMA};
use busarb_tail::{analyze, Pipeline};
use busarb_types::{AgentId, Time, TraceEvent, TraceKind};

struct TrackingAllocator;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

fn on_alloc(size: usize) {
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for TrackingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            on_alloc(new_size - layout.size());
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: TrackingAllocator = TrackingAllocator;

fn header(agents: u32) -> TraceHeader {
    TraceHeader {
        schema: TRACE_SCHEMA.to_string(),
        protocol: "rr".to_string(),
        agents,
        seed: 3,
        warmup_samples: 100,
        batches: 4,
        samples_per_batch: 50,
        confidence: 0.9,
    }
}

/// One bus transaction of `agent` starting at `t`: request,
/// arbitration, transfer start and completion.
fn transaction(t: f64, agent: AgentId) -> [TraceEvent; 4] {
    [
        TraceEvent {
            at: Time::from(t),
            kind: TraceKind::Request { agent },
        },
        TraceEvent {
            at: Time::from(t),
            kind: TraceKind::ArbitrationStart {
                winner: agent,
                completes: Time::from(t + 0.25),
            },
        },
        TraceEvent {
            at: Time::from(t + 0.25),
            kind: TraceKind::TransferStart { agent },
        },
        TraceEvent {
            at: Time::from(t + 1.0),
            kind: TraceKind::TransferEnd { agent, wait: 0.75 },
        },
    ]
}

/// A BTRC stream of `n` transactions, one a time unit, round-robin
/// over the header's roster.
fn btrc(h: &TraceHeader, n: u32) -> Vec<u8> {
    let mut sink = BinarySink::new(Vec::new(), h).expect("in-memory sink");
    for i in 0..n {
        let agent = AgentId::new(1 + i % h.agents).expect("agent in roster");
        for event in transaction(f64::from(i), agent) {
            sink.record(&event).expect("in-memory sink");
        }
    }
    sink.into_inner().expect("in-memory sink")
}

/// Peak live heap while analyzing a stream of `n` transactions, and
/// the allocations `analyze` itself made.
fn peak_during_analysis(n: u32) -> (usize, usize, u64) {
    let bytes = btrc(&header(8), n);
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    let base = LIVE.load(Ordering::Relaxed);
    let mut reader = TraceReader::new(&bytes[..]).expect("encoded stream is valid");
    let allocs = ALLOCS.load(Ordering::Relaxed);
    let report = analyze("encoded", &mut reader).expect("encoded stream analyzes");
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs;
    let peak = PEAK.load(Ordering::Relaxed) - base;
    (peak, allocs, report.events)
}

#[test]
fn peak_memory_is_independent_of_trace_length_and_hot_path_is_steady() {
    // --- Peak-vs-length: 16× more events, same peak (plus slack). ---
    let (short_peak, short_allocs, short_events) = peak_during_analysis(8_192);
    let (long_peak, long_allocs, long_events) = peak_during_analysis(16 * 8_192);
    assert_eq!(short_events, 4 * 8_192);
    assert_eq!(long_events, 4 * 16 * 8_192);
    // The pipeline state is identical in both runs; the only variable
    // heap is transient allocator noise. 64 KiB of slack is far below
    // the ~1.6 MiB the long trace's event list would need if anything
    // materialized it.
    assert!(
        long_peak <= short_peak + (64 << 10),
        "peak grew with trace length: short {short_peak} vs long {long_peak}"
    );
    // The decode thread's batches are allocated before it starts and
    // the hand-off between the threads never allocates, so a trace 16x
    // longer costs not one allocation more.
    assert_eq!(
        short_allocs, long_allocs,
        "allocations grew with trace length"
    );

    // --- Steady state: a warm pipeline pushes events without heap. ---
    let h = header(8);
    let mut pipeline = Pipeline::new(&h).expect("valid header");
    let agent = AgentId::new(1).unwrap();
    let push_all = |base: f64, pipeline: &mut Pipeline| {
        for i in 0..1_000u32 {
            for event in transaction(base + f64::from(i), agent) {
                pipeline.push(&event).unwrap();
            }
        }
    };
    // Warm-up pass absorbs any lazy one-time allocation.
    push_all(0.0, &mut pipeline);
    // Minimum over a few windows tolerates harness threads allocating
    // concurrently; a real per-event allocation would hit every window.
    let steady = (0..3)
        .map(|w| {
            let before = ALLOCS.load(Ordering::Relaxed);
            push_all(10_000.0 * f64::from(w + 1), &mut pipeline);
            ALLOCS.load(Ordering::Relaxed) - before
        })
        .min()
        .expect("non-empty windows");
    assert_eq!(steady, 0, "pipeline push allocated in steady state");
}
