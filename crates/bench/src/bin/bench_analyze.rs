//! `bench_analyze` — measures streaming trace-analytics throughput and
//! writes the results to `BENCH_analyze.json`.
//!
//! ```text
//! bench_analyze [--out PATH] [--events N] [--streams K] [--reps N] [--smoke]
//! ```
//!
//! The workload is a synthetic BTRC stream (`busarb_tail::synth`),
//! generated on the fly so the numbers measure parsing + analysis, not
//! disk. Two configurations are timed:
//!
//! * **single** — one stream of `--events` events (default 10M) through
//!   the full `busarb analyze` pipeline (replay + usage + fairness +
//!   protocol adapter);
//! * **multi** — `--streams` (default 4) threads each analyzing its own
//!   stream of `events / streams` events concurrently (several
//!   `busarb analyze` passes at once).
//!
//! The report records events/sec overall and per stream, the process's
//! peak resident set (`VmHWM` from `/proc/self/status`, where readable)
//! to document that a 10M-event pass stays flat, and a `meets_target`
//! flag for the ISSUE-level floor of 1M events/sec per stream.
//!
//! `--smoke` drops to 200k events and one rep — a CI-friendly check
//! that the binary runs, not a measurement.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use busarb_obs::{TraceHeader, TraceReader, TRACE_SCHEMA};
use busarb_tail::synth::SyntheticBtrc;
use serde::Serialize;

/// Throughput floor per stream the ISSUE's acceptance criterion sets.
const TARGET_EVENTS_PER_SEC: f64 = 1e6;
const AGENTS: u32 = 16;

#[derive(Serialize)]
struct SingleTiming {
    events: u64,
    min_seconds: f64,
    events_per_sec: f64,
}

#[derive(Serialize)]
struct MultiTiming {
    streams: usize,
    events_total: u64,
    min_seconds: f64,
    events_per_sec_total: f64,
    events_per_sec_per_stream: f64,
}

#[derive(Serialize)]
struct BenchReport {
    bench: String,
    smoke: bool,
    reps: usize,
    agents: u32,
    single: SingleTiming,
    multi: MultiTiming,
    /// Peak resident set in kB (`VmHWM`), if the platform exposes it.
    vm_hwm_kb: Option<u64>,
    /// Whether every configuration sustained [`TARGET_EVENTS_PER_SEC`]
    /// per stream.
    meets_target: bool,
}

struct Args {
    out: PathBuf,
    events: u64,
    streams: usize,
    reps: usize,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut out = PathBuf::from("BENCH_analyze.json");
    let mut events = 10_000_000u64;
    let mut streams = 4usize;
    let mut reps = 3usize;
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out = PathBuf::from(args.next().ok_or("--out needs a path")?),
            "--events" => {
                events = args
                    .next()
                    .ok_or("--events needs a value")?
                    .parse()
                    .map_err(|e| format!("invalid --events: {e}"))?;
            }
            "--streams" => {
                streams = args
                    .next()
                    .ok_or("--streams needs a value")?
                    .parse()
                    .map_err(|e| format!("invalid --streams: {e}"))?;
            }
            "--reps" => {
                reps = args
                    .next()
                    .ok_or("--reps needs a value")?
                    .parse()
                    .map_err(|e| format!("invalid --reps: {e}"))?;
            }
            "--smoke" => {
                smoke = true;
                events = 200_000;
                reps = 1;
            }
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    if reps == 0 || streams == 0 || events < 4 {
        return Err("--reps/--streams must be >= 1 and --events >= 4".to_string());
    }
    Ok(Args {
        out,
        events,
        streams,
        reps,
        smoke,
    })
}

fn header() -> TraceHeader {
    TraceHeader {
        schema: TRACE_SCHEMA.to_string(),
        protocol: "rr".to_string(),
        agents: AGENTS,
        seed: 11,
        warmup_samples: 1000,
        batches: 10,
        samples_per_batch: 100,
        confidence: 0.9,
    }
}

/// Analyzes one synthetic stream of `transactions`; returns events read.
fn analyze_one(transactions: u64) -> u64 {
    let h = header();
    let stream = SyntheticBtrc::new(&h, transactions);
    let mut reader = TraceReader::new(stream).expect("synthetic stream is valid");
    let report = busarb_tail::analyze("bench", &mut reader).expect("synthetic stream analyzes");
    report.events
}

/// Minimum wall-clock of `reps` runs of `f` (no warm-up discard: each
/// rep streams tens of millions of events, dwarfing cold-start noise).
fn time_min(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut min = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        f();
        min = min.min(start.elapsed().as_secs_f64());
    }
    min
}

/// `VmHWM` (peak resident set, kB) from `/proc/self/status`.
fn vm_hwm_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(v) => v,
        Err(msg) => {
            eprintln!(
                "error: {msg}\nusage: bench_analyze [--out PATH] [--events N] [--streams K] [--reps N] [--smoke]"
            );
            return ExitCode::FAILURE;
        }
    };

    // --- Single stream. ---
    let transactions = args.events / 4;
    let events = 4 * transactions;
    let single_min = time_min(args.reps, || {
        let read = analyze_one(transactions);
        assert_eq!(read, events, "short read in single-stream pass");
    });
    let single = SingleTiming {
        events,
        min_seconds: single_min,
        events_per_sec: events as f64 / single_min,
    };
    eprintln!(
        "single: {} events in {:.3}s = {:.2}M events/s",
        single.events,
        single.min_seconds,
        single.events_per_sec / 1e6
    );

    // --- Multi stream: concurrent analyze passes. ---
    let per_stream_tx = (args.events / args.streams as u64 / 4).max(1);
    let per_stream_events = 4 * per_stream_tx;
    let total_events = per_stream_events * args.streams as u64;
    let multi_min = time_min(args.reps, || {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..args.streams)
                .map(|_| scope.spawn(move || analyze_one(per_stream_tx)))
                .collect();
            for handle in handles {
                let read = handle.join().expect("ingest thread");
                assert_eq!(read, per_stream_events, "short read in multi-stream pass");
            }
        });
    });
    let multi = MultiTiming {
        streams: args.streams,
        events_total: total_events,
        min_seconds: multi_min,
        events_per_sec_total: total_events as f64 / multi_min,
        events_per_sec_per_stream: total_events as f64 / multi_min / args.streams as f64,
    };
    eprintln!(
        "multi:  {} streams x {} events in {:.3}s = {:.2}M events/s total ({:.2}M/stream)",
        multi.streams,
        per_stream_events,
        multi.min_seconds,
        multi.events_per_sec_total / 1e6,
        multi.events_per_sec_per_stream / 1e6
    );

    let meets_target = single.events_per_sec >= TARGET_EVENTS_PER_SEC
        && multi.events_per_sec_per_stream >= TARGET_EVENTS_PER_SEC;
    let report = BenchReport {
        bench: "streaming_analyze".to_string(),
        smoke: args.smoke,
        reps: args.reps,
        agents: AGENTS,
        single,
        multi,
        vm_hwm_kb: vm_hwm_kb(),
        meets_target,
    };
    match serde_json::to_string_pretty(&report) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&args.out, json + "\n") {
                eprintln!("error: cannot write {}: {e}", args.out.display());
                return ExitCode::FAILURE;
            }
            eprintln!(
                "wrote {} (meets 1M events/s/stream target: {})",
                args.out.display(),
                report.meets_target
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: cannot serialize report: {e}");
            ExitCode::FAILURE
        }
    }
}
