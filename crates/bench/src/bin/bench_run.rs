//! `bench_run` — times one simulation cell per protocol under both draw
//! engines, and writes the results to `BENCH_run.json`.
//!
//! ```text
//! bench_run [--out PATH] [--reps N] [--smoke] [--floor PATH]
//!           [--engine reference|fast|both]
//! ```
//!
//! Each protocol runs the same Quick-scale cell (30 agents, load 2.0,
//! deterministic per-protocol seed) through [`Simulation::run_kind`],
//! once per selected draw engine. The JSON records, per (protocol,
//! engine), the event count, minimum wall-clock of `reps` runs, and the
//! derived events/sec and ns/arbitration figures. The `mono_` prefix of
//! those fields names the monomorphized event loop every run goes
//! through; the `--floor` gate reads `mono_events_per_sec`.
//!
//! When both engines are selected (the default), the report also carries
//! a `draw_bound` section: the same cell at CV = 0.1 (Erlang k = 100
//! interrequest times, 100 uniforms per draw on the reference path),
//! timed under each engine with the fast-over-reference speedup per
//! protocol. This is the draw-dominated regime the fast engine exists
//! for; the CV = 1.0 table above is arbitration-dominated and moves far
//! less.
//!
//! `--smoke` drops to the Smoke scale with a single rep — a CI-friendly
//! end-to-end check that the binary runs, not a measurement.
//!
//! `--floor PATH` turns the run into a perf gate: after timing, each
//! protocol's monomorphized events/sec is compared against the matching
//! entry in the committed `BENCH_run.json` at PATH, and the process
//! fails if any protocol lands more than [`FLOOR_DROP`] below its
//! committed figure. Two mechanisms keep the comparison meaningful
//! across machines and runner load:
//!
//! - **Scale matching.** The gate refuses a floor file recorded at a
//!   different scale: a Smoke cell finishes in well under a millisecond,
//!   so its events/sec is dominated by cold caches and first-touch of
//!   the state planes and sits structurally ~2x below the Quick figure.
//!   CI gates at the Quick scale (a few seconds for all 13 protocols).
//! - **Speed calibration.** Every run times a frozen synthetic integer
//!   kernel ([`calibration_kernel`]) and records its ops/sec in the
//!   report. The gate scales each committed floor by the ratio of the
//!   measured to the committed calibration, clamped at 1.0 — a slower
//!   or more loaded runner lowers the bar proportionally, while a
//!   faster one still only has to clear the committed figure. A real
//!   regression cannot hide behind this: the kernel is independent of
//!   the simulator, so protocol changes move the protocol figures and
//!   not the calibration.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use busarb_core::ProtocolKind;
use busarb_experiments::common::seed_for;
use busarb_obs::MetricsSnapshot;
use busarb_experiments::Scale;
use busarb_sim::{RunReport, Simulation, SystemConfig};
use busarb_workload::{DrawEngineKind, Scenario};
use serde::Serialize;

const AGENTS: u32 = 30;
const LOAD: f64 = 2.0;

/// Largest tolerated drop below the committed per-protocol events/sec
/// before `--floor` fails the run (0.25 = fail below 75% of committed),
/// after calibration scaling.
const FLOOR_DROP: f64 = 0.25;

/// Iterations of the calibration kernel per timing window (~10ms on the
/// reference machine — long enough to ride out scheduler jitter, short
/// enough that the minimum over [`CALIBRATION_REPS`] windows lands in a
/// quiet one).
const CALIBRATION_ITERS: u64 = 20_000_000;

/// Timing windows per calibration; the minimum elapsed is used.
const CALIBRATION_REPS: usize = 15;

/// The CV used for the draw-bound comparison cells: 0.1 maps to Erlang
/// shape k = 100, so every interrequest draw costs the reference engine
/// one hundred uniforms and a `ln`.
const DRAW_BOUND_CV: f64 = 0.1;

#[derive(Serialize)]
struct ProtocolTiming {
    protocol: String,
    /// Which draw engine produced this row ("reference" or "fast").
    engine: String,
    events: u64,
    arbitrations: u64,
    mono_min_seconds: f64,
    mono_events_per_sec: f64,
    mono_ns_per_arbitration: f64,
    /// Whole-run registry snapshot of the timed cell, so a benchmark
    /// artifact also documents what the run *did* — grant and completion
    /// counts, wait/queue-depth histograms, event rates.
    metrics: MetricsSnapshot,
}

/// One protocol's reference-vs-fast comparison in the draw-bound
/// (CV = 0.1, Erlang k = 100) regime.
#[derive(Serialize)]
struct DrawBoundTiming {
    protocol: String,
    reference_events: u64,
    fast_events: u64,
    reference_events_per_sec: f64,
    fast_events_per_sec: f64,
    /// `fast_events_per_sec / reference_events_per_sec`.
    fast_speedup: f64,
}

#[derive(Serialize)]
struct BenchReport {
    bench: String,
    scale: String,
    agents: u32,
    load: f64,
    reps: usize,
    /// The draw engines this report carries figures for.
    engines: Vec<String>,
    /// Ops/sec of the frozen [`calibration_kernel`] on this runner —
    /// the machine-speed reference the `--floor` gate scales by.
    calibration_ops_per_sec: f64,
    timings: Vec<ProtocolTiming>,
    /// CV of the `draw_bound` cells (see [`DRAW_BOUND_CV`]).
    draw_bound_cv: f64,
    /// Reference-vs-fast comparison in the draw-dominated regime; empty
    /// when `--engine` restricts the run to a single engine.
    draw_bound: Vec<DrawBoundTiming>,
}

/// Frozen synthetic integer kernel (xor-multiply mixing, the same
/// instruction mix the simulator leans on): `iters` rounds over a
/// running state, returned so the optimizer cannot elide the loop. This
/// function must never change — committed calibration figures would
/// silently lose their meaning.
fn calibration_kernel(iters: u64) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..iters {
        x = (x ^ i).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
    }
    x
}

/// Machine-speed reference: best ops/sec of the calibration kernel over
/// [`CALIBRATION_REPS`] windows.
fn calibrate() -> f64 {
    let mut min = f64::INFINITY;
    for _ in 0..CALIBRATION_REPS {
        let start = Instant::now();
        std::hint::black_box(calibration_kernel(std::hint::black_box(CALIBRATION_ITERS)));
        min = min.min(start.elapsed().as_secs_f64());
    }
    CALIBRATION_ITERS as f64 / min
}

struct Args {
    out: PathBuf,
    reps: usize,
    scale: Scale,
    floor: Option<PathBuf>,
    /// `None` = time both engines (and the draw-bound comparison);
    /// `Some` restricts the dispatch table to one engine.
    engine: Option<DrawEngineKind>,
}

fn parse_args() -> Result<Args, String> {
    let mut out = PathBuf::from("BENCH_run.json");
    let mut reps = 7usize;
    let mut scale = Scale::Quick;
    let mut floor = None;
    let mut engine = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out = PathBuf::from(args.next().ok_or("--out needs a path")?),
            "--reps" => {
                reps = args
                    .next()
                    .ok_or("--reps needs a value")?
                    .parse()
                    .map_err(|e| format!("invalid --reps: {e}"))?;
            }
            "--smoke" => {
                scale = Scale::Smoke;
                reps = 1;
            }
            "--floor" => floor = Some(PathBuf::from(args.next().ok_or("--floor needs a path")?)),
            "--engine" => {
                let value = args.next().ok_or("--engine needs a value")?;
                engine = match value.as_str() {
                    "both" => None,
                    other => Some(
                        DrawEngineKind::parse(other)
                            .ok_or_else(|| format!("unknown engine '{other}' (reference|fast|both)"))?,
                    ),
                };
            }
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    if reps == 0 {
        return Err("--reps must be at least 1".to_string());
    }
    Ok(Args {
        out,
        reps,
        scale,
        floor,
        engine,
    })
}

/// One committed floor entry: `(protocol, engine, mono events/sec)`.
type FloorRate = (String, String, f64);

/// Committed per-(protocol, engine) events/sec figures pulled out of a
/// `BENCH_run.json`, after checking the file was recorded at `scale`
/// (cross-scale throughput is not comparable — see the module docs).
/// Only `scale`, `timings[].protocol`, `timings[].engine`, and
/// `timings[].mono_events_per_sec` are read; every other field
/// (metrics, derived figures) is ignored. Floor files written before
/// the engine dimension existed lack the `engine` field; those entries
/// are treated as reference-engine figures.
fn load_floor(path: &std::path::Path, scale: Scale) -> Result<(f64, Vec<FloorRate>), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read floor file {}: {e}", path.display()))?;
    let floor = serde_json::from_str(&text)
        .map_err(|e| format!("cannot parse floor file {}: {e}", path.display()))?;
    let floor_scale = floor
        .get("scale")
        .and_then(serde::Value::as_str)
        .ok_or_else(|| format!("floor file {} has no scale field", path.display()))?;
    if floor_scale != scale.to_string() {
        return Err(format!(
            "floor file {} was recorded at the {floor_scale} scale but this run measures {scale} — \
             throughput is only comparable within one scale",
            path.display()
        ));
    }
    let calibration = floor
        .get("calibration_ops_per_sec")
        .and_then(serde::Value::as_f64)
        .ok_or_else(|| {
            format!(
                "floor file {} has no calibration_ops_per_sec — regenerate it with this bench_run",
                path.display()
            )
        })?;
    let timings = floor
        .get("timings")
        .and_then(serde::Value::as_array)
        .ok_or_else(|| format!("floor file {} has no timings array", path.display()))?;
    let rates = timings
        .iter()
        .map(|entry| {
            let protocol = entry
                .get("protocol")
                .and_then(serde::Value::as_str)
                .ok_or_else(|| "floor timing entry lacks a protocol name".to_string())?;
            let engine = entry
                .get("engine")
                .and_then(serde::Value::as_str)
                .unwrap_or("reference");
            let rate = entry
                .get("mono_events_per_sec")
                .and_then(serde::Value::as_f64)
                .ok_or_else(|| format!("floor entry {protocol} lacks mono_events_per_sec"))?;
            Ok((protocol.to_string(), engine.to_string(), rate))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok((calibration, rates))
}

/// Compares measured per-protocol throughput against the committed
/// figures at `path`. Returns the list of violations (empty = pass).
/// Protocols missing from the floor file are reported but not failed,
/// so adding a protocol does not require regenerating the floor first.
fn check_floor(
    timings: &[ProtocolTiming],
    path: &std::path::Path,
    scale: Scale,
    calibration: f64,
) -> Result<Vec<String>, String> {
    let (committed_calibration, floor) = load_floor(path, scale)?;
    // A slower or busier runner lowers every floor proportionally; a
    // faster one still only has to clear the committed figures.
    let speed = (calibration / committed_calibration).min(1.0);
    eprintln!(
        "perf floor: calibration {:.2}G ops/s vs committed {:.2}G -> floors scaled by {speed:.2}",
        calibration / 1e9,
        committed_calibration / 1e9
    );
    let mut violations = Vec::new();
    for t in timings {
        let Some((_, _, committed)) = floor
            .iter()
            .find(|(name, engine, _)| *name == t.protocol && *engine == t.engine)
        else {
            eprintln!(
                "perf floor: {} ({}) absent from {}, skipped",
                t.protocol,
                t.engine,
                path.display()
            );
            continue;
        };
        let limit = committed * speed * (1.0 - FLOOR_DROP);
        if t.mono_events_per_sec < limit {
            violations.push(format!(
                "{} ({}): {:.2}M events/s is below the floor of {:.2}M (committed {:.2}M - {:.0}%)",
                t.protocol,
                t.engine,
                t.mono_events_per_sec / 1e6,
                limit / 1e6,
                committed / 1e6,
                FLOOR_DROP * 100.0
            ));
        } else {
            eprintln!(
                "perf floor: {:>14} ({:>9}) ok ({:.2}M >= {:.2}M)",
                t.protocol,
                t.engine,
                t.mono_events_per_sec / 1e6,
                limit / 1e6
            );
        }
    }
    Ok(violations)
}

fn cell_config(kind: ProtocolKind, scale: Scale, engine: DrawEngineKind, cv: f64) -> SystemConfig {
    let scenario = Scenario::equal_load(AGENTS, LOAD, cv).expect("valid scenario");
    SystemConfig::new(scenario)
        .with_batches(scale.batches())
        .with_warmup(scale.warmup())
        .with_seed(seed_for(&format!("bench-run/{kind}")))
        .with_draw_engine(engine)
}

/// One timed run of `f`, returning (elapsed seconds, report).
fn time_once(f: impl FnOnce() -> RunReport) -> (f64, RunReport) {
    let start = Instant::now();
    let report = f();
    (start.elapsed().as_secs_f64(), report)
}

fn time_protocol(
    kind: ProtocolKind,
    scale: Scale,
    reps: usize,
    engine: DrawEngineKind,
) -> ProtocolTiming {
    let sim = Simulation::new(cell_config(kind, scale, engine, 1.0)).expect("valid config");
    let run = || sim.run_kind(kind).expect("valid system size");
    // One untimed warm-up run, then the minimum over `reps` timed runs.
    let mut report = run();
    let mut min = f64::INFINITY;
    for _ in 0..reps {
        let (s, r) = time_once(run);
        min = min.min(s);
        report = r;
    }
    ProtocolTiming {
        protocol: kind.to_string(),
        engine: engine.to_string(),
        events: report.events,
        arbitrations: report.arbitrations,
        mono_min_seconds: min,
        mono_events_per_sec: report.events as f64 / min,
        mono_ns_per_arbitration: min * 1e9 / report.arbitrations as f64,
        metrics: report.metrics,
    }
}

/// Times the CV = 0.1 (Erlang k = 100) cell under both engines. The two
/// engines draw different interrequest streams, so event counts differ
/// slightly; each rate uses its own count. Reference and fast runs
/// interleave inside each rep so both see the same slice of machine
/// noise.
fn time_draw_bound(kind: ProtocolKind, scale: Scale, reps: usize) -> DrawBoundTiming {
    let reference = Simulation::new(cell_config(kind, scale, DrawEngineKind::Reference, DRAW_BOUND_CV))
        .expect("valid config");
    let fast = Simulation::new(cell_config(kind, scale, DrawEngineKind::Fast, DRAW_BOUND_CV))
        .expect("valid config");
    let run_reference = || reference.run_kind(kind).expect("valid system size");
    let run_fast = || fast.run_kind(kind).expect("valid system size");
    let (mut reference_report, mut fast_report) = (run_reference(), run_fast());
    let (mut reference_min, mut fast_min) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        let (s, r) = time_once(run_reference);
        reference_min = reference_min.min(s);
        reference_report = r;
        let (s, r) = time_once(run_fast);
        fast_min = fast_min.min(s);
        fast_report = r;
    }
    let reference_rate = reference_report.events as f64 / reference_min;
    let fast_rate = fast_report.events as f64 / fast_min;
    DrawBoundTiming {
        protocol: kind.to_string(),
        reference_events: reference_report.events,
        fast_events: fast_report.events,
        reference_events_per_sec: reference_rate,
        fast_events_per_sec: fast_rate,
        fast_speedup: fast_rate / reference_rate,
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(v) => v,
        Err(msg) => {
            eprintln!(
                "error: {msg}\nusage: bench_run [--out PATH] [--reps N] [--smoke] [--floor PATH] \
                 [--engine reference|fast|both]"
            );
            return ExitCode::FAILURE;
        }
    };

    let calibration = calibrate();
    eprintln!("calibration: {:.2}G ops/s", calibration / 1e9);

    let engines: Vec<DrawEngineKind> = match args.engine {
        Some(one) => vec![one],
        None => vec![DrawEngineKind::Reference, DrawEngineKind::Fast],
    };
    let mut timings = Vec::new();
    for &engine in &engines {
        for &kind in ProtocolKind::all() {
            let t = time_protocol(kind, args.scale, args.reps, engine);
            eprintln!(
                "{:>14} ({:>9}): {:.4}s ({:.2}M events/s, {:.0} ns/arb)",
                t.protocol,
                t.engine,
                t.mono_min_seconds,
                t.mono_events_per_sec / 1e6,
                t.mono_ns_per_arbitration
            );
            timings.push(t);
        }
    }

    let draw_bound: Vec<DrawBoundTiming> = if args.engine.is_none() {
        ProtocolKind::all()
            .iter()
            .map(|&kind| {
                let t = time_draw_bound(kind, args.scale, args.reps);
                eprintln!(
                    "{:>14} (cv {DRAW_BOUND_CV}): reference {:.2}M events/s  fast {:.2}M  speedup {:.2}x",
                    t.protocol,
                    t.reference_events_per_sec / 1e6,
                    t.fast_events_per_sec / 1e6,
                    t.fast_speedup
                );
                t
            })
            .collect()
    } else {
        eprintln!("draw-bound comparison skipped (--engine restricts the run to one engine)");
        Vec::new()
    };

    if let Some(path) = &args.floor {
        match check_floor(&timings, path, args.scale, calibration) {
            Ok(violations) if violations.is_empty() => {
                eprintln!(
                    "perf floor: all protocols within {:.0}% of committed figures",
                    FLOOR_DROP * 100.0
                );
            }
            Ok(violations) => {
                for v in &violations {
                    eprintln!("perf floor VIOLATION: {v}");
                }
                return ExitCode::FAILURE;
            }
            Err(msg) => {
                eprintln!("error: {msg}");
                return ExitCode::FAILURE;
            }
        }
    }

    let report = BenchReport {
        bench: "single_cell_by_protocol".to_string(),
        scale: args.scale.to_string(),
        agents: AGENTS,
        load: LOAD,
        reps: args.reps,
        engines: engines.iter().map(ToString::to_string).collect(),
        calibration_ops_per_sec: calibration,
        timings,
        draw_bound_cv: DRAW_BOUND_CV,
        draw_bound,
    };
    match serde_json::to_string_pretty(&report) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&args.out, json + "\n") {
                eprintln!("error: cannot write {}: {e}", args.out.display());
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {}", args.out.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: cannot serialize report: {e}");
            ExitCode::FAILURE
        }
    }
}
