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
//! engine), the event count, minimum wall-clock of `reps` runs (the
//! protocols take turns, one run each per round), and the derived
//! events/sec and ns/arbitration figures. The `mono_` prefix of
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
//! protocol's monomorphized events/sec per engine, and each protocol's
//! draw-bound reference-engine events/sec (the only figure that covers
//! the reference draw path, `StdRng` and exact `ln`, under load), is
//! compared against the matching entry in the committed `BENCH_run.json`
//! at PATH, and the process fails if any figure lands more than
//! [`FLOOR_DROP`] below its committed counterpart. Two mechanisms keep
//! the comparison meaningful across machines and runner load:
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
use busarb_experiments::Scale;
use busarb_obs::MetricsSnapshot;
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
                    other => Some(DrawEngineKind::parse(other).ok_or_else(|| {
                        format!("unknown engine '{other}' (reference|fast|both)")
                    })?),
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

/// One gated throughput figure: `(label, events/sec)`. The label names
/// the protocol and the engine, e.g. `rr (reference)`; draw-bound rows
/// carry a `, draw-bound` suffix, so each figure is only ever compared
/// with its own committed counterpart.
type FloorRate = (String, f64);

fn floor_label(protocol: &str, engine: &str, draw_bound: bool) -> String {
    if draw_bound {
        format!("{protocol} ({engine}, draw-bound)")
    } else {
        format!("{protocol} ({engine})")
    }
}

/// Reads `entry[field]` as a number, naming the entry when it is absent.
fn rate_field(entry: &serde::Value, protocol: &str, field: &str) -> Result<f64, String> {
    entry
        .get(field)
        .and_then(serde::Value::as_f64)
        .ok_or_else(|| format!("floor entry {protocol} lacks {field}"))
}

/// Committed events/sec figures pulled out of a `BENCH_run.json`, after
/// checking the file was recorded at `scale` (cross-scale throughput is
/// not comparable — see the module docs). Read are `scale`,
/// `calibration_ops_per_sec`, each `timings[]` entry's `protocol`,
/// `engine` and `mono_events_per_sec`, and each `draw_bound[]` entry's
/// `protocol` and `reference_events_per_sec`; every other field
/// (metrics, derived figures, the fast engine's draw-bound rate) is
/// ignored. Floor files written before the engine dimension existed lack
/// the `engine` field; those entries are treated as reference-engine
/// figures. Files without a `draw_bound` section gate no draw-bound row.
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
    let draw_bound = floor
        .get("draw_bound")
        .and_then(serde::Value::as_array)
        .unwrap_or(&[]);
    let protocol = |entry: &serde::Value| {
        entry
            .get("protocol")
            .and_then(serde::Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| "floor entry lacks a protocol name".to_string())
    };
    let mut rates = Vec::with_capacity(timings.len() + draw_bound.len());
    for entry in timings {
        let protocol = protocol(entry)?;
        let engine = entry
            .get("engine")
            .and_then(serde::Value::as_str)
            .unwrap_or("reference");
        let rate = rate_field(entry, &protocol, "mono_events_per_sec")?;
        rates.push((floor_label(&protocol, engine, false), rate));
    }
    for entry in draw_bound {
        let protocol = protocol(entry)?;
        let rate = rate_field(entry, &protocol, "reference_events_per_sec")?;
        rates.push((floor_label(&protocol, "reference", true), rate));
    }
    Ok((calibration, rates))
}

/// Compares measured throughput against the committed figures at `path`:
/// every protocol's mono events/sec per engine, and every draw-bound
/// reference-engine events/sec. Returns the list of violations (empty =
/// pass). Rows missing from the floor file are reported but not failed,
/// so adding a protocol does not require regenerating the floor first.
fn check_floor(
    measured: &[FloorRate],
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
    for (label, rate) in measured {
        let Some((_, committed)) = floor.iter().find(|(name, _)| name == label) else {
            eprintln!(
                "perf floor: {label} absent from {}, skipped",
                path.display()
            );
            continue;
        };
        let limit = committed * speed * (1.0 - FLOOR_DROP);
        if *rate < limit {
            violations.push(format!(
                "{label}: {:.2}M events/s is below the floor of {:.2}M (committed {:.2}M - {:.0}%)",
                rate / 1e6,
                limit / 1e6,
                committed / 1e6,
                FLOOR_DROP * 100.0
            ));
        } else {
            eprintln!(
                "perf floor: {label:>36} ok ({:.2}M >= {:.2}M)",
                rate / 1e6,
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

/// One untimed warm-up run of every cell, then `reps` rounds that run
/// each cell once in turn; returns each cell's last report and minimum
/// wall-clock. Taking turns spreads a burst of host noise over all the
/// cells instead of sinking every rep of one.
fn interleaved_minimums(
    cells: &[(ProtocolKind, Simulation)],
    reps: usize,
) -> Vec<(RunReport, f64)> {
    let run =
        |(kind, sim): &(ProtocolKind, Simulation)| sim.run_kind(*kind).expect("valid system size");
    let mut timed: Vec<(RunReport, f64)> = cells
        .iter()
        .map(|cell| (run(cell), f64::INFINITY))
        .collect();
    for _ in 0..reps {
        for (cell, (report, min)) in cells.iter().zip(&mut timed) {
            let (s, r) = time_once(|| run(cell));
            *min = min.min(s);
            *report = r;
        }
    }
    timed
}

fn time_protocols(scale: Scale, reps: usize, engine: DrawEngineKind) -> Vec<ProtocolTiming> {
    let cells: Vec<(ProtocolKind, Simulation)> = ProtocolKind::all()
        .iter()
        .map(|&kind| {
            let sim = Simulation::new(cell_config(kind, scale, engine, 1.0)).expect("valid config");
            (kind, sim)
        })
        .collect();
    cells
        .iter()
        .zip(interleaved_minimums(&cells, reps))
        .map(|((kind, _), (report, min))| ProtocolTiming {
            protocol: kind.to_string(),
            engine: engine.to_string(),
            events: report.events,
            arbitrations: report.arbitrations,
            mono_min_seconds: min,
            mono_events_per_sec: report.events as f64 / min,
            mono_ns_per_arbitration: min * 1e9 / report.arbitrations as f64,
            metrics: report.metrics,
        })
        .collect()
}

/// Times every protocol's CV = 0.1 (Erlang k = 100) cell under both
/// engines. The two engines draw different interrequest streams, so
/// event counts differ slightly; each rate uses its own count. A
/// protocol's reference and fast runs sit next to each other in every
/// round, so both see the same slice of machine noise.
fn time_draw_bound(scale: Scale, reps: usize) -> Vec<DrawBoundTiming> {
    let engines = [DrawEngineKind::Reference, DrawEngineKind::Fast];
    let cells: Vec<(ProtocolKind, Simulation)> = ProtocolKind::all()
        .iter()
        .flat_map(|&kind| {
            engines.map(|engine| {
                let config = cell_config(kind, scale, engine, DRAW_BOUND_CV);
                (kind, Simulation::new(config).expect("valid config"))
            })
        })
        .collect();
    let timed = interleaved_minimums(&cells, reps);
    ProtocolKind::all()
        .iter()
        .zip(timed.chunks(engines.len()))
        .map(|(kind, pair)| {
            let ((reference, reference_min), (fast, fast_min)) = (&pair[0], &pair[1]);
            let reference_rate = reference.events as f64 / reference_min;
            let fast_rate = fast.events as f64 / fast_min;
            DrawBoundTiming {
                protocol: kind.to_string(),
                reference_events: reference.events,
                fast_events: fast.events,
                reference_events_per_sec: reference_rate,
                fast_events_per_sec: fast_rate,
                fast_speedup: fast_rate / reference_rate,
            }
        })
        .collect()
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
        for t in time_protocols(args.scale, args.reps, engine) {
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
        let draw_bound = time_draw_bound(args.scale, args.reps);
        for t in &draw_bound {
            eprintln!(
                "{:>14} (cv {DRAW_BOUND_CV}): reference {:.2}M events/s  fast {:.2}M  speedup {:.2}x",
                t.protocol,
                t.reference_events_per_sec / 1e6,
                t.fast_events_per_sec / 1e6,
                t.fast_speedup
            );
        }
        draw_bound
    } else {
        eprintln!("draw-bound comparison skipped (--engine restricts the run to one engine)");
        Vec::new()
    };

    if let Some(path) = &args.floor {
        let measured: Vec<FloorRate> = timings
            .iter()
            .map(|t| {
                (
                    floor_label(&t.protocol, &t.engine, false),
                    t.mono_events_per_sec,
                )
            })
            .chain(draw_bound.iter().map(|t| {
                (
                    floor_label(&t.protocol, "reference", true),
                    t.reference_events_per_sec,
                )
            }))
            .collect();
        match check_floor(&measured, path, args.scale, calibration) {
            Ok(violations) if violations.is_empty() => {
                eprintln!(
                    "perf floor: all gated figures within {:.0}% of committed figures",
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floor_gates_the_draw_bound_reference_rate() {
        let floor = r#"{
            "scale": "quick",
            "calibration_ops_per_sec": 1.0e9,
            "timings": [
                {"protocol": "rr", "engine": "reference", "mono_events_per_sec": 1.0e7},
                {"protocol": "rr", "engine": "fast", "mono_events_per_sec": 1.0e7}
            ],
            "draw_bound": [
                {"protocol": "rr", "reference_events_per_sec": 2.0e6, "fast_events_per_sec": 2.0e7}
            ]
        }"#;
        let path =
            std::env::temp_dir().join(format!("bench_run_floor_{}.json", std::process::id()));
        std::fs::write(&path, floor).expect("temp file is writable");
        let measured = [
            (floor_label("rr", "reference", false), 9.0e6),
            (floor_label("rr", "fast", false), 9.0e6),
            (floor_label("rr", "reference", true), 1.0e6),
            (floor_label("fcfs-1", "reference", true), 1.0),
        ];
        let violations = check_floor(&measured, &path, Scale::Quick, 1.0e9);
        std::fs::remove_file(&path).expect("temp file is removable");
        let violations = violations.expect("floor file parses");
        // Only rr's draw-bound rate is below 75% of its committed figure;
        // fcfs-1 has no committed draw-bound row and is skipped.
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(
            violations[0].starts_with("rr (reference, draw-bound)"),
            "{violations:?}"
        );
    }
}
