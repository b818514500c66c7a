//! `bench_run` — times one simulation cell per protocol under both draw
//! engines, then the arbiters and the wired-OR model on their own, and
//! writes the results to `BENCH_run.json`.
//!
//! ```text
//! bench_run [--out PATH] [--reps N] [--smoke] [--floor PATH]
//! ```
//!
//! Each protocol runs the same Quick-scale cell (30 agents, load 2.0,
//! deterministic per-protocol seed) through [`Simulation::run_kind`],
//! once per draw engine. The JSON records, per (protocol, engine), the
//! event count, minimum wall-clock of `reps` runs (the protocols take
//! turns, one run each per round), and the derived events/sec and
//! ns/arbitration figures. The `mono_` prefix of those fields names the
//! monomorphized event loop every run goes through; the `--floor` gate
//! reads `mono_events_per_sec`.
//!
//! The report also carries a `draw_bound` section: the same cell at
//! CV = 0.1 (Erlang k = 100 interrequest times, 100 uniforms per draw on
//! the reference path), timed under each engine with the
//! fast-over-reference speedup per protocol. This is the draw-dominated
//! regime the fast engine exists for; the CV = 1.0 table above is
//! arbitration-dominated and moves far less.
//!
//! After those gated cells, the `micro` rows time what no cell isolates:
//! the cost of one arbitration decision, and of one settle of the
//! wired-OR lines. Each row is the minimum over `reps` timed runs (the
//! rows of a group take turns, as the cells do), built outside the timed
//! window, with a checksum of the work done. No `--floor` entry reads
//! them.
//!
//! | group | rows | figure |
//! |---|---|---|
//! | `arbitrate_saturated_64_agents` | every protocol, N = 64 | ns per decision, 1024 grants |
//! | `rr_arbitrate_by_size` | rr, N = 8, 16, 32, 64, 128 | ns per decision, 1024 grants |
//! | `settle_by_width` | `ParallelContention`, widths 4, 7, 10, 14 | ns per resolve, 64 sets × 8 competitors |
//! | `line_discipline` | full broadcast, binary patterned, width 7 | ns per resolve, 64 sets × 10 competitors |
//! | `signal_system_saturated_grant` | `Rr1System`, `Fcfs2System`, N = 32 | ns per grant, 256 saturated grants |
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

use std::hint::black_box;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use busarb_bus::signal::{Fcfs2System, Rr1System, SignalProtocol};
use busarb_bus::{LineDiscipline, ParallelContention, Resolution};
use busarb_core::{Arbiter, ProtocolKind};
use busarb_experiments::common::seed_for;
use busarb_experiments::Scale;
use busarb_obs::MetricsSnapshot;
use busarb_sim::{RunReport, Simulation, SystemConfig};
use busarb_types::{AgentId, Priority, Time};
use busarb_workload::{DrawEngineKind, Scenario};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Serialize, Value};

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

/// The draw engines every run times, in report order.
const ENGINES: [DrawEngineKind; 2] = [DrawEngineKind::Reference, DrawEngineKind::Fast];

/// Work per timed run of the `micro` rows (see the module docs): grants
/// per saturated-decision run, competitor sets per settle run and grants
/// per signal-system run.
struct MicroSizes {
    grants: usize,
    sets: usize,
    signal_grants: usize,
}

const MICRO_SIZES: MicroSizes = MicroSizes {
    grants: 1024,
    sets: 64,
    signal_grants: 256,
};

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
    /// Reference-vs-fast comparison in the draw-dominated regime.
    draw_bound: Vec<DrawBoundTiming>,
    /// Ungated rows, timed after the cells above.
    micro: Vec<MicroTiming>,
}

/// One ungated `micro` row: the minimum over `reps` of one timed run of
/// `ops` operations.
#[derive(Serialize)]
struct MicroTiming {
    /// The row's group (see the module docs).
    group: &'static str,
    /// What the row times within its group: a protocol, a size, a width,
    /// a discipline or a system.
    label: String,
    /// Operations per timed run: decisions, resolves or grants.
    ops: u64,
    min_seconds: f64,
    ns_per_op: f64,
    /// Checksum of the work done, so the optimizer cannot discard it and
    /// two runs can be compared: the winners' identities folded, the sum
    /// of settle rounds, or the XOR of winning values.
    checksum: u64,
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
}

fn parse_args() -> Result<Args, String> {
    let mut out = PathBuf::from("BENCH_run.json");
    let mut reps = 7usize;
    let mut scale = Scale::Quick;
    let mut floor = None;
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
    })
}

/// One gated throughput figure: `(label, events/sec)`. The label names
/// the protocol and the engine, e.g. `rr (reference)`; draw-bound rows
/// carry a `, draw-bound` suffix, so each figure is only ever compared
/// with its own committed counterpart.
type FloorRate = (String, f64);

fn floor_label(protocol: &str, engine: &str, draw_bound: bool) -> String {
    let suffix = if draw_bound { ", draw-bound" } else { "" };
    format!("{protocol} ({engine}{suffix})")
}

/// Reads `value[name]` through `read`; `owner` names `value` in the
/// error when the field is absent or of another type.
fn field<'v, T>(
    value: &'v Value,
    owner: &str,
    name: &str,
    read: impl FnOnce(&'v Value) -> Option<T>,
) -> Result<T, String> {
    value
        .get(name)
        .and_then(read)
        .ok_or_else(|| format!("{owner} lacks {name}"))
}

/// Committed events/sec figures pulled out of a `BENCH_run.json`, after
/// checking the file was recorded at `scale` (cross-scale throughput is
/// not comparable — see the module docs). Read are `scale`,
/// `calibration_ops_per_sec`, each `timings[]` entry's `protocol`,
/// `engine` and `mono_events_per_sec`, and each `draw_bound[]` entry's
/// `protocol` and `reference_events_per_sec`; every other field
/// (metrics, derived figures, the fast engine's draw-bound rate, the
/// `micro` rows) is ignored. A file missing any of the fields read is
/// rejected.
fn load_floor(path: &std::path::Path, scale: Scale) -> Result<(f64, Vec<FloorRate>), String> {
    let file = format!("floor file {}", path.display());
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {file}: {e}"))?;
    let floor = serde_json::from_str(&text).map_err(|e| format!("cannot parse {file}: {e}"))?;
    let floor_scale = field(&floor, &file, "scale", Value::as_str)?;
    if floor_scale != scale.to_string() {
        return Err(format!(
            "{file} was recorded at the {floor_scale} scale but this run measures {scale} — \
             throughput is only comparable within one scale"
        ));
    }
    let calibration = field(&floor, &file, "calibration_ops_per_sec", Value::as_f64)?;
    let timings = field(&floor, &file, "timings", Value::as_array)?;
    let draw_bound = field(&floor, &file, "draw_bound", Value::as_array)?;
    let mut rates = Vec::with_capacity(timings.len() + draw_bound.len());
    for entry in timings {
        let protocol = field(entry, "floor entry", "protocol", Value::as_str)?;
        let owner = format!("floor entry {protocol}");
        let engine = field(entry, &owner, "engine", Value::as_str)?;
        let rate = field(entry, &owner, "mono_events_per_sec", Value::as_f64)?;
        rates.push((floor_label(protocol, engine, false), rate));
    }
    for entry in draw_bound {
        let protocol = field(entry, "floor entry", "protocol", Value::as_str)?;
        let owner = format!("floor entry {protocol}");
        let rate = field(entry, &owner, "reference_events_per_sec", Value::as_f64)?;
        rates.push((floor_label(protocol, "reference", true), rate));
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

/// One untimed warm-up run of every cell, then `reps` rounds that run
/// each cell once in turn; returns each cell's last output and minimum
/// wall-clock. Taking turns spreads a burst of host noise over all the
/// cells instead of sinking every rep of one. `setup` prepares a run
/// outside the timed window; only `work` is timed.
fn interleaved_minimums<'c, C, S, T>(
    cells: &'c [C],
    reps: usize,
    setup: impl Fn(&'c C) -> S,
    work: impl Fn(S) -> T,
) -> Vec<(T, f64)> {
    let mut timed: Vec<(T, f64)> = cells
        .iter()
        .map(|cell| (work(setup(cell)), f64::INFINITY))
        .collect();
    for _ in 0..reps {
        for (cell, (output, min)) in cells.iter().zip(&mut timed) {
            let state = setup(cell);
            let start = Instant::now();
            let result = work(state);
            *min = min.min(start.elapsed().as_secs_f64());
            *output = result;
        }
    }
    timed
}

/// Runs each `(kind, simulation)` cell through [`interleaved_minimums`].
fn time_cells(cells: &[(ProtocolKind, Simulation)], reps: usize) -> Vec<(RunReport, f64)> {
    interleaved_minimums(
        cells,
        reps,
        |cell| cell,
        |(kind, sim)| sim.run_kind(*kind).expect("valid system size"),
    )
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
        .zip(time_cells(&cells, reps))
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
    let cells: Vec<(ProtocolKind, Simulation)> = ProtocolKind::all()
        .iter()
        .flat_map(|&kind| {
            ENGINES.map(|engine| {
                let config = cell_config(kind, scale, engine, DRAW_BOUND_CV);
                (kind, Simulation::new(config).expect("valid config"))
            })
        })
        .collect();
    let timed = time_cells(&cells, reps);
    ProtocolKind::all()
        .iter()
        .zip(timed.chunks(ENGINES.len()))
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

/// Times the `(label, cell)` rows of `group` through
/// [`interleaved_minimums`]: `setup` builds a run's state from its cell,
/// `work` performs `ops` operations on it and returns their checksum.
fn micro_rows<'c, C, S>(
    group: &'static str,
    rows: &'c [(String, C)],
    ops: usize,
    reps: usize,
    setup: impl Fn(&'c C) -> S,
    work: impl Fn(S) -> u64,
) -> Vec<MicroTiming> {
    let timed = interleaved_minimums(rows, reps, |(_, cell)| setup(cell), |s| black_box(work(s)));
    rows.iter()
        .zip(timed)
        .map(|((label, _), (checksum, min))| MicroTiming {
            group,
            label: label.clone(),
            ops: ops as u64,
            min_seconds: min,
            ns_per_op: min * 1e9 / ops as f64,
            checksum,
        })
        .collect()
}

/// Folds a winner into a running checksum.
fn fold_winner(checksum: u64, winner: AgentId) -> u64 {
    checksum
        .wrapping_mul(31)
        .wrapping_add(u64::from(winner.get()))
}

/// Builds an arbiter of `kind` with all `n` agents already requesting.
fn saturated_arbiter(kind: ProtocolKind, n: u32) -> Box<dyn Arbiter> {
    let mut arbiter = kind.build(n).expect("valid size");
    for agent in AgentId::all(n) {
        arbiter.on_request(Time::ZERO, agent, Priority::Ordinary);
    }
    arbiter
}

/// Performs `grants` arbitration decisions on a saturated system,
/// re-requesting after every grant; returns the winners' checksum.
fn drive_saturated(arbiter: &mut dyn Arbiter, grants: usize) -> u64 {
    let mut checksum = 0u64;
    for i in 0..grants {
        let now = Time::from(i as f64);
        let grant = arbiter.arbitrate(now).expect("saturated system");
        checksum = fold_winner(checksum, grant.agent);
        arbiter.on_request(now, grant.agent, Priority::Ordinary);
    }
    checksum
}

/// `sets` competitor sets of `per_set` random `width`-bit numbers.
fn competitor_sets(width: u32, sets: usize, per_set: usize, seed: u64) -> Vec<Vec<u64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mask = (1u64 << width) - 1;
    (0..sets)
        .map(|_| (0..per_set).map(|_| rng.gen::<u64>() & mask).collect())
        .collect()
}

/// A settle row's arbiter and the competitor sets it resolves.
type SettleCell = (ParallelContention, Vec<Vec<u64>>);

/// Builds a signal-level system of `N = 32` agents.
type SignalBuilder = fn() -> Box<dyn SignalProtocol>;

/// Times the five `micro` groups (see the module docs) at `sizes`.
fn time_micro(sizes: MicroSizes, reps: usize) -> Vec<MicroTiming> {
    let saturated = |group, rows: &[(String, (ProtocolKind, u32))]| {
        micro_rows(
            group,
            rows,
            sizes.grants,
            reps,
            |&(kind, n)| saturated_arbiter(kind, n),
            |mut arbiter| drive_saturated(arbiter.as_mut(), sizes.grants),
        )
    };
    let by_protocol: Vec<_> = ProtocolKind::all()
        .iter()
        .map(|&kind| (kind.to_string(), (kind, 64)))
        .collect();
    let by_size: Vec<_> = [8u32, 16, 32, 64, 128]
        .map(|n| (n.to_string(), (ProtocolKind::RoundRobin, n)))
        .into();

    let settle = |group, rows: &[(String, SettleCell)], fold: fn(u64, Resolution) -> u64| {
        micro_rows(
            group,
            rows,
            sizes.sets,
            reps,
            |cell| cell,
            |(arbiter, sets)| {
                sets.iter()
                    .fold(0, |acc, set| fold(acc, arbiter.resolve(black_box(set))))
            },
        )
    };
    let by_width: Vec<_> = [4u32, 7, 10, 14]
        .map(|width| {
            let sets = competitor_sets(width, sizes.sets, 8, u64::from(width));
            (width.to_string(), (ParallelContention::new(width), sets))
        })
        .into();
    let disciplines: Vec<_> = [
        ("full_broadcast", LineDiscipline::FullBroadcast),
        ("binary_patterned", LineDiscipline::BinaryPatterned),
    ]
    .map(|(name, discipline)| {
        let arbiter = ParallelContention::new(7).with_discipline(discipline);
        (
            name.to_string(),
            (arbiter, competitor_sets(7, sizes.sets, 10, 99)),
        )
    })
    .into();

    let systems: [(String, SignalBuilder); 2] = [
        ("rr1".to_string(), || {
            Box::new(Rr1System::new(32).expect("valid size"))
        }),
        ("fcfs2".to_string(), || {
            Box::new(Fcfs2System::new(32).expect("valid size"))
        }),
    ];
    let all: Vec<AgentId> = AgentId::all(32).collect();
    let signal = || {
        micro_rows(
            "signal_system_saturated_grant",
            &systems,
            sizes.signal_grants,
            reps,
            |build| {
                let mut system = build();
                system.on_requests(&all);
                system
            },
            |mut system| {
                let mut checksum = 0u64;
                for _ in 0..sizes.signal_grants {
                    let winner = system.arbitrate().expect("saturated system").winner;
                    checksum = fold_winner(checksum, winner);
                    system.on_requests(&[winner]);
                }
                checksum
            },
        )
    };

    [
        saturated("arbitrate_saturated_64_agents", &by_protocol),
        saturated("rr_arbitrate_by_size", &by_size),
        settle("settle_by_width", &by_width, |acc, r| {
            acc + u64::from(r.rounds)
        }),
        settle("line_discipline", &disciplines, |acc, r| {
            acc ^ r.winner_value
        }),
        signal(),
    ]
    .into_iter()
    .flatten()
    .collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(v) => v,
        Err(msg) => {
            eprintln!(
                "error: {msg}\nusage: bench_run [--out PATH] [--reps N] [--smoke] [--floor PATH]"
            );
            return ExitCode::FAILURE;
        }
    };

    let calibration = calibrate();
    eprintln!("calibration: {:.2}G ops/s", calibration / 1e9);

    let mut timings = Vec::new();
    for engine in ENGINES {
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

    let micro = time_micro(MICRO_SIZES, args.reps);
    for t in &micro {
        eprintln!(
            "{:>29} {:>16}: {:.1} ns/op (checksum {:#x})",
            t.group, t.label, t.ns_per_op, t.checksum
        );
    }

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
        engines: ENGINES.iter().map(ToString::to_string).collect(),
        calibration_ops_per_sec: calibration,
        timings,
        draw_bound_cv: DRAW_BOUND_CV,
        draw_bound,
        micro,
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

    /// Runs [`check_floor`] against `floor` written to a temporary file
    /// named after `name`.
    fn check_floor_text(
        name: &str,
        floor: &str,
        measured: &[FloorRate],
    ) -> Result<Vec<String>, String> {
        let path = std::env::temp_dir().join(format!(
            "bench_run_floor_{name}_{}.json",
            std::process::id()
        ));
        std::fs::write(&path, floor).expect("temp file is writable");
        let result = check_floor(measured, &path, Scale::Quick, 1.0e9);
        std::fs::remove_file(&path).expect("temp file is removable");
        result
    }

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
        let measured = [
            (floor_label("rr", "reference", false), 9.0e6),
            (floor_label("rr", "fast", false), 9.0e6),
            (floor_label("rr", "reference", true), 1.0e6),
            (floor_label("fcfs-1", "reference", true), 1.0),
        ];
        let violations = check_floor_text("gates", floor, &measured).expect("floor file parses");
        // Only rr's draw-bound rate is below 75% of its committed figure;
        // fcfs-1 has no committed draw-bound row and is skipped.
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(
            violations[0].starts_with("rr (reference, draw-bound)"),
            "{violations:?}"
        );
    }

    #[test]
    fn floor_rejects_a_row_without_engine_and_a_file_without_draw_bound() {
        let measured = [(floor_label("rr", "reference", false), 9.0e6)];
        let no_engine = r#"{
            "scale": "quick",
            "calibration_ops_per_sec": 1.0e9,
            "timings": [
                {"protocol": "rr", "engine": "fast", "mono_events_per_sec": 1.0e7},
                {"protocol": "fcfs-1", "mono_events_per_sec": 1.0e7}
            ],
            "draw_bound": []
        }"#;
        let err = check_floor_text("no_engine", no_engine, &measured).unwrap_err();
        assert_eq!(err, "floor entry fcfs-1 lacks engine");
        let no_draw_bound = r#"{
            "scale": "quick",
            "calibration_ops_per_sec": 1.0e9,
            "timings": [
                {"protocol": "rr", "engine": "reference", "mono_events_per_sec": 1.0e7}
            ]
        }"#;
        let err = check_floor_text("no_draw_bound", no_draw_bound, &measured).unwrap_err();
        assert!(err.ends_with("lacks draw_bound"), "{err}");
    }

    #[test]
    fn saturated_decisions_are_deterministic() {
        for &kind in ProtocolKind::all() {
            let mut a = saturated_arbiter(kind, 8);
            let mut b = saturated_arbiter(kind, 8);
            assert_eq!(
                drive_saturated(a.as_mut(), 100),
                drive_saturated(b.as_mut(), 100),
                "{kind}"
            );
        }
    }

    #[test]
    fn every_micro_group_has_its_rows() {
        let sizes = MicroSizes {
            grants: 16,
            sets: 4,
            signal_grants: 8,
        };
        let micro = time_micro(sizes, 1);
        let mut counts: Vec<(&str, usize)> = Vec::new();
        for row in &micro {
            match counts.last_mut() {
                Some((group, count)) if *group == row.group => *count += 1,
                _ => counts.push((row.group, 1)),
            }
            assert!(
                row.ns_per_op.is_finite() && row.ns_per_op > 0.0,
                "{}/{}: {} ns/op",
                row.group,
                row.label,
                row.ns_per_op
            );
        }
        assert_eq!(
            counts,
            [
                ("arbitrate_saturated_64_agents", 13),
                ("rr_arbitrate_by_size", 5),
                ("settle_by_width", 4),
                ("line_discipline", 2),
                ("signal_system_saturated_grant", 2),
            ]
        );
    }
}
