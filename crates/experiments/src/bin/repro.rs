//! `repro` — regenerate every table and figure from Vernon & Manber
//! (ISCA 1988).
//!
//! ```text
//! repro [--scale paper|quick|smoke] [--json DIR] [--jobs N]
//!       [--engine reference|fast] [--metrics FILE] [--trace FILE]
//!       [--trace-format jsonl|binary] <command>
//!
//! commands:
//!   table4.1            bandwidth allocation, equal request rates
//!   table4.2            waiting-time standard deviation
//!   fig4.1              waiting-time CDF (30 agents, load 1.5)
//!   table4.3            execution overlapped with bus waiting
//!   table4.4            unequal request rates
//!   table4.5            RR worst case ("just miss")
//!   ablation.counters   FCFS counter-width sweep
//!   ablation.window     FCFS-2 a-incr window sweep
//!   ablation.rr3        RR-3 wraparound overhead
//!   ablation.start-rule greedy vs transaction-aligned arbitration start
//!   ablation.overhead   arbitration-overhead sensitivity sweep
//!   ablation.width-overhead  width-scaled overhead (§3.3 efficiency)
//!   hybrid              §5 hybrid and adaptive protocols
//!   conservation        conservation-law check
//!   tails               waiting-time percentiles (P50/P90/P99) per protocol
//!   bursty              trace-driven bursty traffic (CV > 1)
//!   worst-case.fcfs     the §4.5 FCFS worst case the paper declined to run
//!   priority            urgent traffic vs FCFS counter-update rules (§3.2)
//!   scaling             W and sd ratio vs system size (4..64 agents)
//!   validate.cis        CI coverage + batch-independence diagnostics
//!   coherence           closed-loop MESI traffic, FCFS vs round-robin
//!   protocols           list every simulated protocol and its line cost
//!   cell                run the pinned traced cell, export its trace,
//!                       analyze the export, and cross-check the aggregates
//!   tolerance [FACTOR]  run Table 4.1 under both draw engines and check
//!                       the fast means land within FACTOR x the summed
//!                       confidence halfwidths (default 1.5)
//!   all                 every report from table4.1 to validate.cis, in
//!                       that order (shares one simulation grid)
//! ```
//!
//! `--engine reference|fast` selects the workload draw engine for every
//! simulation the command runs (the `tolerance` command runs both and
//! ignores the flag). `--metrics FILE` collects a per-cell metrics
//! snapshot from every simulation the command runs and writes them
//! (plus a deterministic tag-sorted merge) as JSON. `--trace FILE` sets
//! the export path used by the `cell` command, whose `--json` output is
//! the export's `busarb analyze` report. Any JSON or metrics file that
//! cannot be written fails the run.

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use busarb_core::{Arbiter, ProtocolKind};
use busarb_experiments::{
    ablations, bursty, coherence, figure4_1, grid::Grid, observe, priority_study, protocol_slug,
    scaling, table4_1, table4_2, table4_3, table4_4, table4_5, tails, validation, worst_case_fcfs,
    EstimateJson, Scale,
};
use busarb_obs::TraceFormat;
use busarb_workload::DrawEngineKind;
use serde::Serialize;

struct Options {
    scale: Scale,
    json_dir: Option<PathBuf>,
    jobs: usize,
    engine: DrawEngineKind,
    metrics: Option<PathBuf>,
    trace: Option<PathBuf>,
    trace_format: TraceFormat,
    command: String,
    /// The `tolerance` command's factor.
    factor: f64,
}

fn parse_args() -> Result<Options, String> {
    let mut scale = Scale::Paper;
    let mut json_dir = None;
    let mut jobs = 0;
    let mut engine = DrawEngineKind::default();
    let mut metrics = None;
    let mut trace = None;
    let mut trace_format = TraceFormat::Jsonl;
    let mut command = None;
    let mut argument = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let value = args.next().ok_or("--scale needs a value")?;
                scale = Scale::parse(&value)
                    .ok_or_else(|| format!("unknown scale '{value}' (paper|quick|smoke)"))?;
            }
            "--engine" => {
                let value = args.next().ok_or("--engine needs a value")?;
                engine = DrawEngineKind::parse(&value)
                    .ok_or_else(|| format!("unknown engine '{value}' (reference|fast)"))?;
            }
            "--json" => {
                let value = args.next().ok_or("--json needs a directory")?;
                json_dir = Some(PathBuf::from(value));
            }
            "--jobs" => {
                let value = args.next().ok_or("--jobs needs a value")?;
                jobs = value
                    .parse()
                    .map_err(|e| format!("invalid --jobs '{value}': {e}"))?;
            }
            "--metrics" => {
                let value = args.next().ok_or("--metrics needs a file")?;
                metrics = Some(PathBuf::from(value));
            }
            "--trace" => {
                let value = args.next().ok_or("--trace needs a file")?;
                trace = Some(PathBuf::from(value));
            }
            "--trace-format" => {
                let value = args.next().ok_or("--trace-format needs a value")?;
                trace_format = value
                    .parse()
                    .map_err(|e| format!("invalid --trace-format '{value}': {e}"))?;
            }
            "--help" | "-h" => return Err(String::new()),
            other if command.is_none() => command = Some(other.to_string()),
            other if argument.is_none() => argument = Some(other.to_string()),
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    let command = command.ok_or("missing command; try --help")?;
    // Only `tolerance` takes an argument.
    let factor = match (command.as_str(), argument) {
        (_, None) => 1.5,
        ("tolerance", Some(v)) => v
            .parse::<f64>()
            .ok()
            .filter(|f| *f > 0.0)
            .ok_or_else(|| format!("invalid tolerance factor '{v}'"))?,
        (_, Some(v)) => return Err(format!("unexpected argument '{v}'")),
    };
    Ok(Options {
        scale,
        json_dir,
        jobs,
        engine,
        metrics,
        trace,
        trace_format,
        command,
        factor,
    })
}

fn usage() -> &'static str {
    "usage: repro [--scale paper|quick|smoke] [--json DIR] [--jobs N]\n\
     \u{20}            [--engine reference|fast] [--metrics FILE] [--trace FILE]\n\
     \u{20}            [--trace-format jsonl|binary] <command>\n\
     commands: table4.1 table4.2 fig4.1 table4.3 table4.4 table4.5\n\
     \u{20}         ablation.counters ablation.window ablation.rr3\n\
     \u{20}         ablation.start-rule ablation.overhead ablation.width-overhead\n\
     \u{20}         hybrid conservation\n\
     \u{20}         tails bursty coherence worst-case.fcfs priority scaling validate.cis\n\
     \u{20}         protocols cell tolerance [FACTOR] all"
}

/// Prints `text` and, under `--json DIR`, writes `value` to
/// `DIR/{name}.json`.
///
/// # Errors
///
/// Returns a one-line message naming the directory or file that could
/// not be created, serialized or written.
fn emit<T: Serialize>(opts: &Options, name: &str, value: &T, text: String) -> Result<(), String> {
    println!("{text}");
    let Some(dir) = &opts.json_dir else {
        return Ok(());
    };
    fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value)
        .map_err(|e| format!("cannot serialize {}: {e}", path.display()))?;
    fs::write(&path, json).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

fn run_ablation(opts: &Options, result: &ablations::Ablation) -> Result<(), String> {
    let name = result.name.replace('.', "_");
    emit(opts, &name, result, ablations::format(result))
}

/// One compared Table 4.1 estimate in the `tolerance` report.
#[derive(Serialize)]
struct ToleranceCell {
    agents: u32,
    load: f64,
    column: &'static str,
    reference: EstimateJson,
    fast: EstimateJson,
    distance: f64,
    budget: f64,
    pass: bool,
}

/// The `tolerance` command's JSON output.
#[derive(Serialize)]
struct ToleranceReport {
    factor: f64,
    cells: Vec<ToleranceCell>,
    failures: usize,
}

/// Runs Table 4.1 under both draw engines and checks every estimate the
/// fast engine produces against the reference run: the means must agree
/// to within `factor * (halfwidth_ref + halfwidth_fast)`.
fn tolerance(opts: &Options) -> Result<(), String> {
    let factor = opts.factor;
    eprintln!("tolerance: Table 4.1 under the reference engine...");
    busarb_experiments::set_engine(DrawEngineKind::Reference);
    let reference = table4_1::run(opts.scale);
    eprintln!("tolerance: Table 4.1 under the fast engine...");
    busarb_experiments::set_engine(DrawEngineKind::Fast);
    let fast = table4_1::run(opts.scale);
    busarb_experiments::set_engine(opts.engine);

    let mut cells = Vec::new();
    for (rs, fs) in reference.sections.iter().zip(&fast.sections) {
        for (rr, fr) in rs.rows.iter().zip(&fs.rows) {
            let columns = [
                ("rr", rr.rr, fr.rr),
                ("fcfs", rr.fcfs, fr.fcfs),
                ("aap", rr.aap, fr.aap),
            ];
            for (column, r, f) in columns {
                let (Some(r), Some(f)) = (r, f) else { continue };
                let distance = (f.mean - r.mean).abs();
                let budget = factor * (r.halfwidth + f.halfwidth);
                cells.push(ToleranceCell {
                    agents: rs.agents,
                    load: rr.load,
                    column,
                    reference: r,
                    fast: f,
                    distance,
                    budget,
                    pass: distance <= budget,
                });
            }
        }
    }
    let failures = cells.iter().filter(|c| !c.pass).count();

    let mut text = format!(
        "Tolerance check: fast vs reference Table 4.1 (factor {factor})\n{:>6} {:>6} {:>6} {:>16} {:>16} {:>10} {:>10}  verdict\n",
        "agents", "load", "column", "reference", "fast", "|diff|", "budget"
    );
    for c in &cells {
        text.push_str(&format!(
            "{:>6} {:>6.2} {:>6} {:>16} {:>16} {:>10.4} {:>10.4}  {}\n",
            c.agents,
            c.load,
            c.column,
            c.reference.to_string(),
            c.fast.to_string(),
            c.distance,
            c.budget,
            if c.pass { "ok" } else { "FAIL" },
        ));
    }
    text.push_str(&format!(
        "{} of {} estimates within tolerance",
        cells.len() - failures,
        cells.len()
    ));
    let report = ToleranceReport {
        factor,
        cells,
        failures,
    };
    emit(opts, "tolerance", &report, text)?;
    if failures > 0 {
        return Err(format!("{failures} estimate(s) outside tolerance"));
    }
    Ok(())
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            if msg.is_empty() {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            eprintln!("error: {msg}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    busarb_experiments::set_jobs(opts.jobs);
    busarb_experiments::set_engine(opts.engine);
    if opts.metrics.is_some() {
        busarb_experiments::enable_rollups();
    }
    eprintln!("scale: {} ({} samples per run)", opts.scale, {
        let b = opts.scale.batches();
        b.total_samples()
    });
    eprintln!("jobs: {}", busarb_experiments::jobs());
    eprintln!("engine: {}", busarb_experiments::engine());

    match run(&opts).and_then(|()| write_metrics(&opts)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// A report command: computes its report, from the shared grid when
/// `repro all` passes one, and emits it.
type Report = fn(&Options, Option<&Grid>) -> Result<(), String>;

/// Every report `repro all` writes, in its order, each under the command
/// that writes it alone.
const REPORTS: [(&str, Report); 20] = [
    ("table4.1", |o, grid| {
        let t = grid.map_or_else(|| table4_1::run(o.scale), table4_1::from_grid);
        emit(o, "table4_1", &t, table4_1::format(&t))
    }),
    ("table4.2", |o, grid| {
        let t = grid.map_or_else(|| table4_2::run(o.scale), table4_2::from_grid);
        emit(o, "table4_2", &t, table4_2::format(&t))
    }),
    ("fig4.1", |o, grid| {
        let f = grid.map_or_else(|| figure4_1::run(o.scale), figure4_1::from_grid);
        emit(o, "figure4_1", &f, figure4_1::format(&f))
    }),
    ("table4.3", |o, grid| {
        let t = grid.map_or_else(|| table4_3::run(o.scale), table4_3::from_grid);
        emit(o, "table4_3", &t, table4_3::format(&t))
    }),
    ("table4.4", |o, _| {
        let t = table4_4::run(o.scale);
        emit(o, "table4_4", &t, table4_4::format(&t))
    }),
    ("table4.5", |o, _| {
        let t = table4_5::run(o.scale);
        emit(o, "table4_5", &t, table4_5::format(&t))
    }),
    ("ablation.counters", |o, _| {
        run_ablation(o, &ablations::counter_bits(o.scale))
    }),
    ("ablation.window", |o, _| {
        run_ablation(o, &ablations::tie_window(o.scale))
    }),
    ("ablation.rr3", |o, _| {
        run_ablation(o, &ablations::rr3_overhead(o.scale))
    }),
    ("ablation.start-rule", |o, _| {
        run_ablation(o, &ablations::start_rule(o.scale))
    }),
    ("ablation.overhead", |o, _| {
        run_ablation(o, &ablations::overhead(o.scale))
    }),
    ("ablation.width-overhead", |o, _| {
        run_ablation(o, &ablations::width_overhead(o.scale))
    }),
    ("hybrid", |o, _| {
        run_ablation(o, &ablations::hybrid(o.scale))
    }),
    ("conservation", |o, _| {
        run_ablation(o, &ablations::conservation(o.scale))
    }),
    ("tails", |o, _| {
        let t = tails::run(o.scale);
        emit(o, "tails", &t, tails::format(&t))
    }),
    ("bursty", |o, _| {
        let b = bursty::run(o.scale);
        emit(o, "bursty", &b, bursty::format(&b))
    }),
    ("worst-case.fcfs", |o, _| {
        let w = worst_case_fcfs::run(o.scale);
        emit(o, "worst_case_fcfs", &w, worst_case_fcfs::format(&w))
    }),
    ("priority", |o, _| {
        let p = priority_study::run(o.scale);
        emit(o, "priority_study", &p, priority_study::format(&p))
    }),
    ("scaling", |o, _| {
        let sc = scaling::run(o.scale);
        emit(o, "scaling", &sc, scaling::format(&sc))
    }),
    ("validate.cis", |o, _| {
        let c = validation::ci_coverage(o.scale, 40);
        emit(o, "ci_coverage", &c, validation::format_coverage(&c))?;
        let d = validation::batch_diagnostics(o.scale);
        emit(
            o,
            "batch_diagnostics",
            &d,
            validation::format_diagnostics(&d),
        )
    }),
];

/// Runs `opts.command`.
///
/// # Errors
///
/// Returns the message to print when an output cannot be written, the
/// command fails its own check, or the command is unknown.
fn run(opts: &Options) -> Result<(), String> {
    match opts.command.as_str() {
        "all" => {
            eprintln!("computing the shared simulation grid...");
            let grid = Grid::compute(opts.scale);
            REPORTS
                .iter()
                .try_for_each(|(_, report)| report(opts, Some(&grid)))
        }
        // Not part of `all`: its fixture regenerates alone.
        "coherence" => {
            let c = coherence::run(opts.scale);
            emit(opts, "coherence", &c, coherence::format(&c))
        }
        "protocols" => {
            // One row per simulated protocol: slug, family name, and the
            // arbitration-number width on a 30-agent bus (distributed
            // protocols only). The roster is `ProtocolKind::all()`; the
            // slugs come from `ProtocolKind::slug`.
            println!("{:<14} {:<16} lines(n=30)", "slug", "name");
            for &kind in ProtocolKind::all() {
                let arbiter = kind.build(30).expect("30 agents is a valid size");
                let lines = arbiter
                    .layout()
                    .map_or_else(|| "-".to_string(), |l| l.width().to_string());
                println!("{:<14} {:<16} {lines}", protocol_slug(kind), arbiter.name());
            }
            Ok(())
        }
        "cell" => cell(opts),
        "tolerance" => tolerance(opts),
        command => match REPORTS.iter().find(|(name, _)| *name == command) {
            Some((_, report)) => report(opts, None),
            None => Err(format!("unknown command '{command}'\n{}", usage())),
        },
    }
}

/// Runs the pinned traced cell, analyzes its export, and cross-checks
/// the replayed aggregates against the live run.
///
/// # Errors
///
/// Returns a one-line message when the export cannot be read or written,
/// or when any aggregate differs.
fn cell(opts: &Options) -> Result<(), String> {
    let format = opts.trace_format;
    // A `--trace` file is the user's: it is kept and reported as given.
    // Without one the export is a temporary file, deleted on every exit
    // path, and the report names it without the pid so that identical
    // runs print identical reports.
    let (path, temp) = match &opts.trace {
        Some(path) => (path.clone(), None),
        None => {
            let name = format!("busarb-cell-{}.{format}", std::process::id());
            let path = std::env::temp_dir().join(name);
            (path.clone(), Some(TempExport(path)))
        }
    };
    eprintln!("tracing the pinned cell to {}", path.display());
    let live = observe::run_pinned(opts.scale, Some((&path, format)));
    println!("live     {live}");
    let mut analysis = busarb_tail::analyze_path(&path)
        .map_err(|e| format!("cannot replay {}: {e}", path.display()))?;
    if temp.is_some() {
        analysis.source = format!("busarb-cell.{format}");
    }
    let text = analysis.render_text().trim_end().to_string();
    emit(opts, "cell_analysis", &analysis, text)?;
    observe::cross_check(&live, &analysis.protocol, &analysis.replay).map_err(|diffs| {
        // One line, machine-grepable: count first, then every
        // differing aggregate as `field: live X vs replayed Y`.
        format!(
            "round-trip MISMATCH: {} aggregate(s) differ: {}",
            diffs.len(),
            diffs.join("; ")
        )
    })?;
    println!("round-trip OK: replayed aggregates match the live run");
    Ok(())
}

/// A temporary file, deleted when this guard drops.
struct TempExport(PathBuf);

impl Drop for TempExport {
    fn drop(&mut self) {
        // Nothing is left to delete when the run failed before export.
        let _ = fs::remove_file(&self.0);
    }
}

/// Writes the `--metrics` export, if one was asked for.
///
/// # Errors
///
/// Returns a one-line message naming the file that could not be written.
fn write_metrics(opts: &Options) -> Result<(), String> {
    let (Some(path), Some(sweep)) = (&opts.metrics, observe::collect_rollups()) else {
        return Ok(());
    };
    eprintln!("collected metrics from {} cells", sweep.cells.len());
    let json = serde_json::to_string_pretty(&sweep)
        .map_err(|e| format!("cannot serialize metrics: {e}"))?;
    fs::write(path, json).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}
