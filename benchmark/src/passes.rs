//! Timed mode for the four simulation workloads: repeated passes over the
//! workload's cells, each cell timed on its own and checked.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use busarb_obs::TraceFormat;
use busarb_sim::{RunReport, Simulation};

use crate::cells::{self, CellSpec, Pins};
use crate::{best, median, quantile, Context, Metric, Options, Outcome, Span, Workload};

/// A cell ready to run: its spec and the validated simulation.
struct Prepared {
    spec: CellSpec,
    sim: Simulation,
}

/// What a timed run builds before its first timed operation.
pub(crate) struct Setup {
    cells: Vec<Prepared>,
    /// The committed pins, when they apply to this seed and exist.
    pins: Option<Pins>,
}

/// Reads the pins and builds every cell's configuration and simulation
/// (with its trace-export path for `trace-roundtrip`): the work between
/// process start and the first timed cell.
pub(crate) fn setup(opts: &Options, ctx: &Context) -> Result<Setup, String> {
    let pins = cells::committed_pins(ctx, opts.workload, opts.seed)?;
    let cells = cells::cells(opts.workload, opts.seed)
        .into_iter()
        .enumerate()
        .map(|(i, mut spec)| {
            if opts.workload == Workload::TraceRoundtrip {
                spec.config = spec
                    .config
                    .with_trace_export(ctx.tmp.join(format!("cell-{i}.btrc")), TraceFormat::Binary);
            }
            let sim = Simulation::new(spec.config.clone())
                .map_err(|e| format!("{}: invalid configuration: {e}", spec.tag))?;
            Ok(Prepared { spec, sim })
        })
        .collect::<Result<_, String>>()?;
    Ok(Setup { cells, pins })
}

/// One cell's work in a pass: the run, and for `trace-roundtrip` the
/// analysis of its export. Returns the report, or what went wrong.
fn run_cell(cell: &Prepared) -> Result<RunReport, String> {
    let report = catch_unwind(AssertUnwindSafe(|| cell.sim.run_kind(cell.spec.kind)))
        .map_err(|_| format!("{}: panicked", cell.spec.tag))?
        .map_err(|e| format!("{}: {e}", cell.spec.tag))?;
    if let Some(export) = &cell.spec.config.trace_export {
        let analysis = busarb_tail::analyze_path(&export.path).map_err(|e| {
            format!(
                "{}: cannot analyze {}: {e}",
                cell.spec.tag,
                export.path.display()
            )
        })?;
        if analysis.replay.mean_wait.map(f64::to_bits) != Some(report.mean_wait.mean.to_bits()) {
            return Err(format!(
                "{}: replayed mean wait {:?} differs from the live {}",
                cell.spec.tag, analysis.replay.mean_wait, report.mean_wait.mean
            ));
        }
    }
    Ok(report)
}

fn remove_export(cell: &Prepared) {
    if let Some(export) = &cell.spec.config.trace_export {
        // A missing file only means the run failed before creating it,
        // which is already counted.
        let _ = std::fs::remove_file(&export.path);
    }
}

/// Timed mode for `arb-open`, `draw-bound`, `mesi-closed` and
/// `trace-roundtrip`.
pub fn run(opts: &Options, ctx: &Context) -> Result<Outcome, String> {
    let Setup {
        cells: prepared,
        pins,
    } = setup(opts, ctx)?;
    let mut setup_s = Vec::new();
    let n = prepared.len();
    let mut times = vec![Vec::new(); n];
    let mut digests: Vec<Option<String>> = vec![None; n];
    let mut errors: Vec<Option<String>> = vec![None; n];
    let mut events = vec![0u64; n];
    let mut pass_walls = Vec::new();
    let mut spans = Vec::new();
    let budget = Duration::from_secs_f64(opts.seconds);
    let start = Instant::now();
    while crate::another_pass(pass_walls.len(), start.elapsed(), budget) {
        for _ in 0..crate::SETUP_PROBES {
            setup_s.push(crate::setup_probe(opts, ctx)?);
        }
        let pass = pass_walls.len();
        let pass_start = Instant::now();
        let pass_start_ns = ctx.now_ns();
        for (i, cell) in prepared.iter().enumerate() {
            let begin = ctx.now_ns();
            let t0 = Instant::now();
            let result = run_cell(cell);
            let elapsed = t0.elapsed().as_secs_f64();
            let result = result.map(|r| (cells::digest(&r), r.events));
            remove_export(cell);
            let end = ctx.now_ns();
            spans.push(Span {
                name: "cell".to_string(),
                parent: format!("pass{pass}/{}", cell.spec.tag),
                start_ns: begin,
                end_ns: end,
                busy_ns: end - begin,
                calls: 1,
            });
            times[i].push(elapsed);
            match result {
                Ok((digest, ev)) => {
                    events[i] = ev;
                    match &digests[i] {
                        None => digests[i] = Some(digest),
                        Some(first) if *first != digest => {
                            errors[i].get_or_insert(format!(
                                "{}: pass {pass} digest {digest} differs from pass 0 {first}",
                                cell.spec.tag
                            ));
                        }
                        Some(_) => {}
                    }
                }
                Err(e) => {
                    errors[i].get_or_insert(e);
                }
            }
        }
        pass_walls.push(pass_start.elapsed().as_secs_f64());
        spans.push(Span {
            name: "pass".to_string(),
            parent: format!("pass{pass}"),
            start_ns: pass_start_ns,
            end_ns: ctx.now_ns(),
            busy_ns: ctx.now_ns() - pass_start_ns,
            calls: n as u64,
        });
    }

    if let Some(pins) = &pins {
        for ((cell, digest), error) in prepared.iter().zip(&digests).zip(&mut errors) {
            let tag = &cell.spec.tag;
            match (digest, pins.get(tag)) {
                (Some(d), Some(pin)) if d == pin => {}
                (Some(d), pin) => {
                    error.get_or_insert(format!(
                        "{tag}: digest {d} differs from the pin {}",
                        pin.map_or("(none)", String::as_str)
                    ));
                }
                (None, _) => {}
            }
        }
    } else if cells::pins_apply(opts.seed) && errors.iter().all(Option::is_none) {
        // No pins committed for this workload: this run's digests become
        // them (delete the file to regenerate it).
        let observed = prepared
            .iter()
            .zip(&digests)
            .filter_map(|(c, d)| d.clone().map(|d| (c.spec.tag.clone(), d)))
            .collect();
        let path = cells::pins_path(ctx, opts.workload);
        cells::write_pins(&path, opts.workload, &observed)?;
        eprintln!("wrote {}", path.display());
    }
    for e in errors.iter().flatten() {
        eprintln!("FAILED {e}");
    }

    // Each cell counts at its best pass: interference from the rest of the
    // host only ever adds time, and the passes spread every cell's samples
    // over the whole run.
    let cell_s: Vec<f64> = times.iter().map(|t| best(t)).collect();
    let cell_ms: Vec<f64> = cell_s.iter().map(|t| t * 1e3).collect();
    let wall: f64 = cell_s.iter().sum();
    let total_events: u64 = events.iter().sum();
    Ok(Outcome {
        attempted: n as u64,
        failed: errors.iter().filter(|e| e.is_some()).count() as u64,
        metrics: vec![
            Metric::new("setup_s", median(&setup_s), "s"),
            Metric::new("wall_s", wall, "s"),
            Metric::new("item_ms_p50", quantile(&cell_ms, 0.5), "ms"),
            Metric::new("item_ms_p90", quantile(&cell_ms, 0.9), "ms"),
            Metric::new(
                "peak_rss_mb",
                crate::peak_rss_mb(std::process::id()).unwrap_or(0.0),
                "MB",
            ),
        ],
        notes: vec![
            Metric::new(
                "sim_events_per_s",
                crate::ratio(total_events as f64, wall),
                "1/s",
            ),
            Metric::new("items", n as f64, "count"),
            Metric::new("passes", pass_walls.len() as f64, "count"),
        ],
        provenance: vec![
            ("engine", cells::engine_name(opts.workload).to_string()),
            ("scale", cells::scale_name(opts.workload).to_string()),
        ],
        spans,
    })
}
