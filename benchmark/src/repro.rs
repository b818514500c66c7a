//! `paper-repro`: the repository's `repro --scale paper --jobs 2 all`,
//! run as a child process exactly as users run it, timed, polled for
//! memory, and diffed byte for byte against `results/`.

use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::cells;
use crate::{
    available_parallelism, best, first_stderr_line, median, quantile, Context, Metric, Options,
    Outcome, Span,
};

/// The stages of `repro all`, each named with the output file that ends
/// it (the tables the shared grid feeds are written together, so the grid
/// stage ends at the last of them; the ablations end at `conservation`).
pub const STAGES: [(&str, &str); 11] = [
    ("grid", "table4_3.json"),
    ("table4_4", "table4_4.json"),
    ("table4_5", "table4_5.json"),
    ("ablations", "conservation.json"),
    ("tails", "tails.json"),
    ("bursty", "bursty.json"),
    ("worst_case_fcfs", "worst_case_fcfs.json"),
    ("priority_study", "priority_study.json"),
    ("scaling", "scaling.json"),
    ("ci_coverage", "ci_coverage.json"),
    ("batch_diagnostics", "batch_diagnostics.json"),
];

/// The stderr line `repro all` prints before computing the grid.
const GRID_START: &str = "computing the shared simulation grid";
/// Worker threads for the timed runs.
const JOBS: usize = 2;
/// `VmHWM` polling interval.
const POLL: Duration = Duration::from_millis(5);

/// What a correct run must reproduce: the files `repro all` writes and
/// the text it prints, all compared with `results/`.
#[derive(Clone, Debug)]
pub struct Expected {
    outputs: Vec<String>,
    stdout: PathBuf,
    results: PathBuf,
}

/// Reads the list of `repro all` outputs from `pins/paper-repro.json`;
/// their expected contents are the files of the same names under the
/// checkout's `results/`.
///
/// # Errors
///
/// Returns a message when the list is missing or malformed.
pub fn expected(ctx: &Context) -> Result<Expected, String> {
    let path = cells::pins_path(ctx, crate::Workload::PaperRepro);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc =
        serde_json::from_str(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))?;
    let outputs = doc
        .get("outputs")
        .and_then(serde::Value::as_array)
        .ok_or_else(|| format!("{} has no outputs list", path.display()))?
        .iter()
        .filter_map(|v| v.as_str().map(str::to_string))
        .collect();
    let stdout = doc
        .get("stdout")
        .and_then(serde::Value::as_str)
        .ok_or_else(|| format!("{} has no stdout entry", path.display()))?;
    let results = ctx.root.join("results");
    Ok(Expected {
        outputs,
        stdout: results.join(stdout),
        results,
    })
}

/// Builds `repro` from the checkout with the repository's own release
/// profile and returns the executable's path.
///
/// # Errors
///
/// Returns a message when cargo cannot be run or the build fails.
pub fn build_repro(ctx: &Context) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let output = Command::new(cargo)
        .current_dir(&ctx.root)
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "busarb-experiments",
            "--bin",
            "repro",
            "--message-format=json-render-diagnostics",
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !output.status.success() {
        return Err(format!("building repro failed ({})", output.status));
    }
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .filter_map(|line| serde_json::from_str(line).ok())
        .find_map(|msg| {
            let is_repro = msg.get("reason").and_then(serde::Value::as_str)
                == Some("compiler-artifact")
                && msg
                    .get("target")
                    .and_then(|t| t.get("name"))
                    .and_then(serde::Value::as_str)
                    == Some("repro");
            msg.get("executable")
                .and_then(serde::Value::as_str)
                .filter(|_| is_repro)
                .map(PathBuf::from)
        })
        .ok_or_else(|| "cargo reported no repro executable".to_string())
}

fn command(repro: &Path, jobs: usize, out_dir: &Path) -> Command {
    let mut cmd = Command::new(repro);
    cmd.arg("--scale")
        .arg("paper")
        .arg("--jobs")
        .arg(jobs.to_string())
        .arg("--json")
        .arg(out_dir)
        .arg("all");
    cmd
}

/// Time from spawning `repro` to its first stderr line: process start,
/// argument parsing and worker setup, before any simulation.
fn setup_probe(repro: &Path, ctx: &Context) -> Result<f64, String> {
    first_stderr_line(command(repro, JOBS, &ctx.tmp.join("probe"))).map(|(elapsed, _)| elapsed)
}

/// One full `repro all` run.
#[derive(Debug)]
pub struct Run {
    /// Wall-clock seconds from spawn to exit.
    pub wall_s: f64,
    /// Seconds per stage, in [`STAGES`] order.
    pub stage_s: Vec<f64>,
    /// Largest `VmHWM` polled, MB.
    pub peak_rss_mb: f64,
    /// Why the run is wrong, if it is.
    pub error: Option<String>,
}

/// Runs `repro all` once with `jobs` workers into a scratch directory,
/// timing its stages and polling its memory, and compares its stdout and
/// every output byte for byte with `exp`.
///
/// # Errors
///
/// Returns a message when `repro` cannot be started or waited for.
pub fn run_once(
    repro: &Path,
    jobs: usize,
    label: &str,
    exp: &Expected,
    ctx: &Context,
    spans: &mut Vec<Span>,
) -> Result<Run, String> {
    let out_dir = ctx.tmp.join(format!("{label}-json"));
    let stdout_path = ctx.tmp.join(format!("{label}-stdout.txt"));
    let _ = std::fs::remove_dir_all(&out_dir);
    let stdout = File::create(&stdout_path)
        .map_err(|e| format!("cannot create {}: {e}", stdout_path.display()))?;
    let start_ns = ctx.now_ns();
    let start = Instant::now();
    let mut child = command(repro, jobs, &out_dir)
        .stdout(stdout)
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start repro: {e}"))?;
    let stderr = child.stderr.take().ok_or("repro has no stderr pipe")?;
    // Timestamps each stderr line as it arrives; end of file is the
    // child's exit.
    let reader = std::thread::spawn(move || {
        let lines: Vec<(Instant, String)> = BufReader::new(stderr)
            .lines()
            .map_while(Result::ok)
            .map(|l| (Instant::now(), l))
            .collect();
        (lines, Instant::now())
    });
    let pid = child.id();
    let mut peak = 0.0f64;
    let status = loop {
        if let Some(mb) = crate::peak_rss_mb(pid) {
            peak = peak.max(mb);
        }
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) => std::thread::sleep(POLL),
            Err(e) => return Err(format!("cannot wait for repro: {e}")),
        }
    };
    let (lines, eof) = reader.join().map_err(|_| "stderr reader panicked")?;
    let wall_s = eof.duration_since(start).as_secs_f64();

    let mut error = None;
    let mut stage_s = Vec::with_capacity(STAGES.len());
    let mut from = lines
        .iter()
        .find(|(_, l)| l.starts_with(GRID_START))
        .map(|(t, _)| *t);
    for (stage, file) in STAGES {
        let end = lines
            .iter()
            .find(|(_, l)| {
                l.starts_with("wrote ")
                    && Path::new(&l[6..]).file_name().and_then(|f| f.to_str()) == Some(file)
            })
            .map(|(t, _)| *t);
        match (from, end) {
            (Some(a), Some(b)) => {
                stage_s.push(b.saturating_duration_since(a).as_secs_f64());
                spans.push(Span {
                    name: format!("stage.{stage}"),
                    parent: label.to_string(),
                    start_ns: start_ns + a.duration_since(start).as_nanos() as u64,
                    end_ns: start_ns + b.duration_since(start).as_nanos() as u64,
                    busy_ns: b.saturating_duration_since(a).as_nanos() as u64,
                    calls: 1,
                });
            }
            _ => {
                error.get_or_insert(format!("{label}: no stderr line ends stage {stage}"));
            }
        }
        from = end;
    }
    spans.push(Span {
        name: "run".to_string(),
        parent: label.to_string(),
        start_ns,
        end_ns: start_ns + (wall_s * 1e9) as u64,
        busy_ns: (wall_s * 1e9) as u64,
        calls: 1,
    });
    if !status.success() {
        error = Some(format!("{label}: repro exited with {status}"));
    }
    let same_stdout = matches!(
        (std::fs::read(&stdout_path), std::fs::read(&exp.stdout)),
        (Ok(a), Ok(b)) if a == b
    );
    if !same_stdout {
        error.get_or_insert(format!(
            "{label}: stdout differs from {}",
            exp.stdout.display()
        ));
    }
    let bad = tree_mismatches(&exp.results, &out_dir, &exp.outputs)?;
    if !bad.is_empty() {
        error.get_or_insert(format!(
            "{label}: outputs differ from results/: {}",
            bad.join(", ")
        ));
    }
    let _ = std::fs::remove_dir_all(&out_dir);
    let _ = std::fs::remove_file(&stdout_path);
    Ok(Run {
        wall_s,
        stage_s,
        peak_rss_mb: peak,
        error,
    })
}

/// Files under `expected` (by the names listed) that are missing from,
/// or differ by any byte in, `actual`; plus files in `actual` that are
/// not listed.
fn tree_mismatches(
    expected: &Path,
    actual: &Path,
    names: &[String],
) -> Result<Vec<String>, String> {
    let mut bad: Vec<String> = names
        .iter()
        .filter(|name| {
            let want = std::fs::read(expected.join(name));
            let got = std::fs::read(actual.join(name));
            !matches!((want, got), (Ok(w), Ok(g)) if w == g)
        })
        .cloned()
        .collect();
    let listing =
        std::fs::read_dir(actual).map_err(|e| format!("cannot list {}: {e}", actual.display()))?;
    for entry in listing.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if !names.contains(&name) {
            bad.push(name);
        }
    }
    Ok(bad)
}

fn report_errors(runs: &[Run]) -> u64 {
    let mut failed = 0;
    for e in runs.iter().filter_map(|r| r.error.as_deref()) {
        eprintln!("FAILED {e}");
        failed += 1;
    }
    failed
}

/// Best time of each stage over the correct runs.
fn stage_best(runs: &[Run]) -> Vec<f64> {
    (0..STAGES.len())
        .map(|i| {
            let times: Vec<f64> = correct(runs).map(|r| r.stage_s[i]).collect();
            best(&times)
        })
        .collect()
}

fn correct(runs: &[Run]) -> impl Iterator<Item = &Run> {
    runs.iter().filter(|r| r.error.is_none())
}

fn provenance() -> Vec<(&'static str, String)> {
    let multi = if available_parallelism() >= JOBS {
        "measured"
    } else {
        "unmeasured"
    };
    vec![
        ("engine", "reference".to_string()),
        ("scale", "paper".to_string()),
        ("jobs", JOBS.to_string()),
        ("multi_worker_figures", multi.to_string()),
    ]
}

/// Timed mode: set-up probes, then `repro all` runs until the budget is
/// spent.
///
/// # Errors
///
/// Returns a message when `repro` cannot be built or started.
pub fn run_timed(opts: &Options, ctx: &Context) -> Result<Outcome, String> {
    let exp = expected(ctx)?;
    let repro = build_repro(ctx)?;
    let mut setup = Vec::new();
    let mut spans = Vec::new();
    let mut runs = Vec::new();
    let budget = Duration::from_secs_f64(opts.seconds);
    let start = Instant::now();
    while crate::another_pass(runs.len(), start.elapsed(), budget) {
        for _ in 0..crate::SETUP_PROBES {
            setup.push(setup_probe(&repro, ctx)?);
        }
        let label = format!("run{}", runs.len());
        runs.push(run_once(&repro, JOBS, &label, &exp, ctx, &mut spans)?);
    }
    let failed = report_errors(&runs);
    // Runs and stages count at their best, as cells do: interference from
    // the rest of the host only ever adds time.
    let stage_ms: Vec<f64> = stage_best(&runs).iter().map(|s| s * 1e3).collect();
    let walls: Vec<f64> = correct(&runs).map(|r| r.wall_s).collect();
    Ok(Outcome {
        attempted: runs.len() as u64,
        failed,
        metrics: vec![
            Metric::new("setup_s", median(&setup), "s"),
            Metric::new("wall_s", best(&walls), "s"),
            Metric::new("item_ms_p50", quantile(&stage_ms, 0.5), "ms"),
            Metric::new("item_ms_p90", quantile(&stage_ms, 0.9), "ms"),
            Metric::new(
                "peak_rss_mb",
                runs.iter().map(|r| r.peak_rss_mb).fold(0.0, f64::max),
                "MB",
            ),
        ],
        notes: vec![
            Metric::new("items", STAGES.len() as f64, "count"),
            Metric::new("passes", runs.len() as f64, "count"),
        ],
        provenance: provenance(),
        spans,
    })
}

/// Traced mode: stage shares of `repro all` at `--jobs 2`, one extra
/// `--jobs 1` run for the worker speed-up, and the event-loop layer split
/// on the grid's largest cells.
///
/// # Errors
///
/// Returns a message when `repro` cannot be built or started.
pub fn run_traced(opts: &Options, ctx: &Context) -> Result<Outcome, String> {
    let exp = expected(ctx)?;
    let repro = build_repro(ctx)?;
    let mut spans = Vec::new();
    let mut runs = Vec::new();
    for i in 0..2 {
        runs.push(run_once(
            &repro,
            JOBS,
            &format!("run{i}"),
            &exp,
            ctx,
            &mut spans,
        )?);
    }
    let serial = run_once(&repro, 1, "serial", &exp, ctx, &mut spans)?;
    let wall = best(&correct(&runs).map(|r| r.wall_s).collect::<Vec<_>>());
    let stage_shares: Vec<(&str, f64)> = STAGES
        .iter()
        .zip(stage_best(&runs))
        .map(|((stage, _), s)| (*stage, crate::ratio(s, wall)))
        .collect();
    let speedup = crate::ratio(serial.wall_s, wall);
    runs.push(serial);
    let failed_runs = report_errors(&runs);

    let cells = cells::traced_cells(crate::Workload::PaperRepro, opts.seed);
    let (totals, failed_cells, cell_spans) = crate::layers::trace_cells(&cells, None, ctx);
    spans.extend(cell_spans);
    Ok(Outcome {
        attempted: (runs.len() + cells.len()) as u64,
        failed: failed_runs + failed_cells,
        metrics: totals.metrics(&stage_shares, speedup),
        notes: Vec::new(),
        provenance: provenance(),
        spans,
    })
}
