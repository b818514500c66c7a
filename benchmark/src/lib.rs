//! The repository benchmark: five workloads that time the simulator end to
//! end, and a traced mode that splits the event loop's host time into its
//! crates by replaying the calls the loop made.
//!
//! Every workload runs in the process that `main` starts for it, so its
//! set-up time and peak memory are its own. The timed mode
//! ([`Options::trace`] off) reports the end-to-end metrics; the traced mode
//! reports the per-layer metrics. Both check every output they produce and
//! count failures against attempts (see `README.md`).

#![forbid(unsafe_code)]

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

pub mod cells;
pub mod layers;
mod passes;
pub mod repro;

/// The seed the committed pins were generated at. At any other seed only
/// the pass-agreement checks apply.
pub const DEFAULT_SEED: u64 = 1;

/// The benchmark's workloads (see `README.md` for why each exists).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// Open loop, 30 agents, load 2.0, CV 1.0, reference engine, paper scale.
    ArbOpen,
    /// The same cells at CV 0.1 (Erlang k = 100), quick scale: draw-bound.
    DrawBound,
    /// Closed-loop MESI traffic on the fast engine, 10 and 30 agents.
    MesiClosed,
    /// `arb-open` cells exported to binary traces, then streamed through
    /// the trace analyzer.
    TraceRoundtrip,
    /// `repro --scale paper --jobs 2 all`, diffed against `results/`.
    PaperRepro,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 5] = [
        Workload::ArbOpen,
        Workload::DrawBound,
        Workload::MesiClosed,
        Workload::TraceRoundtrip,
        Workload::PaperRepro,
    ];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::ArbOpen => "arb-open",
            Workload::DrawBound => "draw-bound",
            Workload::MesiClosed => "mesi-closed",
            Workload::TraceRoundtrip => "trace-roundtrip",
            Workload::PaperRepro => "paper-repro",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One invocation's settings.
#[derive(Clone, Debug)]
pub struct Options {
    /// The workload to run.
    pub workload: Workload,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Measurement budget: passes repeat until it is spent (at least
    /// [`MIN_PASSES`] of them).
    pub seconds: f64,
    /// Traced mode: report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// Fewest passes any timed measurement takes, whatever the budget: the
/// pass-agreement check and the per-item medians need three.
pub const MIN_PASSES: usize = 3;

/// Whether a timed loop starts another pass: always until [`MIN_PASSES`],
/// then only while one more pass of the average length so far fits in the
/// budget, so a run ends within `--seconds` once it has its minimum.
pub(crate) fn another_pass(passes: usize, elapsed: Duration, budget: Duration) -> bool {
    passes < MIN_PASSES || elapsed + elapsed / passes as u32 <= budget
}

/// Where the benchmark reads and writes.
#[derive(Clone, Debug)]
pub struct Context {
    /// The repository checkout (holds `results/` and the benchmark).
    pub root: PathBuf,
    /// The benchmark executable, started afresh for each set-up probe.
    pub exe: PathBuf,
    /// Scratch directory for trace files and `repro` outputs; removed
    /// when the run ends.
    pub tmp: PathBuf,
    /// Zero of every span timestamp.
    pub origin: Instant,
}

impl Context {
    /// The benchmark package directory (holds `pins/`).
    #[must_use]
    pub fn package_dir(&self) -> PathBuf {
        self.root.join("benchmark")
    }

    /// Nanoseconds since [`Context::origin`].
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// Builds a metric.
    #[must_use]
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// A timed interval, kept in memory and written by `--trace-out`.
#[derive(Clone, Debug)]
pub struct Span {
    /// What was timed (`cell`, `pass`, `layer.<name>`, `stage.<name>`, ...).
    pub name: String,
    /// The enclosing unit of work (cell tag, pass number, run number).
    pub parent: String,
    /// Start, in ns since [`Context::origin`].
    pub start_ns: u64,
    /// End, in ns since [`Context::origin`].
    pub end_ns: u64,
    /// Time inside the timed calls only (the batch spans' sum); equals
    /// `end_ns - start_ns` for spans around a single operation.
    pub busy_ns: u64,
    /// Calls the span covers.
    pub calls: u64,
}

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Cells, files or runs attempted.
    pub attempted: u64,
    /// How many of them failed a check or panicked.
    pub failed: u64,
    /// The reported metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Figures printed for reading but not part of the JSON result.
    pub notes: Vec<Metric>,
    /// Provenance fields beyond the host block (engine, scale, ...).
    pub provenance: Vec<(&'static str, String)>,
    /// Every span taken.
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Failed over attempted.
    #[must_use]
    pub fn failure_rate(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Whether the run passed: something was attempted, nothing failed,
    /// and every metric is a finite number.
    #[must_use]
    pub fn is_correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    #[must_use]
    pub fn result_json(&self) -> String {
        use serde::Value;
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let value = Value::Object(vec![
                    ("value".to_string(), Value::Float(m.value)),
                    ("unit".to_string(), Value::Str(m.unit.to_string())),
                ]);
                (m.name.clone(), value)
            })
            .collect();
        let result = Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.is_correct())),
            ("attempted".to_string(), Value::UInt(self.attempted)),
            ("failed".to_string(), Value::UInt(self.failed)),
            ("metrics".to_string(), Value::Object(metrics)),
        ]);
        serde_json::to_string(&result).unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"))
    }
}

/// Runs one workload in this process.
///
/// # Errors
///
/// Returns a message when the workload cannot be set up at all (missing
/// `results/`, unreadable pins, a `repro` build failure). Failed cells,
/// files and runs are counted in the [`Outcome`] instead.
pub fn run(opts: &Options, ctx: &Context) -> Result<Outcome, String> {
    let mut outcome = match (opts.workload, opts.trace) {
        (Workload::PaperRepro, false) => repro::run_timed(opts, ctx)?,
        (Workload::PaperRepro, true) => repro::run_traced(opts, ctx)?,
        (_, false) => passes::run(opts, ctx)?,
        (_, true) => layers::run_traced(opts, ctx)?,
    };
    outcome
        .notes
        .push(Metric::new("failure_rate", outcome.failure_rate(), "share"));
    Ok(outcome)
}

/// Set-up probes before each pass; `setup_s` is the median of all of
/// them, so it samples the host across the whole run.
pub(crate) const SETUP_PROBES: usize = 5;

/// Set in a set-up probe's environment: the process builds its
/// workload's inputs as a timed run does, prints [`PROBE_READY`] on
/// standard error and exits before the first timed operation.
pub const PROBE_ENV: &str = "BUSARB_BENCHMARK_SETUP_PROBE";

/// The line a set-up probe prints when it is ready to time.
pub const PROBE_READY: &str = "ready";

/// Everything a timed run does before its first timed operation, for a
/// set-up probe.
///
/// # Errors
///
/// As [`run`], when the workload cannot be set up.
pub fn probe(opts: &Options, ctx: &Context) -> Result<(), String> {
    std::hint::black_box(passes::setup(opts, ctx)?);
    Ok(())
}

/// One `setup_s` sample for a simulation workload: seconds from starting
/// a fresh benchmark process on it until it is ready to time its first
/// cell.
pub(crate) fn setup_probe(opts: &Options, ctx: &Context) -> Result<f64, String> {
    let mut cmd = Command::new(&ctx.exe);
    cmd.current_dir(&ctx.root)
        .env(PROBE_ENV, "1")
        .args(["--workload", opts.workload.name()])
        .args(["--seed", &opts.seed.to_string()]);
    match first_stderr_line(cmd)? {
        (elapsed, line) if line.trim_end() == PROBE_READY => Ok(elapsed),
        (_, line) => Err(format!("set-up probe failed: {}", line.trim_end())),
    }
}

/// Seconds from spawning `cmd` to its first line on standard error, and
/// that line; the process is then stopped and reaped.
pub(crate) fn first_stderr_line(mut cmd: Command) -> Result<(f64, String), String> {
    let start = Instant::now();
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", cmd.get_program().to_string_lossy()))?;
    let mut line = String::new();
    if let Some(stderr) = child.stderr.take() {
        // An unreadable stream leaves the line empty, which callers reject.
        let _ = BufReader::new(stderr).read_line(&mut line);
    }
    let elapsed = start.elapsed().as_secs_f64();
    let _ = child.kill();
    let _ = child.wait();
    if line.is_empty() {
        return Err(format!(
            "{} printed nothing on stderr",
            cmd.get_program().to_string_lossy()
        ));
    }
    Ok((elapsed, line))
}

/// The host provenance block printed with every result: cores, machine
/// speed, build profile and version, so a figure carries the host that
/// produced it.
#[must_use]
pub fn host_provenance() -> Vec<(&'static str, String)> {
    vec![
        ("available_parallelism", available_parallelism().to_string()),
        ("calibration_ops_per_s", format!("{:.4e}", calibrate())),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
        ),
        ("version", env!("CARGO_PKG_VERSION").to_string()),
    ]
}

/// Cores this process may use.
#[must_use]
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Iterations of the calibration kernel per timing window.
const CALIBRATION_ITERS: u64 = 20_000_000;

/// Timing windows per calibration; the minimum elapsed is used.
const CALIBRATION_REPS: usize = 15;

/// Frozen synthetic integer kernel (xor-multiply mixing, the instruction
/// mix the simulator leans on). This and [`calibrate`] are `bench_run`'s
/// calibration, copied because `bench_run` keeps them private to its
/// binary; `tests/shared_with_workspace.rs` keeps the copies identical,
/// so calibration figures stay comparable with `BENCH_run.json`.
#[must_use]
pub fn calibration_kernel(iters: u64) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..iters {
        x = (x ^ i).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
    }
    x
}

/// Machine-speed reference: best ops/s of [`calibration_kernel`] over
/// [`CALIBRATION_REPS`] windows.
#[must_use]
pub fn calibrate() -> f64 {
    let mut min = f64::INFINITY;
    for _ in 0..CALIBRATION_REPS {
        let start = Instant::now();
        std::hint::black_box(calibration_kernel(std::hint::black_box(CALIBRATION_ITERS)));
        min = min.min(start.elapsed().as_secs_f64());
    }
    CALIBRATION_ITERS as f64 / min
}

/// Median of `values` (mean of the middle two for even lengths); 0 for
/// an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Smallest of `values` (0 for an empty slice): the best case of a
/// repeated timing, which interference from the rest of the host can only
/// lengthen.
#[must_use]
pub fn best(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// The `q`-quantile of `values` by linear interpolation between closest
/// ranks; 0 for an empty slice.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Peak resident set size (`VmHWM`) of process `pid` in MB, or `None`
/// once the process is gone.
#[must_use]
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// `a / b`, or 0 when nothing was counted (`b == 0`).
#[must_use]
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Nanoseconds elapsed since `start`.
fn ns_since(start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("all"), None);
    }
}
