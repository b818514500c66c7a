//! `benchmark` — the repository benchmark.
//!
//! ```text
//! benchmark --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]
//!           [--trace-out FILE]
//! ```
//!
//! Run from the root of a repository checkout. Prints a provenance line,
//! one `workload metric value unit` line per figure, and, last, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. `--trace 1`
//! reports the per-layer metrics instead of the end-to-end ones;
//! `--trace-out FILE` writes every span as JSON lines. `all` runs each
//! workload in a child process of its own. Exits non-zero when any check
//! fails.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use busarb_benchmark::{
    host_provenance, probe, run, Context, Options, Outcome, Workload, DEFAULT_SEED, PROBE_ENV,
    PROBE_READY,
};

const USAGE: &str =
    "usage: benchmark --workload arb-open|draw-bound|mesi-closed|trace-roundtrip|paper-repro|all \
     [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]";

struct Cli {
    /// `None` runs every workload.
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
}

fn parse_args() -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        trace_out: None,
    };
    let mut named = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                named = true;
                if name != "all" {
                    cli.workload =
                        Some(Workload::parse(&name).ok_or(format!("unknown workload '{name}'"))?);
                }
            }
            "--seed" => {
                let v = value("--seed")?;
                cli.seed = v
                    .parse()
                    .map_err(|e| format!("invalid --seed '{v}': {e}"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                cli.seconds = v
                    .parse()
                    .map_err(|e| format!("invalid --seconds '{v}': {e}"))?;
                if !(cli.seconds.is_finite() && cli.seconds >= 0.0) {
                    return Err(format!("invalid --seconds '{v}'"));
                }
            }
            "--trace" => {
                cli.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("invalid --trace '{other}' (0|1)")),
                };
            }
            "--trace-out" => cli.trace_out = Some(PathBuf::from(value("--trace-out")?)),
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    if !named {
        return Err("missing --workload".to_string());
    }
    Ok(cli)
}

/// Runs every workload in a fresh child process, so each one's set-up
/// time and peak memory are its own.
fn run_all(cli: &Cli) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for workload in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", workload.name()])
            .args(["--seed", &cli.seed.to_string()])
            .args(["--seconds", &cli.seconds.to_string()])
            .args(["--trace", if cli.trace { "1" } else { "0" }]);
        if let Some(out) = &cli.trace_out {
            cmd.arg("--trace-out")
                .arg(format!("{}.{}", out.display(), workload.name()));
        }
        match cmd.status() {
            Ok(status) => ok &= status.success(),
            Err(e) => {
                eprintln!("error: cannot start {}: {e}", workload.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn provenance_json(cli: &Cli, workload: Workload, outcome: &Outcome) -> String {
    let mut fields = host_provenance();
    fields.push(("workload", workload.name().to_string()));
    fields.push(("seed", cli.seed.to_string()));
    fields.push((
        "mode",
        if cli.trace { "traced" } else { "timed" }.to_string(),
    ));
    fields.extend(outcome.provenance.iter().cloned());
    let object = fields
        .into_iter()
        .map(|(k, v)| (k.to_string(), serde::Value::Str(v)))
        .collect();
    serde_json::to_string(&serde::Value::Object(object)).unwrap_or_default()
}

fn write_spans(path: &Path, provenance: &str, outcome: &Outcome) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{provenance}")?;
    for s in &outcome.spans {
        let span = serde::Value::Object(vec![
            ("span".to_string(), serde::Value::Str(s.name.clone())),
            ("parent".to_string(), serde::Value::Str(s.parent.clone())),
            ("start_ns".to_string(), serde::Value::UInt(s.start_ns)),
            ("end_ns".to_string(), serde::Value::UInt(s.end_ns)),
            ("busy_ns".to_string(), serde::Value::UInt(s.busy_ns)),
            ("calls".to_string(), serde::Value::UInt(s.calls)),
        ]);
        writeln!(
            out,
            "{}",
            serde_json::to_string(&span).map_err(std::io::Error::other)?
        )?;
    }
    out.flush()
}

fn run_one(cli: &Cli, workload: Workload) -> ExitCode {
    let origin = Instant::now();
    let (root, exe) = match (std::env::current_dir(), std::env::current_exe()) {
        (Ok(root), Ok(exe)) => (root, exe),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: cannot locate the checkout or this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let scratch = root.join(".bench_tmp");
    let ctx = Context {
        tmp: scratch.join(format!("{}-{}", workload.name(), std::process::id())),
        root,
        exe,
        origin,
    };
    let opts = Options {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
    };
    if std::env::var_os(PROBE_ENV).is_some() {
        return match probe(&opts, &ctx) {
            Ok(()) => {
                eprintln!("{PROBE_READY}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {}: {e}", workload.name());
                ExitCode::FAILURE
            }
        };
    }
    if let Err(e) = std::fs::create_dir_all(&ctx.tmp) {
        eprintln!("error: cannot create {}: {e}", ctx.tmp.display());
        return ExitCode::FAILURE;
    }
    let result = run(&opts, &ctx);
    // Scratch files are removed whatever happened; `.bench_tmp` goes too
    // once no other run is using it.
    let _ = std::fs::remove_dir_all(&ctx.tmp);
    let _ = std::fs::remove_dir(&scratch);
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {}: {e}", workload.name());
            return ExitCode::FAILURE;
        }
    };
    let provenance = provenance_json(cli, workload, &outcome);
    if let Some(path) = &cli.trace_out {
        if let Err(e) = write_spans(path, &provenance, &outcome) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("provenance {provenance}");
    for m in outcome.metrics.iter().chain(&outcome.notes) {
        println!("{} {} {} {}", workload.name(), m.name, m.value, m.unit);
    }
    println!("{}", outcome.result_json());
    if outcome.is_correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let cli = match parse_args() {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match cli.workload {
        Some(workload) => run_one(&cli, workload),
        None => run_all(&cli),
    }
}
