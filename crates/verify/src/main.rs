//! Command-line driver for the bounded model checker.
//!
//! ```text
//! cargo run -p verify --release -- --all
//! cargo run -p verify --release -- --protocol rr --protocol fcfs-2 --agents 4 --depth 8
//! cargo run -p verify --release -- --all --bench-out BENCH_verify.json
//! ```
//!
//! Exit code 0 means every requested check passed exhaustively; 1 means a
//! violation was found (the minimal counterexample is printed) or a state
//! cap truncated a search; 2 means bad usage.

use std::process::ExitCode;
use std::time::Instant;

use busarb_core::ProtocolKind;
use serde::Serialize;
use verify::{check_kind, CheckConfig};

struct Args {
    kinds: Vec<ProtocolKind>,
    min_agents: u32,
    max_agents: u32,
    depth: usize,
    max_states: usize,
    bench_out: Option<std::path::PathBuf>,
    trace_out: Option<std::path::PathBuf>,
}

fn usage() -> String {
    let slugs: Vec<String> = ProtocolKind::all()
        .iter()
        .map(ToString::to_string)
        .collect();
    format!(
        "usage: verify [--all | --protocol SLUG ...] [options]\n\
         \n\
         options:\n\
         \x20 --all               check every protocol\n\
         \x20 --protocol SLUG     check one protocol (repeatable)\n\
         \x20 --agents N          check a single system size N\n\
         \x20 --max-agents N      check sizes 1..=N (default 4)\n\
         \x20 --depth D           schedule length bound (default 6)\n\
         \x20 --max-states S      state cap per check (default 4000000)\n\
         \x20 --bench-out PATH    write per-protocol wall-clock results as JSON\n\
         \x20 --trace-out DIR     write each counterexample trace to\n\
         \x20                     DIR/<protocol>-n<agents>.json (busarb-counterexample/1)\n\
         \x20 --list              list protocol slugs\n\
         \n\
         protocols: {}",
        slugs.join(", ")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        kinds: Vec::new(),
        min_agents: 1,
        max_agents: 4,
        depth: 6,
        max_states: 4_000_000,
        bench_out: None,
        trace_out: None,
    };
    let mut all = false;
    let mut single_size = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match arg.as_str() {
            "--all" => all = true,
            "--protocol" => {
                args.kinds.push(value("--protocol")?.parse()?);
            }
            "--agents" => {
                single_size = Some(
                    value("--agents")?
                        .parse::<u32>()
                        .map_err(|e| format!("--agents: {e}"))?,
                );
            }
            "--max-agents" => {
                args.max_agents = value("--max-agents")?
                    .parse()
                    .map_err(|e| format!("--max-agents: {e}"))?;
            }
            "--depth" => {
                args.depth = value("--depth")?
                    .parse()
                    .map_err(|e| format!("--depth: {e}"))?;
            }
            "--max-states" => {
                args.max_states = value("--max-states")?
                    .parse()
                    .map_err(|e| format!("--max-states: {e}"))?;
            }
            "--bench-out" => args.bench_out = Some(value("--bench-out")?.into()),
            "--trace-out" => args.trace_out = Some(value("--trace-out")?.into()),
            "--list" => {
                for kind in ProtocolKind::all() {
                    println!("{kind}");
                }
                std::process::exit(0);
            }
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if all {
        args.kinds = ProtocolKind::all().to_vec();
    }
    if args.kinds.is_empty() {
        return Err("nothing to check: pass --all or --protocol".to_string());
    }
    if let Some(n) = single_size {
        args.min_agents = n;
        args.max_agents = n;
    }
    if args.min_agents == 0 || args.max_agents < args.min_agents {
        return Err("bad agent range".to_string());
    }
    Ok(args)
}

#[derive(Serialize)]
struct BenchRow {
    protocol: String,
    agents: u32,
    depth: usize,
    states: usize,
    transitions: u64,
    grants: u64,
    millis: f64,
}

#[derive(Serialize)]
struct BenchReport {
    description: &'static str,
    max_agents: u32,
    depth: usize,
    rows: Vec<BenchRow>,
}

fn export_counterexample(
    dir: &std::path::Path,
    report: &verify::CheckReport,
    violation: &verify::Violation,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}-n{}.json", report.protocol, report.agents));
    let value = verify::violation_to_value(report, violation);
    let json = serde_json::to_string_pretty(&value)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    std::fs::write(&path, json + "\n")?;
    eprintln!("  counterexample written to {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let cfg = CheckConfig {
        depth: args.depth,
        max_states: args.max_states,
    };
    let mut rows = Vec::new();
    let mut failed = false;
    for &kind in &args.kinds {
        for n in args.min_agents..=args.max_agents {
            let start = Instant::now();
            let report = match check_kind(kind, n, &cfg) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("error: {kind} at n={n}: {e}");
                    failed = true;
                    continue;
                }
            };
            let millis = start.elapsed().as_secs_f64() * 1e3;
            println!(
                "{:<14} n={n} depth={} states={:<8} transitions={:<9} grants={:<8} {millis:.1}ms",
                report.protocol, report.depth, report.states, report.transitions, report.grants,
            );
            if report.truncated {
                eprintln!(
                    "  TRUNCATED: state cap {} reached; the check is not exhaustive",
                    cfg.max_states
                );
                failed = true;
            }
            if let Some(v) = &report.violation {
                eprintln!("{v}");
                failed = true;
                if let Some(dir) = &args.trace_out {
                    if let Err(e) = export_counterexample(dir, &report, v) {
                        eprintln!("error: cannot export counterexample: {e}");
                    }
                }
            }
            rows.push(BenchRow {
                protocol: report.protocol,
                agents: n,
                depth: report.depth,
                states: report.states,
                transitions: report.transitions,
                grants: report.grants,
                millis,
            });
        }
    }
    if let Some(path) = &args.bench_out {
        let report = BenchReport {
            description: "bounded model checker wall-clock per protocol \
                          (cargo run -p verify --release)",
            max_agents: args.max_agents,
            depth: args.depth,
            rows,
        };
        match serde_json::to_string_pretty(&report) {
            Ok(json) => {
                if let Err(e) = std::fs::write(path, json + "\n") {
                    eprintln!("error: cannot write {}: {e}", path.display());
                    return ExitCode::from(1);
                }
                println!("wrote {}", path.display());
            }
            Err(e) => {
                eprintln!("error: serializing bench report: {e}");
                return ExitCode::from(1);
            }
        }
    }
    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
