//! `simulate` — run one custom bus-arbitration scenario and print the
//! measurements.
//!
//! ```text
//! simulate [options]
//!   --protocol NAME    fixed-priority | aap-1 | aap-2 | aap-2m | rr |
//!                      fcfs-1 | fcfs-2 | central-rr | central-fcfs |
//!                      hybrid | adaptive | rotating-rr | ticket-fcfs
//!                      (default: rr)
//!   --agents N         system size (default 10)
//!   --load X           total offered load (default 2.0)
//!   --cv C             interrequest-time CV: 0, or in [0.01, 1] (default 1.0)
//!   --samples S        samples per batch, 10 batches (default 2000)
//!   --seed S           PRNG seed (default 1)
//!   --engine E         workload draw engine: reference | fast
//!                      (default reference)
//!   --urgent P         urgent-request probability (default 0)
//!   --outstanding R    max outstanding requests per agent (default 1;
//!                      only central-fcfs admits more)
//!   --overhead A       arbitration overhead (default 0.5)
//!   --trace K          print the first K trace events
//!   --trace-out FILE   export EVERY trace event to FILE (see --trace-format)
//!   --trace-format F   export framing: jsonl (default) or binary
//!   --metrics FILE     write the run's metrics snapshot as JSON
//!   --compare          run ALL protocols on the scenario instead of one
//!                      (incompatible with --trace-out / --metrics)
//!   --jobs N           worker threads for --compare (0 = all cores)
//!
//! scenario variants (default: equal loads):
//!   --boost FACTOR     agent 1 offers FACTOR x the common load (Table 4.4)
//!   --worst-case-rr    the Table 4.5 "just miss" workload (slow agent 1)
//!   --worst-case-fcfs  the 4.5-footnote re-synchronizing FCFS workload
//!   --bursty B         trace-driven bursty traffic (quiet/burst ratio B)
//!   --workload mesi    closed-loop MESI coherence workload: every request
//!                      is a cache miss and the agent stalls until its
//!                      grant completes (--load/--cv are ignored; requires
//!                      --outstanding 1)
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use busarb_core::ProtocolKind;
use busarb_sim::{RunReport, Simulation, SystemConfig, TraceFormat};
use busarb_stats::BatchMeansConfig;
use busarb_types::{AgentId, Time};
use busarb_workload::{BurstyTrace, CoherenceConfig, DrawEngineKind, Scenario};

#[derive(Clone, Copy, PartialEq, Debug)]
enum Variant {
    EqualLoad,
    Boost(f64),
    WorstCaseRr,
    WorstCaseFcfs,
    Bursty(f64),
    Mesi,
}

#[derive(Clone, Debug)]
struct Options {
    protocol: ProtocolKind,
    agents: u32,
    load: f64,
    cv: f64,
    samples: usize,
    seed: u64,
    engine: DrawEngineKind,
    urgent: f64,
    outstanding: u32,
    overhead: f64,
    trace: usize,
    trace_out: Option<PathBuf>,
    trace_format: TraceFormat,
    metrics: Option<PathBuf>,
    compare: bool,
    jobs: usize,
    variant: Variant,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            protocol: ProtocolKind::RoundRobin,
            agents: 10,
            load: 2.0,
            cv: 1.0,
            samples: 2000,
            seed: 1,
            engine: DrawEngineKind::Reference,
            urgent: 0.0,
            outstanding: 1,
            overhead: 0.5,
            trace: 0,
            trace_out: None,
            trace_format: TraceFormat::Jsonl,
            metrics: None,
            compare: false,
            jobs: 0,
            variant: Variant::EqualLoad,
        }
    }
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--protocol" => {
                opts.protocol = value("--protocol")?.parse()?;
            }
            "--agents" => opts.agents = value("--agents")?.parse().map_err(|e| format!("{e}"))?,
            "--load" => opts.load = value("--load")?.parse().map_err(|e| format!("{e}"))?,
            "--cv" => opts.cv = value("--cv")?.parse().map_err(|e| format!("{e}"))?,
            "--samples" => {
                opts.samples = value("--samples")?.parse().map_err(|e| format!("{e}"))?;
            }
            "--seed" => opts.seed = value("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--engine" => {
                let v = value("--engine")?;
                opts.engine = DrawEngineKind::parse(&v)
                    .ok_or_else(|| format!("unknown engine '{v}' (reference|fast)"))?;
            }
            "--urgent" => opts.urgent = value("--urgent")?.parse().map_err(|e| format!("{e}"))?,
            "--outstanding" => {
                opts.outstanding = value("--outstanding")?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
            }
            "--overhead" => {
                opts.overhead = value("--overhead")?.parse().map_err(|e| format!("{e}"))?;
            }
            "--trace" => opts.trace = value("--trace")?.parse().map_err(|e| format!("{e}"))?,
            "--trace-out" => opts.trace_out = Some(PathBuf::from(value("--trace-out")?)),
            "--trace-format" => opts.trace_format = value("--trace-format")?.parse()?,
            "--metrics" => opts.metrics = Some(PathBuf::from(value("--metrics")?)),
            "--compare" => opts.compare = true,
            "--jobs" => opts.jobs = value("--jobs")?.parse().map_err(|e| format!("{e}"))?,
            "--boost" => {
                opts.variant =
                    Variant::Boost(value("--boost")?.parse().map_err(|e| format!("{e}"))?);
            }
            "--worst-case-rr" => opts.variant = Variant::WorstCaseRr,
            "--worst-case-fcfs" => opts.variant = Variant::WorstCaseFcfs,
            "--bursty" => {
                opts.variant =
                    Variant::Bursty(value("--bursty")?.parse().map_err(|e| format!("{e}"))?);
            }
            "--workload" => {
                opts.variant = match value("--workload")?.as_str() {
                    "mesi" => Variant::Mesi,
                    "open" => Variant::EqualLoad,
                    other => return Err(format!("unknown workload '{other}' (open|mesi)")),
                };
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    Ok(opts)
}

fn usage() -> String {
    let slugs: Vec<&str> = ProtocolKind::all().iter().map(|k| k.slug()).collect();
    format!(
        "usage: simulate [--protocol NAME] [--agents N] [--load X] [--cv C]\n\
     \u{20}               [--samples S] [--seed S] [--engine reference|fast]\n\
     \u{20}               [--urgent P] [--outstanding R]\n\
     \u{20}               [--overhead A] [--trace K] [--compare] [--jobs N]\n\
     \u{20}               [--trace-out FILE] [--trace-format jsonl|binary] [--metrics FILE]\n\
     \u{20}               [--boost F | --worst-case-rr | --worst-case-fcfs | --bursty B]\n\
     \u{20}               [--workload open|mesi]\n\
     protocols: {}",
        slugs.join(" ")
    )
}

fn build_scenario(opts: &Options) -> Result<Scenario, String> {
    let agent1 = AgentId::new(1).map_err(|e| e.to_string())?;
    match opts.variant {
        Variant::EqualLoad => {
            Scenario::equal_load(opts.agents, opts.load, opts.cv).map_err(|e| e.to_string())
        }
        Variant::Boost(factor) => {
            Scenario::rate_multiplied(opts.agents, opts.load, agent1, factor, opts.cv)
                .map_err(|e| e.to_string())
        }
        Variant::WorstCaseRr => {
            Scenario::worst_case_rr(opts.agents, agent1, opts.cv).map_err(|e| e.to_string())
        }
        Variant::WorstCaseFcfs => {
            Scenario::worst_case_fcfs(opts.agents, 0.5).map_err(|e| e.to_string())
        }
        Variant::Bursty(burstiness) => {
            let per_agent = opts.load / f64::from(opts.agents);
            if !(0.0..1.0).contains(&per_agent) || per_agent <= 0.0 {
                return Err(format!("per-agent load {per_agent} out of range"));
            }
            let mean = 1.0 / per_agent - 1.0;
            let trace = BurstyTrace {
                burstiness,
                ..BurstyTrace::with_mean(mean)
            }
            .synthesize(opts.seed ^ 0xB0B5)
            .map_err(|e| e.to_string())?;
            Scenario::from_trace_equal(opts.agents, trace).map_err(|e| e.to_string())
        }
        Variant::Mesi => Scenario::closed_loop(opts.agents, CoherenceConfig::default_mix())
            .map_err(|e| e.to_string()),
    }
}

/// The configured simulation every protocol of the run shares.
fn simulation(opts: &Options) -> Result<Simulation, String> {
    let scenario = build_scenario(opts)?;
    let mut config = SystemConfig::new(scenario)
        .with_batches(BatchMeansConfig::quick(opts.samples))
        .with_warmup(opts.samples / 2)
        .with_seed(opts.seed)
        .with_draw_engine(opts.engine)
        .with_urgent_fraction(opts.urgent)
        .with_max_outstanding(opts.outstanding)
        .with_arbitration_overhead(Time::new(opts.overhead).map_err(|e| e.to_string())?);
    if opts.trace > 0 {
        config = config.with_trace(opts.trace);
    }
    if let Some(path) = &opts.trace_out {
        config = config.with_trace_export(path, opts.trace_format);
    }
    Simulation::new(config).map_err(|e| e.to_string())
}

fn print_report(opts: &Options, report: &RunReport) {
    let fairness = report
        .throughput_ratio(opts.agents, 1, 0.90)
        .map_or_else(|| "n/a".to_string(), |r| r.estimate.to_string());
    println!(
        "{:<14} W = {:<14} sd(W) = {:<7.3} util = {:<6.3} t[N]/t[1] = {:<13} arbs/grant = {:.3}",
        report.protocol,
        report.mean_wait.to_string(),
        report.wait_summary.std_dev(),
        report.utilization,
        fairness,
        report.arbitrations as f64 / report.grants.max(1) as f64,
    );
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
    if opts.compare && (opts.trace_out.is_some() || opts.metrics.is_some()) {
        eprintln!("error: --trace-out/--metrics export a single run; drop --compare");
        return ExitCode::FAILURE;
    }
    println!(
        "scenario: {} agents, total load {}, cv {}, seed {}, engine {}, variant {:?}",
        opts.agents, opts.load, opts.cv, opts.seed, opts.engine, opts.variant
    );
    busarb_experiments::set_jobs(opts.jobs);
    let kinds: Vec<ProtocolKind> = if opts.compare {
        ProtocolKind::all().to_vec()
    } else {
        vec![opts.protocol]
    };
    // Every protocol is checked before any runs, so a scenario one of
    // them cannot run fails at once instead of after the others finish.
    let checked = simulation(&opts).and_then(|sim| {
        for &kind in &kinds {
            sim.check_kind(kind).map_err(|e| e.to_string())?;
        }
        Ok(sim)
    });
    let sim = match checked {
        Ok(sim) => sim,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    };
    // Each protocol is an independent cell (same scenario, same seed), so
    // --compare fans out across workers; reports print in protocol order.
    let reports =
        busarb_experiments::run_cells(kinds, |kind| sim.run_kind(kind).map_err(|e| e.to_string()));
    for report in reports {
        match report {
            Ok(report) => {
                print_report(&opts, &report);
                if opts.trace > 0 && !opts.compare {
                    println!("\ntrace (first {} events):", opts.trace);
                    print!("{}", report.trace.render());
                }
                if let Some(path) = &opts.trace_out {
                    eprintln!("exported trace to {}", path.display());
                }
                if let Some(path) = &opts.metrics {
                    match serde_json::to_string_pretty(&report.metrics) {
                        Ok(json) => {
                            if let Err(e) = std::fs::write(path, json) {
                                eprintln!("error: cannot write {}: {e}", path.display());
                                return ExitCode::FAILURE;
                            }
                            eprintln!("wrote {}", path.display());
                        }
                        Err(e) => {
                            eprintln!("error: cannot serialize metrics: {e}");
                            return ExitCode::FAILURE;
                        }
                    }
                }
            }
            Err(msg) => {
                eprintln!("error: {msg}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
