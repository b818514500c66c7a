//! The run-digest corpus: pinned `RunReport`s for every path through the
//! simulator's event loop.
//!
//! Each corpus cell is a small, fixed simulation. The test runs it,
//! takes a 64-bit FNV-1a over the report's whole `Debug` string (waits,
//! batch means, per-agent and per-class summaries, throughput tallies,
//! the CDF, the in-memory trace and the metrics snapshot) and compares
//! it with the digest committed in `tests/run_digests.txt`, one
//! `tag digest` line per cell. Any change to what a run computes, down to
//! the last bit of one float, changes a digest.
//!
//! The cells cover every axis the loop branches on: all 13 protocols ×
//! both arbitration start rules × both draw engines, open-loop at one
//! calendar word (10 agents) and two (96 agents), closed-loop MESI
//! traffic, several outstanding requests (the central FCFS queue, and
//! distributed FCFS with widened, wrapping and saturating counters,
//! both also under urgent traffic), urgent traffic, Erlang draws, the width-scaled overhead model, the
//! unstaggered worst-case-FCFS workload and the bounded trace.
//!
//! Re-baselining: when a change is meant to alter reports, delete the
//! corpus file and run this test once. It writes a fresh file and fails;
//! the next run passes. Commit the file and say in the change log why
//! the digests moved.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

use busarb::prelude::*;
use busarb::protocols::CounterPolicy;
use busarb::sim::OverheadModel;
use busarb::workload::{CoherenceConfig, DrawEngineKind};

/// The arbiter a cell runs.
#[derive(Clone, Copy)]
enum Protocol {
    Kind(ProtocolKind),
    /// Distributed FCFS built from an explicit configuration (several
    /// outstanding requests per agent, which `run_kind` does not offer).
    Fcfs(FcfsConfig),
}

/// One corpus cell.
struct Cell {
    tag: String,
    protocol: Protocol,
    config: SystemConfig,
}

const RULES: [(ArbitrationStartRule, &str); 2] = [
    (ArbitrationStartRule::Greedy, "greedy"),
    (ArbitrationStartRule::TransactionAligned, "aligned"),
];

const ENGINES: [DrawEngineKind; 2] = [DrawEngineKind::Reference, DrawEngineKind::Fast];

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// A quick-sized cell seeded from its tag, so every cell draws its own
/// stream; `axis` sets what the cell covers.
fn cell(
    tag: String,
    protocol: impl Into<Protocol>,
    scenario: Scenario,
    axis: impl FnOnce(SystemConfig) -> SystemConfig,
) -> Cell {
    let config = SystemConfig::new(scenario)
        .with_batches(BatchMeansConfig::quick(60))
        .with_warmup(30)
        .with_seed(fnv1a(tag.as_bytes()))
        .with_cdf();
    Cell {
        tag,
        protocol: protocol.into(),
        config: axis(config),
    }
}

impl From<ProtocolKind> for Protocol {
    fn from(kind: ProtocolKind) -> Self {
        Protocol::Kind(kind)
    }
}

fn open(n: u32, load: f64, cv: f64) -> Scenario {
    Scenario::equal_load(n, load, cv).expect("valid scenario")
}

/// Distributed FCFS for `n` agents holding up to `r` requests each, with
/// counters `narrow` (lines and overflow policy) or else exact: ceil(log2
/// r) lines wider than the default.
fn fcfs(
    n: u32,
    r: u32,
    strategy: CounterStrategy,
    narrow: Option<(u32, CounterPolicy)>,
) -> Protocol {
    let base = FcfsConfig::for_agents(n, strategy);
    let exact = (
        base.counter_bits + r.next_power_of_two().trailing_zeros(),
        base.policy,
    );
    let (counter_bits, policy) = narrow.unwrap_or(exact);
    Protocol::Fcfs(FcfsConfig {
        counter_bits,
        policy,
        max_outstanding: r,
        ..base
    })
}

fn corpus() -> Vec<Cell> {
    let mesi = Scenario::closed_loop(8, CoherenceConfig::default_mix()).expect("valid scenario");
    let mut cells = Vec::new();
    // Every protocol × start rule × engine, open-loop at both calendar
    // widths and closed-loop MESI.
    for &kind in ProtocolKind::all() {
        for (rule, rule_name) in RULES {
            for engine in ENGINES {
                let shapes = [
                    ("open/n10", open(10, 1.0, 1.0)),
                    ("open/n96", open(96, 1.0, 1.0)),
                    ("mesi/n8", mesi.clone()),
                ];
                for (shape, scenario) in shapes {
                    let tag = format!("{shape}/{rule_name}/{engine}/{kind}");
                    cells.push(cell(tag, kind, scenario, |c| {
                        c.with_start_rule(rule).with_draw_engine(engine)
                    }));
                }
            }
        }
    }
    for n in [10, 96] {
        let tag = format!("outstanding2/n{n}/central-fcfs");
        cells.push(cell(
            tag,
            ProtocolKind::CentralFcfs,
            open(n, 1.5, 1.0),
            |c| c.with_max_outstanding(2),
        ));
    }
    // Distributed FCFS holding several requests per agent: exact counters
    // at both calendar widths, then a 2-bit wrapping and a 1-bit
    // saturating counter, which send selection to the exact scan while
    // agents hold several requests.
    let (per_lost, per_arrival) = (
        CounterStrategy::PerLostArbitration,
        CounterStrategy::PerArrival,
    );
    for (tag, n, r, strategy, narrow) in [
        ("outstanding2/n10/fcfs-1", 10, 2u32, per_lost, None),
        ("outstanding2/n10/fcfs-2", 10, 2, per_arrival, None),
        ("outstanding2/n96/fcfs-2", 96, 2, per_arrival, None),
        (
            "outstanding4/n10/fcfs-2/wrap2",
            10,
            4,
            per_arrival,
            Some((2, CounterPolicy::Wrap)),
        ),
        (
            "outstanding2/n10/fcfs-1/saturate1",
            10,
            2,
            per_lost,
            Some((1, CounterPolicy::Saturate)),
        ),
    ] {
        cells.push(cell(
            tag.into(),
            fcfs(n, r, strategy, narrow),
            open(n, 1.5, 1.0),
            |c| c.with_max_outstanding(r),
        ));
    }
    // Urgent traffic on top of several outstanding requests: an urgent
    // grant often serves an agent whose older request is ordinary, and
    // the completion must be recorded as the urgent one.
    let urgent = |c: SystemConfig| c.with_max_outstanding(2).with_urgent_fraction(0.3);
    cells.extend([
        cell(
            "outstanding2/n10/central-fcfs/urgent".into(),
            ProtocolKind::CentralFcfs,
            open(10, 1.5, 1.0),
            urgent,
        ),
        cell(
            "outstanding2/n10/fcfs-2/urgent".into(),
            fcfs(10, 2, per_arrival, None),
            open(10, 1.5, 1.0),
            urgent,
        ),
    ]);
    let width_scaled = OverheadModel::WidthScaled {
        base: Time::from(0.05),
        per_line: Time::from(0.1),
    };
    let worst_case = Scenario::worst_case_fcfs(10, 0.5).expect("valid scenario");
    cells.extend([
        cell(
            "urgent0.3/n10/fcfs-2".into(),
            ProtocolKind::Fcfs2,
            open(10, 2.0, 1.0),
            |c| c.with_urgent_fraction(0.3),
        ),
        cell(
            "erlang-cv0.5/n10/rr".into(),
            ProtocolKind::RoundRobin,
            open(10, 2.0, 0.5),
            |c| c,
        ),
        cell(
            "width-scaled/n30/fcfs-1".into(),
            ProtocolKind::Fcfs1,
            open(30, 0.5, 1.0),
            |c| c.with_overhead_model(width_scaled),
        ),
        cell(
            "worst-case-unstaggered/n10/fcfs-1".into(),
            ProtocolKind::Fcfs1,
            worst_case,
            SystemConfig::without_initial_stagger,
        ),
        cell(
            "trace200/n10/fcfs-2".into(),
            ProtocolKind::Fcfs2,
            open(10, 2.0, 1.0),
            |c| c.with_trace(200),
        ),
    ]);
    cells
}

/// Runs one cell, checks the invariants every run must keep, and returns
/// the digest of its report.
fn digest(cell: &Cell) -> u64 {
    let sim = Simulation::new(cell.config.clone()).expect("valid config");
    let report = match cell.protocol {
        Protocol::Kind(kind) => sim.run_kind(kind).expect("valid cell"),
        Protocol::Fcfs(fcfs) => {
            let n = cell.config.scenario.agents();
            sim.run(DistributedFcfs::with_config(n, fcfs).expect("valid FCFS config"))
        }
    };
    let tag = &cell.tag;
    assert!(report.events > 0, "{tag}: no events simulated");
    if cell.config.scenario.coherence().is_some() {
        let m = &report.metrics;
        let misses: u64 = [&m.read_misses, &m.write_misses, &m.upgrades]
            .iter()
            .map(|v| v.iter().sum::<u64>())
            .sum();
        assert_eq!(
            misses, m.completions,
            "{tag}: every completion must be a classified miss"
        );
    }
    if cell.config.trace_limit > 0 {
        assert!(!report.trace.events().is_empty(), "{tag}: empty trace");
    }
    fnv1a(format!("{report:?}").as_bytes())
}

fn corpus_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/run_digests.txt")
}

fn render(actual: &BTreeMap<String, u64>) -> String {
    let mut out = String::from(
        "# RunReport digests (FNV-1a over the Debug string), one `tag digest`\n\
         # line per cell of tests/run_digests.rs. Delete this file and rerun\n\
         # the test to re-baseline.\n",
    );
    for (tag, d) in actual {
        writeln!(out, "{tag} {d:016x}").expect("write to string");
    }
    out
}

#[test]
fn run_reports_match_the_committed_digests() {
    let cells = corpus();
    let mut actual = BTreeMap::new();
    for c in &cells {
        assert!(
            actual.insert(c.tag.clone(), digest(c)).is_none(),
            "duplicate corpus tag {}",
            c.tag
        );
    }

    let path = corpus_path();
    let Ok(text) = std::fs::read_to_string(&path) else {
        std::fs::write(&path, render(&actual)).expect("write the corpus file");
        panic!(
            "no corpus at {}: wrote {} digests; commit the file",
            path.display(),
            actual.len()
        );
    };
    let expected: BTreeMap<String, String> = text
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (tag, d) = l.rsplit_once(' ').expect("`tag digest` line");
            (tag.to_string(), d.to_string())
        })
        .collect();

    let mut mismatches = String::new();
    for (tag, d) in &actual {
        let got = format!("{d:016x}");
        let line = match expected.get(tag) {
            Some(want) if *want == got => continue,
            Some(want) => format!("{tag}: expected {want}, got {got}"),
            None => format!("{tag}: not in the corpus, got {got}"),
        };
        writeln!(mismatches, "  {line}").expect("write to string");
    }
    for (tag, want) in &expected {
        if !actual.contains_key(tag) {
            writeln!(mismatches, "  {tag}: expected {want}, no such cell")
                .expect("write to string");
        }
    }
    assert!(
        mismatches.is_empty(),
        "run digests differ from {}:\n{mismatches}",
        path.display()
    );
}
