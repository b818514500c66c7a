//! The per-layer replay drives the calls the live loop made: for every
//! protocol, open loop on both draw engines and closed-loop MESI, each
//! layer's replay reproduces the trace's winners, the report's metrics
//! snapshot, its batch-means estimate bit for bit, and the trace's
//! coherence records. And a report that disagrees with its own run is
//! caught.

use std::path::PathBuf;
use std::time::Instant;

use busarb_benchmark::cells::CellSpec;
use busarb_benchmark::layers::{replay_layers, trace_cell};
use busarb_benchmark::Context;
use busarb_core::ProtocolKind;
use busarb_experiments::{protocol_slug, Scale};
use busarb_sim::{RunReport, Simulation, SystemConfig};
use busarb_workload::{CoherenceConfig, DrawEngineKind, Scenario};

fn context(name: &str) -> Context {
    let tmp = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&tmp).expect("scratch directory");
    Context {
        root: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".."),
        exe: PathBuf::from(env!("CARGO_BIN_EXE_benchmark")),
        tmp,
        origin: Instant::now(),
    }
}

fn smoke_cell(
    kind: ProtocolKind,
    scenario: Scenario,
    engine: DrawEngineKind,
    label: &str,
) -> CellSpec {
    let config = SystemConfig::new(scenario)
        .with_batches(Scale::Smoke.batches())
        .with_warmup(Scale::Smoke.warmup())
        .with_seed(0x5EED ^ kind as u64)
        .with_draw_engine(engine);
    CellSpec {
        tag: format!("{label}/{}", protocol_slug(kind)),
        kind,
        config,
    }
}

fn every_cell() -> Vec<CellSpec> {
    let mut cells = Vec::new();
    for &kind in ProtocolKind::all() {
        for (engine, name) in [
            (DrawEngineKind::Reference, "reference"),
            (DrawEngineKind::Fast, "fast"),
        ] {
            let open = Scenario::equal_load(8, 2.0, 1.0).expect("valid scenario");
            cells.push(smoke_cell(kind, open, engine, &format!("open-{name}")));
        }
        let mesi =
            Scenario::closed_loop(8, CoherenceConfig::default_mix()).expect("valid scenario");
        cells.push(smoke_cell(kind, mesi, DrawEngineKind::Fast, "mesi"));
    }
    cells
}

#[test]
fn replay_identities_hold_for_every_protocol_and_engine() {
    let ctx = context("identities");
    let mut spans = Vec::new();
    let cells = every_cell();
    assert_eq!(cells.len(), 39);
    for cell in &cells {
        let (layers, live) = trace_cell(cell, &ctx, &mut spans).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(layers.events, live.events as f64, "{}", cell.tag);
        assert!(
            layers.core.calls > 0.0 && layers.metrics.calls > 0.0,
            "{}",
            cell.tag
        );
        if cell.tag.starts_with("mesi") {
            assert!(layers.mem.calls > 0.0, "{}: no misses replayed", cell.tag);
        }
    }
    assert!(!spans.is_empty());
}

fn traced(cell: &CellSpec) -> RunReport {
    Simulation::new(cell.config.clone().with_trace(1 << 20))
        .expect("valid config")
        .run_kind(cell.kind)
        .expect("valid size")
}

#[test]
fn a_report_that_disagrees_with_its_run_is_an_error() {
    let ctx = context("tampered");
    let open = Scenario::equal_load(8, 2.0, 1.0).expect("valid scenario");
    let cell = smoke_cell(ProtocolKind::Fcfs1, open, DrawEngineKind::Reference, "open");
    let report = traced(&cell);
    let mut spans = Vec::new();
    replay_layers(&cell, &report, &ctx, &mut spans).expect("the untouched report replays");

    let mut metrics = report.clone();
    metrics.metrics.requests += 1;
    let err = replay_layers(&cell, &metrics, &ctx, &mut spans).expect_err("metrics differ");
    assert!(err.contains("metrics snapshot"), "{err}");

    let mut estimate = report.clone();
    estimate.mean_wait.mean = f64::from_bits(estimate.mean_wait.mean.to_bits() ^ 1);
    let err = replay_layers(&cell, &estimate, &ctx, &mut spans).expect_err("estimate differs");
    assert!(err.contains("estimate"), "{err}");

    let other = CellSpec {
        kind: ProtocolKind::RoundRobin,
        ..cell.clone()
    };
    let err =
        replay_layers(&other, &report, &ctx, &mut spans).expect_err("another protocol's trace");
    assert!(err.contains("trace's winner"), "{err}");
}
