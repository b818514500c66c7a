//! The simulation cells each workload runs, their report digests, and the
//! committed pins those digests are checked against.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use busarb_core::ProtocolKind;
use busarb_experiments::common::seed_for;
use busarb_experiments::{coherence, protocol_slug, Scale};
use busarb_sim::{RunReport, SystemConfig};
use busarb_workload::{CoherenceConfig, DrawEngineKind, Scenario};

use crate::{Context, Workload, DEFAULT_SEED};

/// One simulation cell: a protocol and the configuration it runs under.
#[derive(Clone, Debug)]
pub struct CellSpec {
    /// Stable name, the key of the cell's pin.
    pub tag: String,
    /// The protocol simulated.
    pub kind: ProtocolKind,
    /// The run configuration (seed derived from the tag and `--seed`).
    pub config: SystemConfig,
}

impl CellSpec {
    /// The protocol's slug (`rr`, `fcfs-1`, ...).
    #[must_use]
    pub fn slug(&self) -> &'static str {
        protocol_slug(self.kind)
    }
}

/// Open-loop seeds per protocol in `arb-open`, `draw-bound` and
/// `trace-roundtrip`: 13 protocols x 8 = 104 cells, enough for a p90 with
/// ten cells beyond it.
const OPEN_REPLICAS: usize = 8;
/// Seeds per protocol and size in `mesi-closed`, which runs the coherence
/// experiment's cells (4 protocols x 2 sizes): 8 x 13 = 104 cells.
const MESI_REPLICAS: usize = 13;

/// The cells of a simulation workload, replica-major so each protocol's
/// cells spread over the pass. `paper-repro` runs no in-process cells.
#[must_use]
pub fn cells(workload: Workload, seed: u64) -> Vec<CellSpec> {
    let mut out = Vec::new();
    match workload {
        Workload::ArbOpen | Workload::DrawBound | Workload::TraceRoundtrip => {
            for replica in 0..OPEN_REPLICAS {
                for &kind in ProtocolKind::all() {
                    out.push(open_cell(workload, kind, replica, seed));
                }
            }
        }
        Workload::MesiClosed => {
            for replica in 0..MESI_REPLICAS {
                for &n in &coherence::SIZES {
                    for &kind in &coherence::PROTOCOLS {
                        out.push(mesi_cell(kind, n, replica, seed));
                    }
                }
            }
        }
        Workload::PaperRepro => {}
    }
    out
}

/// The traced run's cells: replica 0 of every cell shape. `paper-repro`
/// traces the 64-agent load-5.0 row of the paper grid, the largest cells
/// `repro all` simulates.
#[must_use]
pub fn traced_cells(workload: Workload, seed: u64) -> Vec<CellSpec> {
    match workload {
        Workload::PaperRepro => ProtocolKind::all()
            .iter()
            .map(|&kind| {
                let tag = format!("paper-repro/{}/n64", protocol_slug(kind));
                let scenario = Scenario::equal_load(64, 5.0, 1.0).expect("valid grid scenario");
                build(
                    tag,
                    kind,
                    scenario,
                    Scale::Paper,
                    DrawEngineKind::Reference,
                    seed,
                )
            })
            .collect(),
        _ => cells(workload, seed)
            .into_iter()
            .filter(|c| c.tag.ends_with("/0"))
            .collect(),
    }
}

fn open_cell(workload: Workload, kind: ProtocolKind, replica: usize, seed: u64) -> CellSpec {
    let (cv, scale) = match workload {
        Workload::DrawBound => (0.1, Scale::Quick),
        _ => (1.0, Scale::Paper),
    };
    let tag = format!("{}/{}/{replica}", workload.name(), protocol_slug(kind));
    let scenario = Scenario::equal_load(30, 2.0, cv).expect("valid open-loop scenario");
    build(tag, kind, scenario, scale, DrawEngineKind::Reference, seed)
}

fn mesi_cell(kind: ProtocolKind, n: u32, replica: usize, seed: u64) -> CellSpec {
    let tag = format!("mesi-closed/{}/n{n}/{replica}", protocol_slug(kind));
    let scenario = Scenario::closed_loop(n, CoherenceConfig::default_mix())
        .expect("valid closed-loop scenario");
    build(
        tag,
        kind,
        scenario,
        Scale::Paper,
        DrawEngineKind::Fast,
        seed,
    )
}

fn build(
    tag: String,
    kind: ProtocolKind,
    scenario: Scenario,
    scale: Scale,
    engine: DrawEngineKind,
    seed: u64,
) -> CellSpec {
    let config = SystemConfig::new(scenario)
        .with_batches(scale.batches())
        .with_warmup(scale.warmup())
        .with_seed(seed_for(&format!("bench/{tag}/seed{seed}")))
        .with_draw_engine(engine);
    CellSpec { tag, kind, config }
}

/// The scale name of a workload's cells, for the provenance block.
#[must_use]
pub fn scale_name(workload: Workload) -> &'static str {
    match workload {
        Workload::DrawBound => "quick",
        _ => "paper",
    }
}

/// The draw engine of a workload's cells, for the provenance block.
#[must_use]
pub fn engine_name(workload: Workload) -> &'static str {
    match workload {
        Workload::MesiClosed => "fast",
        _ => "reference",
    }
}

/// A 64-bit FNV-1a digest of a report: event, grant and arbitration
/// counts, the bit patterns of mean wait, half-width, utilization and end
/// time, and the serialized metrics snapshot. Any change in what a cell
/// simulated changes it.
#[must_use]
pub fn digest(report: &RunReport) -> String {
    let mut h = Fnv::default();
    for word in [
        report.events,
        report.grants,
        report.arbitrations,
        report.mean_wait.mean.to_bits(),
        report.mean_wait.halfwidth.to_bits(),
        report.utilization.to_bits(),
        report.end_time.as_f64().to_bits(),
    ] {
        h.write(&word.to_le_bytes());
    }
    let metrics = serde_json::to_string(&report.metrics).unwrap_or_default();
    h.write(metrics.as_bytes());
    format!("{:016x}", h.0)
}

struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }
}

/// Committed digests, cell tag -> digest, for one workload at
/// [`DEFAULT_SEED`].
pub type Pins = BTreeMap<String, String>;

/// Path of a workload's pin file.
#[must_use]
pub fn pins_path(ctx: &Context, workload: Workload) -> PathBuf {
    ctx.package_dir()
        .join("pins")
        .join(format!("{}.json", workload.name()))
}

/// Reads a pin file.
///
/// # Errors
///
/// Returns a message when the file is missing or malformed.
pub fn load_pins(path: &Path) -> Result<Pins, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let value =
        serde_json::from_str(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))?;
    let Some(serde::Value::Object(cells)) = value.get("cells") else {
        return Err(format!("{} has no cells object", path.display()));
    };
    cells
        .iter()
        .map(|(tag, digest)| {
            digest
                .as_str()
                .map(|d| (tag.clone(), d.to_string()))
                .ok_or_else(|| format!("{}: pin for {tag} is not a string", path.display()))
        })
        .collect()
}

/// Writes a pin file for `workload` at [`DEFAULT_SEED`].
///
/// # Errors
///
/// Returns a message on I/O failure.
pub fn write_pins(path: &Path, workload: Workload, pins: &Pins) -> Result<(), String> {
    use serde::Value;
    let cells = pins
        .iter()
        .map(|(tag, digest)| (tag.clone(), Value::Str(digest.clone())))
        .collect();
    let doc = Value::Object(vec![
        (
            "workload".to_string(),
            Value::Str(workload.name().to_string()),
        ),
        ("seed".to_string(), Value::UInt(DEFAULT_SEED)),
        ("cells".to_string(), Value::Object(cells)),
    ]);
    let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Whether pins apply to this run.
#[must_use]
pub fn pins_apply(seed: u64) -> bool {
    seed == DEFAULT_SEED
}

/// The workload's committed pins, when they apply to `seed` and the file
/// exists.
///
/// # Errors
///
/// Returns a message when the file exists but cannot be read or parsed.
pub fn committed_pins(
    ctx: &Context,
    workload: Workload,
    seed: u64,
) -> Result<Option<Pins>, String> {
    let path = pins_path(ctx, workload);
    if pins_apply(seed) && path.exists() {
        load_pins(&path).map(Some)
    } else {
        Ok(None)
    }
}
