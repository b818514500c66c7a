//! Shared experiment plumbing.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use busarb_core::{Arbiter, ProtocolKind};
use busarb_obs::MetricsSnapshot;
use busarb_sim::{RunReport, Simulation, SystemConfig};
use busarb_stats::{BatchMeansConfig, Estimate, RatioEstimate};
use busarb_workload::{DrawEngineKind, Scenario};
use serde::Serialize;

/// How much simulation effort to spend.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Scale {
    /// The paper's configuration: 10 batches × 8000 samples per run.
    Paper,
    /// 10 × 1500 samples — minutes-scale full reproduction.
    Quick,
    /// 10 × 150 samples — for unit tests and benches.
    Smoke,
}

impl Scale {
    /// The batch-means configuration for this scale.
    #[must_use]
    pub fn batches(self) -> BatchMeansConfig {
        match self {
            Scale::Paper => BatchMeansConfig::paper(),
            Scale::Quick => BatchMeansConfig::quick(1500),
            Scale::Smoke => BatchMeansConfig::quick(150),
        }
    }

    /// Warm-up responses discarded before measurement.
    #[must_use]
    pub fn warmup(self) -> usize {
        match self {
            Scale::Paper => 4000,
            Scale::Quick => 1500,
            Scale::Smoke => 300,
        }
    }

    /// Parses a scale name (for the `repro` CLI).
    #[must_use]
    pub fn parse(name: &str) -> Option<Scale> {
        match name {
            "paper" => Some(Scale::Paper),
            "quick" => Some(Scale::Quick),
            "smoke" => Some(Scale::Smoke),
            _ => None,
        }
    }
}

impl core::fmt::Display for Scale {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Scale::Paper => f.write_str("paper"),
            Scale::Quick => f.write_str("quick"),
            Scale::Smoke => f.write_str("smoke"),
        }
    }
}

/// Deterministic per-cell seed derived from a textual tag, so every
/// experiment cell is reproducible in isolation.
#[must_use]
pub fn seed_for(tag: &str) -> u64 {
    let mut h = DefaultHasher::new();
    tag.hash(&mut h);
    h.finish() ^ 0xB0A7_AB1E_5EED_5EED
}

/// The file-name-safe slug for one protocol, used to tag per-cell seeds
/// and JSON outputs: [`ProtocolKind::slug`].
#[must_use]
pub fn protocol_slug(kind: ProtocolKind) -> &'static str {
    kind.slug()
}

/// The simulation of one experiment cell: `scale`'s batches and warm-up,
/// the seed derived from `tag`, and the process-wide draw engine.
fn cell_simulation(scenario: Scenario, scale: Scale, tag: &str, collect_cdf: bool) -> Simulation {
    let mut config = SystemConfig::new(scenario)
        .with_batches(scale.batches())
        .with_warmup(scale.warmup())
        .with_seed(seed_for(tag))
        .with_draw_engine(engine());
    if collect_cdf {
        config = config.with_cdf();
    }
    Simulation::new(config).expect("experiment configs are valid")
}

/// Runs one simulation cell with a custom-configured arbiter.
///
/// # Panics
///
/// Panics on internal configuration errors (experiment code constructs
/// only valid configurations).
#[must_use]
pub fn run_cell(
    scenario: Scenario,
    arbiter: Box<dyn Arbiter>,
    scale: Scale,
    tag: &str,
    collect_cdf: bool,
) -> RunReport {
    let report = cell_simulation(scenario, scale, tag, collect_cdf).run(arbiter);
    offer_rollup(tag, &report.metrics);
    report
}

/// Runs one simulation cell for a default-parameter protocol of `kind`
/// through [`Simulation::run_kind`], which runs the arbiter as its
/// concrete type. Sweeps over [`ProtocolKind`] use this; cells that
/// need a custom-configured arbiter use [`run_cell`] with a box. Both
/// produce bit-for-bit identical reports for the same cell (pinned by
/// the `dispatch_equiv` regression test).
///
/// # Panics
///
/// Panics on internal configuration errors (experiment code constructs
/// only valid configurations).
#[must_use]
pub fn run_cell_kind(
    scenario: Scenario,
    kind: ProtocolKind,
    scale: Scale,
    tag: &str,
    collect_cdf: bool,
) -> RunReport {
    let report = cell_simulation(scenario, scale, tag, collect_cdf)
        .run_kind(kind)
        .expect("experiment scenarios use valid system sizes");
    offer_rollup(tag, &report.metrics);
    report
}

/// Per-cell metric rollups, collected when enabled (see
/// [`enable_rollups`]). `None` means collection is off — the default, so
/// the sweep path pays one mutex lock per *cell* (not per event) only
/// when a caller asked for metrics.
static ROLLUPS: Mutex<Option<Vec<(String, MetricsSnapshot)>>> = Mutex::new(None);

/// Starts collecting per-cell metric rollups from every subsequent
/// [`run_cell`] / [`run_cell_kind`] call (clearing anything previously
/// collected). Retrieve them with [`take_rollups`].
pub fn enable_rollups() {
    *ROLLUPS.lock().expect("rollup lock") = Some(Vec::new());
}

/// Records one cell's metrics snapshot under its seed tag, if rollup
/// collection is enabled. Called by the cell runners; experiment code
/// that runs `Simulation` directly may offer its own snapshots too.
pub fn offer_rollup(tag: &str, metrics: &MetricsSnapshot) {
    if let Some(cells) = ROLLUPS.lock().expect("rollup lock").as_mut() {
        cells.push((tag.to_string(), metrics.clone()));
    }
}

/// Stops rollup collection and returns everything collected since
/// [`enable_rollups`], sorted by cell tag — parallel sweep workers
/// finish cells in nondeterministic order, so the canonical sort (and a
/// fold over it, see [`merge_rollups`]) makes the result independent of
/// the worker count. Returns `None` if collection was never enabled.
#[must_use]
pub fn take_rollups() -> Option<Vec<(String, MetricsSnapshot)>> {
    let mut cells = ROLLUPS.lock().expect("rollup lock").take()?;
    cells.sort_by(|a, b| a.0.cmp(&b.0));
    Some(cells)
}

/// Folds per-cell snapshots into one sweep-wide snapshot. The input
/// order matters for floating-point sums, so callers should pass the
/// tag-sorted vector from [`take_rollups`] to get a deterministic
/// merge.
#[must_use]
pub fn merge_rollups(cells: &[(String, MetricsSnapshot)]) -> MetricsSnapshot {
    let agents = cells.iter().map(|(_, m)| m.agents).max().unwrap_or(0);
    let mut merged = MetricsSnapshot::empty(agents);
    for (_, metrics) in cells {
        merged.merge(metrics);
    }
    merged
}

/// Process-wide draw-engine selection for the experiment layer:
/// 0 = reference, 1 = fast. A global (like [`JOBS`]) rather than a
/// parameter because every `run_cell`/`run_cell_kind` call in a sweep
/// must use the same engine, and threading it through dozens of
/// experiment signatures would buy nothing.
static ENGINE: AtomicUsize = AtomicUsize::new(0);

/// Selects the draw engine used by every subsequent [`run_cell`] /
/// [`run_cell_kind`] call. Called by the `repro` and `simulate` binaries
/// when `--engine` is given; the default is [`DrawEngineKind::Reference`],
/// which preserves the golden-fixture byte contract.
pub fn set_engine(kind: DrawEngineKind) {
    let v = match kind {
        DrawEngineKind::Reference => 0,
        DrawEngineKind::Fast => 1,
    };
    ENGINE.store(v, Ordering::Relaxed);
}

/// The draw engine [`run_cell`] / [`run_cell_kind`] will use.
#[must_use]
pub fn engine() -> DrawEngineKind {
    match ENGINE.load(Ordering::Relaxed) {
        0 => DrawEngineKind::Reference,
        _ => DrawEngineKind::Fast,
    }
}

/// Configured sweep parallelism: 0 means "auto" (one worker per
/// available core).
static JOBS: AtomicUsize = AtomicUsize::new(0);

/// Sets the worker count used by [`run_cells`]. `0` restores the
/// default of one worker per available core. Called by the `repro` and
/// `simulate` binaries when `--jobs N` is given.
pub fn set_jobs(n: usize) {
    JOBS.store(n, Ordering::Relaxed);
}

/// The resolved worker count [`run_cells`] will use (always ≥ 1).
#[must_use]
pub fn jobs() -> usize {
    match JOBS.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        n => n,
    }
}

/// Executes independent sweep cells across worker threads, preserving
/// input order in the output.
///
/// Every experiment cell derives its RNG seed from [`seed_for`] on a
/// per-cell tag, so cells are fully independent of execution order: the
/// result vector is **identical** to a serial `map` at any worker
/// count. Workers claim cells from a shared atomic cursor, so uneven
/// cell costs balance automatically.
///
/// (The usual crate for this is rayon; this build environment is fully
/// offline, so the fan-out is built on `std::thread::scope` instead.)
pub fn run_cells<I, T, F>(inputs: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    run_cells_with(jobs(), inputs, f)
}

/// [`run_cells`] with an explicit worker count (used directly by the
/// determinism regression tests; experiments go through [`run_cells`]).
///
/// # Panics
///
/// Panics if a worker thread panics (the cell's panic is propagated).
pub fn run_cells_with<I, T, F>(workers: usize, inputs: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    let workers = workers.max(1).min(inputs.len().max(1));
    if workers <= 1 {
        return inputs.into_iter().map(f).collect();
    }

    let pending: Vec<Mutex<Option<I>>> = inputs.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let done: Vec<Mutex<Option<T>>> = pending.iter().map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let f = &f;

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| loop {
                    let idx = cursor.fetch_add(1, Ordering::Relaxed);
                    if idx >= pending.len() {
                        return;
                    }
                    let input = pending[idx]
                        .lock()
                        .expect("cell input lock")
                        .take()
                        .expect("each cell is claimed exactly once");
                    let output = f(input);
                    *done[idx].lock().expect("cell output lock") = Some(output);
                })
            })
            .collect();
        for handle in handles {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });

    done.into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("cell output lock")
                .expect("every claimed cell produced output")
        })
        .collect()
}

/// A serializable `value ± halfwidth` estimate.
#[derive(Clone, Copy, PartialEq, Debug, Serialize)]
pub struct EstimateJson {
    /// Point estimate.
    pub mean: f64,
    /// Confidence-interval half-width.
    pub halfwidth: f64,
}

impl From<Estimate> for EstimateJson {
    fn from(e: Estimate) -> Self {
        EstimateJson {
            mean: e.mean,
            halfwidth: e.halfwidth,
        }
    }
}

impl From<RatioEstimate> for EstimateJson {
    fn from(r: RatioEstimate) -> Self {
        r.estimate.into()
    }
}

impl core::fmt::Display for EstimateJson {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:.2} \u{b1} {:.2}", self.mean, self.halfwidth)
    }
}

/// The load points used throughout the paper's tables for a given system
/// size (the 10-agent table tops out at 7.52, the others at 7.50).
#[must_use]
pub fn paper_loads(agents: u32) -> Vec<f64> {
    let top = if agents == 10 { 7.52 } else { 7.50 };
    vec![0.25, 0.50, 1.00, 1.50, 2.00, 2.50, 5.00, top]
}

/// The three system sizes studied in the paper.
pub const PAPER_SIZES: [u32; 3] = [10, 30, 64];

#[cfg(test)]
mod tests {
    use super::*;
    use busarb_core::ProtocolKind;

    #[test]
    fn seeds_are_stable_and_distinct() {
        assert_eq!(seed_for("a"), seed_for("a"));
        assert_ne!(seed_for("a"), seed_for("b"));
    }

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("quick"), Some(Scale::Quick));
        assert_eq!(Scale::parse("smoke"), Some(Scale::Smoke));
        assert_eq!(Scale::parse("bogus"), None);
        assert_eq!(Scale::Paper.to_string(), "paper");
    }

    #[test]
    fn paper_loads_match_tables() {
        assert_eq!(paper_loads(10).last(), Some(&7.52));
        assert_eq!(paper_loads(30).last(), Some(&7.50));
        assert_eq!(paper_loads(10).len(), 8);
    }

    #[test]
    fn run_cell_smoke() {
        let scenario = Scenario::equal_load(4, 1.0, 1.0).unwrap();
        let report = run_cell(
            scenario,
            ProtocolKind::RoundRobin.build(4).unwrap(),
            Scale::Smoke,
            "common-smoke",
            false,
        );
        assert!(report.mean_wait.mean > 0.0);
        assert!(report.cdf.is_none());
    }

    #[test]
    fn run_cells_preserves_order_at_any_worker_count() {
        let inputs: Vec<u64> = (0..37).collect();
        let serial: Vec<u64> = inputs.iter().map(|&x| x * x + 1).collect();
        for workers in [1, 2, 3, 8, 64] {
            let parallel = run_cells_with(workers, inputs.clone(), |x| x * x + 1);
            assert_eq!(parallel, serial, "workers={workers}");
        }
    }

    #[test]
    fn run_cells_handles_empty_input() {
        let out: Vec<u32> = run_cells_with(4, Vec::<u32>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn jobs_setter_round_trips() {
        // Restore the default afterwards: other tests in this process may
        // consult the global.
        set_jobs(3);
        assert_eq!(jobs(), 3);
        set_jobs(0);
        assert!(jobs() >= 1);
    }

    #[test]
    fn engine_setter_round_trips() {
        assert_eq!(engine(), DrawEngineKind::Reference);
        set_engine(DrawEngineKind::Fast);
        assert_eq!(engine(), DrawEngineKind::Fast);
        set_engine(DrawEngineKind::Reference);
        assert_eq!(engine(), DrawEngineKind::Reference);
    }

    #[test]
    fn estimate_json_display() {
        let e = EstimateJson {
            mean: 1.2345,
            halfwidth: 0.042,
        };
        assert_eq!(e.to_string(), "1.23 \u{b1} 0.04");
    }
}
