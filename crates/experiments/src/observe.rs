//! Observability harness: the pinned traced cell, its round-trip
//! cross-check, and sweep-wide metric rollups.
//!
//! The *pinned cell* (round-robin, 10 agents, total load 2.0, CV 1.0)
//! is the scenario the round-trip acceptance check runs: simulate it
//! with a file trace export, analyze the export with
//! [`busarb_tail::analyze_path`] (the engine behind `busarb analyze`),
//! and require its replayed aggregates to match the live [`RunReport`]
//! within floating-point round-off. The `repro cell` command and the CI
//! observability step both drive this module.

use std::path::Path;

use busarb_core::ProtocolKind;
use busarb_obs::{MetricsSnapshot, TraceFormat};
use busarb_sim::RunReport;
use busarb_tail::ReplaySummary;
use busarb_workload::Scenario;
use serde::Serialize;

use crate::common::{cell_config, merge_rollups, run_config_kind, take_rollups, Scale};

/// System size of the pinned observability cell.
pub const PINNED_AGENTS: u32 = 10;
/// Total offered load of the pinned cell.
pub const PINNED_LOAD: f64 = 2.0;
/// Interrequest-time CV of the pinned cell.
pub const PINNED_CV: f64 = 1.0;
/// Protocol of the pinned cell.
pub const PINNED_KIND: ProtocolKind = ProtocolKind::RoundRobin;
/// Seed tag of the pinned cell (also its rollup tag).
pub const PINNED_TAG: &str = "observe-pinned";

/// Runs the pinned cell, optionally exporting every trace event to
/// `export`, and offers its metrics to the rollup collector.
///
/// # Panics
///
/// Panics if the export file cannot be created or written (the pinned
/// configuration itself is statically valid).
#[must_use]
pub fn run_pinned(scale: Scale, export: Option<(&Path, TraceFormat)>) -> RunReport {
    let scenario = Scenario::equal_load(PINNED_AGENTS, PINNED_LOAD, PINNED_CV)
        .expect("pinned scenario is valid");
    let mut config = cell_config(scenario, scale, PINNED_TAG);
    if let Some((path, format)) = export {
        config = config.with_trace_export(path, format);
    }
    run_config_kind(config, PINNED_KIND, PINNED_TAG)
}

/// Relative closeness at f64 round-off scale.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-12 * a.abs().max(b.abs()).max(1.0)
}

/// Checks that an analyzed export (the `protocol` its header names and
/// its [`ReplaySummary`]) reproduces the live run's aggregates.
///
/// # Errors
///
/// Returns one entry per mismatched aggregate, each a `field: live X vs
/// replayed Y` description (`repro cell` joins them into its one-line
/// diff summary).
pub fn cross_check(
    live: &RunReport,
    protocol: &str,
    replayed: &ReplaySummary,
) -> Result<(), Vec<String>> {
    let mut mismatches = Vec::new();
    if live.protocol != protocol {
        mismatches.push(format!(
            "protocol: live {} vs replayed {protocol}",
            live.protocol
        ));
    }
    if live.wait_summary.count() != replayed.samples {
        mismatches.push(format!(
            "samples: live {} vs replayed {}",
            live.wait_summary.count(),
            replayed.samples
        ));
    }
    match replayed.mean_wait {
        Some(mean) if close(mean, live.mean_wait.mean) => {}
        Some(mean) => mismatches.push(format!(
            "mean wait: live {} vs replayed {mean}",
            live.mean_wait.mean
        )),
        None => mismatches.push("mean wait: replay batches incomplete".to_string()),
    }
    if !close(live.utilization, replayed.utilization) {
        mismatches.push(format!(
            "utilization: live {} vs replayed {}",
            live.utilization, replayed.utilization
        ));
    }
    if live.metrics.completions != replayed.completions {
        mismatches.push(format!(
            "completions: live {} vs replayed {}",
            live.metrics.completions, replayed.completions
        ));
    }
    if mismatches.is_empty() {
        Ok(())
    } else {
        Err(mismatches)
    }
}

/// One cell's tag and metrics inside a [`SweepMetrics`] export.
#[derive(Clone, Debug, Serialize)]
pub struct CellMetrics {
    /// The cell's seed tag.
    pub tag: String,
    /// The cell's whole-run metrics snapshot.
    pub metrics: MetricsSnapshot,
}

/// The `--metrics` export: every collected cell plus the deterministic
/// (tag-sorted) sweep-wide merge.
#[derive(Clone, Debug, Serialize)]
pub struct SweepMetrics {
    /// Per-cell snapshots, sorted by tag.
    pub cells: Vec<CellMetrics>,
    /// All cells folded together in tag order.
    pub merged: MetricsSnapshot,
}

/// Drains the rollup collector into a serializable sweep summary.
/// Returns `None` if [`crate::common::enable_rollups`] was never
/// called.
#[must_use]
pub fn collect_rollups() -> Option<SweepMetrics> {
    let cells = take_rollups()?;
    let merged = merge_rollups(&cells);
    Some(SweepMetrics {
        cells: cells
            .into_iter()
            .map(|(tag, metrics)| CellMetrics { tag, metrics })
            .collect(),
        merged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use busarb_obs::{JsonlSink, TraceHeader, TraceReader, TraceSink};

    #[test]
    fn pinned_cell_round_trips_through_both_export_formats() {
        for format in [TraceFormat::Jsonl, TraceFormat::Binary] {
            let path = std::env::temp_dir().join(format!(
                "busarb-observe-test-{}.{format}",
                std::process::id()
            ));
            let live = run_pinned(Scale::Smoke, Some((&path, format)));
            let analysis = busarb_tail::analyze_path(&path);
            std::fs::remove_file(&path).ok();
            let analysis = analysis.expect("export is readable");
            cross_check(&live, &analysis.protocol, &analysis.replay).unwrap_or_else(|diffs| {
                panic!("{format} round-trip mismatch: {}", diffs.join("; "));
            });
            // The replay feeds the identical sample sequence to the same
            // batch-means arithmetic, so the estimate is not merely
            // close — it is equal (shortest-round-trip floats in JSONL,
            // raw bits in the binary framing).
            assert_eq!(
                analysis.replay.mean_wait,
                Some(live.mean_wait.mean),
                "{format}: replayed mean drifted from the live run"
            );
            assert_eq!(analysis.replay.utilization, live.utilization, "{format}");
        }
    }

    #[test]
    fn cross_check_reports_every_mismatch() {
        let live = run_pinned(Scale::Smoke, None);
        // A header-only trace under another protocol's name: every
        // aggregate the cross-check compares differs from the live run.
        let header = TraceHeader {
            schema: busarb_obs::TRACE_SCHEMA.to_string(),
            protocol: "bogus".to_string(),
            agents: PINNED_AGENTS,
            seed: 0,
            warmup_samples: 0,
            batches: 2,
            samples_per_batch: 1,
            confidence: 0.9,
        };
        let mut sink = JsonlSink::new(Vec::new(), &header).expect("header encodes");
        sink.finish().expect("in-memory sink");
        let bytes = sink.into_inner();
        let mut reader = TraceReader::new(&bytes[..]).expect("header-only trace opens");
        let analysis = busarb_tail::analyze("bogus", &mut reader).expect("empty trace analyzes");
        let diffs = cross_check(&live, &analysis.protocol, &analysis.replay)
            .expect_err("everything differs");
        let msg = diffs.join("; ");
        assert_eq!(diffs.len(), 5, "{msg}");
        for field in [
            "protocol",
            "samples",
            "mean wait",
            "utilization",
            "completions",
        ] {
            assert!(msg.contains(field), "{field} missing from {msg}");
        }
        // `repro cell` joins the entries into its one diff line.
        assert!(!msg.contains('\n'), "{msg}");
    }
}
