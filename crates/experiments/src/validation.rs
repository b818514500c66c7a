//! Methodological validation of the output analysis itself.
//!
//! Two studies that put the paper's Section 4.1 statistics machinery
//! under test:
//!
//! * [`ci_coverage`] — run many independently seeded replications of one
//!   cell and measure how often each run's 90% batch-means confidence
//!   interval covers the pooled grand mean. A well-calibrated method
//!   lands near 90%.
//! * [`batch_diagnostics`] — independence diagnostics (lag-1
//!   autocorrelation, von Neumann ratio) of the batch means across the
//!   load range: positive serial correlation inflates apparent
//!   confidence, and grows with load as the queue decorrelates more
//!   slowly.

use busarb_core::ProtocolKind;
use busarb_stats::independence::{lag1_autocorrelation, von_neumann_ratio};
use busarb_workload::Scenario;
use serde::Serialize;

use crate::common::{cell_config, run_cells, run_config_kind, Scale};

/// Result of the CI-coverage study.
#[derive(Clone, Debug, Serialize)]
pub struct CiCoverage {
    /// Cell description.
    pub setting: String,
    /// Number of independent replications.
    pub replications: usize,
    /// Pooled grand mean across replications (the "truth" proxy).
    pub grand_mean: f64,
    /// Fraction of replications whose 90% CI covered the grand mean.
    pub coverage: f64,
    /// Mean CI half-width across replications.
    pub mean_halfwidth: f64,
}

/// Runs the coverage study: `replications` independently seeded runs of
/// a 10-agent, load-1.5 round-robin cell, spread over the sweep workers
/// (see [`run_cells`]).
#[must_use]
pub fn ci_coverage(scale: Scale, replications: usize) -> CiCoverage {
    let n = 10u32;
    let load = 1.5;
    let scenario = Scenario::equal_load(n, load, 1.0).expect("valid scenario");
    let estimates = run_cells((0..replications).collect(), |r| {
        let tag = format!("ci-coverage-{r}");
        let config = cell_config(scenario.clone(), scale, &tag);
        run_config_kind(config, ProtocolKind::RoundRobin, &tag).mean_wait
    });
    // Summed in replication order whatever the worker count.
    let grand_mean = estimates.iter().map(|e| e.mean).sum::<f64>() / replications as f64;
    let covered = estimates.iter().filter(|e| e.covers(grand_mean)).count();
    CiCoverage {
        setting: format!("{n} agents, load {load}, cv 1.0, RR"),
        replications,
        grand_mean,
        coverage: covered as f64 / replications as f64,
        mean_halfwidth: estimates.iter().map(|e| e.halfwidth).sum::<f64>() / replications as f64,
    }
}

/// One batch-diagnostics row.
#[derive(Clone, Debug, Serialize)]
pub struct DiagnosticsRow {
    /// Total offered load.
    pub load: f64,
    /// Lag-1 autocorrelation of the batch means.
    pub lag1: Option<f64>,
    /// Von Neumann ratio of the batch means (≈ 2 when independent).
    pub von_neumann: Option<f64>,
}

/// Result of the batch-diagnostics study.
#[derive(Clone, Debug, Serialize)]
pub struct BatchDiagnostics {
    /// Cell description.
    pub setting: String,
    /// One row per load.
    pub rows: Vec<DiagnosticsRow>,
}

/// Loads of the batch-diagnostics study.
pub const LOADS: [f64; 7] = [0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 5.0];

/// Runs the independence diagnostics across the load range.
#[must_use]
pub fn batch_diagnostics(scale: Scale) -> BatchDiagnostics {
    let n = 10u32;
    let rows = run_cells(LOADS.to_vec(), |load| {
        let scenario = Scenario::equal_load(n, load, 1.0).expect("valid scenario");
        let tag = format!("diag-{load}");
        let config = cell_config(scenario, scale, &tag);
        let report = run_config_kind(config, ProtocolKind::Fcfs1, &tag);
        DiagnosticsRow {
            load,
            lag1: lag1_autocorrelation(&report.wait_batch_means),
            von_neumann: von_neumann_ratio(&report.wait_batch_means),
        }
    });
    BatchDiagnostics {
        setting: format!("{n} agents, cv 1.0, FCFS-1"),
        rows,
    }
}

/// Renders the coverage result.
#[must_use]
pub fn format_coverage(c: &CiCoverage) -> String {
    format!(
        "CI coverage ({}; {} replications)\n\
         grand mean W = {:.3}; observed 90% CI coverage = {:.1}% (mean halfwidth {:.3})\n",
        c.setting,
        c.replications,
        c.grand_mean,
        c.coverage * 100.0,
        c.mean_halfwidth,
    )
}

/// Renders the diagnostics table.
#[must_use]
pub fn format_diagnostics(d: &BatchDiagnostics) -> String {
    let mut out = format!("Batch-means independence diagnostics ({})\n", d.setting);
    out.push_str(&format!(
        "{:>6} {:>8} {:>12}\n",
        "Load", "lag-1", "von Neumann"
    ));
    for row in &d.rows {
        out.push_str(&format!(
            "{:>6.2} {:>8} {:>12}\n",
            row.load,
            row.lag1.map_or_else(|| "-".into(), |v| format!("{v:.3}")),
            row.von_neumann
                .map_or_else(|| "-".into(), |v| format!("{v:.3}")),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_is_calibrated_at_smoke_scale() {
        let result = ci_coverage(Scale::Smoke, 30);
        // 90% nominal; generous bounds for 30 replications at tiny batch
        // sizes.
        assert!(
            result.coverage >= 0.6,
            "coverage {:.2} suspiciously low",
            result.coverage
        );
        assert!(result.grand_mean > 1.5);
        assert!(result.mean_halfwidth > 0.0);
        assert!(format_coverage(&result).contains("coverage"));
    }

    #[test]
    fn diagnostics_produce_defined_statistics() {
        let result = batch_diagnostics(Scale::Smoke);
        assert_eq!(result.rows.len(), 7);
        for row in &result.rows {
            let vn = row.von_neumann.expect("non-constant batch means");
            assert!(vn > 0.0 && vn < 4.0, "von Neumann {vn} out of range");
        }
        assert!(format_diagnostics(&result).contains("von Neumann"));
    }
}
