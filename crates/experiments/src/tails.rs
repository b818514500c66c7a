//! Tail-latency extension: waiting-time percentiles per protocol.
//!
//! The paper compares protocols on the waiting-time *standard deviation*
//! (Table 4.2) and the full CDF (Figure 4.1). The modern framing of the
//! same question is tail latency: P50 / P90 / P99 / max of the waiting
//! time. FCFS's minimum-variance property shows up as dramatically
//! shorter tails than RR's at the same mean — exactly the property that
//! matters when a tightly coupled parallel program waits for its slowest
//! processor (paper §2.3).

use busarb_core::ProtocolKind;
use busarb_workload::Scenario;
use serde::Serialize;

use crate::common::{run_cell_kind, run_cells, Scale};

/// Percentiles for one (protocol, load) cell.
#[derive(Clone, Debug, Serialize)]
pub struct Row {
    /// Protocol name.
    pub protocol: String,
    /// Total offered load.
    pub load: f64,
    /// Mean waiting time.
    pub mean: f64,
    /// Median waiting time.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Largest observed wait.
    pub max: f64,
}

/// The full study.
#[derive(Clone, Debug, Serialize)]
pub struct Tails {
    /// Number of agents.
    pub agents: u32,
    /// Rows grouped by load, then protocol.
    pub rows: Vec<Row>,
}

/// Protocols compared in the study.
pub const PROTOCOLS: [ProtocolKind; 5] = [
    ProtocolKind::RoundRobin,
    ProtocolKind::Fcfs1,
    ProtocolKind::Fcfs2,
    ProtocolKind::AssuredAccessIdleBatch,
    ProtocolKind::Hybrid,
];

/// Loads swept.
pub const LOADS: [f64; 4] = [1.0, 1.5, 2.0, 2.5];

/// Runs the study at 30 agents.
#[must_use]
pub fn run(scale: Scale) -> Tails {
    let n = 30u32;
    let points: Vec<(f64, ProtocolKind)> = LOADS
        .iter()
        .flat_map(|&load| PROTOCOLS.map(|kind| (load, kind)))
        .collect();
    let rows = run_cells(points, |(load, kind)| {
        let scenario = Scenario::equal_load(n, load, 1.0).expect("valid scenario");
        let report = run_cell_kind(scenario, kind, scale, &format!("tails-{kind}-{load}"), true);
        // Selection, not a sort: three order statistics of 80 000
        // samples at paper scale.
        let [p50, p90, p99] = report
            .cdf
            .expect("cdf collection enabled")
            .quantiles([0.50, 0.90, 0.99])
            .unwrap_or([0.0; 3]);
        Row {
            protocol: kind.to_string(),
            load,
            mean: report.wait_summary.mean(),
            p50,
            p90,
            p99,
            max: report.wait_summary.max().unwrap_or(0.0),
        }
    });
    Tails { agents: n, rows }
}

/// Renders the study as a text table.
#[must_use]
pub fn format(tails: &Tails) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Tail latency of the bus waiting time ({} agents, cv 1.0)\n",
        tails.agents
    ));
    out.push_str(&format!(
        "{:>6} {:<10} {:>8} {:>8} {:>8} {:>8} {:>8}\n",
        "Load", "protocol", "mean", "P50", "P90", "P99", "max"
    ));
    let mut last_load = f64::NAN;
    for row in &tails.rows {
        if row.load != last_load && !last_load.is_nan() {
            out.push('\n');
        }
        last_load = row.load;
        out.push_str(&format!(
            "{:>6.2} {:<10} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2}\n",
            row.load, row.protocol, row.mean, row.p50, row.p90, row.p99, row.max
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fcfs_tails_are_shorter_than_rr_at_saturation() {
        let tails = run(Scale::Smoke);
        let find = |proto: &str, load: f64| {
            tails
                .rows
                .iter()
                .find(|r| r.protocol == proto && (r.load - load).abs() < 1e-9)
                .unwrap()
        };
        let rr = find("rr", 2.0);
        let fcfs = find("fcfs-1", 2.0);
        // Same mean (conservation), shorter FCFS tail.
        assert!((rr.mean - fcfs.mean).abs() < 0.8);
        assert!(
            fcfs.p99 < rr.p99,
            "fcfs p99 {} should beat rr p99 {}",
            fcfs.p99,
            rr.p99
        );
        // Percentiles are ordered.
        for row in &tails.rows {
            assert!(row.p50 <= row.p90 && row.p90 <= row.p99 && row.p99 <= row.max);
        }
    }

    #[test]
    fn format_renders() {
        let tails = Tails {
            agents: 30,
            rows: vec![Row {
                protocol: "rr".to_string(),
                load: 2.0,
                mean: 16.0,
                p50: 16.0,
                p90: 24.0,
                p99: 30.0,
                max: 40.0,
            }],
        };
        let text = format(&tails);
        assert!(text.contains("Tail latency"));
        assert!(text.contains("P99"));
    }
}
