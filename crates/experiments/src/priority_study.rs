//! Priority traffic vs the FCFS waiting-time counters — the question the
//! paper raised and left open.
//!
//! §3.2: with priority requests in the system, an arbitrary number of
//! urgent wins can increment an ordinary request's waiting-time counter.
//! The paper sketches the options — let the counter **overflow and reset
//! to zero** ("may be the right approach if the likelihood of overflow is
//! small"), or **update only on matching-class events** (longer tie
//! intervals instead) — and concludes: *"The relative merit of this
//! approach compared with the strategy that allows counter overflow is
//! highly dependent on the characteristics of the bus workload, and is
//! beyond the scope of this paper."*
//!
//! This experiment answers it for the paper's own workload model: an
//! urgent-fraction sweep against both [`PriorityCounterRule`]s and two
//! counter widths, measuring ordinary-class delay (mean and σ), urgent
//! delay, and ordinary-class throughput fairness.
//!
//! Measured answer (see `results/priority_study.json`): with the paper's
//! counter sizing (`ceil(log2 N)` bits) the two rules are
//! indistinguishable up to at least 50% urgent traffic — overflow simply
//! doesn't happen, so the simpler overflow-and-reset hardware wins. With
//! *narrow* counters both rules degrade badly even without urgent
//! traffic (ordinary queueing alone wraps a 2-bit counter at 16 agents),
//! and heavy urgent traffic widens the gap in the matching-class rule's
//! favor (σ_ord ≈ 13.7 vs 16.7 at 50% urgent). So the deciding factor is
//! counter *sizing*, not the update rule — the precise content of the
//! paper's "if the likelihood of overflow is small" hedge.
//!
//! [`PriorityCounterRule`]: busarb_core::PriorityCounterRule

use busarb_core::{CounterStrategy, DistributedFcfs, FcfsConfig, PriorityCounterRule};
use busarb_workload::Scenario;
use serde::Serialize;

use crate::common::{cell_config, run_cells, run_config, EstimateJson, Scale};

/// One (urgent fraction, rule, width) row.
#[derive(Clone, Debug, Serialize)]
pub struct Row {
    /// Fraction of requests that are urgent.
    pub urgent_fraction: f64,
    /// Counter update rule under priority traffic.
    pub rule: String,
    /// Waiting-time counter width in bits.
    pub counter_bits: u32,
    /// Ordinary-class mean waiting time.
    pub ordinary_wait: f64,
    /// Ordinary-class waiting-time standard deviation.
    pub ordinary_sd: f64,
    /// Urgent-class mean waiting time.
    pub urgent_wait: Option<f64>,
    /// Ordinary-class throughput ratio t\[N\]/t\[1\].
    pub fairness: Option<EstimateJson>,
}

/// The study result.
#[derive(Clone, Debug, Serialize)]
pub struct PriorityStudy {
    /// Number of agents.
    pub agents: u32,
    /// Total offered load.
    pub load: f64,
    /// Rows: urgent fraction × rule × width.
    pub rows: Vec<Row>,
}

/// Runs the study: 16 agents, load 2.0, FCFS-1, urgent fraction
/// ∈ {0, 0.25, 0.5}, both priority rules, counters at the paper's width
/// and at a deliberately narrow 2 bits.
#[must_use]
pub fn run(scale: Scale) -> PriorityStudy {
    let n = 16u32;
    let load = 2.0;
    let paper_bits = busarb_types::AgentId::lines_required(n);
    let mut points: Vec<(f64, PriorityCounterRule, &str, u32)> = Vec::new();
    for &urgent in &[0.0, 0.25, 0.5] {
        for &(rule, rule_name) in &[
            (PriorityCounterRule::Always, "overflow"),
            (PriorityCounterRule::MatchingClassOnly, "matching-class"),
        ] {
            for &bits in &[2u32, paper_bits] {
                points.push((urgent, rule, rule_name, bits));
            }
        }
    }
    let rows = run_cells(points, |(urgent, rule, rule_name, bits)| {
        let scenario = Scenario::equal_load(n, load, 1.0).expect("valid scenario");
        let fcfs_config = FcfsConfig {
            counter_bits: bits,
            priority_rule: rule,
            ..FcfsConfig::for_agents(n, CounterStrategy::PerLostArbitration)
        };
        let arbiter = DistributedFcfs::with_config(n, fcfs_config).expect("valid config");
        let tag = format!("prio-{urgent}-{rule_name}-{bits}");
        let config = cell_config(scenario, scale, &tag).with_urgent_fraction(urgent);
        let report = run_config(config, arbiter, &tag);
        Row {
            urgent_fraction: urgent,
            rule: rule_name.to_string(),
            counter_bits: bits,
            ordinary_wait: report.ordinary_wait.mean(),
            ordinary_sd: report.ordinary_wait.std_dev(),
            urgent_wait: (report.urgent_wait.count() > 0).then(|| report.urgent_wait.mean()),
            fairness: report.throughput_ratio(n, 1, 0.90).map(Into::into),
        }
    });
    PriorityStudy {
        agents: n,
        load,
        rows,
    }
}

/// Renders the study.
#[must_use]
pub fn format(p: &PriorityStudy) -> String {
    let mut out = format!(
        "Priority traffic vs FCFS counters ({} agents, load {}, FCFS-1)\n",
        p.agents, p.load
    );
    out.push_str(&format!(
        "{:>7} {:<15} {:>5} {:>9} {:>9} {:>9} {:>14}\n",
        "urgent", "rule", "bits", "W ord", "sd ord", "W urg", "t[N]/t[1]"
    ));
    let mut last = f64::NAN;
    for row in &p.rows {
        if row.urgent_fraction != last && !last.is_nan() {
            out.push('\n');
        }
        last = row.urgent_fraction;
        out.push_str(&format!(
            "{:>7.2} {:<15} {:>5} {:>9.2} {:>9.2} {:>9} {:>14}\n",
            row.urgent_fraction,
            row.rule,
            row.counter_bits,
            row.ordinary_wait,
            row.ordinary_sd,
            row.urgent_wait
                .map_or_else(|| "-".to_string(), |v| format!("{v:.2}")),
            row.fairness
                .map_or_else(|| "-".to_string(), |e| e.to_string()),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn urgent_requests_wait_less_and_narrow_overflow_degrades() {
        let study = run(Scale::Smoke);
        let find = |urgent: f64, rule: &str, bits: u32| {
            study
                .rows
                .iter()
                .find(|r| r.urgent_fraction == urgent && r.rule == rule && r.counter_bits == bits)
                .unwrap()
        };
        // Urgent beats ordinary delay whenever present.
        for row in study.rows.iter().filter(|r| r.urgent_fraction > 0.0) {
            let urgent = row.urgent_wait.expect("urgent traffic present");
            assert!(
                urgent < row.ordinary_wait,
                "{}: urgent {} !< ordinary {}",
                row.rule,
                urgent,
                row.ordinary_wait
            );
        }
        // Narrow counters + overflow rule: ordinary sd grows with urgent
        // traffic relative to the matching-class rule.
        let overflow = find(0.5, "overflow", 2);
        let matching = find(0.5, "matching-class", 2);
        assert!(
            overflow.ordinary_sd >= matching.ordinary_sd - 0.5,
            "overflow sd {} vs matching sd {}",
            overflow.ordinary_sd,
            matching.ordinary_sd
        );
    }

    #[test]
    fn format_renders() {
        let study = PriorityStudy {
            agents: 16,
            load: 2.0,
            rows: vec![],
        };
        assert!(format(&study).contains("Priority traffic"));
    }
}
