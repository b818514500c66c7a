//! Ablation studies for the design choices called out in DESIGN.md.
//!
//! * [`counter_bits`] — how many waiting-time counter bits does FCFS
//!   really need? (§3.2: "fewer bits in the dynamic portion should
//!   implement nearly ideal FCFS scheduling when the bus is not
//!   saturated".)
//! * [`tie_window`] — sensitivity of FCFS-2 fairness to the `a-incr`
//!   sensing-window width.
//! * [`rr3_overhead`] — how often the RR-3 implementation pays its
//!   empty-arbitration wraparound (§3.1: "somewhat less efficient").
//! * [`start_rule`] — greedy vs transaction-aligned arbitration start
//!   (the two readings of the paper's §4.1 timing assumption).
//! * [`overhead`] — arbitration-overhead sensitivity (the §4.1 "fully
//!   overlapped" claim).
//! * [`width_overhead`] — per-protocol overhead scaled by
//!   arbitration-number width (the §3.3 efficiency comparison, including
//!   footnote 3's binary-patterned static lines).
//! * [`hybrid`] — the §5 hybrid protocol against RR and FCFS-2.
//! * [`conservation`] — the footnote-4 conservation law across every
//!   protocol in the library.

use busarb_core::{
    Arbiter, CounterStrategy, DistributedFcfs, FcfsConfig, HybridRrFcfs, ProtocolKind,
    RrImplementation,
};
use busarb_sim::RunReport;
use busarb_types::Time;
use busarb_workload::Scenario;
use serde::Serialize;

use crate::common::{
    cell_config, run_cell, run_cell_kind, run_cells, run_config_kind, EstimateJson, Scale,
};

/// A (label, metrics) row shared by the ablation tables.
#[derive(Clone, Debug, Serialize)]
pub struct AblationRow {
    /// What was varied.
    pub label: String,
    /// Mean waiting time.
    pub mean_wait: EstimateJson,
    /// Waiting-time standard deviation.
    pub sd_wait: f64,
    /// Throughput ratio of the highest- to lowest-identity agent.
    pub fairness_ratio: Option<EstimateJson>,
    /// Line arbitrations per grant (RR-3 overhead metric).
    pub arbitrations_per_grant: f64,
    /// Bus utilization.
    pub utilization: f64,
}

/// A complete ablation result.
#[derive(Clone, Debug, Serialize)]
pub struct Ablation {
    /// Study name.
    pub name: String,
    /// Study conditions (size, load, CV).
    pub setting: String,
    /// One row per configuration.
    pub rows: Vec<AblationRow>,
}

fn row(label: impl Into<String>, n: u32, report: &RunReport) -> AblationRow {
    AblationRow {
        label: label.into(),
        mean_wait: report.mean_wait.into(),
        sd_wait: report.wait_summary.std_dev(),
        fairness_ratio: report.throughput_ratio(n, 1, 0.90).map(Into::into),
        arbitrations_per_grant: if report.grants > 0 {
            report.arbitrations as f64 / report.grants as f64
        } else {
            0.0
        },
        utilization: report.utilization,
    }
}

/// FCFS-2 counter-width sweep at 30 agents, load 2.0 (saturated) — narrow
/// counters wrap and degrade toward identity-priority behavior.
#[must_use]
pub fn counter_bits(scale: Scale) -> Ablation {
    let n = 30u32;
    let scenario = Scenario::equal_load(n, 2.0, 1.0).expect("valid scenario");
    // `None` is the central-FCFS reference row; `Some(bits)` the sweep.
    let points: Vec<Option<u32>> = (1..=6).map(Some).chain([None]).collect();
    let rows = run_cells(points, |point| match point {
        Some(bits) => {
            let config = FcfsConfig {
                counter_bits: bits,
                ..FcfsConfig::for_agents(n, CounterStrategy::PerArrival)
            };
            let arbiter: Box<dyn Arbiter> =
                Box::new(DistributedFcfs::with_config(n, config).expect("valid config"));
            let report = run_cell(
                scenario.clone(),
                arbiter,
                scale,
                &format!("abl-bits-{bits}"),
                false,
            );
            row(format!("{bits} counter bit(s)"), n, &report)
        }
        None => {
            let central = run_cell_kind(
                scenario.clone(),
                ProtocolKind::CentralFcfs,
                scale,
                "abl-bits-central",
                false,
            );
            row("central FCFS (ideal)", n, &central)
        }
    });
    Ablation {
        name: "ablation.counters".to_string(),
        setting: "30 agents, load 2.0, cv 1.0, FCFS-2".to_string(),
        rows,
    }
}

/// FCFS-2 `a-incr` sensing-window sweep at 30 agents, load 2.0 — wider
/// windows merge more arrivals into identity-ordered ties.
#[must_use]
pub fn tie_window(scale: Scale) -> Ablation {
    let n = 30u32;
    let scenario = Scenario::equal_load(n, 2.0, 1.0).expect("valid scenario");
    let windows = vec![0.0, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0];
    let rows = run_cells(windows, |window| {
        let config = FcfsConfig {
            tie_window: Time::from(window),
            ..FcfsConfig::for_agents(n, CounterStrategy::PerArrival)
        };
        let arbiter: Box<dyn Arbiter> =
            Box::new(DistributedFcfs::with_config(n, config).expect("valid config"));
        let report = run_cell(
            scenario.clone(),
            arbiter,
            scale,
            &format!("abl-window-{window}"),
            false,
        );
        row(format!("window {window}"), n, &report)
    });
    Ablation {
        name: "ablation.window".to_string(),
        setting: "30 agents, load 2.0, cv 1.0, FCFS-2".to_string(),
        rows,
    }
}

/// RR-3 wraparound overhead vs load at 10 agents — the extra empty
/// arbitration per wrap shows up in arbitrations-per-grant (and, at low
/// load, slightly in waiting time).
#[must_use]
pub fn rr3_overhead(scale: Scale) -> Ablation {
    let n = 10u32;
    let points: Vec<(f64, &str, RrImplementation)> = [0.25, 0.5, 1.0, 2.0, 5.0]
        .iter()
        .flat_map(|&load| {
            [
                (load, "rr-1", RrImplementation::PriorityBit),
                (load, "rr-3", RrImplementation::NoExtraLine),
            ]
        })
        .collect();
    let rows = run_cells(points, |(load, label, implementation)| {
        let scenario = Scenario::equal_load(n, load, 1.0).expect("valid scenario");
        let arbiter: Box<dyn Arbiter> = Box::new(
            busarb_core::DistributedRoundRobin::with_implementation(n, implementation)
                .expect("valid size"),
        );
        let report = run_cell(
            scenario,
            arbiter,
            scale,
            &format!("abl-rr3-{label}-{load}"),
            false,
        );
        row(format!("{label} @ load {load}"), n, &report)
    });
    Ablation {
        name: "ablation.rr3".to_string(),
        setting: "10 agents, cv 1.0, RR-1 vs RR-3".to_string(),
        rows,
    }
}

/// Greedy vs transaction-aligned arbitration start at 10 agents — the
/// strict reading pays extra overhead at low load, none at saturation.
#[must_use]
pub fn start_rule(scale: Scale) -> Ablation {
    use busarb_sim::ArbitrationStartRule;
    let n = 10u32;
    let points: Vec<(f64, &str, ArbitrationStartRule)> = [0.25, 1.0, 2.5]
        .iter()
        .flat_map(|&load| {
            [
                (load, "greedy", ArbitrationStartRule::Greedy),
                (load, "aligned", ArbitrationStartRule::TransactionAligned),
            ]
        })
        .collect();
    let rows = run_cells(points, |(load, label, rule)| {
        let scenario = Scenario::equal_load(n, load, 1.0).expect("valid scenario");
        let tag = format!("abl-start-{label}-{load}");
        let config = cell_config(scenario, scale, &tag).with_start_rule(rule);
        let report = run_config_kind(config, ProtocolKind::RoundRobin, &tag);
        row(format!("{label} @ load {load}"), n, &report)
    });
    Ablation {
        name: "ablation.start-rule".to_string(),
        setting: "10 agents, cv 1.0, RR".to_string(),
        rows,
    }
}

/// Arbitration-overhead sensitivity at 10 agents: the paper fixes the
/// overhead at 0.5 and argues it is fully hidden under load; sweeping it
/// from 0 to 1.0 shows where the overlap stops saving it.
#[must_use]
pub fn overhead(scale: Scale) -> Ablation {
    let n = 10u32;
    let points: Vec<(f64, f64)> = [0.25, 1.0, 2.5]
        .iter()
        .flat_map(|&load| [0.0, 0.25, 0.5, 0.75, 1.0].map(|a| (load, a)))
        .collect();
    let rows = run_cells(points, |(load, a)| {
        let scenario = Scenario::equal_load(n, load, 1.0).expect("valid scenario");
        let tag = format!("abl-ovh-{a}-{load}");
        let config = cell_config(scenario, scale, &tag).with_arbitration_overhead(Time::from(a));
        let report = run_config_kind(config, ProtocolKind::RoundRobin, &tag);
        row(format!("overhead {a} @ load {load}"), n, &report)
    });
    Ablation {
        name: "ablation.overhead".to_string(),
        setting: "10 agents, cv 1.0, RR".to_string(),
        rows,
    }
}

/// The paper's §3.3 efficiency comparison: with arbitration overhead
/// scaled by the arbitration-number width (Taub's k/2 propagation
/// delays), the FCFS protocol's doubled identity makes every arbitration
/// slower than RR's — unless binary-patterned lines carry the static
/// portion (footnote 3), which restores near-parity. Visible at low
/// load; hidden by overlap at saturation.
#[must_use]
pub fn width_overhead(scale: Scale) -> Ablation {
    use busarb_sim::OverheadModel;
    let n = 30u32;
    // One end-to-end bus propagation = 0.1 transaction times; 0.05 of
    // fixed logic delay.
    let per_line = 0.1;
    let base = 0.05;
    let scaled = OverheadModel::WidthScaled {
        base: Time::from(base),
        per_line: Time::from(per_line),
    };
    let k = f64::from(busarb_types::AgentId::lines_required(n));
    // Footnote 3: binary-patterned static lines -> k/2 propagations for
    // the dynamic (counter) part plus a single end-to-end propagation
    // for the static part.
    let fcfs_bp_overhead = base + per_line * (k / 2.0) + per_line;
    let points: Vec<(f64, String, ProtocolKind, OverheadModel)> = [0.25, 1.0, 2.5]
        .iter()
        .flat_map(|&load| {
            [
                (
                    load,
                    "rr (full lines)".to_string(),
                    ProtocolKind::RoundRobin,
                    scaled,
                ),
                (
                    load,
                    "fcfs-1 (full lines)".to_string(),
                    ProtocolKind::Fcfs1,
                    scaled,
                ),
                (
                    load,
                    "fcfs-1 (binary-patterned static)".to_string(),
                    ProtocolKind::Fcfs1,
                    OverheadModel::Fixed(Time::from(fcfs_bp_overhead)),
                ),
            ]
        })
        .collect();
    let rows = run_cells(points, |(load, label, kind, model)| {
        let scenario = Scenario::equal_load(n, load, 1.0).expect("valid scenario");
        let tag = format!("abl-width-{label}-{load}");
        let config = cell_config(scenario, scale, &tag).with_overhead_model(model);
        let report = run_config_kind(config, kind, &tag);
        row(format!("{label} @ load {load}"), n, &report)
    });
    Ablation {
        name: "ablation.width-overhead".to_string(),
        setting: format!(
            "30 agents, cv 1.0; overhead = 0.05 + 0.1 x width/2 (rr width {}, fcfs width {})",
            7, 11
        ),
        rows,
    }
}

/// The §5 hybrid protocol vs RR and FCFS-2, at CV = 0 (heavy same-instant
/// ties, where the hybrid's RR tie-break matters) and CV = 1.
#[must_use]
pub fn hybrid(scale: Scale) -> Ablation {
    let n = 16u32;
    // Arbiters are built inside each cell: `Box<dyn Arbiter>` need not
    // cross threads.
    let points: Vec<(f64, &str)> = [0.0, 1.0]
        .iter()
        .flat_map(|&cv| ["rr", "fcfs-2", "hybrid", "adaptive"].map(|label| (cv, label)))
        .collect();
    let rows = run_cells(points, |(cv, label)| {
        let scenario = Scenario::equal_load(n, 2.0, cv).expect("valid scenario");
        let arbiter: Box<dyn Arbiter> = match label {
            "rr" => ProtocolKind::RoundRobin.build(n).expect("valid size"),
            "fcfs-2" => ProtocolKind::Fcfs2.build(n).expect("valid size"),
            "hybrid" => Box::new(HybridRrFcfs::new(n).expect("valid size")),
            _ => Box::new(busarb_core::AdaptiveArbiter::new(n).expect("valid size")),
        };
        let report = run_cell(
            scenario,
            arbiter,
            scale,
            &format!("abl-hybrid-{label}-{cv}"),
            false,
        );
        row(format!("{label} @ cv {cv}"), n, &report)
    });
    Ablation {
        name: "hybrid".to_string(),
        setting: "16 agents, load 2.0".to_string(),
        rows,
    }
}

/// Conservation-law check: the mean waiting time is protocol-independent
/// for every work-conserving discipline in the library.
#[must_use]
pub fn conservation(scale: Scale) -> Ablation {
    let n = 10u32;
    let scenario = Scenario::equal_load(n, 1.5, 1.0).expect("valid scenario");
    let rows = run_cells(ProtocolKind::work_conserving().to_vec(), |kind| {
        let report = run_cell_kind(
            scenario.clone(),
            kind,
            scale,
            &format!("abl-cons-{kind}"),
            false,
        );
        row(kind.to_string(), n, &report)
    });
    Ablation {
        name: "conservation".to_string(),
        setting: "10 agents, load 1.5, cv 1.0".to_string(),
        rows,
    }
}

/// Renders one ablation as a text table.
#[must_use]
pub fn format(ablation: &Ablation) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Ablation: {} ({})\n",
        ablation.name, ablation.setting
    ));
    out.push_str(&format!(
        "{:<26} {:>14} {:>8} {:>14} {:>10} {:>6}\n",
        "configuration", "W", "sd W", "t[N]/t[1]", "arbs/grant", "util"
    ));
    for row in &ablation.rows {
        out.push_str(&format!(
            "{:<26} {:>14} {:>8.2} {:>14} {:>10.3} {:>6.2}\n",
            row.label,
            row.mean_wait.to_string(),
            row.sd_wait,
            row.fairness_ratio
                .map_or_else(|| "-".to_string(), |e| e.to_string()),
            row.arbitrations_per_grant,
            row.utilization,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rr3_pays_extra_arbitrations() {
        let result = rr3_overhead(Scale::Smoke);
        // Compare rr-1 vs rr-3 at the same load: rr-3 strictly more
        // arbitrations per grant.
        for pair in result.rows.chunks(2) {
            assert!(
                pair[1].arbitrations_per_grant > pair[0].arbitrations_per_grant,
                "{} vs {}",
                pair[0].label,
                pair[1].label
            );
            assert!((pair[0].arbitrations_per_grant - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn narrow_counters_hurt_fairness() {
        let result = counter_bits(Scale::Smoke);
        // A missing ratio means some batch starved the low-identity agent
        // entirely — the extreme of unfairness.
        let one_bit = result.rows[0]
            .fairness_ratio
            .map_or(f64::INFINITY, |e| e.mean);
        let five_bit = result.rows[4].fairness_ratio.unwrap().mean;
        // 1-bit counters wrap constantly and favor high identities more
        // than (or equal to) wide counters.
        assert!(
            one_bit >= five_bit - 0.1,
            "1-bit ratio {one_bit} vs 5-bit ratio {five_bit}"
        );
        assert!(result.rows.last().unwrap().label.contains("central"));
    }

    #[test]
    fn conservation_holds_across_protocols() {
        let result = conservation(Scale::Smoke);
        let waits: Vec<f64> = result.rows.iter().map(|r| r.mean_wait.mean).collect();
        let min = waits.iter().copied().fold(f64::INFINITY, f64::min);
        let max = waits.iter().copied().fold(0.0, f64::max);
        assert!(
            max - min < 0.6,
            "mean waits should agree, got spread {min}..{max}: {waits:?}"
        );
    }

    #[test]
    fn format_renders() {
        let result = start_rule(Scale::Smoke);
        let text = format(&result);
        assert!(text.contains("ablation.start-rule"));
        assert!(text.contains("greedy"));
    }

    #[test]
    fn width_scaled_overhead_penalizes_fcfs_at_low_load_only() {
        let result = width_overhead(Scale::Smoke);
        // Rows come in triples (rr, fcfs full, fcfs binary-patterned) per
        // load; at the lowest load the wide FCFS identity costs visibly
        // more waiting, and the binary-patterned variant restores parity.
        let low = &result.rows[0..3];
        assert!(
            low[1].mean_wait.mean > low[0].mean_wait.mean + 0.1,
            "fcfs {} should exceed rr {} at low load",
            low[1].mean_wait.mean,
            low[0].mean_wait.mean
        );
        assert!(
            (low[2].mean_wait.mean - low[0].mean_wait.mean).abs() < 0.1,
            "binary-patterned fcfs {} should match rr {}",
            low[2].mean_wait.mean,
            low[0].mean_wait.mean
        );
        // At saturation the overhead is hidden: all three agree.
        let high = &result.rows[result.rows.len() - 3..];
        let max = high.iter().map(|r| r.mean_wait.mean).fold(0.0, f64::max);
        let min = high
            .iter()
            .map(|r| r.mean_wait.mean)
            .fold(f64::MAX, f64::min);
        assert!(max - min < 0.8, "saturated spread {min}..{max}");
    }
}
