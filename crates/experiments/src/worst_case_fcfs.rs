//! The FCFS worst case the paper declined to pursue (§4.5, last
//! paragraph).
//!
//! *"We could similarly devise a worst-case model for FCFS, in which all
//! agents generate a request for the bus within the same interval defined
//! by the waiting time counters, each time they make a request. This
//! situation would be equally as contrived, if not more so, than the
//! previous model. Thus, we choose not to pursue this issue further."*
//!
//! We pursue it — and find the paper's instinct confirmed, for a
//! sharper reason than "contrived". To make every batch of requests
//! arrive within one counter interval **repeatedly**, the interrequest
//! times must re-synchronize the agents after each identity-ordered
//! batch, which forces agent `k`'s interrequest to be `k − 1 + δ`
//! ([`Scenario::worst_case_fcfs`]). But that heterogeneity makes the
//! delay spread *workload-determined*: in the synchronized steady state
//! every agent completes once per round of length ≈ `N + δ + 1`, so
//! conservation pins `W_k = round − interrequest_k` for **every**
//! work-conserving protocol. The measurement confirms it: FCFS-1,
//! FCFS-2, RR and the hybrid all show the identical per-agent wait
//! profile (spread 7.0 at N = 10) — even from randomized initial phases,
//! which the deterministic dynamics re-attract to the synchronized
//! pattern. The FCFS "worst case" punishes no protocol differentially;
//! there is nothing for a fair arbiter to fix, which is the strongest
//! justification for the paper's decision to drop it.

use busarb_core::ProtocolKind;
use busarb_workload::Scenario;
use serde::Serialize;

use crate::common::{cell_config, run_cells, run_config_kind, Scale};

/// One protocol's result under the lockstep workload.
#[derive(Clone, Debug, Serialize)]
pub struct Row {
    /// Protocol name.
    pub protocol: String,
    /// Mean waiting time of the lowest-identity agent.
    pub wait_agent_1: f64,
    /// Mean waiting time of the highest-identity agent.
    pub wait_agent_n: f64,
    /// Max/min per-agent mean-wait ratio (1.0 = fair delays).
    pub wait_spread: Option<f64>,
    /// Max/min per-agent throughput stays ~1 even here.
    pub utilization: f64,
}

/// The study result.
#[derive(Clone, Debug, Serialize)]
pub struct WorstCaseFcfs {
    /// Number of agents.
    pub agents: u32,
    /// Rows per protocol.
    pub rows: Vec<Row>,
}

/// Protocols compared.
pub const PROTOCOLS: [ProtocolKind; 4] = [
    ProtocolKind::Fcfs1,
    ProtocolKind::Fcfs2,
    ProtocolKind::RoundRobin,
    ProtocolKind::Hybrid,
];

/// Runs the study: `n = 10` agents with the re-synchronizing
/// deterministic workload ([`Scenario::worst_case_fcfs`]): agent `k`'s
/// interrequest is `k − 0.5`, so after each identity-ordered batch every
/// agent re-requests at the same instant and the batch re-forms. One
/// sweep cell per protocol (see [`run_cells`]).
#[must_use]
pub fn run(scale: Scale) -> WorstCaseFcfs {
    let n = 10u32;
    let scenario = Scenario::worst_case_fcfs(n, 0.5).expect("valid scenario");
    let rows = run_cells(PROTOCOLS.to_vec(), |kind| {
        let tag = format!("wc-fcfs-{kind}");
        let config = cell_config(scenario.clone(), scale, &tag).without_initial_stagger();
        let report = run_config_kind(config, kind, &tag);
        Row {
            protocol: kind.to_string(),
            wait_agent_1: report.agent_wait(1).mean(),
            wait_agent_n: report.agent_wait(n).mean(),
            wait_spread: report.wait_spread(),
            utilization: report.utilization,
        }
    });
    WorstCaseFcfs { agents: n, rows }
}

/// Renders the study.
#[must_use]
pub fn format(w: &WorstCaseFcfs) -> String {
    let mut out = format!(
        "Worst case for FCFS (paper 4.5): {} agents, re-synchronizing deterministic\n\
         workload (interrequest of agent k = k - 0.5; every batch arrives within\n\
         one counter interval and is served in identity order)\n\n",
        w.agents
    );
    out.push_str(&format!(
        "{:<10} {:>10} {:>10} {:>12} {:>6}\n",
        "protocol", "W[1]", "W[N]", "spread", "util"
    ));
    for row in &w.rows {
        out.push_str(&format!(
            "{:<10} {:>10.2} {:>10.2} {:>12} {:>6.2}\n",
            row.protocol,
            row.wait_agent_1,
            row.wait_agent_n,
            row.wait_spread
                .map_or_else(|| "-".to_string(), |v| format!("{v:.2}")),
            row.utilization,
        ));
    }
    out.push_str(
        "\n(The spread is forced by conservation: each agent completes once per\n\
         round, so W_k = round - interrequest_k for EVERY work-conserving\n\
         protocol. The FCFS worst case punishes no protocol differentially --\n\
         the sharp version of the paper's reason for not pursuing it.)\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_spread_is_workload_forced_and_protocol_independent() {
        let result = run(Scale::Smoke);
        // The synchronized pattern: round length N + 1.5 served in
        // identity order; W[1] = N + 0.5, W[N] = 1.5, for every protocol.
        for row in &result.rows {
            assert!(
                (row.wait_agent_1 - 10.5).abs() < 0.2,
                "{}: W[1] = {}",
                row.protocol,
                row.wait_agent_1
            );
            assert!(
                (row.wait_agent_n - 1.5).abs() < 0.2,
                "{}: W[N] = {}",
                row.protocol,
                row.wait_agent_n
            );
            let spread = row.wait_spread.unwrap();
            assert!(
                (spread - 7.0).abs() < 0.5,
                "{}: spread {spread}",
                row.protocol
            );
        }
        // And all protocols agree with each other (conservation, per
        // agent, not just in aggregate).
        let spreads: Vec<f64> = result.rows.iter().map(|r| r.wait_spread.unwrap()).collect();
        let max = spreads.iter().copied().fold(0.0, f64::max);
        let min = spreads.iter().copied().fold(f64::MAX, f64::min);
        assert!(max - min < 0.2, "{spreads:?}");
    }

    #[test]
    fn format_renders() {
        let result = run(Scale::Smoke);
        let text = format(&result);
        assert!(text.contains("Worst case for FCFS"));
        assert!(text.contains("spread"));
    }
}
