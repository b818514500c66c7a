//! The shared (system size × load × protocol) simulation sweep.
//!
//! Tables 4.1 (fairness), 4.2 (waiting-time deviation), 4.3 (execution
//! overlap) and Figure 4.1 (waiting-time CDF) all derive from the same
//! family of equal-load simulation runs. Computing the grid once and
//! deriving every table from it keeps `repro all` affordable and — more
//! importantly — guarantees the tables are mutually consistent, exactly
//! as in the paper.

use busarb_core::{BatchingRule, ProtocolKind};
use busarb_sim::RunReport;
use busarb_workload::Scenario;

use crate::common::{paper_loads, run_cell, run_cell_kind, run_cells, Scale, PAPER_SIZES};

/// One (size, load) cell: matched RR and FCFS runs, plus AAP-1 for the
/// 30-agent system (the comparison column in Table 4.1(b)).
#[derive(Clone, Debug)]
pub struct GridCell {
    /// Number of agents.
    pub agents: u32,
    /// Total offered load.
    pub load: f64,
    /// Round-robin run (with waiting-time CDF).
    pub rr: RunReport,
    /// FCFS-1 run (with waiting-time CDF).
    pub fcfs: RunReport,
    /// Assured-access (idle batch) run, 30-agent system only.
    pub aap: Option<RunReport>,
}

/// The full sweep.
#[derive(Clone, Debug)]
pub struct Grid {
    /// All cells, ordered by (size, load).
    pub cells: Vec<GridCell>,
    /// The scale the grid was computed at.
    pub scale: Scale,
}

impl Grid {
    /// Runs the sweep: every paper size and load, RR and FCFS-1 (plus
    /// AAP-1 at 30 agents), CV = 1 (exponential interrequest times).
    /// Cells execute in parallel (see [`run_cells`]); every cell seeds
    /// from its own tag, so the result is identical at any worker count.
    #[must_use]
    pub fn compute(scale: Scale) -> Grid {
        let points: Vec<(u32, f64)> = PAPER_SIZES
            .iter()
            .flat_map(|&n| paper_loads(n).into_iter().map(move |load| (n, load)))
            .collect();
        let cells = run_cells(points, |(n, load)| Self::compute_cell(n, load, scale));
        Grid { cells, scale }
    }

    /// Runs a single cell (Figure 4.1 alone needs only one).
    #[must_use]
    pub fn compute_cell(n: u32, load: f64, scale: Scale) -> GridCell {
        let scenario = Scenario::equal_load(n, load, 1.0).expect("valid equal-load scenario");
        let rr = run_cell_kind(
            scenario.clone(),
            ProtocolKind::RoundRobin,
            scale,
            &format!("grid-rr-{n}-{load}"),
            true,
        );
        let fcfs = run_cell_kind(
            scenario.clone(),
            ProtocolKind::Fcfs1,
            scale,
            &format!("grid-fcfs-{n}-{load}"),
            true,
        );
        let aap = (n == 30).then(|| {
            run_cell(
                scenario,
                Box::new(
                    busarb_core::AssuredAccess::new(n, BatchingRule::IdleBatch)
                        .expect("valid size"),
                ),
                scale,
                &format!("grid-aap-{n}-{load}"),
                false,
            )
        });
        GridCell {
            agents: n,
            load,
            rr,
            fcfs,
            aap,
        }
    }

    /// Cells for one system size, in load order.
    pub fn section(&self, agents: u32) -> impl Iterator<Item = &GridCell> {
        self.cells.iter().filter(move |c| c.agents == agents)
    }

    /// Looks up one cell.
    #[must_use]
    pub fn cell(&self, agents: u32, load: f64) -> Option<&GridCell> {
        self.cells
            .iter()
            .find(|c| c.agents == agents && (c.load - load).abs() < 1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_cell_has_matched_runs() {
        let cell = Grid::compute_cell(10, 1.5, Scale::Smoke);
        assert_eq!(cell.rr.protocol, "rr");
        assert_eq!(cell.fcfs.protocol, "fcfs-1");
        assert!(cell.aap.is_none());
        assert!(cell.rr.cdf.is_some());
        // Conservation: matched mean waits.
        assert!((cell.rr.mean_wait.mean - cell.fcfs.mean_wait.mean).abs() < 0.5);
    }

    #[test]
    fn thirty_agent_cells_carry_aap() {
        let cell = Grid::compute_cell(30, 0.25, Scale::Smoke);
        assert_eq!(cell.aap.as_ref().unwrap().protocol, "aap-1");
    }
}
