//! The shared (system size × load × protocol) simulation sweep.
//!
//! Tables 4.1 (fairness), 4.2 (waiting-time deviation), 4.3 (execution
//! overlap) and Figure 4.1 (waiting-time CDF) all derive from the same
//! family of equal-load simulation runs. Computing the grid once and
//! deriving every table from it keeps `repro all` affordable and — more
//! importantly — guarantees the tables are mutually consistent, exactly
//! as in the paper.
//!
//! Only Table 4.3 and Figure 4.1 read the runs' raw waiting-time samples
//! (80 000 per run at paper scale). Each cell derives both from its
//! samples on the sweep worker that ran it and then drops them, so the
//! grid holds O(1) data per cell instead of every sample of the sweep
//! until the last report is written.

use busarb_core::{BatchingRule, ProtocolKind};
use busarb_sim::RunReport;
use busarb_workload::Scenario;

use crate::common::{paper_loads, run_cell, run_cell_kind, run_cells, Scale, PAPER_SIZES};
use crate::figure4_1::{self, Figure41};
use crate::table4_3;

/// One (size, load) cell: matched RR and FCFS runs, plus AAP-1 for the
/// 30-agent system (the comparison column in Table 4.1(b)), and what
/// Table 4.3 and Figure 4.1 derive from the runs' waiting-time samples.
///
/// The runs keep their summaries and batch tallies but not their samples
/// (`cdf` is `None`): everything that reads the samples is derived in
/// [`Grid::compute_cell`] and stored here.
#[derive(Clone, Debug)]
pub struct GridCell {
    /// Number of agents.
    pub agents: u32,
    /// Total offered load.
    pub load: f64,
    /// Round-robin run (samples dropped).
    pub rr: RunReport,
    /// FCFS-1 run (samples dropped).
    pub fcfs: RunReport,
    /// Assured-access (idle batch) run, 30-agent system only.
    pub aap: Option<RunReport>,
    /// This cell's Table 4.3 row.
    pub table4_3: table4_3::Row,
    /// Figure 4.1, for the plotted (30, 1.5) cell only.
    pub figure4_1: Option<Figure41>,
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

    /// Runs a single cell, derives its Table 4.3 row (and, for the
    /// plotted cell, Figure 4.1) from the runs' waiting-time samples, and
    /// drops the samples.
    #[must_use]
    pub fn compute_cell(n: u32, load: f64, scale: Scale) -> GridCell {
        let scenario = Scenario::equal_load(n, load, 1.0).expect("valid equal-load scenario");
        let mut rr = run_cell_kind(
            scenario.clone(),
            ProtocolKind::RoundRobin,
            scale,
            &format!("grid-rr-{n}-{load}"),
            true,
        );
        let mut fcfs = run_cell_kind(
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
        // The row sums the samples in recorded order; the figure sorts
        // them in place, so it comes second.
        let table4_3 = table4_3::row(n, load, &rr, &fcfs);
        let figure4_1 =
            figure4_1::plots(n, load).then(|| figure4_1::from_runs(n, load, &mut rr, &mut fcfs));
        rr.cdf = None;
        fcfs.cdf = None;
        GridCell {
            agents: n,
            load,
            rr,
            fcfs,
            aap,
            table4_3,
            figure4_1,
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
    use crate::figure4_1::{Point, POINTS};

    #[test]
    fn single_cell_has_matched_runs() {
        let cell = Grid::compute_cell(10, 1.5, Scale::Smoke);
        assert_eq!(cell.rr.protocol, "rr");
        assert_eq!(cell.fcfs.protocol, "fcfs-1");
        assert!(cell.aap.is_none());
        // The Table 4.3 row is derived from this cell's runs.
        assert_eq!(cell.table4_3.load.to_bits(), 1.5f64.to_bits());
        assert!(cell.table4_3.overlap >= 1.0);
        assert!(cell.figure4_1.is_none());
        // Conservation: matched mean waits.
        assert!((cell.rr.mean_wait.mean - cell.fcfs.mean_wait.mean).abs() < 0.5);
    }

    #[test]
    fn thirty_agent_cells_carry_aap() {
        let cell = Grid::compute_cell(30, 0.25, Scale::Smoke);
        assert_eq!(cell.aap.as_ref().unwrap().protocol, "aap-1");
    }

    /// Table 4.3's row as it was derived before cells dropped their
    /// samples: clone both CDFs, sort the clones, and evaluate them one
    /// integer at a time.
    fn sorted_clone_row(n: u32, load: f64, rr: &RunReport, fcfs: &RunReport) -> table4_3::Row {
        let mut rr_cdf = rr.cdf.clone().unwrap();
        let mut fcfs_cdf = fcfs.cdf.clone().unwrap();
        let limit = (rr.wait_summary.mean() * 4.0).ceil().max(8.0) as u32;
        let crossing = (1..=limit).find(|&x| {
            let x = f64::from(x);
            fcfs_cdf.eval(x) > 0.5 && rr_cdf.eval(x) < fcfs_cdf.eval(x)
        });
        let overlap = crossing.map_or_else(|| rr.wait_summary.mean().ceil(), f64::from);
        let interrequest = 1.0 / (load / f64::from(n)) - 1.0;
        let productivity = |r: &RunReport| {
            (interrequest + r.mean_overlapped_wait(overlap).unwrap())
                / (interrequest + r.wait_summary.mean())
        };
        let residual = |r: &RunReport| {
            (r.wait_summary.mean() - r.mean_overlapped_wait(overlap).unwrap()).max(0.0)
        };
        table4_3::Row {
            load,
            mean_wait: 0.5 * (rr.wait_summary.mean() + fcfs.wait_summary.mean()),
            residual_rr: residual(rr),
            residual_fcfs: residual(fcfs),
            productivity_rr: productivity(rr),
            productivity_fcfs: productivity(fcfs),
            overlap,
        }
    }

    /// Figure 4.1's series as derived before: from sorted clones.
    fn sorted_clone_series(r: &RunReport) -> Vec<Point> {
        let mut cdf = r.cdf.clone().unwrap();
        cdf.series(POINTS)
            .into_iter()
            .map(|(x, p)| Point { x, p })
            .collect()
    }

    #[test]
    fn cells_keep_no_samples_but_everything_derived_from_them() {
        let (n, load) = (figure4_1::AGENTS, figure4_1::LOAD);
        let cell = Grid::compute_cell(n, load, Scale::Smoke);
        assert!(cell.rr.cdf.is_none() && cell.fcfs.cdf.is_none());

        // The same runs, samples kept.
        let scenario = Scenario::equal_load(n, load, 1.0).unwrap();
        let run = |kind, tag: &str| run_cell_kind(scenario.clone(), kind, Scale::Smoke, tag, true);
        let rr = run(ProtocolKind::RoundRobin, &format!("grid-rr-{n}-{load}"));
        let fcfs = run(ProtocolKind::Fcfs1, &format!("grid-fcfs-{n}-{load}"));
        assert!(rr.cdf.as_ref().is_some_and(|c| !c.is_empty()));

        let bits = |v: &dyn core::fmt::Debug| format!("{v:?}");
        assert_eq!(
            bits(&cell.table4_3),
            bits(&sorted_clone_row(n, load, &rr, &fcfs))
        );
        let figure = cell.figure4_1.as_ref().expect("the plotted cell");
        assert_eq!(figure.rr.len(), POINTS);
        assert_eq!(bits(&figure.rr), bits(&sorted_clone_series(&rr)));
        assert_eq!(bits(&figure.fcfs), bits(&sorted_clone_series(&fcfs)));
        assert_eq!(
            figure.mean_wait.to_bits(),
            (0.5 * (rr.mean_wait.mean + fcfs.mean_wait.mean)).to_bits()
        );

        // Apart from the samples, the cell's runs are those runs.
        let without_samples = |mut r: RunReport| {
            r.cdf = None;
            bits(&r)
        };
        assert_eq!(bits(&cell.rr), without_samples(rr));
        assert_eq!(bits(&cell.fcfs), without_samples(fcfs));
    }
}
