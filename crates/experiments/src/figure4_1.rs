//! Figure 4.1 — CDF of the bus waiting time for RR and FCFS
//! (30 agents, load 1.5).
//!
//! The figure's qualitative signature: the FCFS CDF rises sharply near the
//! mean waiting time, while the RR CDF is flatter — more mass both well
//! below and well above the mean.

use serde::Serialize;

use busarb_sim::RunReport;

use crate::common::Scale;
use crate::grid::Grid;

/// One plotted point.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct Point {
    /// Waiting time.
    pub x: f64,
    /// Cumulative probability `P(W <= x)`.
    pub p: f64,
}

/// The figure's two series.
#[derive(Clone, Debug, Serialize)]
pub struct Figure41 {
    /// Number of agents (30 in the paper).
    pub agents: u32,
    /// Total offered load (1.5 in the paper).
    pub load: f64,
    /// Mean waiting time (common to both protocols).
    pub mean_wait: f64,
    /// RR series.
    pub rr: Vec<Point>,
    /// FCFS series.
    pub fcfs: Vec<Point>,
}

/// Number of plotted points per series.
pub const POINTS: usize = 64;

/// System size of the plotted cell.
pub const AGENTS: u32 = 30;

/// Total offered load of the plotted cell.
pub const LOAD: f64 = 1.5;

/// Whether `(agents, load)` is the plotted cell, the one grid cell that
/// derives the figure.
#[must_use]
pub fn plots(agents: u32, load: f64) -> bool {
    agents == AGENTS && (load - LOAD).abs() < 1e-9
}

/// Returns the figure the grid's (30, 1.5) cell derived.
///
/// # Panics
///
/// Panics if the grid lacks that cell.
#[must_use]
pub fn from_grid(grid: &Grid) -> Figure41 {
    grid.cell(AGENTS, LOAD)
        .and_then(|cell| cell.figure4_1.clone())
        .expect("grid contains the 30-agent, load-1.5 cell")
}

/// Derives the figure from a matched cell's RR and FCFS runs, which must
/// still carry their waiting-time samples. Plotting sorts each run's
/// samples in place, so whatever sums them in recorded order
/// ([`RunReport::mean_overlapped_wait`]) has to be derived first.
///
/// # Panics
///
/// Panics if either run lacks its samples.
#[must_use]
pub fn from_runs(agents: u32, load: f64, rr: &mut RunReport, fcfs: &mut RunReport) -> Figure41 {
    let series = |r: &mut RunReport| {
        r.cdf
            .as_mut()
            .expect("grid collects CDFs")
            .series(POINTS)
            .into_iter()
            .map(|(x, p)| Point { x, p })
            .collect::<Vec<_>>()
    };
    Figure41 {
        agents,
        load,
        mean_wait: 0.5 * (rr.mean_wait.mean + fcfs.mean_wait.mean),
        rr: series(rr),
        fcfs: series(fcfs),
    }
}

/// Runs just the needed cell and returns the figure it derived.
#[must_use]
pub fn run(scale: Scale) -> Figure41 {
    Grid::compute_cell(AGENTS, LOAD, scale)
        .figure4_1
        .expect("the plotted cell derives the figure")
}

/// Renders an ASCII plot plus a numeric table of both series.
#[must_use]
pub fn format(fig: &Figure41) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Figure 4.1: CDF of the Bus Waiting Time for RR and FCFS ({} agents, load = {})\n",
        fig.agents, fig.load
    ));
    out.push_str(&format!("mean waiting time W = {:.2}\n\n", fig.mean_wait));

    const WIDTH: usize = 64;
    const HEIGHT: usize = 16;
    let x_max = fig
        .rr
        .iter()
        .chain(&fig.fcfs)
        .map(|p| p.x)
        .fold(0.0, f64::max)
        .max(1e-9);
    let mut canvas = vec![vec![b' '; WIDTH + 1]; HEIGHT + 1];
    let eval = |series: &[Point], x: f64| -> f64 {
        // Step-function evaluation over the sampled series.
        series
            .iter()
            .take_while(|p| p.x <= x)
            .last()
            .map_or(0.0, |p| p.p)
    };
    #[allow(clippy::needless_range_loop)] // col indexes every row of the canvas
    for col in 0..=WIDTH {
        let x = x_max * col as f64 / WIDTH as f64;
        let rr_row = ((1.0 - eval(&fig.rr, x)) * HEIGHT as f64).round() as usize;
        let fcfs_row = ((1.0 - eval(&fig.fcfs, x)) * HEIGHT as f64).round() as usize;
        canvas[fcfs_row.min(HEIGHT)][col] = b'F';
        if rr_row.min(HEIGHT) != fcfs_row.min(HEIGHT) {
            canvas[rr_row.min(HEIGHT)][col] = b'R';
        } else {
            canvas[rr_row.min(HEIGHT)][col] = b'*';
        }
    }
    for (i, line) in canvas.iter().enumerate() {
        let p = 1.0 - i as f64 / HEIGHT as f64;
        out.push_str(&format!("{p:>4.2} |{}\n", String::from_utf8_lossy(line)));
    }
    out.push_str(&format!("      0{x_max:>WIDTH$.1}\n"));
    out.push_str("      (R = round-robin, F = FCFS, * = both)\n\nx, F_rr(x), F_fcfs(x)\n");
    for (r, f) in fig.rr.iter().zip(&fig.fcfs) {
        out.push_str(&format!("{:8.3} {:8.4} {:8.4}\n", r.x, r.p, f.p));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fcfs_cdf_is_steeper_around_the_mean() {
        let fig = run(Scale::Smoke);
        assert_eq!(fig.agents, 30);
        // Spread between the 10th and 90th percentile is wider for RR.
        let spread = |series: &[Point]| {
            let lo = series.iter().find(|p| p.p >= 0.1).map_or(0.0, |p| p.x);
            let hi = series.iter().find(|p| p.p >= 0.9).map_or(0.0, |p| p.x);
            hi - lo
        };
        assert!(
            spread(&fig.rr) > spread(&fig.fcfs),
            "rr spread {} vs fcfs spread {}",
            spread(&fig.rr),
            spread(&fig.fcfs)
        );
    }

    #[test]
    fn plot_renders() {
        let fig = run(Scale::Smoke);
        let text = format(&fig);
        assert!(text.contains("Figure 4.1"));
        assert!(text.contains('R') || text.contains('*'));
        assert!(text.lines().count() > POINTS);
    }
}
