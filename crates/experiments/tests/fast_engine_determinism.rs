//! Worker-count determinism under the **fast** draw engine.
//!
//! The fast engine's whole design exists to make this hold cheaply: each
//! agent's Philox stream is keyed by `(run seed, agent identity)` alone,
//! so a cell's draws cannot depend on which sweep worker ran it or on
//! what other cells did. This suite is the fast-engine twin of
//! `determinism.rs` (which pins the same guarantee for the default
//! reference engine) and is a single `#[test]` in its own binary because
//! the engine selector is process-global: concurrent tests flipping it
//! would race.

use busarb_experiments::{
    ablations, grid::Grid, priority_study, run_cells_with, set_engine, validation, Scale,
};
use busarb_workload::DrawEngineKind;

fn fingerprint(cell: &busarb_experiments::grid::GridCell) -> String {
    format!("{cell:?}")
}

#[test]
fn fast_engine_sweeps_are_deterministic_and_distinct_from_reference() {
    // Phase 1 — worker-count independence: serial and parallel sweeps
    // must agree bit-for-bit at every pool size.
    set_engine(DrawEngineKind::Fast);
    let points: Vec<(u32, f64)> = vec![(10, 1.5), (30, 0.5), (64, 2.0), (10, 0.25)];
    let compute = |(n, load): (u32, f64)| Grid::compute_cell(n, load, Scale::Smoke);
    let serial: Vec<String> = points.iter().map(|&p| fingerprint(&compute(p))).collect();
    for workers in [2, 4, 16] {
        let parallel: Vec<String> = run_cells_with(workers, points.clone(), compute)
            .iter()
            .map(fingerprint)
            .collect();
        assert_eq!(
            serial, parallel,
            "fast engine: worker pool of {workers} changed a cell result"
        );
    }

    // Phase 2 — replay stability and engine distinctness: the fast
    // engine replays itself exactly, and really is a different sampler
    // than the reference engine (else the switch is not reaching the
    // runner).
    let one_cell = |engine: DrawEngineKind| {
        set_engine(engine);
        fingerprint(&Grid::compute_cell(10, 1.5, Scale::Smoke))
    };
    let fast_a = one_cell(DrawEngineKind::Fast);
    let fast_b = one_cell(DrawEngineKind::Fast);
    assert_eq!(fast_a, fast_b, "fast engine replay diverged");
    let reference = one_cell(DrawEngineKind::Reference);
    assert_ne!(
        fast_a, reference,
        "fast and reference engines produced identical reports — the \
         engine switch is not reaching the runner"
    );

    // Phase 3 — the studies that configure their own cells draw through
    // the selected engine too.
    let studies = |engine: DrawEngineKind| {
        set_engine(engine);
        [
            (
                "ci_coverage",
                format!("{:?}", validation::ci_coverage(Scale::Smoke, 4)),
            ),
            (
                "batch_diagnostics",
                format!("{:?}", validation::batch_diagnostics(Scale::Smoke)),
            ),
            (
                "priority_study",
                format!("{:?}", priority_study::run(Scale::Smoke)),
            ),
            (
                "start-rule",
                format!("{:?}", ablations::start_rule(Scale::Smoke)),
            ),
            (
                "overhead",
                format!("{:?}", ablations::overhead(Scale::Smoke)),
            ),
            (
                "width-overhead",
                format!("{:?}", ablations::width_overhead(Scale::Smoke)),
            ),
        ]
    };
    let fast = studies(DrawEngineKind::Fast);
    let reference = studies(DrawEngineKind::Reference);
    for ((name, fast), (_, reference)) in fast.iter().zip(&reference) {
        assert_ne!(
            fast, reference,
            "{name}: --engine fast did not reach the study"
        );
    }
    set_engine(DrawEngineKind::default());
}
