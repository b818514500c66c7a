//! The clean-workspace snapshot: running the full engine over the real
//! workspace with the committed baseline yields zero open findings.
//! This is the same invocation `cargo xtask lint` performs, so a
//! violation introduced anywhere in the workspace fails `cargo test`
//! even before CI runs the lint job.

use std::path::Path;

use busarb_core::ProtocolKind;
use busarb_lint::{busarb_config, run, Baseline, Config, Workspace};

fn real_config() -> Config {
    let variants: Vec<String> = ProtocolKind::all()
        .iter()
        .map(|k| format!("{k:?}"))
        .collect();
    let slugs: Vec<String> = ProtocolKind::all()
        .iter()
        .map(ToString::to_string)
        .collect();
    busarb_config(variants, slugs)
}

fn real_workspace() -> Workspace {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    Workspace::load(&root).expect("workspace loads")
}

fn committed_baseline() -> Baseline {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let text = std::fs::read_to_string(root.join("lint-baseline.json"))
        .expect("lint-baseline.json exists at the workspace root");
    Baseline::parse(&text).expect("committed baseline parses")
}

#[test]
fn the_workspace_is_clean_under_the_committed_baseline() {
    let report = run(&real_workspace(), &real_config(), &committed_baseline());
    assert!(report.is_clean(), "open findings:\n{}", report.to_text());
}

#[test]
fn strict_mode_matches_the_committed_baseline_today() {
    // The committed baseline is currently empty: every violation the
    // engine found in PR 9 was fixed, not suppressed. Keep it that way
    // until a suppression earns a written reason.
    let baseline = committed_baseline();
    assert!(
        baseline.suppressions.is_empty(),
        "a suppression was added — drop this assertion only alongside its reason"
    );
    let report = run(&real_workspace(), &real_config(), &Baseline::empty());
    assert!(report.is_clean(), "strict mode:\n{}", report.to_text());
}

#[test]
fn scan_statistics_stay_in_a_sane_band() {
    // Coarse pins so a loader or parser regression (suddenly scanning 3
    // files, or extracting 0 functions) cannot pass silently. Bands are
    // wide on purpose: ordinary growth should not churn this test.
    let report = run(&real_workspace(), &real_config(), &Baseline::empty());
    let s = report.stats;
    assert!(s.files >= 80, "only {} files scanned", s.files);
    assert!(
        s.functions >= 1000,
        "only {} functions extracted",
        s.functions
    );
    assert!(
        s.hot_reachable >= 100,
        "only {} fns reachable from hot roots — did root resolution break?",
        s.hot_reachable
    );
    assert!(
        s.runner_reachable > s.hot_reachable,
        "the mono runner's closure ({}) must exceed the hot closure ({})",
        s.runner_reachable,
        s.hot_reachable
    );
    assert!(
        !report.panic_surface.is_empty(),
        "the runner catalogs its assert!-guard surface"
    );
}

/// Upper bound on the panic sites reachable from the run entry points
/// (`Simulation::run` and `Simulation::run_kind`). A ratchet: lower it
/// when a site goes away, never raise it to admit a new one.
const PANIC_SURFACE_MAX: usize = 48;

#[test]
fn runner_panic_surface_cannot_grow() {
    let report = run(&real_workspace(), &real_config(), &Baseline::empty());
    let sites: Vec<String> = report
        .panic_surface
        .iter()
        .map(|s| format!("{}:{} {} {}", s.file, s.line, s.function, s.construct))
        .collect();
    assert!(
        sites.len() <= PANIC_SURFACE_MAX,
        "{} panic sites are reachable from the run entry points (ratchet: \
         {PANIC_SURFACE_MAX}); remove the new ones instead of raising the bound:\n{}",
        sites.len(),
        sites.join("\n")
    );
}
