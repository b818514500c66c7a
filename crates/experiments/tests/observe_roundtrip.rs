//! Observability invariants, across every protocol, open-loop scenario
//! shapes and the closed-loop MESI workload:
//!
//! * **Conservation** — the always-on metrics registry counts the same
//!   requests, grants and completions as a replay of the run's exported
//!   trace, its per-agent completion tallies sum exactly to the total,
//!   and grants can exceed completions only by the grants still in
//!   flight when the run stops (at most the elected next master, an
//!   arbitration in progress, and the transfer on the bus).
//! * **Round trip** — analyzing an exported trace with
//!   `busarb_tail::analyze_path` (the engine behind `busarb analyze`
//!   and `repro cell`) reproduces the live run's measured samples, mean
//!   wait, half-width, utilization and measured time bit for bit.
//! * **Rollup determinism** — per-cell metric rollups merged after a
//!   parallel sweep are identical at any worker count.

use busarb_core::ProtocolKind;
use busarb_experiments::common::{run_cell_kind, seed_for};
use busarb_experiments::observe::{cross_check, run_pinned};
use busarb_experiments::{enable_rollups, merge_rollups, run_cells_with, take_rollups, Scale};
use busarb_obs::TraceFormat;
use busarb_sim::{Simulation, SystemConfig};
use busarb_workload::{CoherenceConfig, Scenario};
use proptest::prelude::*;

/// Grants not yet matched by a completion when the run loop exits: one
/// elected next master, one arbitration in flight, one transfer on the
/// bus.
const MAX_GRANTS_IN_FLIGHT: u64 = 3;

/// Runs `kind` on `scenario` with a binary export, replays the export,
/// and checks the conservation identities and the round trip.
fn check_conservation(scenario: Scenario, kind: ProtocolKind, tag: &str) {
    let agents = scenario.agents();
    let path = std::env::temp_dir().join(format!(
        "busarb-conservation-{}-{tag}.btrc",
        std::process::id()
    ));
    let config = SystemConfig::new(scenario)
        .with_batches(Scale::Smoke.batches())
        .with_warmup(Scale::Smoke.warmup())
        .with_seed(seed_for(tag))
        .with_trace_export(&path, TraceFormat::Binary);
    let report = Simulation::new(config).unwrap().run_kind(kind).unwrap();
    let analysis = busarb_tail::analyze_path(&path);
    std::fs::remove_file(&path).ok();
    let analysis = analysis.expect("export must be readable");
    let replayed = &analysis.replay;
    let m = &report.metrics;

    // The registry counts in the event loop; the replay counts the
    // trace records the loop wrote. They must agree exactly.
    assert_eq!(m.requests, replayed.requests, "{tag}");
    assert_eq!(m.grants, replayed.grants, "{tag}");
    assert_eq!(m.completions, replayed.completions, "{tag}");
    let check = cross_check(&report, &analysis.protocol, replayed);
    assert!(check.is_ok(), "{tag} round-trip mismatch: {check:?}");

    let per_agent: u64 = m.completions_per_agent.iter().sum();
    assert_eq!(
        per_agent, m.completions,
        "{tag}: per-agent tallies must partition the total"
    );
    assert_eq!(m.completions_per_agent.len(), agents as usize, "{tag}");
    assert_eq!(
        m.wait.count, m.completions,
        "{tag}: every completion records one wait sample"
    );

    assert!(m.grants >= m.completions, "{tag}");
    assert!(
        m.grants - m.completions <= MAX_GRANTS_IN_FLIGHT,
        "{tag}: {} grants vs {} completions",
        m.grants,
        m.completions
    );
    // Requests that were granted must have been asserted first.
    assert!(m.requests >= m.completions, "{tag}");
    assert!(m.pending_peak >= 1, "{tag}");
    assert_eq!(m.queue_depth.count, m.requests, "{tag}");
}

proptest! {
    // Every case is fourteen smoke-scale simulations; keep the count small.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn per_agent_completions_sum_to_the_total_and_bound_grants(
        agents in 2u32..=16,
        per_agent_load in 0.05f64..0.9,
        salt in any::<u16>(),
    ) {
        // A single agent cannot offer a full unit of load; scale the
        // total so the per-agent share stays feasible at every size.
        let load = per_agent_load * f64::from(agents);
        for &kind in ProtocolKind::all() {
            let scenario = Scenario::equal_load(agents, load, 1.0).unwrap();
            check_conservation(scenario, kind, &format!("observe-prop-{agents}-{load}-{kind}-{salt}"));
        }
        // Closed-loop MESI: coherence records interleave with the bus
        // events in the trace.
        let all = ProtocolKind::all();
        let kind = all[usize::from(salt) % all.len()];
        let scenario = Scenario::closed_loop(agents, CoherenceConfig::default_mix()).unwrap();
        check_conservation(scenario, kind, &format!("observe-prop-mesi-{agents}-{kind}-{salt}"));
    }
}

proptest! {
    // Each case simulates AND exports+replays a full trace; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn exported_jsonl_replays_to_the_live_aggregates(
        scale_index in 0usize..2,
        format_index in 0usize..2,
    ) {
        let scale = [Scale::Smoke, Scale::Quick][scale_index];
        let format = [TraceFormat::Jsonl, TraceFormat::Binary][format_index];
        let path = std::env::temp_dir().join(format!(
            "busarb-roundtrip-{}-{scale}-{format}.{format}",
            std::process::id()
        ));
        let live = run_pinned(scale, Some((&path, format)));
        let analysis = busarb_tail::analyze_path(&path);
        std::fs::remove_file(&path).ok();
        let analysis = analysis.expect("export must be readable");
        let check = cross_check(&live, &analysis.protocol, &analysis.replay);
        prop_assert!(
            check.is_ok(),
            "{scale}/{format} round-trip mismatch: {check:?}"
        );
        // Identical sample sequence through identical batch-means
        // arithmetic: equality, not mere closeness.
        prop_assert_eq!(analysis.replay.mean_wait, Some(live.mean_wait.mean));
        prop_assert_eq!(analysis.replay.halfwidth, Some(live.mean_wait.halfwidth));
        prop_assert_eq!(analysis.replay.utilization, live.utilization);
    }
}

/// The sweep's metric rollups, like its reports, must not depend on the
/// worker count: cells arrive in completion order, but `take_rollups`
/// canonicalizes by tag before the merge folds them.
#[test]
fn merged_rollups_identical_at_any_worker_count() {
    let cells: Vec<(u32, f64)> = vec![(4, 1.0), (10, 2.0), (6, 0.5), (8, 4.0)];
    let sweep = |workers: usize| {
        enable_rollups();
        run_cells_with(workers, cells.clone(), |(agents, load)| {
            let scenario = Scenario::equal_load(agents, load, 1.0).unwrap();
            run_cell_kind(
                scenario,
                ProtocolKind::RoundRobin,
                Scale::Smoke,
                &format!("rollup-det-{agents}-{load}"),
                false,
            )
        });
        // The collector is process-global and other tests in this binary
        // may be offering snapshots concurrently; keep only this sweep's
        // tags (already tag-sorted by `take_rollups`).
        let collected: Vec<_> = take_rollups()
            .expect("rollups were enabled")
            .into_iter()
            .filter(|(tag, _)| tag.starts_with("rollup-det-"))
            .collect();
        assert_eq!(collected.len(), cells.len());
        (merge_rollups(&collected), collected)
    };
    let (serial_merge, serial_cells) = sweep(1);
    for workers in [2, 4] {
        let (parallel_merge, parallel_cells) = sweep(workers);
        assert_eq!(serial_cells, parallel_cells, "workers={workers}");
        assert_eq!(serial_merge, parallel_merge, "workers={workers}");
    }
}
