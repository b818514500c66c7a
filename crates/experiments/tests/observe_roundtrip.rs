//! Observability invariants, across protocols and scenario shapes:
//!
//! * **Conservation** — the always-on metrics registry counts the same
//!   requests, grants and completions as an independent replay of the
//!   run's exported trace, its per-agent completion tallies sum exactly
//!   to the total, and grants can exceed completions only by the grants
//!   still in flight when the run stops (at most the elected next
//!   master, an arbitration in progress, and the transfer on the bus).
//! * **Round trip** — analyzing an exported trace with
//!   `busarb_tail::analyze_path` (the engine behind `busarb analyze`
//!   and `repro cell`) reproduces the live run's mean wait and
//!   utilization exactly.
//! * **Rollup determinism** — per-cell metric rollups merged after a
//!   parallel sweep are identical at any worker count.

use busarb_core::ProtocolKind;
use busarb_experiments::common::{run_cell_kind, seed_for};
use busarb_experiments::observe::{cross_check, run_pinned};
use busarb_experiments::{enable_rollups, merge_rollups, run_cells_with, take_rollups, Scale};
use busarb_obs::TraceFormat;
use busarb_sim::{Simulation, SystemConfig};
use busarb_workload::Scenario;
use proptest::prelude::*;

/// Grants not yet matched by a completion when the run loop exits: one
/// elected next master, one arbitration in flight, one transfer on the
/// bus.
const MAX_GRANTS_IN_FLIGHT: u64 = 3;

proptest! {
    // Every case is a full smoke-scale simulation; keep the count small.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn per_agent_completions_sum_to_the_total_and_bound_grants(
        agents in 2u32..=16,
        per_agent_load in 0.05f64..0.9,
        kind_index in 0usize..4,
        salt in any::<u16>(),
    ) {
        // A single agent cannot offer a full unit of load; scale the
        // total so the per-agent share stays feasible at every size.
        let load = per_agent_load * f64::from(agents);
        let kind = [
            ProtocolKind::RoundRobin,
            ProtocolKind::Fcfs1,
            ProtocolKind::Fcfs2,
            ProtocolKind::CentralRoundRobin,
        ][kind_index];
        let scenario = Scenario::equal_load(agents, load, 1.0).unwrap();
        let tag = format!("observe-prop-{agents}-{load}-{kind}-{salt}");
        let path = std::env::temp_dir().join(format!(
            "busarb-conservation-{}-{salt}-{agents}-{kind}.btrc",
            std::process::id()
        ));
        let config = SystemConfig::new(scenario)
            .with_batches(Scale::Smoke.batches())
            .with_warmup(Scale::Smoke.warmup())
            .with_seed(seed_for(&tag))
            .with_trace_export(&path, TraceFormat::Binary);
        let report = Simulation::new(config).unwrap().run_kind(kind).unwrap();
        let analysis = busarb_tail::analyze_path(&path);
        std::fs::remove_file(&path).ok();
        let replayed = analysis.expect("export must be readable").replay;
        let m = &report.metrics;

        // The registry counts in the event loop; the replay counts the
        // trace records the loop wrote. They must agree exactly.
        prop_assert_eq!(m.requests, replayed.requests);
        prop_assert_eq!(m.grants, replayed.grants);
        prop_assert_eq!(m.completions, replayed.completions);

        let per_agent: u64 = m.completions_per_agent.iter().sum();
        prop_assert_eq!(per_agent, m.completions, "per-agent tallies must partition the total");
        prop_assert_eq!(m.completions_per_agent.len(), agents as usize);
        prop_assert_eq!(m.wait.count, m.completions, "every completion records one wait sample");

        prop_assert!(m.grants >= m.completions);
        prop_assert!(
            m.grants - m.completions <= MAX_GRANTS_IN_FLIGHT,
            "{} grants vs {} completions",
            m.grants,
            m.completions
        );
        // Requests that were granted must have been asserted first.
        prop_assert!(m.requests >= m.completions);
        prop_assert!(m.pending_peak >= 1);
        prop_assert!(m.queue_depth.count == m.requests);
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
