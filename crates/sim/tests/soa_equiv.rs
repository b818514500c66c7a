//! SoA-plane equivalence property: the production event loop — calendar
//! queue plus struct-of-arrays agent planes ([`Simulation::run`]) —
//! must produce bit-for-bit the same [`busarb_sim::RunReport`] as the
//! legacy per-agent runner ([`Simulation::run_legacy`]), which keeps the
//! original `VecDeque`-per-agent state and binary-heap event queue and
//! shares none of the plane data structures.
//!
//! This extends the `dispatch_equiv` regression (dyn vs monomorphized
//! entry points over one shared runner) to the stronger claim that the
//! plane *representation itself* is observation-equivalent: every
//! protocol, both arbitration start rules, randomized agent counts,
//! loads, seeds, and outstanding-request limits. Comparison is by `Debug`
//! string — `RunReport` fans out into floats, vectors, summaries, the
//! engine metrics snapshot, and the trace, and the derived format covers
//! every field of that tree, so equality here is bit-for-bit equality of
//! the full report including metrics.

use busarb_core::ProtocolKind;
use busarb_sim::{ArbitrationStartRule, Simulation, SystemConfig};
use busarb_stats::BatchMeansConfig;
use busarb_workload::{CoherenceConfig, DrawEngineKind, Scenario};
use proptest::prelude::*;

/// One randomized cell: every protocol × both start rules × both draw
/// engines is exercised inside a single case so a failure names the
/// exact protocol. Equivalence is *within* an engine — the two engines
/// draw different variates by design, so reports are only compared
/// between runners that share one.
fn check_cell(agents: u32, load: f64, seed: u64, max_outstanding: u32, samples: usize) {
    for &kind in ProtocolKind::all() {
        for rule in [
            ArbitrationStartRule::Greedy,
            ArbitrationStartRule::TransactionAligned,
        ] {
            for engine in [DrawEngineKind::Reference, DrawEngineKind::Fast] {
                let scenario = Scenario::equal_load(agents, load, 1.0).expect("valid scenario");
                let mut config = SystemConfig::new(scenario)
                    .with_batches(BatchMeansConfig::quick(samples))
                    .with_warmup(samples / 2)
                    .with_seed(seed)
                    .with_draw_engine(engine)
                    .with_start_rule(rule)
                    .with_cdf();
                // The multiple-outstanding extension only applies to the
                // central queue; the replicated protocols assert one request
                // per agent.
                if kind == ProtocolKind::CentralFcfs {
                    config = config.with_max_outstanding(max_outstanding);
                }
                let sim = Simulation::new(config).expect("valid config");
                let planes = sim.run(kind.build(agents).expect("valid size"));
                let legacy = sim.run_legacy(kind.build(agents).expect("valid size"));
                assert_eq!(
                    format!("{planes:?}"),
                    format!("{legacy:?}"),
                    "{kind}/{rule:?}/{engine}: plane and legacy runs diverged"
                );
                assert!(
                    planes.events > 0,
                    "{kind}/{rule:?}/{engine}: no events simulated"
                );
            }
        }
    }
}

/// One closed-loop MESI cell: the runners must stay bit-for-bit equal
/// while the cache feedback path (miss → stall → grant → transition →
/// next miss) drives arrivals instead of open-loop timer draws.
fn check_mesi_cell(agents: u32, seed: u64, kinds: &[ProtocolKind], samples: usize) {
    let coherence = CoherenceConfig::default_mix();
    for &kind in kinds {
        for rule in [
            ArbitrationStartRule::Greedy,
            ArbitrationStartRule::TransactionAligned,
        ] {
            for engine in [DrawEngineKind::Reference, DrawEngineKind::Fast] {
                let scenario = Scenario::closed_loop(agents, coherence).expect("valid scenario");
                let config = SystemConfig::new(scenario)
                    .with_batches(BatchMeansConfig::quick(samples))
                    .with_warmup(samples / 2)
                    .with_seed(seed)
                    .with_draw_engine(engine)
                    .with_start_rule(rule)
                    .with_cdf();
                let sim = Simulation::new(config).expect("valid config");
                let planes = sim.run(kind.build(agents).expect("valid size"));
                let legacy = sim.run_legacy(kind.build(agents).expect("valid size"));
                assert_eq!(
                    format!("{planes:?}"),
                    format!("{legacy:?}"),
                    "{kind}/{rule:?}/{engine}: closed-loop plane and legacy runs diverged"
                );
                let misses: u64 = planes.metrics.read_misses.iter().sum::<u64>()
                    + planes.metrics.write_misses.iter().sum::<u64>()
                    + planes.metrics.upgrades.iter().sum::<u64>();
                assert_eq!(
                    misses, planes.metrics.completions,
                    "{kind}/{rule:?}/{engine}: every completion must be a classified miss"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Narrow systems stay within one 64-slot calendar word.
    #[test]
    fn planes_match_legacy_narrow(
        agents in 2u32..=24,
        load in 0.2f64..4.0,
        seed in any::<u64>(),
        max_outstanding in 1u32..=3,
    ) {
        check_cell(agents, load, seed, max_outstanding, 60);
    }

    /// Wide systems force the two-word calendar/mask path (agents > 64).
    #[test]
    fn planes_match_legacy_wide(
        agents in 65u32..=128,
        seed in any::<u64>(),
    ) {
        check_cell(agents, 1.5, seed, 2, 40);
    }

    /// Closed-loop MESI workloads over randomized rosters and seeds, on
    /// the two protocols the coherence experiment compares.
    #[test]
    fn mesi_planes_match_legacy(
        agents in 2u32..=24,
        seed in any::<u64>(),
    ) {
        check_mesi_cell(
            agents,
            seed,
            &[ProtocolKind::RoundRobin, ProtocolKind::Fcfs1],
            40,
        );
    }
}

/// Every protocol through one pinned closed-loop cell, so a regression
/// in any arbiter's interaction with the feedback path names itself.
#[test]
fn mesi_planes_match_legacy_for_every_protocol() {
    check_mesi_cell(8, 0xC0_4E8E, ProtocolKind::all(), 60);
}

/// The paper-scale default configuration, pinned outside proptest so the
/// exact shipped settings are always exercised.
#[test]
fn planes_match_legacy_at_default_scale() {
    check_cell(10, 2.0, 0xB05_A7B, 1, 120);
}

/// An Erlang-CV cell (CV = 0.5, shape 4), pinned so the fast engine's
/// Marsaglia–Tsang sampler runs through the full event loop on both
/// runner representations — `check_cell` above only draws exponentials.
#[test]
fn planes_match_legacy_under_erlang_draws() {
    for engine in [DrawEngineKind::Reference, DrawEngineKind::Fast] {
        let scenario = Scenario::equal_load(10, 2.0, 0.5).expect("valid scenario");
        let config = SystemConfig::new(scenario)
            .with_batches(BatchMeansConfig::quick(80))
            .with_warmup(40)
            .with_seed(0xE12A)
            .with_draw_engine(engine)
            .with_cdf();
        let sim = Simulation::new(config).expect("valid config");
        let kind = ProtocolKind::RoundRobin;
        let planes = sim.run(kind.build(10).expect("valid size"));
        let legacy = sim.run_legacy(kind.build(10).expect("valid size"));
        assert_eq!(
            format!("{planes:?}"),
            format!("{legacy:?}"),
            "{engine}: plane and legacy runs diverged on Erlang draws"
        );
    }
}
