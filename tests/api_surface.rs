//! Exercises the public API surface end to end, the way a downstream
//! user would: every protocol constructor, every builder knob, every
//! error path, and the Display/Debug impls. Guards against accidental
//! breaking changes and against public types losing their common traits
//! (C-COMMON-TRAITS).

use busarb::analysis::BusModel;
use busarb::bus::signal::{
    Aap1System, Aap2System, CounterPolicy, Fcfs1System, Fcfs2System, Rr1System, Rr2System,
    Rr3System, SignalProtocol,
};
use busarb::bus::{
    ArbitrationController, ArbitrationNumber, BusPhase, LineDiscipline, NumberLayout,
    ParallelContention,
};
use busarb::prelude::*;
use busarb::sim::OverheadModel;
use busarb::stats::{independence, student_t, BatchTally};
use busarb::types::Error;
use busarb::workload::{load, BurstyTrace};

fn assert_common_traits<T: Clone + core::fmt::Debug + Send + Sync>() {}

#[test]
fn public_types_keep_their_common_traits() {
    assert_common_traits::<Time>();
    assert_common_traits::<AgentId>();
    assert_common_traits::<AgentSet>();
    assert_common_traits::<Priority>();
    assert_common_traits::<Error>();
    assert_common_traits::<NumberLayout>();
    assert_common_traits::<ArbitrationNumber>();
    assert_common_traits::<ParallelContention>();
    assert_common_traits::<LineDiscipline>();
    assert_common_traits::<Grant>();
    assert_common_traits::<ProtocolKind>();
    assert_common_traits::<BatchMeansConfig>();
    assert_common_traits::<Estimate>();
    assert_common_traits::<Summary>();
    assert_common_traits::<Cdf>();
    assert_common_traits::<BatchTally>();
    assert_common_traits::<InterrequestTime>();
    assert_common_traits::<Scenario>();
    assert_common_traits::<SystemConfig>();
    assert_common_traits::<RunReport>();
    assert_common_traits::<BusModel>();
    assert_common_traits::<BurstyTrace>();
    assert_common_traits::<BusPhase>();
    assert_common_traits::<ArbitrationController>();
}

#[test]
fn every_protocol_constructor_is_reachable() -> Result<(), Error> {
    let n = 12u32;
    let arbiters: Vec<Box<dyn Arbiter>> = vec![
        Box::new(FixedPriority::new(n)?),
        Box::new(AssuredAccess::new(n, BatchingRule::IdleBatch)?),
        Box::new(AssuredAccess::new(n, BatchingRule::FairnessRelease)?),
        Box::new(AssuredAccess::new(n, BatchingRule::ClosedBatch)?),
        Box::new(DistributedRoundRobin::new(n)?),
        Box::new(DistributedRoundRobin::with_implementation(
            n,
            RrImplementation::LowRequestLine,
        )?),
        Box::new(DistributedRoundRobin::with_implementation(
            n,
            RrImplementation::NoExtraLine,
        )?),
        Box::new(DistributedRoundRobin::new(n)?.with_rr_within_priority_class()),
        Box::new(DistributedFcfs::new(
            n,
            CounterStrategy::PerLostArbitration,
        )?),
        Box::new(DistributedFcfs::new(n, CounterStrategy::PerArrival)?),
        Box::new(DistributedFcfs::with_config(
            n,
            FcfsConfig {
                counter_bits: 6,
                max_outstanding: 4,
                tie_window: Time::from(0.1),
                ..FcfsConfig::for_agents(n, CounterStrategy::PerArrival)
            },
        )?),
        Box::new(CentralRoundRobin::new(n)?),
        Box::new(CentralFcfs::new(n)?),
        Box::new(HybridRrFcfs::with_tie_window(n, Time::from(0.05))?),
        Box::new(AdaptiveArbiter::new(n)?),
        Box::new(RotatingPriority::new(n)?),
        Box::new(TicketFcfs::new(n)?),
    ];
    for mut arbiter in arbiters {
        assert_eq!(arbiter.agents(), n);
        assert!(!arbiter.name().is_empty());
        // One request in, one grant out.
        arbiter.on_request(Time::ZERO, AgentId::new(3)?, Priority::Ordinary);
        assert_eq!(arbiter.pending(), 1);
        let grant = arbiter.arbitrate(Time::ZERO).expect("request pending");
        assert_eq!(grant.agent, AgentId::new(3)?);
        assert!(!grant.to_string().is_empty());
        assert!(arbiter.arbitrate(Time::ZERO).is_none());
    }
    Ok(())
}

#[test]
fn every_signal_system_is_reachable() -> Result<(), Error> {
    let systems: Vec<Box<dyn SignalProtocol>> = vec![
        Box::new(Rr1System::new(8)?),
        Box::new(Rr2System::new(8)?),
        Box::new(Rr3System::new(8)?),
        Box::new(Fcfs1System::new(8)?),
        Box::new(Fcfs1System::with_counter(8, 2, CounterPolicy::Saturate)?),
        Box::new(Fcfs2System::new(8)?),
        Box::new(Aap1System::new(8)?),
        Box::new(Aap2System::new(8)?),
    ];
    for mut sys in systems {
        assert!(sys.layout().width() >= 3);
        sys.on_requests(&[AgentId::new(5)?]);
        assert_eq!(sys.pending(), 1);
        let out = sys.arbitrate().expect("request pending");
        assert_eq!(out.winner, AgentId::new(5)?);
        assert!(out.rounds >= 1);
        assert!(sys.arbitrate().is_none());
    }
    Ok(())
}

#[test]
fn every_config_knob_composes() -> Result<(), Error> {
    let scenario = Scenario::equal_load(6, 1.5, 0.5)?;
    let config = SystemConfig::new(scenario)
        .with_seed(9)
        .with_batches(BatchMeansConfig::quick(50))
        .with_warmup(20)
        .with_cdf()
        .with_trace(1000)
        .with_urgent_fraction(0.1)
        .with_arbitration_overhead(Time::from(0.25))
        .with_overhead_model(OverheadModel::WidthScaled {
            base: Time::from(0.05),
            per_line: Time::from(0.05),
        })
        .with_start_rule(ArbitrationStartRule::TransactionAligned)
        .without_initial_stagger();
    let report = Simulation::new(config)?.run(ProtocolKind::Hybrid.build(6)?);
    assert!(report.mean_wait.mean > 1.0);
    assert!(report.cdf.is_some());
    assert!(!report.trace.is_empty());
    assert!(!report.to_string().is_empty());
    Ok(())
}

#[test]
fn error_paths_are_well_formed() {
    // Every validation error is a displayable, non-panicking value.
    let errors: Vec<Error> = vec![
        AgentId::new(0).unwrap_err(),
        Time::new(f64::NAN).unwrap_err(),
        Scenario::equal_load(0, 1.0, 1.0).unwrap_err(),
        Scenario::equal_load(4, 9.0, 1.0).unwrap_err(),
        InterrequestTime::from_mean_cv(1.0, 2.0).unwrap_err(),
        InterrequestTime::from_mean_cv(1.0, 1e-9).unwrap_err(),
        InterrequestTime::from_trace(Vec::new()).unwrap_err(),
        load::mean_interrequest(0.0).unwrap_err(),
        DistributedFcfs::with_config(
            4,
            FcfsConfig {
                counter_bits: 0,
                ..FcfsConfig::for_agents(4, CounterStrategy::PerArrival)
            },
        )
        .unwrap_err(),
        TicketFcfs::with_ticket_bits(4, 0).unwrap_err(),
        BusModel::paper(0, 1.0).unwrap_err(),
        ArbitrationController::new().handover().unwrap_err(),
    ];
    for e in errors {
        let msg = e.to_string();
        assert!(!msg.is_empty());
        let _: &dyn std::error::Error = &e;
    }
}

#[test]
fn stats_helpers_are_reachable() {
    assert!((student_t::two_sided(0.90, 9) - 1.833).abs() < 5e-3);
    let series: Vec<f64> = (0..50).map(|i| f64::from(i % 5)).collect();
    assert!(independence::von_neumann_ratio(&series).is_some());
    assert!(independence::lag1_autocorrelation(&series).is_some());
    let model = BusModel::paper(10, 2.0).unwrap();
    assert!(model.mva().utilization > 0.9);
}
