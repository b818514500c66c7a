//! Single-cell engine throughput, per protocol: one Smoke-scale
//! simulation cell through [`Simulation::run_kind`].
//!
//! This is the criterion sibling of the `bench_run` binary (which writes
//! `BENCH_run.json`); use this one for statistically-driven A/B runs and
//! `bench_run` for the committed snapshot numbers.

use busarb_core::ProtocolKind;
use busarb_experiments::common::seed_for;
use busarb_experiments::Scale;
use busarb_sim::{Simulation, SystemConfig};
use busarb_workload::Scenario;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

const AGENTS: u32 = 30;
const LOAD: f64 = 2.0;

const PROTOCOLS: [ProtocolKind; 7] = [
    ProtocolKind::FixedPriority,
    ProtocolKind::AssuredAccessIdleBatch,
    ProtocolKind::RoundRobin,
    ProtocolKind::Fcfs1,
    ProtocolKind::Fcfs2,
    ProtocolKind::CentralFcfs,
    ProtocolKind::Hybrid,
];

fn cell(kind: ProtocolKind) -> Simulation {
    let scenario = Scenario::equal_load(AGENTS, LOAD, 1.0).expect("valid scenario");
    let config = SystemConfig::new(scenario)
        .with_batches(Scale::Smoke.batches())
        .with_warmup(Scale::Smoke.warmup())
        .with_seed(seed_for(&format!("bench-run/{kind}")));
    Simulation::new(config).expect("valid config")
}

fn bench_single_cell(c: &mut Criterion) {
    let mut group = c.benchmark_group("single_cell");
    for &kind in &PROTOCOLS {
        let sim = cell(kind);
        let events = sim.run_kind(kind).expect("valid size").events;
        group.throughput(Throughput::Elements(events));
        group.bench_with_input(
            BenchmarkId::from_parameter(kind.to_string()),
            &kind,
            |b, &kind| {
                b.iter(|| black_box(sim.run_kind(kind).expect("valid size")));
            },
        );
    }
    group.finish();
}

criterion_group!(single_cell, bench_single_cell);
criterion_main!(single_cell);
