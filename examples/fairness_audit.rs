//! Fairness audit: how evenly does each arbitration protocol divide bus
//! bandwidth among 30 identical processors at saturation?
//!
//! Reproduces the motivation of the paper's Section 2.3: the assured
//! access protocols adopted by the major bus standards allocate bandwidth
//! as a *continuum* across static identities, while the proposed RR and
//! FCFS protocols are (nearly) perfectly fair. Relative per-processor bus
//! bandwidth translates directly into relative application speed.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example fairness_audit
//! ```

use busarb::prelude::*;

const AGENTS: u32 = 30;

fn bar(value: f64, max: f64) -> String {
    let width = (48.0 * value / max).round() as usize;
    "#".repeat(width)
}

fn main() -> Result<(), busarb::types::Error> {
    // Saturated bus: total offered load 2.5.
    let scenario = Scenario::equal_load(AGENTS, 2.5, 1.0)?;
    let config = SystemConfig::new(scenario)
        .with_batches(BatchMeansConfig::quick(3000))
        .with_seed(2024);

    for kind in [
        ProtocolKind::FixedPriority,
        ProtocolKind::AssuredAccessIdleBatch,
        ProtocolKind::AssuredAccessFairnessRelease,
        ProtocolKind::RoundRobin,
        ProtocolKind::Fcfs1,
        ProtocolKind::Fcfs2,
    ] {
        let report = Simulation::new(config.clone())?.run_kind(kind)?;
        let throughputs: Vec<f64> = (1..=AGENTS).map(|a| report.agent_throughput(a)).collect();
        let max = throughputs.iter().copied().fold(f64::MIN, f64::max);
        let min = throughputs.iter().copied().fold(f64::MAX, f64::min);
        println!("\n=== {} ===", report.protocol);
        println!(
            "bandwidth spread: max/min = {:.2}  (ideal = 1.00)",
            if min > 0.0 { max / min } else { f64::INFINITY }
        );
        // Show a sample of identities across the range.
        for agent in [1u32, 5, 10, 15, 20, 25, 30] {
            let t = throughputs[(agent - 1) as usize];
            println!("  agent {agent:>2}  {:>7.4}/unit  {}", t, bar(t, max));
        }
    }
    println!();
    println!("Fixed priority starves low identities outright; the assured access");
    println!("protocols serve everyone but tilt toward high identities; RR and the");
    println!("FCFS protocols flatten the profile.");
    Ok(())
}
