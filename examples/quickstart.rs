//! Quickstart: simulate a 10-processor shared-bus multiprocessor under
//! the distributed round-robin protocol and print the headline
//! measurements.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use busarb::prelude::*;

fn main() -> Result<(), busarb::types::Error> {
    // 10 statistically identical processors offering 2.0 total load
    // (saturated bus), exponential interrequest times.
    let scenario = Scenario::equal_load(10, 2.0, 1.0)?;
    println!("scenario: {scenario}");

    let config = SystemConfig::new(scenario)
        .with_batches(BatchMeansConfig::quick(2000))
        .with_seed(42);

    for kind in [
        ProtocolKind::RoundRobin,
        ProtocolKind::Fcfs1,
        ProtocolKind::AssuredAccessIdleBatch,
    ] {
        let report = Simulation::new(config.clone())?.run_kind(kind)?;
        let fairness = report
            .throughput_ratio(10, 1, 0.90)
            .map_or_else(|| "n/a".to_string(), |r| r.estimate.to_string());
        println!(
            "{:>8}:  W = {}   sd(W) = {:.2}   utilization = {:.3}   t[10]/t[1] = {}",
            report.protocol,
            report.mean_wait,
            report.wait_summary.std_dev(),
            report.utilization,
            fairness,
        );
    }

    println!();
    println!("Things to notice (they reproduce the paper's story):");
    println!(" * all three protocols have the SAME mean waiting time (conservation law),");
    println!(" * RR's waiting-time standard deviation is the largest,");
    println!(" * RR is perfectly fair, FCFS-1 nearly so, and the assured access");
    println!("   protocol favors the high-identity agent.");
    Ok(())
}
