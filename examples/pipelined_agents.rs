//! Pipelined agents: the FCFS protocol's multiple-outstanding-requests
//! extension (paper §3.2 — *r* outstanding requests need only
//! `ceil(log2 r)` more counter bits).
//!
//! Processors that can prefetch keep issuing requests while earlier ones
//! are still queued. This example sweeps the outstanding-request limit and
//! shows the bus utilization and waiting time trade-off at a fixed think
//! time.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example pipelined_agents
//! ```

use busarb::prelude::*;

fn main() -> Result<(), busarb::types::Error> {
    let n = 8u32;
    // Moderate per-agent demand: at r = 1 the bus is ~88% utilized.
    let scenario = Scenario::equal_load(n, 1.1, 1.0)?;

    println!(
        "{:>3} {:>8} {:>12} {:>10} {:>14}\n",
        "r", "util", "W", "sd(W)", "extra lines"
    );
    for r in [1u32, 2, 4, 8] {
        // The counter must cover N waiters times r requests each:
        // ceil(log2 r) more lines.
        let extra_bits = r.next_power_of_two().trailing_zeros();
        let config = FcfsConfig {
            max_outstanding: r,
            counter_bits: AgentId::lines_required(n) + extra_bits,
            ..FcfsConfig::for_agents(n, CounterStrategy::PerArrival)
        };
        let arbiter = DistributedFcfs::with_config(n, config)?;
        let sim_config = SystemConfig::new(scenario.clone())
            .with_batches(BatchMeansConfig::quick(2000))
            .with_seed(31337)
            .with_max_outstanding(r);
        let report = Simulation::new(sim_config)?.run(arbiter);
        println!(
            "{:>3} {:>8.3} {:>12} {:>10.2} {:>14}",
            r,
            report.utilization,
            report.mean_wait.to_string(),
            report.wait_summary.std_dev(),
            extra_bits,
        );
    }
    println!();
    println!("More outstanding requests soak up idle bus cycles (higher utilization)");
    println!("at the cost of longer per-request queueing — and each doubling of r");
    println!("costs one extra counter line on the bus.");
    Ok(())
}
