//! Model vs. simulation: sweep the offered load and compare the
//! simulator's measured mean waiting time against `busarb-analysis`'s
//! prediction (exact at both extremes, mean value analysis in between).
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example model_vs_simulation
//! ```

use busarb::prelude::*;

fn main() -> Result<(), busarb::types::Error> {
    let n = 10u32;
    println!(
        "{:>6} {:>10} {:>10} {:>8}   regime",
        "load", "sim W", "model W", "error"
    );
    for &load in &[0.1, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 2.5, 5.0, 7.52] {
        let scenario = Scenario::equal_load(n, load, 1.0)?;
        let config = SystemConfig::new(scenario)
            .with_batches(BatchMeansConfig::quick(2000))
            .with_warmup(1000)
            .with_seed(99);
        let report = Simulation::new(config)?.run_kind(ProtocolKind::RoundRobin)?;
        let model = BusModel::paper(n, load)?;
        let predicted = model.predicted_wait();
        let error = (report.mean_wait.mean - predicted) / report.mean_wait.mean;
        let regime = if load <= 0.25 {
            "~exact (uncontended)"
        } else if load >= 2.0 {
            "exact (saturated closed form)"
        } else {
            "MVA approximation"
        };
        println!(
            "{:>6.2} {:>10.3} {:>10.3} {:>7.1}%   {}",
            load,
            report.mean_wait.mean,
            predicted,
            error * 100.0,
            regime
        );
    }
    println!();
    println!("The model is protocol-agnostic (conservation law): swap in any");
    println!("ProtocolKind above and the sim column barely moves.");
    Ok(())
}
