//! Accelerated-testing and high-altitude analysis: how far can the raw
//! error rate be scaled (beam testing, avionics, space) before AVF-derated
//! projections diverge from reality? Reproduces the Figure 3 phenomenon on
//! a real simulated workload instead of the synthetic busy/idle loop.
//!
//! Run with: `cargo run --release --example accelerated_testing`

use serr_core::experiments::{combined_trace, ExperimentConfig};
use serr_core::prelude::*;

fn main() -> Result<(), SerrError> {
    let cfg = ExperimentConfig { sim_instructions: 150_000, ..ExperimentConfig::quick() };
    let freq = cfg.frequency;

    // The `combined` workload: gzip for 12 hours, then swim for 12 hours —
    // a realistic "different jobs day and night" server.
    let trace = combined_trace(&cfg, None)?;
    println!("workload: combined (gzip 12h + swim 12h), overall AVF = {:.3}\n", trace.avf());

    // A 100 MB cache-class component, exactly Figure 3's subject.
    let n_bits = 8.0 * 100.0 * 1024.0 * 1024.0;
    let base = RawErrorRate::baseline_per_bit().scale(n_bits);
    let mc = MonteCarlo::new(MonteCarloConfig { trials: 60_000, ..Default::default() });

    println!(
        "{:>12} {:>16} {:>16} {:>16} {:>10}",
        "scale S", "raw rate", "AVF-step MTTF", "true MTTF", "AVF err"
    );
    for &s in &[1.0, 5.0, 100.0, 2_000.0, 5_000.0] {
        let rate = base.scale(s);
        let avf_mttf = serr_core::avf::avf_step_mttf(&trace, rate)?;
        let truth = mc.component_mttf(&trace, rate, freq)?;
        let err = (avf_mttf.as_secs() - truth.mttf.as_secs()).abs() / truth.mttf.as_secs();
        println!(
            "{:>12} {:>16} {:>16} {:>16} {:>9.1}%",
            format!("{s}x"),
            format!("{:.1}/yr", rate.events_per_year()),
            format!("{:.4} yr", avf_mttf.as_years()),
            format!("{:.4} yr", truth.mttf.as_years()),
            err * 100.0
        );
    }

    println!("\ninterpretation: accelerated-test conditions (large S) are exactly");
    println!("where naive AVF derating misprojects field MTTF; extrapolate beam");
    println!("results with a first-principles model instead.");
    Ok(())
}
