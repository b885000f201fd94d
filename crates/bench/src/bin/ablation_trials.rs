//! Ablation: Monte Carlo convergence — estimate error and confidence
//! interval vs trial count, against the exact renewal answer.

use serr_analytic::renewal::renewal_mttf;
use serr_core::figures::{pct, render_table};
use serr_mc::{MonteCarlo, MonteCarloConfig};
use serr_trace::IntervalTrace;
use serr_types::{relative_error, Frequency, RawErrorRate};

fn main() {
    let freq = Frequency::base();
    // A trace squarely in the AVF-breaking regime so the MC engine is
    // exercised where precision matters.
    let trace = IntervalTrace::busy_idle(1_000_000, 1_000_000).expect("ablation trace is valid");
    let l_seconds = 2_000_000.0 / freq.hz();
    let rate = RawErrorRate::per_second(2.0 / l_seconds); // lambda*L = 2
    let exact = renewal_mttf(&trace, rate, freq).expect("exact").as_secs();

    let mut rows = Vec::new();
    for &trials in &[1_000u64, 10_000, 100_000, 1_000_000] {
        let mc = MonteCarlo::new(MonteCarloConfig { trials, ..Default::default() });
        let est = mc.component_mttf(&trace, rate, freq).expect("mc");
        rows.push(vec![
            trials.to_string(),
            format!("{:.6e}", est.mttf.as_secs()),
            pct(relative_error(est.mttf.as_secs(), exact)),
            pct(est.relative_ci95()),
            format!("{:.2}", est.mean_events_per_trial),
        ]);
    }
    println!("Ablation: Monte Carlo convergence (exact MTTF = {exact:.6e} s)\n");
    print!(
        "{}",
        render_table(&["trials", "MTTF (s)", "error vs exact", "95% CI", "events/trial"], &rows)
    );
    println!("\nthe paper's 1e6 trials resolve MTTF to ~0.2%; 2e5 (this repo's");
    println!("default) to ~0.4% — both far below the discrepancies under study.");
}
