//! Ablation: how the trial start-phase convention changes the SOFR
//! discrepancy. The paper starts every Monte-Carlo trial at the beginning
//! of the workload loop; for a long-running cluster the physically neutral
//! choice is a uniformly random ("stationary") phase, and desynchronizing
//! the processors' phases is a third option. All three are shown at the
//! paper's day-workload checkpoint (N*S = 1e8).

use std::sync::Arc;

use serr_analytic::renewal::renewal_mttf;
use serr_bench::config_from_args;
use serr_core::figures::{pct, render_table};
use serr_core::sofr::sofr_mttf_identical;
use serr_mc::system::SystemModel;
use serr_mc::MonteCarlo;
use serr_trace::{ShiftedTrace, VulnerabilityTrace};
use serr_types::{relative_error, RawErrorRate};
use serr_workload::synthesized;

fn main() {
    let cfg = config_from_args();
    let freq = cfg.frequency;
    let day = Arc::new(synthesized::day(freq));
    let period = day.period_cycles();
    let rate = RawErrorRate::baseline_per_bit().scale(1e8);
    let component = renewal_mttf(&day, rate, freq).expect("component MTTF");
    let mc = MonteCarlo::new(cfg.mc);

    let mut rows = Vec::new();
    for &c in &[5_000u64, 50_000] {
        let sofr = sofr_mttf_identical(component, c).expect("sofr");
        let system_rate = rate.scale(c as f64);

        // Convention 1: all processors aligned, trials start at busy onset.
        let aligned = renewal_mttf(&day, system_rate, freq).expect("aligned");

        // Convention 2: aligned processors, stationary (random) start phase:
        // average the renewal MTTF over shifted views of the trace.
        let shifts = 256u64;
        let stationary = (0..shifts)
            .map(|i| {
                let t = ShiftedTrace::new(day.clone(), i * (period / shifts));
                renewal_mttf(&t, system_rate, freq).expect("shifted").as_secs()
            })
            .sum::<f64>()
            / shifts as f64;

        // Convention 3: processors desynchronized (random per-replica
        // phases), trials from phase 0; 64 replicas groups stand in for C.
        let groups = 64u64;
        let mut builder = SystemModel::builder(freq);
        let mut prng = 0x9E37_79B9u64;
        let offsets: Vec<u64> = (0..groups)
            .map(|_| {
                prng = prng.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                prng % period
            })
            .collect();
        builder
            .add_with_offsets("cpu", rate.scale(c as f64 / groups as f64), day.clone(), &offsets)
            .expect("offsets");
        let desync_model = builder.build().expect("model");
        let desync = mc.system_mttf(&desync_model).expect("mc").mttf;

        rows.push(vec![
            c.to_string(),
            format!("{:.3}h", sofr.as_secs() / 3600.0),
            format!(
                "{:.3}h / {}",
                aligned.as_secs() / 3600.0,
                pct(relative_error(sofr.as_secs(), aligned.as_secs()))
            ),
            format!(
                "{:.3}h / {}",
                stationary / 3600.0,
                pct(relative_error(sofr.as_secs(), stationary))
            ),
            format!(
                "{:.3}h / {}",
                desync.as_secs() / 3600.0,
                pct(relative_error(sofr.as_secs(), desync.as_secs()))
            ),
        ]);
    }
    println!(
        "Ablation: start-phase convention, day workload, N*S = 1e8\n\
         (cells: true MTTF / SOFR error under that convention)\n"
    );
    print!(
        "{}",
        render_table(
            &["C", "SOFR", "aligned busy-start", "aligned stationary", "desynchronized"],
            &rows
        )
    );
    println!("\ndesynchronizing phases washes the SOFR discrepancy out; alignment");
    println!("maximizes it — the paper's numbers sit between the conventions.");
}
