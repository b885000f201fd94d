//! A uniprocessor reliability study: simulate SPEC-like benchmarks on the
//! paper's POWER4-like core, extract masking traces, and project processor
//! MTTF with AVF+SOFR versus first principles (the Section 5.1 scenario).
//!
//! Run with: `cargo run --release --example spec_uniprocessor [benchmark...]`

use std::sync::Arc;

use serr_core::experiments::ExperimentConfig;
use serr_core::pipeline::simulate_benchmark;
use serr_core::prelude::*;
use serr_core::sofr::sofr_failure_rate;
use serr_types::relative_error;

fn main() -> Result<(), SerrError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let benchmarks: Vec<String> =
        if args.is_empty() { vec!["gzip".into(), "mcf".into(), "swim".into()] } else { args };

    let cfg = ExperimentConfig { sim_instructions: 200_000, ..ExperimentConfig::quick() };
    let rates = UnitRates::paper();
    let validator = Validator::new(cfg.frequency, cfg.mc);

    for name in &benchmarks {
        let run = simulate_benchmark(name, cfg.sim_instructions, cfg.seed)?;
        let stats = &run.output.stats;
        println!(
            "\n=== {name}: {} instructions, {} cycles, IPC {:.2}, L1D miss {:.1}% ===",
            stats.instructions,
            stats.cycles,
            stats.ipc(),
            stats.l1d_miss_rate * 100.0
        );

        let t = &run.output.traces;
        let units: [(&str, RawErrorRate, Arc<dyn VulnerabilityTrace>); 4] = [
            ("int", rates.int_unit, Arc::new(t.int_unit.clone())),
            ("fp", rates.fp_unit, Arc::new(t.fp_unit.clone())),
            ("decode", rates.decode, Arc::new(t.decode.clone())),
            ("regfile", rates.regfile, Arc::new(t.regfile.clone())),
        ];
        // Each unit that can fail feeds SOFR its exact (renewal) MTTF.
        let mut unit_failure_rates = Vec::new();
        for (unit, rate, trace) in &units {
            if trace.is_never_vulnerable() {
                println!("  {unit:>7}: idle for the whole run (AVF 0, cannot fail)");
                continue;
            }
            let v = validator.component(trace, *rate)?;
            println!(
                "  {unit:>7}: AVF {:.3}  MTTF(AVF) {:.1} yr  MTTF(MC) {:.1} yr  err {:.2}%",
                v.avf,
                v.mttf_avf.as_years(),
                v.mttf_mc.mttf.as_years(),
                v.avf_error_vs_mc * 100.0
            );
            unit_failure_rates.push(v.mttf_renewal.to_failure_rate());
        }

        // Processor-level: SOFR across the four components vs ground truth.
        // A raw error strikes unit i with probability rate_i / sum(rate), so
        // the processor is one component: its units' traces weighted by
        // their raw error rates, at the summed rate.
        let processor = CompositeTrace::new(
            units.iter().map(|(_, rate, trace)| (rate.per_second_value(), trace.clone())).collect(),
        )?;
        let total = units.iter().fold(RawErrorRate::ZERO, |sum, (_, rate, _)| sum + *rate);
        let cpu = validator.component(&processor, total)?;
        let mttf_sofr = sofr_failure_rate(unit_failure_rates)?.to_mttf();
        println!(
            "  processor: SOFR {:.1} yr vs MC {:.1} yr -> SOFR error {:.2}% (SoftArch {:.2}%)",
            mttf_sofr.as_years(),
            cpu.mttf_mc.mttf.as_years(),
            relative_error(mttf_sofr.as_secs(), cpu.mttf_mc.mttf.as_secs()) * 100.0,
            cpu.softarch_error_vs_mc * 100.0
        );
    }
    println!("\npaper finding (Section 5.1): for uniprocessors running SPEC,");
    println!("every discrepancy stays below the Monte-Carlo noise floor.");
    Ok(())
}
