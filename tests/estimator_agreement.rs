//! Cross-crate integration: the three assumption-free estimators (Monte
//! Carlo, renewal analysis, SoftArch) must agree with each other on every
//! kind of trace the workspace can build — including traces produced by the
//! full timing-simulator pipeline.

use std::sync::Arc;

use serr_analytic::renewal::renewal_mttf;
use serr_core::pipeline::{processor_trace, simulate_benchmark};
use serr_core::prelude::*;
use serr_mc::{MonteCarlo, MonteCarloConfig};
use serr_trace::CompiledTrace;
use serr_workload::synthesized;

fn mc() -> MonteCarlo {
    MonteCarlo::new(MonteCarloConfig { trials: 60_000, ..Default::default() })
}

fn assert_triple_agreement(trace: &dyn VulnerabilityTrace, rate: RawErrorRate, label: &str) {
    let freq = Frequency::base();
    let renewal = renewal_mttf(trace, rate, freq).expect("renewal").as_secs();
    let softarch = SoftArch::new(freq).component_mttf(trace, rate).expect("softarch").as_secs();
    let sampled = mc().component_mttf(trace, rate, freq).expect("mc");

    let sa_err = (softarch - renewal).abs() / renewal;
    assert!(sa_err < 1e-5, "{label}: SoftArch vs renewal {sa_err}");

    let mc_err = (sampled.mttf.as_secs() - renewal).abs() / renewal;
    let noise = 3.0 * sampled.relative_ci95().max(1e-3);
    assert!(mc_err < noise, "{label}: MC vs renewal {mc_err} (noise budget {noise})");
}

#[test]
fn agreement_on_simulated_benchmark_unit_traces() {
    let run = simulate_benchmark("gzip", 60_000, 1).expect("sim");
    let t = &run.output.traces;
    let rates = UnitRates::paper();
    // Push the rates up so λL is non-negligible and the agreement is
    // non-trivial.
    let boost = 1e12;
    assert_triple_agreement(&t.int_unit, rates.int_unit.scale(boost), "gzip int");
    assert_triple_agreement(&t.decode, rates.decode.scale(boost), "gzip decode");
    assert_triple_agreement(&t.regfile, rates.regfile.scale(boost), "gzip regfile");
}

#[test]
fn agreement_on_processor_composite() {
    let run = simulate_benchmark("swim", 60_000, 1).expect("sim");
    let composite = processor_trace(&run, &UnitRates::paper()).expect("composite");
    assert_triple_agreement(&composite, RawErrorRate::per_year(5e6), "swim composite");
}

#[test]
fn agreement_on_synthesized_day_and_week() {
    let freq = Frequency::base();
    let day = synthesized::day(freq);
    let week = synthesized::week(freq);
    for &scale in &[1e6, 1e9, 1e12] {
        let rate = RawErrorRate::baseline_per_bit().scale(scale);
        assert_triple_agreement(&day, rate, "day");
        assert_triple_agreement(&week, rate, "week");
    }
}

#[test]
fn agreement_on_shifted_traces() {
    let freq = Frequency::base();
    let base: Arc<dyn VulnerabilityTrace> = Arc::new(synthesized::day(freq));
    let period = base.period_cycles();
    let rate = RawErrorRate::baseline_per_bit().scale(1e11);
    for &frac in &[0.25, 0.5, 0.9] {
        let shifted = ShiftedTrace::new(base.clone(), (period as f64 * frac) as u64);
        assert_triple_agreement(&shifted, rate, "shifted day");
    }
}

#[test]
fn agreement_on_concat_trace_via_survival_weight() {
    // MC walks the ConcatTrace point-by-point; renewal uses the
    // geometric closed form — they must coincide.
    let a: Arc<dyn VulnerabilityTrace> = Arc::new(IntervalTrace::busy_idle(800, 200).unwrap());
    let b: Arc<dyn VulnerabilityTrace> = Arc::new(IntervalTrace::busy_idle(100, 900).unwrap());
    let concat = ConcatTrace::new(vec![(a, 2_000), (b, 2_000)]).unwrap();
    let freq = Frequency::base();
    // λ·L ≈ 2 over the 4M-cycle period.
    let rate = RawErrorRate::per_second(2.0 * freq.hz() / 4_000_000.0);
    assert_triple_agreement_concat(&concat, rate);
}

fn assert_triple_agreement_concat(trace: &ConcatTrace, rate: RawErrorRate) {
    let freq = Frequency::base();
    let renewal = renewal_mttf(trace, rate, freq).expect("renewal").as_secs();
    let sampled = mc().component_mttf(trace, rate, freq).expect("mc");
    let mc_err = (sampled.mttf.as_secs() - renewal).abs() / renewal;
    assert!(mc_err < 0.02, "concat: MC vs renewal {mc_err}");
}

#[test]
fn agreement_on_over_cap_concat_via_the_tile_level() {
    // Six million tiles per part: far past the flat segment cap, so the MC
    // samples the tiled compile with the batched sampler while renewal and
    // SoftArch fold the same tiling in closed form.
    let a: Arc<dyn VulnerabilityTrace> = Arc::new(IntervalTrace::busy_idle(8, 2).unwrap());
    let b: Arc<dyn VulnerabilityTrace> =
        Arc::new(IntervalTrace::from_levels(&[0.0, 0.25, 1.0, 0.0]).unwrap());
    let concat = ConcatTrace::new(vec![(a, 3_000_000), (b, 6_000_000)]).unwrap();
    assert!(concat.span_count_hint() > CompiledTrace::MAX_SEGMENTS);
    let freq = Frequency::base();
    let period = concat.period_cycles() as f64;
    for lambda_l in [1e-6, 0.5, 3.0] {
        let rate = RawErrorRate::per_second(lambda_l * freq.hz() / period);
        let renewal = renewal_mttf(&concat, rate, freq).expect("renewal").as_secs();
        let softarch = SoftArch::new(freq).component_mttf(&concat, rate).expect("softarch");
        let sampled = mc().component_mttf(&concat, rate, freq).expect("mc");
        let mc_err = (sampled.mttf.as_secs() - renewal).abs() / renewal;
        let noise = 3.0 * sampled.relative_ci95().max(1e-3);
        assert!(mc_err < noise, "λL={lambda_l}: MC vs renewal {mc_err} (budget {noise})");
        let sa_err = (softarch.as_secs() - renewal).abs() / renewal;
        assert!(sa_err < 0.02, "λL={lambda_l}: SoftArch vs renewal {sa_err}");
    }
}

#[test]
fn system_superposition_equals_explicit_parts() {
    // A system modeled part-by-part — a composite of 16 replicas at their
    // summed rate — must match the rate-scaled shortcut the validator uses
    // for identical components.
    let freq = Frequency::base();
    let trace: Arc<dyn VulnerabilityTrace> =
        Arc::new(IntervalTrace::busy_idle(600_000, 400_000).unwrap());
    let rate = RawErrorRate::per_year(3e3);
    let c = 16usize;

    let system = CompositeTrace::new(vec![(rate.per_second_value(), trace.clone()); c]).unwrap();
    let total = (0..c).fold(RawErrorRate::ZERO, |sum, _| sum + rate);
    let via_system = mc().component_mttf(&system, total, freq).expect("system mc");

    let via_scaled = mc().component_mttf(&trace, rate.scale(c as f64), freq).expect("scaled mc");

    let diff =
        (via_system.mttf.as_secs() - via_scaled.mttf.as_secs()).abs() / via_scaled.mttf.as_secs();
    assert!(diff < 0.02, "superposition mismatch {diff}");
}
