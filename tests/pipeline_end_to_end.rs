//! End-to-end pipeline integration: workload generation → timing simulation
//! → masking traces → serialization → estimation, exercising the public API
//! the way a downstream user would.

use std::sync::Arc;

use serr_core::prelude::*;
use serr_sim::{SimConfig, Simulator};
use serr_trace::{decode_interval_trace, encode_interval_trace};
use serr_workload::{BenchmarkProfile, TraceGenerator};

#[test]
fn simulate_serialize_estimate_roundtrip() {
    // 1. Generate a workload and simulate it.
    let profile = BenchmarkProfile::by_name("bzip2").unwrap();
    let sim = Simulator::new(SimConfig::power4());
    let out = sim.run(TraceGenerator::new(profile, 11), 40_000).unwrap();

    // 2. Serialize the integer-unit masking trace and read it back —
    //    the cache-on-disk path of a long campaign.
    let bytes = encode_interval_trace(&out.traces.int_unit);
    let decoded = decode_interval_trace(&bytes).unwrap();
    assert_eq!(decoded, out.traces.int_unit);

    // 3. Estimate MTTF from the decoded trace; it must match the original.
    let rate = RawErrorRate::per_year(1e5);
    let freq = Frequency::base();
    let a = serr_core::prelude::analytic::renewal::renewal_mttf(&out.traces.int_unit, rate, freq)
        .unwrap();
    let b = serr_core::prelude::analytic::renewal::renewal_mttf(&decoded, rate, freq).unwrap();
    assert!((a.as_secs() - b.as_secs()).abs() < 1e-9);
}

#[test]
fn every_benchmark_profile_survives_the_full_pipeline() {
    // Small budget, but all 21 profiles must simulate, produce valid
    // traces, and yield finite estimates.
    let sim = Simulator::new(SimConfig::power4());
    let rates = UnitRates::paper();
    for profile in BenchmarkProfile::all() {
        let name = profile.name;
        let out = sim
            .run(TraceGenerator::new(profile, 3), 8_000)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(out.stats.instructions, 8_000, "{name}");
        assert!(out.stats.ipc() > 0.02, "{name}: ipc {}", out.stats.ipc());

        let t = &out.traces;
        for (unit, trace) in [
            ("int", &t.int_unit),
            ("fp", &t.fp_unit),
            ("decode", &t.decode),
            ("regfile", &t.regfile),
        ] {
            let avf = trace.avf();
            assert!((0.0..=1.0).contains(&avf), "{name}/{unit}: avf {avf}");
            assert_eq!(trace.period_cycles(), out.stats.cycles, "{name}/{unit}");
        }
        // The decode unit is always exercised.
        assert!(t.decode.avf() > 0.0, "{name}: decode never busy?");

        // AVF-step estimate exists for every failing component.
        if !t.regfile.is_never_vulnerable() {
            let mttf = serr_core::avf::avf_step_mttf(&t.regfile, rates.regfile).unwrap();
            assert!(mttf.as_years().is_finite());
        }
    }
}

#[test]
fn int_benchmarks_idle_fp_fp_benchmarks_use_it() {
    let sim = Simulator::new(SimConfig::power4());
    for profile in BenchmarkProfile::all() {
        let suite = profile.suite;
        let name = profile.name;
        let out = sim.run(TraceGenerator::new(profile, 5), 10_000).unwrap();
        match suite {
            Suite::Int => assert_eq!(
                out.traces.fp_unit.avf(),
                0.0,
                "{name} is an integer benchmark but used FP units"
            ),
            Suite::Fp => assert!(
                out.traces.fp_unit.avf() > 0.02,
                "{name} is an FP benchmark but FP AVF = {}",
                out.traces.fp_unit.avf()
            ),
        }
    }
}

#[test]
fn validator_runs_on_fresh_simulation_output() {
    let sim = Simulator::new(SimConfig::power4());
    let profile = BenchmarkProfile::by_name("equake").unwrap();
    let out = sim.run(TraceGenerator::new(profile, 9), 30_000).unwrap();
    let v = Validator::new(
        Frequency::base(),
        MonteCarloConfig { trials: 20_000, ..Default::default() },
    );
    let rates = UnitRates::paper();
    // Crank the rate so the comparison is non-trivial but still valid-regime.
    let cv = v.component(&out.traces.regfile, rates.regfile.scale(1e6)).unwrap();
    assert!(cv.avf > 0.0);
    assert!(cv.avf_error_vs_renewal < 0.01, "{}", cv.avf_error_vs_renewal);

    // The processor: its four units weighted by raw error rate, at the
    // summed rate, against SOFR over the live units' renewal MTTFs.
    let parts: Vec<(RawErrorRate, Arc<dyn VulnerabilityTrace>)> = vec![
        (rates.int_unit.scale(1e6), Arc::new(out.traces.int_unit.clone())),
        (rates.fp_unit.scale(1e6), Arc::new(out.traces.fp_unit.clone())),
        (rates.decode.scale(1e6), Arc::new(out.traces.decode.clone())),
        (rates.regfile.scale(1e6), Arc::new(out.traces.regfile.clone())),
    ];
    let freq = Frequency::base();
    let unit_failure_rates = parts
        .iter()
        .filter(|(_, t)| !t.is_never_vulnerable())
        .map(|(r, t)| analytic::renewal::renewal_mttf(&**t, *r, freq).unwrap().to_failure_rate());
    let mttf_sofr = serr_core::sofr::sofr_failure_rate(unit_failure_rates).unwrap().to_mttf();
    let processor =
        CompositeTrace::new(parts.iter().map(|(r, t)| (r.per_second_value(), t.clone())).collect())
            .unwrap();
    let total = parts.iter().fold(RawErrorRate::ZERO, |sum, (r, _)| sum + *r);
    let cpu = v.component(&processor, total).unwrap();
    let sofr_error_vs_renewal =
        (mttf_sofr.as_secs() - cpu.mttf_renewal.as_secs()).abs() / cpu.mttf_renewal.as_secs();
    assert!(sofr_error_vs_renewal < 0.02, "{sofr_error_vs_renewal}");
    assert!(mttf_sofr.as_secs() <= cpu.mttf_renewal.as_secs() * 1.05);
}

#[test]
fn design_space_points_drive_the_validator() {
    // A smoke sweep over a corner of Table 2 through the public API.
    let space = DesignSpace {
        workloads: vec![Workload::Day],
        c_values: vec![2, 8],
        n_times_s: vec![1e6, 1e8],
    };
    let freq = Frequency::base();
    let day: Arc<dyn VulnerabilityTrace> = Arc::new(serr_workload::synthesized::day(freq));
    let v = Validator::new(freq, MonteCarloConfig { trials: 15_000, ..Default::default() });
    let mut count = 0;
    for point in space.points() {
        point.validate().unwrap();
        let sv = v.system_identical(day.clone(), point.component_rate(), point.c).unwrap();
        assert!(sv.mttf_mc.mttf.as_secs() > 0.0);
        count += 1;
    }
    assert_eq!(count, 4);
}
