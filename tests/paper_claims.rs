//! End-to-end checks of the paper's headline claims, at reduced (but
//! non-trivial) experiment sizes. EXPERIMENTS.md records the full-size runs.

use serr_analytic::fig::{fig3_series, fig4_series};
use serr_core::experiments::{
    fig5_sweep, fig6b_sweep, sec5_1_sweep, sec5_4_sweep, ExperimentConfig,
};
use serr_core::prelude::*;
use serr_mc::MonteCarloConfig;

fn cfg() -> ExperimentConfig {
    ExperimentConfig {
        sim_instructions: 60_000,
        seed: 42,
        mc: MonteCarloConfig { trials: 40_000, ..Default::default() },
        frequency: Frequency::base(),
    }
}

/// Figure 3's claim: errors small at the baseline raw error rate, large at
/// 5x, growing with the loop size L.
#[test]
fn figure3_shape() {
    let rows = fig3_series(16);
    let at = |scale: f64, days: f64| {
        rows.iter()
            .find(|r| r.scale == scale && r.l_days == days)
            .expect("row exists")
            .relative_error
    };
    assert!(at(1.0, 1.0) < 0.01);
    assert!(at(1.0, 16.0) < 0.08);
    assert!(at(5.0, 16.0) > 0.15);
    assert!(at(3.0, 16.0) > at(3.0, 4.0));
    assert!(at(5.0, 8.0) > at(3.0, 8.0));
}

/// Figure 4's claim: "the error grows from 15% for a system with two
/// components to about 32% for a system with 32 components."
#[test]
fn figure4_shape() {
    let rows = fig4_series(32).expect("quadrature");
    let first = rows.first().unwrap();
    let last = rows.last().unwrap();
    assert!((first.relative_error - 0.15).abs() < 0.02, "N=2: {}", first.relative_error);
    assert!((last.relative_error - 0.33).abs() < 0.04, "N=32: {}", last.relative_error);
    assert!(rows.windows(2).all(|w| w[1].relative_error > w[0].relative_error));
}

/// Section 5.1's claim: for today's uniprocessors running SPEC, AVF and
/// SOFR match Monte Carlo (paper: < 0.5%; here bounded by MC noise at the
/// reduced trial count).
#[test]
fn section5_1_uniprocessor_valid() {
    let rows = sec5_1_sweep(&["gzip", "swim", "mcf"], &cfg(), &SweepOptions::off())
        .and_then(|report| report.into_result())
        .expect("pipeline");
    for row in &rows {
        assert!(
            row.max_component_error < 0.02,
            "{}: AVF err {}",
            row.benchmark,
            row.max_component_error
        );
        assert!(row.sofr_error < 0.02, "{}: SOFR err {}", row.benchmark, row.sofr_error);
    }
}

/// Figure 5's claim: the AVF step breaks for the synthesized workloads once
/// N×S is large (paper: significant errors, up to ~90%, for N×S ≥ 1e9),
/// while staying fine below.
#[test]
fn figure5_avf_breaks_at_large_n_s() {
    let c = cfg();
    for workload in [Workload::Day, Workload::Week] {
        let rows = fig5_sweep(&[workload], &[1e7, 1e12], &c, &SweepOptions::off())
            .and_then(|report| report.into_result())
            .expect("pipeline");
        assert!(rows[0].error < 0.05, "{workload}: small N×S err {}", rows[0].error);
        assert!(rows[1].error > 0.30, "{workload}: large N×S err {}", rows[1].error);
        // SoftArch stays accurate at both points (Section 5.4).
        assert!(rows[1].softarch_error < 0.05, "{workload}: softarch {}", rows[1].softarch_error);
    }
}

/// Figure 6(b)'s claim: the SOFR step breaks for synthesized workloads once
/// both C and N×S are large, and is fine for small clusters.
#[test]
fn figure6b_sofr_breaks_at_scale() {
    let rows = fig6b_sweep(&[Workload::Day], &[2, 8, 50_000], &[1e8], &cfg(), &SweepOptions::off())
        .and_then(|report| report.into_result())
        .expect("pipeline");
    assert!(rows[0].error < 0.05, "C=2: {}", rows[0].error);
    assert!(rows[1].error < 0.05, "C=8: {}", rows[1].error);
    assert!(rows[2].error > 0.5, "C=50000: {}", rows[2].error);
    // Error grows with C.
    assert!(rows[2].error > rows[1].error);
}

/// Section 5.4's claim: SoftArch does not exhibit the AVF+SOFR
/// discrepancies anywhere in the design space.
#[test]
fn section5_4_softarch_is_accurate_everywhere() {
    let c = cfg();
    let opts = SweepOptions::off();
    let rows = sec5_4_sweep(&[Workload::Day, Workload::Week], &[2, 5_000], &[1e8, 1e12], &c, &opts)
        .and_then(|report| report.into_result())
        .expect("pipeline");
    for r in &rows {
        assert!(
            r.softarch_error_vs_renewal < 1e-4,
            "{} C={} N×S={}: exact err {}",
            r.workload,
            r.c,
            r.n_times_s,
            r.softarch_error_vs_renewal
        );
        assert!(
            r.softarch_error < 0.03,
            "{} C={} N×S={}: vs MC {}",
            r.workload,
            r.c,
            r.n_times_s,
            r.softarch_error
        );
    }
}

/// The paper's overall dichotomy in one test: same workload, same masking
/// model — AVF+SOFR right in one regime and wrong in the other, with the
/// first-principles methods right in both.
#[test]
fn the_limits_of_common_assumptions() {
    let freq = Frequency::base();
    let day = std::sync::Arc::new(serr_workload::synthesized::day(freq));
    let v = Validator::new(freq, MonteCarloConfig { trials: 40_000, ..Default::default() });

    // Terrestrial single server: everything agrees.
    let small =
        v.component(day.as_ref(), RawErrorRate::baseline_per_bit().scale(1e6)).expect("small");
    assert!(small.avf_error_vs_renewal < 1e-4);

    // Space-grade rates: AVF wrong by ~2x, SoftArch still right.
    let large =
        v.component(day.as_ref(), RawErrorRate::baseline_per_bit().scale(5e12)).expect("large");
    assert!(large.avf_error_vs_renewal > 0.5, "{}", large.avf_error_vs_renewal);
    assert!(large.softarch_error_vs_mc < 0.03, "{}", large.softarch_error_vs_mc);
}

/// Section 3.2's underlying claim, tested distributionally: after
/// architectural masking, the time to failure is exponential when λL → 0
/// (Section 3.2.1's Erlang/geometric collapse) and visibly non-exponential
/// for the day workload at large λ — the root cause of the SOFR error.
#[test]
fn masked_ttf_is_exponential_only_in_the_valid_regime() {
    use serr_numeric::ecdf::{ks_critical_value, Ecdf};

    let freq = Frequency::base();
    let day = serr_workload::synthesized::day(freq);
    let n = 5_000u64;

    // Valid regime: λ·L ~ 1e-3. KS against Exp(λ·AVF) must pass.
    let small_rate = RawErrorRate::baseline_per_bit().scale(1e8);
    let mc = MonteCarlo::new(MonteCarloConfig::default());
    let samples = mc.sample_ttfs(&day, small_rate, freq, n).unwrap();
    let eff = small_rate.per_second_value() * 0.5;
    let d_small = Ecdf::new(samples).expect("MC samples contain no NaN").ks_vs_exponential(eff);
    assert!(
        d_small < ks_critical_value(n as usize, 0.01),
        "valid regime should look exponential: KS {d_small}"
    );

    // Invalid regime: λ·L ~ 13. The masked TTF is far from exponential
    // with the AVF-derated rate.
    let big_rate = RawErrorRate::baseline_per_bit().scale(5e11);
    let samples = mc.sample_ttfs(&day, big_rate, freq, n).unwrap();
    let eff = big_rate.per_second_value() * 0.5;
    let d_big = Ecdf::new(samples).expect("MC samples contain no NaN").ks_vs_exponential(eff);
    assert!(
        d_big > 5.0 * ks_critical_value(n as usize, 0.01),
        "invalid regime should be detectably non-exponential: KS {d_big}"
    );
    assert!(d_big > 10.0 * d_small, "KS {d_big} vs {d_small}");
}
