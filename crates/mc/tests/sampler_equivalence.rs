//! Distributional equivalence of the time-to-failure samplers.
//!
//! The thinning identity (see `serr_mc::batched`) says the event-loop walk
//! and the batched Λ-inversion passes sample the *same* distribution,
//! `P(TTF > t) = exp(−λ·[V(φ+t) − V(φ)])` — not merely the same mean. This
//! suite pins that with two-sample Kolmogorov–Smirnov tests across the
//! regimes the paper's sweeps visit (λL from 1e-9 to 2000, binary and
//! fractional masking, workload-start and stationary phases), anchors both
//! against the naive cycle-stepping reference, property-tests the batched
//! sampler against the renewal closed form on random traces,
//! checks the batched sampler on a tile-level compile against the event
//! loop on the raw concatenation, and pins the batched sampler's
//! bit-identity across thread counts (its versioned counter-RNG schedule).
//!
//! Thresholds are 1.5× the α = 0.01 two-sample critical value: by the
//! Kolmogorov tail bound `P(D > c·√((n+m)/nm)) ≈ 2·exp(−2c²)` that puts a
//! fixed-seed false alarm at ~1e-5 per cell, while a landing-cycle bug in
//! the inverse lookup (mass placed in the wrong segment) distorts the CDF
//! by whole percentage points and still fails loudly.

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serr_mc::naive::sample_time_to_failure_naive;
use serr_mc::sampler::sample_time_to_failure;
use serr_mc::{MonteCarlo, MonteCarloConfig, SamplerKind, StartPhase};
use serr_numeric::ecdf::{ks_two_sample_critical_value, Ecdf};
use serr_trace::{CompiledTrace, ConcatTrace, IntervalTrace, VulnerabilityTrace};
use serr_types::{Frequency, RawErrorRate};

/// Draws `n` TTF samples (seconds) through the engine's chunked trial loop
/// with the given sampler, at the raw rate that makes `λ·L = lambda_l`.
fn engine_samples(
    trace: &dyn VulnerabilityTrace,
    lambda_l: f64,
    sampler: SamplerKind,
    start_phase: StartPhase,
    n: u64,
    seed: u64,
) -> Vec<f64> {
    let freq = Frequency::base();
    let period_s = trace.period_cycles() as f64 / freq.hz();
    let rate = RawErrorRate::per_second(lambda_l / period_s);
    let mc = MonteCarlo::new(MonteCarloConfig {
        trials: n,
        seed,
        sampler,
        start_phase,
        ..Default::default()
    });
    mc.sample_ttfs(trace, rate, freq, n).expect("sampling succeeds")
}

#[test]
fn batched_inversion_matches_event_loop_across_the_design_grid() {
    // The batched sampler draws from its own versioned counter-RNG stream
    // (`serr_mc::batched::BATCHED_RNG_SCHEDULE_VERSION`) and the event loop
    // from a per-chunk `SmallRng`, so the pin is distributional.
    let binary = IntervalTrace::busy_idle(30, 70).expect("valid trace");
    let fractional =
        IntervalTrace::from_levels(&[1.0, 0.25, 0.0, 0.5, 0.0, 0.75, 0.0, 0.0]).expect("valid");
    let n = 20_000usize;
    let crit = 1.5 * ks_two_sample_critical_value(n, n, 0.01);
    for (tname, trace) in [("binary", &binary), ("fractional", &fractional)] {
        for lambda_l in [1e-9, 1.0, 2000.0] {
            for start in [StartPhase::WorkloadStart, StartPhase::Stationary] {
                let batched = engine_samples(
                    trace,
                    lambda_l,
                    SamplerKind::BatchedInversion,
                    start,
                    n as u64,
                    0xD00D_0005,
                );
                let ev = engine_samples(
                    trace,
                    lambda_l,
                    SamplerKind::EventLoop,
                    start,
                    n as u64,
                    0xB0B0_0002,
                );
                let d = Ecdf::new(batched)
                    .expect("no NaN")
                    .ks_two_sample(&Ecdf::new(ev).expect("no NaN"));
                assert!(
                    d < crit,
                    "{tname} λL={lambda_l:e} {start:?}: KS {d:.5} ≥ {crit:.5} — the samplers \
                     draw different distributions"
                );
            }
        }
    }
}

#[test]
fn samplers_are_ks_equivalent_on_protection_transformed_traces() {
    // The --protect pipeline reshapes traces into forms no hand-written
    // test trace has: dense fractional scrub staircases, ECC-compressed
    // mid-range values, and a delay-zeroed tail. The thinning identity
    // holds for *any* valid trace, so both samplers must still draw
    // the same TTF distribution on the transformed output — this pins the
    // samplers' landing-cycle math on exactly the segment shapes protected
    // estimation runs feed them.
    use serr_trace::{Transform, TransformPipeline};
    let pattern = [1.0, 1.0, 1.0, 0.25, 0.0, 0.5, 0.75, 0.0, 1.0, 0.0];
    let levels: Vec<f64> = pattern.iter().cycle().take(200).copied().collect();
    let src = IntervalTrace::from_levels(&levels).expect("valid source trace");
    let pipeline = TransformPipeline::new(vec![
        Transform::Scrub { interval_cycles: 50 },
        Transform::EccSecDed { word_bits: 8 },
        Transform::DelayReport { window_cycles: 15 },
    ]);
    let trace = pipeline.apply_interval(&src).expect("pipeline applies");
    assert!(trace.segment_count() > src.segment_count(), "scrub staircase must fan out");
    let n = 20_000usize;
    let crit = 1.5 * ks_two_sample_critical_value(n, n, 0.01);
    for lambda_l in [1e-6, 1.0, 500.0] {
        for start in [StartPhase::WorkloadStart, StartPhase::Stationary] {
            let ev =
                engine_samples(&trace, lambda_l, SamplerKind::EventLoop, start, n as u64, 0x7E01);
            let batched = engine_samples(
                &trace,
                lambda_l,
                SamplerKind::BatchedInversion,
                start,
                n as u64,
                0x7E03,
            );
            let d =
                Ecdf::new(batched).expect("no NaN").ks_two_sample(&Ecdf::new(ev).expect("no NaN"));
            assert!(
                d < crit,
                "transformed λL={lambda_l:e} {start:?}: batched vs event loop KS \
                 {d:.5} ≥ {crit:.5}"
            );
        }
    }
}

#[test]
fn batched_inversion_on_a_tiled_compile_matches_the_event_loop_on_the_raw_concat() {
    // The paper's `combined` shape: two fractional traces tiled far past
    // the flat segment cap. The engine samples the tile-level compile with
    // the batched passes; the reference walks raw-error arrivals over the
    // uncompiled ConcatTrace itself, so the two share no lookup code.
    let a: Arc<dyn VulnerabilityTrace> = Arc::new(
        IntervalTrace::from_levels(&[1.0, 0.25, 0.0, 0.5, 0.0, 0.75, 0.0, 0.0]).expect("valid"),
    );
    let b: Arc<dyn VulnerabilityTrace> = Arc::new(IntervalTrace::busy_idle(30, 70).expect("valid"));
    let concat = ConcatTrace::new(vec![(a, 1_200_000), (b, 100_000)]).expect("valid tiling");
    assert!(CompiledTrace::compile(&concat).is_some_and(|c| c.is_tiled()));
    let freq = Frequency::base();
    let period = concat.period_cycles() as f64;
    let n = 20_000usize;
    let crit = 1.5 * ks_two_sample_critical_value(n, n, 0.01);
    for lambda_l in [1e-9, 1.0, 2000.0] {
        for start in [StartPhase::WorkloadStart, StartPhase::Stationary] {
            let batched = engine_samples(
                &concat,
                lambda_l,
                SamplerKind::BatchedInversion,
                start,
                n as u64,
                0x711E_0001,
            );
            let lambda_cycle = lambda_l / period;
            let mut rng = SmallRng::seed_from_u64(0x711E_0002);
            let walked: Vec<f64> = (0..n)
                .map(|_| {
                    let phase = match start {
                        StartPhase::WorkloadStart => 0.0,
                        StartPhase::Stationary => rng.gen_range(0.0..period),
                    };
                    sample_time_to_failure(&concat, lambda_cycle, 100_000_000, &mut rng, phase)
                        .expect("event loop terminates")
                        .ttf_cycles
                        / freq.hz()
                })
                .collect();
            let d = Ecdf::new(batched)
                .expect("no NaN")
                .ks_two_sample(&Ecdf::new(walked).expect("no NaN"));
            assert!(
                d < crit,
                "tiled λL={lambda_l:e} {start:?}: KS {d:.5} ≥ {crit:.5} — the tile level \
                 samples a different distribution than the raw concatenation"
            );
        }
    }
}

#[test]
fn batched_inversion_is_bit_identical_across_thread_counts() {
    // The per-chunk (seed, chunk) counter-RNG derivation means the sample
    // vector — not just the mean — is bit-equal at any thread count. Any
    // change to the intra-chunk draw order must bump
    // `BATCHED_RNG_SCHEDULE_VERSION` and re-pin this test.
    let trace = IntervalTrace::busy_idle(30, 70).expect("valid trace");
    for start in [StartPhase::WorkloadStart, StartPhase::Stationary] {
        let mut baseline = None;
        for threads in [1usize, 8] {
            let freq = Frequency::base();
            let period_s = trace.period_cycles() as f64 / freq.hz();
            let rate = RawErrorRate::per_second(1.0 / period_s);
            let mc = MonteCarlo::new(MonteCarloConfig {
                trials: 10_000,
                seed: 0x5EED_0006,
                threads,
                sampler: SamplerKind::BatchedInversion,
                start_phase: start,
                ..Default::default()
            });
            let ttfs = mc.sample_ttfs(&trace, rate, freq, 10_000).expect("sampling succeeds");
            match &baseline {
                None => baseline = Some(ttfs),
                Some(want) => assert_eq!(
                    want, &ttfs,
                    "{start:?}: sample vector differs between 1 and {threads} threads"
                ),
            }
        }
    }
}

#[test]
fn both_samplers_match_the_naive_reference_at_moderate_rate() {
    // λL = 1 on a 1000-cycle loop: λ_cycle = 1e-3 is small enough that the
    // naive sampler's one-error-per-cycle discretization shifts its CDF by
    // less than 1e-3 — invisible next to the KS threshold at this n.
    let trace = IntervalTrace::busy_idle(300, 700).expect("valid trace");
    let lambda_cycle = 1e-3;
    let n = 20_000usize;
    let hz = Frequency::base().hz();
    let mut rng = SmallRng::seed_from_u64(0xFACE_0003);
    let naive: Vec<f64> = (0..n)
        .map(|_| {
            sample_time_to_failure_naive(&trace, lambda_cycle, 100_000_000, &mut rng, 0)
                .expect("naive trial terminates")
                / hz
        })
        .collect();
    let naive_ecdf = Ecdf::new(naive).expect("no NaN");
    let crit = 1.5 * ks_two_sample_critical_value(n, n, 0.01) + 2.0 * lambda_cycle;
    for sampler in [SamplerKind::BatchedInversion, SamplerKind::EventLoop] {
        let s =
            engine_samples(&trace, 1.0, sampler, StartPhase::WorkloadStart, n as u64, 0xCAFE_0004);
        let d = naive_ecdf.ks_two_sample(&Ecdf::new(s).expect("no NaN"));
        assert!(d < crit, "{sampler:?} vs naive: KS {d:.5} ≥ {crit:.5}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]
    #[test]
    fn batched_inversion_matches_renewal_closed_form_on_random_traces(
        levels in proptest::collection::vec((0..=4u8).prop_map(|q| f64::from(q) / 4.0), 2..48),
        lambda_l_exp in -3.0f64..1.5,
    ) {
        prop_assume!(levels.iter().any(|&v| v > 0.0));
        let trace = IntervalTrace::from_levels(&levels).unwrap();
        let freq = Frequency::base();
        let lambda_l = 10f64.powf(lambda_l_exp);
        let rate = RawErrorRate::per_second(lambda_l / (levels.len() as f64 / freq.hz()));
        let mc = MonteCarlo::new(MonteCarloConfig {
            trials: 30_000,
            threads: 1,
            sampler: SamplerKind::BatchedInversion,
            ..Default::default()
        });
        let est = mc.component_mttf(&trace, rate, freq).unwrap();
        prop_assert_eq!(est.sampler, SamplerKind::BatchedInversion);
        // One Exp(1) draw per trial, no event walk — the O(1) contract.
        prop_assert_eq!(est.mean_events_per_trial, 1.0);
        let exact = serr_analytic::renewal::renewal_mttf(&trace, rate, freq).unwrap();
        let err = (est.mttf.as_secs() - exact.as_secs()).abs() / exact.as_secs();
        let budget = 4.0 * est.relative_ci95() + 1e-3;
        prop_assert!(
            err < budget,
            "λL={lambda_l:.3}: batched {} vs renewal {} (err {err}, budget {budget})",
            est.mttf.as_secs(),
            exact.as_secs()
        );
    }

    #[test]
    fn samplers_are_ks_equivalent_on_random_traces(
        levels in proptest::collection::vec((0..=4u8).prop_map(|q| f64::from(q) / 4.0), 2..32),
        lambda_l_exp in -2.0f64..2.0,
        stationary in any::<bool>(),
    ) {
        prop_assume!(levels.iter().any(|&v| v > 0.0));
        let trace = IntervalTrace::from_levels(&levels).unwrap();
        let lambda_l = 10f64.powf(lambda_l_exp);
        let start = if stationary { StartPhase::Stationary } else { StartPhase::WorkloadStart };
        let n = 8_000usize;
        let batched =
            engine_samples(&trace, lambda_l, SamplerKind::BatchedInversion, start, n as u64, 0x11);
        let ev = engine_samples(&trace, lambda_l, SamplerKind::EventLoop, start, n as u64, 0x22);
        let d = Ecdf::new(batched).unwrap().ks_two_sample(&Ecdf::new(ev).unwrap());
        let crit = 1.5 * ks_two_sample_critical_value(n, n, 0.01);
        prop_assert!(d < crit, "λL={lambda_l:.3} {start:?}: KS {d:.5} ≥ {crit:.5}");
    }
}
