//! The shared-stream sweep kernel's bit-identity contract, pinned across
//! crate boundaries.
//!
//! `MonteCarlo::component_mttf_multi` amortizes the RNG word stream, the
//! exponent-splice uniforms, and the vectorized log passes over every
//! design point of a sweep — common random numbers across the λ axis. The
//! contract that licenses the sharing is that it must be *invisible* in
//! the numbers:
//!
//! 1. every point is bit-identical to an independent
//!    `MonteCarlo::component_mttf` run with the same seed and sampler;
//! 2. the whole sweep is bit-identical at any thread count;
//! 3. both hold on `--protect`-transformed traces (scrub staircases,
//!    fractional ECC levels) exactly as on raw workload traces, and on
//!    day-scale tilings that compile to the tile level;
//! 4. the full validator row built from a kernel estimate equals the row
//!    an independent `Validator::component` call produces;
//! 5. a Fig 6a-style grid over composite processor traces gives the same
//!    rows at any fan-out, although the design points race to build each
//!    composite's memoized span table on first use.

use std::sync::Arc;

use serr_core::par;
use serr_core::prelude::{Validator, VulnerabilityTrace};
use serr_mc::{MonteCarlo, MonteCarloConfig, MttfEstimate, SamplerKind, StartPhase};
use serr_trace::{
    CompiledTrace, CompositeTrace, ConcatTrace, IntervalTrace, ShiftedTrace, Transform,
    TransformPipeline,
};
use serr_types::{Frequency, RawErrorRate};

fn engine(threads: usize, start_phase: StartPhase) -> MonteCarlo {
    MonteCarlo::new(MonteCarloConfig {
        trials: 8_000,
        seed: 0x5EE9_0001,
        threads,
        sampler: SamplerKind::BatchedInversion,
        start_phase,
        ..Default::default()
    })
}

fn raw_trace() -> IntervalTrace {
    let pattern = [1.0, 1.0, 0.25, 0.0, 0.5, 0.75, 0.0, 0.0];
    let levels: Vec<f64> = pattern.iter().cycle().take(160).copied().collect();
    IntervalTrace::from_levels(&levels).expect("valid trace")
}

fn protected_trace() -> IntervalTrace {
    // The same shapes `--protect scrub:50+ecc:8` feeds the samplers.
    let pipeline = TransformPipeline::new(vec![
        Transform::Scrub { interval_cycles: 50 },
        Transform::EccSecDed { word_bits: 8 },
    ]);
    pipeline.apply_interval(&raw_trace()).expect("pipeline applies")
}

fn sweep_rates() -> Vec<RawErrorRate> {
    [1e-2, 0.5, 2.0, 25.0, 400.0, 9_000.0].iter().map(|&y| RawErrorRate::per_year(y)).collect()
}

fn assert_estimates_bit_equal(a: &MttfEstimate, b: &MttfEstimate, what: &str) {
    assert_eq!(a.mttf.as_secs().to_bits(), b.mttf.as_secs().to_bits(), "{what}: mean drifted");
    assert_eq!(a.relative_ci95().to_bits(), b.relative_ci95().to_bits(), "{what}: CI drifted");
    assert_eq!(a.ttf_seconds.count, b.ttf_seconds.count, "{what}: trial count drifted");
    assert_eq!(a.truncated, b.truncated, "{what}: truncation flag drifted");
    assert_eq!(a.sampler, b.sampler, "{what}: sampler tag drifted");
}

#[test]
fn kernel_points_match_independent_runs_on_raw_and_protected_traces() {
    let freq = Frequency::base();
    let rates = sweep_rates();
    for (tname, trace) in [("raw", raw_trace()), ("protected", protected_trace())] {
        for start in [StartPhase::WorkloadStart, StartPhase::Stationary] {
            let solo_engine = engine(1, start);
            let solo: Vec<MttfEstimate> = rates
                .iter()
                .map(|&r| solo_engine.component_mttf(&trace, r, freq).expect("solo run"))
                .collect();
            let multi = solo_engine
                .component_mttf_multi(&trace, &rates, freq)
                .expect("kernel run")
                .into_iter()
                .map(|p| p.expect("point"))
                .collect::<Vec<_>>();
            assert_eq!(multi.len(), solo.len());
            for (i, (m, s)) in multi.iter().zip(&solo).enumerate() {
                assert_estimates_bit_equal(m, s, &format!("{tname} {start:?} point {i}"));
            }
        }
    }
}

#[test]
fn kernel_sweeps_are_bit_identical_across_thread_counts() {
    let freq = Frequency::base();
    let rates = sweep_rates();
    for (tname, trace) in [("raw", raw_trace()), ("protected", protected_trace())] {
        let baseline: Vec<MttfEstimate> = engine(1, StartPhase::WorkloadStart)
            .component_mttf_multi(&trace, &rates, freq)
            .expect("kernel run")
            .into_iter()
            .map(|p| p.expect("point"))
            .collect();
        for threads in [2usize, 8] {
            let run: Vec<MttfEstimate> = engine(threads, StartPhase::WorkloadStart)
                .component_mttf_multi(&trace, &rates, freq)
                .expect("kernel run")
                .into_iter()
                .map(|p| p.expect("point"))
                .collect();
            for (i, (a, b)) in baseline.iter().zip(&run).enumerate() {
                assert_estimates_bit_equal(
                    a,
                    b,
                    &format!("{tname} point {i} at {threads} threads"),
                );
            }
        }
    }
}

/// An over-cap two-part tiling — the shape of the paper's `combined`
/// workload — which compiles to `CompiledTrace`'s tile level.
fn tiled_trace() -> ConcatTrace {
    let a: Arc<dyn VulnerabilityTrace> = Arc::new(raw_trace());
    let b: Arc<dyn VulnerabilityTrace> = Arc::new(IntervalTrace::busy_idle(3, 5).expect("valid"));
    ConcatTrace::new(vec![(a, 40_000), (b, 1_000_000)]).expect("valid tiling")
}

#[test]
fn tiled_kernel_points_match_independent_runs_at_every_thread_count() {
    let freq = Frequency::base();
    let rates = sweep_rates();
    let trace = tiled_trace();
    assert!(CompiledTrace::compile(&trace).is_some_and(|c| c.is_tiled()));
    for start in [StartPhase::WorkloadStart, StartPhase::Stationary] {
        let mut baseline: Option<Vec<MttfEstimate>> = None;
        for threads in [1usize, 2, 8] {
            let mc = engine(threads, start);
            let multi: Vec<MttfEstimate> = mc
                .component_mttf_multi(&trace, &rates, freq)
                .expect("kernel run")
                .into_iter()
                .map(|p| p.expect("point"))
                .collect();
            for (i, (m, &r)) in multi.iter().zip(&rates).enumerate() {
                assert_eq!(m.sampler, SamplerKind::BatchedInversion);
                let solo = mc.component_mttf(&trace, r, freq).expect("solo run");
                assert_estimates_bit_equal(m, &solo, &format!("{start:?} point {i} at {threads}"));
            }
            match &baseline {
                None => baseline = Some(multi),
                Some(want) => {
                    for (i, (a, b)) in want.iter().zip(&multi).enumerate() {
                        assert_estimates_bit_equal(
                            a,
                            b,
                            &format!("{start:?} point {i}: 1 vs {threads} threads"),
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn validator_rows_from_kernel_estimates_match_independent_validation() {
    // The grouped sweep path builds its rows with
    // `Validator::component_with_mc` from kernel estimates; the row must
    // be indistinguishable from the one `Validator::component` computes
    // with its own independent engine run.
    let freq = Frequency::base();
    let rates = sweep_rates();
    let trace: Arc<dyn VulnerabilityTrace> = Arc::new(protected_trace());
    let mc = MonteCarloConfig {
        trials: 8_000,
        seed: 0x5EE9_0001,
        sampler: SamplerKind::BatchedInversion,
        ..Default::default()
    };
    let v = Validator::new(freq, mc);
    let kernel = v.monte_carlo().component_mttf_multi(&*trace, &rates, freq).expect("kernel run");
    for (i, est) in kernel.into_iter().enumerate() {
        let grouped =
            v.component_with_mc(&*trace, rates[i], est.expect("point")).expect("grouped row");
        let solo = v.component(&*trace, rates[i]).expect("solo row");
        assert_eq!(
            grouped.mttf_mc.mttf.as_secs().to_bits(),
            solo.mttf_mc.mttf.as_secs().to_bits(),
            "point {i}: MC mean"
        );
        assert_eq!(
            grouped.mttf_avf.as_secs().to_bits(),
            solo.mttf_avf.as_secs().to_bits(),
            "point {i}: AVF step"
        );
        assert_eq!(
            grouped.avf_error_vs_mc.to_bits(),
            solo.avf_error_vs_mc.to_bits(),
            "point {i}: AVF error"
        );
        assert_eq!(
            grouped.softarch_error_vs_mc.to_bits(),
            solo.softarch_error_vs_mc.to_bits(),
            "point {i}: SoftArch error"
        );
    }
}

/// A fresh three-unit processor composite — the shape of a SPEC
/// `processor_trace` — whose span table is not built yet. The units are
/// pseudo-random few-thousand-span level traces; one is phase-shifted.
fn fresh_processor(seed: u64) -> Arc<dyn VulnerabilityTrace> {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut unit = |len: usize| -> Arc<dyn VulnerabilityTrace> {
        let levels: Vec<f64> = (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % 9) as f64 / 8.0
            })
            .collect();
        Arc::new(IntervalTrace::from_levels(&levels).expect("valid levels"))
    };
    let (int_unit, fp_unit, decode) = (unit(6_000), unit(6_000), unit(6_000));
    let shifted: Arc<dyn VulnerabilityTrace> = Arc::new(ShiftedTrace::new(fp_unit, 1_234));
    Arc::new(
        CompositeTrace::new(vec![(3.0, int_unit), (1.5, shifted), (0.5, decode)])
            .expect("units share one period"),
    )
}

#[test]
fn composite_grid_rows_are_bit_identical_across_thread_counts() {
    let freq = Frequency::base();
    let v = Validator::new(
        freq,
        MonteCarloConfig {
            trials: 2_000,
            seed: 0x5EE9_0002,
            threads: 1,
            sampler: SamplerKind::BatchedInversion,
            ..Default::default()
        },
    );
    let rows_at = |threads: usize| -> Vec<[u64; 4]> {
        // Every grid point of one benchmark shares its composite, so the
        // first points to run race on its table.
        let mut points = Vec::new();
        for bench in 0..3u64 {
            let trace = fresh_processor(bench);
            for c in [1u64, 16, 256] {
                for per_year in [1e3, 1e6, 1e9] {
                    points.push((trace.clone(), c, RawErrorRate::per_year(per_year)));
                }
            }
        }
        par::par_map(&points, threads, |_, (trace, c, rate)| {
            let row = v.system_identical(trace.clone(), *rate, *c).expect("grid row");
            [
                row.mttf_sofr.as_secs().to_bits(),
                row.mttf_mc.mttf.as_secs().to_bits(),
                row.mttf_renewal.as_secs().to_bits(),
                row.mttf_softarch.as_secs().to_bits(),
            ]
        })
    };
    let baseline = rows_at(1);
    for threads in [2usize, 8] {
        assert_eq!(rows_at(threads), baseline, "grid rows moved at {threads} threads");
    }
}
