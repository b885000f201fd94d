//! The naive fault-injection-style reference sampler.
//!
//! The paper notes the traditional alternative to modeling: "fault
//! injection in low-level simulators ... requires running numerous
//! experiments that make it impractically slow" (Section 1). This module
//! implements the trace-level analogue — walk the workload cycle by cycle,
//! flip a coin for a raw error in each cycle, check masking — as a
//! *reference implementation*: it is obviously correct, runs in time
//! proportional to the time to failure (instead of the number of raw
//! errors), and validates the production sampler in `crate::sampler`.
//! EXPERIMENTS.md § Performance records the gap (orders of magnitude),
//! reproducing the paper's motivation for model-based estimation.

use rand::Rng;
use serr_trace::VulnerabilityTrace;
use serr_types::SerrError;

/// Samples one time to failure by stepping individual cycles, starting
/// `initial_phase` cycles into the workload loop (`0` is the paper's
/// convention; see [`crate::config::StartPhase`]).
///
/// The per-cycle raw-error probability is `1 − e^{−λ}` (at most one raw
/// error per cycle is modeled, accurate for `λ_cycle ≪ 1` — which holds for
/// every physical configuration: even a 10⁹-bit component at 5000× the
/// baseline rate has `λ_cycle ≈ 8e-9`).
///
/// # Errors
///
/// Returns [`SerrError::NoConvergence`] after `max_cycles` cycles without a
/// failure.
///
/// # Panics
///
/// Panics if `lambda_cycle` is outside `(0, 1)` or `initial_phase` lies
/// outside the period.
pub fn sample_time_to_failure_naive(
    trace: &dyn VulnerabilityTrace,
    lambda_cycle: f64,
    max_cycles: u64,
    rng: &mut impl Rng,
    initial_phase: u64,
) -> Result<f64, SerrError> {
    assert!(
        lambda_cycle > 0.0 && lambda_cycle < 1.0,
        "per-cycle rate must be in (0,1), got {lambda_cycle}"
    );
    let period = trace.period_cycles();
    assert!(initial_phase < period, "initial phase {initial_phase} outside [0, {period})");
    let p_raw = -(-lambda_cycle).exp_m1();
    let mut cycle = 0u64;
    while cycle < max_cycles {
        if rng.gen_range(0.0..1.0) < p_raw {
            // A raw error strikes this cycle; masked per the trace at the
            // phase-shifted position.
            let v = trace.vulnerability_at((initial_phase + cycle) % period);
            if v > 0.0 && (v >= 1.0 || rng.gen_range(0.0..1.0) < v) {
                return Ok(cycle as f64);
            }
        }
        cycle += 1;
    }
    Err(SerrError::NoConvergence {
        what: "naive cycle-stepping trial".into(),
        after: max_cycles as usize,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::sample_time_to_failure;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use serr_numeric::stats::RunningStats;
    use serr_trace::IntervalTrace;

    #[test]
    fn agrees_with_fast_sampler_and_renewal() {
        // λ_cycle = 0.01 on a busy/idle loop: small enough for the
        // one-error-per-cycle approximation, large enough that naive trials
        // terminate quickly.
        let trace = IntervalTrace::busy_idle(40, 60).unwrap();
        let lambda = 0.01;
        let trials = 60_000;

        let mut rng = SmallRng::seed_from_u64(5);
        let mut naive = RunningStats::new();
        for _ in 0..trials {
            naive.push(
                sample_time_to_failure_naive(&trace, lambda, 10_000_000, &mut rng, 0).unwrap(),
            );
        }

        let mut rng = SmallRng::seed_from_u64(6);
        let mut fast = RunningStats::new();
        for _ in 0..trials {
            fast.push(
                sample_time_to_failure(&trace, lambda, 1_000_000, &mut rng, 0.0)
                    .unwrap()
                    .ttf_cycles,
            );
        }

        let renewal = serr_analytic::renewal::renewal_mttf_cycles(&trace, lambda);
        // Continuous-time (fast/renewal) vs discrete-cycle (naive) differ
        // by O(1) cycle plus O(λ) second-error mass; both land within
        // combined noise + 1 cycle of the exact answer.
        let tol = 3.0 * (naive.ci95_half_width() + fast.ci95_half_width()) + 1.0;
        assert!(
            (naive.mean() - renewal).abs() < tol,
            "naive {} vs renewal {renewal} (tol {tol})",
            naive.mean()
        );
        assert!(
            (fast.mean() - naive.mean()).abs() < tol,
            "fast {} vs naive {}",
            fast.mean(),
            naive.mean()
        );
    }

    #[test]
    fn naive_cost_scales_with_mttf_not_error_count() {
        // At λ_cycle = 1e-6 a naive trial must step ~10⁶ cycles; the fast
        // sampler needs ~2 events. This is the paper's "impractically
        // slow" point, demonstrated as an operation-count ratio.
        let trace = IntervalTrace::busy_idle(50, 50).unwrap();
        let lambda = 1e-6;
        let mut rng = SmallRng::seed_from_u64(9);
        let out = sample_time_to_failure(&trace, lambda, 1_000, &mut rng, 0.0).unwrap();
        // Fast sampler: a handful of events.
        assert!(out.events < 100);
        // Naive: the failure lies ~2/λ = 2e6 cycles out; a single trial
        // visits that many cycles (we bound the demonstration at 100k).
        let res = sample_time_to_failure_naive(&trace, lambda, 100_000, &mut rng, 0);
        assert!(matches!(res, Err(SerrError::NoConvergence { .. })));
    }

    #[test]
    fn rejects_out_of_range_rate() {
        let trace = IntervalTrace::busy_idle(1, 1).unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sample_time_to_failure_naive(&trace, 1.5, 10, &mut rng, 0)
        }));
        assert!(r.is_err());
    }

    #[test]
    fn rejects_out_of_range_phase() {
        let trace = IntervalTrace::busy_idle(1, 1).unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sample_time_to_failure_naive(&trace, 0.01, 10, &mut rng, 2)
        }));
        assert!(r.is_err());
    }

    #[test]
    fn initial_phase_matches_shift_averaged_renewal() {
        // Regression: the sampler used to ignore the starting phase,
        // indexing the trace from cycle 0 regardless — so stationary-start
        // trials silently reproduced the workload-start distribution. With
        // the phase honored, uniformly random starts must average to the
        // shift-averaged renewal MTTF, which differs strongly from the
        // busy-start value on an asymmetric loop.
        let trace = IntervalTrace::busy_idle(20, 80).unwrap();
        let lambda = 0.02;
        let period = trace.period_cycles();
        let mut rng = SmallRng::seed_from_u64(17);
        let mut stats = RunningStats::new();
        for _ in 0..60_000 {
            let phase = rng.gen_range(0..period);
            stats.push(
                sample_time_to_failure_naive(&trace, lambda, 10_000_000, &mut rng, phase).unwrap(),
            );
        }
        use std::sync::Arc;
        let arc: Arc<dyn VulnerabilityTrace> = Arc::new(trace.clone());
        let want: f64 = (0..period)
            .map(|i| {
                let t = serr_trace::ShiftedTrace::new(arc.clone(), i);
                serr_analytic::renewal::renewal_mttf_cycles(&t, lambda)
            })
            .sum::<f64>()
            / period as f64;
        let err = (stats.mean() - want).abs() / want;
        assert!(err < 0.03, "naive {} vs shift-averaged renewal {want}: {err}", stats.mean());
        // And far from the busy-start answer the bug used to produce.
        let busy_start = serr_analytic::renewal::renewal_mttf_cycles(&trace, lambda);
        assert!(
            (stats.mean() - busy_start).abs() / busy_start > 0.1,
            "stationary mean {} indistinguishable from busy-start {busy_start}",
            stats.mean()
        );
    }
}
