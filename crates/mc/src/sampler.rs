//! The per-trial time-to-failure sampler.
//!
//! One trial walks the raw-error arrival process until an arrival strikes a
//! cycle where the error is *not* masked — a vulnerable (unmasked) position
//! of the workload loop. Inter-arrival times are `Exp(λ)`; by the
//! memorylessness decomposition of the paper's Appendix A, an inter-arrival
//! splits into independent parts
//!
//! * `K` whole workload periods, geometric with `P(K = k) = q^k(1−q)`,
//!   `q = e^{−λL}`, and
//! * a phase advance `R ∈ [0, L)` with the truncated-exponential density
//!   `λe^{−λr}/(1 − e^{−λL})`,
//!
//! both of which are sampled at magnitudes `≤ L` — no precision is lost even
//! when the mean time between raw errors is 10⁹ periods.
//!
//! The sampler is generic over the trace type so that the engine can hand it
//! a concrete [`serr_trace::CompiledTrace`] and the per-event loop compiles
//! down to direct, inlinable calls — no virtual dispatch on the hot path.
//! `&dyn VulnerabilityTrace` still works (the trait is object-safe and
//! `?Sized` is accepted) for tests that walk a source trace directly.

use rand::Rng;
use serr_numeric::special::one_minus_exp_neg;
use serr_trace::VulnerabilityTrace;
use serr_types::SerrError;

/// The outcome of one Monte Carlo trial.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialOutcome {
    /// Time to failure in cycles.
    pub ttf_cycles: f64,
    /// Raw error events consumed before the failing one (inclusive).
    pub events: u64,
}

/// Samples one time to failure for a component with per-cycle raw error rate
/// `lambda_cycle` running `trace`, with the trial starting at
/// `initial_phase` cycles into the workload loop (`0` is the paper's
/// convention; see [`crate::config::StartPhase`]).
///
/// # Errors
///
/// Returns [`SerrError::NoConvergence`] if `max_events` raw errors are
/// generated without a failure, and [`SerrError::InvalidValue`] when
/// `1/lambda_cycle` is not finite.
///
/// # Panics
///
/// Panics if `lambda_cycle` is not positive, `initial_phase` lies outside
/// the period, or the trace has AVF = 0 (a failure would never occur;
/// callers validate this up front).
pub fn sample_time_to_failure<T: VulnerabilityTrace + ?Sized>(
    trace: &T,
    lambda_cycle: f64,
    max_events: u64,
    rng: &mut impl Rng,
    initial_phase: f64,
) -> Result<TrialOutcome, SerrError> {
    assert!(lambda_cycle > 0.0, "per-cycle rate must be positive");
    debug_assert!(!trace.is_never_vulnerable(), "AVF = 0 trace cannot fail");

    let period = trace.period_cycles();
    let l = period as f64;
    assert!((0.0..l).contains(&initial_phase), "initial phase {initial_phase} outside [0, {l})");
    let lambda_l = lambda_cycle * l;
    // 1 − q = 1 − e^{−λL}, computed stably for both tiny and huge λL.
    let one_minus_q = one_minus_exp_neg(lambda_l);
    // 0/1-valued traces never need the Bernoulli masking draw; hoist the
    // decision out of the event loop (precomputed for compiled traces).
    let binary = trace.is_binary();
    let q_underflowed = lambda_l > 700.0;
    // Per-event divisions replaced by multiplies with hoisted inverses.
    let neg_inv_lambda_l = -1.0 / lambda_l;
    let neg_inv_lambda = -1.0 / lambda_cycle;
    // Below ~5.6e-309 per cycle the reciprocal overflows: every phase
    // advance would be −∞ and the walk could only end at `max_events`.
    if !(neg_inv_lambda.is_finite() && neg_inv_lambda_l.is_finite()) {
        return Err(SerrError::invalid_value(
            "per-cycle raw error rate (reciprocal overflows)",
            lambda_cycle,
        ));
    }
    let r_cap = l * (1.0 - f64::EPSILON);

    let mut phase = initial_phase; // current position within the period
    let mut whole_periods = 0.0_f64; // accumulated K·L contributions, in periods
    let mut residual = 0.0_f64; // accumulated phase advances, in cycles
    let mut events = 0u64;

    loop {
        events += 1;
        if events > max_events {
            return Err(SerrError::NoConvergence {
                what: "monte carlo trial (raw error events without failure)".into(),
                after: max_events as usize,
            });
        }

        // K ~ Geometric(1−q): whole periods skipped by this inter-arrival.
        // `1 − gen::<f64>()` lies in (0, 1], so the log is finite.
        let u: f64 = 1.0 - rng.gen::<f64>();
        let k = if q_underflowed {
            // q underflowed; the arrival is essentially always within the
            // current period.
            0.0
        } else {
            (u.ln() * neg_inv_lambda_l).floor()
        };

        // R ~ truncated Exp(λ) on [0, L): the exact phase-advance law.
        let v: f64 = rng.gen::<f64>();
        let r = ((-(v * one_minus_q)).ln_1p() * neg_inv_lambda).min(r_cap);

        whole_periods += k;
        residual += r;
        phase += r;
        if phase >= l {
            phase -= l;
            whole_periods += 1.0;
            residual -= l;
        }

        // Resolve masking at the struck cycle.
        let vuln = trace.vulnerability_at(phase as u64);
        if binary {
            if vuln != 0.0 {
                return Ok(TrialOutcome { ttf_cycles: whole_periods * l + residual, events });
            }
        } else if vuln > 0.0 && (vuln >= 1.0 || rng.gen::<f64>() < vuln) {
            return Ok(TrialOutcome { ttf_cycles: whole_periods * l + residual, events });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use serr_numeric::stats::RunningStats;
    use serr_trace::IntervalTrace;

    fn run_mean(trace: &IntervalTrace, lambda: f64, trials: u64, seed: u64) -> RunningStats {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut stats = RunningStats::new();
        for _ in 0..trials {
            let out = sample_time_to_failure(trace, lambda, 1_000_000, &mut rng, 0.0).unwrap();
            stats.push(out.ttf_cycles);
        }
        stats
    }

    #[test]
    fn fully_vulnerable_matches_exponential_mean() {
        let trace = IntervalTrace::constant(100, 1.0).unwrap();
        let lambda = 0.02;
        let stats = run_mean(&trace, lambda, 50_000, 1);
        let want = 1.0 / lambda;
        assert!(
            (stats.mean() - want).abs() < 4.0 * stats.ci95_half_width().max(1e-9),
            "mean {} want {want}",
            stats.mean()
        );
        // Every trial ends on the first event.
        let mut rng = SmallRng::seed_from_u64(2);
        let out = sample_time_to_failure(&trace, lambda, 10, &mut rng, 0.0).unwrap();
        assert_eq!(out.events, 1);
    }

    #[test]
    fn matches_renewal_closed_form_busy_idle() {
        // λL ~ 1: squarely in the regime where AVF is wrong but the renewal
        // formula (and this sampler) must still be right.
        let (a, idle) = (30u64, 70u64);
        let trace = IntervalTrace::busy_idle(a, idle).unwrap();
        let lambda = 0.01; // λL = 1.0
        let stats = run_mean(&trace, lambda, 200_000, 3);
        let want = serr_analytic::renewal::renewal_mttf_cycles(&trace, lambda);
        let err = (stats.mean() - want).abs() / want;
        assert!(err < 0.01, "MC {} vs renewal {want}: err {err}", stats.mean());
    }

    #[test]
    fn matches_renewal_with_fractional_vulnerability() {
        let trace =
            IntervalTrace::from_levels(&[1.0, 0.25, 0.25, 0.0, 0.5, 0.0, 0.0, 0.0]).unwrap();
        let lambda = 0.05;
        let stats = run_mean(&trace, lambda, 200_000, 4);
        let want = serr_analytic::renewal::renewal_mttf_cycles(&trace, lambda);
        let err = (stats.mean() - want).abs() / want;
        assert!(err < 0.015, "MC {} vs renewal {want}: err {err}", stats.mean());
    }

    #[test]
    fn tiny_lambda_l_matches_avf_formula() {
        // λL = 1e-9: the AVF-valid regime; also exercises the geometric
        // period-skipping path (K is astronomically large here).
        let trace = IntervalTrace::busy_idle(25, 75).unwrap();
        let lambda = 1e-11;
        let stats = run_mean(&trace, lambda, 20_000, 5);
        let want = 1.0 / (lambda * 0.25);
        let err = (stats.mean() - want).abs() / want;
        assert!(err < 0.03, "MC {} vs AVF {want}: err {err}", stats.mean());
    }

    #[test]
    fn huge_lambda_l_is_stable() {
        // λL = 2000: e^{-λL} underflows; failures happen within the first
        // busy window essentially always.
        let trace = IntervalTrace::busy_idle(1000, 1000).unwrap();
        let lambda = 1.0;
        let stats = run_mean(&trace, lambda, 20_000, 6);
        assert!((stats.mean() - 1.0).abs() < 0.05, "mean {}", stats.mean());
    }

    #[test]
    fn event_counts_follow_geometric_mean() {
        // Expected events per trial = 1/AVF for a 0/1 trace in the small-λL
        // limit (K geometric with success probability AVF).
        let trace = IntervalTrace::busy_idle(10, 30).unwrap();
        let lambda = 1e-9;
        let mut rng = SmallRng::seed_from_u64(7);
        let mut total_events = 0u64;
        let trials = 20_000;
        for _ in 0..trials {
            total_events +=
                sample_time_to_failure(&trace, lambda, 1_000_000, &mut rng, 0.0).unwrap().events;
        }
        let mean_events = total_events as f64 / trials as f64;
        assert!((mean_events - 4.0).abs() < 0.15, "mean events {mean_events}");
    }

    #[test]
    fn max_events_cap_triggers() {
        // Vulnerability 1e-9 everywhere: with a cap of 100 events the trial
        // almost surely aborts.
        let trace = IntervalTrace::constant(10, 1e-9).unwrap();
        let mut rng = SmallRng::seed_from_u64(8);
        let res = sample_time_to_failure(&trace, 0.1, 100, &mut rng, 0.0);
        assert!(matches!(res, Err(SerrError::NoConvergence { .. })));
    }

    #[test]
    fn stationary_start_matches_phase_averaged_renewal() {
        // Day-like trace, λL = 6.85-ish: the stationary MTTF is the
        // shift-averaged renewal MTTF, which differs strongly from the
        // busy-start value.
        let trace = IntervalTrace::busy_idle(500, 500).unwrap();
        let lambda = 0.007;
        let mut rng = SmallRng::seed_from_u64(21);
        let mut stats = RunningStats::new();
        for _ in 0..100_000 {
            let phase = rng.gen_range(0.0..1000.0);
            let out = sample_time_to_failure(&trace, lambda, 1_000_000, &mut rng, phase).unwrap();
            stats.push(out.ttf_cycles);
        }
        // Reference: average renewal MTTF over shifted trace views.
        use std::sync::Arc;
        let arc: Arc<dyn VulnerabilityTrace> = Arc::new(trace.clone());
        let shifts = 1000u64;
        let want: f64 = (0..shifts)
            .map(|i| {
                let t = serr_trace::ShiftedTrace::new(arc.clone(), i);
                serr_analytic::renewal::renewal_mttf_cycles(&t, lambda)
            })
            .sum::<f64>()
            / shifts as f64;
        let err = (stats.mean() - want).abs() / want;
        assert!(err < 0.02, "MC {} vs shift-averaged renewal {want}: {err}", stats.mean());
        // Sanity: far from the busy-start answer.
        let busy_start = serr_analytic::renewal::renewal_mttf_cycles(&trace, lambda);
        assert!((stats.mean() - busy_start).abs() / busy_start > 0.2);
    }

    #[test]
    fn deterministic_given_seed() {
        let trace = IntervalTrace::busy_idle(5, 5).unwrap();
        let mut a = SmallRng::seed_from_u64(99);
        let mut b = SmallRng::seed_from_u64(99);
        let x = sample_time_to_failure(&trace, 0.01, 1000, &mut a, 0.0).unwrap();
        let y = sample_time_to_failure(&trace, 0.01, 1000, &mut b, 0.0).unwrap();
        assert_eq!(x, y);
    }
}
