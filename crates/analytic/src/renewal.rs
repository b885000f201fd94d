//! Exact first-principles MTTF for any periodic vulnerability trace.
//!
//! Under the workspace masking model, unmasked raw errors form an
//! inhomogeneous Poisson process with intensity `λ·v(t)` (raw errors are
//! Poisson with rate `λ`; one at cycle `c` fails with probability `v(c)`,
//! which is Poisson thinning). The time to first failure `X` therefore has
//! survival function `P(X > t) = e^{−λU(t)}` with `U(t) = ∫₀ᵗ v`, and
//!
//! `MTTF = ∫₀^∞ e^{−λU(t)} dt = ∫₀ᴸ e^{−λU(s)} ds / (1 − e^{−λU(L)})`
//!
//! by periodicity of `v`. Since traces are piecewise constant, each span
//! integrates in closed form — no quadrature error, no sampling noise. This
//! is the gold standard the Monte Carlo engine is validated against.

use serr_numeric::special::one_minus_exp_neg;
use serr_trace::VulnerabilityTrace;
use serr_types::{Frequency, Mttf, RawErrorRate, SerrError};

/// Computes the exact MTTF of a component with raw error rate `rate` running
/// the workload described by `trace` at clock frequency `freq`: the
/// one-rate case of [`renewal_mttfs`].
///
/// # Errors
///
/// Returns [`SerrError::InvalidTrace`] if the trace is never vulnerable
/// (AVF = 0, so the component cannot fail), [`SerrError::InvalidConfig`]
/// if the rate is zero, and [`SerrError::InvalidValue`] if the MTTF does
/// not resolve to a positive duration at this rate.
///
/// ```
/// use serr_analytic::renewal::renewal_mttf;
/// use serr_trace::IntervalTrace;
/// use serr_types::{Frequency, RawErrorRate};
///
/// // A fully-vulnerable component fails at exactly the raw rate.
/// let trace = IntervalTrace::constant(1000, 1.0).unwrap();
/// let rate = RawErrorRate::per_year(10.0);
/// let mttf = renewal_mttf(&trace, rate, Frequency::base()).unwrap();
/// assert!((mttf.as_years() - 0.1).abs() < 1e-9);
/// ```
pub fn renewal_mttf(
    trace: &dyn VulnerabilityTrace,
    rate: RawErrorRate,
    freq: Frequency,
) -> Result<Mttf, SerrError> {
    renewal_mttfs(trace, &[rate], freq).pop().expect("one result per rate")
}

/// The exact renewal MTTF at every rate of `rates`, in input order, from
/// one [`VulnerabilityTrace::survival_weights`] call: the trace's spans are
/// coded once and every distinct rate is priced in the same pass. Element
/// `k` is bit-identical to `renewal_mttf(trace, rates[k], freq)`; errors
/// are per rate.
pub fn renewal_mttfs(
    trace: &dyn VulnerabilityTrace,
    rates: &[RawErrorRate],
    freq: Frequency,
) -> Vec<Result<Mttf, SerrError>> {
    let dead = rates.iter().any(|r| !r.is_zero()) && trace.is_never_vulnerable();
    let lambdas: Vec<Result<f64, SerrError>> = rates
        .iter()
        .map(|rate| {
            if rate.is_zero() {
                return Err(SerrError::invalid_config("raw error rate is zero; MTTF is infinite"));
            }
            if dead {
                return Err(SerrError::invalid_trace(
                    "trace has AVF = 0; the component can never fail",
                ));
            }
            per_cycle(*rate, freq)
        })
        .collect();
    let priced: Vec<f64> = lambdas.iter().filter_map(|l| l.as_ref().ok().copied()).collect();
    let mut weights = trace.survival_weights(&priced).into_iter();
    lambdas
        .into_iter()
        .zip(rates)
        .map(|(lambda_cycle, rate)| {
            let lambda_cycle = lambda_cycle?;
            let (integral, u_total) = weights.next().expect("one weight per priced rate");
            let secs = integral / one_minus_exp_neg(lambda_cycle * u_total) / freq.hz();
            Mttf::try_from_secs(secs).map_err(|_| {
                SerrError::invalid_value(
                    format!("renewal MTTF (s) at {:e} errors/year", rate.events_per_year()),
                    secs,
                )
            })
        })
        .collect()
}

/// The per-cycle rate `λ / f`, which must stay positive for the closed
/// form to apply.
fn per_cycle(rate: RawErrorRate, freq: Frequency) -> Result<f64, SerrError> {
    let lambda_cycle = rate.per_second_value() / freq.hz();
    if lambda_cycle > 0.0 {
        Ok(lambda_cycle)
    } else {
        Err(SerrError::invalid_value("per-cycle raw error rate (underflows to zero)", lambda_cycle))
    }
}

/// The renewal MTTF in cycle units given a per-cycle raw error rate.
///
/// Exposed for unit-agnostic analysis and testing; most callers want
/// [`renewal_mttf`].
///
/// # Panics
///
/// Panics if `lambda_cycle` is not positive or the trace has AVF = 0.
#[must_use]
pub fn renewal_mttf_cycles(trace: &dyn VulnerabilityTrace, lambda_cycle: f64) -> f64 {
    assert!(lambda_cycle > 0.0, "per-cycle rate must be positive");
    let (integral, u_total) = trace.survival_weights(&[lambda_cycle])[0];
    assert!(u_total > 0.0, "trace has AVF = 0");
    integral / one_minus_exp_neg(lambda_cycle * u_total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::periodic::busy_idle_mttf;
    use proptest::prelude::*;
    use serr_trace::{DenseTrace, IntervalTrace, Segment};

    #[test]
    fn matches_derivation1_closed_form() {
        // The renewal formula and the paper's Derivation 1 must agree on the
        // busy/idle program (time unit = cycles).
        for &(lambda, a, l) in &[(0.01, 100u64, 400u64), (0.5, 3, 10), (2.0, 1, 2)] {
            let trace = IntervalTrace::busy_idle(a, l - a).unwrap();
            let renewal = renewal_mttf_cycles(&trace, lambda);
            let paper = busy_idle_mttf(lambda, a as f64, l as f64);
            assert!(
                ((renewal - paper) / paper).abs() < 1e-10,
                "λ={lambda}, A={a}, L={l}: renewal={renewal}, paper={paper}"
            );
        }
    }

    #[test]
    fn fully_vulnerable_is_exponential_mean() {
        let trace = IntervalTrace::constant(123, 1.0).unwrap();
        for &lambda in &[1e-6, 0.1, 3.0] {
            let m = renewal_mttf_cycles(&trace, lambda);
            assert!(((m - 1.0 / lambda) / m).abs() < 1e-12);
        }
    }

    #[test]
    fn constant_fractional_vulnerability_scales_rate() {
        // v ≡ p everywhere: thinned Poisson with rate λp.
        let trace = IntervalTrace::constant(77, 0.25).unwrap();
        let m = renewal_mttf_cycles(&trace, 0.01);
        assert!(((m - 1.0 / (0.01 * 0.25)) / m).abs() < 1e-12);
    }

    #[test]
    fn avf_limit_for_small_lambda() {
        // λL → 0 ⇒ MTTF → 1/(λ·AVF), the paper's validity regime.
        let trace = IntervalTrace::from_segments(vec![
            Segment::new(10, 1.0).unwrap(),
            Segment::new(20, 0.5).unwrap(),
            Segment::new(70, 0.0).unwrap(),
        ])
        .unwrap();
        let avf = trace.avf();
        let lambda = 1e-12;
        let m = renewal_mttf_cycles(&trace, lambda);
        assert!(((m - 1.0 / (lambda * avf)) * (lambda * avf)).abs() < 1e-6);
    }

    #[test]
    fn dense_and_interval_agree() {
        let levels: Vec<f64> = (0..500).map(|i| ((i / 37) % 3) as f64 / 2.0).collect();
        let dense = DenseTrace::new(levels.clone()).unwrap();
        let interval = IntervalTrace::from_levels(&levels).unwrap();
        let md = renewal_mttf_cycles(&dense, 0.003);
        let mi = renewal_mttf_cycles(&interval, 0.003);
        assert!(((md - mi) / mi).abs() < 1e-9);
    }

    #[test]
    fn typed_api_converts_units() {
        let trace = IntervalTrace::busy_idle(1000, 1000).unwrap();
        // λL is tiny here, so MTTF ≈ 1/(λ·0.5) = 0.2 years.
        let m = renewal_mttf(&trace, RawErrorRate::per_year(10.0), Frequency::base()).unwrap();
        assert!((m.as_years() - 0.2).abs() < 1e-6);
    }

    #[test]
    fn rejects_degenerate_inputs() {
        let dead = IntervalTrace::constant(10, 0.0).unwrap();
        assert!(renewal_mttf(&dead, RawErrorRate::per_year(1.0), Frequency::base()).is_err());
        let live = IntervalTrace::constant(10, 1.0).unwrap();
        assert!(renewal_mttf(&live, RawErrorRate::ZERO, Frequency::base()).is_err());
    }

    #[test]
    fn idle_tail_extends_mttf() {
        // Adding idle time after the busy window can only increase MTTF.
        let lambda = 0.05;
        let busy_only = renewal_mttf_cycles(&IntervalTrace::busy_idle(10, 0).unwrap(), lambda);
        let with_idle = renewal_mttf_cycles(&IntervalTrace::busy_idle(10, 90).unwrap(), lambda);
        assert!(with_idle > busy_only);
    }

    proptest! {
        #[test]
        fn renewal_bounded_by_exponential_envelopes(
            busy in 1u64..200,
            idle in 0u64..200,
            lambda in 1e-4f64..1.0,
        ) {
            // 1/λ ≤ MTTF ≤ 1/(λ·AVF): failing no faster than a fully
            // vulnerable component and no slower than the AVF average.
            let trace = IntervalTrace::busy_idle(busy, idle).unwrap();
            let m = renewal_mttf_cycles(&trace, lambda);
            let avf = trace.avf();
            prop_assert!(m >= 1.0 / lambda - 1e-9);
            prop_assert!(m <= 1.0 / (lambda * avf) + 1e-9 / (lambda * avf));
        }

        #[test]
        fn renewal_matches_direct_survival_sum(
            levels in proptest::collection::vec((0..=4u8).prop_map(|q| f64::from(q) / 4.0), 1..40),
            lambda in 0.01f64..0.5,
        ) {
            prop_assume!(levels.iter().any(|&v| v > 0.0));
            let trace = IntervalTrace::from_levels(&levels).unwrap();
            // Direct: MTTF = Σ_t P(X > t) over integer cycles... the
            // continuous-time formula integrates within cycles, so compare
            // against a fine Riemann sum instead.
            let l = levels.len() as u64;
            let u_l = trace.cumulative_within_period(l);
            let steps = 2000usize;
            let mut riemann = 0.0;
            for i in 0..steps {
                let s = (i as f64 + 0.5) / steps as f64 * l as f64;
                let c = s as u64;
                let u = trace.cumulative_within_period(c)
                    + (s - c as f64) * trace.vulnerability_at(c);
                riemann += (-lambda * u).exp();
            }
            riemann *= l as f64 / steps as f64;
            let direct = riemann / (1.0 - (-lambda * u_l).exp());
            let renewal = renewal_mttf_cycles(&trace, lambda);
            prop_assert!(
                ((renewal - direct) / direct).abs() < 1e-2,
                "renewal={} direct={}", renewal, direct
            );
        }

        #[test]
        fn renewal_is_finite_across_fourteen_decades_of_lambda_l(
            levels in proptest::collection::vec((0..=4u8).prop_map(|q| f64::from(q) / 4.0), 1..40),
            lambda_l_exp in -12.0f64..6.0,
        ) {
            // λL from 1e-12 (deep AVF-valid regime, survival ≈ 1 everywhere)
            // to 1e6 (e^{-λU} underflows to 0 after the first vulnerable
            // cycle): the integral must stay finite and positive at both
            // extremes, never NaN/∞ from underflow or division by a
            // vanishing failure probability.
            prop_assume!(levels.iter().any(|&v| v > 0.0));
            let trace = IntervalTrace::from_levels(&levels).unwrap();
            let lambda = 10f64.powf(lambda_l_exp) / levels.len() as f64;
            let m = renewal_mttf_cycles(&trace, lambda);
            prop_assert!(
                m.is_finite() && m > 0.0,
                "λL=1e{lambda_l_exp:.2}: renewal MTTF = {m}"
            );
            // And it can never beat a fully vulnerable component.
            prop_assert!(m >= 1.0 / lambda - 1e-9 / lambda);
        }
    }
}
