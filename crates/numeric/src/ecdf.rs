//! Empirical CDFs and Kolmogorov–Smirnov distances.
//!
//! The SOFR step assumes each component's time to failure is exponentially
//! distributed after architectural masking (paper Section 2.3), and Theorem 1
//! claims `T mod L` is uniform when `L·λ → 0`. These tools quantify how far
//! empirical failure-time samples are from those reference distributions.

use serr_types::SerrError;

/// An empirical cumulative distribution function over a sorted sample.
///
/// ```
/// use serr_numeric::ecdf::Ecdf;
/// let e = Ecdf::new(vec![1.0, 2.0, 3.0, 4.0])?;
/// assert_eq!(e.eval(2.5), 0.5);
/// assert_eq!(e.eval(0.0), 0.0);
/// assert_eq!(e.eval(9.0), 1.0);
///
/// // Invalid samples are reported as typed errors, not panics:
/// assert!(Ecdf::new(vec![]).is_err());
/// assert!(Ecdf::new(vec![1.0, f64::NAN]).is_err());
/// # Ok::<(), serr_types::SerrError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds an ECDF from a sample (sorts internally).
    ///
    /// # Errors
    ///
    /// Returns [`SerrError::InvalidConfig`] for an empty sample and
    /// [`SerrError::InvalidValue`] if the sample contains NaN — validation
    /// results, not panics, per the workspace convention for library-crate
    /// input checking.
    pub fn new(mut sample: Vec<f64>) -> Result<Self, SerrError> {
        if sample.is_empty() {
            return Err(SerrError::invalid_config("ECDF requires a non-empty sample"));
        }
        if sample.iter().any(|x| x.is_nan()) {
            return Err(SerrError::invalid_value("ECDF sample (must not contain NaN)", f64::NAN));
        }
        sample.sort_by(|a, b| a.partial_cmp(b).expect("no NaN after check"));
        Ok(Ecdf { sorted: sample })
    }

    /// The fraction of samples `≤ x`.
    #[must_use]
    pub fn eval(&self, x: f64) -> f64 {
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the ECDF is empty. Never true for a successfully
    /// constructed value — [`Ecdf::new`] rejects empty samples — but kept
    /// so the `len`/`is_empty` pair stays complete.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// One-sample Kolmogorov–Smirnov statistic against a reference CDF:
    /// `D = supₓ |F̂(x) − F(x)|`, evaluated at the jump points.
    pub fn ks_statistic(&self, cdf: impl Fn(f64) -> f64) -> f64 {
        let n = self.sorted.len() as f64;
        let mut d: f64 = 0.0;
        for (i, &x) in self.sorted.iter().enumerate() {
            let f = cdf(x);
            let lo = i as f64 / n;
            let hi = (i + 1) as f64 / n;
            d = d.max((f - lo).abs()).max((hi - f).abs());
        }
        d
    }

    /// KS statistic against the exponential distribution with rate `lambda`.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is not positive.
    #[must_use]
    pub fn ks_vs_exponential(&self, lambda: f64) -> f64 {
        assert!(lambda > 0.0, "rate must be positive");
        self.ks_statistic(|x| if x <= 0.0 { 0.0 } else { -(-lambda * x).exp_m1() })
    }

    /// KS statistic against the uniform distribution on `[0, length]`.
    ///
    /// # Panics
    ///
    /// Panics if `length` is not positive.
    #[must_use]
    pub fn ks_vs_uniform(&self, length: f64) -> f64 {
        assert!(length > 0.0, "length must be positive");
        self.ks_statistic(|x| (x / length).clamp(0.0, 1.0))
    }

    /// Two-sample Kolmogorov–Smirnov statistic against another ECDF:
    /// `D = supₓ |F̂₁(x) − F̂₂(x)|`, computed by a merge walk over the two
    /// sorted samples in `O(n + m)`. Tied observations are consumed from
    /// both samples before the gap is measured, so the statistic is exact
    /// for discrete-valued samples too.
    #[must_use]
    pub fn ks_two_sample(&self, other: &Ecdf) -> f64 {
        let (a, b) = (&self.sorted, &other.sorted);
        let (n, m) = (a.len() as f64, b.len() as f64);
        let (mut i, mut j) = (0usize, 0usize);
        let mut d: f64 = 0.0;
        while i < a.len() && j < b.len() {
            let x = a[i].min(b[j]);
            while i < a.len() && a[i] <= x {
                i += 1;
            }
            while j < b.len() && b[j] <= x {
                j += 1;
            }
            d = d.max((i as f64 / n - j as f64 / m).abs());
        }
        // Once one sample is exhausted its CDF sits at 1 and every later
        // jump of the other only shrinks the gap, so the loop has already
        // seen the supremum.
        d
    }
}

/// The critical KS value at significance `alpha ∈ {0.05, 0.01}` for sample
/// size `n` (asymptotic formula `c(α)·√(1/n)`).
///
/// A sample "fails" the test (is distinguishable from the reference) when its
/// KS statistic exceeds this value.
///
/// # Panics
///
/// Panics if `n` is zero or `alpha` is not one of the supported levels.
#[must_use]
pub fn ks_critical_value(n: usize, alpha: f64) -> f64 {
    assert!(n > 0, "sample size must be positive");
    ks_coefficient(alpha) / (n as f64).sqrt()
}

/// The critical two-sample KS value at significance `alpha ∈ {0.05, 0.01}`
/// for sample sizes `n` and `m` (asymptotic `c(α)·√((n+m)/(n·m))`). Two
/// samples are distinguishable at level `alpha` when their
/// [`Ecdf::ks_two_sample`] statistic exceeds this.
///
/// # Panics
///
/// Panics if either size is zero or `alpha` is not a supported level.
#[must_use]
pub fn ks_two_sample_critical_value(n: usize, m: usize, alpha: f64) -> f64 {
    assert!(n > 0 && m > 0, "sample sizes must be positive");
    let (n, m) = (n as f64, m as f64);
    ks_coefficient(alpha) * ((n + m) / (n * m)).sqrt()
}

fn ks_coefficient(alpha: f64) -> f64 {
    if (alpha - 0.05).abs() < 1e-12 {
        1.358
    } else if (alpha - 0.01).abs() < 1e-12 {
        1.628
    } else {
        panic!("unsupported significance level {alpha}; use 0.05 or 0.01")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg_uniform(n: usize) -> Vec<f64> {
        // Deterministic pseudo-uniform sample.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                (state >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect()
    }

    #[test]
    fn eval_steps() {
        let e = Ecdf::new(vec![3.0, 1.0, 2.0]).expect("valid sample");
        assert_eq!(e.eval(0.5), 0.0);
        assert!((e.eval(1.0) - 1.0 / 3.0).abs() < 1e-15);
        assert!((e.eval(2.9) - 2.0 / 3.0).abs() < 1e-15);
        assert_eq!(e.eval(3.0), 1.0);
        assert_eq!(e.len(), 3);
        assert!(!e.is_empty());
    }

    #[test]
    fn invalid_samples_are_typed_errors_not_panics() {
        // Regression: `new` used to assert, taking the process down on the
        // first malformed sample instead of reporting a validation error.
        assert!(matches!(Ecdf::new(vec![]), Err(SerrError::InvalidConfig { .. })));
        assert!(matches!(Ecdf::new(vec![1.0, f64::NAN]), Err(SerrError::InvalidValue { .. })));
        assert!(Ecdf::new(vec![f64::INFINITY]).is_ok(), "infinities sort fine; only NaN rejected");
    }

    #[test]
    fn uniform_sample_passes_uniform_ks() {
        let e = Ecdf::new(lcg_uniform(5000)).expect("valid sample");
        let d = e.ks_vs_uniform(1.0);
        assert!(d < ks_critical_value(5000, 0.05), "KS {d} too large for uniform sample");
    }

    #[test]
    fn exponential_sample_passes_exponential_ks() {
        let lambda = 2.5;
        let sample: Vec<f64> = lcg_uniform(5000).iter().map(|u| -(1.0 - u).ln() / lambda).collect();
        let e = Ecdf::new(sample).expect("valid sample");
        let d = e.ks_vs_exponential(lambda);
        assert!(d < ks_critical_value(5000, 0.05), "KS {d} too large for exponential sample");
    }

    #[test]
    fn wrong_rate_fails_exponential_ks() {
        let sample: Vec<f64> = lcg_uniform(5000).iter().map(|u| -(1.0 - u).ln() / 2.5).collect();
        let e = Ecdf::new(sample).expect("valid sample");
        // Testing against a rate 4x too small must be detected.
        let d = e.ks_vs_exponential(0.625);
        assert!(d > ks_critical_value(5000, 0.01), "KS {d} should reject wrong rate");
    }

    #[test]
    fn bimodal_sample_fails_uniform_ks() {
        // Half the mass at ~0.1, half at ~0.9: clearly not uniform.
        let sample: Vec<f64> = (0..1000).map(|i| if i % 2 == 0 { 0.1 } else { 0.9 }).collect();
        let e = Ecdf::new(sample).expect("valid sample");
        assert!(e.ks_vs_uniform(1.0) > ks_critical_value(1000, 0.01));
    }

    #[test]
    fn critical_values_ordered() {
        assert!(ks_critical_value(100, 0.01) > ks_critical_value(100, 0.05));
        assert!(ks_critical_value(100, 0.05) > ks_critical_value(10000, 0.05));
        // Two-sample with one side infinite-precision degenerates to the
        // one-sample formula; equal sizes cost √2 more.
        let two = ks_two_sample_critical_value(5000, 5000, 0.05);
        assert!((two - 2f64.sqrt() * ks_critical_value(5000, 0.05)).abs() < 1e-15);
    }

    #[test]
    fn two_sample_ks_detects_shift_and_accepts_same_distribution() {
        let u = lcg_uniform(4000);
        let (a, b) = u.split_at(2000);
        let ea = Ecdf::new(a.to_vec()).expect("valid");
        let eb = Ecdf::new(b.to_vec()).expect("valid");
        // Identical sample → D = 0 exactly.
        assert_eq!(ea.ks_two_sample(&ea), 0.0);
        // Two halves of one uniform stream: indistinguishable.
        let d = ea.ks_two_sample(&eb);
        assert_eq!(d, eb.ks_two_sample(&ea), "statistic is symmetric");
        assert!(d < ks_two_sample_critical_value(2000, 2000, 0.05), "KS {d} rejects same dist");
        // A shifted copy must be rejected.
        let shifted: Vec<f64> = a.iter().map(|x| x + 0.2).collect();
        let es = Ecdf::new(shifted).expect("valid");
        let d = ea.ks_two_sample(&es);
        assert!(d > ks_two_sample_critical_value(2000, 2000, 0.01), "KS {d} misses a 0.2 shift");
    }

    #[test]
    fn two_sample_ks_handles_ties_and_disjoint_supports() {
        // All mass tied at one point each, disjoint: D = 1.
        let a = Ecdf::new(vec![1.0; 10]).expect("valid");
        let b = Ecdf::new(vec![2.0; 20]).expect("valid");
        assert_eq!(a.ks_two_sample(&b), 1.0);
        assert_eq!(b.ks_two_sample(&a), 1.0);
        // Identical discrete distributions: D = 0 despite ties.
        let c = Ecdf::new(vec![1.0, 1.0, 2.0, 2.0]).expect("valid");
        let d = Ecdf::new(vec![1.0, 2.0]).expect("valid");
        assert_eq!(c.ks_two_sample(&d), 0.0);
    }
}
