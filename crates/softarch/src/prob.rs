//! Per-value error-probability bookkeeping (SoftArch's generation and
//! propagation rules).

/// The probability that a value is erroneous.
///
/// SoftArch's two rules:
///
/// * **generation** — a value residing in or produced by a structure with
///   raw error rate λ for time `t` acquires error probability
///   `1 − e^{−λt}`, combined with whatever it already carried;
/// * **propagation** — a value computed from erroneous inputs is erroneous:
///   `p_out = 1 − ∏(1 − p_inᵢ)` (independence of the underlying raw
///   events, as in the paper's simple probability theory).
///
/// ```
/// use serr_softarch::ErrorProb;
/// let a = ErrorProb::new(0.1);
/// let b = ErrorProb::new(0.2);
/// let out = a.propagate(b);
/// assert!((out.value() - (1.0 - 0.9 * 0.8)).abs() < 1e-15);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct ErrorProb(f64);

impl ErrorProb {
    /// A certainly-correct value.
    pub const ZERO: ErrorProb = ErrorProb(0.0);

    /// Creates a probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    #[must_use]
    pub fn new(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability {p} outside [0,1]");
        ErrorProb(p)
    }

    /// The raw probability.
    #[must_use]
    pub fn value(self) -> f64 {
        self.0
    }

    /// Generation: exposure to a structure with rate `lambda_per_cycle` for
    /// `cycles` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `lambda_per_cycle` is negative.
    #[must_use]
    pub fn generate(self, lambda_per_cycle: f64, cycles: f64) -> Self {
        assert!(lambda_per_cycle >= 0.0 && cycles >= 0.0, "exposure must be non-negative");
        let fresh = -(-lambda_per_cycle * cycles).exp_m1();
        self.propagate(ErrorProb(fresh))
    }

    /// Propagation: combining with another (independent) possibly-erroneous
    /// value.
    #[must_use]
    pub fn propagate(self, other: ErrorProb) -> Self {
        // 1 - (1-a)(1-b) = a + b - ab, computed to preserve tiny values.
        ErrorProb((self.0 + other.0 - self.0 * other.0).clamp(0.0, 1.0))
    }

    /// Whether the value is certainly correct.
    #[must_use]
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }
}

impl std::fmt::Display for ErrorProb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.3e}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn propagation_matches_inclusion_exclusion() {
        let p = ErrorProb::new(0.25).propagate(ErrorProb::new(0.5));
        assert!((p.value() - 0.625).abs() < 1e-15);
        assert_eq!(ErrorProb::ZERO.propagate(ErrorProb::ZERO), ErrorProb::ZERO);
        assert!(ErrorProb::ZERO.is_zero());
    }

    #[test]
    fn generation_accumulates_exposure() {
        // Two exposures of t each equal one exposure of 2t.
        let twice = ErrorProb::ZERO.generate(1e-6, 100.0).generate(1e-6, 100.0);
        let once = ErrorProb::ZERO.generate(1e-6, 200.0);
        assert!((twice.value() - once.value()).abs() < 1e-18);
    }

    #[test]
    fn tiny_probabilities_keep_precision() {
        let p = ErrorProb::ZERO.generate(1e-20, 1.0);
        assert!((p.value() - 1e-20).abs() < 1e-32);
    }

    proptest! {
        #[test]
        fn propagate_commutative_associative(
            a in 0.0f64..1.0, b in 0.0f64..1.0, c in 0.0f64..1.0,
        ) {
            let (a, b, c) = (ErrorProb::new(a), ErrorProb::new(b), ErrorProb::new(c));
            prop_assert!((a.propagate(b).value() - b.propagate(a).value()).abs() < 1e-15);
            let left = a.propagate(b).propagate(c).value();
            let right = a.propagate(b.propagate(c)).value();
            prop_assert!((left - right).abs() < 1e-12);
        }

        #[test]
        fn propagate_bounded_and_monotone(a in 0.0f64..1.0, b in 0.0f64..1.0) {
            let out = ErrorProb::new(a).propagate(ErrorProb::new(b)).value();
            prop_assert!(out >= a.max(b) - 1e-15);
            prop_assert!(out <= 1.0);
        }
    }
}
