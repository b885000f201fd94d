//! Uniformly derated view of a trace.

use std::sync::Arc;

use crate::VulnerabilityTrace;

/// A trace with every cycle's vulnerability multiplied by a constant factor
/// in `[0, 1]`: `v'(c) = p · v(c)`.
///
/// The paper's unit masking model is deliberately conservative: "if the
/// unit is busy processing an instruction, then for simplicity, we
/// conservatively assume that the error is not masked and will lead to
/// failure" (Section 4.1), even though logic masking, dataflow dead-ends,
/// and value-level tolerance mask a further fraction. `ScaledTrace` models
/// that residual masking as a uniform survival probability, enabling
/// sensitivity studies of the conservatism (see the `masking_conservatism`
/// ablation).
///
/// ```
/// use std::sync::Arc;
/// use serr_trace::{IntervalTrace, ScaledTrace, VulnerabilityTrace};
///
/// let busy = Arc::new(IntervalTrace::busy_idle(3, 1).unwrap()); // AVF 0.75
/// let with_logic_masking = ScaledTrace::new(busy, 0.4).unwrap();
/// assert!((with_logic_masking.avf() - 0.3).abs() < 1e-12);
/// ```
#[derive(Clone)]
pub struct ScaledTrace {
    inner: Arc<dyn VulnerabilityTrace>,
    factor: f64,
}

impl ScaledTrace {
    /// Wraps `inner`, multiplying vulnerabilities by `factor`.
    ///
    /// # Errors
    ///
    /// Returns [`serr_types::SerrError::InvalidTrace`] if `factor` is
    /// outside `[0, 1]`.
    pub fn new(
        inner: Arc<dyn VulnerabilityTrace>,
        factor: f64,
    ) -> Result<Self, serr_types::SerrError> {
        if !(0.0..=1.0).contains(&factor) {
            return Err(serr_types::SerrError::invalid_trace(format!(
                "scale factor {factor} outside [0,1]"
            )));
        }
        Ok(ScaledTrace { inner, factor })
    }

    /// The derating factor.
    #[must_use]
    pub fn factor(&self) -> f64 {
        self.factor
    }
}

impl std::fmt::Debug for ScaledTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScaledTrace")
            .field("factor", &self.factor)
            .field("period", &self.inner.period_cycles())
            .finish()
    }
}

impl VulnerabilityTrace for ScaledTrace {
    fn period_cycles(&self) -> u64 {
        self.inner.period_cycles()
    }

    fn vulnerability_at(&self, cycle: u64) -> f64 {
        self.factor * self.inner.vulnerability_at(cycle)
    }

    fn cumulative_within_period(&self, r: u64) -> f64 {
        self.factor * self.inner.cumulative_within_period(r)
    }

    fn breakpoints(&self) -> Vec<u64> {
        self.inner.breakpoints()
    }

    fn spans(&self) -> Box<dyn Iterator<Item = (u64, f64)> + '_> {
        Box::new(self.inner.spans().map(|(end, v)| (end, self.factor * v)))
    }

    fn span_count_hint(&self) -> u64 {
        self.inner.span_count_hint()
    }

    fn survival_weights(&self, lambdas: &[f64]) -> Vec<(f64, f64)> {
        // λ·(p·v) ≡ (λp)·v: delegate with scaled rates; U(L) rescales back.
        if self.factor == 0.0 {
            return vec![(self.period_cycles() as f64, 0.0); lambdas.len()];
        }
        let scaled: Vec<f64> = lambdas.iter().map(|l| l * self.factor).collect();
        self.inner
            .survival_weights(&scaled)
            .into_iter()
            .map(|(integral, u_total)| (integral, u_total * self.factor))
            .collect()
    }

    fn tiling(&self) -> Option<Vec<(Arc<dyn VulnerabilityTrace>, u64)>> {
        self.inner.tiling().map(|parts| {
            parts
                .into_iter()
                .map(|(t, k)| {
                    let scaled: Arc<dyn VulnerabilityTrace> =
                        Arc::new(ScaledTrace { inner: t, factor: self.factor });
                    (scaled, k)
                })
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IntervalTrace;

    fn base() -> Arc<dyn VulnerabilityTrace> {
        Arc::new(IntervalTrace::from_levels(&[1.0, 0.5, 0.0, 0.25]).unwrap())
    }

    #[test]
    fn factor_one_is_identity() {
        let b = base();
        let s = ScaledTrace::new(b.clone(), 1.0).unwrap();
        for c in 0..4 {
            assert_eq!(s.vulnerability_at(c), b.vulnerability_at(c));
        }
        assert_eq!(s.avf(), b.avf());
    }

    #[test]
    fn scales_pointwise_and_cumulative() {
        let s = ScaledTrace::new(base(), 0.5).unwrap();
        assert_eq!(s.vulnerability_at(0), 0.5);
        assert_eq!(s.vulnerability_at(1), 0.25);
        assert_eq!(s.vulnerability_at(2), 0.0);
        assert!((s.cumulative_within_period(4) - 0.875).abs() < 1e-12);
        assert_eq!(s.factor(), 0.5);
    }

    #[test]
    fn factor_zero_never_fails() {
        let s = ScaledTrace::new(base(), 0.0).unwrap();
        assert!(s.is_never_vulnerable());
        let (integral, u) = s.survival_weights(&[0.1])[0];
        assert_eq!(u, 0.0);
        assert_eq!(integral, 4.0);
    }

    #[test]
    fn survival_weight_matches_explicit_scaling() {
        let levels = [1.0, 0.5, 0.0, 0.25, 0.75, 0.0];
        let scaled_levels: Vec<f64> = levels.iter().map(|v| v * 0.3).collect();
        let explicit = IntervalTrace::from_levels(&scaled_levels).unwrap();
        let adapter =
            ScaledTrace::new(Arc::new(IntervalTrace::from_levels(&levels).unwrap()), 0.3).unwrap();
        for &lambda in &[1e-6, 0.01, 0.5] {
            let (ia, ua) = adapter.survival_weights(&[lambda])[0];
            let (ie, ue) = explicit.survival_weights(&[lambda])[0];
            assert!((ia - ie).abs() < 1e-12, "λ={lambda}");
            assert!((ua - ue).abs() < 1e-12, "λ={lambda}");
        }
    }

    #[test]
    fn rejects_out_of_range_factor() {
        assert!(ScaledTrace::new(base(), 1.5).is_err());
        assert!(ScaledTrace::new(base(), -0.1).is_err());
    }

    #[test]
    fn tiling_propagates_scaling() {
        let part: Arc<dyn VulnerabilityTrace> = Arc::new(IntervalTrace::busy_idle(2, 2).unwrap());
        let concat = Arc::new(crate::ConcatTrace::new(vec![(part, 3)]).unwrap());
        let scaled = ScaledTrace::new(concat, 0.5).unwrap();
        let tiling = scaled.tiling().expect("concat tiling visible through scale");
        assert_eq!(tiling.len(), 1);
        assert_eq!(tiling[0].1, 3);
        assert_eq!(tiling[0].0.vulnerability_at(0), 0.5);
    }
}
