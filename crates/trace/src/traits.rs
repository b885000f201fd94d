//! The [`VulnerabilityTrace`] abstraction.

use std::sync::Arc;

/// A periodic per-cycle vulnerability function `v(c) ∈ [0, 1]`.
///
/// `v(c)` is the probability that a raw error event striking the component in
/// cycle `c` causes a program-visible failure (is *not* architecturally
/// masked). The trace repeats with period [`period_cycles`], modeling the
/// paper's infinitely looping workload.
///
/// Implementors must guarantee:
///
/// * `period_cycles() > 0`;
/// * `vulnerability_at(c) ∈ [0, 1]` for all `c` (callers pass absolute cycle
///   counts; implementations reduce modulo the period);
/// * `cumulative_within_period(r)` equals `Σ_{c < r} v(c)` for
///   `r ≤ period_cycles()`, and is therefore monotone with
///   `cumulative_within_period(period_cycles()) == avf() × period`.
///
/// [`period_cycles`]: VulnerabilityTrace::period_cycles
pub trait VulnerabilityTrace: Send + Sync {
    /// The iteration length `L` in cycles.
    fn period_cycles(&self) -> u64;

    /// Vulnerability of the cycle `cycle mod period`.
    fn vulnerability_at(&self, cycle: u64) -> f64;

    /// `Σ_{c < r} v(c)` for `r` **within** one period (`0 ≤ r ≤ L`).
    ///
    /// # Panics
    ///
    /// Implementations may panic if `r > period_cycles()`.
    fn cumulative_within_period(&self, r: u64) -> f64;

    /// The architecture vulnerability factor: the average of `v` over the
    /// period (paper Section 2.2 — "the percentage of time the component
    /// contains ACE bits").
    fn avf(&self) -> f64 {
        self.cumulative_within_period(self.period_cycles()) / self.period_cycles() as f64
    }

    /// Cumulative vulnerability over an arbitrary span of `cycles` from the
    /// start of the trace: `k·U(L) + U(r)` where `cycles = k·L + r`.
    ///
    /// Returned as an `f64` count of "vulnerable cycles"; exact while the
    /// total stays below 2⁵³.
    fn cumulative_vulnerability(&self, cycles: u64) -> f64 {
        let period = self.period_cycles();
        let k = cycles / period;
        let r = cycles % period;
        k as f64 * self.cumulative_within_period(period) + self.cumulative_within_period(r)
    }

    /// True if every cycle is fully masked (`AVF = 0`): the component can
    /// never fail, and MTTF is undefined.
    fn is_never_vulnerable(&self) -> bool {
        self.avf() == 0.0
    }

    /// Sorted, strictly increasing cycle offsets at which the vulnerability
    /// may change, ending with `period_cycles()`. Between consecutive
    /// breakpoints the vulnerability is constant, which lets analytic
    /// solvers integrate the survival function in closed form per span.
    fn breakpoints(&self) -> Vec<u64>;

    /// Walks the constant-vulnerability spans of one period in order, as
    /// `(end, v)`: `end` runs through [`breakpoints`] and `v` is the
    /// vulnerability over `[previous end, end)`, bit-equal to
    /// `vulnerability_at(previous end)`.
    ///
    /// Span-by-span consumers (the span coding behind the renewal integral
    /// and SoftArch's block fold, compilation, transforms) read the walk
    /// instead of looking each span up by cycle. The default is exactly
    /// that lookup loop; table-backed representations override it to read
    /// their tables in order.
    ///
    /// [`breakpoints`]: VulnerabilityTrace::breakpoints
    fn spans(&self) -> Box<dyn Iterator<Item = (u64, f64)> + '_> {
        Box::new(lookup_spans(self))
    }

    /// The survival-function integrals that determine the exact renewal
    /// MTTF, at every per-cycle raw error rate of `lambdas`: element `k` is
    /// `(∫₀ᴸ e^{−λₖU(s)} ds, U(L))` where `U(s)` is the cumulative
    /// vulnerability and `L` the period (both in cycle units).
    ///
    /// The default codes the span walk once and integrates span by span in
    /// closed form for every rate over it ([`fold_rates`]);
    /// representations whose span list would be astronomically long (a
    /// trace tiled millions of times, like the paper's `combined` workload)
    /// override this with a closed form over their parts.
    ///
    /// # Panics
    ///
    /// May panic if any rate is not positive.
    ///
    /// [`fold_rates`]: crate::fold_rates
    fn survival_weights(&self, lambdas: &[f64]) -> Vec<(f64, f64)> {
        crate::codes::coded_survival_weights(self, lambdas)
    }

    /// Structural decomposition for representations built by tiling other
    /// traces (e.g. [`crate::ConcatTrace`]): the ordered `(part, tiles)`
    /// list, or `None` for flat traces. Estimators that fold per-cycle
    /// quantities (like SoftArch's block algebra) use this to handle
    /// day-scale tiled workloads in closed form instead of enumerating
    /// breakpoints.
    fn tiling(&self) -> Option<Vec<(Arc<dyn VulnerabilityTrace>, u64)>> {
        None
    }

    /// An upper bound on `breakpoints().len()` — the number of
    /// constant-vulnerability spans in one period — that must be cheap to
    /// compute (no span enumeration). [`crate::CompiledTrace::compile`]
    /// consults it to decide whether a trace can be flattened without
    /// materializing an astronomically long span list (a day-scale
    /// [`crate::ConcatTrace`] tiles a benchmark trace tens of millions of
    /// times). The default is the period itself: one span per cycle is
    /// always an upper bound. Representations with compact structure
    /// override this with their true span count.
    fn span_count_hint(&self) -> u64 {
        self.period_cycles()
    }

    /// True if the vulnerability is exactly `0.0` or `1.0` at every cycle
    /// (a pure busy/idle trace). The Monte Carlo sampler uses this to skip
    /// the Bernoulli masking draw on the hot path; `false` is always a
    /// correct (conservative) answer and is the default, because deciding
    /// it may cost a scan. [`crate::CompiledTrace`] precomputes it once.
    fn is_binary(&self) -> bool {
        false
    }
}

impl<T: VulnerabilityTrace + ?Sized> VulnerabilityTrace for &T {
    fn period_cycles(&self) -> u64 {
        (**self).period_cycles()
    }
    fn vulnerability_at(&self, cycle: u64) -> f64 {
        (**self).vulnerability_at(cycle)
    }
    fn cumulative_within_period(&self, r: u64) -> f64 {
        (**self).cumulative_within_period(r)
    }
    fn avf(&self) -> f64 {
        (**self).avf()
    }
    fn breakpoints(&self) -> Vec<u64> {
        (**self).breakpoints()
    }
    fn spans(&self) -> Box<dyn Iterator<Item = (u64, f64)> + '_> {
        (**self).spans()
    }
    fn survival_weights(&self, lambdas: &[f64]) -> Vec<(f64, f64)> {
        (**self).survival_weights(lambdas)
    }
    fn tiling(&self) -> Option<Vec<(Arc<dyn VulnerabilityTrace>, u64)>> {
        (**self).tiling()
    }
    fn span_count_hint(&self) -> u64 {
        (**self).span_count_hint()
    }
    fn is_binary(&self) -> bool {
        (**self).is_binary()
    }
}

impl<T: VulnerabilityTrace + ?Sized> VulnerabilityTrace for std::sync::Arc<T> {
    fn period_cycles(&self) -> u64 {
        (**self).period_cycles()
    }
    fn vulnerability_at(&self, cycle: u64) -> f64 {
        (**self).vulnerability_at(cycle)
    }
    fn cumulative_within_period(&self, r: u64) -> f64 {
        (**self).cumulative_within_period(r)
    }
    fn avf(&self) -> f64 {
        (**self).avf()
    }
    fn breakpoints(&self) -> Vec<u64> {
        (**self).breakpoints()
    }
    fn spans(&self) -> Box<dyn Iterator<Item = (u64, f64)> + '_> {
        (**self).spans()
    }
    fn survival_weights(&self, lambdas: &[f64]) -> Vec<(f64, f64)> {
        (**self).survival_weights(lambdas)
    }
    fn tiling(&self) -> Option<Vec<(Arc<dyn VulnerabilityTrace>, u64)>> {
        (**self).tiling()
    }
    fn span_count_hint(&self) -> u64 {
        (**self).span_count_hint()
    }
    fn is_binary(&self) -> bool {
        (**self).is_binary()
    }
}

/// The [`VulnerabilityTrace::spans`] default: one `vulnerability_at` lookup
/// per breakpoint. Overrides that cannot read a table for some layout fall
/// back to it.
pub(crate) fn lookup_spans<T: VulnerabilityTrace + ?Sized>(
    trace: &T,
) -> impl Iterator<Item = (u64, f64)> + '_ {
    let mut start = 0u64;
    trace.breakpoints().into_iter().map(move |end| {
        let v = trace.vulnerability_at(start);
        start = end;
        (end, v)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IntervalTrace;
    use std::sync::Arc;

    #[test]
    fn cumulative_over_multiple_periods() {
        let t = IntervalTrace::busy_idle(2, 2).unwrap();
        // Period 4, U(L) = 2.
        assert_eq!(t.cumulative_vulnerability(0), 0.0);
        assert_eq!(t.cumulative_vulnerability(4), 2.0);
        assert_eq!(t.cumulative_vulnerability(9), 4.0 + 1.0);
        assert_eq!(t.cumulative_vulnerability(11), 4.0 + 2.0);
    }

    #[test]
    fn trait_object_and_smart_pointer_forwarding() {
        let t = IntervalTrace::busy_idle(1, 3).unwrap();
        let by_ref: &dyn VulnerabilityTrace = &t;
        assert_eq!(by_ref.avf(), 0.25);
        let arc: Arc<dyn VulnerabilityTrace> = Arc::new(t);
        assert_eq!(arc.avf(), 0.25);
        assert_eq!(arc.period_cycles(), 4);
        assert_eq!(arc.vulnerability_at(4), 1.0);
        assert_eq!(arc.cumulative_within_period(2), 1.0);
        assert!(!arc.is_never_vulnerable());
    }

    #[test]
    fn never_vulnerable_detection() {
        let t = IntervalTrace::constant(10, 0.0).unwrap();
        assert!(t.is_never_vulnerable());
        let t = IntervalTrace::constant(10, 0.5).unwrap();
        assert!(!t.is_never_vulnerable());
    }
}
