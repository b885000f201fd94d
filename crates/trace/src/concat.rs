//! Concatenation of tiled traces: the paper's `combined` workload.
//!
//! The `combined` synthesized workload "concatenates two SPEC benchmarks in
//! a loop with iteration size of 24 hours. The first half of the iteration
//! runs one benchmark and the second half runs the other" (Section 4.2). A
//! benchmark masking trace spans ~10⁶ cycles while 12 hours spans ~10¹⁴, so
//! each half tiles its benchmark trace tens of millions of times — far too
//! many spans to enumerate. [`ConcatTrace`] represents this exactly and
//! overrides [`VulnerabilityTrace::survival_weights`] with a geometric-series
//! closed form, keeping the renewal MTTF exact.

use std::sync::Arc;

use serr_types::SerrError;

use crate::{CompiledTrace, VulnerabilityTrace};

/// Stable `1 − e^{−x}`.
fn omen(x: f64) -> f64 {
    -(-x).exp_m1()
}

struct Part {
    trace: Arc<dyn VulnerabilityTrace>,
    tiles: u64,
    /// First cycle of this part within the concatenated period.
    start: u64,
    /// Cumulative vulnerability before this part starts.
    u_before: f64,
}

/// A periodic trace formed by running each inner trace for a whole number of
/// its periods ("tiles"), one part after another.
///
/// ```
/// use std::sync::Arc;
/// use serr_trace::{ConcatTrace, IntervalTrace, VulnerabilityTrace};
///
/// let a = Arc::new(IntervalTrace::busy_idle(2, 2).unwrap()); // AVF 0.5
/// let b = Arc::new(IntervalTrace::busy_idle(1, 3).unwrap()); // AVF 0.25
/// // Run a twice (8 cycles) then b twice (8 cycles): overall AVF = 0.375.
/// let c = ConcatTrace::new(vec![(a, 2), (b, 2)]).unwrap();
/// assert_eq!(c.period_cycles(), 16);
/// assert!((c.avf() - 0.375).abs() < 1e-12);
/// ```
pub struct ConcatTrace {
    parts: Vec<Part>,
    period: u64,
    u_total: f64,
}

impl std::fmt::Debug for ConcatTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConcatTrace")
            .field("parts", &self.parts.len())
            .field("period", &self.period)
            .field("avf", &self.avf())
            .finish()
    }
}

impl ConcatTrace {
    /// Builds a concatenation from `(trace, tiles)` parts, in order.
    ///
    /// # Errors
    ///
    /// Returns [`SerrError::InvalidTrace`] if `parts` is empty, any tile
    /// count is zero, or the total period overflows `u64`.
    pub fn new(parts: Vec<(Arc<dyn VulnerabilityTrace>, u64)>) -> Result<Self, SerrError> {
        if parts.is_empty() {
            return Err(SerrError::invalid_trace("concatenation requires at least one part"));
        }
        let mut built = Vec::with_capacity(parts.len());
        let mut start = 0u64;
        let mut u_before = 0.0f64;
        for (trace, tiles) in parts {
            if tiles == 0 {
                return Err(SerrError::invalid_trace("tile count must be positive"));
            }
            let inner_period = trace.period_cycles();
            let span = inner_period
                .checked_mul(tiles)
                .and_then(|s| s.checked_add(start).map(|_| s))
                .ok_or_else(|| SerrError::invalid_trace("concatenated period overflows u64"))?;
            let u_part = trace.cumulative_within_period(inner_period);
            built.push(Part { trace, tiles, start, u_before });
            start = start
                .checked_add(span)
                .ok_or_else(|| SerrError::invalid_trace("concatenated period overflows u64"))?;
            u_before += tiles as f64 * u_part;
        }
        Ok(ConcatTrace { parts: built, period: start, u_total: u_before })
    }

    /// Convenience for the paper's `combined` workload: part `a` tiled to
    /// fill `span_a` cycles, then part `b` to fill `span_b` cycles. Spans
    /// are rounded down to whole tiles (they must fit at least one).
    ///
    /// # Errors
    ///
    /// Returns [`SerrError::InvalidTrace`] if either span is shorter than
    /// one period of its trace.
    pub fn two_phase(
        a: Arc<dyn VulnerabilityTrace>,
        span_a: u64,
        b: Arc<dyn VulnerabilityTrace>,
        span_b: u64,
    ) -> Result<Self, SerrError> {
        let tiles_a = span_a / a.period_cycles();
        let tiles_b = span_b / b.period_cycles();
        if tiles_a == 0 || tiles_b == 0 {
            return Err(SerrError::invalid_trace(
                "each phase must fit at least one whole iteration of its workload",
            ));
        }
        ConcatTrace::new(vec![(a, tiles_a), (b, tiles_b)])
    }

    /// Number of parts.
    #[must_use]
    pub fn part_count(&self) -> usize {
        self.parts.len()
    }

    fn locate(&self, cycle_in_period: u64) -> (&Part, u64) {
        let idx = self.parts.partition_point(|p| p.start <= cycle_in_period).saturating_sub(1);
        let part = &self.parts[idx];
        (part, cycle_in_period - part.start)
    }
}

impl VulnerabilityTrace for ConcatTrace {
    fn period_cycles(&self) -> u64 {
        self.period
    }

    fn vulnerability_at(&self, cycle: u64) -> f64 {
        let (part, offset) = self.locate(cycle % self.period);
        part.trace.vulnerability_at(offset % part.trace.period_cycles())
    }

    fn cumulative_within_period(&self, r: u64) -> f64 {
        assert!(r <= self.period, "cycle {r} beyond period {}", self.period);
        if r == self.period {
            return self.u_total;
        }
        let (part, offset) = self.locate(r);
        part.u_before + part.trace.cumulative_vulnerability(offset)
    }

    /// # Panics
    ///
    /// Panics if the expanded breakpoint list could exceed
    /// [`CompiledTrace::MAX_SEGMENTS`] entries by the parts' span-count
    /// hints (e.g. a day-scale `combined` workload); the analytic path
    /// never needs it because [`ConcatTrace`] overrides `survival_weights`.
    fn breakpoints(&self) -> Vec<u64> {
        let total = self.span_count_hint();
        assert!(
            total <= CompiledTrace::MAX_SEGMENTS,
            "expanding {total} breakpoints is infeasible; use survival_weights instead"
        );
        let mut out = Vec::with_capacity(total as usize);
        for part in &self.parts {
            let inner = part.trace.breakpoints();
            let inner_period = part.trace.period_cycles();
            for tile in 0..part.tiles {
                let base = part.start + tile * inner_period;
                out.extend(inner.iter().map(|&b| base + b));
            }
        }
        out
    }

    fn tiling(&self) -> Option<Vec<(Arc<dyn VulnerabilityTrace>, u64)>> {
        Some(self.parts.iter().map(|p| (p.trace.clone(), p.tiles)).collect())
    }

    fn span_count_hint(&self) -> u64 {
        // Every tile repeats the inner span structure.
        self.parts
            .iter()
            .map(|p| p.tiles.saturating_mul(p.trace.span_count_hint()))
            .fold(0u64, u64::saturating_add)
    }

    fn survival_weights(&self, lambdas: &[f64]) -> Vec<(f64, f64)> {
        let parts = self.parts.iter().map(|p| (&*p.trace, p.tiles, p.u_before));
        tiled_survival_integrals(parts, lambdas).into_iter().map(|i| (i, self.u_total)).collect()
    }
}

/// The geometric-series closed form of `∫₀ᴸ e^{−λU(s)} ds` over parts laid
/// end to end, each `(inner trace, tiles, mass before the part)`, at every
/// rate of `lambdas` — shared by [`ConcatTrace`] and the tiled
/// [`crate::CompiledTrace`], so neither ever enumerates its tiles. Each
/// part prices the whole rate list in one call, so a coded part is coded
/// once.
///
/// # Panics
///
/// Panics if any rate is not positive.
pub(crate) fn tiled_survival_integrals<'a>(
    parts: impl Iterator<Item = (&'a dyn VulnerabilityTrace, u64, f64)>,
    lambdas: &[f64],
) -> Vec<f64> {
    for &l in lambdas {
        assert!(l > 0.0, "per-cycle rate must be positive");
    }
    let mut integrals = vec![0.0f64; lambdas.len()];
    for (trace, tiles, u_before) in parts {
        let weights = trace.survival_weights(lambdas);
        for ((integral, &lambda_cycle), (i_tile, u_tile)) in
            integrals.iter_mut().zip(lambdas).zip(weights)
        {
            let head = (-lambda_cycle * u_before).exp();
            // Σ_{j=0}^{k−1} e^{−jλU} · I = I · (1 − e^{−kλU})/(1 − e^{−λU}),
            // degenerating to k·I when the part is never vulnerable.
            let tiled = if u_tile > 0.0 {
                let x = lambda_cycle * u_tile;
                if x > 700.0 {
                    // Later tiles contribute nothing.
                    i_tile
                } else {
                    i_tile * omen(tiles as f64 * x) / omen(x)
                }
            } else {
                i_tile * tiles as f64
            };
            *integral += head * tiled;
        }
    }
    integrals
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IntervalTrace;

    fn arc(t: IntervalTrace) -> Arc<dyn VulnerabilityTrace> {
        Arc::new(t)
    }

    /// Reference: materialize the concatenation as a flat IntervalTrace.
    fn flatten(c: &ConcatTrace) -> IntervalTrace {
        let levels: Vec<f64> = (0..c.period_cycles()).map(|cy| c.vulnerability_at(cy)).collect();
        IntervalTrace::from_levels(&levels).unwrap()
    }

    #[test]
    fn pointwise_matches_flat_reference() {
        let c = ConcatTrace::new(vec![
            (arc(IntervalTrace::busy_idle(3, 2).unwrap()), 3),
            (arc(IntervalTrace::from_levels(&[0.5, 0.0, 1.0]).unwrap()), 2),
        ])
        .unwrap();
        assert_eq!(c.period_cycles(), 3 * 5 + 2 * 3);
        let flat = flatten(&c);
        for cy in 0..c.period_cycles() * 2 {
            assert_eq!(c.vulnerability_at(cy), flat.vulnerability_at(cy), "cycle {cy}");
        }
        for r in 0..=c.period_cycles() {
            assert!(
                (c.cumulative_within_period(r) - flat.cumulative_within_period(r)).abs() < 1e-9,
                "r={r}"
            );
        }
        assert!((c.avf() - flat.avf()).abs() < 1e-12);
    }

    #[test]
    fn survival_weight_matches_default_computation() {
        let c = ConcatTrace::new(vec![
            (arc(IntervalTrace::busy_idle(4, 6).unwrap()), 5),
            (arc(IntervalTrace::busy_idle(2, 2).unwrap()), 7),
        ])
        .unwrap();
        let flat = flatten(&c);
        for &lambda in &[1e-9, 1e-3, 0.05, 0.5] {
            let (ic, uc) = c.survival_weights(&[lambda])[0];
            let (ifl, ufl) = flat.survival_weights(&[lambda])[0];
            assert!((uc - ufl).abs() < 1e-9, "λ={lambda}");
            assert!(((ic - ifl) / ifl).abs() < 1e-10, "λ={lambda}: {ic} vs {ifl}");
        }
    }

    #[test]
    fn breakpoints_match_flat_semantics_when_small() {
        let c = ConcatTrace::new(vec![
            (arc(IntervalTrace::busy_idle(2, 1).unwrap()), 2),
            (arc(IntervalTrace::busy_idle(1, 1).unwrap()), 3),
        ])
        .unwrap();
        let bps = c.breakpoints();
        assert_eq!(*bps.last().unwrap(), c.period_cycles());
        let mut start = 0u64;
        for &end in &bps {
            let v = c.vulnerability_at(start);
            for cy in start..end {
                assert_eq!(c.vulnerability_at(cy), v);
            }
            start = end;
        }
    }

    #[test]
    fn day_scale_combined_survival_is_finite_and_sane() {
        // Two ~1e6-cycle benchmark-like traces tiled to 12 simulated hours
        // each at 2 GHz: ~4.3e7 tiles per half. survival_weights must work
        // without expanding breakpoints.
        let half_day_cycles = 43_200u64 * 2_000_000_000;
        let bench_a = arc(IntervalTrace::busy_idle(700_000, 300_000).unwrap()); // AVF 0.7
        let bench_b = arc(IntervalTrace::busy_idle(200_000, 800_000).unwrap()); // AVF 0.2
        let c = ConcatTrace::two_phase(bench_a, half_day_cycles, bench_b, half_day_cycles).unwrap();
        assert!((c.avf() - 0.45).abs() < 1e-9);
        // λL small: MTTF ≈ 1/(λ·AVF).
        let lambda = 1e-20;
        let (i, u) = c.survival_weights(&[lambda])[0];
        let mttf = i / omen(lambda * u);
        let expect = 1.0 / (lambda * 0.45);
        assert!(((mttf - expect) / expect).abs() < 1e-6);
    }

    #[test]
    fn rejects_invalid_construction() {
        assert!(ConcatTrace::new(vec![]).is_err());
        assert!(ConcatTrace::new(vec![(arc(IntervalTrace::busy_idle(1, 1).unwrap()), 0)]).is_err());
        // two_phase spans shorter than one iteration.
        assert!(ConcatTrace::two_phase(
            arc(IntervalTrace::busy_idle(5, 5).unwrap()),
            3,
            arc(IntervalTrace::busy_idle(1, 1).unwrap()),
            10,
        )
        .is_err());
    }

    #[test]
    #[should_panic(expected = "infeasible")]
    fn huge_breakpoint_expansion_panics() {
        let c = ConcatTrace::new(vec![(arc(IntervalTrace::busy_idle(1, 1).unwrap()), 10_000_000)])
            .unwrap();
        let _ = c.breakpoints();
    }
}
