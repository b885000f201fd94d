//! The SoftArch estimator front end.

use serr_trace::VulnerabilityTrace;
use serr_types::{Frequency, Mttf, RawErrorRate, SerrError};

use crate::Block;

/// SoftArch-style MTTF estimation from masking traces and raw error rates.
///
/// Internally, per-cycle failure probabilities (`1 − e^{−λ·v(c)/f}`) are
/// folded into [`Block`]s span by span and the expected time to first
/// failure is read off the composed block — no uniformity (AVF) or
/// exponentiality (SOFR) assumption anywhere.
#[derive(Debug, Clone, Copy)]
pub struct SoftArch {
    frequency: Frequency,
}

impl SoftArch {
    /// Creates an estimator for a machine clocked at `frequency`.
    #[must_use]
    pub fn new(frequency: Frequency) -> Self {
        SoftArch { frequency }
    }

    /// The clock frequency.
    #[must_use]
    pub fn frequency(&self) -> Frequency {
        self.frequency
    }

    /// Folds one period of `trace` into a [`Block`] under raw error rate
    /// `rate`.
    ///
    /// # Errors
    ///
    /// Returns [`SerrError::InvalidConfig`] for a zero rate.
    ///
    pub fn block_for(
        &self,
        trace: &dyn VulnerabilityTrace,
        rate: RawErrorRate,
    ) -> Result<Block, SerrError> {
        if rate.is_zero() {
            return Err(SerrError::invalid_config("raw error rate is zero; MTTF is infinite"));
        }
        // Tiled representations (the `combined` workload) compose in closed
        // form: fold each part's block and tile it.
        if let Some(parts) = trace.tiling() {
            let mut whole: Option<Block> = None;
            for (part, tiles) in parts {
                let b = self.block_for(&*part, rate)?.tile(tiles);
                whole = Some(match whole {
                    Some(w) => w.then(&b),
                    None => b,
                });
            }
            return whole.ok_or_else(|| SerrError::invalid_trace("empty tiling"));
        }
        let lambda_cycle = rate.per_second_value() / self.frequency.hz();
        let mut block: Option<Block> = None;
        let mut start = 0u64;
        for (end, v) in trace.spans() {
            let seg = Block::constant(lambda_cycle * v, end - start);
            block = Some(match block {
                Some(b) => b.then(&seg),
                None => seg,
            });
            start = end;
        }
        block.ok_or_else(|| SerrError::invalid_trace("trace has no breakpoints"))
    }

    /// MTTF of a single component running `trace` forever.
    ///
    /// # Errors
    ///
    /// Returns [`SerrError::InvalidTrace`] for an AVF-0 trace and
    /// [`SerrError::InvalidConfig`] for a zero rate.
    pub fn component_mttf(
        &self,
        trace: &dyn VulnerabilityTrace,
        rate: RawErrorRate,
    ) -> Result<Mttf, SerrError> {
        if trace.is_never_vulnerable() {
            return Err(SerrError::invalid_trace(
                "trace has AVF = 0; the component can never fail",
            ));
        }
        let block = self.block_for(trace, rate)?;
        Ok(Mttf::from_secs(block.mttf_cycles() / self.frequency.hz()))
    }

    /// MTTF of a workload built by tiling each `(trace, tiles)` part in
    /// sequence and looping — the paper's `combined` workload, where each
    /// 12-hour half tiles one benchmark's masking trace tens of millions of
    /// times.
    ///
    /// # Errors
    ///
    /// Returns [`SerrError::InvalidConfig`] for empty parts, a zero tile
    /// count, or a zero rate; [`SerrError::InvalidTrace`] if nothing can
    /// ever fail.
    pub fn tiled_mttf(
        &self,
        parts: &[(&dyn VulnerabilityTrace, u64)],
        rate: RawErrorRate,
    ) -> Result<Mttf, SerrError> {
        if parts.is_empty() {
            return Err(SerrError::invalid_config("at least one part required"));
        }
        let mut whole: Option<Block> = None;
        for &(trace, tiles) in parts {
            if tiles == 0 {
                return Err(SerrError::invalid_config("tile count must be positive"));
            }
            let part = self.block_for(trace, rate)?.tile(tiles);
            whole = Some(match whole {
                Some(b) => b.then(&part),
                None => part,
            });
        }
        let whole = whole.expect("non-empty by check above");
        if whole.fail_prob() == 0.0 {
            return Err(SerrError::invalid_trace(
                "workload has AVF = 0; the component can never fail",
            ));
        }
        Ok(Mttf::from_secs(whole.mttf_cycles() / self.frequency.hz()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serr_trace::IntervalTrace;

    fn sa() -> SoftArch {
        SoftArch::new(Frequency::base())
    }

    #[test]
    fn agrees_with_renewal_across_regimes() {
        // The paper's Section 5.4 result in miniature: SoftArch matches the
        // first-principles MTTF everywhere, including where AVF fails.
        let freq = Frequency::base();
        let trace = IntervalTrace::busy_idle(600_000, 400_000).unwrap();
        for &per_year in &[1e-2, 1.0, 1e3, 1e6, 1e9] {
            let rate = RawErrorRate::per_year(per_year);
            let soft = sa().component_mttf(&trace, rate).unwrap();
            let renewal = serr_analytic::renewal::renewal_mttf(&trace, rate, freq).unwrap();
            let err = (soft.as_secs() - renewal.as_secs()).abs() / renewal.as_secs();
            assert!(err < 1e-6, "rate {per_year}/yr: err {err}");
        }
    }

    #[test]
    fn fractional_vulnerability_supported() {
        let trace =
            IntervalTrace::from_levels(&[0.5, 0.25, 0.0, 1.0, 0.125, 0.0, 0.0, 0.0]).unwrap();
        let rate = RawErrorRate::per_year(50.0);
        let soft = sa().component_mttf(&trace, rate).unwrap();
        let renewal =
            serr_analytic::renewal::renewal_mttf(&trace, rate, Frequency::base()).unwrap();
        let err = (soft.as_secs() - renewal.as_secs()).abs() / renewal.as_secs();
        assert!(err < 1e-6, "err {err}");
    }

    #[test]
    fn tiled_combined_workload_matches_concat_trace_renewal() {
        use std::sync::Arc;
        let freq = Frequency::base();
        let bench_a = IntervalTrace::busy_idle(700, 300).unwrap();
        let bench_b = IntervalTrace::busy_idle(100, 900).unwrap();
        // 5000 tiles each — small enough for the renewal reference to
        // enumerate, big enough to exercise the closed form.
        let concat = serr_trace::ConcatTrace::new(vec![
            (Arc::new(bench_a.clone()) as Arc<dyn VulnerabilityTrace>, 5000),
            (Arc::new(bench_b.clone()) as Arc<dyn VulnerabilityTrace>, 5000),
        ])
        .unwrap();
        let rate = RawErrorRate::per_year(2.0e5);
        let soft = sa().tiled_mttf(&[(&bench_a, 5000), (&bench_b, 5000)], rate).unwrap();
        let renewal = serr_analytic::renewal::renewal_mttf(&concat, rate, freq).unwrap();
        let err = (soft.as_secs() - renewal.as_secs()).abs() / renewal.as_secs();
        assert!(err < 1e-5, "err {err}");
    }

    #[test]
    fn processor_mttf_combines_unit_intensities() {
        // One busy unit and one half-busy unit with equal rates: the
        // processor must fail faster than either alone. A raw error lands on
        // a unit in proportion to its rate, so the processor is the
        // rate-weighted composite of the unit traces under the summed rate.
        use serr_trace::CompositeTrace;
        use std::sync::Arc;
        let always = IntervalTrace::constant(1000, 1.0).unwrap();
        let half = IntervalTrace::busy_idle(500, 500).unwrap();
        let idle = IntervalTrace::constant(1000, 0.0).unwrap();
        let r = RawErrorRate::per_year(10.0);
        let units: Vec<(f64, Arc<dyn VulnerabilityTrace>)> =
            [always.clone(), half, idle.clone(), idle]
                .into_iter()
                .map(|t| (r.per_second_value(), Arc::new(t) as Arc<dyn VulnerabilityTrace>))
                .collect();
        let cpu = CompositeTrace::new(units).unwrap();
        let proc = sa().component_mttf(&cpu, r.scale(4.0)).unwrap();
        let int_only = sa().component_mttf(&always, r).unwrap();
        assert!(proc.as_secs() < int_only.as_secs());
        // λL tiny: intensities average, MTTF ≈ 1/(λ_int + λ_fp·0.5).
        let want = 1.0 / (r.per_second_value() * 1.5);
        assert!((proc.as_secs() - want).abs() / want < 1e-6);
    }

    #[test]
    fn rejects_degenerate_inputs() {
        let live = IntervalTrace::constant(10, 1.0).unwrap();
        let dead = IntervalTrace::constant(10, 0.0).unwrap();
        assert!(sa().component_mttf(&live, RawErrorRate::ZERO).is_err());
        assert!(sa().component_mttf(&dead, RawErrorRate::per_year(1.0)).is_err());
        assert!(sa().tiled_mttf(&[], RawErrorRate::per_year(1.0)).is_err());
        assert!(sa().tiled_mttf(&[(&live, 0)], RawErrorRate::per_year(1.0)).is_err());
        assert!(sa().tiled_mttf(&[(&dead, 5)], RawErrorRate::per_year(1.0)).is_err());
    }
}
