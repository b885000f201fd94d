//! The SoftArch estimator front end.

use serr_trace::{fold_rates, RateFold, VulnerabilityTrace};
use serr_types::{Frequency, Mttf, RawErrorRate, SerrError};

use crate::Block;

/// SoftArch-style MTTF estimation from masking traces and raw error rates.
///
/// Internally, per-cycle failure probabilities (`1 − e^{−λ·v(c)/f}`) are
/// folded into [`Block`]s span by span (over the trace's coded spans, so a
/// list of rates shares one walk) and the expected time to first
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
    /// `rate`; a rate list folds over one coded walk of the trace, as in
    /// [`SoftArch::component_mttfs`].
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
        self.blocks_for(trace, &[rate]).pop().expect("one block per rate")
    }

    /// Folds one period of `trace` into a [`Block`] at every rate of
    /// `rates`, in input order. The trace's spans are coded in one walk
    /// ([`fold_rates`]); each distinct rate builds one block per distinct
    /// `(v, len)` pair, and the rates' chains compose them in span order,
    /// several rates at a time. Element `k` is bit-identical
    /// to the span-by-span fold at `rates[k]`; a zero rate fails only its
    /// own element.
    fn blocks_for(
        &self,
        trace: &dyn VulnerabilityTrace,
        rates: &[RawErrorRate],
    ) -> Vec<Result<Block, SerrError>> {
        let hz = self.frequency.hz();
        let lambdas: Vec<f64> =
            rates.iter().filter(|r| !r.is_zero()).map(|r| r.per_second_value() / hz).collect();
        let folded: Vec<Result<Block, SerrError>> = match fold_blocks(trace, &lambdas) {
            Ok(blocks) => blocks.into_iter().map(Ok).collect(),
            Err(e) => vec![Err(e); lambdas.len()],
        };
        let mut folded = folded.into_iter();
        rates
            .iter()
            .map(|rate| {
                if rate.is_zero() {
                    Err(SerrError::invalid_config("raw error rate is zero; MTTF is infinite"))
                } else {
                    folded.next().expect("one block per nonzero rate")
                }
            })
            .collect()
    }

    /// MTTF of a single component running `trace` forever: the one-rate
    /// case of [`SoftArch::component_mttfs`].
    ///
    /// # Errors
    ///
    /// Returns [`SerrError::InvalidTrace`] for an AVF-0 trace,
    /// [`SerrError::InvalidConfig`] for a zero rate, and
    /// [`SerrError::InvalidValue`] when the MTTF does not resolve to a
    /// positive duration at this rate.
    pub fn component_mttf(
        &self,
        trace: &dyn VulnerabilityTrace,
        rate: RawErrorRate,
    ) -> Result<Mttf, SerrError> {
        self.component_mttfs(trace, &[rate]).pop().expect("one MTTF per rate")
    }

    /// [`SoftArch::component_mttf`] at every rate of `rates`, in input
    /// order, from one block fold over the trace's coded span walk; errors
    /// are per rate.
    pub fn component_mttfs(
        &self,
        trace: &dyn VulnerabilityTrace,
        rates: &[RawErrorRate],
    ) -> Vec<Result<Mttf, SerrError>> {
        if trace.is_never_vulnerable() {
            let dead = SerrError::invalid_trace("trace has AVF = 0; the component can never fail");
            return vec![Err(dead); rates.len()];
        }
        self.blocks_for(trace, rates)
            .into_iter()
            .zip(rates)
            .map(|(block, rate)| self.mttf_of(&block?, *rate))
            .collect()
    }

    /// The MTTF of `block` repeated forever, as a positive duration.
    fn mttf_of(&self, block: &Block, rate: RawErrorRate) -> Result<Mttf, SerrError> {
        let at =
            |what: &str| format!("SoftArch {what} at {:e} errors/year", rate.events_per_year());
        let q = block.fail_prob();
        if q.is_nan() || q <= 0.0 {
            return Err(SerrError::invalid_value(at("per-period failure probability"), q));
        }
        let secs = block.mttf_cycles() / self.frequency.hz();
        Mttf::try_from_secs(secs).map_err(|_| SerrError::invalid_value(at("MTTF (s)"), secs))
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
        self.mttf_of(&whole, rate)
    }
}

/// The block fold at every per-cycle rate of `lambdas`. Tiled
/// representations (the `combined` workload) compose in closed form: fold
/// each part's blocks at every rate, tile them, and chain the parts.
fn fold_blocks(trace: &dyn VulnerabilityTrace, lambdas: &[f64]) -> Result<Vec<Block>, SerrError> {
    if lambdas.is_empty() {
        return Ok(Vec::new());
    }
    if let Some(parts) = trace.tiling() {
        let mut whole: Option<Vec<Block>> = None;
        for (part, tiles) in parts {
            let blocks = fold_blocks(&*part, lambdas)?.into_iter().map(|b| b.tile(tiles));
            whole = Some(match whole {
                Some(w) => w.iter().zip(blocks).map(|(w, b)| w.then(&b)).collect(),
                None => blocks.collect(),
            });
        }
        return whole.ok_or_else(|| SerrError::invalid_trace("empty tiling"));
    }
    let (chains, _) = fold_rates(trace, lambdas, &SpanFold);
    chains
        .into_iter()
        .map(|b| b.ok_or_else(|| SerrError::invalid_trace("trace has no breakpoints")))
        .collect()
}

/// SoftArch's span fold: each pair's `Block::constant(λ·v, len)` is built
/// once per rate, and each rate's chain composes them with [`Block::then`]
/// in span order from the first span's block — the operations of the
/// span-by-span fold, in its order. The chains are independent, so the
/// composition, latency-bound for one rate, overlaps across them.
struct SpanFold;

impl RateFold for SpanFold {
    type Pair = Block;
    type Acc = Block;
    const READS_MASS: bool = false;

    #[inline]
    fn price(&self, lambda_cycle: f64, v: f64, len: u64) -> Block {
        Block::constant(lambda_cycle * v, len)
    }

    #[inline]
    fn first(&self, _: f64, block: &Block) -> Block {
        *block
    }

    #[inline]
    fn step(&self, _: f64, chain: Block, block: &Block, _: f64) -> Block {
        chain.then(block)
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
