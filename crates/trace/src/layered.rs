//! Per-bit vulnerability layers over a shared period.

use std::fmt;
use std::sync::{Arc, OnceLock};

use serr_types::SerrError;

use crate::compose::merge_spans;
use crate::{CompiledTrace, IntervalTrace, IntervalTraceBuilder, VulnerabilityTrace};

/// N per-bit vulnerability layers over a shared period, presented to the
/// rest of the system as one scalar [`VulnerabilityTrace`].
///
/// The paper's pipeline models each structure as a single scalar
/// vulnerability stream; bit-level analyses (BEC-style) argue masking must
/// be resolved per bit. `BitLayeredTrace` holds both views: layer `b` is
/// the vulnerability trace of bit `b` (any [`VulnerabilityTrace`]), and
/// the scalar projection — the equal-weight mean across layers at every
/// cycle, i.e. the probability that a raw strike on a uniformly chosen bit
/// is unmasked — is computed lazily, cached, and used to answer every
/// trait query. Existing estimators therefore consume a layered trace
/// unchanged, while bit-resolved rewrites ([`BitLayeredTrace::ecc_secded`])
/// can exploit the per-layer structure the projection discards.
///
/// The projection is materialized at most once (a sorted union of the
/// layers' breakpoints, bounded by the same span cap as
/// [`CompiledTrace::MAX_SEGMENTS`], enforced at construction) and shared
/// across threads via [`OnceLock`] — concurrent first queries race only on
/// who stores the identical result, so answers are deterministic and
/// independent of thread count.
pub struct BitLayeredTrace {
    layers: Vec<Arc<dyn VulnerabilityTrace>>,
    period: u64,
    projection: OnceLock<IntervalTrace>,
}

impl fmt::Debug for BitLayeredTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BitLayeredTrace")
            .field("layers", &self.layers.len())
            .field("period", &self.period)
            .field("projected", &self.projection.get().is_some())
            .finish()
    }
}

impl BitLayeredTrace {
    /// Builds a layered trace from per-bit layers.
    ///
    /// # Errors
    ///
    /// Returns [`SerrError::InvalidTrace`] if `layers` is empty, the
    /// layers disagree on the period, or the combined span structure is
    /// too large to ever project (sum of span hints beyond
    /// [`CompiledTrace::MAX_SEGMENTS`]).
    pub fn new(layers: Vec<Arc<dyn VulnerabilityTrace>>) -> Result<Self, SerrError> {
        let Some(first) = layers.first() else {
            return Err(SerrError::invalid_trace("layered trace needs at least one layer"));
        };
        let period = first.period_cycles();
        for (i, layer) in layers.iter().enumerate() {
            if layer.period_cycles() != period {
                return Err(SerrError::invalid_trace(format!(
                    "layer {i} has period {}, layer 0 has {period}; \
                     layers must share one iteration length",
                    layer.period_cycles()
                )));
            }
        }
        let spans: u64 = layers.iter().map(|l| l.span_count_hint()).fold(0, u64::saturating_add);
        if spans > CompiledTrace::MAX_SEGMENTS {
            return Err(SerrError::invalid_trace(format!(
                "layers report {spans} combined spans, beyond the {}-span projection limit",
                CompiledTrace::MAX_SEGMENTS
            )));
        }
        Ok(BitLayeredTrace { layers, period, projection: OnceLock::new() })
    }

    /// Number of bit layers.
    #[must_use]
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// The layer for bit `index`, or `None` past the end.
    #[must_use]
    pub fn layer(&self, index: usize) -> Option<&Arc<dyn VulnerabilityTrace>> {
        self.layers.get(index)
    }

    /// Rebuilds the trace span by span over the union of the layers'
    /// breakpoints, with `value` mapping the layers' vulnerabilities over a
    /// span to the span's new vulnerability.
    fn fold_layers(&self, value: impl Fn(&[f64]) -> f64) -> Result<IntervalTrace, SerrError> {
        let mut builder = IntervalTraceBuilder::new();
        let mut start = 0u64;
        merge_spans(self.layers.iter().map(|l| &**l), |end, vs| {
            builder.push_cycles(end - start, value(vs))?;
            start = end;
            Ok(())
        })?;
        builder.finish()
    }

    /// The cached scalar projection: at each cycle, the mean of the layer
    /// vulnerabilities (a uniformly targeted strike hits each bit with
    /// probability `1/N`).
    fn projection(&self) -> &IntervalTrace {
        self.projection.get_or_init(|| {
            let inv_n = 1.0 / self.layers.len() as f64;
            self.fold_layers(|vs| (vs.iter().sum::<f64>() * inv_n).clamp(0.0, 1.0))
                .expect("the mean of [0,1] layer values is clamped into range, over >= 1 span")
        })
    }

    /// Bit-resolved SEC-DED rewrite: bit `b`'s contribution at cycle `c`
    /// survives only when at least one *other* bit of the word is
    /// simultaneously vulnerable (single-bit errors are corrected;
    /// double-bit coincidence windows are kept):
    ///
    /// `v'(c) = (1/N) · Σ_b v_b(c) · (1 − Π_{b'≠b} (1 − v_b'(c)))`
    ///
    /// With N identical layers this reduces exactly to the scalar
    /// [`crate::Transform::EccSecDed`] formula with `word_bits = N`; with
    /// heterogeneous layers it prices the coincidences the scalar
    /// projection cannot see. A single-layer word has no second bit, so
    /// every error is corrected and the result is all-zero.
    ///
    /// # Errors
    ///
    /// Returns [`SerrError::InvalidTrace`] if the rewritten values fail
    /// trace validation (unreachable for layers honoring the `[0, 1]`
    /// contract).
    pub fn ecc_secded(&self) -> Result<IntervalTrace, SerrError> {
        let inv_n = 1.0 / self.layers.len() as f64;
        self.fold_layers(|vs| {
            let mut unprotected = 0.0f64;
            for (b, &v) in vs.iter().enumerate() {
                let others_clear: f64 = vs
                    .iter()
                    .enumerate()
                    .filter(|&(b2, _)| b2 != b)
                    .map(|(_, &v2)| 1.0 - v2)
                    .product();
                unprotected += v * (1.0 - others_clear);
            }
            (unprotected * inv_n).clamp(0.0, 1.0)
        })
    }
}

impl VulnerabilityTrace for BitLayeredTrace {
    fn period_cycles(&self) -> u64 {
        self.period
    }

    fn vulnerability_at(&self, cycle: u64) -> f64 {
        self.projection().vulnerability_at(cycle)
    }

    fn cumulative_within_period(&self, r: u64) -> f64 {
        self.projection().cumulative_within_period(r)
    }

    fn breakpoints(&self) -> Vec<u64> {
        self.projection().breakpoints()
    }

    fn spans(&self) -> Box<dyn Iterator<Item = (u64, f64)> + '_> {
        self.projection().spans()
    }

    fn span_count_hint(&self) -> u64 {
        match self.projection.get() {
            Some(p) => p.span_count_hint(),
            // Not yet projected: the union is bounded by the sum of the
            // layers' own hints (each ≤ its claim by the trait contract).
            None => self.layers.iter().map(|l| l.span_count_hint()).fold(0, u64::saturating_add),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Transform;

    fn layer(levels: &[f64]) -> Arc<dyn VulnerabilityTrace> {
        Arc::new(IntervalTrace::from_levels(levels).unwrap())
    }

    #[test]
    fn projection_is_the_mean_of_the_layers() {
        let t = BitLayeredTrace::new(vec![
            layer(&[1.0, 0.0, 0.0, 1.0]),
            layer(&[0.0, 0.0, 1.0, 1.0]),
            layer(&[0.5, 0.5, 0.5, 0.5]),
        ])
        .unwrap();
        assert_eq!(t.period_cycles(), 4);
        let want = [0.5, 1.0 / 6.0, 0.5, 2.5 / 3.0];
        for (c, &w) in want.iter().enumerate() {
            assert!((t.vulnerability_at(c as u64) - w).abs() < 1e-15, "cycle {c}");
        }
        assert!((t.avf() - want.iter().sum::<f64>() / 4.0).abs() < 1e-15);
        // The projection is cached: repeated queries agree bit-for-bit.
        assert_eq!(t.breakpoints(), t.breakpoints());
    }

    #[test]
    fn rejects_empty_and_mismatched_layers() {
        assert!(BitLayeredTrace::new(vec![]).is_err());
        let err =
            BitLayeredTrace::new(vec![layer(&[1.0, 0.0]), layer(&[1.0, 0.0, 0.0])]).unwrap_err();
        assert!(matches!(err, SerrError::InvalidTrace { .. }));
    }

    #[test]
    fn layered_ecc_reduces_to_the_scalar_formula_on_identical_layers() {
        let n = 8u32;
        let levels = [0.05, 0.3, 0.0, 0.9, 0.12];
        let t = BitLayeredTrace::new((0..n).map(|_| layer(&levels)).collect()).unwrap();
        let bitwise = t.ecc_secded().unwrap();
        let scalar = Transform::EccSecDed { word_bits: n }
            .apply(&IntervalTrace::from_levels(&levels).unwrap())
            .unwrap();
        assert_eq!(bitwise.period_cycles(), scalar.period_cycles());
        for c in 0..levels.len() as u64 {
            assert!(
                (bitwise.vulnerability_at(c) - scalar.vulnerability_at(c)).abs() < 1e-15,
                "cycle {c}: bitwise {} vs scalar {}",
                bitwise.vulnerability_at(c),
                scalar.vulnerability_at(c)
            );
        }
    }

    #[test]
    fn single_layer_ecc_corrects_everything() {
        let t = BitLayeredTrace::new(vec![layer(&[1.0, 0.5, 0.0])]).unwrap();
        let out = t.ecc_secded().unwrap();
        assert_eq!(out.avf(), 0.0);
        assert!(out.is_never_vulnerable());
    }

    #[test]
    fn heterogeneous_layers_expose_coincidence_structure() {
        // Two bits, vulnerable in disjoint windows: no double-bit
        // coincidences anywhere, so ECC removes everything — while the
        // scalar formula applied to the (nonzero) projection would not.
        let t =
            BitLayeredTrace::new(vec![layer(&[1.0, 0.0, 0.0, 0.0]), layer(&[0.0, 0.0, 1.0, 0.0])])
                .unwrap();
        assert!(t.avf() > 0.0);
        assert_eq!(t.ecc_secded().unwrap().avf(), 0.0);
    }

    #[test]
    fn estimator_facing_queries_work_through_the_trait_object() {
        let t: Arc<dyn VulnerabilityTrace> =
            Arc::new(BitLayeredTrace::new(vec![layer(&[1.0, 0.0]), layer(&[1.0, 1.0])]).unwrap());
        assert_eq!(t.vulnerability_at(0), 1.0);
        assert_eq!(t.vulnerability_at(1), 0.5);
        assert_eq!(t.cumulative_within_period(2), 1.5);
        let compiled = CompiledTrace::compile(&t).unwrap();
        compiled.verify().unwrap();
        assert_eq!(compiled.avf(), 0.75);
    }
}
