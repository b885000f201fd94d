//! Protection-model transforms: trace → trace rewrites for ECC coverage,
//! periodic scrubbing, and delayed error reporting.
//!
//! A [`Transform`] rewrites a vulnerability trace into the trace an
//! architecture *with that protection mechanism* would exhibit, so every
//! estimator (renewal, SoftArch, Monte Carlo) prices the mechanism without
//! changing a line: the transformed trace is just another
//! [`VulnerabilityTrace`]. Transforms compose left-to-right through a
//! [`TransformPipeline`] and run **before** [`CompiledTrace`] compilation —
//! the output is an ordinary [`IntervalTrace`], so the batched inversion
//! sampler's `O(1)` hot path never sees a transform at query time.
//!
//! The three mechanisms (and the related work motivating them):
//!
//! * [`Transform::EccSecDed`] — single-error-correct/double-error-detect
//!   coding over `word_bits`-bit words. A raw error in one bit is corrected
//!   unless a second bit of the same word is simultaneously vulnerable, so
//!   `v ↦ v · (1 − (1 − v)^(word_bits−1))`: quadratic suppression
//!   `≈ (word_bits−1)·v²` for small `v`, and — a finding the experiments
//!   lean on — **no** protection at `v = 1`, i.e. ECC is invisible on the
//!   paper's binary busy/idle traces.
//! * [`Transform::Scrub`] — periodic scrubbing with interval `T` cycles:
//!   accumulated state is rewritten at every scrub boundary, so effective
//!   vulnerability is zeroed there and re-accrues linearly,
//!   `v(c) ↦ v(c) · ((c mod T)/T)`, discretized as a mass-preserving
//!   staircase ([`RAMP_STEPS`] steps per span×interval piece). A constant
//!   trace's AVF exactly halves.
//! * [`Transform::DelayReport`] — delayed error reporting with window `d`:
//!   an error striking cycle `c` only matters if the state is still live
//!   when reporting fires at `c + d`, so `v'(c) = v(c + d)` for
//!   `c < L − d` and `0` in the final `d` cycles of the period (those
//!   strikes are overwritten by the next iteration before they report).
//!
//! All rewrites are pure segment-vector passes: deterministic, independent
//! of thread count, and value-monotone (`v' ≤ v` pointwise for ECC and
//! scrubbing; delay is a rearrangement that only removes mass), which is
//! what lets the CI smoke assert protected MTTF ≥ baseline.

use std::fmt;
use std::sync::Arc;

use serr_types::SerrError;

use crate::{CompiledTrace, IntervalTrace, IntervalTraceBuilder, VulnerabilityTrace};

/// Sub-steps used to discretize the scrubbing ramp inside each
/// span×scrub-interval piece. Each step carries the exact average of the
/// linear ramp over its cycles (midpoint rule, exact for linear functions),
/// so the staircase preserves vulnerability mass per piece while bounding
/// the output segment count.
pub const RAMP_STEPS: u64 = 16;

/// One protection mechanism as a trace rewrite. See the module docs for
/// the semantics of each variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Transform {
    /// Leaves the trace untouched (useful as a pipeline placeholder; an
    /// all-identity pipeline is a guaranteed zero-cost no-op).
    Identity,
    /// SEC-DED ECC over words of `word_bits` bits (`≥ 2`).
    EccSecDed {
        /// Protected word width in bits, including check bits' coverage.
        word_bits: u32,
    },
    /// Periodic scrubbing every `interval_cycles` cycles (`> 0`).
    Scrub {
        /// Scrub interval in cycles. The ramp phase resets at the period
        /// start (the scrubber is modeled as synchronized with the
        /// workload iteration).
        interval_cycles: u64,
    },
    /// Delayed error reporting with a `window_cycles` reporting window
    /// (must be smaller than the trace period at application time).
    DelayReport {
        /// Reporting delay in cycles.
        window_cycles: u64,
    },
}

impl Transform {
    /// Validates the variant's parameters.
    ///
    /// Period-dependent checks (delay window vs. period) happen at
    /// application time; this catches the unconditionally invalid shapes.
    ///
    /// # Errors
    ///
    /// Returns [`SerrError::InvalidTrace`] for `word_bits < 2` or a zero
    /// scrub interval.
    pub fn validate(&self) -> Result<(), SerrError> {
        match *self {
            Transform::Identity | Transform::DelayReport { .. } => Ok(()),
            Transform::EccSecDed { word_bits } => {
                if word_bits < 2 {
                    return Err(SerrError::invalid_trace(format!(
                        "ecc word width must cover at least 2 bits, got {word_bits}"
                    )));
                }
                Ok(())
            }
            Transform::Scrub { interval_cycles } => {
                if interval_cycles == 0 {
                    return Err(SerrError::invalid_trace("scrub interval must be positive"));
                }
                Ok(())
            }
        }
    }

    /// Rewrites one interval trace. Deterministic and single-threaded; the
    /// output period always equals the input period.
    ///
    /// # Errors
    ///
    /// Returns [`SerrError::InvalidTrace`] for invalid parameters (see
    /// [`Transform::validate`]), a delay window not smaller than the
    /// period, or a scrub rewrite whose staircase would exceed the
    /// [`CompiledTrace::MAX_SEGMENTS`] compilation cap.
    pub fn apply(&self, trace: &IntervalTrace) -> Result<IntervalTrace, SerrError> {
        self.validate()?;
        match *self {
            Transform::Identity => Ok(trace.clone()),
            Transform::EccSecDed { word_bits } => apply_ecc(trace, word_bits),
            Transform::Scrub { interval_cycles } => apply_scrub(trace, interval_cycles),
            Transform::DelayReport { window_cycles } => apply_delay(trace, window_cycles),
        }
    }
}

impl fmt::Display for Transform {
    /// Canonical `kind:param` spelling, matching the CLI `--protect`
    /// grammar (used in config fingerprints and benchmark labels).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Transform::Identity => write!(f, "identity"),
            Transform::EccSecDed { word_bits } => write!(f, "ecc:{word_bits}"),
            Transform::Scrub { interval_cycles } => write!(f, "scrub:{interval_cycles}"),
            Transform::DelayReport { window_cycles } => write!(f, "delay:{window_cycles}"),
        }
    }
}

/// An ordered sequence of [`Transform`]s applied left-to-right.
///
/// The pipeline is the unit the rest of the system passes around: parsed
/// from the CLI `--protect` spec, recorded in experiment fingerprints, and
/// applied once per workload trace ahead of compilation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TransformPipeline {
    stages: Vec<Transform>,
}

impl TransformPipeline {
    /// Builds a pipeline from stages, applied in the order given.
    #[must_use]
    pub fn new(stages: Vec<Transform>) -> Self {
        TransformPipeline { stages }
    }

    /// The empty pipeline (identical to `new(vec![])`).
    #[must_use]
    pub fn identity() -> Self {
        TransformPipeline::default()
    }

    /// True when applying the pipeline is guaranteed to be a no-op: no
    /// stages, or only [`Transform::Identity`] stages. This is the fast
    /// path [`TransformPipeline::apply`] takes for unprotected runs — the
    /// input trace is returned untouched, no materialization happens.
    #[must_use]
    pub fn is_identity(&self) -> bool {
        self.stages.iter().all(|t| matches!(t, Transform::Identity))
    }

    /// The stages, in application order.
    #[must_use]
    pub fn stages(&self) -> &[Transform] {
        &self.stages
    }

    /// Rewrites an interval trace through every stage in order.
    ///
    /// # Errors
    ///
    /// Propagates the first failing stage's [`SerrError::InvalidTrace`].
    pub fn apply_interval(&self, trace: &IntervalTrace) -> Result<IntervalTrace, SerrError> {
        let mut current = trace.clone();
        for stage in &self.stages {
            current = stage.apply(&current)?;
        }
        Ok(current)
    }

    /// Rewrites any vulnerability trace: materializes it once into an
    /// [`IntervalTrace`] (refusing traces whose span structure is too
    /// large to enumerate), runs every stage as a segment-vector pass, and
    /// returns the result behind a fresh `Arc`.
    ///
    /// An identity pipeline returns the input `Arc` unchanged — zero cost
    /// for unprotected runs, and the guarantee behind the benchmark
    /// contract that transform plumbing adds nothing to the compile path.
    ///
    /// # Errors
    ///
    /// Returns [`SerrError::InvalidTrace`] when the source trace reports
    /// more than [`CompiledTrace::MAX_SEGMENTS`] spans (such traces —
    /// e.g. astronomically tiled concatenations — cannot be rewritten
    /// span-by-span; protect their parts instead), or when a stage fails.
    pub fn apply(
        &self,
        trace: Arc<dyn VulnerabilityTrace>,
    ) -> Result<Arc<dyn VulnerabilityTrace>, SerrError> {
        if self.is_identity() {
            return Ok(trace);
        }
        let materialized = materialize(trace.as_ref())?;
        let rewritten = self.apply_interval(&materialized)?;
        Ok(Arc::new(rewritten))
    }
}

impl fmt::Display for TransformPipeline {
    /// Comma-joined stage spellings (`ecc:64,scrub:4096`); `identity` when
    /// empty.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.stages.is_empty() {
            return write!(f, "identity");
        }
        for (i, stage) in self.stages.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{stage}")?;
        }
        Ok(())
    }
}

/// Enumerates a trace's spans into an owned [`IntervalTrace`].
///
/// # Errors
///
/// Returns [`SerrError::InvalidTrace`] when the trace reports more spans
/// than [`CompiledTrace::MAX_SEGMENTS`] — the same refusal threshold the
/// compiler applies, surfaced as a typed error here because transforms are
/// an explicit user request rather than a silent optimization.
fn materialize(trace: &dyn VulnerabilityTrace) -> Result<IntervalTrace, SerrError> {
    if trace.span_count_hint() > CompiledTrace::MAX_SEGMENTS {
        return Err(SerrError::invalid_trace(format!(
            "trace reports {} spans, beyond the {}-span transform limit; \
             apply protection to the constituent traces instead",
            trace.span_count_hint(),
            CompiledTrace::MAX_SEGMENTS
        )));
    }
    let mut builder = IntervalTraceBuilder::new();
    let mut start = 0u64;
    for (end, v) in trace.spans() {
        builder.push_cycles(end - start, v)?;
        start = end;
    }
    builder.finish()
}

/// SEC-DED rewrite: `v ↦ v · (1 − (1 − v)^(word_bits−1))`, per segment.
fn apply_ecc(trace: &IntervalTrace, word_bits: u32) -> Result<IntervalTrace, SerrError> {
    let others = i32::try_from(word_bits - 1)
        .map_err(|_| SerrError::invalid_trace(format!("ecc word width {word_bits} too large")))?;
    let mut builder = IntervalTraceBuilder::new();
    for seg in trace.segments() {
        let v = seg.vulnerability;
        let masked = (v * (1.0 - (1.0 - v).powi(others))).clamp(0.0, 1.0);
        builder.push_cycles(seg.len, masked)?;
    }
    builder.finish()
}

/// Scrubbing rewrite: staircase discretization of
/// `v(c) · ((c mod T)/T)`, cutting spans at scrub boundaries and
/// subdividing each non-zero piece into [`RAMP_STEPS`] mass-preserving
/// steps. Zero-valued spans pass through as single segments.
fn apply_scrub(trace: &IntervalTrace, interval: u64) -> Result<IntervalTrace, SerrError> {
    let period = trace.period_cycles();
    // Segment budget: every span×interval piece expands to ≤ RAMP_STEPS
    // segments, and there are ≤ spans + period/interval pieces.
    let pieces = (trace.span_count_hint()).saturating_add(period / interval).saturating_add(1);
    if pieces.saturating_mul(RAMP_STEPS) > CompiledTrace::MAX_SEGMENTS {
        return Err(SerrError::invalid_trace(format!(
            "scrub interval {interval} over a {period}-cycle period needs more than {} \
             segments; choose a coarser interval",
            CompiledTrace::MAX_SEGMENTS
        )));
    }
    let mut builder = IntervalTraceBuilder::new();
    let mut start = 0u64;
    for seg in trace.segments() {
        let seg_end = start + seg.len;
        let mut pos = start;
        while pos < seg_end {
            let boundary = (pos - pos % interval).checked_add(interval).unwrap_or(u64::MAX);
            let piece_end = seg_end.min(boundary);
            if seg.vulnerability == 0.0 {
                builder.push_cycles(piece_end - pos, 0.0)?;
            } else {
                push_ramp_piece(&mut builder, pos, piece_end, interval, seg.vulnerability)?;
            }
            pos = piece_end;
        }
        start = seg_end;
    }
    builder.finish()
}

/// Emits the staircase for one piece `[p0, p1)` that lies entirely inside
/// a single scrub interval. Each step's value is the source vulnerability
/// times the exact average ramp height over the step's cycles.
fn push_ramp_piece(
    builder: &mut IntervalTraceBuilder,
    p0: u64,
    p1: u64,
    interval: u64,
    v: f64,
) -> Result<(), SerrError> {
    let len = p1 - p0;
    let steps = RAMP_STEPS.min(len);
    let base = len / steps;
    let extra = len % steps;
    let mut off = p0 % interval;
    for i in 0..steps {
        let step_len = base + u64::from(i < extra);
        let mid = (off as f64 + (off + step_len) as f64) / 2.0;
        let value = (v * (mid / interval as f64)).clamp(0.0, 1.0);
        builder.push_cycles(step_len, value)?;
        off += step_len;
    }
    Ok(())
}

/// Delayed-reporting rewrite: `v'(c) = v(c + d)` for `c < L − d`, zero in
/// the final `d` cycles. Implemented as a left rotation of the `[d, L)`
/// span content plus a zero tail.
fn apply_delay(trace: &IntervalTrace, window: u64) -> Result<IntervalTrace, SerrError> {
    let period = trace.period_cycles();
    if window >= period {
        return Err(SerrError::invalid_trace(format!(
            "reporting delay {window} must be smaller than the {period}-cycle period \
             (an error that never reports within an iteration has no defined MTTF)"
        )));
    }
    if window == 0 {
        return Ok(trace.clone());
    }
    let mut builder = IntervalTraceBuilder::new();
    let mut start = 0u64;
    for seg in trace.segments() {
        let end = start + seg.len;
        let lo = start.max(window);
        if end > lo {
            builder.push_cycles(end - lo, seg.vulnerability)?;
        }
        start = end;
    }
    builder.push_cycles(window, 0.0)?;
    builder.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConcatTrace;

    fn levels(values: &[f64]) -> IntervalTrace {
        IntervalTrace::from_levels(values).unwrap()
    }

    #[test]
    fn identity_pipeline_returns_the_input_arc_untouched() {
        let src: Arc<dyn VulnerabilityTrace> =
            Arc::new(IntervalTrace::busy_idle(1 << 20, 1 << 20).unwrap());
        for p in [TransformPipeline::identity(), TransformPipeline::new(vec![Transform::Identity])]
        {
            assert!(p.is_identity());
            let out = p.apply(src.clone()).unwrap();
            assert!(Arc::ptr_eq(&src, &out), "identity pipeline must not rebuild the trace");
        }
    }

    #[test]
    fn ecc_matches_the_coincidence_formula() {
        let v = 0.01f64;
        let src = IntervalTrace::constant(1_000, v).unwrap();
        let out = Transform::EccSecDed { word_bits: 64 }.apply(&src).unwrap();
        let want = v * (1.0 - (1.0 - v).powi(63));
        assert!((out.vulnerability_at(0) - want).abs() < 1e-15);
        // Quadratic suppression: far below the unprotected value.
        assert!(out.avf() < 0.64 * v && out.avf() > 0.0);
    }

    #[test]
    fn ecc_is_a_noop_on_binary_traces() {
        // v = 1 means a coincident second-bit error is certain: SEC-DED
        // cannot correct, so busy/idle traces pass through unchanged.
        let src = IntervalTrace::busy_idle(100, 300).unwrap();
        let out = Transform::EccSecDed { word_bits: 64 }.apply(&src).unwrap();
        assert_eq!(out, src);
    }

    #[test]
    fn scrub_halves_a_constant_trace_avf() {
        // Interval divides the period and each interval splits into equal
        // ramp steps: the staircase mass is exact, AVF = v/2.
        let src = IntervalTrace::constant(1 << 20, 0.8).unwrap();
        let out = Transform::Scrub { interval_cycles: 4096 }.apply(&src).unwrap();
        assert!((out.avf() - 0.4).abs() < 1e-12, "avf {}", out.avf());
        assert_eq!(out.period_cycles(), src.period_cycles());
        // The ramp restarts at every scrub boundary.
        assert!(out.vulnerability_at(4096) < out.vulnerability_at(4095));
    }

    #[test]
    fn scrub_keeps_zero_spans_compact() {
        let src = IntervalTrace::busy_idle(1 << 16, 1 << 20).unwrap();
        let out = Transform::Scrub { interval_cycles: 1 << 10 }.apply(&src).unwrap();
        for cyc in [1u64 << 16, 1 << 18, (1 << 20) - 1] {
            assert_eq!(out.vulnerability_at((1 << 16) + cyc % (1 << 20)), 0.0);
        }
        // The idle span contributes O(1) segments, not RAMP_STEPS per interval.
        assert!(out.segment_count() as u64 <= RAMP_STEPS * ((1 << 6) + 2));
    }

    #[test]
    fn delay_shifts_left_and_zeroes_the_tail() {
        let src = levels(&[0.25, 1.0, 0.0, 0.0, 0.5]);
        let out = Transform::DelayReport { window_cycles: 1 }.apply(&src).unwrap();
        assert_eq!(out.period_cycles(), 5);
        for c in 0..4u64 {
            assert_eq!(out.vulnerability_at(c), src.vulnerability_at(c + 1), "cycle {c}");
        }
        assert_eq!(out.vulnerability_at(4), 0.0);
    }

    #[test]
    fn delay_rejects_windows_reaching_the_period() {
        let src = levels(&[1.0, 0.0]);
        for w in [2u64, 3, 100] {
            let err = Transform::DelayReport { window_cycles: w }.apply(&src).unwrap_err();
            assert!(matches!(err, SerrError::InvalidTrace { .. }));
        }
        let out = Transform::DelayReport { window_cycles: 0 }.apply(&src).unwrap();
        assert_eq!(out, src);
    }

    #[test]
    fn parameter_validation_rejects_degenerate_shapes() {
        assert!(Transform::EccSecDed { word_bits: 1 }.validate().is_err());
        assert!(Transform::Scrub { interval_cycles: 0 }.validate().is_err());
        assert!(Transform::EccSecDed { word_bits: 2 }.validate().is_ok());
    }

    #[test]
    fn every_transform_is_value_monotone() {
        let src = levels(&[0.0, 0.3, 0.9, 1.0, 0.15, 0.6, 0.0, 0.45]);
        let transforms = [
            Transform::EccSecDed { word_bits: 8 },
            Transform::Scrub { interval_cycles: 3 },
            Transform::DelayReport { window_cycles: 2 },
        ];
        for t in transforms {
            let out = t.apply(&src).unwrap();
            assert!(out.avf() <= src.avf() + 1e-15, "{t} raised AVF");
        }
    }

    #[test]
    fn ecc_and_delay_commute_bit_for_bit() {
        let src = levels(&[0.1, 0.8, 0.0, 0.4, 0.4, 0.9, 0.2]);
        let ecc = Transform::EccSecDed { word_bits: 16 };
        let delay = Transform::DelayReport { window_cycles: 3 };
        let a = delay.apply(&ecc.apply(&src).unwrap()).unwrap();
        let b = ecc.apply(&delay.apply(&src).unwrap()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn pipeline_applies_stages_in_order() {
        let src = levels(&[0.5, 0.5, 0.0, 1.0]);
        let scrub = Transform::Scrub { interval_cycles: 2 };
        let ecc = Transform::EccSecDed { word_bits: 32 };
        let piped = TransformPipeline::new(vec![scrub, ecc]).apply_interval(&src).unwrap();
        let manual = ecc.apply(&scrub.apply(&src).unwrap()).unwrap();
        assert_eq!(piped, manual);
        assert_eq!(TransformPipeline::new(vec![scrub, ecc]).to_string(), "scrub:2,ecc:32");
    }

    #[test]
    fn refuses_traces_too_large_to_materialize() {
        let unit: Arc<dyn VulnerabilityTrace> = Arc::new(IntervalTrace::busy_idle(3, 5).unwrap());
        let tiled: Arc<dyn VulnerabilityTrace> =
            Arc::new(ConcatTrace::new(vec![(unit, 10_000_000)]).unwrap());
        let p = TransformPipeline::new(vec![Transform::EccSecDed { word_bits: 64 }]);
        let Err(err) = p.apply(tiled) else { panic!("oversized trace must refuse transforms") };
        assert!(matches!(err, SerrError::InvalidTrace { .. }));
        assert!(err.to_string().contains("transform limit"), "message: {err}");
    }

    #[test]
    fn scrub_refuses_interval_explosions() {
        // A tiny interval over a huge period would need billions of ramp
        // steps; the rewrite must refuse instead of allocating.
        let src = IntervalTrace::busy_idle(1 << 30, 1 << 30).unwrap();
        let err = Transform::Scrub { interval_cycles: 2 }.apply(&src).unwrap_err();
        assert!(matches!(err, SerrError::InvalidTrace { .. }));
    }
}
