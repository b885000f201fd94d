//! Dense per-cycle vulnerability traces with blocked prefix sums.

use serr_types::SerrError;

use crate::{IntervalTrace, VulnerabilityTrace};

/// How many cycles share one stored prefix-sum block.
const BLOCK: usize = 4096;

/// A vulnerability trace stored densely, one `f32` per cycle, with blocked
/// prefix sums for `O(BLOCK)` cumulative queries.
///
/// This is the natural output format of a cycle-level timing simulator; for
/// long-running workloads convert to [`IntervalTrace`] via
/// [`DenseTrace::compress`].
///
/// # Rounding contract
///
/// [`DenseTrace::new`] accepts `f64` input but stores one `f32` per cycle:
/// each value is validated in `[0, 1]` as given, then rounded to the
/// nearest `f32` (at most half an ulp, `≤ 2⁻²⁵` anywhere in range). Every
/// query — [`VulnerabilityTrace::vulnerability_at`], cumulative sums,
/// [`VulnerabilityTrace::avf`] — answers from the *rounded* values, and the
/// stored values are re-validated after the cast, so the `[0, 1]` invariant
/// holds for what is actually queried. Both endpoints are exactly
/// representable as `f32`, so rounding can never push an in-range input out
/// of range (e.g. the `f64` just below `1.0` rounds *up* to exactly
/// `1.0f32` and stays valid). [`DenseTrace::compress`] is exact with
/// respect to these stored values — `f32` widens losslessly to `f64` — not
/// with respect to the pre-rounding input.
///
/// ```
/// use serr_trace::{DenseTrace, VulnerabilityTrace};
/// let t = DenseTrace::new(vec![1.0, 0.0, 0.5, 0.5]).unwrap();
/// assert_eq!(t.period_cycles(), 4);
/// assert_eq!(t.avf(), 0.5);
/// assert_eq!(t.vulnerability_at(6), 0.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DenseTrace {
    values: Vec<f32>,
    /// `block_prefix[i]` = Σ of values in blocks `0..i`.
    block_prefix: Vec<f64>,
    total: f64,
}

impl DenseTrace {
    /// Builds a dense trace from per-cycle vulnerabilities, rounding each
    /// to the nearest `f32` (see the rounding contract on [`DenseTrace`]).
    ///
    /// # Errors
    ///
    /// Returns [`SerrError::InvalidTrace`] if `values` is empty or any value
    /// is outside `[0, 1]` — before or (defensively) after rounding.
    pub fn new(values: Vec<f64>) -> Result<Self, SerrError> {
        if values.is_empty() {
            return Err(SerrError::invalid_trace("trace must contain at least one cycle"));
        }
        if let Some(bad) = values.iter().find(|v| !(0.0..=1.0).contains(*v)) {
            return Err(SerrError::invalid_trace(format!("vulnerability {bad} outside [0,1]")));
        }
        let stored: Vec<f32> = values.iter().map(|&v| v as f32).collect();
        // Round-to-nearest cannot leave [0, 1] (both endpoints are exactly
        // representable, so no in-range f64 rounds past them), but every
        // query answers from the stored values — enforce the invariant on
        // them directly rather than inferring it from the f64 check above.
        if let Some(bad) = stored.iter().find(|v| !(0.0f32..=1.0).contains(*v)) {
            return Err(SerrError::invalid_trace(format!(
                "vulnerability {bad} outside [0,1] after f32 rounding"
            )));
        }
        let mut block_prefix = Vec::with_capacity(stored.len() / BLOCK + 2);
        block_prefix.push(0.0);
        let mut total = 0.0_f64;
        for chunk in stored.chunks(BLOCK) {
            let s: f64 = chunk.iter().map(|&v| f64::from(v)).sum();
            total += s;
            block_prefix.push(total);
        }
        Ok(DenseTrace { values: stored, block_prefix, total })
    }

    /// Builds a dense 0/1 trace from busy flags.
    ///
    /// # Errors
    ///
    /// Returns [`SerrError::InvalidTrace`] if `flags` is empty.
    pub fn from_bools(flags: &[bool]) -> Result<Self, SerrError> {
        DenseTrace::new(flags.iter().map(|&b| if b { 1.0 } else { 0.0 }).collect())
    }

    /// Run-length-compresses into an [`IntervalTrace`] (exact with respect
    /// to the *stored* `f32` values, which widen losslessly to `f64`; the
    /// one rounding step happened in [`DenseTrace::new`] — see the rounding
    /// contract on [`DenseTrace`]).
    #[must_use]
    pub fn compress(&self) -> IntervalTrace {
        let levels: Vec<f64> = self.values.iter().map(|&v| f64::from(v)).collect();
        IntervalTrace::from_levels(&levels).expect("dense trace is non-empty and validated")
    }

    /// Number of cycles stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Always false by construction; provided for API completeness.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

impl VulnerabilityTrace for DenseTrace {
    fn period_cycles(&self) -> u64 {
        self.values.len() as u64
    }

    fn vulnerability_at(&self, cycle: u64) -> f64 {
        let c = (cycle % self.period_cycles()) as usize;
        f64::from(self.values[c])
    }

    fn cumulative_within_period(&self, r: u64) -> f64 {
        let n = self.values.len() as u64;
        assert!(r <= n, "cycle {r} beyond period {n}");
        if r == n {
            return self.total;
        }
        let r = r as usize;
        let block = r / BLOCK;
        let base = self.block_prefix[block];
        let local: f64 = self.values[block * BLOCK..r].iter().map(|&v| f64::from(v)).sum();
        base + local
    }

    fn breakpoints(&self) -> Vec<u64> {
        // Merge runs of equal values; always terminates with the period.
        let mut out = Vec::new();
        for (i, w) in self.values.windows(2).enumerate() {
            if w[0] != w[1] {
                out.push(i as u64 + 1);
            }
        }
        out.push(self.values.len() as u64);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cumulative_matches_naive() {
        let values: Vec<f64> = (0..10_000).map(|i| ((i % 7) as f64) / 7.0).collect();
        let t = DenseTrace::new(values.clone()).unwrap();
        for &r in &[0usize, 1, 4095, 4096, 4097, 9_999, 10_000] {
            let naive: f64 = values[..r].iter().map(|&v| v as f32 as f64).sum();
            assert!(
                (t.cumulative_within_period(r as u64) - naive).abs() < 1e-9,
                "mismatch at r={r}"
            );
        }
    }

    #[test]
    fn avf_of_alternating_trace() {
        let t = DenseTrace::from_bools(&[true, false].repeat(500)).unwrap();
        assert_eq!(t.avf(), 0.5);
        assert_eq!(t.len(), 1000);
        assert!(!t.is_empty());
    }

    #[test]
    fn compress_preserves_semantics() {
        let values: Vec<f64> = (0..1000).map(|i| if i % 100 < 30 { 1.0 } else { 0.25 }).collect();
        let dense = DenseTrace::new(values).unwrap();
        let compressed = dense.compress();
        assert_eq!(dense.period_cycles(), compressed.period_cycles());
        assert!((dense.avf() - compressed.avf()).abs() < 1e-12);
        for c in (0..1000).step_by(13) {
            assert_eq!(dense.vulnerability_at(c), compressed.vulnerability_at(c));
        }
        // 10 alternating runs per 100 cycles -> 20 segments + wraparound merge.
        assert!(compressed.segment_count() <= 20);
    }

    #[test]
    fn rejects_invalid() {
        assert!(DenseTrace::new(vec![]).is_err());
        assert!(DenseTrace::new(vec![0.5, 1.5]).is_err());
        assert!(DenseTrace::new(vec![-0.5]).is_err());
    }

    #[test]
    fn rounding_contract_queries_answer_from_nearest_f32() {
        // 0.1 and 0.3 are not representable as f32; 1.0 - 1ulp rounds *up*
        // to exactly 1.0f32 and must stay valid.
        let just_below_one = f64::from_bits(1.0f64.to_bits() - 1);
        let t = DenseTrace::new(vec![0.1, just_below_one, 0.3]).unwrap();
        assert_eq!(t.vulnerability_at(0), f64::from(0.1f32));
        assert_eq!(t.vulnerability_at(1), 1.0);
        assert_eq!(t.vulnerability_at(2), f64::from(0.3f32));
        // AVF and cumulative sums are over the rounded values too.
        let want_avf = (f64::from(0.1f32) + 1.0 + f64::from(0.3f32)) / 3.0;
        assert!((t.avf() - want_avf).abs() < 1e-15);
        assert_eq!(t.cumulative_within_period(1), f64::from(0.1f32));
        // compress() is exact over the stored values, not the f64 input.
        let c = t.compress();
        for cyc in 0..3u64 {
            assert_eq!(c.vulnerability_at(cyc), t.vulnerability_at(cyc), "cycle {cyc}");
        }
    }

    #[test]
    fn wraps_modulo_period() {
        let t = DenseTrace::new(vec![0.1, 0.9]).unwrap();
        assert!((t.vulnerability_at(0) - 0.1).abs() < 1e-7);
        assert!((t.vulnerability_at(3) - 0.9).abs() < 1e-7);
        assert!((t.vulnerability_at(1_000_000) - 0.1).abs() < 1e-7);
    }
}
