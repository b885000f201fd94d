//! Run-length-encoded vulnerability traces.

use serr_types::SerrError;

use crate::VulnerabilityTrace;

/// One run of cycles sharing a vulnerability value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Length of the run in cycles (> 0).
    pub len: u64,
    /// Vulnerability of every cycle in the run, in `[0, 1]`.
    pub vulnerability: f64,
}

impl Segment {
    /// Creates a segment.
    ///
    /// # Errors
    ///
    /// Returns [`SerrError::InvalidTrace`] if `len` is zero or
    /// `vulnerability` is outside `[0, 1]`.
    pub fn new(len: u64, vulnerability: f64) -> Result<Self, SerrError> {
        if len == 0 {
            return Err(SerrError::invalid_trace("segment length must be positive"));
        }
        if !(0.0..=1.0).contains(&vulnerability) {
            return Err(SerrError::invalid_trace(format!(
                "vulnerability {vulnerability} outside [0,1]"
            )));
        }
        Ok(Segment { len, vulnerability })
    }
}

/// A periodic vulnerability trace stored as run-length-encoded segments with
/// prefix sums, giving `O(log n)` point and cumulative queries.
///
/// This is the workhorse representation: the timing simulator's dense output
/// is compressed into it, and the paper's synthesized day/week workloads
/// (periods around 10¹⁴ cycles) are just two segments.
///
/// ```
/// use serr_trace::{IntervalTrace, Segment, VulnerabilityTrace};
///
/// let t = IntervalTrace::from_segments(vec![
///     Segment::new(10, 1.0).unwrap(),
///     Segment::new(30, 0.25).unwrap(),
/// ]).unwrap();
/// assert_eq!(t.period_cycles(), 40);
/// assert_eq!(t.avf(), (10.0 + 7.5) / 40.0);
/// ```
#[derive(Debug, Clone)]
pub struct IntervalTrace {
    /// Exclusive end cycle of each segment (strictly increasing; last =
    /// period).
    ends: Vec<u64>,
    /// Vulnerability of each segment.
    values: Vec<f64>,
    /// Cumulative vulnerability up to each segment start:
    /// `prefix[i] = Σ_{j<i} len_j · v_j`.
    prefix: Vec<f64>,
}

impl PartialEq for IntervalTrace {
    /// Compares the defining run-length data; the `prefix` cache is derived
    /// from it (up to floating-point association order) and excluded.
    fn eq(&self, other: &Self) -> bool {
        self.ends == other.ends && self.values == other.values
    }
}

impl IntervalTrace {
    /// Builds a trace from consecutive segments.
    ///
    /// Adjacent segments with equal vulnerability are merged.
    ///
    /// # Errors
    ///
    /// Returns [`SerrError::InvalidTrace`] if `segments` is empty or the
    /// total period overflows `u64`.
    pub fn from_segments(segments: Vec<Segment>) -> Result<Self, SerrError> {
        if segments.is_empty() {
            return Err(SerrError::invalid_trace("trace must contain at least one segment"));
        }
        let mut ends: Vec<u64> = Vec::with_capacity(segments.len());
        let mut values: Vec<f64> = Vec::with_capacity(segments.len());
        let mut prefix = Vec::with_capacity(segments.len());
        let mut end: u64 = 0;
        let mut cum = 0.0_f64;
        for seg in segments {
            if let (Some(last_v), Some(last_e)) = (values.last_mut(), ends.last_mut()) {
                if *last_v == seg.vulnerability {
                    *last_e = last_e
                        .checked_add(seg.len)
                        .ok_or_else(|| SerrError::invalid_trace("period overflows u64"))?;
                    end = *last_e;
                    cum += seg.len as f64 * seg.vulnerability;
                    continue;
                }
            }
            prefix.push(cum);
            end = end
                .checked_add(seg.len)
                .ok_or_else(|| SerrError::invalid_trace("period overflows u64"))?;
            ends.push(end);
            values.push(seg.vulnerability);
            cum += seg.len as f64 * seg.vulnerability;
        }
        Ok(IntervalTrace { ends, values, prefix })
    }

    /// A trace with one segment: constant vulnerability for `period` cycles.
    ///
    /// # Errors
    ///
    /// Returns [`SerrError::InvalidTrace`] on a zero period or out-of-range
    /// vulnerability.
    pub fn constant(period: u64, vulnerability: f64) -> Result<Self, SerrError> {
        IntervalTrace::from_segments(vec![Segment::new(period, vulnerability)?])
    }

    /// The paper's canonical counter-example shape (Section 3.1.2): fully
    /// vulnerable for `busy` cycles, fully masked for `idle` cycles.
    ///
    /// # Errors
    ///
    /// Returns [`SerrError::InvalidTrace`] if both spans are zero or either
    /// is invalid.
    pub fn busy_idle(busy: u64, idle: u64) -> Result<Self, SerrError> {
        match (busy, idle) {
            (0, 0) => Err(SerrError::invalid_trace("busy and idle cannot both be zero")),
            (0, idle) => IntervalTrace::constant(idle, 0.0),
            (busy, 0) => IntervalTrace::constant(busy, 1.0),
            (busy, idle) => IntervalTrace::from_segments(vec![
                Segment::new(busy, 1.0).expect("busy > 0"),
                Segment::new(idle, 0.0).expect("idle > 0"),
            ]),
        }
    }

    /// Compresses per-cycle vulnerabilities into runs.
    ///
    /// # Errors
    ///
    /// Returns [`SerrError::InvalidTrace`] if `levels` is empty or any value
    /// is outside `[0, 1]`.
    pub fn from_levels(levels: &[f64]) -> Result<Self, SerrError> {
        if levels.is_empty() {
            return Err(SerrError::invalid_trace("trace must contain at least one cycle"));
        }
        let mut builder = IntervalTraceBuilder::new();
        for &v in levels {
            builder.push_cycles(1, v)?;
        }
        builder.finish()
    }

    /// Compresses per-cycle busy flags (`true` ⇒ vulnerability 1).
    ///
    /// # Errors
    ///
    /// Returns [`SerrError::InvalidTrace`] if `flags` is empty.
    pub fn from_bools(flags: &[bool]) -> Result<Self, SerrError> {
        if flags.is_empty() {
            return Err(SerrError::invalid_trace("trace must contain at least one cycle"));
        }
        let mut builder = IntervalTraceBuilder::new();
        for &b in flags {
            builder.push_cycles(1, if b { 1.0 } else { 0.0 })?;
        }
        builder.finish()
    }

    /// Number of stored segments (after merging).
    #[must_use]
    pub fn segment_count(&self) -> usize {
        self.values.len()
    }

    /// Aggregates the trace into fixed windows of `window` cycles, each
    /// carrying the *average* vulnerability of the cycles it covers (the
    /// final window may be shorter).
    ///
    /// Coarsening preserves the AVF exactly and the cumulative
    /// vulnerability to within one window; it is the standard way to keep
    /// 10⁸-cycle simulator traces compact when the analysis horizon (mean
    /// time between raw errors) is many windows long.
    ///
    /// # Errors
    ///
    /// Returns [`SerrError::InvalidTrace`] if `window` is zero.
    pub fn coarsen(&self, window: u64) -> Result<IntervalTrace, SerrError> {
        if window == 0 {
            return Err(SerrError::invalid_trace("window must be positive"));
        }
        let period = self.period_cycles();
        if window >= period {
            return IntervalTrace::constant(period, self.avf());
        }
        let mut builder = IntervalTraceBuilder::new();
        let mut start = 0u64;
        while start < period {
            let end = (start + window).min(period);
            let mass = self.cumulative_within_period(end) - self.cumulative_within_period(start);
            let v = (mass / (end - start) as f64).clamp(0.0, 1.0);
            builder.push_cycles(end - start, v)?;
            start = end;
        }
        builder.finish()
    }

    /// Iterates over the segments in order.
    pub fn segments(&self) -> impl Iterator<Item = Segment> + '_ {
        self.ends.iter().enumerate().map(move |(i, &end)| {
            let start = if i == 0 { 0 } else { self.ends[i - 1] };
            Segment { len: end - start, vulnerability: self.values[i] }
        })
    }

    /// Index of the segment containing `cycle` (already reduced mod period).
    fn segment_index(&self, cycle_in_period: u64) -> usize {
        self.ends.partition_point(|&e| e <= cycle_in_period)
    }
}

impl VulnerabilityTrace for IntervalTrace {
    fn period_cycles(&self) -> u64 {
        *self.ends.last().expect("non-empty by construction")
    }

    fn vulnerability_at(&self, cycle: u64) -> f64 {
        let c = cycle % self.period_cycles();
        self.values[self.segment_index(c)]
    }

    fn cumulative_within_period(&self, r: u64) -> f64 {
        let period = self.period_cycles();
        assert!(r <= period, "cycle {r} beyond period {period}");
        if r == period {
            let last = self.values.len() - 1;
            let start = if last == 0 { 0 } else { self.ends[last - 1] };
            return self.prefix[last] + (period - start) as f64 * self.values[last];
        }
        let i = self.segment_index(r);
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        self.prefix[i] + (r - start) as f64 * self.values[i]
    }

    fn breakpoints(&self) -> Vec<u64> {
        self.ends.clone()
    }

    fn spans(&self) -> Box<dyn Iterator<Item = (u64, f64)> + '_> {
        Box::new(self.ends.iter().copied().zip(self.values.iter().copied()))
    }

    fn span_count_hint(&self) -> u64 {
        self.ends.len() as u64
    }
}

/// Incremental builder for [`IntervalTrace`], used by the timing simulator
/// to append per-cycle observations without buffering the whole execution.
///
/// ```
/// use serr_trace::{IntervalTraceBuilder, VulnerabilityTrace};
///
/// let mut b = IntervalTraceBuilder::new();
/// b.push_cycles(100, 1.0).unwrap();
/// b.push_cycles(50, 0.0).unwrap();
/// b.push_cycles(25, 0.0).unwrap(); // merged with the previous run
/// let t = b.finish().unwrap();
/// assert_eq!(t.segment_count(), 2);
/// assert_eq!(t.period_cycles(), 175);
/// ```
#[derive(Debug, Clone, Default)]
pub struct IntervalTraceBuilder {
    segments: Vec<Segment>,
}

impl IntervalTraceBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        IntervalTraceBuilder::default()
    }

    /// Appends `len` cycles at `vulnerability`, merging with the previous run
    /// when the value repeats. Zero-length pushes are ignored.
    ///
    /// # Errors
    ///
    /// Returns [`SerrError::InvalidTrace`] if `vulnerability` is outside
    /// `[0, 1]`.
    pub fn push_cycles(&mut self, len: u64, vulnerability: f64) -> Result<&mut Self, SerrError> {
        if len == 0 {
            return Ok(self);
        }
        if !(0.0..=1.0).contains(&vulnerability) {
            return Err(SerrError::invalid_trace(format!(
                "vulnerability {vulnerability} outside [0,1]"
            )));
        }
        if let Some(last) = self.segments.last_mut() {
            if last.vulnerability == vulnerability {
                last.len += len;
                return Ok(self);
            }
        }
        self.segments.push(Segment { len, vulnerability });
        Ok(self)
    }

    /// Number of cycles appended so far.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.segments.iter().map(|s| s.len).sum()
    }

    /// Finalizes the trace.
    ///
    /// # Errors
    ///
    /// Returns [`SerrError::InvalidTrace`] if nothing was appended.
    pub fn finish(self) -> Result<IntervalTrace, SerrError> {
        IntervalTrace::from_segments(self.segments)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_idle_matches_paper_example() {
        // Section 3.1.2: active for A cycles, idle for L-A.
        let t = IntervalTrace::busy_idle(25, 75).unwrap();
        assert_eq!(t.period_cycles(), 100);
        assert_eq!(t.avf(), 0.25);
        assert_eq!(t.vulnerability_at(0), 1.0);
        assert_eq!(t.vulnerability_at(24), 1.0);
        assert_eq!(t.vulnerability_at(25), 0.0);
        assert_eq!(t.vulnerability_at(99), 0.0);
        // Wraps around.
        assert_eq!(t.vulnerability_at(100), 1.0);
    }

    #[test]
    fn busy_idle_degenerate_cases() {
        assert_eq!(IntervalTrace::busy_idle(10, 0).unwrap().avf(), 1.0);
        assert_eq!(IntervalTrace::busy_idle(0, 10).unwrap().avf(), 0.0);
        assert!(IntervalTrace::busy_idle(0, 0).is_err());
    }

    #[test]
    fn cumulative_within_period_piecewise() {
        let t = IntervalTrace::from_segments(vec![
            Segment::new(4, 0.5).unwrap(),
            Segment::new(4, 1.0).unwrap(),
            Segment::new(2, 0.0).unwrap(),
        ])
        .unwrap();
        assert_eq!(t.cumulative_within_period(0), 0.0);
        assert_eq!(t.cumulative_within_period(2), 1.0);
        assert_eq!(t.cumulative_within_period(4), 2.0);
        assert_eq!(t.cumulative_within_period(6), 4.0);
        assert_eq!(t.cumulative_within_period(8), 6.0);
        assert_eq!(t.cumulative_within_period(10), 6.0);
        assert_eq!(t.avf(), 0.6);
    }

    #[test]
    #[should_panic(expected = "beyond period")]
    fn cumulative_beyond_period_panics() {
        let t = IntervalTrace::busy_idle(1, 1).unwrap();
        let _ = t.cumulative_within_period(3);
    }

    #[test]
    fn adjacent_equal_segments_merge() {
        let t = IntervalTrace::from_segments(vec![
            Segment::new(5, 1.0).unwrap(),
            Segment::new(5, 1.0).unwrap(),
            Segment::new(5, 0.0).unwrap(),
        ])
        .unwrap();
        assert_eq!(t.segment_count(), 2);
        assert_eq!(t.period_cycles(), 15);
        assert_eq!(t.cumulative_within_period(15), 10.0);
    }

    #[test]
    fn from_levels_and_from_bools_agree() {
        let flags = [true, true, false, true, false, false];
        let levels: Vec<f64> = flags.iter().map(|&b| if b { 1.0 } else { 0.0 }).collect();
        let a = IntervalTrace::from_bools(&flags).unwrap();
        let b = IntervalTrace::from_levels(&levels).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.segment_count(), 4);
        for c in 0..6 {
            assert_eq!(a.vulnerability_at(c), levels[c as usize]);
        }
    }

    #[test]
    fn segments_iterator_roundtrip() {
        let original = vec![
            Segment::new(3, 0.25).unwrap(),
            Segment::new(7, 0.75).unwrap(),
            Segment::new(1, 0.0).unwrap(),
        ];
        let t = IntervalTrace::from_segments(original.clone()).unwrap();
        let out: Vec<Segment> = t.segments().collect();
        assert_eq!(out, original);
    }

    #[test]
    fn rejects_invalid_input() {
        assert!(Segment::new(0, 0.5).is_err());
        assert!(Segment::new(5, -0.1).is_err());
        assert!(Segment::new(5, 1.1).is_err());
        assert!(IntervalTrace::from_segments(vec![]).is_err());
        assert!(IntervalTrace::from_levels(&[]).is_err());
        assert!(IntervalTrace::from_levels(&[2.0]).is_err());
    }

    #[test]
    fn builder_ignores_zero_and_merges() {
        let mut b = IntervalTraceBuilder::new();
        b.push_cycles(0, 1.0).unwrap();
        b.push_cycles(3, 1.0).unwrap();
        b.push_cycles(3, 1.0).unwrap();
        b.push_cycles(2, 0.5).unwrap();
        assert_eq!(b.cycles(), 8);
        let t = b.finish().unwrap();
        assert_eq!(t.segment_count(), 2);
        assert_eq!(t.period_cycles(), 8);
    }

    #[test]
    fn empty_builder_errors() {
        assert!(IntervalTraceBuilder::new().finish().is_err());
    }

    #[test]
    fn coarsen_preserves_avf_and_bounds_cumulative_drift() {
        let levels: Vec<f64> = (0..10_000)
            .map(|i| if (i / 100) % 3 == 0 { 1.0 } else { (i % 5) as f64 / 8.0 })
            .collect();
        let fine = IntervalTrace::from_levels(&levels).unwrap();
        for window in [7u64, 64, 1000] {
            let coarse = fine.coarsen(window).unwrap();
            assert_eq!(coarse.period_cycles(), fine.period_cycles());
            assert!((coarse.avf() - fine.avf()).abs() < 1e-12, "window {window}");
            assert!(coarse.segment_count() <= (10_000 / window + 2) as usize);
            // Cumulative drift bounded by one window of mass.
            for r in (0..=10_000).step_by(500) {
                let d =
                    (coarse.cumulative_within_period(r) - fine.cumulative_within_period(r)).abs();
                assert!(d <= window as f64, "window {window}, r {r}: drift {d}");
            }
        }
        // Degenerate cases.
        assert!(fine.coarsen(0).is_err());
        let flat = fine.coarsen(1_000_000).unwrap();
        assert_eq!(flat.segment_count(), 1);
        assert!((flat.avf() - fine.avf()).abs() < 1e-12);
    }

    #[test]
    fn day_scale_period_is_exact() {
        // 12h busy / 12h idle at 2 GHz: 8.64e13 cycles per half.
        let half = 43_200u64 * 2_000_000_000;
        let t = IntervalTrace::busy_idle(half, half).unwrap();
        assert_eq!(t.period_cycles(), 2 * half);
        assert_eq!(t.avf(), 0.5);
        assert_eq!(t.cumulative_within_period(half), half as f64);
        assert_eq!(t.vulnerability_at(half - 1), 1.0);
        assert_eq!(t.vulnerability_at(half), 0.0);
    }
}
