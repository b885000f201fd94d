//! Run-length-encoded vulnerability traces: the crate's one span table.

use std::sync::Arc;

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
        check_value(vulnerability)?;
        Ok(Segment { len, vulnerability })
    }
}

/// A periodic vulnerability trace stored as one table of run-length
/// records with prefix sums, giving `O(log n)` point and cumulative
/// queries.
///
/// This is the crate's one span table: the simulator builds its traces
/// into it, day/week workloads (periods around 10¹⁴ cycles) are two
/// records, a [`crate::CompositeTrace`] memoizes its spans as one, and a
/// flat [`crate::CompiledTrace`] is one plus bucket indexes. The records
/// sit behind an [`Arc`], so clones and compiles share them.
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
    /// One record per segment, in cycle order, then the sentinel
    /// `{+∞, period, 0}`: starts strictly increase from 0, and segment `i`
    /// spans `recs[i].start..recs[i + 1].start`. Shared by every clone;
    /// writers go through [`Arc::make_mut`].
    pub(crate) recs: Arc<Vec<Rec>>,
    /// Cumulative vulnerability over the whole period.
    pub(crate) total: f64,
}

/// One segment of a span table: everything a resolved lookup reads, side
/// by side in 24 bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Rec {
    /// Cumulative vulnerability before the segment starts.
    pub(crate) prefix: f64,
    /// First cycle of the segment.
    pub(crate) start: u64,
    /// Vulnerability of every cycle in the segment.
    pub(crate) value: f64,
}

impl Rec {
    /// The record closing a table of period `period`: it starts where the
    /// last segment ends, and its `+∞` prefix is above every mass.
    pub(crate) fn sentinel(period: u64) -> Rec {
        Rec { prefix: f64::INFINITY, start: period, value: 0.0 }
    }
}

impl PartialEq for IntervalTrace {
    /// Compares the defining run-length data; the prefix sums are derived
    /// from it (up to floating-point association order) and excluded.
    fn eq(&self, other: &Self) -> bool {
        self.segments().eq(other.segments())
    }
}

impl IntervalTrace {
    /// Builds a trace from consecutive segments.
    ///
    /// Adjacent segments with equal vulnerability are merged.
    ///
    /// # Errors
    ///
    /// Returns [`SerrError::InvalidTrace`] if `segments` is empty, a value
    /// is outside `[0, 1]`, or the total period overflows `u64`.
    pub fn from_segments(segments: Vec<Segment>) -> Result<Self, SerrError> {
        let mut table = IntervalTraceBuilder::with_capacity(segments.len());
        for seg in segments {
            table.push_segment(seg.len, seg.vulnerability)?;
        }
        table.finish()
    }

    /// The span table `trace` holds, or one built from its span walk.
    ///
    /// # Errors
    ///
    /// Returns [`SerrError::InvalidTrace`] if the table would hold more
    /// than `max_segments` segments or the walk has a value outside `[0, 1]`.
    pub(crate) fn of(
        trace: &(impl VulnerabilityTrace + ?Sized),
        max_segments: u64,
    ) -> Result<Self, SerrError> {
        let limit = usize::try_from(max_segments).unwrap_or(usize::MAX);
        let table = match trace.span_table() {
            Some(table) => table,
            None => {
                // One span past the cap is as far as an over-cap walk goes.
                let walk = trace.spans().take(limit.saturating_add(1));
                let mut table = IntervalTraceBuilder::with_capacity(walk.size_hint().0.min(limit));
                for (end, v) in walk {
                    table.push_span(end, v)?;
                }
                table.finish()?
            }
        };
        // A walk cut short by the cap ends before the period.
        if table.segment_count() > limit || table.period_cycles() != trace.period_cycles() {
            return Err(SerrError::invalid_trace(format!("span table exceeds {limit} segments")));
        }
        Ok(table)
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
        let mut builder = IntervalTraceBuilder::new();
        for &b in flags {
            builder.push_cycles(1, if b { 1.0 } else { 0.0 })?;
        }
        builder.finish()
    }

    /// Number of stored segments (after merging).
    #[must_use]
    pub fn segment_count(&self) -> usize {
        self.recs.len() - 1
    }

    /// Iterates over the segments in order.
    pub fn segments(&self) -> impl Iterator<Item = Segment> + '_ {
        self.recs
            .windows(2)
            .map(|w| Segment { len: w[1].start - w[0].start, vulnerability: w[0].value })
    }

    /// Index of the segment containing `cycle` (already reduced mod period).
    fn segment_index(&self, cycle_in_period: u64) -> usize {
        self.recs[1..].partition_point(|r| r.start <= cycle_in_period)
    }
}

impl VulnerabilityTrace for IntervalTrace {
    fn period_cycles(&self) -> u64 {
        self.recs[self.recs.len() - 1].start
    }

    fn vulnerability_at(&self, cycle: u64) -> f64 {
        let c = cycle % self.period_cycles();
        self.recs[self.segment_index(c)].value
    }

    fn cumulative_within_period(&self, r: u64) -> f64 {
        let period = self.period_cycles();
        assert!(r <= period, "cycle {r} beyond period {period}");
        if r == period {
            return self.total;
        }
        let rec = &self.recs[self.segment_index(r)];
        rec.prefix + (r - rec.start) as f64 * rec.value
    }

    fn breakpoints(&self) -> Vec<u64> {
        self.recs[1..].iter().map(|r| r.start).collect()
    }

    fn spans(&self) -> Box<dyn Iterator<Item = (u64, f64)> + '_> {
        Box::new(self.recs.windows(2).map(|w| (w[1].start, w[0].value)))
    }

    fn span_count_hint(&self) -> u64 {
        self.segment_count() as u64
    }

    fn span_table(&self) -> Option<IntervalTrace> {
        Some(self.clone())
    }
}

/// The one writer of span tables, behind every [`IntervalTrace`]: the
/// timing simulator appends per-cycle observations to it without
/// buffering the whole execution, and the crate feeds it span walks.
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
    /// The records written so far; the sentinel is added by `finish`.
    recs: Vec<Rec>,
    /// End of the last span written: the next span's first cycle.
    end: u64,
    /// Cumulative vulnerability over `0..end`.
    cum: f64,
    /// The run [`IntervalTraceBuilder::push_cycles`] is still extending,
    /// as `(len, value)`; it is written once the value changes.
    run: Option<(u64, f64)>,
}

impl IntervalTraceBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        IntervalTraceBuilder::default()
    }

    /// An empty builder with room for `segments` segments.
    pub(crate) fn with_capacity(segments: usize) -> Self {
        let recs = Vec::with_capacity(segments.saturating_add(1));
        IntervalTraceBuilder { recs, ..Self::default() }
    }

    /// Appends `len` cycles at `vulnerability`, merging with the previous run
    /// when the value repeats. Zero-length pushes are ignored. A run pushed
    /// in pieces adds its mass to the prefix sums as one product, so a
    /// table built here equals the one built from its segments.
    ///
    /// # Errors
    ///
    /// Returns [`SerrError::InvalidTrace`] if `vulnerability` is outside
    /// `[0, 1]` or the period overflows `u64`.
    pub fn push_cycles(&mut self, len: u64, vulnerability: f64) -> Result<&mut Self, SerrError> {
        if len == 0 {
            return Ok(self);
        }
        check_value(vulnerability)?;
        if let Some((run_len, v)) = &mut self.run {
            if *v == vulnerability {
                *run_len = run_len.checked_add(len).ok_or_else(period_overflow)?;
                return Ok(self);
            }
        }
        if let Some((run_len, v)) = self.run.replace((len, vulnerability)) {
            self.push_segment(run_len, v)?;
        }
        Ok(self)
    }

    /// Number of cycles appended so far.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.end + self.run.map_or(0, |(len, _)| len)
    }

    /// Writes the segment of `len` cycles at `v` after the last one.
    pub(crate) fn push_segment(&mut self, len: u64, v: f64) -> Result<(), SerrError> {
        let end = self.end.checked_add(len).ok_or_else(period_overflow)?;
        self.push_span(end, v)
    }

    /// Writes the span `[end of the last span, end)` at `v`, the table's
    /// one record rule: a span opens a record unless its value equals the
    /// last record's, and adds its own mass to the running prefix sum. An
    /// `end` at or before the last one is skipped.
    pub(crate) fn push_span(&mut self, end: u64, v: f64) -> Result<(), SerrError> {
        check_value(v)?;
        if end <= self.end {
            return Ok(());
        }
        if self.recs.last().map(|r| r.value) != Some(v) {
            self.recs.push(Rec { prefix: self.cum, start: self.end, value: v });
        }
        self.cum += (end - self.end) as f64 * v;
        self.end = end;
        Ok(())
    }

    /// Finalizes the trace. The records move into it as they are.
    ///
    /// # Errors
    ///
    /// Returns [`SerrError::InvalidTrace`] if nothing was appended.
    pub fn finish(mut self) -> Result<IntervalTrace, SerrError> {
        if let Some((len, v)) = self.run.take() {
            self.push_segment(len, v)?;
        }
        if self.recs.is_empty() {
            return Err(SerrError::invalid_trace("trace must contain at least one segment"));
        }
        self.recs.push(Rec::sentinel(self.end));
        self.recs.shrink_to_fit();
        Ok(IntervalTrace { recs: Arc::new(self.recs), total: self.cum })
    }
}

/// Rejects a vulnerability outside `[0, 1]` (NaN included).
fn check_value(v: f64) -> Result<(), SerrError> {
    if (0.0..=1.0).contains(&v) {
        Ok(())
    } else {
        Err(SerrError::invalid_trace(format!("vulnerability {v} outside [0,1]")))
    }
}

fn period_overflow() -> SerrError {
    SerrError::invalid_trace("period overflows u64")
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
