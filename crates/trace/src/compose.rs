//! Rate-weighted composition of unit traces into a processor-level trace.

use std::sync::{Arc, OnceLock};

use serr_types::SerrError;

use crate::{IntervalTrace, IntervalTraceBuilder, VulnerabilityTrace};

/// Combines several unit traces into one processor-level vulnerability
/// trace, weighting each unit by its share of the processor's raw error
/// rate.
///
/// The paper's cluster experiments treat a whole processor as one component
/// and "apply the three [unit] traces to the corresponding units
/// simultaneously to determine whether there is a processor-level failure"
/// (Section 4.2). Probabilistically: a raw error striking the processor
/// lands on unit *i* with probability `wᵢ/Σw` (where `wᵢ` is the unit's raw
/// error rate) and is masked according to that unit's trace, so the
/// processor-level vulnerability at cycle `c` is `Σᵢ wᵢ·vᵢ(c) / Σᵢ wᵢ`.
///
/// The same superposition makes any series system one component: the
/// parts' raw-error processes are independent Poisson processes, so their
/// union is Poisson at the summed rate and each arrival strikes part *i*
/// with probability `rateᵢ/Σrate`. A processor of four units, or a cluster
/// of de-synchronized replicas (each a [`ShiftedTrace`](crate::ShiftedTrace)
/// part), fails first-principles exactly as this trace does at `Σ rateᵢ`.
///
/// ```
/// use std::sync::Arc;
/// use serr_trace::{CompositeTrace, IntervalTrace, VulnerabilityTrace};
///
/// let int_unit = Arc::new(IntervalTrace::busy_idle(6, 2).unwrap());
/// let fp_unit = Arc::new(IntervalTrace::busy_idle(2, 6).unwrap());
/// // FP unit has 2x the raw rate of the integer unit.
/// let cpu = CompositeTrace::new(vec![(1.0, int_unit), (2.0, fp_unit)]).unwrap();
/// assert_eq!(cpu.period_cycles(), 8);
/// // First 2 cycles: both busy -> fully vulnerable.
/// assert_eq!(cpu.vulnerability_at(0), 1.0);
/// // Cycles 2..6: only the int unit (weight 1 of 3) is busy.
/// assert!((cpu.vulnerability_at(3) - 1.0 / 3.0).abs() < 1e-12);
/// ```
///
/// The merged span table — the union of the parts' breakpoints, each
/// span carrying its weighted value, equal neighbours merged — is an
/// [`IntervalTrace`] built at most once, on first use, from one merge of
/// the parts' [`spans`](VulnerabilityTrace::spans) walks, and shared
/// across threads via [`OnceLock`]: the first query builds it on its own
/// thread, and concurrent first queries block until that build is done and
/// then share it. `breakpoints` and `spans` answer from it, and compiling
/// the composite shares its records; `vulnerability_at`,
/// `cumulative_within_period` and `avf` keep weighting the parts' own
/// answers, with the same expression the table uses.
#[derive(Clone)]
pub struct CompositeTrace {
    parts: Vec<(f64, Arc<dyn VulnerabilityTrace>)>,
    total_weight: f64,
    period: u64,
    table: OnceLock<IntervalTrace>,
}

impl std::fmt::Debug for CompositeTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompositeTrace")
            .field("part_count", &self.parts.len())
            .field("weights", &self.parts.iter().map(|(w, _)| *w).collect::<Vec<_>>())
            .field("total_weight", &self.total_weight)
            .field("period", &self.period)
            .field("tabled", &self.table.get().is_some())
            .finish()
    }
}

impl CompositeTrace {
    /// Builds a composite from `(weight, trace)` pairs. Weights are
    /// typically the units' raw error rates; only their ratios matter.
    ///
    /// # Errors
    ///
    /// Returns [`SerrError::InvalidTrace`] if `parts` is empty, any weight is
    /// non-positive or non-finite, the weights sum to zero, or the traces do
    /// not all share one period.
    pub fn new(parts: Vec<(f64, Arc<dyn VulnerabilityTrace>)>) -> Result<Self, SerrError> {
        if parts.is_empty() {
            return Err(SerrError::invalid_trace("composite requires at least one part"));
        }
        let period = parts[0].1.period_cycles();
        let mut total_weight = 0.0;
        for (w, t) in &parts {
            if !(*w > 0.0 && w.is_finite()) {
                return Err(SerrError::invalid_trace(format!(
                    "composite weight must be positive and finite, got {w}"
                )));
            }
            if t.period_cycles() != period {
                return Err(SerrError::invalid_trace(format!(
                    "composite parts must share one period: {} vs {period}",
                    t.period_cycles()
                )));
            }
            total_weight += w;
        }
        Ok(CompositeTrace { parts, total_weight, period, table: OnceLock::new() })
    }

    /// Number of unit traces combined.
    #[must_use]
    pub fn part_count(&self) -> usize {
        self.parts.len()
    }

    /// The sum of the weights (e.g. the processor's total raw error rate in
    /// whatever unit the caller used).
    #[must_use]
    pub fn total_weight(&self) -> f64 {
        self.total_weight
    }

    /// The weighted mean of one value per part, in part order — the single
    /// expression behind every composite vulnerability.
    fn mix(&self, values: impl Iterator<Item = f64>) -> f64 {
        let s: f64 = self.parts.iter().zip(values).map(|((w, _), v)| w * v).sum();
        s / self.total_weight
    }

    /// The memoized span table, built by one merge of the parts' walks.
    fn table(&self) -> &IntervalTrace {
        self.table.get_or_init(|| {
            let mut table = IntervalTraceBuilder::new();
            merge_spans(self.parts.iter().map(|(_, t)| &**t), |end, vs| {
                table.push_span(end, self.mix(vs.iter().copied()))
            })
            .and_then(|()| table.finish())
            .expect("a weighted mean of vulnerabilities is a vulnerability")
        })
    }
}

/// Walks the union of several same-period traces' spans in one pass,
/// calling `f(end, values)` once per merged span with each trace's
/// vulnerability over it, in trace order. The merged ends are the sorted,
/// deduplicated union of the traces' breakpoints. Stops at the first error
/// `f` returns.
pub(crate) fn merge_spans<'a, E>(
    traces: impl Iterator<Item = &'a dyn VulnerabilityTrace>,
    mut f: impl FnMut(u64, &[f64]) -> Result<(), E>,
) -> Result<(), E> {
    let mut walks: Vec<_> = traces.map(|t| t.spans()).collect();
    // Each walk's current span; an exhausted walk parks at u64::MAX.
    let (mut ends, mut values): (Vec<u64>, Vec<f64>) =
        walks.iter_mut().map(|w| w.next().unwrap_or((u64::MAX, 0.0))).unzip();
    loop {
        let end = ends.iter().copied().min().unwrap_or(u64::MAX);
        if end == u64::MAX {
            return Ok(());
        }
        f(end, &values)?;
        for ((walk, e), v) in walks.iter_mut().zip(&mut ends).zip(&mut values) {
            if *e == end {
                (*e, *v) = walk.next().unwrap_or((u64::MAX, *v));
            }
        }
    }
}

impl VulnerabilityTrace for CompositeTrace {
    fn period_cycles(&self) -> u64 {
        self.period
    }

    fn vulnerability_at(&self, cycle: u64) -> f64 {
        self.mix(self.parts.iter().map(|(_, t)| t.vulnerability_at(cycle)))
    }

    fn cumulative_within_period(&self, r: u64) -> f64 {
        let s: f64 = self.parts.iter().map(|(w, t)| w * t.cumulative_within_period(r)).sum();
        s / self.total_weight
    }

    fn breakpoints(&self) -> Vec<u64> {
        self.table().breakpoints()
    }

    fn spans(&self) -> Box<dyn Iterator<Item = (u64, f64)> + '_> {
        self.table().spans()
    }

    fn span_table(&self) -> Option<IntervalTrace> {
        Some(self.table().clone())
    }

    fn span_count_hint(&self) -> u64 {
        match self.table.get() {
            Some(table) => table.span_count_hint(),
            // The merged breakpoint set is at most the sum of the parts'.
            None => {
                self.parts.iter().map(|(_, t)| t.span_count_hint()).fold(0u64, u64::saturating_add)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShiftedTrace;

    fn arc(t: IntervalTrace) -> Arc<dyn VulnerabilityTrace> {
        Arc::new(t)
    }

    #[test]
    fn single_part_is_identity() {
        let t = IntervalTrace::busy_idle(3, 5).unwrap();
        let c = CompositeTrace::new(vec![(7.0, arc(t.clone()))]).unwrap();
        for cyc in 0..8 {
            assert_eq!(c.vulnerability_at(cyc), t.vulnerability_at(cyc));
        }
        assert_eq!(c.avf(), t.avf());
        assert_eq!(c.part_count(), 1);
        assert_eq!(c.total_weight(), 7.0);
    }

    #[test]
    fn replicas_keep_the_shape() {
        // Identical phase-aligned replicas: the summed weight grows with
        // the count, the vulnerability shape does not move.
        let day = arc(IntervalTrace::busy_idle(500, 500).unwrap());
        let c = CompositeTrace::new(vec![(2.0, day); 1000]).unwrap();
        assert_eq!(c.total_weight(), 2000.0);
        assert_eq!(c.vulnerability_at(0), 1.0);
        assert_eq!(c.vulnerability_at(500), 0.0);
        assert!((c.avf() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn shifted_parts_desynchronize_idle_windows() {
        let day = arc(IntervalTrace::busy_idle(500, 500).unwrap());
        let shifted: Arc<dyn VulnerabilityTrace> = Arc::new(ShiftedTrace::new(day.clone(), 500));
        let c = CompositeTrace::new(vec![(1.0, day), (1.0, shifted)]).unwrap();
        // At any cycle exactly one of the two replicas is busy.
        for cyc in [0u64, 250, 499, 500, 750, 999] {
            assert!((c.vulnerability_at(cyc) - 0.5).abs() < 1e-12, "cycle {cyc}");
        }
        assert_eq!(c.part_count(), 2);
    }

    #[test]
    fn avf_is_weighted_average_of_unit_avfs() {
        // Key identity used by the AVF step on composed processors.
        let a = IntervalTrace::busy_idle(4, 4).unwrap(); // AVF 0.5
        let b = IntervalTrace::busy_idle(2, 6).unwrap(); // AVF 0.25
        let c = CompositeTrace::new(vec![(3.0, arc(a)), (1.0, arc(b))]).unwrap();
        let expected = (3.0 * 0.5 + 1.0 * 0.25) / 4.0;
        assert!((c.avf() - expected).abs() < 1e-12);
    }

    #[test]
    fn pointwise_weighted_average() {
        let a = IntervalTrace::from_levels(&[1.0, 0.0, 0.5, 0.25]).unwrap();
        let b = IntervalTrace::from_levels(&[0.0, 1.0, 0.5, 0.75]).unwrap();
        let c = CompositeTrace::new(vec![(1.0, arc(a.clone())), (3.0, arc(b.clone()))]).unwrap();
        for cyc in 0..4 {
            let want = (a.vulnerability_at(cyc) + 3.0 * b.vulnerability_at(cyc)) / 4.0;
            assert!((c.vulnerability_at(cyc) - want).abs() < 1e-12, "cycle {cyc}");
        }
    }

    #[test]
    fn cumulative_consistent_with_pointwise() {
        let a = IntervalTrace::from_levels(&[1.0, 0.0, 0.5, 0.25, 0.0, 1.0]).unwrap();
        let b = IntervalTrace::from_levels(&[0.0, 0.5, 0.5, 1.0, 0.25, 0.0]).unwrap();
        let c = CompositeTrace::new(vec![(2.0, arc(a)), (5.0, arc(b))]).unwrap();
        let mut acc = 0.0;
        for cyc in 0..6 {
            assert!((c.cumulative_within_period(cyc) - acc).abs() < 1e-12);
            acc += c.vulnerability_at(cyc);
        }
        assert!((c.cumulative_within_period(6) - acc).abs() < 1e-12);
    }

    #[test]
    fn table_matches_the_part_lookups_and_makes_the_hint_exact() {
        let a = IntervalTrace::from_levels(&[1.0, 1.0, 0.0, 0.5, 0.5, 0.25]).unwrap();
        let b = IntervalTrace::from_levels(&[0.0, 1.0, 1.0, 1.0, 0.5, 0.5]).unwrap();
        let c = CompositeTrace::new(vec![(2.0, arc(a.clone())), (0.5, arc(b.clone()))]).unwrap();
        // Before the table: the sum of the parts' span counts.
        assert_eq!(c.span_count_hint(), 4 + 3);
        assert_eq!(c.breakpoints(), vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(c.span_count_hint(), 6);
        for cyc in 0..12 {
            let want = (2.0 * a.vulnerability_at(cyc) + 0.5 * b.vulnerability_at(cyc)) / 2.5;
            assert_eq!(c.vulnerability_at(cyc).to_bits(), want.to_bits(), "cycle {cyc}");
        }
    }

    #[test]
    fn concurrent_first_uses_agree_on_one_table() {
        let levels: Vec<f64> = (0..5_000).map(|i| ((i * 7) % 5) as f64 / 4.0).collect();
        let other: Vec<f64> = (0..5_000).map(|i| ((i * 3) % 4) as f64 / 3.0).collect();
        let build = || {
            CompositeTrace::new(vec![
                (1.0, arc(IntervalTrace::from_levels(&levels).unwrap())),
                (3.0, arc(IntervalTrace::from_levels(&other).unwrap())),
            ])
            .unwrap()
        };
        let c = build();
        let start = std::sync::Barrier::new(4);
        let walks: Vec<Vec<(u64, f64)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        c.spans().collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("walker thread")).collect()
        });
        assert!(walks.iter().all(|w| *w == walks[0]));
        assert_eq!(walks[0], build().spans().collect::<Vec<_>>());
    }

    #[test]
    fn rejects_mismatched_periods_and_bad_weights() {
        let a = arc(IntervalTrace::busy_idle(2, 2).unwrap());
        let b = arc(IntervalTrace::busy_idle(3, 3).unwrap());
        assert!(CompositeTrace::new(vec![(1.0, a.clone()), (1.0, b)]).is_err());
        assert!(CompositeTrace::new(vec![(0.0, a.clone())]).is_err());
        assert!(CompositeTrace::new(vec![(-1.0, a.clone())]).is_err());
        assert!(CompositeTrace::new(vec![(f64::NAN, a)]).is_err());
        assert!(CompositeTrace::new(vec![]).is_err());
    }
}
