//! Masking-trace collection during simulation.
//!
//! The paper studies four processor components (Section 4.1):
//!
//! * **integer unit**, **FP unit**, **decode unit** — a raw error in a cycle
//!   is masked iff the unit is not processing an instruction that cycle;
//!   with multiple functional-unit instances we record the busy *fraction*
//!   (a raw error strikes each instance with equal probability);
//! * **register file** — errors strike the 256 entries uniformly; an entry
//!   is vulnerable while it holds a value that will still be read.

use serr_trace::{IntervalTrace, IntervalTraceBuilder};
use serr_types::SerrError;

/// The per-component masking traces produced by one simulation, each with
/// period equal to the simulated cycle count (the workload loops, paper
/// Section 3 assumption 2).
#[derive(Debug, Clone)]
pub struct ProcessorMaskingTraces {
    /// Integer-unit busy fraction per cycle.
    pub int_unit: IntervalTrace,
    /// FP-unit busy fraction per cycle.
    pub fp_unit: IntervalTrace,
    /// Decode (dispatch) slot occupancy per cycle.
    pub decode: IntervalTrace,
    /// Register-file live fraction per cycle (live entries / 256).
    pub regfile: IntervalTrace,
}

/// Accumulates unit occupancy during simulation as events — merged busy
/// intervals per functional unit, one `(cycle, count)` entry per dispatching
/// cycle, register liveness boundaries — then folds them into run-length
/// traces. Memory is proportional to events, not to simulated cycles, so
/// idle stretches cost nothing.
#[derive(Debug)]
pub struct MaskingCollector {
    /// Per functional-unit instance: disjoint, ascending `[start, end)`
    /// busy intervals, merged as marks arrive.
    int_fus: Vec<Vec<(u64, u64)>>,
    fp_fus: Vec<Vec<(u64, u64)>>,
    /// `(cycle, instructions dispatched)`, one entry per cycle, ascending.
    decode: Vec<(u64, u16)>,
    /// Register liveness boundaries: the first vulnerable cycle and the
    /// first cycle after it of every interval, in arrival order.
    rf_starts: Vec<u64>,
    rf_stops: Vec<u64>,
    dispatch_width: usize,
    regfile_entries: usize,
}

impl MaskingCollector {
    /// Creates a collector for a machine with the given unit counts.
    #[must_use]
    pub fn new(
        int_units: usize,
        fp_units: usize,
        dispatch_width: usize,
        regfile_entries: usize,
    ) -> Self {
        MaskingCollector {
            int_fus: vec![Vec::new(); int_units],
            fp_fus: vec![Vec::new(); fp_units],
            decode: Vec::new(),
            rf_starts: Vec::new(),
            rf_stops: Vec::new(),
            dispatch_width,
            regfile_entries,
        }
    }

    /// Unions `[start, end)` into one unit's busy intervals. Marks reach a
    /// unit in non-decreasing `start` order (issue happens in cycle order),
    /// so only the last interval can overlap or touch the new one.
    fn mark(busy: &mut Vec<(u64, u64)>, start: u64, end: u64) {
        let end = end.max(start + 1);
        match busy.last_mut() {
            Some(last) if start <= last.1 => {
                debug_assert!(start >= last.0, "busy marks must arrive in start order");
                last.1 = last.1.max(end);
            }
            _ => busy.push((start, end)),
        }
    }

    /// Marks integer FU `fu` busy over `[start, end)` cycles. Successive
    /// marks of one unit must not start earlier than the previous one.
    pub fn mark_int(&mut self, fu: usize, start: u64, end: u64) {
        Self::mark(&mut self.int_fus[fu], start, end);
    }

    /// Marks FP FU `fu` busy over `[start, end)` cycles. Successive marks
    /// of one unit must not start earlier than the previous one.
    pub fn mark_fp(&mut self, fu: usize, start: u64, end: u64) {
        Self::mark(&mut self.fp_fus[fu], start, end);
    }

    /// Records `n` instructions dispatched (decoded) in `cycle`; cycles
    /// arrive in non-decreasing order.
    pub fn mark_decode(&mut self, cycle: u64, n: usize) {
        match self.decode.last_mut() {
            Some(last) if last.0 == cycle => last.1 += n as u16,
            _ => {
                debug_assert!(self.decode.last().is_none_or(|l| l.0 < cycle));
                self.decode.push((cycle, n as u16));
            }
        }
    }

    /// Records a register-file entry vulnerable over `[start, end]` cycles
    /// (inclusive, matching the liveness intervals of `RenameState`), in
    /// any order.
    pub fn mark_regfile(&mut self, start: u64, end: u64) {
        self.rf_starts.push(start);
        self.rf_stops.push((end + 1).max(start + 1));
    }

    /// Materializes the four traces over `total_cycles` simulated cycles;
    /// marks past the horizon are clipped.
    ///
    /// # Errors
    ///
    /// Returns [`SerrError::InvalidTrace`] if `total_cycles` is zero.
    pub fn finish(mut self, total_cycles: u64) -> Result<ProcessorMaskingTraces, SerrError> {
        if total_cycles == 0 {
            return Err(SerrError::invalid_trace("simulation produced no cycles"));
        }
        let n = total_cycles;

        // A unit-kind's vulnerability: fraction of its FU instances busy in
        // the cycle. Each unit's intervals are disjoint, so the running
        // count of open intervals is the number of busy instances (a small
        // integer, so `busy as f64` is exactly a sum of that many 1.0s).
        let fu_fraction = |fus: &[Vec<(u64, u64)>]| {
            let k = fus.len() as f64;
            let events = fus
                .iter()
                .map(|busy| -> Events<'_> {
                    Box::new(busy.iter().flat_map(|&(s, e)| [(s, 1), (e, -1)]))
                })
                .reduce(|a, b| Box::new(merge(a, b)))
                .unwrap_or_else(|| Box::new(std::iter::empty()));
            fold(events, n, |busy| busy as f64 / k)
        };
        let width = self.dispatch_width as f64;
        let decode_events =
            self.decode.iter().flat_map(|&(c, d)| [(c, i64::from(d)), (c + 1, -i64::from(d))]);
        let entries = self.regfile_entries as f64;
        self.rf_starts.sort_unstable();
        self.rf_stops.sort_unstable();
        let rf_events =
            merge(self.rf_starts.iter().map(|&c| (c, 1)), self.rf_stops.iter().map(|&c| (c, -1)));

        Ok(ProcessorMaskingTraces {
            int_unit: fu_fraction(&self.int_fus)?,
            fp_unit: fu_fraction(&self.fp_fus)?,
            decode: fold(decode_events, n, |d| (d as f64 / width).min(1.0))?,
            regfile: fold(rf_events, n, |live| (live.max(0) as f64 / entries).min(1.0))?,
        })
    }
}

/// An ascending stream of `(cycle, delta)` level changes.
type Events<'a> = Box<dyn Iterator<Item = (u64, i64)> + 'a>;

/// Merges two ascending `(cycle, delta)` streams into one.
fn merge(
    a: impl Iterator<Item = (u64, i64)>,
    b: impl Iterator<Item = (u64, i64)>,
) -> impl Iterator<Item = (u64, i64)> {
    let (mut a, mut b) = (a.peekable(), b.peekable());
    std::iter::from_fn(move || match (a.peek(), b.peek()) {
        (Some(x), Some(y)) if y.0 < x.0 => b.next(),
        (Some(_), _) => a.next(),
        (None, _) => b.next(),
    })
}

/// Folds ascending `(cycle, delta)` events into a trace over `n` cycles:
/// each run between event cycles carries `level(running sum)`. Runs of
/// equal level merge in the builder, so the segments are exactly those of
/// the per-cycle level sequence.
fn fold(
    events: impl Iterator<Item = (u64, i64)>,
    n: u64,
    level: impl Fn(i64) -> f64,
) -> Result<IntervalTrace, SerrError> {
    let mut builder = IntervalTraceBuilder::new();
    let (mut at, mut sum) = (0u64, 0i64);
    for (c, delta) in events {
        if c >= n {
            break;
        }
        if c > at {
            builder.push_cycles(c - at, level(sum))?;
            at = c;
        }
        sum += delta;
    }
    builder.push_cycles(n - at, level(sum))?;
    builder.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use serr_trace::VulnerabilityTrace;

    #[test]
    fn unit_fraction_counts_busy_instances() {
        let mut mc = MaskingCollector::new(2, 2, 5, 256);
        mc.mark_int(0, 0, 4); // FU0 busy cycles 0..4
        mc.mark_int(1, 2, 3); // FU1 busy cycle 2
        let traces = mc.finish(6).unwrap();
        assert_eq!(traces.int_unit.vulnerability_at(0), 0.5);
        assert_eq!(traces.int_unit.vulnerability_at(2), 1.0);
        assert_eq!(traces.int_unit.vulnerability_at(3), 0.5);
        assert_eq!(traces.int_unit.vulnerability_at(4), 0.0);
        assert_eq!(traces.fp_unit.avf(), 0.0);
    }

    #[test]
    fn overlapping_pipelined_ops_still_one_busy_unit() {
        let mut mc = MaskingCollector::new(2, 2, 5, 256);
        // Three overlapping multiplies in the same FU: occupancy 3, busy 1.
        mc.mark_int(0, 0, 4);
        mc.mark_int(0, 1, 5);
        mc.mark_int(0, 2, 6);
        let traces = mc.finish(8).unwrap();
        assert_eq!(traces.int_unit.vulnerability_at(3), 0.5);
        assert_eq!(traces.int_unit.vulnerability_at(5), 0.5);
        assert_eq!(traces.int_unit.vulnerability_at(6), 0.0);
    }

    #[test]
    fn decode_fraction_of_dispatch_width() {
        let mut mc = MaskingCollector::new(2, 2, 5, 256);
        mc.mark_decode(0, 5);
        mc.mark_decode(1, 2);
        let traces = mc.finish(3).unwrap();
        assert_eq!(traces.decode.vulnerability_at(0), 1.0);
        assert_eq!(traces.decode.vulnerability_at(1), 0.4);
        assert_eq!(traces.decode.vulnerability_at(2), 0.0);
    }

    #[test]
    fn regfile_liveness_accumulates() {
        let mut mc = MaskingCollector::new(2, 2, 5, 256);
        mc.mark_regfile(0, 3);
        mc.mark_regfile(2, 5);
        let traces = mc.finish(8).unwrap();
        assert_eq!(traces.regfile.vulnerability_at(0), 1.0 / 256.0);
        assert_eq!(traces.regfile.vulnerability_at(2), 2.0 / 256.0);
        assert_eq!(traces.regfile.vulnerability_at(4), 1.0 / 256.0);
        assert_eq!(traces.regfile.vulnerability_at(6), 0.0);
    }

    #[test]
    fn zero_cycles_is_an_error() {
        let mc = MaskingCollector::new(2, 2, 5, 256);
        assert!(mc.finish(0).is_err());
    }

    #[test]
    fn marks_beyond_horizon_are_clipped_to_period() {
        let mut mc = MaskingCollector::new(1, 1, 5, 256);
        mc.mark_int(0, 2, 10);
        // Simulation ended at cycle 5: the trace only spans 5 cycles.
        let traces = mc.finish(5).unwrap();
        assert_eq!(traces.int_unit.period_cycles(), 5);
        assert_eq!(traces.int_unit.vulnerability_at(4), 1.0);
    }

    /// The per-cycle collector the event collector replaced, kept as the
    /// reference: difference arrays per FU instance, a decode count per
    /// cycle and a register-file difference array, expanded to one level
    /// per cycle.
    #[derive(Default)]
    struct DenseReference {
        int_fu_diff: Vec<Vec<i32>>,
        fp_fu_diff: Vec<Vec<i32>>,
        decode_count: Vec<u16>,
        rf_diff: Vec<i32>,
    }

    impl DenseReference {
        fn bump(diff: &mut Vec<i32>, start: u64, end: u64) {
            let end = end.max(start + 1) as usize;
            if diff.len() < end + 1 {
                diff.resize(end + 1, 0);
            }
            diff[start as usize] += 1;
            diff[end] -= 1;
        }

        fn finish(&self, n: u64, width: usize, entries: usize) -> [Vec<u8>; 4] {
            let n = n as usize;
            let fu_fraction = |fus: &[Vec<i32>]| -> Vec<f64> {
                let mut frac = vec![0.0f64; n];
                for diff in fus {
                    let mut occ = 0i64;
                    for (c, slot) in frac.iter_mut().enumerate() {
                        occ += i64::from(diff.get(c).copied().unwrap_or(0));
                        if occ > 0 {
                            *slot += 1.0;
                        }
                    }
                }
                let k = fus.len() as f64;
                frac.iter_mut().for_each(|v| *v /= k);
                frac
            };
            let decode: Vec<f64> = (0..n)
                .map(|c| {
                    let d = self.decode_count.get(c).copied().unwrap_or(0) as f64;
                    (d / width as f64).min(1.0)
                })
                .collect();
            let mut live = 0i64;
            let rf: Vec<f64> = (0..n)
                .map(|c| {
                    live += i64::from(self.rf_diff.get(c).copied().unwrap_or(0));
                    (live.max(0) as f64 / entries as f64).min(1.0)
                })
                .collect();
            [fu_fraction(&self.int_fu_diff), fu_fraction(&self.fp_fu_diff), decode, rf]
                .map(|levels| encode(&IntervalTrace::from_levels(&levels).unwrap()))
        }
    }

    fn encode(t: &IntervalTrace) -> Vec<u8> {
        serr_trace::encode_interval_trace(t)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The event collector's segments are byte-identical to the dense
        /// per-cycle reference's: overlapping pipelined marks, zero-length
        /// marks, marks past the horizon, units that never fire, repeated
        /// decode marks in one cycle, and register intervals clipped to end
        /// at `total_cycles - 1` as the engine clips them.
        #[test]
        fn event_collector_matches_dense_reference(
            (int_units, fp_units) in (1..4usize, 1..4usize),
            fu_marks in prop::collection::vec((0..2u8, 0..4usize, 0..4u64, 0..40u64), 0..120),
            decode_marks in prop::collection::vec((0..3u64, 1..9usize), 0..120),
            rf_marks in prop::collection::vec((0..400u64, 0..120u64), 0..80),
            horizon in 1..400u64,
        ) {
            let (width, entries) = (5, 16);
            let mut events = MaskingCollector::new(int_units, fp_units, width, entries);
            let mut dense = DenseReference {
                int_fu_diff: vec![Vec::new(); int_units],
                fp_fu_diff: vec![Vec::new(); fp_units],
                ..DenseReference::default()
            };
            // Issue happens in cycle order: starts never decrease.
            let mut now = 0u64;
            for &(kind, fu, step, latency) in &fu_marks {
                now += step;
                if kind == 0 {
                    let fu = fu % int_units;
                    events.mark_int(fu, now, now + latency);
                    DenseReference::bump(&mut dense.int_fu_diff[fu], now, now + latency);
                } else if fu < fp_units {
                    // FP marks name unit indices 0..4, so with fewer units
                    // some marks drop and some units stay empty.
                    events.mark_fp(fu, now, now + latency);
                    DenseReference::bump(&mut dense.fp_fu_diff[fu], now, now + latency);
                }
            }
            let mut cycle = 0u64;
            for &(step, n) in &decode_marks {
                cycle += step;
                events.mark_decode(cycle, n);
                let c = cycle as usize;
                if dense.decode_count.len() <= c {
                    dense.decode_count.resize(c + 1, 0);
                }
                dense.decode_count[c] += n as u16;
            }
            for &(start, len) in &rf_marks {
                let (start, end) = (start.min(horizon - 1), (start + len).min(horizon - 1));
                events.mark_regfile(start, end);
                DenseReference::bump(&mut dense.rf_diff, start, end + 1);
            }
            let got = events.finish(horizon).unwrap();
            let want = dense.finish(horizon, width, entries);
            let got = [&got.int_unit, &got.fp_unit, &got.decode, &got.regfile].map(encode);
            let units = ["int", "fp", "decode", "regfile"];
            for ((unit, g), w) in units.iter().zip(&got).zip(&want) {
                prop_assert!(g == w, "{} trace differs from the dense reference", unit);
            }
        }
    }
}
