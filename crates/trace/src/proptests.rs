//! Property-based tests on trace invariants.

use proptest::prelude::*;

use crate::{
    decode_interval_trace, encode_interval_trace, CompiledTrace, CompositeTrace, ConcatTrace,
    DenseTrace, IntervalTrace, ScaledTrace, Segment, ShiftedTrace, Transform, TransformPipeline,
    VulnerabilityTrace,
};
use std::sync::Arc;

fn arb_levels() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec((0..=16u8).prop_map(|q| f64::from(q) / 16.0), 1..200)
}

fn arb_segments() -> impl Strategy<Value = Vec<Segment>> {
    prop::collection::vec(
        (1..1000u64, (0..=20u8).prop_map(|q| f64::from(q) / 20.0))
            .prop_map(|(len, v)| Segment::new(len, v).expect("valid by construction")),
        1..30,
    )
}

proptest! {
    #[test]
    fn interval_avf_in_unit_range(segs in arb_segments()) {
        let t = IntervalTrace::from_segments(segs).unwrap();
        let avf = t.avf();
        prop_assert!((0.0..=1.0).contains(&avf));
    }

    #[test]
    fn interval_matches_dense_reference(levels in arb_levels()) {
        let dense = DenseTrace::new(levels.clone()).unwrap();
        let interval = IntervalTrace::from_levels(&levels).unwrap();
        prop_assert_eq!(dense.period_cycles(), interval.period_cycles());
        for c in 0..levels.len() as u64 {
            prop_assert!((dense.vulnerability_at(c) - interval.vulnerability_at(c)).abs() < 1e-6);
        }
        prop_assert!((dense.avf() - interval.avf()).abs() < 1e-6);
    }

    #[test]
    fn cumulative_is_monotone_and_consistent(segs in arb_segments()) {
        let t = IntervalTrace::from_segments(segs).unwrap();
        let period = t.period_cycles();
        let step = (period / 64).max(1);
        let mut prev = 0.0;
        let mut r = 0;
        while r <= period {
            let c = t.cumulative_within_period(r);
            prop_assert!(c >= prev - 1e-12, "cumulative decreased at {}", r);
            prev = c;
            r += step;
        }
        // Full-period cumulative equals AVF x L.
        let full = t.cumulative_within_period(period);
        prop_assert!((full - t.avf() * period as f64).abs() < 1e-9);
    }

    #[test]
    fn cumulative_difference_equals_pointwise_sum(levels in arb_levels()) {
        let t = IntervalTrace::from_levels(&levels).unwrap();
        let n = levels.len() as u64;
        let a = n / 3;
        let b = 2 * n / 3;
        let diff = t.cumulative_within_period(b) - t.cumulative_within_period(a);
        let direct: f64 = (a..b).map(|c| t.vulnerability_at(c)).sum();
        prop_assert!((diff - direct).abs() < 1e-9);
    }

    #[test]
    fn encode_decode_roundtrip(segs in arb_segments()) {
        let t = IntervalTrace::from_segments(segs).unwrap();
        let enc = encode_interval_trace(&t);
        let dec = decode_interval_trace(&enc).unwrap();
        prop_assert_eq!(dec, t);
    }

    #[test]
    fn composite_vulnerability_bounded(
        a in arb_levels(),
        w1 in 0.1f64..100.0,
        w2 in 0.1f64..100.0,
    ) {
        let n = a.len();
        let b: Vec<f64> = a.iter().map(|v| 1.0 - v).collect();
        let ta: Arc<dyn VulnerabilityTrace> = Arc::new(IntervalTrace::from_levels(&a).unwrap());
        let tb: Arc<dyn VulnerabilityTrace> = Arc::new(IntervalTrace::from_levels(&b).unwrap());
        let c = CompositeTrace::new(vec![(w1, ta), (w2, tb)]).unwrap();
        for cyc in 0..n as u64 {
            let v = c.vulnerability_at(cyc);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&v));
        }
        prop_assert!((0.0..=1.0 + 1e-12).contains(&c.avf()));
    }

    #[test]
    fn wraparound_agrees_with_reduction(levels in arb_levels(), k in 0u64..5, off in 0u64..1000) {
        let t = IntervalTrace::from_levels(&levels).unwrap();
        let period = t.period_cycles();
        let cycle = k * period + (off % period);
        prop_assert_eq!(t.vulnerability_at(cycle), t.vulnerability_at(cycle % period));
    }
}

/// Crowded-bucket shape: many 1-cycle segments packed at the start of the
/// period followed by one enormous idle tail. The tail forces wide buckets,
/// so all the short segments share one bucket and point queries must take
/// the in-bucket binary-search fallback.
fn arb_crowded_segments() -> impl Strategy<Value = (Vec<Segment>, u64)> {
    (prop::collection::vec((0..=4u8).prop_map(|q| f64::from(q) / 4.0), 64..512), 30u32..45)
        .prop_map(|(head, tail_log2)| {
            let mut segs: Vec<Segment> = head
                .iter()
                .map(|&v| Segment::new(1, v).expect("1-cycle segment is valid"))
                .collect();
            segs.push(Segment::new(1u64 << tail_log2, 0.0).expect("tail segment is valid"));
            (segs, head.len() as u64)
        })
}

/// Cycles that stress `CompiledTrace::segment_index`: every bucket boundary
/// ±1 plus the segment ends themselves, the places where an off-by-one in
/// the bucket table or the scan loop would first show.
fn boundary_cycles(c: &CompiledTrace) -> Vec<u64> {
    let period = c.period_cycles();
    let mut cycles = Vec::new();
    let width = c.bucket_cycles();
    for b in 0..c.bucket_count() as u64 {
        let start = b * width;
        for x in [start.saturating_sub(1), start, start + 1] {
            if x < period {
                cycles.push(x);
            }
        }
    }
    for &end in &c.breakpoints() {
        for x in [end - 1, end % period, (end + 1) % period] {
            cycles.push(x);
        }
    }
    cycles
}

proptest! {
    #[test]
    fn compiled_matches_naive_at_bucket_boundaries_and_wraparound(
        levels in arb_levels(),
        k in 1u64..4,
    ) {
        let src = IntervalTrace::from_levels(&levels).unwrap();
        let c = CompiledTrace::compile(&src).unwrap();
        let period = c.period_cycles();
        for cyc in boundary_cycles(&c) {
            prop_assert_eq!(
                c.vulnerability_at(cyc),
                src.vulnerability_at(cyc),
                "cycle {} of period {}", cyc, period
            );
            // Period wrap-around: cycle k·L + c must reduce to cycle c.
            let wrapped = k * period + cyc;
            prop_assert_eq!(c.vulnerability_at(wrapped), c.vulnerability_at(cyc));
        }
        // The cycle just before wrap and the wrap itself.
        prop_assert_eq!(c.vulnerability_at(period - 1), src.vulnerability_at(period - 1));
        prop_assert_eq!(c.vulnerability_at(period), src.vulnerability_at(0));
    }

    #[test]
    fn compiled_matches_naive_on_crowded_and_capped_bucket_tables(
        (segs, head_len) in arb_crowded_segments(),
    ) {
        let src = IntervalTrace::from_segments(segs).unwrap();
        let c = CompiledTrace::compile(&src).unwrap();
        let period = c.period_cycles();
        // The huge tail must have forced buckets wider than one cycle, so
        // the 1-cycle head segments all share the first bucket (the crowded
        // in-bucket search path) — otherwise this test isn't testing it.
        prop_assert!(c.bucket_cycles() > head_len, "buckets not crowded");
        for cyc in (0..head_len + 2).chain(boundary_cycles(&c)) {
            prop_assert_eq!(
                c.vulnerability_at(cyc),
                src.vulnerability_at(cyc),
                "cycle {} of period {}", cyc, period
            );
        }
        // Wrap-around across the huge period must reduce exactly, including
        // the last cycle of the tail.
        for cyc in [period - 1, period, period + 1, 3 * period - 1, 3 * period + head_len] {
            prop_assert_eq!(c.vulnerability_at(cyc), src.vulnerability_at(cyc % period));
        }
        c.verify().expect("freshly compiled crowded trace verifies");
    }
}

/// A non-degenerate protection transform with parameters scaled to the
/// small traces `arb_segments`/`arb_levels` produce.
fn arb_transform() -> impl Strategy<Value = Transform> {
    prop_oneof![
        Just(Transform::Identity),
        (2..256u32).prop_map(|word_bits| Transform::EccSecDed { word_bits }),
        (1..5000u64).prop_map(|interval_cycles| Transform::Scrub { interval_cycles }),
        (0..200u64).prop_map(|window_cycles| Transform::DelayReport { window_cycles }),
    ]
}

proptest! {
    #[test]
    fn identity_transform_is_a_bit_for_bit_noop(segs in arb_segments()) {
        let t = IntervalTrace::from_segments(segs).unwrap();
        prop_assert_eq!(Transform::Identity.apply(&t).unwrap(), t.clone());
        prop_assert_eq!(TransformPipeline::identity().apply_interval(&t).unwrap(), t);
    }

    #[test]
    fn transforms_preserve_period_and_reduce_avf(
        segs in arb_segments(),
        t in arb_transform(),
    ) {
        let src = IntervalTrace::from_segments(segs).unwrap();
        if let Transform::DelayReport { window_cycles } = t {
            prop_assume!(window_cycles < src.period_cycles());
        }
        let out = t.apply(&src).unwrap();
        prop_assert_eq!(out.period_cycles(), src.period_cycles());
        // Protection never *adds* vulnerability: the tier-1 smoke's
        // protected-MTTF ≥ baseline assertion rests on this.
        prop_assert!(out.avf() <= src.avf() + 1e-12, "{} raised AVF", t);
        for c in (0..src.period_cycles()).step_by(97) {
            prop_assert!((0.0..=1.0).contains(&out.vulnerability_at(c)));
        }
    }

    #[test]
    fn ecc_and_delay_commute(
        segs in arb_segments(),
        word_bits in 2..256u32,
        window in 0..500u64,
    ) {
        // ECC is a pointwise value map with ecc(0) = 0; delay rearranges
        // cycles and zero-fills the tail. Maps with a zero fixed point
        // commute with rearrange-and-zero, bit for bit.
        let src = IntervalTrace::from_segments(segs).unwrap();
        prop_assume!(window < src.period_cycles());
        let ecc = Transform::EccSecDed { word_bits };
        let delay = Transform::DelayReport { window_cycles: window };
        let a = delay.apply(&ecc.apply(&src).unwrap()).unwrap();
        let b = ecc.apply(&delay.apply(&src).unwrap()).unwrap();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn scrub_preserves_mass_within_each_interval(
        levels in arb_levels(),
        interval in 1..300u64,
    ) {
        // The staircase's midpoint rule is exact for the linear ramp, so
        // cumulative mass at every scrub boundary matches the closed-form
        // integral of v(c)·((c mod T)/T) to float tolerance.
        let src = IntervalTrace::from_levels(&levels).unwrap();
        let out = Transform::Scrub { interval_cycles: interval }.apply(&src).unwrap();
        let period = src.period_cycles();
        // Per-cycle reference: the midpoint-rule mass of cycle c is
        // v(c)·((c mod T) + 0.5)/T, and summed over any whole step range it
        // equals the staircase mass exactly (both are the trapezoid
        // integral of the linear ramp).
        let mut want_prefix = Vec::with_capacity(period as usize + 1);
        let mut acc = 0.0f64;
        want_prefix.push(0.0);
        for c in 0..period {
            let ramp = ((c % interval) as f64 + 0.5) / interval as f64;
            acc += src.vulnerability_at(c) * ramp;
            want_prefix.push(acc);
        }
        let mut boundary = interval.min(period);
        loop {
            let got = out.cumulative_within_period(boundary);
            let want = want_prefix[boundary as usize];
            prop_assert!(
                (got - want).abs() <= 1e-9 * want.abs().max(1.0),
                "boundary {}: staircase {} vs per-cycle ramp {}", boundary, got, want
            );
            if boundary == period {
                break;
            }
            boundary = (boundary + interval).min(period);
        }
    }
}

proptest! {
    #[test]
    fn breakpoints_cover_all_value_changes(levels in arb_levels()) {
        let t = IntervalTrace::from_levels(&levels).unwrap();
        let bps = t.breakpoints();
        prop_assert_eq!(*bps.last().unwrap(), t.period_cycles());
        // Between consecutive breakpoints the vulnerability is constant.
        let mut start = 0u64;
        for &end in &bps {
            let v = t.vulnerability_at(start);
            for c in start..end {
                prop_assert_eq!(t.vulnerability_at(c), v);
            }
            start = end;
        }
        // Dense representation agrees on breakpoints semantics.
        let dense = DenseTrace::new(levels).unwrap();
        let dbps = dense.breakpoints();
        prop_assert_eq!(*dbps.last().unwrap(), dense.period_cycles());
    }
}

/// Two level lists of one shared length, for traces that must agree on a
/// period.
fn arb_level_pair() -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    let level = || (0..=16u8).prop_map(|q| f64::from(q) / 16.0);
    prop::collection::vec((level(), level()), 1..200).prop_map(|pairs| pairs.into_iter().unzip())
}

/// The span walk must yield exactly `breakpoints()`, each with the value
/// `vulnerability_at` gives at the span's first cycle, bit for bit.
fn check_walk<T: VulnerabilityTrace + ?Sized>(name: &str, t: &T) -> Result<(), TestCaseError> {
    let walk: Vec<(u64, f64)> = t.spans().collect();
    let ends: Vec<u64> = walk.iter().map(|&(end, _)| end).collect();
    prop_assert_eq!(&ends, &t.breakpoints(), "{}: walk ends differ from breakpoints", name);
    let mut start = 0u64;
    for &(end, v) in &walk {
        let want = t.vulnerability_at(start);
        prop_assert_eq!(
            v.to_bits(),
            want.to_bits(),
            "{}: span [{}, {}) walks {} not {}",
            name,
            start,
            end,
            v,
            want
        );
        start = end;
    }
    Ok(())
}

proptest! {
    #[test]
    fn span_walk_agrees_with_breakpoints_and_lookups(
        (a, b) in arb_level_pair(),
        shift in 0u64..400,
        w in 0.1f64..10.0,
        factor in 0.0f64..=1.0,
    ) {
        let ia: Arc<dyn VulnerabilityTrace> = Arc::new(IntervalTrace::from_levels(&a).unwrap());
        let ib: Arc<dyn VulnerabilityTrace> = Arc::new(IntervalTrace::from_levels(&b).unwrap());
        let dense: Arc<dyn VulnerabilityTrace> = Arc::new(DenseTrace::new(b.clone()).unwrap());
        let shifted: Arc<dyn VulnerabilityTrace> = Arc::new(ShiftedTrace::new(ib.clone(), shift));
        let composite: Arc<dyn VulnerabilityTrace> = Arc::new(
            CompositeTrace::new(vec![(w, ia.clone()), (1.0, shifted), (2.5, dense.clone())])
                .unwrap(),
        );
        let traces: Vec<(&str, Arc<dyn VulnerabilityTrace>)> = vec![
            ("interval", ia.clone()),
            ("dense", dense),
            ("composite", composite.clone()),
            ("scaled", Arc::new(ScaledTrace::new(composite.clone(), factor).unwrap())),
            ("concat", Arc::new(ConcatTrace::new(vec![(ia, 2), (ib, 3)]).unwrap())),
            ("compiled", Arc::new(CompiledTrace::compile(&composite).unwrap())),
        ];
        for (name, t) in &traces {
            // Through the `&T` forwarding impl, then through `Arc<dyn _>`.
            check_walk(name, &&**t)?;
            check_walk(name, t)?;
        }
    }
}
