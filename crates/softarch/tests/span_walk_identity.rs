//! Property tests: the renewal MTTF and SoftArch read a trace's span walk
//! through its coded form, and their results are bit-identical to the
//! per-span loops they replace (copied here as references):
//!
//! * one rate at a time on random composites, against the
//!   breakpoint-plus-lookup loops that predate the span walk;
//! * over lists of 1–9 rates with duplicates, on random composite, shifted,
//!   scaled and concatenated traces, against the per-rate span loops that
//!   predate the coded pass — every element of every list.
//!
//! Every trace handed to them is wrapped in a probe that counts
//! `vulnerability_at` calls, so a forwarding impl (`&T`, `Arc<T>`) that
//! fails to forward the walk or the rate-list integrals falls back to
//! per-span lookups and fails the test even though its values would still
//! agree.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use serr_analytic::renewal::{renewal_mttf, renewal_mttfs};
use serr_softarch::{Block, SoftArch};
use serr_trace::{
    CompositeTrace, ConcatTrace, IntervalTrace, ScaledTrace, ShiftedTrace, VulnerabilityTrace,
};
use serr_types::{Frequency, Mttf, RawErrorRate};

/// Forwards every trace query to `inner` and counts point lookups.
struct Probe {
    inner: Arc<dyn VulnerabilityTrace>,
    lookups: Arc<AtomicUsize>,
}

impl VulnerabilityTrace for Probe {
    fn period_cycles(&self) -> u64 {
        self.inner.period_cycles()
    }
    fn vulnerability_at(&self, cycle: u64) -> f64 {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        self.inner.vulnerability_at(cycle)
    }
    fn cumulative_within_period(&self, r: u64) -> f64 {
        self.inner.cumulative_within_period(r)
    }
    fn breakpoints(&self) -> Vec<u64> {
        self.inner.breakpoints()
    }
    fn spans(&self) -> Box<dyn Iterator<Item = (u64, f64)> + '_> {
        self.inner.spans()
    }
    fn survival_weights(&self, lambdas: &[f64]) -> Vec<(f64, f64)> {
        self.inner.survival_weights(lambdas)
    }
    fn tiling(&self) -> Option<Vec<(Arc<dyn VulnerabilityTrace>, u64)>> {
        self.inner.tiling()
    }
    fn span_count_hint(&self) -> u64 {
        self.inner.span_count_hint()
    }
}

/// The renewal survival integrals as the trait default computed them
/// before the span walk: breakpoints, then one lookup per span.
struct LookupReference<'a>(&'a CompositeTrace);

impl VulnerabilityTrace for LookupReference<'_> {
    fn period_cycles(&self) -> u64 {
        self.0.period_cycles()
    }
    fn vulnerability_at(&self, cycle: u64) -> f64 {
        self.0.vulnerability_at(cycle)
    }
    fn cumulative_within_period(&self, r: u64) -> f64 {
        self.0.cumulative_within_period(r)
    }
    fn breakpoints(&self) -> Vec<u64> {
        self.0.breakpoints()
    }
    fn survival_weights(&self, lambdas: &[f64]) -> Vec<(f64, f64)> {
        lambdas.iter().map(|&lambda_cycle| self.survival_weight(lambda_cycle)).collect()
    }
}

impl LookupReference<'_> {
    fn survival_weight(&self, lambda_cycle: f64) -> (f64, f64) {
        let omen = |x: f64| -(-x).exp_m1();
        let mut integral = 0.0f64;
        let mut start = 0u64;
        let mut u0 = 0.0f64;
        for end in self.breakpoints() {
            let delta = (end - start) as f64;
            let v = self.vulnerability_at(start);
            let head = (-lambda_cycle * u0).exp();
            if v > 0.0 {
                integral += head * omen(lambda_cycle * v * delta) / (lambda_cycle * v);
            } else {
                integral += head * delta;
            }
            u0 += v * delta;
            start = end;
        }
        (integral, u0)
    }
}

/// SoftArch's block fold as it ran before the span walk.
fn softarch_by_lookup(trace: &CompositeTrace, rate: RawErrorRate, freq: Frequency) -> Mttf {
    let lambda_cycle = rate.per_second_value() / freq.hz();
    let mut block: Option<Block> = None;
    let mut start = 0u64;
    for end in trace.breakpoints() {
        let v = trace.vulnerability_at(start);
        let seg = Block::constant(lambda_cycle * v, end - start);
        block = Some(match block {
            Some(b) => b.then(&seg),
            None => seg,
        });
        start = end;
    }
    Mttf::from_secs(block.expect("a trace has spans").mttf_cycles() / freq.hz())
}

/// 2–4 unit traces of one period: each `(weight, levels, shift)`, where a
/// nonzero shift wraps the unit in a [`ShiftedTrace`].
fn arb_units() -> impl Strategy<Value = Vec<(f64, Vec<f64>, u64)>> {
    arb_units_over(2..40)
}

/// [`arb_units`] over a period drawn from `cycles`.
fn arb_units_over(
    cycles: std::ops::Range<usize>,
) -> impl Strategy<Value = Vec<(f64, Vec<f64>, u64)>> {
    let level = || (0..=8u8).prop_map(|q| f64::from(q) / 8.0);
    (
        prop::collection::vec(prop::collection::vec(level(), 4), cycles),
        prop::collection::vec((0.1f64..10.0, 0u64..60), 4),
        2usize..=4,
    )
        .prop_map(|(cycles, params, parts)| {
            (0..parts)
                .map(|p| {
                    let levels = cycles.iter().map(|c| c[p]).collect();
                    (params[p].0, levels, params[p].1)
                })
                .collect()
        })
}

proptest! {
    #[test]
    fn renewal_and_softarch_are_bit_identical_to_the_lookup_loops(
        units in arb_units(),
        per_year_exp in -2.0f64..12.0,
    ) {
        let lookups = Arc::new(AtomicUsize::new(0));
        let probe = |t: Arc<dyn VulnerabilityTrace>| -> Arc<dyn VulnerabilityTrace> {
            Arc::new(Probe { inner: t, lookups: lookups.clone() })
        };
        let parts: Vec<(f64, Arc<dyn VulnerabilityTrace>)> = units
            .iter()
            .map(|(w, levels, shift)| {
                let unit: Arc<dyn VulnerabilityTrace> =
                    Arc::new(IntervalTrace::from_levels(levels).unwrap());
                let unit: Arc<dyn VulnerabilityTrace> =
                    if *shift == 0 { unit } else { Arc::new(ShiftedTrace::new(unit, *shift)) };
                (*w, probe(unit))
            })
            .collect();
        let composite = CompositeTrace::new(parts.clone()).unwrap();
        prop_assume!(!composite.is_never_vulnerable());
        let freq = Frequency::base();
        let rate = RawErrorRate::per_year(10f64.powf(per_year_exp));
        let sa = SoftArch::new(freq);

        // References first, on their own composite: the lookups they make
        // are theirs and are not counted against the walk.
        let reference = CompositeTrace::new(parts).unwrap();
        let want_renewal = renewal_mttf(&LookupReference(&reference), rate, freq).unwrap();
        let want_soft = softarch_by_lookup(&reference, rate, freq);
        lookups.store(0, Ordering::Relaxed);

        let via_arc = probe(Arc::new(composite));
        let probed = Probe { inner: via_arc.clone(), lookups: lookups.clone() };
        let callers: [(&str, &dyn VulnerabilityTrace); 3] =
            [("Arc<dyn _>", &via_arc), ("&T", &&probed), ("T", &probed)];
        for (name, trace) in callers {
            let renewal = renewal_mttf(trace, rate, freq).unwrap();
            let soft = sa.component_mttf(trace, rate).unwrap();
            let (got, want) = (renewal.as_secs().to_bits(), want_renewal.as_secs().to_bits());
            prop_assert_eq!(got, want, "renewal via {}", name);
            let (got, want) = (soft.as_secs().to_bits(), want_soft.as_secs().to_bits());
            prop_assert_eq!(got, want, "SoftArch via {}", name);
        }
        prop_assert_eq!(lookups.load(Ordering::Relaxed), 0, "a walk fell back to per-span lookups");
    }
}

// ---------------------------------------------------------------------------
// Rate lists: the coded pass against the per-rate span loops.
// ---------------------------------------------------------------------------

/// A random trace, with the structure the reference loops dispatch on.
#[derive(Debug, Clone)]
enum Shape {
    /// A composite of `(weight, levels, shift)` units.
    Composite(Vec<(f64, Vec<f64>, u64)>),
    /// `factor · inner`.
    Scaled(Box<Shape>, f64),
    /// Parts tiled end to end.
    Concat(Vec<(Shape, u64)>),
}

/// A built [`Shape`]: the trace at this level, every level wrapped in a
/// [`Probe`], and the built levels below it.
struct Node {
    trace: Arc<dyn VulnerabilityTrace>,
    kind: Kind,
}

enum Kind {
    Flat,
    Scaled(Box<Node>, f64),
    Concat(Vec<(Node, u64)>),
}

fn build(shape: &Shape, lookups: &Arc<AtomicUsize>) -> Node {
    let (inner, kind): (Arc<dyn VulnerabilityTrace>, Kind) = match shape {
        Shape::Composite(units) => {
            let parts = units
                .iter()
                .map(|(w, levels, shift)| {
                    let unit: Arc<dyn VulnerabilityTrace> =
                        Arc::new(IntervalTrace::from_levels(levels).unwrap());
                    let unit: Arc<dyn VulnerabilityTrace> =
                        if *shift == 0 { unit } else { Arc::new(ShiftedTrace::new(unit, *shift)) };
                    (*w, unit)
                })
                .collect();
            (Arc::new(CompositeTrace::new(parts).unwrap()), Kind::Flat)
        }
        Shape::Scaled(inner, factor) => {
            let inner = build(inner, lookups);
            let scaled = ScaledTrace::new(inner.trace.clone(), *factor).unwrap();
            (Arc::new(scaled), Kind::Scaled(Box::new(inner), *factor))
        }
        Shape::Concat(parts) => {
            let parts: Vec<(Node, u64)> =
                parts.iter().map(|(p, k)| (build(p, lookups), *k)).collect();
            let concat =
                ConcatTrace::new(parts.iter().map(|(n, k)| (n.trace.clone(), *k)).collect())
                    .unwrap();
            (Arc::new(concat), Kind::Concat(parts))
        }
    };
    Node { trace: Arc::new(Probe { inner, lookups: lookups.clone() }), kind }
}

/// The renewal integrals at one rate as the per-rate code computed them:
/// the trait default's span loop on flat traces, `ScaledTrace`'s
/// delegation at `λ·p`, and `ConcatTrace`'s geometric series over parts.
fn renewal_reference(node: &Node, lambda: f64) -> (f64, f64) {
    let omen = |x: f64| -(-x).exp_m1();
    match &node.kind {
        Kind::Flat => {
            let mut integral = 0.0f64;
            let mut start = 0u64;
            let mut u0 = 0.0f64;
            for (end, v) in node.trace.spans() {
                let delta = (end - start) as f64;
                let head = (-lambda * u0).exp();
                if v > 0.0 {
                    integral += head * omen(lambda * v * delta) / (lambda * v);
                } else {
                    integral += head * delta;
                }
                u0 += v * delta;
                start = end;
            }
            (integral, u0)
        }
        Kind::Scaled(inner, factor) => {
            let (integral, u_total) = renewal_reference(inner, lambda * factor);
            (integral, u_total * factor)
        }
        Kind::Concat(parts) => {
            let mut integral = 0.0f64;
            let mut u_before = 0.0f64;
            for (part, tiles) in parts {
                let (i_tile, u_tile) = renewal_reference(part, lambda);
                let head = (-lambda * u_before).exp();
                let tiled = if u_tile > 0.0 {
                    let x = lambda * u_tile;
                    if x > 700.0 {
                        i_tile
                    } else {
                        i_tile * omen(*tiles as f64 * x) / omen(x)
                    }
                } else {
                    i_tile * *tiles as f64
                };
                integral += head * tiled;
                let period = part.trace.period_cycles();
                u_before += *tiles as f64 * part.trace.cumulative_within_period(period);
            }
            (integral, u_before)
        }
    }
}

/// SoftArch's block fold at one rate as the per-rate code ran it: tilings
/// fold each part and tile it, flat traces fold span by span.
fn block_reference(trace: &dyn VulnerabilityTrace, lambda: f64) -> Block {
    let mut whole: Option<Block> = None;
    if let Some(parts) = trace.tiling() {
        for (part, tiles) in parts {
            let b = block_reference(&*part, lambda).tile(tiles);
            whole = Some(match whole {
                Some(w) => w.then(&b),
                None => b,
            });
        }
    } else {
        let mut start = 0u64;
        for (end, v) in trace.spans() {
            let seg = Block::constant(lambda * v, end - start);
            whole = Some(match whole {
                Some(b) => b.then(&seg),
                None => seg,
            });
            start = end;
        }
    }
    whole.expect("a trace has spans")
}

/// A composite, bare or scaled. Long units span several of the coded
/// passes' 256-span chunks, so later passes replay more than one chunk.
fn arb_unit() -> impl Strategy<Value = Shape> {
    prop_oneof![
        arb_units().prop_map(Shape::Composite),
        arb_units_over(300..900).prop_map(Shape::Composite),
        (arb_units(), 0.05f64..1.0)
            .prop_map(|(c, f)| Shape::Scaled(Box::new(Shape::Composite(c)), f)),
    ]
}

/// 1–3 units tiled end to end.
fn arb_concat() -> impl Strategy<Value = Shape> {
    prop::collection::vec((arb_unit(), 1u64..40), 1..=3).prop_map(Shape::Concat)
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    prop_oneof![
        arb_unit(),
        arb_concat(),
        (arb_concat(), 0.05f64..1.0).prop_map(|(c, f)| Shape::Scaled(Box::new(c), f)),
    ]
}

proptest! {
    #[test]
    fn rate_lists_are_bit_identical_to_the_per_rate_loops(
        shape in arb_shape(),
        exponents in prop::collection::vec(-2.0f64..12.0, 5),
        picks in prop::collection::vec(0usize..5, 1..=9),
    ) {
        let lookups = Arc::new(AtomicUsize::new(0));
        let node = build(&shape, &lookups);
        prop_assume!(!node.trace.is_never_vulnerable());
        let freq = Frequency::base();
        let rates: Vec<RawErrorRate> =
            picks.iter().map(|&k| RawErrorRate::per_year(10f64.powf(exponents[k]))).collect();

        // References first; their lookups are not counted against the pass.
        let want: Vec<(u64, u64)> = rates
            .iter()
            .map(|rate| {
                let lambda = rate.per_second_value() / freq.hz();
                let (integral, u_total) = renewal_reference(&node, lambda);
                let renewal = integral / -(-lambda * u_total).exp_m1() / freq.hz();
                let soft = block_reference(&*node.trace, lambda).mttf_cycles() / freq.hz();
                (renewal.to_bits(), soft.to_bits())
            })
            .collect();
        lookups.store(0, Ordering::Relaxed);

        let renewal = renewal_mttfs(&*node.trace, &rates, freq);
        let soft = SoftArch::new(freq).component_mttfs(&*node.trace, &rates);
        let got = renewal.iter().zip(&soft);
        for (k, (&(want_r, want_s), (r, s))) in want.iter().zip(got).enumerate() {
            let (r, s) = (r.as_ref().unwrap(), s.as_ref().unwrap());
            prop_assert_eq!(r.as_secs().to_bits(), want_r, "renewal at rate {}", k);
            prop_assert_eq!(s.as_secs().to_bits(), want_s, "SoftArch at rate {}", k);
        }
        // The one-rate calls are the one-element lists.
        let one = renewal_mttf(&*node.trace, rates[0], freq).unwrap();
        prop_assert_eq!(one.as_secs().to_bits(), want[0].0);
        let one = SoftArch::new(freq).component_mttf(&*node.trace, rates[0]).unwrap();
        prop_assert_eq!(one.as_secs().to_bits(), want[0].1);
        prop_assert_eq!(lookups.load(Ordering::Relaxed), 0, "a pass fell back to per-span lookups");
    }
}
