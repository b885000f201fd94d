//! Property test: the renewal MTTF and SoftArch read a composite's span
//! walk, and their results are bit-identical to the breakpoint-plus-lookup
//! loops they used before the walk existed (copied here as references).
//! Every trace handed to them is wrapped in a probe that counts
//! `vulnerability_at` calls, so a forwarding impl (`&T`, `Arc<T>`) that
//! fails to forward the walk falls back to per-span lookups and fails the
//! test even though its values would still agree.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use serr_analytic::renewal::renewal_mttf;
use serr_softarch::{Block, SoftArch};
use serr_trace::{CompositeTrace, IntervalTrace, ShiftedTrace, VulnerabilityTrace};
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
    fn survival_weight(&self, lambda_cycle: f64) -> (f64, f64) {
        self.inner.survival_weight(lambda_cycle)
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
    let level = || (0..=8u8).prop_map(|q| f64::from(q) / 8.0);
    (
        prop::collection::vec(prop::collection::vec(level(), 4), 2..40),
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
