//! Criterion benchmarks for the MTTF estimation engines: Monte Carlo
//! trials, renewal closed forms, and SoftArch block algebra.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use serr_analytic::renewal::renewal_mttf_cycles;
use serr_mc::{MonteCarlo, MonteCarloConfig};
use serr_softarch::SoftArch;
use serr_trace::IntervalTrace;
use serr_types::{Frequency, RawErrorRate};

fn bench_monte_carlo(c: &mut Criterion) {
    let mut g = c.benchmark_group("monte_carlo");
    let trace = IntervalTrace::busy_idle(1_000_000, 1_000_000).unwrap();
    let freq = Frequency::base();
    for &trials in &[1_000u64, 10_000] {
        g.bench_with_input(BenchmarkId::new("day_like", trials), &trials, |b, &trials| {
            let mc = MonteCarlo::new(MonteCarloConfig { trials, threads: 1, ..Default::default() });
            let rate = RawErrorRate::per_year(1.0e4);
            b.iter(|| mc.component_mttf(&trace, rate, freq).unwrap());
        });
    }
    // A fine-grained trace stresses the per-event phase lookup.
    let levels: Vec<f64> = (0..10_000).map(|i| f64::from(u32::from(i % 7 == 0))).collect();
    let fine = IntervalTrace::from_levels(&levels).unwrap();
    g.bench_function("fine_grained_10k_segments", |b| {
        let mc =
            MonteCarlo::new(MonteCarloConfig { trials: 2_000, threads: 1, ..Default::default() });
        let rate = RawErrorRate::per_year(100.0);
        b.iter(|| mc.component_mttf(&fine, rate, freq).unwrap());
    });
    g.finish();
}

fn bench_naive_vs_fast(c: &mut Criterion) {
    // The paper's "impractically slow" point: per-trial cost of the naive
    // cycle-stepping reference vs the event-driven sampler at the same
    // accuracy, on the same trace.
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    let mut g = c.benchmark_group("naive_vs_fast");
    let trace = IntervalTrace::busy_idle(500, 500).unwrap();
    let lambda = 1e-4; // mean TTF ~ 1.3e4 cycles: naive stays feasible
    g.bench_function("naive_trial", |b| {
        let mut rng = SmallRng::seed_from_u64(1);
        b.iter(|| {
            serr_mc::naive::sample_time_to_failure_naive(&trace, lambda, 100_000_000, &mut rng, 0)
                .unwrap()
        });
    });
    g.bench_function("fast_trial", |b| {
        let mut rng = SmallRng::seed_from_u64(1);
        b.iter(|| {
            serr_mc::sampler::sample_time_to_failure(&trace, lambda, 1_000_000, &mut rng, 0.0)
                .unwrap()
        });
    });
    g.finish();
}

fn bench_renewal(c: &mut Criterion) {
    let mut g = c.benchmark_group("renewal");
    for &segments in &[10usize, 1_000, 100_000] {
        let levels: Vec<f64> =
            (0..segments).flat_map(|i| [f64::from(u32::from(i % 2 == 0)), 0.5]).collect();
        let trace = IntervalTrace::from_levels(&levels).unwrap();
        g.bench_with_input(BenchmarkId::new("segments", segments), &trace, |b, t| {
            b.iter(|| renewal_mttf_cycles(t, 1e-6));
        });
    }
    g.finish();
}

fn bench_softarch(c: &mut Criterion) {
    let mut g = c.benchmark_group("softarch");
    let trace = IntervalTrace::busy_idle(700_000, 300_000).unwrap();
    let sa = SoftArch::new(Frequency::base());
    g.bench_function("component", |b| {
        b.iter(|| sa.component_mttf(&trace, RawErrorRate::per_year(10.0)).unwrap());
    });
    g.bench_function("combined_tiled_40M", |b| {
        // The closed-form tiling: two benchmarks, 12 simulated hours each.
        let bench_a = IntervalTrace::busy_idle(700_000, 300_000).unwrap();
        let bench_b = IntervalTrace::busy_idle(200_000, 800_000).unwrap();
        b.iter(|| {
            sa.tiled_mttf(
                &[(&bench_a, 43_200_000), (&bench_b, 43_200_000)],
                RawErrorRate::per_year(10.0),
            )
            .unwrap()
        });
    });
    g.finish();
}

criterion_group!(benches, bench_monte_carlo, bench_naive_vs_fast, bench_renewal, bench_softarch);
criterion_main!(benches);
