//! Order statistics, the row digest, and the request generator's RNG.

/// The median of `xs` (mean of the middle pair for an even count); NaN
/// when empty.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the "exclusive" method — the default of
/// Python's `statistics.quantiles(xs, n=4)` — so spreads printed here match
/// what an outside script computes from the same values.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    let ld = s.len();
    if ld < 2 {
        let x = s.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Interquartile range.
pub fn iqr(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    q3 - q1
}

/// The highest percentile in {99.9, 99, 90} that leaves at least ten
/// samples beyond it, as `(label, value)` by nearest rank. With too few
/// samples for any of them, the 75th percentile by nearest rank (label
/// `p75`): a handful of sweeps has no tail to speak of, and the maximum
/// would mostly measure one stray slow run once there are more than three.
pub fn tail(xs: &[f64]) -> (&'static str, f64) {
    let s = sorted(xs);
    let n = s.len();
    for (label, per_mille) in [("p99.9", 999), ("p99", 990), ("p90", 900)] {
        let rank = (per_mille * n).div_ceil(1000);
        if rank >= 1 && n - rank >= 10 {
            return (label, s[rank - 1]);
        }
    }
    ("p75", s.get((3 * n).div_ceil(4).max(1) - 1).copied().unwrap_or(f64::NAN))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// FNV-1a over a sequence of 64-bit words (f64 bits, counts) and labels:
/// two runs that produce bit-identical rows in the same order produce the
/// same digest.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3);
        }
    }

    pub fn f64(&mut self, x: f64) {
        self.bytes(&x.to_bits().to_le_bytes());
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// SplitMix64: the request generator's seeded stream.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform on [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform on `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        assert_eq!(iqr(&xs), 5.5);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[7.0, 5.0]), (4.5, 7.5));
        assert_eq!(iqr(&[4.2]), 0.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs), ("p99", 990.0));
        assert_eq!(tail(&xs[..999]), ("p90", 900.0), "999 samples leave only 9 beyond p99");
        let many: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&many), ("p99.9", 9990.0));
        assert_eq!(tail(&xs[..100]), ("p90", 90.0));
        // Too few for p90: the nearest-rank p75, never above the maximum.
        assert_eq!(tail(&[7.0, 1.0, 6.0, 2.0, 5.0, 3.0, 4.0]), ("p75", 6.0));
        assert_eq!(tail(&[2.0, 1.0]), ("p75", 2.0));
        assert_eq!(tail(&[4.2]), ("p75", 4.2));
        assert!(tail(&[]).1.is_nan());
    }

    #[test]
    fn digest_sees_every_bit_and_the_order() {
        let d = |xs: &[f64]| {
            let mut d = Digest::new();
            xs.iter().for_each(|&x| d.f64(x));
            d.hex()
        };
        assert_eq!(d(&[1.0, 2.0]), d(&[1.0, 2.0]));
        assert_ne!(d(&[1.0, 2.0]), d(&[2.0, 1.0]));
        assert_ne!(d(&[1.0]), d(&[f64::from_bits(1.0f64.to_bits() + 1)]));
    }
}
