//! Dictionary-coded span tables: a trace's spans in the form the exact
//! references price many rates from.
//!
//! A simulated masking trace has hundreds of thousands of
//! constant-vulnerability spans but only a few hundred distinct
//! `(v, len)` pairs. Every per-span quantity an exact reference needs at a
//! rate λ that does not depend on where the span sits — the renewal
//! integral's `1 − e^{−λ·v·len}` and `λ·v`, SoftArch's
//! `Block::constant(λ·v, len)` — is a function of the pair alone.
//! [`fold_rates`] codes the walk — the distinct pairs and one `u32` code per
//! span, a chunk at a time — so a pass over a list of rates pays those
//! transcendentals once per (pair, rate) and only the position-dependent
//! work per (span, rate), four rates at a time over each chunk. An
//! estimator supplies only the per-pair pricing and the per-span step
//! ([`RateFold`]).
//!
//! The pass performs, for each rate, the operations of the per-span loop it
//! replaces in the same order, so every value it returns is bit-identical
//! to that loop's.

use crate::VulnerabilityTrace;

/// Rates folded together over each chunk of codes. Four independent
/// accumulator chains keep the core busy while each waits on its `exp` or
/// its block composition.
const RATE_BLOCK: usize = 4;

/// Spans coded per chunk of the walk.
const CODE_CHUNK: usize = 256;

/// A span-by-span computation at one rate, as [`fold_rates`] runs it over
/// a trace's coded spans: each distinct `(v, len)` pair is priced once per
/// rate, then every span steps the rate's value with its pair's price.
pub trait RateFold {
    /// A distinct `(v, len)` pair priced at one rate.
    type Pair: Copy;
    /// One rate's running value.
    type Acc: Copy;
    /// Whether [`RateFold::step`] reads its `u` argument. A fold that
    /// does not is handed `0.0` and skips the running sum.
    const READS_MASS: bool;

    /// Prices the span shape `(v, len)` at per-cycle rate `lambda`.
    fn price(&self, lambda: f64, v: f64, len: u64) -> Self::Pair;

    /// The value at `lambda` after the trace's first span.
    fn first(&self, lambda: f64, pair: &Self::Pair) -> Self::Acc;

    /// Advances the value at `lambda` over a span whose start sits at
    /// cumulative vulnerability `u` (`Σ v·len` over the spans before it,
    /// summed in walk order).
    fn step(&self, lambda: f64, acc: Self::Acc, pair: &Self::Pair, u: f64) -> Self::Acc;
}

/// Runs `fold` over one coded walk of `trace` at every per-cycle rate of
/// `lambdas`. Returns each input rate's final value, in input order
/// (`None` for a trace without spans; duplicate rates are folded once),
/// and the trace's total vulnerability `U(L)` (`0.0` unless
/// [`RateFold::READS_MASS`]).
///
/// # Panics
///
/// Panics if the trace has more than `u32::MAX - 1` distinct pairs.
pub fn fold_rates<T, F>(trace: &T, lambdas: &[f64], fold: &F) -> (Vec<Option<F::Acc>>, f64)
where
    T: VulnerabilityTrace + ?Sized,
    F: RateFold,
{
    let (distinct, index) = distinct_bits(lambdas);
    let mut lanes: Vec<Lanes<F>> = distinct.chunks(RATE_BLOCK).map(Lanes::new).collect();
    let mut mass: Vec<f64> = Vec::new();
    let mut u0 = 0.0f64;
    let mut before = [0.0f64; CODE_CHUNK];
    for_each_coded_chunk(trace, |chunk, pairs| {
        for &(v, len) in &pairs[mass.len()..] {
            for l in &mut lanes {
                l.price(fold, v, len);
            }
            mass.push(v * len as f64);
        }
        // The running mass `u₀` is summed ahead of the lanes (the same
        // additions in the same order) so that its chain and a rate's never
        // share a register: packed together, each span's step would wait on
        // the previous span's.
        if F::READS_MASS {
            for (u, &code) in before.iter_mut().zip(chunk) {
                *u = u0;
                u0 += mass[code as usize];
            }
        }
        for l in &mut lanes {
            match l.width {
                1 => l.run::<1>(fold, &before, chunk),
                2 => l.run::<2>(fold, &before, chunk),
                3 => l.run::<3>(fold, &before, chunk),
                _ => l.run::<RATE_BLOCK>(fold, &before, chunk),
            }
        }
    });
    let folded: Vec<Option<F::Acc>> =
        lanes.iter().flat_map(|l| (0..l.width).map(|r| l.acc.map(|acc| acc[r]))).collect();
    (index.into_iter().map(|k| folded[k]).collect(), u0)
}

/// Up to [`RATE_BLOCK`] rates of a [`fold_rates`] pass, folded together.
/// Lanes past `width` repeat the first rate's prices and are never read.
struct Lanes<F: RateFold> {
    width: usize,
    lambdas: [f64; RATE_BLOCK],
    /// Per pair, per rate: the pair's price.
    table: Vec<[F::Pair; RATE_BLOCK]>,
    acc: Option<[F::Acc; RATE_BLOCK]>,
}

impl<F: RateFold> Lanes<F> {
    fn new(lambdas: &[f64]) -> Self {
        let mut l = [lambdas[0]; RATE_BLOCK];
        l[..lambdas.len()].copy_from_slice(lambdas);
        Lanes { width: lambdas.len(), lambdas: l, table: Vec::new(), acc: None }
    }

    fn price(&mut self, fold: &F, v: f64, len: u64) {
        let first = fold.price(self.lambdas[0], v, len);
        self.table.push(std::array::from_fn(|r| {
            if r == 0 || r >= self.width {
                first
            } else {
                fold.price(self.lambdas[r], v, len)
            }
        }));
    }

    fn run<const W: usize>(&mut self, fold: &F, before: &[f64], chunk: &[u32]) {
        let lambdas: [f64; W] = std::array::from_fn(|r| self.lambdas[r]);
        let (start, skip) = match (self.acc, chunk.first()) {
            (Some(acc), _) => (acc, 0),
            (None, Some(&code)) => {
                let row = &self.table[code as usize];
                let first = fold.first(self.lambdas[0], &row[0]);
                let start = std::array::from_fn(|r| {
                    if r == 0 || r >= W {
                        first
                    } else {
                        fold.first(self.lambdas[r], &row[r])
                    }
                });
                (start, 1)
            }
            (None, None) => return,
        };
        let mut acc: [F::Acc; W] = std::array::from_fn(|r| start[r]);
        for (&u, &code) in before[skip..].iter().zip(&chunk[skip..]) {
            let row = &self.table[code as usize];
            for r in 0..W {
                acc[r] = fold.step(lambdas[r], acc[r], &row[r], u);
            }
        }
        let mut out = start;
        out[..W].copy_from_slice(&acc);
        self.acc = Some(out);
    }
}

/// Walks `trace.spans()` once, dictionary-coding it: the distinct
/// `(v, len)` pairs in order of first appearance and one `u32` code per
/// span. `visit` receives the codes in walk order, a chunk of up to 256 at
/// a time, together with every pair coded so far (indexed by code; the
/// slice only grows between calls, so a caller can price new pairs as they
/// appear). Nothing per span outlives its chunk.
fn for_each_coded_chunk<T: VulnerabilityTrace + ?Sized>(
    trace: &T,
    mut visit: impl FnMut(&[u32], &[(f64, u64)]),
) {
    let mut table = PairTable::new();
    let mut chunk = [0u32; CODE_CHUNK];
    let mut filled = 0;
    let mut start = 0u64;
    for (end, v) in trace.spans() {
        chunk[filled] = table.code(v, end - start);
        start = end;
        filled += 1;
        if filled == CODE_CHUNK {
            visit(&chunk, &table.pairs);
            filled = 0;
        }
    }
    if filled > 0 {
        visit(&chunk[..filled], &table.pairs);
    }
}

/// The renewal survival integrals `(∫₀ᴸ e^{−λU(s)} ds, U(L))` at every
/// per-cycle rate of `lambdas`, in input order: the span-by-span closed
/// form behind [`VulnerabilityTrace::survival_weights`], as one
/// [`fold_rates`] pass.
///
/// # Panics
///
/// Panics if any rate is not positive.
#[must_use]
pub(crate) fn coded_survival_weights<T: VulnerabilityTrace + ?Sized>(
    trace: &T,
    lambdas: &[f64],
) -> Vec<(f64, f64)> {
    for &l in lambdas {
        assert!(l > 0.0, "per-cycle rate must be positive");
    }
    let (integrals, u_total) = fold_rates(trace, lambdas, &Renewal);
    integrals.into_iter().map(|i| (i.unwrap_or(0.0), u_total)).collect()
}

/// The renewal integral's span step. Per span the reference loop computes
/// `head = e^{−λ·u₀}`, adds `head · (1 − e^{−(λ·v)·len}) / (λ·v)` (or
/// `head · len` where `v = 0`) and advances `u₀ += v·len`. A pair prices
/// its numerator and denominator; a `v = 0` pair stores `len` over `1.0`,
/// which divides exactly, so both branches are one expression, evaluated
/// with the reference loop's operations in its order.
struct Renewal;

impl RateFold for Renewal {
    type Pair = (f64, f64);
    type Acc = f64;
    const READS_MASS: bool = true;

    #[inline]
    fn price(&self, lambda: f64, v: f64, len: u64) -> (f64, f64) {
        let delta = len as f64;
        if v > 0.0 {
            let lv = lambda * v;
            (omen(lv * delta), lv)
        } else {
            (delta, 1.0)
        }
    }

    #[inline]
    fn first(&self, lambda: f64, pair: &(f64, f64)) -> f64 {
        self.step(lambda, 0.0, pair, 0.0)
    }

    #[inline]
    fn step(&self, lambda: f64, acc: f64, pair: &(f64, f64), u: f64) -> f64 {
        let head = (-lambda * u).exp();
        acc + head * pair.0 / pair.1
    }
}

/// Numerically stable `1 − e^{−x}`.
fn omen(x: f64) -> f64 {
    -(-x).exp_m1()
}

/// The distinct values of `xs` by bit pattern, in order of first
/// appearance, and for each input the position of its value among them.
/// A linear scan: quadratic in the distinct count, which the pass it
/// serves pays per span anyway.
fn distinct_bits(xs: &[f64]) -> (Vec<f64>, Vec<usize>) {
    let mut distinct: Vec<f64> = Vec::new();
    let index = xs
        .iter()
        .map(|&x| match distinct.iter().position(|d| d.to_bits() == x.to_bits()) {
            Some(k) => k,
            None => {
                distinct.push(x);
                distinct.len() - 1
            }
        })
        .collect();
    (distinct, index)
}

/// Open-addressing map from `(v bits, len)` to a pair's code, with linear
/// probing over a power-of-two table kept at most half full.
struct PairTable {
    pairs: Vec<(f64, u64)>,
    slots: Vec<u32>,
    shift: u32,
}

impl PairTable {
    const EMPTY: u32 = u32::MAX;

    fn new() -> Self {
        let bits = 6;
        PairTable { pairs: Vec::new(), slots: vec![Self::EMPTY; 1 << bits], shift: 64 - bits }
    }

    fn slot_of(&self, v: f64, len: u64) -> usize {
        let h = (v.to_bits() ^ len.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_mul(0xBF58_476D_1CE4_E5B9);
        (h >> self.shift) as usize
    }

    #[inline]
    fn code(&mut self, v: f64, len: u64) -> u32 {
        let mask = self.slots.len() - 1;
        let mut s = self.slot_of(v, len);
        loop {
            let code = self.slots[s];
            if code == Self::EMPTY {
                break;
            }
            let (pv, plen) = self.pairs[code as usize];
            if pv.to_bits() == v.to_bits() && plen == len {
                return code;
            }
            s = (s + 1) & mask;
        }
        let code = u32::try_from(self.pairs.len())
            .ok()
            .filter(|&c| c != Self::EMPTY)
            .expect("more than u32::MAX - 1 distinct spans");
        self.pairs.push((v, len));
        self.slots[s] = code;
        if 2 * self.pairs.len() > self.slots.len() {
            self.grow();
        }
        code
    }

    fn grow(&mut self) {
        self.shift -= 1;
        self.slots = vec![Self::EMPTY; self.slots.len() * 2];
        let mask = self.slots.len() - 1;
        for (code, &(v, len)) in self.pairs.iter().enumerate() {
            let mut s = self.slot_of(v, len);
            while self.slots[s] != Self::EMPTY {
                s = (s + 1) & mask;
            }
            self.slots[s] = code as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IntervalTrace;

    fn walk(trace: &IntervalTrace) -> Vec<(f64, u64)> {
        let mut start = 0;
        trace
            .spans()
            .map(|(end, v)| {
                let len = end - start;
                start = end;
                (v, len)
            })
            .collect()
    }

    #[test]
    fn the_coded_chunks_replay_the_span_walk() {
        let levels: Vec<f64> = (0..5000).map(|i| f64::from((i * 7 % 13) / 4) / 4.0).collect();
        let trace = IntervalTrace::from_levels(&levels).unwrap();
        let want = walk(&trace);
        assert!(want.len() > 3 * CODE_CHUNK, "{} spans", want.len());
        let (mut got, mut chunks) = (Vec::new(), 0);
        for_each_coded_chunk(&trace, |chunk, pairs| {
            assert!(!chunk.is_empty() && chunk.len() <= CODE_CHUNK);
            got.extend(chunk.iter().map(|&c| pairs[c as usize]));
            chunks += 1;
        });
        assert_eq!(chunks, want.len().div_ceil(CODE_CHUNK));
        assert_eq!(got.len(), want.len());
        for (got, want) in got.iter().zip(&want) {
            assert_eq!((got.0.to_bits(), got.1), (want.0.to_bits(), want.1));
        }
    }

    #[test]
    fn table_grows_past_its_initial_size() {
        let levels: Vec<f64> = (0..4000u32).map(|i| f64::from(i % 2000) / 2000.0).collect();
        let trace = IntervalTrace::from_levels(&levels).unwrap();
        let mut table = PairTable::new();
        let codes: Vec<u32> = walk(&trace).into_iter().map(|(v, len)| table.code(v, len)).collect();
        assert_eq!(table.pairs.len(), 2000);
        assert_eq!(codes[..2000], codes[2000..]);
        assert_eq!(codes[..2000], (0..2000).collect::<Vec<u32>>()[..]);
    }

    #[test]
    fn distinct_bits_keeps_first_appearance_order() {
        let xs = [3.0, 1.0, 3.0, -0.0, 0.0, 1.0, 2.0];
        let (d, idx) = distinct_bits(&xs);
        assert_eq!(d, vec![3.0, 1.0, -0.0, 0.0, 2.0]);
        assert_eq!(d[2].to_bits(), (-0.0f64).to_bits());
        assert_eq!(idx, vec![0, 1, 0, 2, 3, 1, 4]);
        assert_eq!(distinct_bits(&[]), (vec![], vec![]));
    }
}
