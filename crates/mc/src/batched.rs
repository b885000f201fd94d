//! The batched structure-of-arrays inversion sampler: a whole chunk of
//! trials is the unit of work.
//!
//! # Why the event loop can be replaced by one draw
//!
//! The event-loop sampler ([`crate::sampler`]) walks a homogeneous
//! Poisson(λ) raw-error arrival stream and accepts each arrival striking
//! cycle `t` independently with probability `v(t)`. By the Poisson
//! thinning theorem, the accepted arrivals form an **inhomogeneous Poisson
//! process with intensity `λ·v(t)`** — the Bernoulli masking draw *is* the
//! intensity modulation, fractional `v` included. With
//! `V(t) = ∫₀ᵗ v(s) ds` (extended periodically, `V(t + L) = V(t) + V(L)`)
//! and a trial starting at phase `φ`,
//!
//! ```text
//! P(TTF > t) = exp(−λ·[V(φ + t) − V(φ)])
//! ```
//!
//! so `TTF = Λ⁻¹(E)` for `E ~ Exp(1)` and `Λ(t) = λ·[V(φ + t) − V(φ)]` is
//! an *exact* sample of the distribution the event loop walks out one
//! arrival at a time, at any λL. `V⁻¹` is
//! [`CompiledTrace::phase_at_cumulative`] over the compiled prefix sums.
//! This sampler therefore reads the prefix table on every trial, so
//! `TracePrefixPerturb` corruption (invisible to the event loop's point
//! queries) skews its estimates directly — a compiled trace whose bytes can
//! have changed since its compile (a cache hit, an injected fault) is
//! verified before it is trusted (see [`CompiledTrace::verify`]).
//!
//! # Why a chunk is the unit of work
//!
//! One trial by inversion is O(1): one Exp draw, two logs, one inverse
//! lookup. Run one trial at a time, what remains is per-trial overhead — a
//! sequential RNG state update, a branchy `ln`/`ln_1p` per draw, a
//! prefix-table probe per trial — none of which vectorizes across trials.
//! This module restructures the work so every stage is a straight-line
//! array pass over structure-of-arrays buffers:
//!
//! 1. **Counter RNG**: the chunk's entire word stream is generated up
//!    front into a flat `u64` buffer by a SplitMix64 finalizer over
//!    `(stream seed, word index)` — no sequential state, so the pass
//!    vectorizes and any word is addressable by index.
//! 2. **Branchless transforms**: uniforms come from an exponent-splice bit
//!    trick (exact on the `2⁻⁵²` grid, so `1 − u` is *exact* and the log
//!    inputs never leave `[2⁻⁵², 1]` — no NaN/∞ guards needed anywhere);
//!    the Exp and mass draws are two [`serr_numeric::vecmath`] log
//!    passes over the `neg_exp` and `residual_masses` buffers, with the
//!    geometric multiply/floor (the period-skip count) done in the TTF
//!    assembly. The mass pass has two tiers, picked by the batch maximum
//!    `y ≈ 1 − e^{−λW}`: a division-free Taylor series when every
//!    `y ≤ 1e-4` (the low-λW hot path), otherwise the branch-free log1p
//!    correction [`serr_numeric::vecmath::ln_one_minus`] at any `y` up to
//!    `1 − 2⁻⁵²` — straight-line code in both, however large λW grows. The
//!    stationary miss branch calls the same scalar cores, so the sampler
//!    makes no libm log call.
//! 3. **Batched inversion**: all final-window phases resolve through
//!    [`CompiledTrace::phase_at_cumulative_batch`]. On a table of at most
//!    [`CompiledTrace::BATCH_SCAN_SEGMENTS`] segments that is a branchless
//!    select-chain whose prefix table lives in registers across the whole
//!    chunk; on the paper's processor traces (10⁵–10⁶ segments, far past
//!    the caches) and the tile level it is a staged probe whose passes
//!    each sweep the whole chunk, so the cache misses of many trials
//!    overlap instead of queueing one behind the other. The stage buffers
//!    live in [`PointScratch`], so the steady state allocates nothing.
//! 4. **Assemble, then fold**: a straight element-wise pass turns each
//!    phase into its time to failure in place, and the chunk's statistics
//!    come from [`serr_numeric::stats::RunningStats::from_slice`] over the
//!    finished buffer. Two plain passes beat one fused pass: a fold that
//!    called back into an index-taking closure per element kept its
//!    16-lane loop scalar, at over twice the cost of the two.
//!
//! # Distribution exactness
//!
//! For a trial starting at phase 0 the TTF decomposes as `K·L + ψ(M)`
//! where `K ~ Geometric(1 − e^{−λW})` counts whole periods survived and
//! `M` is an independent truncated-`Exp(λ)` mass on `[0, W)`. The batched
//! kernel samples `K = ⌊E/(λW)⌋` from one `Exp(1)` draw `E` (exactly
//! geometric, since `P(⌊E/g⌋ = j) = e^{−jg}(1 − e^{−g})`) and `M` from an
//! independent uniform — by memorylessness exactly the law of `Λ⁻¹(E)`,
//! which `tests/sampler_equivalence.rs` pins by KS against the event loop
//! at λL from 1e-9 to 2000. No `e^{−λW}` underflow guard is needed:
//! `E ≤ −ln 2⁻⁵² ≈ 36.04`, so a huge `λW` makes `⌊E/(λW)⌋` zero with no
//! branch at all. Stationary
//! starts draw the phase, test the first partial window with the same
//! `Exp(1)` draw (`E < λ·tail₀` hits with exactly `p₀ = 1 − e^{−λ·tail₀}`,
//! and `E/λ` *is* the conditional truncated mass — no second draw, no
//! cancellation), and fall back to fresh geometric/mass draws on a miss.
//!
//! # RNG schedule contract
//!
//! The word stream is **versioned**
//! ([`BATCHED_RNG_SCHEDULE_VERSION`]): trial `i` of an `n`-trial chunk
//! reads words planar-by-variable (uniform A at index `i`, uniform B at
//! `n + i`; stationary starts prepend the phase plane and append the
//! geometric plane). Changing the layout, the finalizer, or the
//! bit-to-uniform mapping — or the log passes that turn a uniform into an
//! `Exp(1)` draw or a mass — is a schedule bump that must re-pin
//! `sampler_equivalence`. The per-chunk `(seed, chunk)` derivation and the
//! ascending-chunk fold are the engine's, so estimates are bit-identical at
//! any `SERR_THREADS`.
//!
//! # Prepare once, finish per rate (common random numbers)
//!
//! Every word plane except the final inversion is λ-independent: the
//! `Exp(1)` draws, the residual-mass uniforms, and (stationary) the phase
//! plane with its `V(φ)` pricing depend only on the trace and
//! `(stream_seed, n)`. A chunk is therefore two passes: a
//! [`BatchedInversionSampler::prepare_chunk`] pass that materializes those
//! planes into a [`SharedChunk`], and a
//! [`BatchedInversionSampler::finish_chunk`] pass per rate that applies
//! that rate's λ-dependent scale, two-tier mass log, inversion, and fold.
//! The engine runs one prepare and one finish per rate for every chunk, so
//! a one-rate estimate is the same code as one point of a sweep: each point
//! reads the same `(seed, chunk)` word schedule with the shared draws
//! consumed identically, while the RNG and log passes are paid once per
//! chunk instead of once per point.

use serr_numeric::stats::RunningStats;
use serr_numeric::vecmath::{ln, ln_in_place, ln_one_minus, ln_one_minus_scaled_in_place};
use serr_trace::{CompiledTrace, InverseScratch, VulnerabilityTrace};

use crate::config::StartPhase;

/// Version of the batched sampler's draw schedule: the counter-RNG word
/// layout, the finalizer, the bit-to-uniform mapping, and the log passes
/// that turn a uniform into an `Exp(1)` draw or a truncated-exponential
/// mass. Bump on any change that moves a draw to a different word or
/// changes the bits a word becomes, and re-pin the `sampler_equivalence`
/// bit-identity tests. Sweep checkpoint journals and the daemon's results
/// journal are keyed by it, so rows from another schedule never resume.
///
/// * v1 — the original schedule: masses whose batch maximum exceeds 0.5
///   ran libm `ln_1p` per element, those up to 0.5 an atanh series, and
///   the stationary miss branch libm `ln`/`ln_1p`.
/// * v2 — every mass batch above the Taylor tier (maximum > 1e-4) and the
///   stationary miss branch run the branch-free
///   [`serr_numeric::vecmath::ln_one_minus`] (log1p correction over the
///   branch-free `ln`), and the miss branch's geometric draw uses
///   [`serr_numeric::vecmath::ln`]: the sampler makes no libm log call.
///   Masses move by at most a few ulp; the word layout and Taylor-tier
///   results are unchanged.
pub const BATCHED_RNG_SCHEDULE_VERSION: u32 = 2;

/// Counter-based word derivation: a SplitMix64 finalizer over
/// `(stream_seed, index)` — the same construction the engine uses for
/// per-chunk seeds, one level down. Pure function of its arguments, so
/// the whole word buffer can be filled by a vectorizable pass and any
/// trial's draws are addressable without replaying a sequential stream.
#[inline]
#[must_use]
pub fn rng_word(stream_seed: u64, index: u64) -> u64 {
    let mut z = stream_seed.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a random word onto the uniform grid `{0, 2⁻⁵², …, 1 − 2⁻⁵²}` by
/// splicing the top 52 bits into an exponent-0 mantissa: exact, branchless,
/// and — because every value is a multiple of `2⁻⁵²` in `[0, 1 − 2⁻⁵²]` —
/// `1 − u` is *exact* in `f64` and lies in `[2⁻⁵², 1]`, the domain where
/// the batch log passes need no NaN/∞ guards.
#[inline]
#[must_use]
pub fn uniform_from_word(word: u64) -> f64 {
    f64::from_bits((1023u64 << 52) | (word >> 12)) - 1.0
}

/// `1 − uniform_from_word(word)`, computed directly as
/// `2 − [1, 2)-splice` — exactly the same value (both subtractions are
/// exact on this grid), one operation shorter in the hot pass.
#[inline]
#[must_use]
pub fn one_minus_uniform_from_word(word: u64) -> f64 {
    2.0 - f64::from_bits((1023u64 << 52) | (word >> 12))
}

/// λ-independent shared buffers for one chunk: the counter-RNG planes and
/// vectorized passes that depend only on the trace, the start-phase
/// convention, and `(stream_seed, n)` — never on the design point's λ.
/// Prepared once per chunk by [`BatchedInversionSampler::prepare_chunk`], a
/// `SharedChunk` serves any number of per-λ
/// [`BatchedInversionSampler::finish_chunk`] calls — the common-random-
/// numbers axis the engine amortizes across every rate of a run. A
/// default-built one is empty; its buffers size themselves on the first
/// prepare.
#[derive(Debug, Default)]
pub struct SharedChunk {
    /// `ln(1 − u) = −E` per trial: the `Exp(1)` plane after its batch log.
    /// λ-independent — the per-point `E/(λW)` scaling happens in the
    /// finish fold.
    neg_exp: Vec<f64>,
    /// Raw uniform residual-mass plane, **unscaled** (workload-start
    /// chunks only): the λ-dependent `· (1 − e^{−λW})` multiply and the
    /// two-tier mass log both belong to the finish pass (the log tier is
    /// chosen from the batch maximum, which moves with λ). Each point
    /// applies them to identical operands, so per-point results do not
    /// depend on which other points share the chunk.
    mass_uniforms: Vec<f64>,
    /// Per-trial initial phases (stationary starts only).
    phases: Vec<f64>,
    /// `V(φ)` per trial (stationary starts only).
    v_phis: Vec<f64>,
    /// Staged miss-plane words (stationary starts only), converted to
    /// uniforms lazily per point — which trials take the miss branch
    /// depends on λ.
    words: Vec<u64>,
}

/// Per-point scratch: the buffers one design point's finish pass
/// overwrites. A single instance can serve many points serially — each
/// finish rewrites it completely, and starts its inverse lookups from the
/// segments the previous finish landed in: nearby rates put a trial's
/// final-window mass in the same segment, so most lookups skip the search,
/// with bit-identical phases (see
/// [`CompiledTrace::phase_at_cumulative_batch`]).
#[derive(Debug, Default)]
pub struct PointScratch {
    /// Truncated-Exp mass in the final window, overwritten in place by the
    /// batched inverse lookup with the failing phase `ψ`, and again by the
    /// final fold with the assembled time to failure in cycles — the same
    /// memory serves as mass, phase, and TTF buffer in turn.
    residual_masses: Vec<f64>,
    /// Additive TTF base per trial (stationary starts only).
    bases: Vec<f64>,
    /// The batched inverse lookup's stage buffers, including the segment
    /// each trial landed in.
    probe: InverseScratch,
}

impl PointScratch {
    /// Forgets the segment hints: call once per chunk, after its prepare,
    /// so a chunk's lookups never depend on which chunk this scratch
    /// served before.
    pub fn forget_segment_hints(&mut self) {
        self.probe.forget_hints();
    }

    /// The TTF buffer (in cycles) the most recent finish pass produced.
    #[must_use]
    pub fn ttfs(&self) -> &[f64] {
        &self.residual_masses
    }
}

/// The chunk-at-a-time inversion sampler. Immutable after construction
/// (all λ-dependent constants are precomputed), so one instance is shared
/// by every worker; each worker brings its own [`SharedChunk`] and
/// [`PointScratch`], whose buffers grow to the chunk size once and are
/// reused across every chunk the worker claims.
#[derive(Debug, Clone, Copy)]
pub struct BatchedInversionSampler<'a> {
    trace: &'a CompiledTrace,
    start_phase: StartPhase,
    lambda_cycle: f64,
    /// Period length in cycles, as `f64`.
    period: f64,
    /// Total vulnerability mass `W` of one period.
    total: f64,
    /// Largest mass the inverse lookup may see (`W.next_down()`), absorbing
    /// any rounding-up in the draws.
    mass_cap: f64,
    /// `−1/λ`: one multiply turns `ln(1 − y)` into a truncated-Exp mass.
    neg_inv_lambda: f64,
    /// `−1/(λW)`: one multiply turns `ln(1 − u) = −E` into `E/(λW)`.
    /// Zero when `λW` overflows (then every skip count is 0, which is also
    /// what the mathematics says).
    neg_inv_lambda_w: f64,
    /// `1 − e^{−λW}`: scales a uniform onto the truncated-Exp mass range.
    one_minus_q: f64,
}

impl<'a> BatchedInversionSampler<'a> {
    /// Builds a sampler for `trace` under per-cycle rate `lambda_cycle`.
    ///
    /// # Panics
    ///
    /// Panics if `lambda_cycle` is not positive or the trace has AVF = 0
    /// (a failure would never occur; callers validate these up front).
    #[must_use]
    pub fn new(trace: &'a CompiledTrace, lambda_cycle: f64, start_phase: StartPhase) -> Self {
        assert!(lambda_cycle > 0.0, "per-cycle rate must be positive");
        let total = trace.total_mass();
        assert!(total > 0.0, "AVF = 0 trace cannot fail");
        let lambda_w = lambda_cycle * total;
        BatchedInversionSampler {
            trace,
            start_phase,
            lambda_cycle,
            period: trace.period_cycles() as f64,
            total,
            mass_cap: total.next_down(),
            neg_inv_lambda: -1.0 / lambda_cycle,
            neg_inv_lambda_w: if lambda_w.is_finite() { -1.0 / lambda_w } else { 0.0 },
            one_minus_q: serr_numeric::special::one_minus_exp_neg(lambda_w),
        }
    }

    /// Prepares the λ-independent planes of one chunk: counter-RNG words,
    /// exponent-splice uniforms, the `Exp(1)` batch log, and (stationary
    /// starts) the phase plane with its batched `V(φ)` pricing. Reads only
    /// the trace, the start-phase convention, and `(stream_seed, n)` —
    /// never λ — so one prepared chunk serves every design point of a
    /// sweep over the same trace.
    pub fn prepare_chunk(&self, shared: &mut SharedChunk, stream_seed: u64, n: usize) {
        match self.start_phase {
            StartPhase::WorkloadStart => self.prepare_workload_start(shared, stream_seed, n),
            StartPhase::Stationary => self.prepare_stationary(shared, stream_seed, n),
        }
    }

    /// Finishes one design point over a prepared chunk: the λ-dependent
    /// mass scale and two-tier mass log, the batched inverse lookup, and the
    /// TTF assembly, which leaves the chunk's times to failure (in cycles)
    /// in [`PointScratch::ttfs`]; returns their statistics,
    /// [`RunningStats::from_slice`] over that buffer. Every
    /// trial consumes a fixed set of counter-RNG words (see the module
    /// docs), so the result is a pure function of the sampler and
    /// `(stream_seed, n)` — never of thread count, previous chunks, other
    /// points finished on the same chunk, or scratch reuse.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `shared` was prepared for exactly `n` trials
    /// (the start-phase convention is the sampler's own, so it cannot
    /// mismatch).
    pub fn finish_chunk(
        &self,
        shared: &SharedChunk,
        point: &mut PointScratch,
        n: usize,
    ) -> RunningStats {
        debug_assert_eq!(shared.neg_exp.len(), n, "shared chunk prepared for a different n");
        match self.start_phase {
            StartPhase::WorkloadStart => self.finish_workload_start(shared, point),
            StartPhase::Stationary => self.finish_stationary(shared, point, n),
        }
    }

    /// Workload-start shared pass (`φ = 0`): two words per trial, zero
    /// branches per element. Schedule layout: uniform A (Exp draw) at
    /// word `i`, uniform B (residual mass) at word `n + i`. The counter
    /// words are generated inline in each plane's pass — being pure
    /// functions of `(stream_seed, index)` they need no staging buffer,
    /// and fusing the generation keeps each pass a single read-free
    /// vector loop.
    fn prepare_workload_start(&self, shared: &mut SharedChunk, stream_seed: u64, n: usize) {
        let s = shared;
        let n64 = n as u64;

        // E ~ Exp(1) via exact 1 − u, one batch log. (Two passes on
        // purpose: fusing the scalar log into the generator `extend` was
        // measured slower — the per-element reserve check blocks the SIMD
        // lowering that the slice pass gets.) The buffer holds
        // ln(1 − u) = −E afterwards; the sign folds into the geometric
        // multiplier in the finish fold.
        s.neg_exp.clear();
        s.neg_exp.extend((0..n64).map(|i| one_minus_uniform_from_word(rng_word(stream_seed, i))));
        ln_in_place(&mut s.neg_exp);

        // Plane B stays a raw uniform here: its `· (1 − e^{−λW})` scale is
        // λ-dependent, so it belongs to the finish pass.
        s.mass_uniforms.clear();
        s.mass_uniforms.extend((n64..2 * n64).map(|i| uniform_from_word(rng_word(stream_seed, i))));
    }

    /// Workload-start finish: the λ-dependent tail of the chunk.
    fn finish_workload_start(
        &self,
        shared: &SharedChunk,
        point: &mut PointScratch,
    ) -> RunningStats {
        let p = point;

        // Truncated-Exp(λ) mass on [0, W): m = −ln(1 − u·p)/λ, capped
        // below W for the inverse lookup — the scale and cap are fused
        // into the log pass.
        p.residual_masses.clear();
        p.residual_masses.extend(shared.mass_uniforms.iter().map(|&u| u * self.one_minus_q));
        ln_one_minus_scaled_in_place(&mut p.residual_masses, self.neg_inv_lambda, self.mass_cap);

        // All final-window phases in one batched inverse lookup.
        self.trace.phase_at_cumulative_batch(&mut p.residual_masses, &mut p.probe);

        // Assemble TTF = K·L + ψ in place — K = ⌊E/(λW)⌋ whole periods
        // survived (λW > 700 needs no guard: E ≤ 36.04 forces K = 0
        // through the arithmetic itself), and the mass buffer becomes the
        // TTF buffer, sparing a third array's worth of traffic. `mul_add`
        // is exactly rounded, so this is bit-deterministic on every
        // target (see the schedule contract).
        for (ttf, &neg_e) in p.residual_masses.iter_mut().zip(&shared.neg_exp) {
            *ttf = (neg_e * self.neg_inv_lambda_w).floor().mul_add(self.period, *ttf);
        }
        RunningStats::from_slice(&p.residual_masses)
    }

    /// Stationary shared pass: four words per trial. Schedule layout:
    /// phase at word `i`, uniform A (Exp draw / first-window test) at
    /// `n + i`, uniform B (residual mass) at `2n + i`, uniform C
    /// (miss-branch geometric) at `3n + i`. The miss planes (B, C) are
    /// staged as raw words — which trials consume them depends on λ — and
    /// the batched planes (phase, Exp) generate their words inline.
    fn prepare_stationary(&self, shared: &mut SharedChunk, stream_seed: u64, n: usize) {
        let s = shared;
        let n64 = n as u64;
        fill_words(&mut s.words, stream_seed, 2 * n, 4 * n);

        // Initial phases and their cumulative masses V(φ).
        s.phases.clear();
        s.phases
            .extend((0..n64).map(|i| uniform_from_word(rng_word(stream_seed, i)) * self.period));
        s.v_phis.clear();
        s.v_phis.resize(n, 0.0);
        self.trace.cumulative_at_batch(&s.phases, &mut s.v_phis);

        // Exp(1) draws (buffer holds −E after the log pass).
        s.neg_exp.clear();
        s.neg_exp
            .extend((n64..2 * n64).map(|i| one_minus_uniform_from_word(rng_word(stream_seed, i))));
        ln_in_place(&mut s.neg_exp);
    }

    /// Stationary finish: the hit/miss split is a per-element branch —
    /// stationary starts are the diagnostic path, not the throughput
    /// path — but the phase pricing (shared) and the inverse lookup still
    /// run batched.
    fn finish_stationary(
        &self,
        shared: &SharedChunk,
        point: &mut PointScratch,
        n: usize,
    ) -> RunningStats {
        let s = shared;
        let p = point;

        // Resolve each trial to (mass to invert, additive base).
        // A first-window hit (E < λ·tail₀, probability exactly p₀) reuses
        // E/λ as the conditional truncated mass beyond V(φ) — by
        // memorylessness that *is* the right law, with no cancellation
        // since E < λ·tail₀ keeps the sum below W. A miss draws the
        // geometric skip and an independent final-window mass.
        p.residual_masses.clear();
        p.bases.clear();
        for i in 0..n {
            let phi = s.phases[i];
            let v_phi = s.v_phis[i];
            let tail0 = (self.total - v_phi).max(0.0);
            let e = -s.neg_exp[i];
            if e < self.lambda_cycle * tail0 {
                let m = (v_phi + e / self.lambda_cycle).min(self.mass_cap);
                p.residual_masses.push(m);
                // ψ ≥ φ up to lookup rounding; the final clamp restores ≥ 0.
                p.bases.push(-phi);
            } else {
                let u_c = uniform_from_word(s.words[n + i]);
                // When e^{−λW} underflows (λW > 700), neg_inv_lambda_w ≈ 0
                // collapses the skip count to 0.
                let k = (ln(1.0 - u_c) * self.neg_inv_lambda_w).floor();
                let y = uniform_from_word(s.words[i]) * self.one_minus_q;
                let m = (ln_one_minus(y) * self.neg_inv_lambda).min(self.mass_cap);
                p.residual_masses.push(m);
                p.bases.push((self.period - phi) + k * self.period);
            }
        }

        // Batched inverse lookup, then TTF = base + ψ assembled in place,
        // clamped at zero for the hit branch's φ subtraction.
        self.trace.phase_at_cumulative_batch(&mut p.residual_masses, &mut p.probe);
        for (ttf, &base) in p.residual_masses.iter_mut().zip(&p.bases) {
            *ttf = (base + *ttf).max(0.0);
        }
        RunningStats::from_slice(&p.residual_masses)
    }
}

/// Fills `words` with the counter-RNG words at stream indices
/// `start..end` (so `words[j] = rng_word(stream_seed, start + j)`) — a
/// branchless, stateless pass.
fn fill_words(words: &mut Vec<u64>, stream_seed: u64, start: usize, end: usize) {
    words.clear();
    words.extend((start as u64..end as u64).map(|i| rng_word(stream_seed, i)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use serr_trace::IntervalTrace;

    fn compiled(trace: &IntervalTrace) -> CompiledTrace {
        CompiledTrace::compile(trace).expect("test traces compile")
    }

    /// One worker's buffers, driven the way the engine drives a chunk.
    #[derive(Default)]
    struct Chunk {
        shared: SharedChunk,
        point: PointScratch,
    }

    impl Chunk {
        /// Prepares the chunk, forgets the segment hints, and finishes one
        /// rate: the engine's per-chunk sequence for a one-rate run.
        fn sample(
            &mut self,
            sampler: &BatchedInversionSampler,
            seed: u64,
            n: usize,
        ) -> RunningStats {
            sampler.prepare_chunk(&mut self.shared, seed, n);
            self.point.forget_segment_hints();
            sampler.finish_chunk(&self.shared, &mut self.point, n)
        }

        /// [`Chunk::sample`]'s times to failure.
        fn ttfs(&mut self, sampler: &BatchedInversionSampler, seed: u64, n: usize) -> Vec<f64> {
            self.sample(sampler, seed, n);
            self.point.ttfs().to_vec()
        }
    }

    fn run_stats(
        trace: &IntervalTrace,
        lambda: f64,
        start: StartPhase,
        chunks: u64,
        chunk_len: usize,
    ) -> RunningStats {
        let c = compiled(trace);
        let sampler = BatchedInversionSampler::new(&c, lambda, start);
        let mut scratch = Chunk::default();
        let mut stats = RunningStats::new();
        for chunk in 0..chunks {
            stats.merge(&scratch.sample(&sampler, 0xBA7C_0000 + chunk, chunk_len));
        }
        stats
    }

    #[test]
    fn schedule_version_is_pinned() {
        // A schedule bump must be deliberate: it changes every sampled
        // stream, so sampler_equivalence's bit-identity pins move with it.
        assert_eq!(BATCHED_RNG_SCHEDULE_VERSION, 2);
    }

    #[test]
    fn uniforms_sit_on_the_exact_grid() {
        assert_eq!(uniform_from_word(0), 0.0);
        assert_eq!(uniform_from_word(u64::MAX), 1.0 - 2.0f64.powi(-52));
        // 1 − u is exact across the grid: both extremes and a mid word.
        for w in [0u64, 1 << 12, u64::MAX / 2, u64::MAX] {
            let u = uniform_from_word(w);
            assert!((0.0..1.0).contains(&u));
            let omu = 1.0 - u;
            assert!(omu >= 2.0f64.powi(-52) && omu <= 1.0);
            // Exactness: adding back recovers u bit-for-bit.
            assert_eq!(1.0 - omu, u);
        }
    }

    #[test]
    fn counter_words_are_stateless_and_seed_separated() {
        let a: Vec<u64> = (0..32).map(|i| rng_word(7, i)).collect();
        let b: Vec<u64> = (0..32).map(|i| rng_word(7, i)).collect();
        assert_eq!(a, b);
        let c: Vec<u64> = (0..32).map(|i| rng_word(8, i)).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn fully_vulnerable_matches_exponential_mean() {
        let trace = IntervalTrace::constant(100, 1.0).unwrap();
        let lambda = 0.02;
        let stats = run_stats(&trace, lambda, StartPhase::WorkloadStart, 50, 1024);
        let want = 1.0 / lambda;
        assert!(
            (stats.mean() - want).abs() < 4.0 * stats.ci95_half_width().max(1e-9),
            "mean {} want {want}",
            stats.mean()
        );
    }

    #[test]
    fn matches_renewal_closed_form_busy_idle() {
        let trace = IntervalTrace::busy_idle(30, 70).unwrap();
        let lambda = 0.01; // λL = 1.0
        let stats = run_stats(&trace, lambda, StartPhase::WorkloadStart, 200, 1024);
        let want = serr_analytic::renewal::renewal_mttf_cycles(&trace, lambda);
        let err = (stats.mean() - want).abs() / want;
        assert!(err < 0.01, "MC {} vs renewal {want}: err {err}", stats.mean());
    }

    #[test]
    fn matches_renewal_with_fractional_vulnerability() {
        let trace =
            IntervalTrace::from_levels(&[1.0, 0.25, 0.25, 0.0, 0.5, 0.0, 0.0, 0.0]).unwrap();
        let lambda = 0.05;
        let stats = run_stats(&trace, lambda, StartPhase::WorkloadStart, 200, 1024);
        let want = serr_analytic::renewal::renewal_mttf_cycles(&trace, lambda);
        let err = (stats.mean() - want).abs() / want;
        assert!(err < 0.015, "MC {} vs renewal {want}: err {err}", stats.mean());
    }

    #[test]
    fn tiny_lambda_l_matches_avf_formula() {
        // λL = 1e-9: skip counts near 1e9 periods; magnitudes must not
        // cancel anywhere in the SoA passes.
        let trace = IntervalTrace::busy_idle(25, 75).unwrap();
        let lambda = 1e-11;
        let stats = run_stats(&trace, lambda, StartPhase::WorkloadStart, 20, 1024);
        let want = 1.0 / (lambda * 0.25);
        let err = (stats.mean() - want).abs() / want;
        assert!(err < 0.03, "MC {} vs AVF {want}: err {err}", stats.mean());
    }

    #[test]
    fn huge_lambda_l_is_stable_with_no_explicit_guard() {
        // λL = 2000: e^{−λW} underflows to 0. No explicit λW > 700 branch
        // exists; E ≤ 36.04 forces every skip to 0 structurally. All TTFs must stay finite and land in the first
        // busy window.
        let trace = IntervalTrace::busy_idle(1000, 1000).unwrap();
        let lambda = 1.0;
        let c = compiled(&trace);
        let sampler = BatchedInversionSampler::new(&c, lambda, StartPhase::WorkloadStart);
        let ttfs = Chunk::default().ttfs(&sampler, 99, 20_000);
        let mut mean = 0.0;
        for &t in &ttfs {
            assert!(t.is_finite() && t >= 0.0, "non-finite TTF {t}");
            assert!(t < 1000.0, "λW = 2000 trial escaped the first busy window: {t}");
            mean += t;
        }
        mean /= ttfs.len() as f64;
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn extreme_words_produce_finite_draws() {
        // The word → uniform → log pipeline at both grid extremes: u = 0
        // gives E = 0 (immediate-failure tail) and u = 1 − 2⁻⁵² gives the
        // largest representable draw E ≈ 36.04; neither may produce NaN/∞
        // masses or phases. Exercised through a real chunk plus directly.
        let e_max = -(2.0f64.powi(-52)).ln();
        assert!((e_max - 36.043_653_389_117_154).abs() < 1e-12);
        let trace = IntervalTrace::busy_idle(1, 999).unwrap();
        let c = compiled(&trace);
        for lambda in [1e-12, 1e-3, 10.0] {
            let sampler = BatchedInversionSampler::new(&c, lambda, StartPhase::WorkloadStart);
            let mut scratch = Chunk::default();
            for seed in 0..8 {
                for t in scratch.ttfs(&sampler, seed, 512) {
                    assert!(t.is_finite() && t >= 0.0, "λ={lambda}: bad TTF {t}");
                }
            }
        }
    }

    #[test]
    fn stationary_matches_phase_averaged_renewal() {
        let trace = IntervalTrace::busy_idle(500, 500).unwrap();
        let lambda = 0.007;
        let stats = run_stats(&trace, lambda, StartPhase::Stationary, 100, 1024);
        use std::sync::Arc;
        let arc: Arc<dyn VulnerabilityTrace> = Arc::new(trace);
        let shifts = 1000u64;
        let want: f64 = (0..shifts)
            .map(|i| {
                let t = serr_trace::ShiftedTrace::new(arc.clone(), i);
                serr_analytic::renewal::renewal_mttf_cycles(&t, lambda)
            })
            .sum::<f64>()
            / shifts as f64;
        let err = (stats.mean() - want).abs() / want;
        assert!(err < 0.02, "MC {} vs shift-averaged renewal {want}: {err}", stats.mean());
    }

    #[test]
    fn stationary_ttfs_are_nonnegative_and_finite() {
        let trace = IntervalTrace::from_levels(&[0.0, 1.0, 0.0, 0.5]).unwrap();
        let c = compiled(&trace);
        let sampler = BatchedInversionSampler::new(&c, 0.3, StartPhase::Stationary);
        let mut scratch = Chunk::default();
        for seed in 0..16 {
            for t in scratch.ttfs(&sampler, seed, 512) {
                assert!(t.is_finite() && t >= 0.0, "bad stationary TTF {t}");
            }
        }
    }

    #[test]
    fn chunks_are_deterministic_and_scratch_reuse_is_invisible() {
        let trace = IntervalTrace::busy_idle(30, 70).unwrap();
        let c = compiled(&trace);
        let sampler = BatchedInversionSampler::new(&c, 0.01, StartPhase::WorkloadStart);
        // Fresh scratch per call vs one reused scratch (including a
        // different-length chunk in between): bit-identical streams.
        let mut reused = Chunk::default();
        let first = reused.ttfs(&sampler, 42, 1024);
        let _ = reused.ttfs(&sampler, 43, 100);
        let again = reused.ttfs(&sampler, 42, 1024);
        assert_eq!(first, again, "scratch reuse changed the stream");
        let mut fresh = Chunk::default();
        assert_eq!(first, fresh.ttfs(&sampler, 42, 1024), "scratch state leaked");
        // Distinct stream seeds decorrelate.
        assert_ne!(first, fresh.ttfs(&sampler, 77, 1024));
    }

    #[test]
    fn shared_prepare_plus_finish_is_bit_identical_to_a_one_rate_chunk() {
        // The rate-list contract: one prepared chunk, finished per λ on one
        // point scratch (hints carried from point to point), must reproduce
        // each λ's own one-rate chunk bit for bit — in both start-phase
        // conventions, across several chunk seeds, on the select-chain and
        // on the staged probe.
        let small =
            IntervalTrace::from_levels(&[1.0, 0.25, 0.25, 0.0, 0.5, 0.0, 0.0, 0.0]).unwrap();
        let levels: Vec<f64> = (0..200).map(|i| f64::from(i % 7) / 6.0).collect();
        let large = IntervalTrace::from_levels(&levels).unwrap();
        let lambdas = [1e-9, 3e-4, 0.02, 0.7];
        for (trace, start) in [&small, &large]
            .into_iter()
            .flat_map(|t| [StartPhase::WorkloadStart, StartPhase::Stationary].map(|s| (t, s)))
        {
            let c = compiled(trace);
            let samplers: Vec<_> =
                lambdas.iter().map(|&l| BatchedInversionSampler::new(&c, l, start)).collect();
            let mut shared = SharedChunk::default();
            let mut point = PointScratch::default();
            for seed in [3u64, 0xBA7C_0001, u64::MAX - 5] {
                // Shared pass once (any sampler may run it: λ is unread).
                samplers[0].prepare_chunk(&mut shared, seed, 1024);
                point.forget_segment_hints();
                for sampler in &samplers {
                    let stats = sampler.finish_chunk(&shared, &mut point, 1024);
                    let shared_ttfs = point.ttfs().to_vec();
                    let mut solo = Chunk::default();
                    let solo_stats = solo.sample(sampler, seed, 1024);
                    let solo_ttfs = solo.point.ttfs();
                    assert_eq!(shared_ttfs, solo_ttfs, "{start:?}: TTF stream diverged");
                    assert_eq!(stats.mean().to_bits(), solo_stats.mean().to_bits());
                    assert_eq!(stats.min().to_bits(), solo_stats.min().to_bits());
                    assert_eq!(stats.max().to_bits(), solo_stats.max().to_bits());
                    assert_eq!(
                        stats.ci95_half_width().to_bits(),
                        solo_stats.ci95_half_width().to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn point_scratch_reuse_across_points_is_invisible() {
        // One PointScratch serving many λs serially (the sweep kernel's
        // steady state) must leak nothing between points.
        let trace = IntervalTrace::busy_idle(30, 70).unwrap();
        let c = compiled(&trace);
        let a = BatchedInversionSampler::new(&c, 0.01, StartPhase::WorkloadStart);
        let b = BatchedInversionSampler::new(&c, 0.3, StartPhase::WorkloadStart);
        let mut shared = SharedChunk::default();
        a.prepare_chunk(&mut shared, 42, 1024);
        let mut fresh_a = PointScratch::default();
        let mut fresh_b = PointScratch::default();
        a.finish_chunk(&shared, &mut fresh_a, 1024);
        b.finish_chunk(&shared, &mut fresh_b, 1024);
        let mut reused = PointScratch::default();
        a.finish_chunk(&shared, &mut reused, 1024);
        assert_eq!(reused.ttfs(), fresh_a.ttfs());
        b.finish_chunk(&shared, &mut reused, 1024);
        assert_eq!(reused.ttfs(), fresh_b.ttfs());
        a.finish_chunk(&shared, &mut reused, 1024);
        assert_eq!(reused.ttfs(), fresh_a.ttfs(), "scratch state leaked between points");
    }

    #[test]
    fn chunk_stats_are_from_slice_over_the_ttf_buffer() {
        // The finish pass assembles the TTFs first and folds them after, so
        // its statistics are exactly `from_slice` of the buffer it leaves —
        // in both start conventions, at a λW whose masses all take the
        // Taylor tier (≤ 1e-4) and at one that takes the general tier. (The
        // stationary miss branch runs the general tier's scalar core at
        // either; low λW makes nearly every trial miss, high λW hit.)
        let trace = IntervalTrace::busy_idle(30, 70).unwrap();
        let c = compiled(&trace);
        for start in [StartPhase::WorkloadStart, StartPhase::Stationary] {
            for lambda in [1e-7, 0.05] {
                let sampler = BatchedInversionSampler::new(&c, lambda, start);
                let mut scratch = Chunk::default();
                for (seed, n) in [(5u64, 1024usize), (6, 1000), (7, 17)] {
                    let stats = scratch.sample(&sampler, seed, n);
                    let ttfs = scratch.point.ttfs();
                    assert_eq!(ttfs.len(), n);
                    assert_eq!(stats, RunningStats::from_slice(ttfs), "{start:?} λ={lambda}");
                }
            }
        }
    }
}
