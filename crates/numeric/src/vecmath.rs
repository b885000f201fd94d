//! Branchless batch transcendentals for structure-of-arrays hot loops.
//!
//! The batched inversion sampler (`serr-mc`) turns a whole chunk of
//! uniforms into exponential draws and truncated-exponential masses with
//! two logarithm passes per chunk. `libm`'s `ln`/`ln_1p` are accurate but
//! branchy (domain checks, subnormal paths, table lookups), which defeats
//! auto-vectorization; the passes here trade a few ulp for straight-line
//! code the compiler can lower to SIMD:
//!
//! * [`ln_in_place`] — natural log of positive *normal* finite values,
//!   branchless exponent/mantissa split plus an odd `atanh` series;
//! * [`ln_one_minus_in_place`] — `ln(1 − y)` for `y ∈ [0, 1)` without
//!   cancellation at tiny `y` (the `ln_1p` use case), in two tiers chosen
//!   by the batch maximum: a short Taylor series when every element is
//!   ≤ 1e-4, otherwise [`ln_one_minus`] — the classic log1p correction
//!   over [`ln`], `ln(1 − y) = ln(u) + (−y − (u − 1))/u` with
//!   `u = 1 − y` rounded, within 2 ulp of `f64::ln_1p` on `[0, 1 − 2⁻⁵²]`.
//!
//! Both are deterministic functions of the input slice alone — never of
//! thread count or timing — which is what the batched sampler's
//! bit-reproducibility contract needs. [`ln_in_place`] is additionally a
//! pure element-wise map (chunking a slice cannot change any result);
//! [`ln_one_minus_in_place`] picks its evaluation tier from the batch
//! maximum, so it is deterministic per batch, with the two tiers agreeing
//! to an ulp or two where they meet.

/// Exponent-split offset: subtracting `OFF` from the IEEE-754 bit pattern
/// of a positive normal `x` puts the represented mantissa `z` in
/// `[0.6875, 1.375)`, so `x = 2^e · z` with `|ln z| ≤ 0.375` — small
/// enough for a short odd series in `s = (z − 1)/(z + 1)`.
const OFF: u64 = 0x3FE6_0000_0000_0000;

/// Coefficients of `atanh(s)/s = 1 + s²/3 + s⁴/5 + …` beyond the leading 1,
/// highest order first for Horner evaluation. With `|s| ≤ 0.1852` (the
/// `[0.6875, 1.375)` mantissa range) eleven terms leave a truncation error
/// below 1e-17 relative — under one ulp.
const ATANH_LN: [f64; 11] = [
    1.0 / 23.0,
    1.0 / 21.0,
    1.0 / 19.0,
    1.0 / 17.0,
    1.0 / 15.0,
    1.0 / 13.0,
    1.0 / 11.0,
    1.0 / 9.0,
    1.0 / 7.0,
    1.0 / 5.0,
    1.0 / 3.0,
];

/// One branchless `ln` evaluation — the scalar core of [`ln_in_place`],
/// exposed for callers that need single values on the same
/// bit-deterministic path. `x` must be positive, finite, and
/// normal (`x ≥ f64::MIN_POSITIVE`); anything else is garbage-in
/// garbage-out by design — the callers' inputs are uniforms on the
/// `[2⁻⁵², 1]` grid, which never leave the domain.
#[inline]
#[must_use]
pub fn ln(x: f64) -> f64 {
    // The exponent split is signed (arithmetic shift) for x < 0.6875;
    // z ∈ [0.6875, 1.375) makes z − 1 exact (Sterbenz), so the atanh form
    // keeps full relative accuracy as x → 1 where ln → 0. The Horner loop
    // uses `mul_add` — the IEEE-754 fusedMultiplyAdd, exactly rounded and
    // therefore bit-identical on every target (hardware FMA or the soft
    // fallback), unlike compiler contraction, which Rust never performs.
    let (z, e) = split_ln(x);
    ln_tail((z - 1.0) / (z + 1.0), e)
}

/// Replaces every element with its natural logarithm.
///
/// Domain: positive finite normal values (see [`ln`]). Accuracy is
/// within a few ulp of `f64::ln` across the domain — the unit tests pin
/// 5e-15 relative against `libm` including the extremes `2⁻⁵²` and `1`.
///
/// ```
/// use serr_numeric::vecmath::ln_in_place;
/// let mut xs = [1.0, core::f64::consts::E, 0.5];
/// ln_in_place(&mut xs);
/// assert_eq!(xs[0], 0.0);
/// assert!((xs[1] - 1.0).abs() < 1e-14);
/// assert!((xs[2] + core::f64::consts::LN_2).abs() < 1e-14);
/// ```
pub fn ln_in_place(xs: &mut [f64]) {
    // Deliberately a plain element-wise loop: LLVM lowers it to packed
    // vdivpd + FMA chains. (A pairwise shared-reciprocal variant — one
    // divide per two elements — was measured slower here: the pair-strided
    // loop shape costs more in shuffles than the saved divides.)
    for x in xs {
        *x = ln(*x);
    }
}

/// Exponent/mantissa split of the log evaluation:
/// `x = 2^e · z` with `z ∈ [0.6875, 1.375)`.
#[inline]
fn split_ln(x: f64) -> (f64, f64) {
    let bits = x.to_bits();
    let tmp = bits.wrapping_sub(OFF);
    #[allow(clippy::cast_possible_truncation, clippy::cast_precision_loss)]
    let e = ((tmp as i64) >> 52) as f64;
    (f64::from_bits(bits.wrapping_sub(tmp & (0xFFF_u64 << 52))), e)
}

/// Series tail of the log evaluation given `s = (z − 1)/(z + 1)` and the
/// exponent `e`.
#[inline]
fn ln_tail(s: f64, e: f64) -> f64 {
    let s2 = s * s;
    let mut p = ATANH_LN[0];
    for &c in &ATANH_LN[1..] {
        p = p.mul_add(s2, c);
    }
    e * core::f64::consts::LN_2 + 2.0 * (s * s2).mul_add(p, s)
}

/// One branch-free `ln(1 − y)` evaluation for `y ∈ [0, 1 − 2⁻⁵²]` — the
/// scalar core of [`ln_one_minus_in_place`]'s general tier, exposed (as
/// [`ln`] is for [`ln_in_place`]) for callers that need single values on
/// the same bit-deterministic path.
///
/// Forming `u = 1 − y` rounds away the low bits of `y`; the classic log1p
/// correction `c = (−y − (u − 1))/u` restores them to first order (the
/// subtraction `u − 1` is exact), so `ln(u) + c` keeps full relative
/// accuracy from tiny `y` (where `u = 1`, `ln(u) = 0` and `c = −y`) up to
/// `1 − 2⁻⁵²` (where `u = 2⁻⁵²` is still normal, inside [`ln`]'s domain).
/// The unit tests pin it within 2 ulp of `f64::ln_1p(−y)`.
///
/// ```
/// use serr_numeric::vecmath::ln_one_minus;
/// assert_eq!(ln_one_minus(0.0), 0.0);
/// assert_eq!(ln_one_minus(1e-300), -1e-300);
/// assert!((ln_one_minus(0.5) + core::f64::consts::LN_2).abs() < 1e-15);
/// ```
#[inline]
#[must_use]
pub fn ln_one_minus(y: f64) -> f64 {
    let u = 1.0 - y;
    ln(u) + (-y - (u - 1.0)) / u
}

/// Replaces every element `y ∈ [0, 1)` with `ln(1 − y)`, preserving full
/// relative accuracy for tiny `y` (where forming `1 − y` first would lose
/// every significant digit — the reason `ln_1p` exists).
///
/// The evaluation tier is chosen from the batch maximum: all elements
/// ≤ 1e-4 (the low-λW regime the batched sampler's hot sweeps live in)
/// use a four-term Taylor pass with no division; any larger maximum runs
/// [`ln_one_minus`] per element, straight-line code at every `y` (the
/// high-λW regime, where the batch maximum `1 − e^{−λW}` nears 1).
///
/// ```
/// use serr_numeric::vecmath::ln_one_minus_in_place;
/// let mut ys = [0.0, 1e-18, 0.5];
/// ln_one_minus_in_place(&mut ys);
/// assert_eq!(ys[0], 0.0);
/// assert!((ys[1] / -1e-18 - 1.0).abs() < 1e-12);
/// assert!((ys[2] + core::f64::consts::LN_2).abs() < 1e-14);
/// ```
pub fn ln_one_minus_in_place(ys: &mut [f64]) {
    // `· 1.0` and `.min(∞)` are bit-exact identities on the domain, so
    // delegating costs nothing but two dead lanes of constant folding.
    ln_one_minus_scaled_in_place(ys, 1.0, f64::INFINITY);
}

/// Replaces every element `y ∈ [0, 1)` with `(ln(1 − y) · scale).min(cap)`
/// — the inverse-CDF transform from a scaled uniform to a capped
/// truncated-exponential mass, fused into the log pass so the hot sampler
/// loop does not spend a separate read-modify-write pass on the scale and
/// cap. Tier selection and per-tier results match
/// [`ln_one_minus_in_place`] followed by the scale/cap loop exactly: the
/// fusion multiplies the same rounded `ln(1 − y)` value.
pub fn ln_one_minus_scaled_in_place(ys: &mut [f64], scale: f64, cap: f64) {
    let max = ys.iter().fold(0.0_f64, |a, &b| a.max(b));
    if max <= 1e-4 {
        // Tiny-mass batches — the low-AVF / low-λW regime where the
        // batched sampler lives — need only the first Taylor terms:
        // truncating −ln(1−y) = y + y²/2 + y³/3 + y⁴/4 + … after y⁴
        // leaves a relative error ≤ max³/5 < 2e-13·max ≤ 2e-17, and the
        // pass is four fused ops per element with no division.
        for y in ys {
            let v = *y;
            let ln1m = -v * v.mul_add(v.mul_add(v.mul_add(0.25, 1.0 / 3.0), 0.5), 1.0);
            *y = (ln1m * scale).min(cap);
        }
    } else {
        for y in ys {
            *y = (ln_one_minus(*y) * scale).min(cap);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_matches_libm_across_the_uniform_grid_domain() {
        // The batched sampler feeds values in [2^-52, 1]; sweep that range
        // (log-spaced) plus both exact endpoints.
        let mut worst = 0.0_f64;
        for i in 0..=5200 {
            let x = (2.0_f64).powf(-52.0 * (1.0 - f64::from(i) / 5200.0));
            let mut v = [x];
            ln_in_place(&mut v);
            let want = x.ln();
            let err = if want == 0.0 { v[0].abs() } else { ((v[0] - want) / want).abs() };
            worst = worst.max(err);
            assert!(err < 5e-15, "ln({x:e}) = {} want {want} (rel {err:e})", v[0]);
        }
        assert!(worst < 5e-15, "worst relative error {worst:e}");
    }

    #[test]
    fn ln_handles_the_exact_extremes() {
        let mut v = [1.0, (2.0_f64).powi(-52), 1.0 - (2.0_f64).powi(-52)];
        ln_in_place(&mut v);
        assert_eq!(v[0], 0.0, "ln(1) must be exactly 0");
        let want = -52.0 * core::f64::consts::LN_2;
        assert!(((v[1] - want) / want).abs() < 1e-15, "ln(2^-52) = {}", v[1]);
        // ln(1 − 2^-52) ≈ −2^-52: the atanh form keeps relative accuracy
        // right next to 1, where the result nearly vanishes.
        let want = (1.0 - (2.0_f64).powi(-52)).ln();
        assert!(((v[2] - want) / want).abs() < 1e-12, "ln(1-2^-52) = {:e} want {want:e}", v[2]);
    }

    #[test]
    fn ln_covers_general_positive_values_too() {
        for &x in &[3.5e-300, 1e-10, 0.1, 2.0, 3.0, 1e10, 8.9e307] {
            let mut v = [x];
            ln_in_place(&mut v);
            let want = x.ln();
            assert!(((v[0] - want) / want).abs() < 5e-15, "ln({x:e}) = {} want {want}", v[0]);
        }
    }

    /// Distance in units in the last place between two finite values of
    /// the same sign (both zeros count as equal).
    fn ulps(a: f64, b: f64) -> u64 {
        if a == b {
            return 0;
        }
        assert_eq!(a.is_sign_negative(), b.is_sign_negative(), "{a:e} vs {b:e}");
        a.to_bits().abs_diff(b.to_bits())
    }

    /// Asserts `got` is within two ulp of `f64::ln_1p(−y)`.
    fn assert_within_two_ulp(y: f64, got: f64) {
        let want = (-y).ln_1p();
        let d = ulps(got, want);
        assert!(d <= 2, "ln1m({y:e}) = {got:e} want {want:e} ({d} ulp)");
    }

    #[test]
    fn ln_one_minus_is_within_two_ulp_of_ln_1p_on_a_log_grid() {
        // Log-spaced over [1e-20, 1 − 2⁻⁵²], plus the points 1 − 2⁻ᵏ where
        // the rounding of u = 1 − y matters most. The whole grid is one
        // batch (its maximum forces the general tier), and the batch must
        // agree bit-for-bit with the scalar core.
        let top = 1.0 - 2.0_f64.powi(-52);
        let mut ys: Vec<f64> =
            (0..=200_000).map(|i| 10f64.powf(-20.0 + f64::from(i) / 10_000.0).min(top)).collect();
        ys.extend((1..=52).map(|k| 1.0 - 2.0_f64.powi(-k)));
        let mut batch = ys.clone();
        ln_one_minus_in_place(&mut batch);
        for (&y, &got) in ys.iter().zip(&batch) {
            assert_eq!(got.to_bits(), ln_one_minus(y).to_bits(), "batch ≠ scalar at {y:e}");
            assert_within_two_ulp(y, got);
        }
    }

    #[test]
    fn general_tier_is_within_two_ulp_on_random_batches() {
        // The sampler's inputs: grid uniforms scaled by 1 − e^{−λW}, from
        // the just-general regime to λW so large that the scale is 1.
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0x1A_0F_1E);
        for q in [2e-4, 1e-2, 0.3, 0.5, 0.9, 1.0 - 1e-12, 1.0] {
            let mut ys: Vec<f64> = (0..4096).map(|_| rng.gen::<f64>() * q).collect();
            ys[0] = 0.5; // forces the general tier even for the smallest q
            let mut batch = ys.clone();
            ln_one_minus_in_place(&mut batch);
            for (&y, &got) in ys.iter().zip(&batch) {
                assert_within_two_ulp(y, got);
            }
        }
    }

    #[test]
    fn taylor_and_general_tiers_agree_at_their_boundary() {
        // A batch whose maximum is exactly 1e-4 takes the Taylor tier; one
        // more element just above it moves the batch to the general tier.
        // Every shared element must agree to within two ulp across the
        // switch, and the general batch must equal the scalar core.
        let taylor_ys: Vec<f64> = (1..=1000).map(|i| 1e-4 * (f64::from(i) / 1000.0)).collect();
        assert_eq!(taylor_ys.last().copied(), Some(1e-4));
        let mut taylor = taylor_ys.clone();
        ln_one_minus_in_place(&mut taylor);
        let mut general_ys = taylor_ys.clone();
        general_ys.push(1e-4_f64.next_up());
        let mut general = general_ys.clone();
        ln_one_minus_in_place(&mut general);
        for (i, &y) in general_ys.iter().enumerate() {
            assert_eq!(general[i].to_bits(), ln_one_minus(y).to_bits(), "general tier at {y:e}");
            assert_within_two_ulp(y, general[i]);
        }
        for ((&y, &t), &g) in taylor_ys.iter().zip(&taylor).zip(&general) {
            assert_within_two_ulp(y, t);
            let d = ulps(t, g);
            assert!(d <= 2, "tiers disagree at {y:e}: taylor {t:e} general {g:e} ({d} ulp)");
        }
    }

    #[test]
    fn ln_one_minus_keeps_relative_accuracy_at_tiny_arguments() {
        // ln(1 − y) ≈ −y − y²/2: the naive 1 − y route would return 0 here.
        // Each value runs alone (the Taylor tier) and as the scalar core.
        for &y in &[1e-300, 1e-100, 2.0_f64.powi(-52), 1e-8] {
            let mut v = [y];
            ln_one_minus_in_place(&mut v);
            assert!((v[0] / -y - 1.0).abs() < 1e-7, "ln1m({y:e}) = {:e}, want ≈ {:e}", v[0], -y);
            assert_within_two_ulp(y, v[0]);
            assert_within_two_ulp(y, ln_one_minus(y));
        }
    }

    #[test]
    fn ln_one_minus_mixed_batch_takes_the_general_tier_and_stays_exact() {
        // One element above 1e-4 pushes the whole batch onto the general
        // tier; results must still match the reference for every element.
        let ys = [0.0, 1e-300, 1e-12, 0.3, 0.7, 0.999_999, 1.0 - 2.0_f64.powi(-52)];
        let mut v = ys;
        ln_one_minus_in_place(&mut v);
        assert_eq!(v[0], 0.0);
        for (&y, got) in ys.iter().zip(v) {
            assert_within_two_ulp(y, got);
        }
    }

    #[test]
    fn scaled_pass_matches_the_unscaled_pass_plus_the_separate_loop() {
        // The fusion contract: bit-identical to ln_one_minus_in_place
        // followed by `(x · scale).min(cap)`, in every tier.
        for (tier_max, cap) in [(9e-5, 4e-5), (0.4, 0.1), (1.0 - 2.0_f64.powi(-52), 30.0)] {
            let ys: Vec<f64> = (0..333).map(|i| f64::from(i) / 333.0 * tier_max).collect();
            let scale = -1.0 / 3.7e-4;
            let mut fused = ys.clone();
            ln_one_minus_scaled_in_place(&mut fused, scale, cap);
            let mut two_pass = ys.clone();
            ln_one_minus_in_place(&mut two_pass);
            for x in &mut two_pass {
                *x = (*x * scale).min(cap);
            }
            for (f, t) in fused.iter().zip(&two_pass) {
                assert_eq!(f.to_bits(), t.to_bits(), "fusion changed bits (max {tier_max})");
            }
        }
    }

    #[test]
    fn passes_are_pure_element_wise_maps() {
        // Chunked evaluation must agree bit-for-bit with whole-slice
        // evaluation: the sampler's determinism contract depends on it.
        let xs: Vec<f64> = (1..=257).map(|i| f64::from(i) / 257.0).collect();
        let mut whole = xs.clone();
        ln_in_place(&mut whole);
        for split in [1, 7, 64, 256] {
            let mut parts = xs.clone();
            let (a, b) = parts.split_at_mut(split);
            ln_in_place(a);
            ln_in_place(b);
            assert_eq!(parts, whole, "split at {split} changed ln results");
        }
    }
}
