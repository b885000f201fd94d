//! Row generators for the paper's analytic figures (3 and 4).
//!
//! These produce exactly the series plotted in the paper; `serr sweep fig3`
//! and `serr sweep fig4` print them as tables.

use serr_types::{SerrError, BASELINE_RAW_RATE_PER_BIT_PER_YEAR};

use crate::{min_of_n, periodic};

/// Number of bits in the 100 MB cache of Figure 3.
pub const FIG3_CACHE_BITS: f64 = 8.0 * 100.0 * 1024.0 * 1024.0;

/// The raw-rate scaling factors of Figure 3 ("λ of 3 and 5 times this
/// value to represent changes in technology and altitude").
pub const FIG3_SCALES: [f64; 3] = [1.0, 3.0, 5.0];

/// One point of Figure 3: the AVF-step error for a 100 MB cache running a
/// loop of `l_days` days, busy for the first half.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig3Point {
    /// Loop iteration size in days.
    pub l_days: f64,
    /// Scaling factor applied to the baseline raw error rate.
    pub scale: f64,
    /// The cache's raw error rate, errors/year.
    pub lambda_per_year: f64,
    /// First-principles MTTF (Derivation 1), years.
    pub mttf_true_years: f64,
    /// AVF-step MTTF, years.
    pub mttf_avf_years: f64,
    /// `|E_AVF − E(X)| / E(X)`.
    pub relative_error: f64,
}

/// Generates Figure 3: L from `1..=max_days` days (A = L/2) for each scale
/// in [`FIG3_SCALES`], for a cache of [`FIG3_CACHE_BITS`] bits.
///
/// ```
/// use serr_analytic::fig::fig3_series;
/// let rows = fig3_series(16);
/// assert_eq!(rows.len(), 3 * 16);
/// // Errors grow with both L and the rate scale.
/// assert!(rows.last().unwrap().relative_error > rows[0].relative_error);
/// ```
#[must_use]
pub fn fig3_series(max_days: u32) -> Vec<Fig3Point> {
    let mut rows = Vec::new();
    for &scale in &FIG3_SCALES {
        let lambda_per_year = FIG3_CACHE_BITS * BASELINE_RAW_RATE_PER_BIT_PER_YEAR * scale;
        for day in 1..=max_days {
            rows.push(fig3_point(f64::from(day), scale, lambda_per_year));
        }
    }
    rows
}

fn fig3_point(l_days: f64, scale: f64, lambda_per_year: f64) -> Fig3Point {
    let l_years = l_days / 365.0;
    let a_years = l_years / 2.0;
    let mttf_true_years = periodic::busy_idle_mttf(lambda_per_year, a_years, l_years);
    let mttf_avf_years = periodic::avf_step_mttf(lambda_per_year, 0.5);
    Fig3Point {
        l_days,
        scale,
        lambda_per_year,
        mttf_true_years,
        mttf_avf_years,
        relative_error: (mttf_avf_years - mttf_true_years).abs() / mttf_true_years,
    }
}

/// One point of Figure 4: the SOFR-step error for a system of `n`
/// components with the Section 3.2.2 near-exponential time to failure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig4Point {
    /// Number of components.
    pub n: u32,
    /// True system MTTF `E(min)` (numerical integration).
    pub mttf_true: f64,
    /// SOFR estimate `1/(N√π)`.
    pub mttf_sofr: f64,
    /// `|MTTF_sofr − E(Y)| / E(Y)`.
    pub relative_error: f64,
}

/// Generates Figure 4 for `n` from 2 to `max_n` ("N from 2 to 32").
///
/// # Errors
///
/// Propagates quadrature failures from the min-of-N integration.
pub fn fig4_series(max_n: u32) -> Result<Vec<Fig4Point>, SerrError> {
    (2..=max_n)
        .map(|n| {
            let mttf_true = min_of_n::system_mttf(n)?;
            let mttf_sofr = min_of_n::sofr_mttf(n);
            Ok(Fig4Point {
                n,
                mttf_true,
                mttf_sofr,
                relative_error: (mttf_sofr - mttf_true).abs() / mttf_true,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_baseline_rate_matches_paper() {
        // "10 errors/year for the full cache" (paper's rounding of 8.39).
        let rows = fig3_series(1);
        let base = rows.iter().find(|r| r.scale == 1.0).unwrap();
        assert!((base.lambda_per_year - 8.388_608).abs() < 1e-6);
    }

    #[test]
    fn fig3_errors_small_at_baseline_larger_at_5x() {
        let rows = fig3_series(16);
        let base_16d = rows.iter().find(|r| r.scale == 1.0 && r.l_days == 16.0).unwrap();
        let hot_16d = rows.iter().find(|r| r.scale == 5.0 && r.l_days == 16.0).unwrap();
        // Paper: "although the errors are small for the baseline value of
        // lambda, they can be significant for higher values."
        assert!(base_16d.relative_error < 0.10, "baseline {}", base_16d.relative_error);
        assert!(hot_16d.relative_error > 0.15, "5x {}", hot_16d.relative_error);
        assert!(hot_16d.relative_error > base_16d.relative_error);
    }

    #[test]
    fn fig3_error_monotone_in_l_for_fixed_scale() {
        let rows = fig3_series(16);
        let mut prev = -1.0;
        for r in rows.iter().filter(|r| r.scale == 3.0) {
            assert!(r.relative_error > prev, "L={} err={}", r.l_days, r.relative_error);
            prev = r.relative_error;
        }
    }

    #[test]
    fn fig4_endpoints_match_paper() {
        let rows = fig4_series(32).unwrap();
        assert_eq!(rows.len(), 31);
        let first = rows.first().unwrap();
        let last = rows.last().unwrap();
        assert_eq!(first.n, 2);
        assert_eq!(last.n, 32);
        // "error grows from 15% ... to about 32%"
        assert!((0.10..=0.20).contains(&first.relative_error), "{}", first.relative_error);
        assert!((0.27..=0.38).contains(&last.relative_error), "{}", last.relative_error);
    }
}
