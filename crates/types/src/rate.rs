//! Error and failure rates: FIT, raw soft error rates, and derated failure
//! rates.

use std::fmt;
use std::ops::{Add, Mul};

use crate::{Mttf, SerrError, HOURS_PER_YEAR, SECONDS_PER_YEAR};

/// Failures In Time: the number of failures per one billion device-hours
/// (paper Section 2.1).
///
/// ```
/// use serr_types::FitRate;
/// let fit = FitRate::new(114.155); // ~1e-3 failures/year
/// assert!((fit.to_raw_rate().events_per_year() - 1e-3).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct FitRate(f64);

impl FitRate {
    /// Creates a FIT rate.
    ///
    /// # Panics
    ///
    /// Panics if `fit` is negative or not finite.
    #[must_use]
    pub fn new(fit: f64) -> Self {
        assert!(fit >= 0.0 && fit.is_finite(), "FIT rate must be non-negative, got {fit}");
        FitRate(fit)
    }

    /// Fallible variant of [`FitRate::new`] for boundary inputs.
    ///
    /// # Errors
    ///
    /// Returns [`SerrError::InvalidValue`] if `fit` is NaN, infinite, or
    /// negative.
    pub fn try_new(fit: f64) -> Result<Self, SerrError> {
        SerrError::require_finite_non_negative("FIT rate", fit).map(FitRate)
    }

    /// The raw FIT value (failures per 10⁹ hours).
    #[must_use]
    pub fn value(self) -> f64 {
        self.0
    }

    /// Converts to a [`RawErrorRate`] using `FIT × 8760 / 1e9` errors/year.
    #[must_use]
    pub fn to_raw_rate(self) -> RawErrorRate {
        RawErrorRate::per_year(self.0 * HOURS_PER_YEAR / 1.0e9)
    }
}

impl fmt::Display for FitRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6} FIT", self.0)
    }
}

/// The raw soft error rate λ of a component: the rate of raw error events
/// *before* any architectural masking, assumed exponentially distributed
/// (paper Section 3, assumption 1).
///
/// Internally stored per second. The paper usually quotes errors/year.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct RawErrorRate(f64);

impl RawErrorRate {
    /// A rate of zero events (a component that never sees raw errors).
    pub const ZERO: RawErrorRate = RawErrorRate(0.0);

    /// Creates a rate of `r` events per second.
    ///
    /// # Panics
    ///
    /// Panics if `r` is negative or not finite.
    #[must_use]
    pub fn per_second(r: f64) -> Self {
        assert!(r >= 0.0 && r.is_finite(), "raw error rate must be non-negative, got {r}");
        RawErrorRate(r)
    }

    /// Fallible variant of [`RawErrorRate::per_second`] for boundary inputs
    /// (CLI arguments, config files): rejects NaN/∞/negative instead of
    /// panicking.
    ///
    /// # Errors
    ///
    /// Returns [`SerrError::InvalidValue`] if `r` is NaN, infinite, or
    /// negative.
    pub fn try_per_second(r: f64) -> Result<Self, SerrError> {
        SerrError::require_finite_non_negative("raw error rate", r).map(RawErrorRate)
    }

    /// Creates a rate of `r` events per (365-day) year, the paper's usual
    /// unit (e.g. `1e-8` errors/year per bit).
    #[must_use]
    pub fn per_year(r: f64) -> Self {
        RawErrorRate::per_second(r / SECONDS_PER_YEAR)
    }

    /// Fallible variant of [`RawErrorRate::per_year`].
    ///
    /// # Errors
    ///
    /// Returns [`SerrError::InvalidValue`] if `r` is NaN, infinite, or
    /// negative.
    pub fn try_per_year(r: f64) -> Result<Self, SerrError> {
        SerrError::require_finite_non_negative("raw error rate", r)
            .map(|r| RawErrorRate(r / SECONDS_PER_YEAR))
    }

    /// The paper's baseline per-bit rate: `1e-8` errors/year (0.001 FIT).
    #[must_use]
    pub fn baseline_per_bit() -> Self {
        RawErrorRate::per_year(crate::BASELINE_RAW_RATE_PER_BIT_PER_YEAR)
    }

    /// Rate in events per second.
    #[must_use]
    pub fn per_second_value(self) -> f64 {
        self.0
    }

    /// Rate in events per year.
    #[must_use]
    pub fn events_per_year(self) -> f64 {
        self.0 * SECONDS_PER_YEAR
    }

    /// Scales the rate by a dimensionless factor — used for the paper's `N`
    /// (elements per component) and `S` (technology/altitude scaling) axes.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    #[must_use]
    pub fn scale(self, factor: f64) -> Self {
        assert!(factor >= 0.0 && factor.is_finite(), "scale factor must be non-negative");
        RawErrorRate(self.0 * factor)
    }

    /// Fallible variant of [`RawErrorRate::scale`] — the `N` and `S` axes of
    /// the paper's sweeps come straight from the CLI, so they go through
    /// this.
    ///
    /// # Errors
    ///
    /// Returns [`SerrError::InvalidValue`] if `factor` is NaN, infinite, or
    /// negative, or if the scaled rate overflows to infinity.
    pub fn try_scale(self, factor: f64) -> Result<Self, SerrError> {
        SerrError::require_finite_non_negative("scale factor", factor)?;
        let scaled = self.0 * factor;
        SerrError::require_finite_non_negative("scaled raw error rate", scaled).map(RawErrorRate)
    }

    /// Converts to FIT.
    #[must_use]
    pub fn to_fit(self) -> FitRate {
        FitRate::new(self.events_per_year() * 1.0e9 / HOURS_PER_YEAR)
    }

    /// Whether this rate is exactly zero.
    #[must_use]
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }
}

impl Add for RawErrorRate {
    type Output = RawErrorRate;
    fn add(self, rhs: RawErrorRate) -> RawErrorRate {
        RawErrorRate(self.0 + rhs.0)
    }
}

impl Mul<f64> for RawErrorRate {
    type Output = RawErrorRate;
    fn mul(self, rhs: f64) -> RawErrorRate {
        self.scale(rhs)
    }
}

impl fmt::Display for RawErrorRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3e} errors/year", self.events_per_year())
    }
}

/// A *derated* failure rate — the output of the AVF step
/// (`λ × AVF`) or the SOFR sum. Internally per second.
///
/// ```
/// use serr_types::{FailureRate, RawErrorRate};
/// let raw = RawErrorRate::per_year(10.0);
/// let derated = FailureRate::from_avf(raw, 0.5);
/// assert!((derated.to_mttf().as_years() - 0.2).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct FailureRate(f64);

impl FailureRate {
    /// A failure rate of zero (a component that never fails).
    pub const ZERO: FailureRate = FailureRate(0.0);

    /// Creates a failure rate of `r` failures per second.
    ///
    /// # Panics
    ///
    /// Panics if `r` is negative or not finite.
    #[must_use]
    pub fn per_second(r: f64) -> Self {
        assert!(r >= 0.0 && r.is_finite(), "failure rate must be non-negative, got {r}");
        FailureRate(r)
    }

    /// Creates a failure rate of `r` failures per year.
    #[must_use]
    pub fn per_year_rate(r: f64) -> Self {
        FailureRate::per_second(r / SECONDS_PER_YEAR)
    }

    /// The AVF step (paper Equation 1, rearranged): failure rate =
    /// raw rate × AVF.
    ///
    /// # Panics
    ///
    /// Panics if `avf` is outside `[0, 1]`.
    #[must_use]
    pub fn from_avf(raw: RawErrorRate, avf: f64) -> Self {
        assert!((0.0..=1.0).contains(&avf), "AVF must lie in [0,1], got {avf}");
        FailureRate(raw.per_second_value() * avf)
    }

    /// Fallible variant of [`FailureRate::from_avf`]: rejects NaN and
    /// out-of-range AVF with a typed error instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`SerrError::InvalidValue`] if `avf` is NaN or outside
    /// `[0, 1]`.
    pub fn try_from_avf(raw: RawErrorRate, avf: f64) -> Result<Self, SerrError> {
        if (0.0..=1.0).contains(&avf) {
            Ok(FailureRate(raw.per_second_value() * avf))
        } else {
            Err(SerrError::invalid_value("AVF (must lie in [0,1])", avf))
        }
    }

    /// Failures per second.
    #[must_use]
    pub fn per_second_value(self) -> f64 {
        self.0
    }

    /// Failures per year.
    #[must_use]
    pub fn events_per_year(self) -> f64 {
        self.0 * SECONDS_PER_YEAR
    }

    /// MTTF = 1 / failure rate (the reciprocal step of SOFR, Equation 3).
    ///
    /// # Panics
    ///
    /// Panics if the rate is zero.
    #[must_use]
    pub fn to_mttf(self) -> Mttf {
        assert!(self.0 > 0.0, "cannot take MTTF of a zero failure rate");
        Mttf::from_secs(1.0 / self.0)
    }

    /// Whether this rate is exactly zero.
    #[must_use]
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }
}

impl Add for FailureRate {
    type Output = FailureRate;
    fn add(self, rhs: FailureRate) -> FailureRate {
        FailureRate(self.0 + rhs.0)
    }
}

impl std::iter::Sum for FailureRate {
    fn sum<I: Iterator<Item = FailureRate>>(iter: I) -> Self {
        iter.fold(FailureRate::ZERO, Add::add)
    }
}

impl fmt::Display for FailureRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3e} failures/year", self.events_per_year())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_and_raw_rate_roundtrip() {
        let r = RawErrorRate::per_year(2.5e-6);
        let back = r.to_fit().to_raw_rate();
        assert!((back.events_per_year() - 2.5e-6).abs() < 1e-18);
    }

    #[test]
    fn baseline_matches_paper() {
        let b = RawErrorRate::baseline_per_bit();
        assert!((b.events_per_year() - 1e-8).abs() < 1e-20);
        // ~0.001 FIT per the paper's equivalence
        assert!((b.to_fit().value() - 0.001).abs() < 2e-4);
    }

    #[test]
    fn scaling_by_n_and_s() {
        // 100MB cache at baseline: the paper quotes ~10 errors/year.
        let bits = 8.0 * 100.0 * 1024.0 * 1024.0;
        let cache = RawErrorRate::baseline_per_bit().scale(bits);
        assert!((cache.events_per_year() - 8.388608).abs() < 1e-9);
        let high_altitude = cache * 5.0;
        assert!((high_altitude.events_per_year() - 41.94304).abs() < 1e-9);
    }

    #[test]
    fn avf_step_derates() {
        let raw = RawErrorRate::per_year(4.0);
        let fr = FailureRate::from_avf(raw, 0.25);
        assert!((fr.events_per_year() - 1.0).abs() < 1e-12);
        assert!((fr.to_mttf().as_years() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "AVF must lie in [0,1]")]
    fn avf_out_of_range_panics() {
        let _ = FailureRate::from_avf(RawErrorRate::per_year(1.0), 1.5);
    }

    #[test]
    fn failure_rates_sum() {
        let rates = vec![
            FailureRate::per_year_rate(1.0),
            FailureRate::per_year_rate(2.0),
            FailureRate::per_year_rate(3.0),
        ];
        let total: FailureRate = rates.into_iter().sum();
        assert!((total.events_per_year() - 6.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "zero failure rate")]
    fn zero_rate_has_no_mttf() {
        let _ = FailureRate::ZERO.to_mttf();
    }

    #[test]
    fn display_formats() {
        let r = RawErrorRate::per_year(1.0);
        assert_eq!(format!("{r}"), "1.000e0 errors/year");
    }

    #[test]
    fn try_constructors_reject_nan_inf_negative() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            assert!(FitRate::try_new(bad).is_err(), "FIT accepted {bad}");
            assert!(RawErrorRate::try_per_second(bad).is_err(), "per_second accepted {bad}");
            assert!(RawErrorRate::try_per_year(bad).is_err(), "per_year accepted {bad}");
            assert!(RawErrorRate::per_year(1.0).try_scale(bad).is_err(), "scale accepted {bad}");
        }
        for bad in [f64::NAN, f64::INFINITY, -0.5, 1.0 + 1e-9] {
            assert!(
                FailureRate::try_from_avf(RawErrorRate::per_year(1.0), bad).is_err(),
                "AVF accepted {bad}"
            );
        }
    }

    #[test]
    fn try_constructors_accept_valid_inputs() {
        let r = RawErrorRate::try_per_year(10.0).unwrap();
        assert_eq!(r, RawErrorRate::per_year(10.0));
        assert_eq!(r.try_scale(2.0).unwrap(), r.scale(2.0));
        let fr = FailureRate::try_from_avf(r, 0.5).unwrap();
        assert_eq!(fr, FailureRate::from_avf(r, 0.5));
        assert!(RawErrorRate::try_per_second(0.0).unwrap().is_zero());
    }

    #[test]
    fn try_scale_rejects_overflow_to_infinity() {
        let r = RawErrorRate::per_second(1e300);
        assert!(r.try_scale(1e300).is_err());
    }
}
