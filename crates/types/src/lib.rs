//! Shared vocabulary for architecture-level soft error analysis.
//!
//! This crate defines the units and identities used by every other crate in
//! the workspace: time ([`Seconds`], [`Cycles`], [`Frequency`]), error rates
//! ([`FitRate`], [`RawErrorRate`], [`FailureRate`]), reliability metrics
//! ([`Mttf`]), and the typed [`SerrError`] every fallible operation
//! returns.
//!
//! # Conventions
//!
//! * The canonical internal time unit is the **second**; the canonical rate
//!   unit is **events per second**. Constructors and accessors are provided
//!   for years, hours, days, and FIT so call sites can speak the paper's
//!   language (e.g. `0.001 FIT/bit`, `10 errors/year`).
//! * `Cycles` are tied to a [`Frequency`] for conversion; the paper's base
//!   processor runs at 2.0 GHz.
//!
//! # Example
//!
//! ```
//! use serr_types::{FitRate, RawErrorRate, SECONDS_PER_YEAR};
//!
//! // The paper's baseline raw error rate: 0.001 FIT per bit ~ 1e-8 errors/year.
//! let per_bit = RawErrorRate::per_year(1.0e-8);
//! let cache_bits = 8.0 * 100.0 * 1024.0 * 1024.0; // 100 MB cache
//! let cache_rate = per_bit.scale(cache_bits);
//! assert!((cache_rate.events_per_year() - 8.388608).abs() < 1e-9);
//! assert!(cache_rate.per_second_value() * SECONDS_PER_YEAR - cache_rate.events_per_year() < 1e-12);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod error;
mod provenance;
mod rate;
mod time;

pub use error::{panic_payload_string, SerrError};
pub use provenance::Provenance;
pub use rate::{FailureRate, FitRate, RawErrorRate};
pub use time::{Cycles, Frequency, Mttf, Seconds};

/// Seconds in one hour.
pub const SECONDS_PER_HOUR: f64 = 3600.0;
/// Seconds in one (24 hour) day.
pub const SECONDS_PER_DAY: f64 = 24.0 * SECONDS_PER_HOUR;
/// Hours in one (365 day) year, the convention used by FIT arithmetic.
pub const HOURS_PER_YEAR: f64 = 8760.0;
/// Seconds in one (365 day) year.
pub const SECONDS_PER_YEAR: f64 = HOURS_PER_YEAR * SECONDS_PER_HOUR;

/// The paper's baseline terrestrial raw error rate for one bit of on-chip
/// storage under ~2007 technology: `1e-8` errors/year (~0.001 FIT).
pub const BASELINE_RAW_RATE_PER_BIT_PER_YEAR: f64 = 1.0e-8;

/// The paper's base processor frequency (Table 1): 2.0 GHz.
pub const BASE_FREQUENCY_HZ: f64 = 2.0e9;

/// Relative error of an estimate against a reference value, as used
/// throughout the paper's figures: `|estimate - truth| / truth`.
///
/// # Panics
///
/// Panics if `truth` is zero or either argument is not finite.
#[must_use]
pub fn relative_error(estimate: f64, truth: f64) -> f64 {
    assert!(
        estimate.is_finite() && truth.is_finite(),
        "relative_error requires finite inputs, got estimate={estimate}, truth={truth}"
    );
    assert!(truth != 0.0, "relative_error reference value must be nonzero");
    (estimate - truth).abs() / truth.abs()
}

/// Signed relative error `(estimate - truth) / truth`; the paper notes that
/// the AVF step may either over- or under-estimate MTTF, so sign matters for
/// some reports.
///
/// # Panics
///
/// Panics if `truth` is zero or either argument is not finite.
#[must_use]
pub fn signed_relative_error(estimate: f64, truth: f64) -> f64 {
    assert!(
        estimate.is_finite() && truth.is_finite(),
        "signed_relative_error requires finite inputs, got estimate={estimate}, truth={truth}"
    );
    assert!(truth != 0.0, "signed_relative_error reference value must be nonzero");
    (estimate - truth) / truth.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_error_basic() {
        assert_eq!(relative_error(110.0, 100.0), 0.1);
        assert_eq!(relative_error(90.0, 100.0), 0.1);
        assert_eq!(relative_error(100.0, 100.0), 0.0);
    }

    #[test]
    fn signed_relative_error_keeps_sign() {
        assert_eq!(signed_relative_error(110.0, 100.0), 0.1);
        assert_eq!(signed_relative_error(90.0, 100.0), -0.1);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn relative_error_rejects_zero_truth() {
        let _ = relative_error(1.0, 0.0);
    }

    #[test]
    fn constants_are_consistent() {
        assert_eq!(SECONDS_PER_DAY, 86_400.0);
        assert_eq!(SECONDS_PER_YEAR, 31_536_000.0);
        // 0.001 FIT/bit and 1e-8 errors/year/bit agree to ~15%,
        // the approximation the paper itself makes.
        let fit = FitRate::new(0.001);
        let per_year = fit.to_raw_rate().events_per_year();
        assert!((per_year - BASELINE_RAW_RATE_PER_BIT_PER_YEAR).abs() / 1e-8 < 0.15);
    }
}
