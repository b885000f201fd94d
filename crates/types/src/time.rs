//! Time units: seconds, cycles, frequency, and MTTF.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

use crate::{SerrError, SECONDS_PER_DAY, SECONDS_PER_HOUR, SECONDS_PER_YEAR};

/// A duration in seconds, the canonical time unit of the workspace.
///
/// ```
/// use serr_types::Seconds;
/// let day = Seconds::from_hours(24.0);
/// assert_eq!(day.as_days(), 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Seconds(f64);

impl Seconds {
    /// A zero-length duration.
    pub const ZERO: Seconds = Seconds(0.0);

    /// Creates a duration of `secs` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or NaN.
    #[must_use]
    pub fn new(secs: f64) -> Self {
        assert!(secs >= 0.0 && !secs.is_nan(), "duration must be non-negative, got {secs}");
        Seconds(secs)
    }

    /// Fallible variant of [`Seconds::new`] for boundary inputs. Unlike
    /// `new` (which tolerates `+∞` for limit results such as the MTTF of an
    /// unfailable system), this rejects infinities too: a *configured*
    /// duration must be finite.
    ///
    /// # Errors
    ///
    /// Returns [`SerrError::InvalidValue`] if `secs` is NaN, infinite, or
    /// negative.
    pub fn try_new(secs: f64) -> Result<Self, SerrError> {
        SerrError::require_finite_non_negative("duration in seconds", secs).map(Seconds)
    }

    /// Creates a duration from hours.
    #[must_use]
    pub fn from_hours(hours: f64) -> Self {
        Seconds::new(hours * SECONDS_PER_HOUR)
    }

    /// Creates a duration from 24-hour days.
    #[must_use]
    pub fn from_days(days: f64) -> Self {
        Seconds::new(days * SECONDS_PER_DAY)
    }

    /// Creates a duration from 365-day years.
    #[must_use]
    pub fn from_years(years: f64) -> Self {
        Seconds::new(years * SECONDS_PER_YEAR)
    }

    /// The raw number of seconds.
    #[must_use]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// This duration expressed in hours.
    #[must_use]
    pub fn as_hours(self) -> f64 {
        self.0 / SECONDS_PER_HOUR
    }

    /// This duration expressed in days.
    #[must_use]
    pub fn as_days(self) -> f64 {
        self.0 / SECONDS_PER_DAY
    }

    /// This duration expressed in years.
    #[must_use]
    pub fn as_years(self) -> f64 {
        self.0 / SECONDS_PER_YEAR
    }

    /// Number of whole-and-fractional processor cycles this duration spans at
    /// frequency `f`.
    #[must_use]
    pub fn to_cycles(self, f: Frequency) -> f64 {
        self.0 * f.hz()
    }
}

impl Add for Seconds {
    type Output = Seconds;
    fn add(self, rhs: Seconds) -> Seconds {
        Seconds(self.0 + rhs.0)
    }
}

impl AddAssign for Seconds {
    fn add_assign(&mut self, rhs: Seconds) {
        self.0 += rhs.0;
    }
}

impl Sub for Seconds {
    type Output = Seconds;
    fn sub(self, rhs: Seconds) -> Seconds {
        Seconds::new(self.0 - rhs.0)
    }
}

impl Mul<f64> for Seconds {
    type Output = Seconds;
    fn mul(self, rhs: f64) -> Seconds {
        Seconds::new(self.0 * rhs)
    }
}

impl Div<f64> for Seconds {
    type Output = Seconds;
    fn div(self, rhs: f64) -> Seconds {
        Seconds::new(self.0 / rhs)
    }
}

impl fmt::Display for Seconds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= SECONDS_PER_YEAR {
            write!(f, "{:.4} years", self.as_years())
        } else if self.0 >= SECONDS_PER_DAY {
            write!(f, "{:.4} days", self.as_days())
        } else {
            write!(f, "{:.4} s", self.0)
        }
    }
}

/// A count of processor cycles.
///
/// Cycle counts are the granularity at which masking traces are recorded: for
/// a given cycle, a raw error is either masked or not (paper Section 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycles(pub u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0);

    /// Creates a cycle count.
    #[must_use]
    pub const fn new(n: u64) -> Self {
        Cycles(n)
    }

    /// The raw count.
    #[must_use]
    pub const fn count(self) -> u64 {
        self.0
    }

    /// Duration of this many cycles at frequency `f`.
    #[must_use]
    pub fn to_seconds(self, f: Frequency) -> Seconds {
        Seconds::new(self.0 as f64 / f.hz())
    }
}

impl Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.checked_sub(rhs.0).expect("cycle subtraction underflow"))
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cycles", self.0)
    }
}

impl From<u64> for Cycles {
    fn from(n: u64) -> Self {
        Cycles(n)
    }
}

/// A clock frequency in hertz.
///
/// ```
/// use serr_types::{Cycles, Frequency};
/// let f = Frequency::ghz(2.0); // the paper's base processor
/// assert_eq!(Cycles::new(2_000_000_000).to_seconds(f).as_secs(), 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Frequency(f64);

impl Frequency {
    /// Creates a frequency of `hz` hertz.
    ///
    /// # Panics
    ///
    /// Panics if `hz` is not strictly positive and finite.
    #[must_use]
    pub fn new(hz: f64) -> Self {
        assert!(hz > 0.0 && hz.is_finite(), "frequency must be positive and finite, got {hz}");
        Frequency(hz)
    }

    /// Fallible variant of [`Frequency::new`] for boundary inputs.
    ///
    /// # Errors
    ///
    /// Returns [`SerrError::InvalidValue`] if `hz` is NaN, infinite, zero,
    /// or negative.
    pub fn try_new(hz: f64) -> Result<Self, SerrError> {
        SerrError::require_finite_positive("frequency in Hz", hz).map(Frequency)
    }

    /// Creates a frequency of `g` gigahertz.
    #[must_use]
    pub fn ghz(g: f64) -> Self {
        Frequency::new(g * 1.0e9)
    }

    /// The frequency in hertz.
    #[must_use]
    pub fn hz(self) -> f64 {
        self.0
    }

    /// The paper's base processor frequency, 2.0 GHz (Table 1).
    #[must_use]
    pub fn base() -> Self {
        Frequency::new(crate::BASE_FREQUENCY_HZ)
    }
}

impl Default for Frequency {
    fn default() -> Self {
        Frequency::base()
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} GHz", self.0 / 1.0e9)
    }
}

/// Mean time to failure.
///
/// A thin wrapper over [`Seconds`] that also supports the reciprocal
/// relationship with [`crate::FailureRate`] used by the SOFR model.
///
/// ```
/// use serr_types::Mttf;
/// let m = Mttf::from_years(10.0);
/// assert!((m.to_failure_rate().events_per_year() - 0.1).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Mttf(Seconds);

impl Mttf {
    /// Creates an MTTF from a duration.
    ///
    /// # Panics
    ///
    /// Panics if the duration is zero (an MTTF of zero would make the SOFR
    /// reciprocal undefined).
    #[must_use]
    pub fn new(t: Seconds) -> Self {
        assert!(t.as_secs() > 0.0, "MTTF must be strictly positive, got {t}");
        Mttf(t)
    }

    /// Creates an MTTF of `secs` seconds.
    #[must_use]
    pub fn from_secs(secs: f64) -> Self {
        Mttf::new(Seconds::new(secs))
    }

    /// Fallible variant of [`Mttf::from_secs`]: rejects NaN and non-positive
    /// durations with a typed error. Like [`Seconds::new`], `+∞` is accepted
    /// — an infinite MTTF is the honest answer for an unfailable system.
    ///
    /// # Errors
    ///
    /// Returns [`SerrError::InvalidValue`] if `secs` is NaN, zero, or
    /// negative.
    pub fn try_from_secs(secs: f64) -> Result<Self, SerrError> {
        if secs > 0.0 {
            Ok(Mttf(Seconds::new(secs)))
        } else {
            Err(SerrError::invalid_value("MTTF in seconds (must be positive)", secs))
        }
    }

    /// Creates an MTTF of `years` years.
    #[must_use]
    pub fn from_years(years: f64) -> Self {
        Mttf::new(Seconds::from_years(years))
    }

    /// The MTTF as a duration.
    #[must_use]
    pub fn as_seconds(self) -> Seconds {
        self.0
    }

    /// The MTTF in seconds.
    #[must_use]
    pub fn as_secs(self) -> f64 {
        self.0.as_secs()
    }

    /// The MTTF in years.
    #[must_use]
    pub fn as_years(self) -> f64 {
        self.0.as_years()
    }

    /// The failure rate `1/MTTF`, valid under the constant-rate assumption
    /// that the paper examines.
    #[must_use]
    pub fn to_failure_rate(self) -> crate::FailureRate {
        crate::FailureRate::per_second(1.0 / self.0.as_secs())
    }
}

impl fmt::Display for Mttf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MTTF {}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_conversions_roundtrip() {
        let s = Seconds::from_days(7.0);
        assert!((s.as_hours() - 168.0).abs() < 1e-9);
        assert!((s.as_years() - 7.0 / 365.0).abs() < 1e-12);
    }

    #[test]
    fn seconds_arithmetic() {
        let a = Seconds::new(10.0);
        let b = Seconds::new(4.0);
        assert_eq!((a + b).as_secs(), 14.0);
        assert_eq!((a - b).as_secs(), 6.0);
        assert_eq!((a * 2.0).as_secs(), 20.0);
        assert_eq!((a / 2.0).as_secs(), 5.0);
        let mut c = a;
        c += b;
        assert_eq!(c.as_secs(), 14.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn seconds_rejects_negative() {
        let _ = Seconds::new(-1.0);
    }

    #[test]
    fn cycles_at_base_frequency() {
        let f = Frequency::base();
        let c = Cycles::new(2_000_000_000);
        assert_eq!(c.to_seconds(f).as_secs(), 1.0);
        assert_eq!(Seconds::new(1.0).to_cycles(f), 2.0e9);
    }

    #[test]
    fn cycles_arithmetic_and_ordering() {
        assert_eq!(Cycles::new(3) + Cycles::new(4), Cycles::new(7));
        assert_eq!(Cycles::new(4) - Cycles::new(3), Cycles::new(1));
        assert!(Cycles::new(3) < Cycles::new(4));
        let mut c = Cycles::new(1);
        c += Cycles::new(2);
        assert_eq!(c, Cycles::new(3));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn cycles_subtraction_underflow_panics() {
        let _ = Cycles::new(1) - Cycles::new(2);
    }

    #[test]
    fn mttf_reciprocal() {
        let m = Mttf::from_years(2.0);
        let r = m.to_failure_rate();
        assert!((r.events_per_year() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn try_constructors_reject_invalid_inputs() {
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            assert!(Seconds::try_new(bad).is_err(), "Seconds accepted {bad}");
            assert!(Frequency::try_new(bad).is_err(), "Frequency accepted {bad}");
        }
        assert!(Frequency::try_new(0.0).is_err());
        assert!(Mttf::try_from_secs(0.0).is_err());
        assert!(Mttf::try_from_secs(f64::NAN).is_err());
        assert!(Mttf::try_from_secs(-3.0).is_err());
        // Valid inputs round-trip to the panicking constructors' values.
        assert_eq!(Seconds::try_new(2.5).unwrap(), Seconds::new(2.5));
        assert_eq!(Frequency::try_new(2.0e9).unwrap(), Frequency::base());
        assert_eq!(Mttf::try_from_secs(10.0).unwrap(), Mttf::from_secs(10.0));
        // Infinite MTTF is a legal limit result.
        assert!(Mttf::try_from_secs(f64::INFINITY).is_ok());
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Seconds::new(1.5)), "1.5000 s");
        assert_eq!(format!("{}", Seconds::from_days(2.0)), "2.0000 days");
        assert_eq!(format!("{}", Frequency::base()), "2.000 GHz");
        assert_eq!(format!("{}", Cycles::new(5)), "5 cycles");
    }
}
