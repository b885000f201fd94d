//! The paper's component raw error rates (Section 4.1).

use serr_types::RawErrorRate;

/// Raw soft-error rates of the four studied processor components.
///
/// The paper (citing Li et al.'s SoftArch derivation from published device
/// error rates): integer unit 2.3e-6, FP unit 4.5e-6, decode unit 3.3e-6,
/// and the 256-entry register file 1.0e-4 errors/year.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnitRates {
    /// Integer-unit raw rate.
    pub int_unit: RawErrorRate,
    /// FP-unit raw rate.
    pub fp_unit: RawErrorRate,
    /// Decode-unit raw rate.
    pub decode: RawErrorRate,
    /// Register-file raw rate.
    pub regfile: RawErrorRate,
}

impl UnitRates {
    /// The paper's rates.
    #[must_use]
    pub fn paper() -> Self {
        UnitRates {
            int_unit: RawErrorRate::per_year(2.3e-6),
            fp_unit: RawErrorRate::per_year(4.5e-6),
            decode: RawErrorRate::per_year(3.3e-6),
            regfile: RawErrorRate::per_year(1.0e-4),
        }
    }

    /// All four rates scaled by `s` (the paper's technology/altitude axis).
    #[must_use]
    pub fn scaled(&self, s: f64) -> Self {
        UnitRates {
            int_unit: self.int_unit.scale(s),
            fp_unit: self.fp_unit.scale(s),
            decode: self.decode.scale(s),
            regfile: self.regfile.scale(s),
        }
    }

    /// The processor-total raw rate (sum of the four).
    #[must_use]
    pub fn total(&self) -> RawErrorRate {
        self.int_unit + self.fp_unit + self.decode + self.regfile
    }

    /// Rates as `(name, rate)` pairs in the paper's order.
    #[must_use]
    pub fn named(&self) -> [(&'static str, RawErrorRate); 4] {
        [
            ("int", self.int_unit),
            ("fp", self.fp_unit),
            ("decode", self.decode),
            ("regfile", self.regfile),
        ]
    }
}

impl Default for UnitRates {
    fn default() -> Self {
        UnitRates::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_values() {
        let r = UnitRates::paper();
        assert!((r.int_unit.events_per_year() - 2.3e-6).abs() < 1e-18);
        assert!((r.fp_unit.events_per_year() - 4.5e-6).abs() < 1e-18);
        assert!((r.decode.events_per_year() - 3.3e-6).abs() < 1e-18);
        assert!((r.regfile.events_per_year() - 1.0e-4).abs() < 1e-16);
        // The register file dominates the processor total.
        assert!(r.regfile.events_per_year() / r.total().events_per_year() > 0.9);
    }

    #[test]
    fn scaling_axis() {
        let hot = UnitRates::paper().scaled(5000.0);
        assert!((hot.int_unit.events_per_year() - 2.3e-6 * 5000.0).abs() < 1e-12);
        assert!(
            (hot.total().events_per_year() - UnitRates::paper().total().events_per_year() * 5000.0)
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn named_order_is_stable() {
        let names: Vec<_> = UnitRates::paper().named().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["int", "fp", "decode", "regfile"]);
    }
}
