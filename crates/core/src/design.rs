//! The Table 2 design space.
//!
//! Three axes beyond the workload: `N` (elements per component), `S`
//! (scaling of the baseline per-element raw error rate — technology,
//! altitude, accelerated test), and `C` (components in the system). The
//! component raw error rate is `N × S × baseline`; only the product `N×S`
//! matters for a single component, which is how the paper reports Figure 5.

use serr_types::{RawErrorRate, SerrError};

/// Table 2: number of elements (e.g. bits) in a component.
pub const N_VALUES: [f64; 5] = [1e5, 1e6, 1e7, 1e8, 1e9];
/// Table 2: scaling factors for the baseline per-element rate.
pub const S_VALUES: [f64; 5] = [1.0, 5.0, 100.0, 2000.0, 5000.0];
/// Table 2: number of components in the system.
pub const C_VALUES: [u64; 5] = [2, 8, 5000, 50_000, 500_000];

/// The workloads of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// A SPEC CPU2000 floating-point benchmark (synthetic profile).
    SpecFp,
    /// A SPEC CPU2000 integer benchmark (synthetic profile).
    SpecInt,
    /// The `day` loop: 24 h period, busy 12 h.
    Day,
    /// The `week` loop: 7-day period, busy 5 business days.
    Week,
    /// The `combined` loop: two benchmarks alternating over 24 h.
    Combined,
}

impl Workload {
    /// All five workload classes in Table 2 order.
    #[must_use]
    pub fn all() -> [Workload; 5] {
        [Workload::SpecFp, Workload::SpecInt, Workload::Day, Workload::Week, Workload::Combined]
    }

    /// The synthesized (long-horizon) workloads.
    #[must_use]
    pub fn synthesized() -> [Workload; 3] {
        [Workload::Day, Workload::Week, Workload::Combined]
    }

    /// Short label used in reports ("SPEC fp", "day", ...).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Workload::SpecFp => "SPEC fp",
            Workload::SpecInt => "SPEC int",
            Workload::Day => "day",
            Workload::Week => "week",
            Workload::Combined => "combined",
        }
    }
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One point of the design space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignPoint {
    /// Elements per component.
    pub n: f64,
    /// Rate scaling factor.
    pub s: f64,
    /// Components in the system.
    pub c: u64,
    /// Workload class.
    pub workload: Workload,
}

impl DesignPoint {
    /// The component raw error rate `N × S × baseline`.
    #[must_use]
    pub fn component_rate(&self) -> RawErrorRate {
        RawErrorRate::baseline_per_bit().scale(self.n).scale(self.s)
    }

    /// The product `N × S` (the axis of Figures 5 and 6).
    #[must_use]
    pub fn n_times_s(&self) -> f64 {
        self.n * self.s
    }

    /// Validates ranges.
    ///
    /// # Errors
    ///
    /// Returns [`SerrError::InvalidConfig`] for non-positive `n`/`s`/`c`.
    pub fn validate(&self) -> Result<(), SerrError> {
        if !(self.n > 0.0 && self.n.is_finite()) {
            return Err(SerrError::invalid_config("N must be positive"));
        }
        if !(self.s > 0.0 && self.s.is_finite()) {
            return Err(SerrError::invalid_config("S must be positive"));
        }
        if self.c == 0 {
            return Err(SerrError::invalid_config("C must be positive"));
        }
        Ok(())
    }
}

/// The full Table 2 grid, as an iterator of [`DesignPoint`]s.
#[derive(Debug, Clone, Default)]
pub struct DesignSpace {
    /// Restrict to these workloads (empty = all of Table 2).
    pub workloads: Vec<Workload>,
    /// Restrict to these C values (empty = all of Table 2).
    pub c_values: Vec<u64>,
    /// Restrict to these N×S products (empty = full N × S cross product).
    pub n_times_s: Vec<f64>,
}

impl DesignSpace {
    /// The complete Table 2 space.
    #[must_use]
    pub fn full() -> Self {
        DesignSpace::default()
    }

    /// Iterates all points, in workload-major order.
    pub fn points(&self) -> impl Iterator<Item = DesignPoint> + '_ {
        let workloads: Vec<Workload> = if self.workloads.is_empty() {
            Workload::all().to_vec()
        } else {
            self.workloads.clone()
        };
        let cs: Vec<u64> =
            if self.c_values.is_empty() { C_VALUES.to_vec() } else { self.c_values.clone() };
        let ns: Vec<f64> = if self.n_times_s.is_empty() {
            let mut v: Vec<f64> =
                N_VALUES.iter().flat_map(|&n| S_VALUES.iter().map(move |&s| n * s)).collect();
            v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            v.dedup();
            v
        } else {
            self.n_times_s.clone()
        };
        workloads.into_iter().flat_map(move |w| {
            let cs = cs.clone();
            let ns = ns.clone();
            cs.into_iter().flat_map(move |c| {
                let ns = ns.clone();
                ns.into_iter().map(move |prod| DesignPoint { n: prod, s: 1.0, c, workload: w })
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_values() {
        assert_eq!(N_VALUES.len(), 5);
        assert_eq!(S_VALUES.len(), 5);
        assert_eq!(C_VALUES, [2, 8, 5000, 50_000, 500_000]);
        assert_eq!(Workload::all().len(), 5);
    }

    #[test]
    fn component_rate_is_n_s_baseline() {
        let p = DesignPoint { n: 1e8, s: 5.0, c: 1, workload: Workload::Day };
        // 1e8 × 5 × 1e-8/yr = 5 errors/year.
        assert!((p.component_rate().events_per_year() - 5.0).abs() < 1e-9);
        assert_eq!(p.n_times_s(), 5e8);
        p.validate().unwrap();
    }

    #[test]
    fn full_space_size() {
        // 5 workloads × 5 C × distinct N×S products.
        let distinct_products = {
            let mut v: Vec<f64> =
                N_VALUES.iter().flat_map(|&n| S_VALUES.iter().map(move |&s| n * s)).collect();
            v.sort_by(f64::total_cmp);
            v.dedup();
            v.len()
        };
        let count = DesignSpace::full().points().count();
        assert_eq!(count, 5 * 5 * distinct_products);
        for p in DesignSpace::full().points() {
            p.validate().unwrap();
        }
    }

    #[test]
    fn restricted_space() {
        let space = DesignSpace {
            workloads: vec![Workload::Day],
            c_values: vec![1],
            n_times_s: vec![1e8, 1e9],
        };
        let pts: Vec<_> = space.points().collect();
        assert_eq!(pts.len(), 2);
        assert!(pts.iter().all(|p| p.workload == Workload::Day && p.c == 1));
    }

    #[test]
    fn validation_rejects_bad_points() {
        let bad = DesignPoint { n: 0.0, s: 1.0, c: 1, workload: Workload::Day };
        assert!(bad.validate().is_err());
        let bad = DesignPoint { n: 1.0, s: -1.0, c: 1, workload: Workload::Day };
        assert!(bad.validate().is_err());
        let bad = DesignPoint { n: 1.0, s: 1.0, c: 0, workload: Workload::Day };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn labels_are_paper_names() {
        let labels: Vec<_> = Workload::all().iter().map(|w| w.label()).collect();
        assert_eq!(labels, ["SPEC fp", "SPEC int", "day", "week", "combined"]);
    }
}
