//! Synthetic benchmark profiles imitating the SPEC CPU2000 programs the
//! paper evaluates (9 integer + 12 floating-point, Section 4.1).

use serr_types::SerrError;

/// Which SPEC suite a profile imitates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// SPEC CPU2000 integer.
    Int,
    /// SPEC CPU2000 floating point.
    Fp,
}

/// Fractions of each operation class in the dynamic instruction stream.
/// Must sum to 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstructionMix {
    /// Integer ALU ops.
    pub int_alu: f64,
    /// Integer multiplies.
    pub int_mul: f64,
    /// Integer divides.
    pub int_div: f64,
    /// FP add/mul-class ops.
    pub fp_op: f64,
    /// FP divides.
    pub fp_div: f64,
    /// Loads.
    pub load: f64,
    /// Stores.
    pub store: f64,
    /// Branches.
    pub branch: f64,
}

impl InstructionMix {
    /// Validates that the fractions are non-negative and sum to 1 (±1e-9).
    ///
    /// # Errors
    ///
    /// Returns [`SerrError::InvalidConfig`] otherwise.
    pub fn validate(&self) -> Result<(), SerrError> {
        let parts = [
            self.int_alu,
            self.int_mul,
            self.int_div,
            self.fp_op,
            self.fp_div,
            self.load,
            self.store,
            self.branch,
        ];
        if parts.iter().any(|&p| p < 0.0) {
            return Err(SerrError::invalid_config("instruction mix fractions must be >= 0"));
        }
        let total: f64 = parts.iter().sum();
        if (total - 1.0).abs() > 1e-9 {
            return Err(SerrError::invalid_config(format!(
                "instruction mix sums to {total}, expected 1"
            )));
        }
        Ok(())
    }

    /// The fractions as an array in [`crate::OpClass`] declaration order.
    #[must_use]
    pub fn as_array(&self) -> [f64; 8] {
        [
            self.int_alu,
            self.int_mul,
            self.int_div,
            self.fp_op,
            self.fp_div,
            self.load,
            self.store,
            self.branch,
        ]
    }
}

/// Coarse program-phase behavior: real SPEC programs alternate between
/// compute-dense and memory-bound stages at 10⁶–10⁸ instruction
/// granularity (the observation behind SimPoint-style sampling). During a
/// memory phase the generator abandons spatial locality and shortens
/// dependency distances, collapsing IPC and with it unit utilization — the
/// coarse masking-trace structure that makes long-horizon AVF/SOFR
/// questions interesting for SPEC-class workloads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseBehavior {
    /// Instructions per full compute+memory phase cycle.
    pub period_instructions: u64,
    /// Fraction of the cycle spent in the memory-bound phase.
    pub memory_fraction: f64,
}

impl PhaseBehavior {
    /// Validates ranges.
    ///
    /// # Errors
    ///
    /// Returns [`SerrError::InvalidConfig`] for a zero period or a fraction
    /// outside `(0, 1)`.
    pub fn validate(&self) -> Result<(), SerrError> {
        if self.period_instructions == 0 {
            return Err(SerrError::invalid_config("phase period must be positive"));
        }
        if !(self.memory_fraction > 0.0 && self.memory_fraction < 1.0) {
            return Err(SerrError::invalid_config("memory fraction must be in (0,1)"));
        }
        Ok(())
    }
}

/// A synthetic stand-in for one SPEC CPU2000 program.
///
/// The parameters shape the masking traces the timing simulator produces:
/// the mix drives unit utilization (integer/FP/decode busy cycles), the
/// dependency distance throttles ILP, misprediction and memory-locality
/// parameters create stalls that idle the units.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkProfile {
    /// The SPEC program this profile imitates (e.g. `"gzip"`).
    pub name: &'static str,
    /// Which suite the program belongs to.
    pub suite: Suite,
    /// Dynamic instruction mix.
    pub mix: InstructionMix,
    /// Mean register dependency distance in instructions (geometric).
    pub mean_dep_distance: f64,
    /// Fraction of branches the front end mispredicts.
    pub branch_mispredict_rate: f64,
    /// Bytes of the synthetic working set (drives cache miss rates).
    pub working_set_bytes: u64,
    /// Probability that a memory access continues sequentially from the
    /// previous one (vs. jumping randomly within the working set).
    pub spatial_locality: f64,
    /// Coarse program-phase behavior, if the program exhibits it.
    pub phases: Option<PhaseBehavior>,
}

impl BenchmarkProfile {
    /// Validates all parameters.
    ///
    /// # Errors
    ///
    /// Returns [`SerrError::InvalidConfig`] on any out-of-range parameter.
    pub fn validate(&self) -> Result<(), SerrError> {
        self.mix.validate()?;
        if self.mean_dep_distance < 1.0 {
            return Err(SerrError::invalid_config("mean dependency distance must be >= 1"));
        }
        if !(0.0..=1.0).contains(&self.branch_mispredict_rate) {
            return Err(SerrError::invalid_config("mispredict rate must be in [0,1]"));
        }
        if !(0.0..=1.0).contains(&self.spatial_locality) {
            return Err(SerrError::invalid_config("spatial locality must be in [0,1]"));
        }
        if self.working_set_bytes < 64 {
            return Err(SerrError::invalid_config("working set must be at least one line"));
        }
        if let Some(p) = &self.phases {
            p.validate()?;
        }
        Ok(())
    }

    /// The nine SPECint profiles the paper uses.
    #[must_use]
    pub fn spec_int() -> Vec<BenchmarkProfile> {
        fn p(
            name: &'static str,
            mix: InstructionMix,
            dep: f64,
            br_miss: f64,
            ws_kb: u64,
            locality: f64,
        ) -> BenchmarkProfile {
            BenchmarkProfile {
                name,
                suite: Suite::Int,
                mix,
                mean_dep_distance: dep,
                branch_mispredict_rate: br_miss,
                working_set_bytes: ws_kb * 1024,
                spatial_locality: locality,
                phases: None,
            }
        }
        let m = |int_alu, int_mul, int_div, load, store, branch| InstructionMix {
            int_alu,
            int_mul,
            int_div,
            fp_op: 0.0,
            fp_div: 0.0,
            load,
            store,
            branch,
        };
        let mut v = vec![
            // Compression: tight loops, good locality, moderate branches.
            p("gzip", m(0.45, 0.01, 0.00, 0.24, 0.12, 0.18), 4.0, 0.06, 192, 0.85),
            // FPGA place & route: pointer-heavy, moderate working set.
            p("vpr", m(0.42, 0.02, 0.01, 0.28, 0.11, 0.16), 5.0, 0.09, 1024, 0.55),
            // Compiler: branchy, irregular.
            p("gcc", m(0.40, 0.01, 0.00, 0.26, 0.14, 0.19), 5.5, 0.08, 2048, 0.50),
            // Min-cost flow: notoriously memory-bound pointer chasing.
            p("mcf", m(0.35, 0.00, 0.00, 0.35, 0.09, 0.21), 3.0, 0.10, 65536, 0.15),
            // Chess: compute-dense, predictable branches.
            p("crafty", m(0.50, 0.02, 0.00, 0.24, 0.09, 0.15), 4.5, 0.07, 512, 0.70),
            // Natural-language parser: branchy with pointer structures.
            p("parser", m(0.41, 0.01, 0.00, 0.27, 0.12, 0.19), 4.5, 0.09, 8192, 0.45),
            // Perl interpreter: dispatch-heavy indirect branches.
            p("perlbmk", m(0.43, 0.01, 0.00, 0.26, 0.13, 0.17), 5.0, 0.11, 4096, 0.55),
            // Group theory: integer multiply heavy.
            p("gap", m(0.44, 0.05, 0.01, 0.25, 0.10, 0.15), 5.0, 0.06, 8192, 0.60),
            // Compression (Burrows-Wheeler): sequential scans.
            p("bzip2", m(0.46, 0.01, 0.00, 0.26, 0.11, 0.16), 4.0, 0.07, 4096, 0.80),
        ];
        // Programs with pronounced phase behavior (per SimPoint-era
        // characterization studies).
        for prog in &mut v {
            let phases = match prog.name {
                "gcc" => {
                    Some(PhaseBehavior { period_instructions: 2_000_000, memory_fraction: 0.35 })
                }
                "mcf" => {
                    Some(PhaseBehavior { period_instructions: 3_000_000, memory_fraction: 0.60 })
                }
                "bzip2" => {
                    Some(PhaseBehavior { period_instructions: 1_500_000, memory_fraction: 0.30 })
                }
                _ => None,
            };
            prog.phases = phases;
        }
        v
    }

    /// The twelve SPECfp profiles the paper uses.
    #[must_use]
    pub fn spec_fp() -> Vec<BenchmarkProfile> {
        fn p(
            name: &'static str,
            mix: InstructionMix,
            dep: f64,
            br_miss: f64,
            ws_kb: u64,
            locality: f64,
        ) -> BenchmarkProfile {
            BenchmarkProfile {
                name,
                suite: Suite::Fp,
                mix,
                mean_dep_distance: dep,
                branch_mispredict_rate: br_miss,
                working_set_bytes: ws_kb * 1024,
                spatial_locality: locality,
                phases: None,
            }
        }
        let m = |int_alu, fp_op, fp_div, load, store, branch| InstructionMix {
            int_alu,
            int_mul: 0.01,
            int_div: 0.0,
            fp_op,
            fp_div,
            load,
            store,
            branch,
        };
        let mut v = vec![
            // Quantum chromodynamics: dense FP kernels.
            p("wupwise", m(0.17, 0.38, 0.01, 0.29, 0.10, 0.04), 7.0, 0.02, 16384, 0.90),
            // Shallow water: long vectorizable loops, streaming.
            p("swim", m(0.14, 0.40, 0.00, 0.31, 0.11, 0.03), 8.0, 0.01, 32768, 0.95),
            // Multigrid solver: streaming with strided reuse.
            p("mgrid", m(0.15, 0.42, 0.00, 0.30, 0.09, 0.03), 8.0, 0.01, 24576, 0.92),
            // Parabolic PDEs: dense linear algebra.
            p("applu", m(0.16, 0.39, 0.02, 0.29, 0.10, 0.03), 7.5, 0.02, 24576, 0.90),
            // OpenGL rendering: mixed int/FP with more branches.
            p("mesa", m(0.30, 0.24, 0.01, 0.27, 0.11, 0.06), 5.5, 0.04, 2048, 0.75),
            // Neural-net image recognition: small kernel, tiny working set.
            p("art", m(0.20, 0.34, 0.00, 0.33, 0.08, 0.04), 5.0, 0.02, 4096, 0.60),
            // Earthquake simulation: sparse matrix-vector, poor locality.
            p("equake", m(0.22, 0.30, 0.01, 0.33, 0.09, 0.04), 6.0, 0.03, 32768, 0.40),
            // Face recognition: FFT-style kernels.
            p("facerec", m(0.19, 0.36, 0.01, 0.29, 0.10, 0.04), 6.5, 0.03, 8192, 0.80),
            // Computational chemistry: divide-heavy FP.
            p("ammp", m(0.21, 0.31, 0.04, 0.30, 0.09, 0.04), 6.0, 0.03, 16384, 0.65),
            // Number theory (Lucas-Lehmer): FFT multiply, streaming.
            p("lucas", m(0.16, 0.41, 0.00, 0.29, 0.10, 0.03), 8.0, 0.01, 16384, 0.93),
            // Crash simulation: irregular FP with branches.
            p("fma3d", m(0.24, 0.29, 0.01, 0.29, 0.11, 0.05), 6.0, 0.04, 16384, 0.70),
            // Particle accelerator: loop-nest FP.
            p("sixtrack", m(0.20, 0.37, 0.02, 0.27, 0.09, 0.04), 7.0, 0.02, 8192, 0.85),
        ];
        for prog in &mut v {
            let phases = match prog.name {
                "art" => {
                    Some(PhaseBehavior { period_instructions: 2_000_000, memory_fraction: 0.45 })
                }
                "equake" => {
                    Some(PhaseBehavior { period_instructions: 3_000_000, memory_fraction: 0.50 })
                }
                _ => None,
            };
            prog.phases = phases;
        }
        v
    }

    /// All 21 profiles, integer suite first.
    #[must_use]
    pub fn all() -> Vec<BenchmarkProfile> {
        let mut v = Self::spec_int();
        v.extend(Self::spec_fp());
        v
    }

    /// Looks a profile up by SPEC program name.
    ///
    /// # Errors
    ///
    /// Returns [`SerrError::UnknownWorkload`] if no profile has that name.
    pub fn by_name(name: &str) -> Result<BenchmarkProfile, SerrError> {
        Self::all()
            .into_iter()
            .find(|p| p.name == name)
            .ok_or_else(|| SerrError::UnknownWorkload { name: name.to_owned() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_counts_nine_int_twelve_fp() {
        assert_eq!(BenchmarkProfile::spec_int().len(), 9);
        assert_eq!(BenchmarkProfile::spec_fp().len(), 12);
        assert_eq!(BenchmarkProfile::all().len(), 21);
    }

    #[test]
    fn every_profile_validates() {
        for p in BenchmarkProfile::all() {
            p.validate().unwrap_or_else(|e| panic!("{}: {e}", p.name));
        }
    }

    #[test]
    fn names_are_unique() {
        let names: std::collections::HashSet<_> =
            BenchmarkProfile::all().iter().map(|p| p.name).collect();
        assert_eq!(names.len(), 21);
    }

    #[test]
    fn lookup_by_name() {
        let p = BenchmarkProfile::by_name("swim").unwrap();
        assert_eq!(p.suite, Suite::Fp);
        assert!(BenchmarkProfile::by_name("doom").is_err());
    }

    #[test]
    fn suites_have_characteristic_mixes() {
        for p in BenchmarkProfile::spec_int() {
            assert_eq!(p.mix.fp_op + p.mix.fp_div, 0.0, "{} should not use FP", p.name);
            assert!(p.mix.branch >= 0.10, "{} int code is branchy", p.name);
        }
        for p in BenchmarkProfile::spec_fp() {
            assert!(p.mix.fp_op > 0.2, "{} should be FP-heavy", p.name);
            assert!(p.mix.branch <= 0.10, "{} fp code has few branches", p.name);
        }
    }

    #[test]
    fn mix_validation_catches_errors() {
        let mut mix = BenchmarkProfile::by_name("gzip").unwrap().mix;
        mix.load += 0.5;
        assert!(mix.validate().is_err());
        mix.load -= 1.0;
        assert!(mix.validate().is_err());
    }
}
