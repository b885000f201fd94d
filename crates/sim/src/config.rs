//! The simulated machine configuration (paper Table 1).

use serr_types::{Frequency, SerrError};

use crate::predictor::BranchPredictorKind;

/// Configuration of the simulated out-of-order core and memory hierarchy.
///
/// [`SimConfig::power4`] reproduces the paper's Table 1 exactly; every field
/// is public so ablations can perturb the machine.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Core clock (Table 1: 2.0 GHz).
    pub frequency: Frequency,
    /// Instructions fetched per cycle (Table 1: 8).
    pub fetch_width: usize,
    /// Instructions dispatched (decoded/renamed) per cycle — one dispatch
    /// group (Table 1: 5 max).
    pub dispatch_width: usize,
    /// Dispatch groups retired per cycle (Table 1: 1).
    pub retire_width: usize,
    /// Reorder buffer entries (Table 1: 150).
    pub rob_size: usize,
    /// Integer functional units (Table 1: 2).
    pub int_units: usize,
    /// Floating-point functional units (Table 1: 2).
    pub fp_units: usize,
    /// Load/store units (Table 1: 2).
    pub ls_units: usize,
    /// Branch units (Table 1: 1).
    pub branch_units: usize,
    /// Integer add/logical latency (Table 1: 1).
    pub int_alu_latency: u64,
    /// Integer multiply latency, pipelined (Table 1: 4).
    pub int_mul_latency: u64,
    /// Integer divide latency, blocking (Table 1: 35).
    pub int_div_latency: u64,
    /// Default FP latency, pipelined (Table 1: 5).
    pub fp_latency: u64,
    /// FP divide latency, pipelined (Table 1: 28).
    pub fp_div_latency: u64,
    /// Branch resolution latency.
    pub branch_latency: u64,
    /// Physical integer registers (Table 1: 80 of the 256-entry file).
    pub int_phys_regs: usize,
    /// Physical FP registers (Table 1: 72 of the 256-entry file).
    pub fp_phys_regs: usize,
    /// Total register-file entries used as the vulnerability denominator
    /// (Table 1: 256 including control registers).
    pub regfile_entries: usize,
    /// Memory queue entries (Table 1: 32).
    pub mem_queue_size: usize,
    /// L1 D-cache: (bytes, associativity). Table 1: 32 KB, 2-way.
    pub l1d: (usize, usize),
    /// L1 I-cache: (bytes, associativity). Table 1: 64 KB, 1-way.
    pub l1i: (usize, usize),
    /// Unified L2: (bytes, associativity). Table 1: 1 MB, 4-way.
    pub l2: (usize, usize),
    /// Cache line size in bytes (Table 1: 128).
    pub line_bytes: usize,
    /// L1 hit latency (Table 1: 1).
    pub l1_latency: u64,
    /// L2 hit latency (Table 1: 10).
    pub l2_latency: u64,
    /// Main memory latency (Table 1: 77).
    pub mem_latency: u64,
    /// iTLB/dTLB entries (Table 1: 128 each).
    pub tlb_entries: usize,
    /// Page size for TLB indexing (4 KB; not in Table 1).
    pub page_bytes: usize,
    /// Added penalty of a TLB miss in cycles (not in Table 1; modeled as a
    /// table walk hitting the L2).
    pub tlb_miss_penalty: u64,
    /// Synthetic hot-code footprint in bytes: the PC walks and jumps within
    /// this region, modeling loop-dominated SPEC control flow (not in
    /// Table 1; documented in DESIGN.md).
    pub code_footprint_bytes: u64,
    /// Front-end branch prediction model (the paper uses statistical trace
    /// annotation; real predictors are available as an ablation).
    pub branch_predictor: BranchPredictorKind,
    /// Miss-status holding registers: outstanding L1D misses the memory
    /// system sustains concurrently (bounds memory-level parallelism).
    pub mshrs: usize,
    /// Next-line prefetch into L1D on a demand miss (ablation knob).
    pub l1d_next_line_prefetch: bool,
}

impl SimConfig {
    /// The paper's base POWER4-like configuration (Table 1).
    #[must_use]
    pub fn power4() -> Self {
        SimConfig {
            frequency: Frequency::base(),
            fetch_width: 8,
            dispatch_width: 5,
            retire_width: 5,
            rob_size: 150,
            int_units: 2,
            fp_units: 2,
            ls_units: 2,
            branch_units: 1,
            int_alu_latency: 1,
            int_mul_latency: 4,
            int_div_latency: 35,
            fp_latency: 5,
            fp_div_latency: 28,
            branch_latency: 1,
            int_phys_regs: 80,
            fp_phys_regs: 72,
            regfile_entries: 256,
            mem_queue_size: 32,
            l1d: (32 * 1024, 2),
            l1i: (64 * 1024, 1),
            l2: (1024 * 1024, 4),
            line_bytes: 128,
            l1_latency: 1,
            l2_latency: 10,
            mem_latency: 77,
            tlb_entries: 128,
            page_bytes: 4096,
            tlb_miss_penalty: 20,
            code_footprint_bytes: 48 * 1024,
            branch_predictor: BranchPredictorKind::TraceAnnotation,
            mshrs: 8,
            l1d_next_line_prefetch: false,
        }
    }

    /// Validates structural invariants.
    ///
    /// # Errors
    ///
    /// Returns [`SerrError::InvalidConfig`] on a zero width/size or a
    /// physical register file smaller than the architectural one.
    pub fn validate(&self) -> Result<(), SerrError> {
        let positive = [
            ("fetch width", self.fetch_width),
            ("dispatch width", self.dispatch_width),
            ("retire width", self.retire_width),
            ("rob size", self.rob_size),
            ("int units", self.int_units),
            ("fp units", self.fp_units),
            ("ls units", self.ls_units),
            ("branch units", self.branch_units),
            ("mem queue", self.mem_queue_size),
            ("tlb entries", self.tlb_entries),
            ("mshrs", self.mshrs),
        ];
        for (what, v) in positive {
            if v == 0 {
                return Err(SerrError::invalid_config(format!("{what} must be positive")));
            }
        }
        let arch = serr_workload::RegId::BANK_SIZE as usize;
        if self.int_phys_regs < arch + 1 || self.fp_phys_regs < arch + 1 {
            return Err(SerrError::invalid_config(
                "physical register banks must exceed the 32 architectural registers",
            ));
        }
        if self.regfile_entries < self.int_phys_regs + self.fp_phys_regs {
            return Err(SerrError::invalid_config(
                "register file entries must cover both physical banks",
            ));
        }
        if !self.line_bytes.is_power_of_two() || !self.page_bytes.is_power_of_two() {
            return Err(SerrError::invalid_config("line and page sizes must be powers of two"));
        }
        for (what, (bytes, ways)) in [("L1D", self.l1d), ("L1I", self.l1i), ("L2", self.l2)] {
            if ways == 0 || bytes == 0 || bytes % (ways * self.line_bytes) != 0 {
                return Err(SerrError::invalid_config(format!(
                    "{what} geometry {bytes}B/{ways}-way incompatible with {}B lines",
                    self.line_bytes
                )));
            }
        }
        Ok(())
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::power4()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power4_matches_table1() {
        let c = SimConfig::power4();
        assert_eq!(c.fetch_width, 8);
        assert_eq!(c.dispatch_width, 5);
        assert_eq!(c.rob_size, 150);
        assert_eq!((c.int_units, c.fp_units, c.ls_units, c.branch_units), (2, 2, 2, 1));
        assert_eq!((c.int_alu_latency, c.int_mul_latency, c.int_div_latency), (1, 4, 35));
        assert_eq!((c.fp_latency, c.fp_div_latency), (5, 28));
        assert_eq!((c.int_phys_regs, c.fp_phys_regs, c.regfile_entries), (80, 72, 256));
        assert_eq!(c.mem_queue_size, 32);
        assert_eq!(c.l1d, (32 * 1024, 2));
        assert_eq!(c.l1i, (64 * 1024, 1));
        assert_eq!(c.l2, (1024 * 1024, 4));
        assert_eq!((c.l1_latency, c.l2_latency, c.mem_latency), (1, 10, 77));
        assert_eq!(c.tlb_entries, 128);
        c.validate().unwrap();
    }

    #[test]
    fn validation_catches_broken_configs() {
        let mut c = SimConfig::power4();
        c.rob_size = 0;
        assert!(c.validate().is_err());

        let mut c = SimConfig::power4();
        c.int_phys_regs = 16;
        assert!(c.validate().is_err());

        let mut c = SimConfig::power4();
        c.l1d = (1000, 3); // not divisible by ways*line
        assert!(c.validate().is_err());

        let mut c = SimConfig::power4();
        c.regfile_entries = 100;
        assert!(c.validate().is_err());
    }
}
