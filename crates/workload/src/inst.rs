//! The instruction model consumed by the timing simulator.

/// An architectural register identifier.
///
/// The simulated ISA has 32 integer and 32 floating-point architectural
/// registers; the renamer in `serr-sim` maps these onto the 256-entry
/// physical file of the paper's Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RegId {
    /// Integer register `Ri`.
    Int(u8),
    /// Floating-point register `Fi`.
    Fp(u8),
}

impl RegId {
    /// Number of architectural registers per bank.
    pub const BANK_SIZE: u8 = 32;

    /// A dense index in `0..64` (integer bank first).
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            RegId::Int(i) => i as usize,
            RegId::Fp(i) => Self::BANK_SIZE as usize + i as usize,
        }
    }

    /// Total number of architectural registers across both banks.
    #[must_use]
    pub const fn universe() -> usize {
        2 * Self::BANK_SIZE as usize
    }
}

/// Operation classes matching the functional units and latencies of the
/// paper's Table 1 (integer add/multiply/divide at 1/4/35 cycles; FP default
/// 5, divide 28; loads/stores through the memory hierarchy; branches).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Integer ALU operation (1 cycle).
    IntAlu,
    /// Integer multiply (4 cycles).
    IntMul,
    /// Integer divide (35 cycles).
    IntDiv,
    /// Floating-point add/multiply-class operation (5 cycles, pipelined).
    FpOp,
    /// Floating-point divide (28 cycles, pipelined per Table 1).
    FpDiv,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Conditional or unconditional branch.
    Branch,
}

impl OpClass {
    /// Whether this op executes on an integer unit.
    #[must_use]
    pub fn is_integer(self) -> bool {
        matches!(self, OpClass::IntAlu | OpClass::IntMul | OpClass::IntDiv)
    }

    /// Whether this op executes on a floating-point unit.
    #[must_use]
    pub fn is_fp(self) -> bool {
        matches!(self, OpClass::FpOp | OpClass::FpDiv)
    }

    /// Whether this op is a load.
    #[must_use]
    pub fn is_load(self) -> bool {
        matches!(self, OpClass::Load)
    }

    /// Whether this op accesses memory.
    #[must_use]
    pub fn is_memory(self) -> bool {
        matches!(self, OpClass::Load | OpClass::Store)
    }

    /// Whether this op is a branch.
    #[must_use]
    pub fn is_branch(self) -> bool {
        matches!(self, OpClass::Branch)
    }
}

/// Control-flow information carried by branch instructions.
///
/// Branches reference a static *site* (the branch's address identity) so
/// that history-based predictors in the simulator see realistic per-site
/// direction bias, carry the *actual* direction taken (traces are execution
/// traces), and an annotation-mode misprediction hint drawn at the
/// profile's rate for simulators that skip predictor modeling (the paper's
/// approach).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchInfo {
    /// Static branch site identifier (stable across dynamic instances).
    pub site: u32,
    /// Whether the branch is taken on this execution.
    pub taken: bool,
    /// Statistical misprediction annotation (used when the simulator is
    /// configured with `BranchPredictorKind::TraceAnnotation`).
    pub mispredict_hint: bool,
}

/// One instruction of a workload trace.
///
/// Traces are *execution* traces (the path actually taken), as consumed by
/// trace-driven simulators like Turandot: branch outcomes are part of the
/// trace and misprediction is either annotated statistically or decided by
/// a modeled predictor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Instruction {
    /// Operation class.
    pub op: OpClass,
    /// Up to two source registers.
    pub srcs: [Option<RegId>; 2],
    /// Destination register, if the op writes one.
    pub dst: Option<RegId>,
    /// Effective address for loads/stores.
    pub mem_addr: Option<u64>,
    /// Control-flow information; present iff `op` is a branch.
    pub branch: Option<BranchInfo>,
}

impl Instruction {
    /// A register-to-register ALU instruction.
    #[must_use]
    pub fn alu(op: OpClass, dst: RegId, srcs: [Option<RegId>; 2]) -> Self {
        debug_assert!(!op.is_memory() && !op.is_branch());
        Instruction { op, srcs, dst: Some(dst), mem_addr: None, branch: None }
    }

    /// A load from `addr` into `dst`.
    #[must_use]
    pub fn load(dst: RegId, addr_reg: Option<RegId>, addr: u64) -> Self {
        Instruction {
            op: OpClass::Load,
            srcs: [addr_reg, None],
            dst: Some(dst),
            mem_addr: Some(addr),
            branch: None,
        }
    }

    /// A store of `src` to `addr`.
    #[must_use]
    pub fn store(src: RegId, addr_reg: Option<RegId>, addr: u64) -> Self {
        Instruction {
            op: OpClass::Store,
            srcs: [Some(src), addr_reg],
            dst: None,
            mem_addr: Some(addr),
            branch: None,
        }
    }

    /// A branch at `site`, with its executed direction and an
    /// annotation-mode misprediction hint.
    #[must_use]
    pub fn branch(cond: Option<RegId>, info: BranchInfo) -> Self {
        Instruction {
            op: OpClass::Branch,
            srcs: [cond, None],
            dst: None,
            mem_addr: None,
            branch: Some(info),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reg_indices_are_dense_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..RegId::BANK_SIZE {
            assert!(seen.insert(RegId::Int(i).index()));
            assert!(seen.insert(RegId::Fp(i).index()));
        }
        assert_eq!(seen.len(), RegId::universe());
        assert!(seen.iter().all(|&i| i < RegId::universe()));
    }

    #[test]
    fn op_class_predicates_partition() {
        use OpClass::*;
        for op in [IntAlu, IntMul, IntDiv, FpOp, FpDiv, Load, Store, Branch] {
            let cats = [op.is_integer(), op.is_fp(), op.is_memory(), op.is_branch()];
            assert_eq!(cats.iter().filter(|&&b| b).count(), 1, "{op:?}");
        }
    }

    #[test]
    fn constructors_set_fields() {
        let l = Instruction::load(RegId::Int(3), Some(RegId::Int(1)), 0x1000);
        assert!(l.op.is_load());
        assert_eq!(l.mem_addr, Some(0x1000));
        assert_eq!(l.dst, Some(RegId::Int(3)));

        let s = Instruction::store(RegId::Fp(2), None, 64);
        assert_eq!(s.dst, None);
        assert_eq!(s.srcs[0], Some(RegId::Fp(2)));

        let b = Instruction::branch(
            Some(RegId::Int(0)),
            BranchInfo { site: 9, taken: true, mispredict_hint: true },
        );
        let info = b.branch.expect("branch info present");
        assert!(info.mispredict_hint && info.taken);
        assert_eq!(info.site, 9);
        assert!(b.op.is_branch());

        let a = Instruction::alu(OpClass::IntMul, RegId::Int(5), [Some(RegId::Int(1)), None]);
        assert_eq!(a.dst, Some(RegId::Int(5)));
        assert!(a.op.is_integer());
    }
}
