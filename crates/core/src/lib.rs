//! The AVF+SOFR methodology and its validation — the subject of
//! *"Architecture-Level Soft Error Analysis: Examining the Limits of Common
//! Assumptions"* (DSN 2007).
//!
//! The widely used two-step method for projecting soft-error MTTF:
//!
//! 1. **AVF step** ([`avf`]): each component's failure rate is its raw
//!    error rate derated by its architecture vulnerability factor;
//!    `MTTF_c = 1/(λ_c · AVF_c)` (paper Equation 1).
//! 2. **SOFR step** ([`sofr`]): the system failure rate is the sum of
//!    component failure rates, and the system MTTF its reciprocal (paper
//!    Equations 2–3).
//!
//! Both steps rest on assumptions — uniform vulnerability across the
//! program for AVF, exponential per-component time-to-failure for SOFR —
//! that architectural masking can violate. The [`validate`] module
//! quantifies the resulting MTTF error against three assumption-free
//! estimators (Monte Carlo, renewal analysis, SoftArch), over the Table 2
//! design space in [`design`], with the SPEC-like simulation pipeline in
//! [`pipeline`] and the paper's experiment generators in [`experiments`].
//!
//! # Quickstart
//!
//! ```
//! use serr_core::prelude::*;
//!
//! // A component busy 30% of the time, raw rate 10 errors/year.
//! let trace = IntervalTrace::busy_idle(3_000, 7_000).unwrap();
//! let rate = RawErrorRate::per_year(10.0);
//!
//! // The AVF step...
//! let avf_mttf = serr_core::avf::avf_step_mttf(&trace, rate).unwrap();
//! // ...against ground truth (exact here because λL is tiny):
//! let truth = serr_analytic::renewal::renewal_mttf(&trace, rate, Frequency::base()).unwrap();
//! let err = (avf_mttf.as_secs() - truth.as_secs()).abs() / truth.as_secs();
//! assert!(err < 1e-9);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod avf;
pub mod binjson;
pub mod chaos;
pub mod checkpoint;
pub mod design;
pub mod experiments;
pub mod guard;
pub mod jsonio;
pub mod par;
pub mod pipeline;
pub mod protect;
pub mod rates;
pub mod retry;
pub mod sofr;
pub mod validate;
pub mod workspec;

/// Convenient re-exports for downstream code and examples.
pub mod prelude {
    pub use serr_analytic as analytic;
    pub use serr_mc::system::SystemModel;
    pub use serr_mc::{MonteCarlo, MonteCarloConfig, MttfEstimate, SamplerKind, StartPhase};
    pub use serr_sim::{SimConfig, SimOutput, Simulator};
    pub use serr_softarch::SoftArch;
    pub use serr_trace::{
        CompositeTrace, ConcatTrace, IntervalTrace, ShiftedTrace, VulnerabilityTrace,
    };
    pub use serr_types::{FailureRate, FitRate, Frequency, Mttf, RawErrorRate, Seconds, SerrError};
    pub use serr_workload::{BenchmarkProfile, Suite, TraceGenerator};

    pub use serr_inject::{FaultKind, FaultPlan};
    pub use serr_types::Provenance;

    pub use crate::chaos::{run_chaos, CampaignOutcome, ChaosConfig, ChaosReport};
    pub use crate::checkpoint::{CheckpointMode, SweepOptions, SweepReport};
    pub use crate::design::{DesignPoint, DesignSpace, Workload};
    pub use crate::guard::{classify_estimate, Guard, GuardPolicy, GuardedMttf};
    pub use crate::protect::ProtectionSpec;
    pub use crate::rates::UnitRates;
    pub use crate::retry::{retry_with_backoff, BackoffPolicy};
    pub use crate::validate::{ComponentValidation, SystemValidation, Validator};
    pub use crate::workspec::WorkloadSpec;
}
