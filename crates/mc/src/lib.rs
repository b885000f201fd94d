//! First-principles Monte Carlo MTTF estimation (paper Section 4.3).
//!
//! > "For each component in the modeled system, we generate a value from an
//! > exponential distribution with rate specified by the modeled system.
//! > [...] We use the masking trace of the workload to determine whether a
//! > raw error at that time would be masked. If it is masked, we generate a
//! > new raw error event [...] If it is not masked, we consider the
//! > component failed."
//!
//! This crate implements that procedure with three engineering refinements
//! that keep it exact across the paper's entire design space:
//!
//! 1. **Exact phase sampling.** Raw-error arrival times reach 10⁶+ years
//!    while masking is resolved at 0.5 ns cycles; reducing such times modulo
//!    the loop length in `f64` would quantize the phase to multiples of
//!    thousands of cycles. Instead each inter-arrival is decomposed into
//!    (whole periods `K`, phase advance `R`): `K` is geometric and `R`
//!    follows the exact truncated-exponential phase distribution of the
//!    paper's Appendix A — both sampled at magnitudes `≤ L` with full
//!    precision (see [`sampler`]).
//! 2. **O(1) trials by batched inversion.** The walk over raw-error events
//!    costs ~1/AVF events per trial — worst exactly where the paper's
//!    sweeps spend their time (low AVF, low λL). The default
//!    [`SamplerKind::BatchedInversion`] sampler instead draws one `Exp(1)`
//!    variate per trial and inverts the cumulative-vulnerability function
//!    through the compiled trace's prefix table: constant cost per trial,
//!    identical distribution (see [`batched`] for the thinning proof). It
//!    runs as straight-line structure-of-arrays passes over whole trial
//!    chunks — counter RNG up front, vectorized logs, a batched
//!    prefix-table probe, and a fused statistics fold. The event loop
//!    ([`SamplerKind::EventLoop`]) stays as the independent oracle: it never
//!    reads the prefix sums.
//! 3. **Superposition for clusters.** For a system of components running
//!    phase-aligned workloads, the union of per-component raw-error
//!    processes is itself Poisson with the summed rate, and each arrival is
//!    attributed to a component with rate-proportional probability. A
//!    500,000-processor cluster therefore costs the same per trial as a
//!    single component (see [`system::SystemModel`]).
//!
//! # Example
//!
//! ```
//! use serr_mc::{MonteCarlo, MonteCarloConfig};
//! use serr_trace::IntervalTrace;
//! use serr_types::{Frequency, RawErrorRate};
//!
//! // Fully vulnerable component: MTTF must equal 1/λ.
//! let trace = IntervalTrace::constant(1_000, 1.0).unwrap();
//! let mc = MonteCarlo::new(MonteCarloConfig { trials: 20_000, ..Default::default() });
//! let est = mc.component_mttf(&trace, RawErrorRate::per_year(2.0), Frequency::base()).unwrap();
//! let err = (est.mttf.as_years() - 0.5).abs() / 0.5;
//! assert!(err < 0.05, "relative error {err}");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod batched;
mod config;
mod engine;
pub mod naive;
pub mod sampler;
pub mod sweep;
pub mod system;

pub use config::{MonteCarloConfig, SamplerKind, StartPhase};
pub use engine::{compile_for_sampling, MonteCarlo, MttfEstimate};
