//! Masking (vulnerability) traces for architecture-level soft error analysis.
//!
//! A *masking trace* records, for each cycle of a workload's repeating
//! iteration, the probability that a raw soft error striking the component in
//! that cycle is **not** masked (paper Section 4: "a masking trace that
//! indicates, for each system component, whether a raw error in a given cycle
//! would be masked"). We generalize the paper's boolean notion to a
//! *vulnerability* in `[0, 1]` per cycle so that:
//!
//! * busy/idle functional units are the special case `{0, 1}`;
//! * the register file's model (errors strike 256 entries uniformly, only
//!   live entries fail) is `live(t)/256`;
//! * a multi-unit processor is a rate-weighted composition of unit traces.
//!
//! The representations behind the [`VulnerabilityTrace`] trait:
//!
//! * [`IntervalTrace`] — the one span table: run-length records with
//!   prefix sums and `O(log n)` queries, shared by its clones.
//! * [`DenseTrace`] — one value per cycle.
//! * [`CompositeTrace`] — rate-weighted combination of unit traces into a
//!   processor-level trace, its merged spans memoized as a span table.
//! * [`ConcatTrace`], [`ScaledTrace`], [`ShiftedTrace`] — tiled, derated
//!   and phase-shifted views of other traces.
//! * [`CompiledTrace`] — a span table plus `O(1)` bucket indexes (or a
//!   tile level over such tables); what the Monte Carlo hot loop runs
//!   against.
//!
//! All traces are periodic: the paper assumes "the workload runs in an
//! infinite loop with similar iterations of length L" (Section 3,
//! assumption 2).
//!
//! # Example
//!
//! ```
//! use serr_trace::{IntervalTrace, VulnerabilityTrace};
//!
//! // A component busy for the first 3 cycles of every 8-cycle iteration.
//! let t = IntervalTrace::busy_idle(3, 5).unwrap();
//! assert_eq!(t.period_cycles(), 8);
//! assert_eq!(t.vulnerability_at(1), 1.0);
//! assert_eq!(t.vulnerability_at(5), 0.0);
//! assert_eq!(t.avf(), 3.0 / 8.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod codes;
mod compiled;
mod compose;
mod concat;
mod dense;
mod encode;
mod interval;
mod scale;
mod shift;
mod traits;
mod transform;

pub use codes::{fold_rates, RateFold};
pub use compiled::{CompiledTrace, InverseScratch};
pub use compose::CompositeTrace;
pub use concat::ConcatTrace;
pub use dense::DenseTrace;
pub use encode::{decode_interval_trace, encode_interval_trace};
pub use interval::{IntervalTrace, IntervalTraceBuilder, Segment};
pub use scale::ScaledTrace;
pub use shift::ShiftedTrace;
pub use traits::VulnerabilityTrace;
pub use transform::{Transform, TransformPipeline, RAMP_STEPS};

#[cfg(test)]
mod proptests;
