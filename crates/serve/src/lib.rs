//! `serr serve` — a supervised estimation service over the workspace's
//! validated estimators.
//!
//! The batch CLI answers one question per process; this crate keeps the
//! estimators resident behind a unix or TCP socket speaking JSON Lines,
//! and spends its complexity budget on *robustness*:
//!
//! - **A supervised worker pool** ([`supervisor`]): panic-isolated
//!   workers each fetch a request's trace from the shared cache and
//!   estimate; a crash kills one request's worker, the supervisor restarts
//!   the slot under bounded exponential backoff, and the service keeps
//!   serving.
//! - **A bounded queue** ([`queue`]): admitted work waits in one bounded
//!   ingress channel, so overload becomes backpressure and, past policy, a
//!   typed `shed` response ([`server`]) — never unbounded memory growth.
//! - **Graceful degradation**: a request deadline maps onto the Monte
//!   Carlo engine's wall-clock budget; under pressure the service returns
//!   a truncated estimate with an honestly wider confidence interval,
//!   tagged `degraded` through the provenance lattice, instead of lying;
//!   a row whose exact references do not vouch for its Monte Carlo
//!   estimate is tagged by the same `Validator` verdict as the CLI's.
//! - **Drain, don't drop** ([`server`]): shutdown journals every request
//!   that had been admitted but not completed; a restarted server replays
//!   them, and re-requests are answered from the results journal
//!   bit-identically (`resumed: true`).
//! - **Shared computation path**: the service calls the same
//!   [`serr_core::workspec::WorkloadSpec`] grammar,
//!   [`serr_core::experiments::ExperimentConfig::cli`] configuration, and
//!   `Validator` pipeline as `serr mttf` / `serr sofr`, so service
//!   estimates are bit-identical to the batch CLI at any `SERR_THREADS`.
//!
//! The `#[cfg(test)]` chaos soak drives hundreds of requests through all
//! four `serve-*` fault kinds from `serr-inject` (worker panic, worker
//! stall, frame corruption, socket drop) and asserts the service's core
//! invariant: **zero lost requests** — every request reaches exactly one
//! typed terminal state (`result` | `degraded` | `shed` | `error`), and
//! every `clean` result is bit-identical to the batch path.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod client;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod supervisor;

pub use crate::client::Client;
pub use crate::protocol::{Estimate, Request, RequestBody, Response, MAX_FRAME_BYTES};
pub use crate::server::{Bind, ServeConfig, Server};

#[cfg(test)]
mod drain_test;
#[cfg(test)]
mod soak;
