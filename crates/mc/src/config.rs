//! Monte Carlo engine configuration.

use std::time::Duration;

use serr_inject::FaultPlan;
use serr_types::SerrError;

/// Where within the workload loop each trial begins.
///
/// The paper's Monte Carlo implicitly starts every trial at the beginning
/// of the workload (cycle 0 — for the `day` workload, the start of the busy
/// half). For a long-running system observed at a random time, the
/// stationary convention is the physically neutral choice; the SOFR-step
/// discrepancy is sensitive to this (see `serr sweep ablation_phase`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StartPhase {
    /// Every trial starts at cycle 0 of the loop (the paper's convention).
    #[default]
    WorkloadStart,
    /// Each trial starts at an independent uniformly random phase.
    Stationary,
}

/// The engine's time-to-failure sampler: batched inversion of the
/// cumulative-vulnerability function, the one sampler in production.
///
/// The paper's per-event walk ([`crate::sampler::sample_time_to_failure`])
/// and the naive cycle-stepping reference ([`crate::naive`]) draw from the
/// same distribution — thinning a homogeneous Poisson(λ) raw-error stream
/// by the masking trace `v(t)` is an inhomogeneous Poisson process with
/// intensity `λ·v(t)`, so `P(TTF > t) = exp(−λ·V(t))` either way — and
/// stay as test oracles that the KS-equivalence suite calls directly. The
/// type keeps its label because the serve wire format and the CLI print it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SamplerKind {
    /// Invert the cumulative-vulnerability function: one `Exp(1)` draw per
    /// trial, split into whole periods plus a remainder located in the
    /// compiled prefix table — O(1) per trial, independent of AVF and λL —
    /// run a whole trial chunk at a time with counter-based RNG words,
    /// structure-of-arrays buffers, and branchless array passes (see
    /// `serr_mc::batched`).
    #[default]
    BatchedInversion,
}

impl SamplerKind {
    /// Stable lowercase label (CLI output, wire format, bench JSON).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SamplerKind::BatchedInversion => "batched-inversion",
        }
    }

    /// Parses a wire-format label.
    ///
    /// # Errors
    ///
    /// Returns [`SerrError::InvalidConfig`] for anything other than
    /// `batched-inversion`, naming it as the one sampler.
    pub fn parse(s: &str) -> Result<Self, SerrError> {
        match s {
            "batched-inversion" => Ok(SamplerKind::BatchedInversion),
            other => Err(SerrError::invalid_config(format!(
                "unknown sampler {other:?} (the one sampler is batched-inversion)"
            ))),
        }
    }
}

/// Configuration for the Monte Carlo MTTF engine.
///
/// The paper runs 1,000,000 trials; the default here is 200,000, which
/// resolves MTTFs to well under 1% (95% CI) for every workload in the design
/// space — raise it when chasing the last decimal.
///
/// ```
/// use serr_mc::MonteCarloConfig;
/// let cfg = MonteCarloConfig { trials: 1_000_000, seed: 7, ..Default::default() };
/// assert_eq!(cfg.trials, 1_000_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonteCarloConfig {
    /// Number of independent time-to-failure trials to average.
    pub trials: u64,
    /// Base seed; every trial derives a distinct deterministic stream from
    /// it, so results are exactly reproducible at any thread count.
    pub seed: u64,
    /// Worker threads; `0` means use all available parallelism.
    pub threads: usize,
    /// Where within the workload loop each trial begins.
    pub start_phase: StartPhase,
    /// The time-to-failure sampler (see [`SamplerKind`]; there is one).
    pub sampler: SamplerKind,
    /// Optional wall-clock budget for one engine run. A budget that is
    /// already exhausted when the run starts (zero, or elapsed before the
    /// first chunk) aborts immediately with
    /// [`SerrError::DeadlineExhausted`]. Otherwise, when the budget expires
    /// mid-run, workers stop claiming new trial chunks (each finishes the
    /// chunk it is on) and the engine returns a *partial* estimate flagged
    /// [`truncated`](crate::MttfEstimate::truncated) with the honestly wider
    /// confidence interval of the trials that did run. `None` (the default)
    /// runs every configured trial.
    pub deadline: Option<Duration>,
    /// Deterministic fault-injection plan for chaos testing. `None` (the
    /// default, and the only sensible production value) injects nothing and
    /// costs one branch per chunk. `Some(plan)` makes the engine consult the
    /// plan's pure seed-derived queries for injected worker panics and
    /// artificial deadline exhaustion — see `serr-inject`.
    pub chaos: Option<FaultPlan>,
}

impl Default for MonteCarloConfig {
    fn default() -> Self {
        MonteCarloConfig {
            trials: 200_000,
            seed: 0x5EED_50F7_0E44_0007,
            threads: 0,
            start_phase: StartPhase::WorkloadStart,
            sampler: SamplerKind::BatchedInversion,
            deadline: None,
            chaos: None,
        }
    }
}

impl MonteCarloConfig {
    /// A small-trial configuration for quick tests (20,000 trials).
    #[must_use]
    pub fn fast() -> Self {
        MonteCarloConfig { trials: 20_000, ..Default::default() }
    }

    /// The paper's full 1,000,000-trial configuration.
    #[must_use]
    pub fn paper() -> Self {
        MonteCarloConfig { trials: 1_000_000, ..Default::default() }
    }

    /// Checks the configuration for degenerate values before a run starts.
    ///
    /// A zero `deadline` passes validation but any run under it fails with
    /// [`SerrError::DeadlineExhausted`]: the budget is exhausted before the
    /// first chunk, so not even a truncated estimate would be honest.
    ///
    /// # Errors
    ///
    /// Returns [`SerrError::InvalidConfig`] for zero `trials`.
    pub fn validate(&self) -> Result<(), SerrError> {
        if self.trials == 0 {
            return Err(SerrError::invalid_config("trial count must be positive"));
        }
        Ok(())
    }

    /// Resolved worker thread count.
    #[must_use]
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let cfg = MonteCarloConfig::default();
        assert_eq!(cfg.trials, 200_000);
        assert!(cfg.effective_threads() >= 1);
    }

    #[test]
    fn start_phase_default_is_paper_convention() {
        assert_eq!(MonteCarloConfig::default().start_phase, StartPhase::WorkloadStart);
    }

    #[test]
    fn sampler_defaults_to_batched_inversion_and_labels_round_trip() {
        let kind = SamplerKind::BatchedInversion;
        assert_eq!(MonteCarloConfig::default().sampler, kind);
        assert_eq!(SamplerKind::parse(kind.label()).expect("label parses"), kind);
        // The retired scalar and event-loop labels are typed errors that
        // name the one sampler.
        for bad in ["naive", "inversion", "event-loop", ""] {
            match SamplerKind::parse(bad) {
                Err(SerrError::InvalidConfig { reason }) => {
                    assert!(reason.contains(&format!("{bad:?}")), "{reason}");
                    assert!(reason.contains("batched-inversion"), "{reason}");
                }
                other => panic!("{bad:?}: expected InvalidConfig, got {other:?}"),
            }
        }
    }

    #[test]
    fn validate_rejects_degenerate_configs() {
        assert!(MonteCarloConfig::default().validate().is_ok());
        let zero_trials = MonteCarloConfig { trials: 0, ..Default::default() };
        assert!(zero_trials.validate().is_err());
        // Zero deadline passes validation; the *run* rejects it with the
        // typed deadline-exhausted error (see engine tests).
        let zero_deadline =
            MonteCarloConfig { deadline: Some(Duration::ZERO), ..Default::default() };
        assert!(zero_deadline.validate().is_ok());
    }

    #[test]
    fn presets() {
        assert_eq!(MonteCarloConfig::fast().trials, 20_000);
        assert_eq!(MonteCarloConfig::paper().trials, 1_000_000);
        let pinned = MonteCarloConfig { threads: 3, ..Default::default() };
        assert_eq!(pinned.effective_threads(), 3);
    }
}
