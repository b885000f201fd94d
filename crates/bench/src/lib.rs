//! Shared plumbing for the experiment binaries: a `--quick`/`--full`
//! argument convention for the ablations.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper.
//! The five swept figures are `serr sweep <name>` under the binary's name:
//! their grids, tables and claims live in [`serr_core::figures`].
//!
//! | binary    | artifact | contents |
//! |-----------|----------|----------|
//! | `table1`  | Table 1  | the base POWER4-like machine configuration |
//! | `table2`  | Table 2  | the explored design space |
//! | `fig3`    | Figure 3 | analytic AVF-step error, 100 MB cache |
//! | `fig4`    | Figure 4 | analytic SOFR-step error, min-of-N system |
//! | `sec5_1`  | §5.1     | `serr sweep sec5_1`: AVF & SOFR vs Monte Carlo, uniprocessor + SPEC |
//! | `fig5`    | Figure 5 | `serr sweep fig5`: AVF-step error, synthesized workloads |
//! | `fig6a`   | Figure 6a| `serr sweep fig6a`: SOFR-step error, SPEC clusters |
//! | `fig6b`   | Figure 6b| `serr sweep fig6b`: SOFR-step error, synthesized-workload clusters |
//! | `sec5_4`  | §5.4     | `serr sweep sec5_4`: SoftArch vs Monte Carlo across the space |
//! | `ablation_phase`  | — | start-phase convention sensitivity |
//! | `ablation_trials` | — | Monte Carlo convergence |

#![warn(missing_docs)]

use serr_core::experiments::ExperimentConfig;

/// Resolves the experiment configuration from command-line arguments:
/// `--quick` for smoke runs, anything else (or nothing) for the full
/// reproduction settings recorded in EXPERIMENTS.md.
#[must_use]
pub fn config_from_args() -> ExperimentConfig {
    let quick = std::env::args().any(|a| a == "--quick");
    if quick {
        ExperimentConfig::quick()
    } else {
        ExperimentConfig::full()
    }
}
