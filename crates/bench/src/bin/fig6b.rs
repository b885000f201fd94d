//! Regenerates Figure 6(b): SOFR-step error vs Monte Carlo for clusters
//! running the synthesized day/week/combined workloads.
//!
//! `serr sweep fig6b` under its own name: same flags, same output.

fn main() {
    soft_error_analysis::cli::figure_main("fig6b");
}
