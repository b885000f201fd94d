//! Regenerates Figure 5: AVF-step error vs Monte Carlo for the synthesized
//! workloads at representative N*S values (C = 1).
//!
//! `serr sweep fig5` under its own name: same flags, same output.

fn main() {
    soft_error_analysis::cli::figure_main("fig5");
}
