//! Regenerates Figure 6(a): SOFR-step error vs Monte Carlo for clusters of
//! processors running three representative SPEC benchmarks.
//!
//! `serr sweep fig6a` under its own name: same flags, same output.

fn main() {
    soft_error_analysis::cli::figure_main("fig6a");
}
