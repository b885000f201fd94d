//! Regenerates the Section 5.1 result: AVF and SOFR vs Monte Carlo for
//! today's uniprocessor running the 21 SPEC-like benchmarks.
//! Paper: "< 0.5% discrepancy for all cases".
//!
//! `serr sweep sec5_1` under its own name: same flags, same output.

fn main() {
    soft_error_analysis::cli::figure_main("sec5_1");
}
