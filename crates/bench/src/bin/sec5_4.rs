//! Regenerates the Section 5.4 result: SoftArch vs Monte Carlo across the
//! design space. Paper: "< 1% for a single component and less than 2% for
//! the full system".
//!
//! `serr sweep sec5_4` under its own name: same flags, same output.

fn main() {
    soft_error_analysis::cli::figure_main("sec5_4");
}
