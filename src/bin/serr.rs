//! The `serr` command-line tool: soft-error MTTF estimation over the
//! paper's workloads. See `soft_error_analysis::cli::USAGE`.

fn main() {
    soft_error_analysis::cli::main(std::env::args().skip(1));
}
