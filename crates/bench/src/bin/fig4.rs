//! Regenerates Figure 4: SOFR-step error for a system of N components with
//! the near-exponential time-to-failure density f(x) = 2/sqrt(pi) e^{-x^2}.

use serr_analytic::fig::fig4_series;
use serr_core::figures::{pct, render_table};

fn main() {
    let rows: Vec<Vec<String>> = fig4_series(32)
        .expect("quadrature converges")
        .into_iter()
        .map(|p| {
            vec![
                p.n.to_string(),
                format!("{:.6}", p.mttf_true),
                format!("{:.6}", p.mttf_sofr),
                pct(p.relative_error),
            ]
        })
        .collect();
    println!(
        "Figure 4. Relative error introduced by the SOFR step for the\n\
         synthesized near-exponential example (N components, E(X) = 1/sqrt(pi)).\n"
    );
    print!("{}", render_table(&["N", "MTTF true", "MTTF SOFR", "rel err"], &rows));
}
