//! Regenerates Figure 3: analytic AVF-step error for a 100 MB cache
//! running an L-day loop (busy the first half), for λ scalings 1x/3x/5x.

use serr_analytic::fig::fig3_series;
use serr_core::figures::{pct, render_table, sci};

fn main() {
    let rows: Vec<Vec<String>> = fig3_series(16)
        .into_iter()
        .map(|p| {
            vec![
                format!("{:.0}", p.l_days),
                format!("{:.0}x", p.scale),
                sci(p.lambda_per_year),
                format!("{:.4}", p.mttf_true_years),
                format!("{:.4}", p.mttf_avf_years),
                pct(p.relative_error),
            ]
        })
        .collect();
    println!(
        "Figure 3. Relative error in the AVF step for a 100MB cache,\n\
         loop of L days busy for L/2 (lambda scalings 1x/3x/5x of 0.001 FIT/bit).\n"
    );
    print!(
        "{}",
        render_table(
            &["L (days)", "scale", "lambda/yr", "MTTF true (yr)", "MTTF AVF (yr)", "rel err"],
            &rows
        )
    );
}
