//! The registry of the paper's swept figures: for each of §5.1, Figure 5,
//! Figure 6(a), Figure 6(b) and §5.4, its Table 2 grid, its sweep call, its
//! table and the paper's claim printed under it, each defined once.
//!
//! `serr sweep <name>` and the `serr-bench` figure binaries (which run
//! exactly `serr sweep <name>`) look a figure up in [`FIGURES`];
//! [`Figure::run`] returns the text the `results/<name>.txt` files hold.
//!
//! ```
//! use serr_core::figures::{find, FIGURES};
//! assert_eq!(FIGURES.len(), 5);
//! assert_eq!(find("fig5").unwrap().name, "fig5");
//! assert!(find("fig7").unwrap_err().to_string().contains("sec5_4"));
//! ```

use std::fmt::Write as _;

use serr_types::SerrError;
use serr_workload::BenchmarkProfile;

use crate::checkpoint::{PointFailure, SweepOptions, SweepReport};
use crate::design::{Workload, C_VALUES};
use crate::experiments::{
    fig5_sweep, fig6a_sweep, fig6b_sweep, sec5_1_sweep, sec5_4_sweep, ExperimentConfig, Fig6Row,
    Sec51Row, Sec54Row, REPRESENTATIVE_BENCHMARKS,
};

/// Figure 5's `N×S` axis (C = 1), for each synthesized workload.
pub const FIG5_N_S: [f64; 7] = [1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 5e12];
/// Figure 6(a)'s `N×S` axis, for each representative SPEC benchmark and
/// each C of [`C_VALUES`].
pub const FIG6A_N_S: [f64; 4] = [1e8, 1e9, 2e12, 5e12];
/// Figure 6(b)'s `N×S` axis, for each synthesized workload and each C of
/// [`C_VALUES`].
pub const FIG6B_N_S: [f64; 3] = [1e7, 1e8, 1e9];
/// §5.4's C axis: a single component, then every C of [`C_VALUES`].
pub const SEC5_4_C: [u64; 6] = {
    let mut cs = [1; 6];
    let mut i = 0;
    while i < C_VALUES.len() {
        cs[i + 1] = C_VALUES[i];
        i += 1;
    }
    cs
};
/// §5.4's `N×S` axis, for each synthesized workload.
pub const SEC5_4_N_S: [f64; 4] = [1e7, 1e8, 1e9, 1e12];

/// One swept figure of the paper.
#[derive(Clone, Copy)]
pub struct Figure {
    /// The name `serr sweep` and the figure binary go by.
    pub name: &'static str,
    /// The paper's claim, printed under the table.
    pub claim: &'static str,
    sweep: fn(&ExperimentConfig, &SweepOptions) -> Result<FigureRun, SerrError>,
}

impl Figure {
    /// Sweeps the figure's grid at `cfg` and renders its page.
    ///
    /// # Errors
    ///
    /// What the sweep aborts on: trace construction, or a checkpoint
    /// journal held by another live process ([`SerrError::JournalLocked`]).
    /// Failed points are reported in [`FigureRun::failures`] instead.
    pub fn run(&self, cfg: &ExperimentConfig, opts: &SweepOptions) -> Result<FigureRun, SerrError> {
        let mut run = (self.sweep)(cfg, opts)?;
        run.text.push('\n');
        run.text.push_str(self.claim);
        Ok(run)
    }
}

impl PartialEq for Figure {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
    }
}

impl std::fmt::Debug for Figure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Figure").field("name", &self.name).finish_non_exhaustive()
    }
}

/// A rendered figure and its sweep's bookkeeping.
#[derive(Debug, Clone)]
pub struct FigureRun {
    /// The figure's page: title, table, summary line and claim.
    pub text: String,
    /// Rows in the table.
    pub rows: usize,
    /// Rows restored from the checkpoint journal.
    pub resumed: usize,
    /// Rows computed in this run.
    pub computed: usize,
    /// Failed points, ascending by index (absent from the table).
    pub failures: Vec<PointFailure>,
}

impl FigureRun {
    /// Renders `report`'s rows as `title`, a blank line, the table and,
    /// when given, a summary line.
    fn page<R>(
        report: SweepReport<R>,
        title: String,
        headers: &[&str],
        row: impl Fn(&R) -> Vec<String>,
        summary: impl FnOnce(&[R]) -> Option<String>,
    ) -> FigureRun {
        let table: Vec<Vec<String>> = report.rows.iter().map(row).collect();
        let mut text = format!("{title}\n\n{}", render_table(headers, &table));
        if let Some(line) = summary(&report.rows) {
            let _ = write!(text, "\n{line}");
        }
        FigureRun {
            text,
            rows: report.rows.len(),
            resumed: report.resumed,
            computed: report.computed,
            failures: report.failures,
        }
    }
}

/// Every swept figure, in the paper's order.
pub static FIGURES: [Figure; 5] = [
    Figure {
        name: "sec5_1",
        claim: "paper: < 0.5% discrepancy for all cases (vs 1e6-trial Monte Carlo);\n\
                the vs-MC columns are bounded by sampling noise, the vs-exact columns\n\
                show the methodology error itself.\n",
        sweep: sec5_1,
    },
    Figure {
        name: "fig5",
        claim: "paper: significant AVF-step errors (up to ~90%) once N*S >= 1e9;\n\
                SoftArch within ~1% everywhere.\n",
        sweep: fig5,
    },
    Figure {
        name: "fig6a",
        claim: "paper: accurate for C in {2, 8}; significant errors only for\n\
                C >= 5000 combined with very large N*S (>= ~2e12).\n",
        sweep: fig6a,
    },
    Figure {
        name: "fig6b",
        claim: "paper: day at (N*S=1e8, C=5000) ~11%, (1e8, 50000) ~50%; week larger;\n\
                this reproduction's start-at-busy-phase convention steepens the same\n\
                crossover — see EXPERIMENTS.md and `ablation_phase`.\n",
        sweep: fig6b,
    },
    Figure {
        name: "sec5_4",
        claim: "paper: < 1% (component), < 2% (system) for every point in the space\n",
        sweep: sec5_4,
    },
];

/// Looks a figure up by name.
///
/// # Errors
///
/// [`SerrError::InvalidConfig`] naming every registered figure.
pub fn find(name: &str) -> Result<&'static Figure, SerrError> {
    FIGURES.iter().find(|f| f.name == name).ok_or_else(|| {
        SerrError::invalid_config(format!("unknown figure `{name}`; expected {}", names()))
    })
}

/// The registered names, comma-separated.
#[must_use]
pub fn names() -> String {
    FIGURES.map(|f| f.name).join(", ")
}

fn sec5_1(cfg: &ExperimentConfig, opts: &SweepOptions) -> Result<FigureRun, SerrError> {
    let names: Vec<&str> = BenchmarkProfile::all().iter().map(|p| p.name).collect();
    let report = sec5_1_sweep(&names, cfg, opts)?;
    Ok(FigureRun::page(
        report,
        format!(
            "Section 5.1: AVF & SOFR vs Monte Carlo, uniprocessor running SPEC\n\
             (cells are AVF/relative-error; trials = {}, sim = {} instructions)",
            cfg.mc.trials, cfg.sim_instructions
        ),
        &[
            "benchmark",
            "IPC",
            "int",
            "fp",
            "decode",
            "regfile",
            "AVF err (MC)",
            "AVF err (exact)",
            "SOFR err (MC)",
            "SOFR err (exact)",
        ],
        |r| {
            let unit = |n: &str| {
                r.components.iter().find(|(name, _, _)| name == n).map_or_else(
                    || "-".to_owned(),
                    |(_, avf, err)| format!("{:.3}/{}", avf, pct(*err)),
                )
            };
            vec![
                r.benchmark.clone(),
                format!("{:.2}", r.ipc),
                unit("int"),
                unit("fp"),
                unit("decode"),
                unit("regfile"),
                pct(r.max_component_error),
                pct(r.max_component_error_exact),
                pct(r.sofr_error),
                pct(r.sofr_error_exact),
            ]
        },
        |rows| {
            let worst = |f: fn(&Sec51Row) -> f64| pct(rows.iter().map(f).fold(0.0, f64::max));
            Some(format!(
                "worst AVF-step error: {} vs MC ({} vs exact)   worst SOFR-step error: {} vs MC \
                 ({} vs exact)",
                worst(|r| r.max_component_error),
                worst(|r| r.max_component_error_exact),
                worst(|r| r.sofr_error),
                worst(|r| r.sofr_error_exact),
            ))
        },
    ))
}

fn fig5(cfg: &ExperimentConfig, opts: &SweepOptions) -> Result<FigureRun, SerrError> {
    let report = fig5_sweep(&Workload::synthesized(), &FIG5_N_S, cfg, opts)?;
    Ok(FigureRun::page(
        report,
        format!(
            "Figure 5. Error in MTTF from the AVF step relative to Monte Carlo\n\
             for the synthesized workloads (trials = {}).",
            cfg.mc.trials
        ),
        &["workload", "N*S", "AVF", "MTTF AVF (yr)", "MTTF MC (yr)", "AVF err", "SoftArch err"],
        |r| {
            vec![
                r.workload.clone(),
                sci(r.n_times_s),
                format!("{:.3}", r.avf),
                sci(r.mttf_avf_years),
                sci(r.mttf_mc_years),
                pct(r.error),
                pct(r.softarch_error),
            ]
        },
        |_| None,
    ))
}

/// The columns Figure 6(a) and 6(b) share; the first names the workload.
const FIG6_HEADERS: [&str; 7] =
    ["workload", "C", "N*S", "MTTF SOFR (yr)", "MTTF MC (yr)", "SOFR err", "SoftArch err"];

fn fig6_row(r: &Fig6Row) -> Vec<String> {
    vec![
        r.workload.clone(),
        r.c.to_string(),
        sci(r.n_times_s),
        sci(r.mttf_sofr_years),
        sci(r.mttf_mc_years),
        pct(r.error),
        pct(r.softarch_error),
    ]
}

fn fig6a(cfg: &ExperimentConfig, opts: &SweepOptions) -> Result<FigureRun, SerrError> {
    let report = fig6a_sweep(&REPRESENTATIVE_BENCHMARKS, &C_VALUES, &FIG6A_N_S, cfg, opts)?;
    let mut headers = FIG6_HEADERS;
    headers[0] = "benchmark";
    Ok(FigureRun::page(
        report,
        format!(
            "Figure 6(a). Error in MTTF from the SOFR step relative to Monte Carlo,\n\
             SPEC benchmarks (trials = {}, sim = {} instructions).",
            cfg.mc.trials, cfg.sim_instructions
        ),
        &headers,
        fig6_row,
        |_| None,
    ))
}

fn fig6b(cfg: &ExperimentConfig, opts: &SweepOptions) -> Result<FigureRun, SerrError> {
    let report = fig6b_sweep(&Workload::synthesized(), &C_VALUES, &FIG6B_N_S, cfg, opts)?;
    Ok(FigureRun::page(
        report,
        format!(
            "Figure 6(b). Error in MTTF from the SOFR step relative to Monte Carlo,\n\
             synthesized workloads (trials = {}).",
            cfg.mc.trials
        ),
        &FIG6_HEADERS,
        fig6_row,
        |_| None,
    ))
}

fn sec5_4(cfg: &ExperimentConfig, opts: &SweepOptions) -> Result<FigureRun, SerrError> {
    let report = sec5_4_sweep(&Workload::synthesized(), &SEC5_4_C, &SEC5_4_N_S, cfg, opts)?;
    Ok(FigureRun::page(
        report,
        format!(
            "Section 5.4: SoftArch error relative to Monte Carlo (and to the exact\n\
             renewal reference) across the design space (trials = {}).",
            cfg.mc.trials
        ),
        &["workload", "C", "N*S", "vs Monte Carlo", "vs renewal"],
        |r| {
            vec![
                r.workload.clone(),
                r.c.to_string(),
                sci(r.n_times_s),
                pct(r.softarch_error),
                pct(r.softarch_error_vs_renewal),
            ]
        },
        |rows| {
            let worst = |f: fn(&Sec54Row) -> f64| pct(rows.iter().map(f).fold(0.0, f64::max));
            Some(format!(
                "worst vs MC: {} (MC sampling noise included); worst vs exact: {}",
                worst(|r| r.softarch_error),
                worst(|r| r.softarch_error_vs_renewal)
            ))
        },
    ))
}

/// Renders rows as an aligned plain-text table.
///
/// ```
/// use serr_core::figures::render_table;
/// let out = render_table(
///     &["name", "value"],
///     &[vec!["a".into(), "1".into()], vec!["bb".into(), "22".into()]],
/// );
/// assert!(out.contains("name"));
/// assert!(out.lines().count() >= 4);
/// ```
#[must_use]
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(c.len())))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let mut out = String::new();
    out.push_str(&line(&headers.iter().map(|h| (*h).to_owned()).collect::<Vec<_>>()));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&line(row));
        out.push('\n');
    }
    out
}

/// Formats a fraction as a percentage with two decimals.
#[must_use]
pub fn pct(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

/// Formats a float in compact scientific notation.
#[must_use]
pub fn sci(x: f64) -> String {
    format!("{x:.3e}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let t = render_table(
            &["a", "long-header"],
            &[vec!["xxxx".into(), "1".into()], vec!["y".into(), "2".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        // All rows end aligned on the last column.
        assert!(lines[0].ends_with("long-header"));
        assert!(lines[2].ends_with('1'));
        assert!(lines[3].ends_with('2'));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.1234), "12.34%");
        assert_eq!(sci(12345.678), "1.235e4");
    }

    #[test]
    fn registry_names_are_unique_and_grids_reuse_table_2() {
        for (i, f) in FIGURES.iter().enumerate() {
            assert!(FIGURES[..i].iter().all(|g| g.name != f.name), "{} twice", f.name);
            assert!(f.claim.starts_with("paper: ") && f.claim.ends_with('\n'), "{}", f.name);
        }
        assert_eq!((SEC5_4_C[0], &SEC5_4_C[1..]), (1, &C_VALUES[..]));
        assert_eq!(names(), "sec5_1, fig5, fig6a, fig6b, sec5_4");
    }
}
