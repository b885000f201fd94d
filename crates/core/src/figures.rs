//! The registry of the paper's results pages: Tables 1 and 2, Figures 3
//! to 6, §5.1, §5.4 and the four ablations. Each page's renderer, table
//! and claim line are defined once; the swept pages' Table 2 grids too.
//!
//! `serr sweep <name>` looks a page up in [`FIGURES`]; [`Figure::run`]
//! returns the text the `results/<name>.txt` files hold.
//!
//! ```
//! use serr_core::figures::{find, FIGURES};
//! assert_eq!(FIGURES.len(), 13);
//! assert_eq!(find("fig5").unwrap().name, "fig5");
//! assert!(find("fig7").unwrap_err().to_string().contains("ablation_uarch"));
//! ```

use std::fmt::Write as _;
use std::sync::Arc;

use serr_analytic::fig::{fig3_series, fig4_series};
use serr_analytic::renewal::renewal_mttf;
use serr_mc::{MonteCarlo, MonteCarloConfig};
use serr_sim::predictor::BranchPredictorKind;
use serr_sim::{SimConfig, Simulator};
use serr_trace::{CompositeTrace, IntervalTrace, ScaledTrace, ShiftedTrace, VulnerabilityTrace};
use serr_types::{relative_error, Frequency, RawErrorRate, SerrError};
use serr_workload::{synthesized, BenchmarkProfile, TraceGenerator};

use crate::avf::avf_step_mttf;
use crate::checkpoint::{PointFailure, SweepOptions, SweepReport};
use crate::design::{Workload, C_VALUES, N_VALUES, S_VALUES};
use crate::experiments::{
    fig5_sweep, fig6a_sweep, fig6b_sweep, sec5_1_sweep, sec5_4_sweep, ExperimentConfig, Fig6Row,
    Sec51Row, Sec54Row, REPRESENTATIVE_BENCHMARKS,
};
use crate::sofr::sofr_mttf_identical;

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

/// One results page of the paper.
#[derive(Clone, Copy)]
pub struct Figure {
    /// The name `serr sweep` knows the page by.
    pub name: &'static str,
    /// The claim printed under the page: the paper's for a swept figure,
    /// this reproduction's finding for an ablation; empty for none.
    pub claim: &'static str,
    body: Body,
}

/// How a page computes its text.
#[derive(Clone, Copy)]
enum Body {
    /// Sweeps a Table 2 grid through a checkpoint journal.
    Swept(fn(&ExperimentConfig, &SweepOptions) -> Result<FigureRun, SerrError>),
    /// Renders directly, with nothing to journal.
    Direct(fn(&ExperimentConfig) -> Result<String, SerrError>),
}

impl Figure {
    /// Renders the page at `cfg`; a swept page sweeps its grid under `opts`.
    ///
    /// # Errors
    ///
    /// What the page's computation aborts on: trace construction, an
    /// estimator error, or a checkpoint journal held by another live process
    /// ([`SerrError::JournalLocked`]). A swept page reports failed points in
    /// [`FigureRun::failures`] instead.
    pub fn run(&self, cfg: &ExperimentConfig, opts: &SweepOptions) -> Result<FigureRun, SerrError> {
        let mut run = match self.body {
            Body::Swept(sweep) => sweep(cfg, opts)?,
            Body::Direct(render) => FigureRun {
                text: render(cfg)?,
                rows: 0,
                resumed: 0,
                computed: 0,
                failures: Vec::new(),
            },
        };
        if !self.claim.is_empty() {
            run.text.push('\n');
            run.text.push_str(self.claim);
        }
        Ok(run)
    }

    /// Whether the page sweeps a grid through a checkpoint journal.
    #[must_use]
    pub fn is_swept(&self) -> bool {
        matches!(self.body, Body::Swept(_))
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

/// A rendered page and, for a swept page, its sweep's bookkeeping.
#[derive(Debug, Clone)]
pub struct FigureRun {
    /// The page: title, table, summary line and claim.
    pub text: String,
    /// Rows in the swept table (0 for a page that sweeps nothing).
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
        let mut text = titled(&title, headers, &table);
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

/// Every page, in the paper's order, then the ablations.
pub static FIGURES: [Figure; 13] = [
    Figure { name: "table1", claim: "", body: Body::Direct(table1) },
    Figure { name: "table2", claim: "", body: Body::Direct(table2) },
    Figure { name: "fig3", claim: "", body: Body::Direct(fig3) },
    Figure { name: "fig4", claim: "", body: Body::Direct(fig4) },
    Figure {
        name: "sec5_1",
        claim: "paper: < 0.5% discrepancy for all cases (vs 1e6-trial Monte Carlo);\n\
                the vs-MC columns are bounded by sampling noise, the vs-exact columns\n\
                show the methodology error itself.\n",
        body: Body::Swept(sec5_1),
    },
    Figure {
        name: "fig5",
        claim: "paper: significant AVF-step errors (up to ~90%) once N*S >= 1e9;\n\
                SoftArch within ~1% everywhere.\n",
        body: Body::Swept(fig5),
    },
    Figure {
        name: "fig6a",
        claim: "paper: accurate for C in {2, 8}; significant errors only for\n\
                C >= 5000 combined with very large N*S (>= ~2e12).\n",
        body: Body::Swept(fig6a),
    },
    Figure {
        name: "fig6b",
        claim: "paper: day at (N*S=1e8, C=5000) ~11%, (1e8, 50000) ~50%; week larger;\n\
                this reproduction's start-at-busy-phase convention steepens the same\n\
                crossover — see EXPERIMENTS.md and `ablation_phase`.\n",
        body: Body::Swept(fig6b),
    },
    Figure {
        name: "sec5_4",
        claim: "paper: < 1% (component), < 2% (system) for every point in the space\n",
        body: Body::Swept(sec5_4),
    },
    Figure {
        name: "ablation_phase",
        claim: "desynchronizing phases washes the SOFR discrepancy out; alignment\n\
                maximizes it — the paper's numbers sit between the conventions.\n",
        body: Body::Direct(ablation_phase),
    },
    Figure {
        name: "ablation_trials",
        claim: "the paper's 1e6 trials resolve MTTF to ~0.2%; 2e5 (this repo's\n\
                default) to ~0.4% — both far below the discrepancies under study.\n",
        body: Body::Direct(ablation_trials),
    },
    Figure {
        name: "ablation_masking",
        claim: "extra masking rescales the effective error rate (shifting the\n\
                breakdown threshold right by 1/p) but does not repair the AVF\n\
                step: the discrepancy at matched lambda*AVF*L is unchanged.\n",
        body: Body::Direct(ablation_masking),
    },
    Figure {
        name: "ablation_uarch",
        claim: "component AVFs move with modeling fidelity roughly in proportion\n\
                to IPC: reliability projections inherit the timing model's error.\n",
        body: Body::Direct(ablation_uarch),
    },
];

/// Looks a page up by name.
///
/// # Errors
///
/// [`SerrError::InvalidConfig`] naming every registered page.
pub fn find(name: &str) -> Result<&'static Figure, SerrError> {
    FIGURES.iter().find(|f| f.name == name).ok_or_else(|| {
        SerrError::invalid_config(format!("unknown page `{name}`; expected {}", names()))
    })
}

/// The registered names, comma-separated.
#[must_use]
pub fn names() -> String {
    FIGURES.map(|f| f.name).join(", ")
}

/// `title`, a blank line, then the table.
fn titled(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    format!("{title}\n\n{}", render_table(headers, rows))
}

fn table1(_: &ExperimentConfig) -> Result<String, SerrError> {
    let c = SimConfig::power4();
    let line = |(size, ways): (usize, usize), unit: &str, div: usize| {
        format!("{}{unit}, {ways}-way, {}-byte line", size / div, c.line_bytes)
    };
    let rows: Vec<Vec<String>> = [
        ("Processor frequency", c.frequency.to_string()),
        ("Fetch/finish rate", format!("{} per cycle", c.fetch_width)),
        ("Retirement rate", format!("1 dispatch-group (={}, max) per cycle", c.dispatch_width)),
        (
            "Functional units",
            format!(
                "{} integer, {} FP, {} load-store, {} branch",
                c.int_units, c.fp_units, c.ls_units, c.branch_units
            ),
        ),
        (
            "Integer FU latencies",
            format!(
                "{}/{}/{} add/multiply/divide",
                c.int_alu_latency, c.int_mul_latency, c.int_div_latency
            ),
        ),
        (
            "FP FU latencies",
            format!("{} default, {} divide (pipelined)", c.fp_latency, c.fp_div_latency),
        ),
        ("Reorder buffer size", format!("{} entries", c.rob_size)),
        (
            "Register file size",
            format!(
                "{} entries ({} integer, {} FP, and various control)",
                c.regfile_entries, c.int_phys_regs, c.fp_phys_regs
            ),
        ),
        ("Memory queue size", format!("{} entries", c.mem_queue_size)),
        ("iTLB", format!("{} entries", c.tlb_entries)),
        ("dTLB", format!("{} entries", c.tlb_entries)),
        ("L1 Dcache", line(c.l1d, "KB", 1024)),
        ("L1 Icache", line(c.l1i, "KB", 1024)),
        ("L2 (Unified)", line(c.l2, "MB", 1024 * 1024)),
        ("L1 Latency", format!("{} cycles", c.l1_latency)),
        ("L2 Latency", format!("{} cycles", c.l2_latency)),
        ("Main memory Latency", format!("{} cycles", c.mem_latency)),
    ]
    .into_iter()
    .map(|(name, value)| vec![name.to_owned(), value])
    .collect();
    Ok(titled("Table 1. Base POWER4-like processor configuration.", &["parameter", "value"], &rows))
}

fn table2(_: &ExperimentConfig) -> Result<String, SerrError> {
    let join = |xs: Vec<String>| xs.join("  ");
    let rows = vec![
        vec![
            "N (elements/component)".to_owned(),
            join(N_VALUES.iter().map(|x| format!("{x:.0e}")).collect()),
        ],
        vec!["S (rate scaling)".to_owned(), join(S_VALUES.iter().map(f64::to_string).collect())],
        vec!["C (components)".to_owned(), join(C_VALUES.iter().map(u64::to_string).collect())],
        vec![
            "Workload".to_owned(),
            join(Workload::all().iter().map(|w| w.label().to_owned()).collect()),
        ],
    ];
    Ok(titled("Table 2. The design space explored.", &["dimension", "values"], &rows))
}

fn fig3(_: &ExperimentConfig) -> Result<String, SerrError> {
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
    Ok(titled(
        "Figure 3. Relative error in the AVF step for a 100MB cache,\n\
         loop of L days busy for L/2 (lambda scalings 1x/3x/5x of 0.001 FIT/bit).",
        &["L (days)", "scale", "lambda/yr", "MTTF true (yr)", "MTTF AVF (yr)", "rel err"],
        &rows,
    ))
}

fn fig4(_: &ExperimentConfig) -> Result<String, SerrError> {
    let rows: Vec<Vec<String>> = fig4_series(32)?
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
    Ok(titled(
        "Figure 4. Relative error introduced by the SOFR step for the\n\
         synthesized near-exponential example (N components, E(X) = 1/sqrt(pi)).",
        &["N", "MTTF true", "MTTF SOFR", "rel err"],
        &rows,
    ))
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

/// The trial start-phase convention's effect on the SOFR discrepancy, at
/// the day workload's N*S = 1e8 checkpoint. The paper starts every trial
/// at the loop's start; a uniformly random ("stationary") phase is the
/// physically neutral choice for a long-running cluster, and
/// desynchronizing the processors' phases is a third option.
fn ablation_phase(cfg: &ExperimentConfig) -> Result<String, SerrError> {
    let freq = cfg.frequency;
    let day = Arc::new(synthesized::day(freq));
    let period = day.period_cycles();
    let rate = RawErrorRate::baseline_per_bit().scale(1e8);
    let component = renewal_mttf(&day, rate, freq)?;
    let mc = MonteCarlo::new(cfg.mc);
    let cell = |mttf: f64, sofr: f64| {
        format!("{:.3}h / {}", mttf / 3600.0, pct(relative_error(sofr, mttf)))
    };

    let mut rows = Vec::new();
    for c in [5_000u64, 50_000] {
        let sofr = sofr_mttf_identical(component, c)?.as_secs();
        let system_rate = rate.scale(c as f64);

        // Aligned processors, trials start at busy onset.
        let aligned = renewal_mttf(&day, system_rate, freq)?.as_secs();

        // Aligned processors, stationary start phase: the renewal MTTF
        // averaged over shifted views of the trace.
        let shifts = 256u64;
        let mut stationary = 0.0;
        for i in 0..shifts {
            let t = ShiftedTrace::new(day.clone(), i * (period / shifts));
            stationary += renewal_mttf(&t, system_rate, freq)?.as_secs();
        }
        stationary /= shifts as f64;

        // Desynchronized processors (random per-replica phases), trials
        // from phase 0; 64 replica groups stand in for C.
        let groups = 64u64;
        let mut prng = 0x9E37_79B9u64;
        let offsets: Vec<u64> = (0..groups)
            .map(|_| {
                prng = prng.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                prng % period
            })
            .collect();
        // One composite part per group (superposition; see `CompositeTrace`).
        let group_rate = rate.scale(c as f64 / groups as f64);
        let parts = offsets
            .iter()
            .map(|&offset| {
                let part: Arc<dyn VulnerabilityTrace> = if offset == 0 {
                    day.clone()
                } else {
                    Arc::new(ShiftedTrace::new(day.clone(), offset))
                };
                (group_rate.per_second_value(), part)
            })
            .collect();
        let total = offsets.iter().fold(RawErrorRate::ZERO, |sum, _| sum + group_rate);
        let desync = mc.component_mttf(&CompositeTrace::new(parts)?, total, freq)?.mttf.as_secs();

        rows.push(vec![
            c.to_string(),
            format!("{:.3}h", sofr / 3600.0),
            cell(aligned, sofr),
            cell(stationary, sofr),
            cell(desync, sofr),
        ]);
    }
    Ok(titled(
        "Ablation: start-phase convention, day workload, N*S = 1e8\n\
         (cells: true MTTF / SOFR error under that convention)",
        &["C", "SOFR", "aligned busy-start", "aligned stationary", "desynchronized"],
        &rows,
    ))
}

/// Monte Carlo convergence: estimate error and confidence interval against
/// the exact renewal answer, at its own trial counts whatever the scale.
fn ablation_trials(_: &ExperimentConfig) -> Result<String, SerrError> {
    let freq = Frequency::base();
    // A trace squarely in the AVF-breaking regime (lambda*L = 2), where
    // the engine's precision matters.
    let trace = IntervalTrace::busy_idle(1_000_000, 1_000_000)?;
    let rate = RawErrorRate::per_second(2.0 / (2_000_000.0 / freq.hz()));
    let exact = renewal_mttf(&trace, rate, freq)?.as_secs();

    let mut rows = Vec::new();
    for trials in [1_000u64, 10_000, 100_000, 1_000_000] {
        let mc = MonteCarlo::new(MonteCarloConfig { trials, ..Default::default() });
        let est = mc.component_mttf(&trace, rate, freq)?;
        rows.push(vec![
            trials.to_string(),
            format!("{:.6e}", est.mttf.as_secs()),
            pct(relative_error(est.mttf.as_secs(), exact)),
            pct(est.relative_ci95()),
        ]);
    }
    Ok(titled(
        &format!("Ablation: Monte Carlo convergence (exact MTTF = {exact:.6e} s)"),
        &["trials", "MTTF (s)", "error vs exact", "95% CI"],
        &rows,
    ))
}

/// The paper's conservative masking assumption (every raw error striking a
/// busy unit fails) against uniformly derated busy-cycle vulnerability.
fn ablation_masking(cfg: &ExperimentConfig) -> Result<String, SerrError> {
    let freq = cfg.frequency;
    let day: Arc<dyn VulnerabilityTrace> = Arc::new(synthesized::day(freq));

    let mut rows = Vec::new();
    for survive in [1.0, 0.6, 0.3, 0.1] {
        let trace = ScaledTrace::new(day.clone(), survive)?;
        for n_s in [1e9, 1e11, 1e12] {
            let rate = RawErrorRate::baseline_per_bit().scale(n_s);
            let avf = avf_step_mttf(&trace, rate)?;
            let truth = renewal_mttf(&trace, rate, freq)?;
            rows.push(vec![
                format!("{:.0}%", survive * 100.0),
                format!("{n_s:.0e}"),
                format!("{:.3}", trace.avf()),
                pct(relative_error(avf.as_secs(), truth.as_secs())),
            ]);
        }
    }
    Ok(titled(
        "Ablation: conservative-masking sensitivity, day workload\n\
         (busy-cycle failure probability derated; exact renewal reference)",
        &["busy fails", "N*S", "AVF", "AVF-step error"],
        &rows,
    ))
}

/// How far the four component AVFs move when the front-end predictor,
/// memory-level parallelism or prefetching model changes: the conclusions'
/// sensitivity to simulator fidelity. Simulates at most 400k instructions.
fn ablation_uarch(cfg: &ExperimentConfig) -> Result<String, SerrError> {
    let n = cfg.sim_instructions.min(400_000);
    let base = SimConfig::power4;
    let variants = [
        ("baseline (annotated)", base()),
        (
            "bimodal 4k",
            SimConfig {
                branch_predictor: BranchPredictorKind::Bimodal { entries: 4096 },
                ..base()
            },
        ),
        (
            "gshare 4k/8",
            SimConfig {
                branch_predictor: BranchPredictorKind::Gshare { entries: 4096, history_bits: 8 },
                ..base()
            },
        ),
        ("mshr=1", SimConfig { mshrs: 1, ..base() }),
        ("next-line prefetch", SimConfig { l1d_next_line_prefetch: true, ..base() }),
    ];

    let mut text = String::new();
    for bench in ["gzip", "mcf", "swim"] {
        let profile = BenchmarkProfile::by_name(bench)?;
        let mut rows = Vec::new();
        for (label, sim) in &variants {
            let out = Simulator::new(sim.clone())
                .run(TraceGenerator::new(profile.clone(), cfg.seed), n)?;
            let t = &out.traces;
            rows.push(vec![
                (*label).to_owned(),
                format!("{:.3}", out.stats.ipc()),
                format!("{:.1}%", out.stats.l1d_miss_rate * 100.0),
                format!("{:.4}", t.int_unit.avf()),
                format!("{:.4}", t.fp_unit.avf()),
                format!("{:.4}", t.decode.avf()),
                format!("{:.4}", t.regfile.avf()),
            ]);
        }
        let _ = write!(
            text,
            "\n=== {bench} ({n} instructions) ===\n{}",
            render_table(
                &["variant", "IPC", "L1D miss", "AVF int", "AVF fp", "AVF dec", "AVF rf"],
                &rows
            )
        );
    }
    Ok(text)
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
            assert!(f.claim.is_empty() || f.claim.ends_with('\n'), "{}", f.name);
            assert_eq!(f.is_swept(), f.claim.starts_with("paper: "), "{}", f.name);
        }
        assert_eq!((SEC5_4_C[0], &SEC5_4_C[1..]), (1, &C_VALUES[..]));
        assert_eq!(
            names(),
            "table1, table2, fig3, fig4, sec5_1, fig5, fig6a, fig6b, sec5_4, ablation_phase, \
             ablation_trials, ablation_masking, ablation_uarch"
        );
    }
}
