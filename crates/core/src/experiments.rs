//! Generators for every experimental table and figure in the paper's
//! evaluation (Sections 5.1–5.4). Each function returns the rows the paper
//! plots; the `serr-bench` binaries print them.

use std::sync::Arc;

use serr_mc::batched::BATCHED_RNG_SCHEDULE_VERSION;
use serr_mc::{MonteCarlo, MonteCarloConfig, MttfEstimate};
use serr_obs::Obs;
use serr_trace::{ConcatTrace, VulnerabilityTrace};
use serr_types::{Frequency, Mttf, RawErrorRate, Seconds, SerrError};
use serr_workload::synthesized;

use crate::checkpoint::{self, JournalRow, SweepOptions, SweepReport};
use crate::design::Workload;
use crate::jsonio::Json;
use crate::par;
use crate::pipeline::{processor_trace, simulate_benchmarks_with, CACHE_VERSION};
use crate::rates::UnitRates;
use crate::validate::{
    component_reference_rates, system_reference_rates, ComponentValidation, Reference,
    SystemValidation, Validator,
};

/// The three representative SPEC benchmarks used for Figure 6(a): one
/// compute-bound integer, one memory-bound integer, and one floating-point
/// program with pronounced compute/memory phases.
pub const REPRESENTATIVE_BENCHMARKS: [&str; 3] = ["gzip", "mcf", "equake"];

/// Shared experiment configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentConfig {
    /// Instructions of detailed simulation per benchmark. The paper uses
    /// 100M; masking statistics converge far earlier for the synthetic
    /// workloads (see DESIGN.md substitution 3).
    pub sim_instructions: u64,
    /// Workload-generator / simulation seed.
    pub seed: u64,
    /// Monte Carlo configuration.
    pub mc: MonteCarloConfig,
    /// Machine clock.
    pub frequency: Frequency,
}

impl ExperimentConfig {
    /// Fast settings for tests and smoke runs.
    #[must_use]
    pub fn quick() -> Self {
        ExperimentConfig {
            sim_instructions: 60_000,
            seed: 42,
            mc: MonteCarloConfig { trials: 20_000, ..Default::default() },
            frequency: Frequency::base(),
        }
    }

    /// Full settings for the reproduction runs reported in EXPERIMENTS.md.
    #[must_use]
    pub fn full() -> Self {
        ExperimentConfig {
            sim_instructions: 1_000_000,
            seed: 42,
            mc: MonteCarloConfig { trials: 200_000, ..Default::default() },
            frequency: Frequency::base(),
        }
    }

    /// The interactive front-end configuration, shared by the `serr` CLI
    /// and the `serr serve` daemon: [`Self::quick`]'s seed and trial count
    /// with longer simulations (300k instructions) so `spec:` workloads
    /// develop realistic phase structure. The two front ends **must** build
    /// traces from the same config — the service's bit-parity contract with
    /// the batch CLI depends on it — so neither is allowed its own copy of
    /// these numbers.
    #[must_use]
    pub fn cli() -> Self {
        ExperimentConfig { sim_instructions: 300_000, ..Self::quick() }
    }

    /// Paper-scale trace lengths: 8M instructions of detailed simulation
    /// per benchmark (the paper uses 100M). At this length the SPEC
    /// program-phase windows are long enough for the Figure 6(a) corner
    /// discrepancies to appear. The traces are used as simulated: the
    /// longest processor trace (equake, about 4.3M spans) compiles flat
    /// within [`serr_trace::CompiledTrace::MAX_SEGMENTS`].
    #[must_use]
    pub fn paper_scale() -> Self {
        ExperimentConfig { sim_instructions: 8_000_000, ..Self::full() }
    }

    fn validator(&self) -> Validator {
        Validator::new(self.frequency, self.mc)
    }
}

/// Picks the fan-out width for `jobs` independent design points, along with
/// the per-job configuration. When more than one job runs at once, the
/// inner Monte Carlo is pinned to a single thread so a sweep uses one core
/// per design point instead of oversubscribing `jobs × cores`. The engine's
/// chunk-based RNG makes estimates bit-identical at every thread count, so
/// the pinning cannot change any row — only how the same work is scheduled.
fn fanout(cfg: &ExperimentConfig, jobs: usize) -> (usize, ExperimentConfig) {
    let threads = par::fanout_threads(jobs);
    let mut inner = *cfg;
    if threads > 1 {
        inner.mc.threads = 1;
    }
    (threads, inner)
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig::full()
    }
}

/// The checkpoint-journal fingerprint of a sweep: the sweep kind, the full
/// configuration, the versions of the code that computes its rows, and
/// every design-point coordinate. Any change to any of them lands in a
/// different journal file, so a resumed run can never mix rows computed
/// under different settings.
///
/// The versions are the batched sampler's draw schedule
/// ([`BATCHED_RNG_SCHEDULE_VERSION`], which moves every Monte Carlo
/// estimate) and the trace cache's format (`CACHE_VERSION`, bumped when the
/// simulator's traces change). A code revision is deliberately not folded
/// in: that would discard every journal on every commit.
///
/// `mc.threads` is canonicalised to zero first: the engine's chunked RNG
/// makes every estimate bit-identical at any thread count, so a journal
/// written on an 8-core box must resume cleanly on a 64-core one.
fn sweep_fingerprint(kind: &str, cfg: &ExperimentConfig, coords: &[String]) -> u64 {
    let mut canon = *cfg;
    canon.mc.threads = 0;
    let cfg_str = format!("{canon:?}");
    let schedule = format!("rng-schedule-v{BATCHED_RNG_SCHEDULE_VERSION}");
    let cache = format!("trace-cache-v{CACHE_VERSION}");
    let mut parts: Vec<&str> = Vec::with_capacity(4 + coords.len());
    parts.extend([kind, &cfg_str, &schedule, &cache]);
    parts.extend(coords.iter().map(String::as_str));
    checkpoint::fingerprint(&parts)
}

/// Runs the shared-stream Monte Carlo kernel
/// ([`MonteCarlo::component_mttf_multi`]) over the still-pending design
/// points of a sweep, one kernel invocation per distinct trace.
///
/// Groups form by `Arc` identity: every point built on the same shared
/// trace — a workload's, or one protection transform of it — lands in one
/// group whose trace is compiled once and whose RNG/log passes are paid
/// once per chunk for all of its rates (the Fig 6 c-axis rides along
/// because `c` identical components superpose to a `c·λ` rate over the
/// same trace). Returns each point's ground-truth estimate indexed by
/// point position: `None` for points the journal already restored,
/// `Some(Err)` when the point — or its whole group — failed, so a
/// corrupted shared trace degrades every dependent point rather than any
/// of them reporting clean.
fn shared_mc_estimates(
    cfg: &ExperimentConfig,
    obs: Option<&Obs>,
    traces: &[Arc<dyn VulnerabilityTrace>],
    rates: &[RawErrorRate],
    pending: &[usize],
) -> Vec<Option<Result<MttfEstimate, SerrError>>> {
    let mut mc = MonteCarlo::new(cfg.mc);
    if let Some(o) = obs {
        mc = mc.with_observer(o.clone());
    }
    let mut out: Vec<Option<Result<MttfEstimate, SerrError>>> = Vec::with_capacity(traces.len());
    out.resize_with(traces.len(), || None);
    for members in trace_groups(traces, pending) {
        let group_rates: Vec<RawErrorRate> = members.iter().map(|&i| rates[i]).collect();
        match mc.component_mttf_multi(&*traces[members[0]], &group_rates, cfg.frequency) {
            Ok(results) => {
                for (&i, res) in members.iter().zip(results) {
                    out[i] = Some(res);
                }
            }
            // A group-level fault (bad shared trace, exhausted deadline,
            // engine fault in a shared chunk) fails every dependent point.
            Err(e) => {
                for &i in &members {
                    out[i] = Some(Err(e.clone()));
                }
            }
        }
    }
    out
}

/// The pending points of a sweep grouped by trace — `Arc` identity, so
/// every point built on one shared trace lands in one group — in order of
/// first appearance.
fn trace_groups(traces: &[Arc<dyn VulnerabilityTrace>], pending: &[usize]) -> Vec<Vec<usize>> {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for &i in pending {
        match groups.iter_mut().find(|g| Arc::ptr_eq(&traces[g[0]], &traces[i])) {
            Some(members) => members.push(i),
            None => groups.push(vec![i]),
        }
    }
    groups
}

/// Builds every pending point's validation row from its trace group's
/// exact references ([`trace_groups`]). `lists(members)` gives the rates
/// each [`Reference`] prices for a group's points, and every (group,
/// reference) pass — `price(trace, reference, rates)`, one coded walk of
/// the trace — is a task of its own, so the two passes over one trace run
/// side by side and the fan-out is not left waiting on one trace's
/// references. The tasks fan out over `threads`: renewal first (the dearer
/// per (span, rate)), each reference's heaviest trace first, so the fan-out
/// ends with the short tasks. `rows(trace, members, priced)` then assembles
/// a group's rows in `members` order. A panic in a pass fails only its own
/// group's points, as [`SerrError::PointFailed`]. Returns rows indexed by
/// point position: `None` for points the journal restored.
fn prepare_rows<T>(
    threads: usize,
    traces: &[Arc<dyn VulnerabilityTrace>],
    pending: &[usize],
    lists: impl Fn(&[usize]) -> [Vec<RawErrorRate>; 2],
    price: impl Fn(&dyn VulnerabilityTrace, Reference, &[RawErrorRate]) -> Vec<Result<Mttf, SerrError>>
        + Sync,
    rows: impl Fn(
        &dyn VulnerabilityTrace,
        &[usize],
        [Vec<Result<Mttf, SerrError>>; 2],
    ) -> Vec<Result<T, SerrError>>,
) -> Vec<Option<Result<T, SerrError>>> {
    let groups = trace_groups(traces, pending);
    let lists: Vec<[Vec<RawErrorRate>; 2]> = groups.iter().map(|g| lists(g)).collect();
    let mut tasks: Vec<(usize, Reference)> =
        Reference::ALL.iter().flat_map(|&r| (0..groups.len()).map(move |g| (g, r))).collect();
    tasks.sort_by_key(|&(g, r)| {
        let spans = traces[groups[g][0]].span_count_hint();
        (r, std::cmp::Reverse(spans.saturating_mul(lists[g][r as usize].len() as u64)))
    });
    let priced = par::try_par_map(&tasks, threads, |_, &(g, r)| {
        Ok(price(&*traces[groups[g][0]], r, &lists[g][r as usize]))
    });
    let mut passes: Vec<[Option<Result<Vec<Result<Mttf, SerrError>>, SerrError>>; 2]> =
        groups.iter().map(|_| [None, None]).collect();
    for (&(g, r), pass) in tasks.iter().zip(priced) {
        passes[g][r as usize] = Some(pass);
    }
    let mut out: Vec<Option<Result<T, SerrError>>> = Vec::with_capacity(traces.len());
    out.resize_with(traces.len(), || None);
    for (members, [renewal, softarch]) in groups.iter().zip(passes) {
        let built = match (renewal.expect("renewal task"), softarch.expect("SoftArch task")) {
            (Ok(renewal), Ok(softarch)) => rows(&*traces[members[0]], members, [renewal, softarch]),
            (Err(e), _) | (_, Err(e)) => members.iter().map(|_| Err(e.clone())).collect(),
        };
        for (&i, row) in members.iter().zip(built) {
            out[i] = Some(row);
        }
    }
    out
}

/// The rows of every pending single-component point: the grouped Monte
/// Carlo estimates ([`shared_mc_estimates`]), then each trace group's
/// references as [`Validator::components_with_mc`] prices them.
fn prepare_components(
    v: &Validator,
    threads: usize,
    cfg: &ExperimentConfig,
    obs: Option<&Obs>,
    traces: &[Arc<dyn VulnerabilityTrace>],
    rates: &[RawErrorRate],
    pending: &[usize],
) -> Vec<Option<Result<ComponentValidation, SerrError>>> {
    let mc = shared_mc_estimates(cfg, obs, traces, rates, pending);
    let group_rates =
        |members: &[usize]| -> Vec<RawErrorRate> { members.iter().map(|&i| rates[i]).collect() };
    let ests = |members: &[usize]| -> Vec<Result<MttfEstimate, SerrError>> {
        members.iter().map(|&i| prepared_row(&mc, i)).collect()
    };
    prepare_rows(
        threads,
        traces,
        pending,
        |members| component_reference_rates(&group_rates(members), &ests(members)),
        |trace, r, list| v.price(trace, r, list),
        |trace, members, priced| {
            v.component_rows(trace, &group_rates(members), ests(members), priced)
        },
    )
}

/// [`prepare_components`] for Fig 6-style points: each a system of `c`
/// identical components at component rate `N×S` times the baseline,
/// priced as [`Validator::systems_identical_with_mc`] prices them.
fn prepare_systems(
    v: &Validator,
    threads: usize,
    cfg: &ExperimentConfig,
    obs: Option<&Obs>,
    points: &[Fig6Point],
    pending: &[usize],
) -> Vec<Option<Result<SystemValidation, SerrError>>> {
    let traces: Vec<Arc<dyn VulnerabilityTrace>> =
        points.iter().map(|(_, t, _, _)| t.clone()).collect();
    let component_rates: Vec<RawErrorRate> = points
        .iter()
        .map(|(_, _, _, prod)| RawErrorRate::baseline_per_bit().scale(*prod))
        .collect();
    let system_rates: Vec<RawErrorRate> = component_rates
        .iter()
        .zip(points)
        .map(|(rate, (_, _, c, _))| rate.scale(*c as f64))
        .collect();
    let mc = shared_mc_estimates(cfg, obs, &traces, &system_rates, pending);
    let cs = |members: &[usize]| -> Vec<u64> { members.iter().map(|&i| points[i].2).collect() };
    let ests = |members: &[usize]| -> Vec<Result<MttfEstimate, SerrError>> {
        members.iter().map(|&i| prepared_row(&mc, i)).collect()
    };
    prepare_rows(
        threads,
        &traces,
        pending,
        |members| {
            let group_rates: Vec<RawErrorRate> =
                members.iter().map(|&i| component_rates[i]).collect();
            system_reference_rates(&group_rates, &cs(members), &ests(members))
        },
        |trace, r, list| v.price(trace, r, list),
        |_, members, priced| v.system_rows(&cs(members), ests(members), priced),
    )
}

/// Pulls one design point's prepared value out of a `prepare_*` or
/// [`shared_mc_estimates`] output.
fn prepared_row<T: Clone>(
    prepared: &[Option<Result<T, SerrError>>],
    i: usize,
) -> Result<T, SerrError> {
    match prepared.get(i).and_then(Option::as_ref) {
        Some(row) => row.clone(),
        // Unreachable by construction: every pending index is prepared,
        // and only pending points are read.
        None => Err(SerrError::invalid_config(
            "design point was not prepared by the shared sweep kernel",
        )),
    }
}

/// Builds a synthesized workload's component-level masking trace.
///
/// For `day`/`week` these are the paper's duty-cycle loops; `combined`
/// tiles two simulated benchmarks (gzip, swim) for 12 hours each.
///
/// # Errors
///
/// Propagates simulation/trace construction errors.
pub fn synthesized_trace(
    workload: Workload,
    cfg: &ExperimentConfig,
) -> Result<Arc<dyn VulnerabilityTrace>, SerrError> {
    synthesized_trace_with(workload, cfg, None)
}

/// [`synthesized_trace`] recording simulation telemetry on `obs` (see
/// [`simulate_benchmark`](crate::pipeline::simulate_benchmark)).
pub(crate) fn synthesized_trace_with(
    workload: Workload,
    cfg: &ExperimentConfig,
    obs: Option<&Obs>,
) -> Result<Arc<dyn VulnerabilityTrace>, SerrError> {
    match workload {
        Workload::Day => Ok(Arc::new(synthesized::day(cfg.frequency))),
        Workload::Week => Ok(Arc::new(synthesized::week(cfg.frequency))),
        Workload::Combined => Ok(Arc::new(combined_trace(cfg, obs)?)),
        Workload::SpecInt | Workload::SpecFp => Err(SerrError::invalid_config(
            "SPEC workloads use per-benchmark traces; call spec_processor_trace",
        )),
    }
}

/// The `combined` workload: gzip then swim, 12 simulated hours each. The
/// two simulations run in parallel; simulation telemetry goes to `obs`, or
/// to the process-wide observer when `None` (see
/// [`simulate_benchmark`](crate::pipeline::simulate_benchmark)).
///
/// # Errors
///
/// Propagates simulation errors.
pub fn combined_trace(cfg: &ExperimentConfig, obs: Option<&Obs>) -> Result<ConcatTrace, SerrError> {
    let rates = UnitRates::paper();
    let runs = simulate_benchmarks_with(&["gzip", "swim"], cfg.sim_instructions, cfg.seed, obs)?;
    synthesized::combined(
        Arc::new(processor_trace(&runs[0], &rates)?),
        Arc::new(processor_trace(&runs[1], &rates)?),
        cfg.frequency,
    )
}

/// The processor-level masking trace of one SPEC benchmark.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn spec_processor_trace(
    benchmark: &str,
    cfg: &ExperimentConfig,
) -> Result<Arc<dyn VulnerabilityTrace>, SerrError> {
    spec_processor_trace_with(benchmark, cfg, None)
}

/// [`spec_processor_trace`] recording simulation telemetry on `obs` (see
/// [`simulate_benchmark`](crate::pipeline::simulate_benchmark)).
pub(crate) fn spec_processor_trace_with(
    benchmark: &str,
    cfg: &ExperimentConfig,
    obs: Option<&Obs>,
) -> Result<Arc<dyn VulnerabilityTrace>, SerrError> {
    let runs = simulate_benchmarks_with(&[benchmark], cfg.sim_instructions, cfg.seed, obs)?;
    Ok(Arc::new(processor_trace(&runs[0], &UnitRates::paper())?))
}

// ---------------------------------------------------------------------------
// Section 5.1: today's uniprocessors running SPEC.
// ---------------------------------------------------------------------------

/// One benchmark's row of the Section 5.1 result.
#[derive(Debug, Clone, PartialEq)]
pub struct Sec51Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Per-component `(name, AVF, AVF-step error vs Monte Carlo)`.
    pub components: Vec<(String, f64, f64)>,
    /// Worst per-component AVF-step error.
    pub max_component_error: f64,
    /// Worst per-component AVF-step error vs the exact renewal reference
    /// (free of Monte-Carlo sampling noise).
    pub max_component_error_exact: f64,
    /// Processor-level SOFR error vs Monte Carlo.
    pub sofr_error: f64,
    /// Processor-level SOFR error vs the exact renewal reference.
    pub sofr_error_exact: f64,
    /// Simulated IPC (sanity signal for the substrate).
    pub ipc: f64,
}

impl JournalRow for Sec51Row {
    fn to_journal(&self) -> Json {
        let components = self
            .components
            .iter()
            .map(|(name, avf, err)| {
                Json::Arr(vec![Json::Str(name.clone()), Json::Num(*avf), Json::Num(*err)])
            })
            .collect();
        Json::Obj(vec![
            ("benchmark".to_owned(), Json::Str(self.benchmark.clone())),
            ("components".to_owned(), Json::Arr(components)),
            ("max_component_error".to_owned(), Json::Num(self.max_component_error)),
            ("max_component_error_exact".to_owned(), Json::Num(self.max_component_error_exact)),
            ("sofr_error".to_owned(), Json::Num(self.sofr_error)),
            ("sofr_error_exact".to_owned(), Json::Num(self.sofr_error_exact)),
            ("ipc".to_owned(), Json::Num(self.ipc)),
        ])
    }

    fn from_journal(v: &Json) -> Option<Self> {
        let mut components = Vec::new();
        for entry in v.get("components")?.as_array()? {
            let triple = entry.as_array()?;
            if triple.len() != 3 {
                return None;
            }
            components.push((
                triple[0].as_str()?.to_owned(),
                triple[1].as_f64()?,
                triple[2].as_f64()?,
            ));
        }
        Some(Sec51Row {
            benchmark: v.get("benchmark")?.as_str()?.to_owned(),
            components,
            max_component_error: v.get("max_component_error")?.as_f64()?,
            max_component_error_exact: v.get("max_component_error_exact")?.as_f64()?,
            sofr_error: v.get("sofr_error")?.as_f64()?,
            sofr_error_exact: v.get("sofr_error_exact")?.as_f64()?,
            ipc: v.get("ipc")?.as_f64()?,
        })
    }
}

/// Reproduces Section 5.1: for each benchmark, the AVF step per component
/// and the SOFR step across the four components of one processor, all
/// versus Monte Carlo. The paper reports "< 0.5% discrepancy for all cases".
///
/// Benchmarks fan out across cores ([`par::par_map`]); row order follows
/// the input order and every row is bit-identical to a serial run.
///
/// # Errors
///
/// Fails on the first failed benchmark, in input order. Use [`sec5_1_sweep`]
/// to keep the healthy rows (and to checkpoint).
pub fn sec5_1(benchmarks: &[&str], cfg: &ExperimentConfig) -> Result<Vec<Sec51Row>, SerrError> {
    sec5_1_sweep(benchmarks, cfg, &SweepOptions::off())?.into_result()
}

/// Fault-tolerant, checkpointable variant of [`sec5_1`]: a panicking or
/// failing benchmark is reported in [`SweepReport::failures`] while every
/// other row survives, and with checkpointing on, finished benchmarks are
/// journaled so a killed run resumes without recomputing them.
///
/// # Errors
///
/// [`SerrError::JournalLocked`] when another live process holds this
/// sweep's checkpoint journal.
pub fn sec5_1_sweep(
    benchmarks: &[&str],
    cfg: &ExperimentConfig,
    opts: &SweepOptions,
) -> Result<SweepReport<Sec51Row>, SerrError> {
    let coords: Vec<String> = benchmarks.iter().map(|&b| b.to_owned()).collect();
    let fp = sweep_fingerprint("sec5_1", cfg, &coords);
    let (threads, cfg) = fanout(cfg, benchmarks.len());
    checkpoint::run_sweep("sec5_1", fp, benchmarks, threads, opts, |_, &name| {
        sec5_1_row(name, &cfg, opts.obs.as_ref())
    })
}

fn sec5_1_row(
    name: &str,
    cfg: &ExperimentConfig,
    obs: Option<&Obs>,
) -> Result<Sec51Row, SerrError> {
    let rates = UnitRates::paper();
    let v = cfg.validator();
    let run = &simulate_benchmarks_with(&[name], cfg.sim_instructions, cfg.seed, obs)?[0];
    let t = &run.output.traces;
    let units: [(&str, RawErrorRate, Arc<dyn VulnerabilityTrace>); 4] = [
        ("int", rates.int_unit, Arc::new(t.int_unit.clone())),
        ("fp", rates.fp_unit, Arc::new(t.fp_unit.clone())),
        ("decode", rates.decode, Arc::new(t.decode.clone())),
        ("regfile", rates.regfile, Arc::new(t.regfile.clone())),
    ];
    let mut components = Vec::new();
    let mut max_err = 0.0f64;
    let mut max_err_exact = 0.0f64;
    for (unit, rate, trace) in &units {
        if trace.is_never_vulnerable() {
            // FP units on integer benchmarks never fail; the AVF step
            // and the first-principles methods agree trivially.
            components.push(((*unit).to_owned(), 0.0, 0.0));
            continue;
        }
        let cv = v.component(trace, *rate)?;
        components.push(((*unit).to_owned(), cv.avf, cv.avf_error_vs_mc));
        max_err = max_err.max(cv.avf_error_vs_mc);
        max_err_exact = max_err_exact.max(cv.avf_error_vs_renewal);
    }
    let parts: Vec<(RawErrorRate, Arc<dyn VulnerabilityTrace>)> =
        units.iter().map(|(_, r, t)| (*r, t.clone())).collect();
    let sv = v.system_parts(&parts)?;
    Ok(Sec51Row {
        benchmark: name.to_owned(),
        components,
        max_component_error: max_err,
        max_component_error_exact: max_err_exact,
        sofr_error: sv.sofr_error_vs_mc,
        sofr_error_exact: sv.sofr_error_vs_renewal,
        ipc: run.output.stats.ipc(),
    })
}

// ---------------------------------------------------------------------------
// Figure 5: the AVF step across the broad design space.
// ---------------------------------------------------------------------------

/// One point of Figure 5.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Row {
    /// Workload label.
    pub workload: String,
    /// The `N × S` product.
    pub n_times_s: f64,
    /// The component's AVF.
    pub avf: f64,
    /// AVF-step MTTF in years.
    pub mttf_avf_years: f64,
    /// Monte Carlo MTTF in years.
    pub mttf_mc_years: f64,
    /// AVF-step error vs Monte Carlo.
    pub error: f64,
    /// SoftArch error vs Monte Carlo at the same point (Section 5.4 data).
    pub softarch_error: f64,
}

impl JournalRow for Fig5Row {
    fn to_journal(&self) -> Json {
        Json::Obj(vec![
            ("workload".to_owned(), Json::Str(self.workload.clone())),
            ("n_times_s".to_owned(), Json::Num(self.n_times_s)),
            ("avf".to_owned(), Json::Num(self.avf)),
            ("mttf_avf_years".to_owned(), Json::Num(self.mttf_avf_years)),
            ("mttf_mc_years".to_owned(), Json::Num(self.mttf_mc_years)),
            ("error".to_owned(), Json::Num(self.error)),
            ("softarch_error".to_owned(), Json::Num(self.softarch_error)),
        ])
    }

    fn from_journal(v: &Json) -> Option<Self> {
        Some(Fig5Row {
            workload: v.get("workload")?.as_str()?.to_owned(),
            n_times_s: v.get("n_times_s")?.as_f64()?,
            avf: v.get("avf")?.as_f64()?,
            mttf_avf_years: v.get("mttf_avf_years")?.as_f64()?,
            mttf_mc_years: v.get("mttf_mc_years")?.as_f64()?,
            error: v.get("error")?.as_f64()?,
            softarch_error: v.get("softarch_error")?.as_f64()?,
        })
    }
}

/// Reproduces Figure 5: AVF-step error for the synthesized workloads at
/// representative `N×S` values (C = 1 throughout).
///
/// Traces are built once per workload (`combined` simulates gzip and swim
/// in parallel), then the `workload × N×S` design points fan out across
/// cores with deterministic row order.
///
/// # Errors
///
/// Propagates trace-construction errors, then fails on the first failed
/// design point in input order. Use [`fig5_sweep`] to keep healthy rows.
pub fn fig5(
    workloads: &[Workload],
    n_times_s: &[f64],
    cfg: &ExperimentConfig,
) -> Result<Vec<Fig5Row>, SerrError> {
    fig5_sweep(workloads, n_times_s, cfg, &SweepOptions::off())?.into_result()
}

/// Fault-tolerant, checkpointable variant of [`fig5`].
///
/// # Errors
///
/// Only trace construction (shared by all points of a workload) and a
/// checkpoint journal held by another live process
/// ([`SerrError::JournalLocked`]) abort the sweep; per-point panics and
/// errors land in [`SweepReport::failures`].
pub fn fig5_sweep(
    workloads: &[Workload],
    n_times_s: &[f64],
    cfg: &ExperimentConfig,
    opts: &SweepOptions,
) -> Result<SweepReport<Fig5Row>, SerrError> {
    let mut points: Vec<(Workload, Arc<dyn VulnerabilityTrace>, f64)> = Vec::new();
    for &w in workloads {
        let trace = synthesized_trace_with(w, cfg, opts.obs.as_ref())?;
        for &prod in n_times_s {
            points.push((w, trace.clone(), prod));
        }
    }
    let coords: Vec<String> =
        points.iter().map(|(w, _, prod)| format!("{}@{prod:?}", w.label())).collect();
    let fp = sweep_fingerprint("fig5", cfg, &coords);
    let (threads, inner) = fanout(cfg, points.len());
    let v = match &opts.obs {
        Some(o) => inner.validator().with_observer(o.clone()),
        None => inner.validator(),
    };
    // One shared-stream kernel run per workload trace covers every pending
    // N×S point of that workload (λ-axis CRN reuse), and one coded pass per
    // trace and reference prices its renewal and SoftArch values; the
    // per-point eval only reads its row. The kernel keeps the caller's
    // thread budget — the per-point pinning in `fanout` does not apply to
    // it.
    let traces: Vec<Arc<dyn VulnerabilityTrace>> =
        points.iter().map(|(_, t, _)| t.clone()).collect();
    let rates: Vec<RawErrorRate> =
        points.iter().map(|(_, _, prod)| RawErrorRate::baseline_per_bit().scale(*prod)).collect();
    checkpoint::run_sweep_prepared(
        "fig5",
        fp,
        &points,
        threads,
        opts,
        |pending| prepare_components(&v, threads, cfg, opts.obs.as_ref(), &traces, &rates, pending),
        |i, (w, _, prod), prepared| {
            let cv = prepared_row(prepared, i)?;
            Ok(Fig5Row {
                workload: w.label().to_owned(),
                n_times_s: *prod,
                avf: cv.avf,
                mttf_avf_years: cv.mttf_avf.as_years(),
                mttf_mc_years: cv.mttf_mc.mttf.as_years(),
                error: cv.avf_error_vs_mc,
                softarch_error: cv.softarch_error_vs_mc,
            })
        },
    )
}

// ---------------------------------------------------------------------------
// Figure 6: the SOFR step across the broad design space.
// ---------------------------------------------------------------------------

/// One point of Figure 6 (either panel).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Row {
    /// Workload or benchmark label.
    pub workload: String,
    /// Number of components (processors).
    pub c: u64,
    /// The `N × S` product per component.
    pub n_times_s: f64,
    /// SOFR-step system MTTF in years.
    pub mttf_sofr_years: f64,
    /// Monte Carlo system MTTF in years.
    pub mttf_mc_years: f64,
    /// SOFR-step error vs Monte Carlo.
    pub error: f64,
    /// SoftArch error vs Monte Carlo at the same point.
    pub softarch_error: f64,
}

impl JournalRow for Fig6Row {
    fn to_journal(&self) -> Json {
        Json::Obj(vec![
            ("workload".to_owned(), Json::Str(self.workload.clone())),
            ("c".to_owned(), Json::Num(self.c as f64)),
            ("n_times_s".to_owned(), Json::Num(self.n_times_s)),
            ("mttf_sofr_years".to_owned(), Json::Num(self.mttf_sofr_years)),
            ("mttf_mc_years".to_owned(), Json::Num(self.mttf_mc_years)),
            ("error".to_owned(), Json::Num(self.error)),
            ("softarch_error".to_owned(), Json::Num(self.softarch_error)),
        ])
    }

    fn from_journal(v: &Json) -> Option<Self> {
        Some(Fig6Row {
            workload: v.get("workload")?.as_str()?.to_owned(),
            c: v.get("c")?.as_u64()?,
            n_times_s: v.get("n_times_s")?.as_f64()?,
            mttf_sofr_years: v.get("mttf_sofr_years")?.as_f64()?,
            mttf_mc_years: v.get("mttf_mc_years")?.as_f64()?,
            error: v.get("error")?.as_f64()?,
            softarch_error: v.get("softarch_error")?.as_f64()?,
        })
    }
}

/// Reproduces Figure 6(a): SOFR error for clusters of processors running
/// SPEC benchmarks.
///
/// The benchmarks simulate in parallel, then the `benchmark × C × N×S`
/// design points fan out across cores; row order is deterministic.
///
/// # Errors
///
/// Propagates trace-construction errors, then fails on the first failed
/// design point in input order. Use [`fig6a_sweep`] to keep healthy rows.
pub fn fig6a(
    benchmarks: &[&str],
    c_values: &[u64],
    n_times_s: &[f64],
    cfg: &ExperimentConfig,
) -> Result<Vec<Fig6Row>, SerrError> {
    fig6a_sweep(benchmarks, c_values, n_times_s, cfg, &SweepOptions::off())?.into_result()
}

/// Fault-tolerant, checkpointable variant of [`fig6a`].
///
/// # Errors
///
/// Only benchmark simulation / trace construction and a held checkpoint
/// journal ([`SerrError::JournalLocked`]) abort the sweep; per-point panics
/// and errors land in [`SweepReport::failures`].
pub fn fig6a_sweep(
    benchmarks: &[&str],
    c_values: &[u64],
    n_times_s: &[f64],
    cfg: &ExperimentConfig,
    opts: &SweepOptions,
) -> Result<SweepReport<Fig6Row>, SerrError> {
    let mut points = Vec::new();
    let runs =
        simulate_benchmarks_with(benchmarks, cfg.sim_instructions, cfg.seed, opts.obs.as_ref())?;
    for (name, run) in benchmarks.iter().zip(runs) {
        let trace: Arc<dyn VulnerabilityTrace> =
            Arc::new(processor_trace(&run, &UnitRates::paper())?);
        collect_fig6_points(&mut points, name, &trace, c_values, n_times_s);
    }
    fig6_rows_sweep("fig6a", points, cfg, opts)
}

/// Reproduces Figure 6(b): SOFR error for clusters running the synthesized
/// workloads. Design points fan out across cores like [`fig6a`].
///
/// # Errors
///
/// Propagates trace-construction errors, then fails on the first failed
/// design point in input order. Use [`fig6b_sweep`] to keep healthy rows.
pub fn fig6b(
    workloads: &[Workload],
    c_values: &[u64],
    n_times_s: &[f64],
    cfg: &ExperimentConfig,
) -> Result<Vec<Fig6Row>, SerrError> {
    fig6b_sweep(workloads, c_values, n_times_s, cfg, &SweepOptions::off())?.into_result()
}

/// Fault-tolerant, checkpointable variant of [`fig6b`].
///
/// # Errors
///
/// Only trace construction and a held checkpoint journal
/// ([`SerrError::JournalLocked`]) abort the sweep; per-point panics and
/// errors land in [`SweepReport::failures`].
pub fn fig6b_sweep(
    workloads: &[Workload],
    c_values: &[u64],
    n_times_s: &[f64],
    cfg: &ExperimentConfig,
    opts: &SweepOptions,
) -> Result<SweepReport<Fig6Row>, SerrError> {
    let mut points = Vec::new();
    for &w in workloads {
        let trace = synthesized_trace_with(w, cfg, opts.obs.as_ref())?;
        collect_fig6_points(&mut points, w.label(), &trace, c_values, n_times_s);
    }
    fig6_rows_sweep("fig6b", points, cfg, opts)
}

/// One Figure 6 design point awaiting evaluation: `(label, trace, C, N×S)`.
type Fig6Point = (String, Arc<dyn VulnerabilityTrace>, u64, f64);

fn collect_fig6_points(
    points: &mut Vec<Fig6Point>,
    label: &str,
    trace: &Arc<dyn VulnerabilityTrace>,
    c_values: &[u64],
    n_times_s: &[f64],
) {
    for &c in c_values {
        for &prod in n_times_s {
            points.push((label.to_owned(), trace.clone(), c, prod));
        }
    }
}

/// The Figure 6 design-point coordinate string used for journal
/// fingerprints: label, cluster size, and `N×S` (exact `{:?}` float form).
fn fig6_point_coords(points: &[Fig6Point]) -> Vec<String> {
    points.iter().map(|(label, _, c, prod)| format!("{label}@{c}@{prod:?}")).collect()
}

fn fig6_rows_sweep(
    kind: &str,
    points: Vec<Fig6Point>,
    cfg: &ExperimentConfig,
    opts: &SweepOptions,
) -> Result<SweepReport<Fig6Row>, SerrError> {
    let fp = sweep_fingerprint(kind, cfg, &fig6_point_coords(&points));
    let (threads, inner) = fanout(cfg, points.len());
    let v = match &opts.obs {
        Some(o) => inner.validator().with_observer(o.clone()),
        None => inner.validator(),
    };
    // The Fig 6 grid reuses one shared-stream kernel run per trace across
    // its whole `C × N×S` plane: identical phase-aligned components
    // superpose to a single process at `c·λ`, so every cell is one rate of
    // a λ-sweep over the shared trace (see `serr_mc::sweep`). The exact
    // references ride the same grouping: one coded pass per trace and
    // reference.
    checkpoint::run_sweep_prepared(
        kind,
        fp,
        &points,
        threads,
        opts,
        |pending| prepare_systems(&v, threads, cfg, opts.obs.as_ref(), &points, pending),
        |i, (label, _, c, prod), prepared| {
            let sv = prepared_row(prepared, i)?;
            Ok(Fig6Row {
                workload: label.clone(),
                c: *c,
                n_times_s: *prod,
                mttf_sofr_years: sv.mttf_sofr.as_years(),
                mttf_mc_years: sv.mttf_mc.mttf.as_years(),
                error: sv.sofr_error_vs_mc,
                softarch_error: sv.softarch_error_vs_mc,
            })
        },
    )
}

// ---------------------------------------------------------------------------
// Section 5.4: SoftArch across the design space.
// ---------------------------------------------------------------------------

/// One point of the Section 5.4 sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Sec54Row {
    /// Workload label.
    pub workload: String,
    /// Number of components.
    pub c: u64,
    /// The `N × S` product per component.
    pub n_times_s: f64,
    /// SoftArch error vs Monte Carlo.
    pub softarch_error: f64,
    /// SoftArch error vs the exact renewal answer (noise-free reference).
    pub softarch_error_vs_renewal: f64,
}

impl JournalRow for Sec54Row {
    fn to_journal(&self) -> Json {
        Json::Obj(vec![
            ("workload".to_owned(), Json::Str(self.workload.clone())),
            ("c".to_owned(), Json::Num(self.c as f64)),
            ("n_times_s".to_owned(), Json::Num(self.n_times_s)),
            ("softarch_error".to_owned(), Json::Num(self.softarch_error)),
            ("softarch_error_vs_renewal".to_owned(), Json::Num(self.softarch_error_vs_renewal)),
        ])
    }

    fn from_journal(v: &Json) -> Option<Self> {
        Some(Sec54Row {
            workload: v.get("workload")?.as_str()?.to_owned(),
            c: v.get("c")?.as_u64()?,
            n_times_s: v.get("n_times_s")?.as_f64()?,
            softarch_error: v.get("softarch_error")?.as_f64()?,
            softarch_error_vs_renewal: v.get("softarch_error_vs_renewal")?.as_f64()?,
        })
    }
}

/// Reproduces Section 5.4: SoftArch versus Monte Carlo over the design
/// space. The paper reports "< 1% for a single component and less than 2%
/// for the full system".
///
/// # Errors
///
/// Propagates trace-construction errors, then fails on the first failed
/// design point in input order. Use [`sec5_4_sweep`] to keep healthy rows.
pub fn sec5_4(
    workloads: &[Workload],
    c_values: &[u64],
    n_times_s: &[f64],
    cfg: &ExperimentConfig,
) -> Result<Vec<Sec54Row>, SerrError> {
    sec5_4_sweep(workloads, c_values, n_times_s, cfg, &SweepOptions::off())?.into_result()
}

/// Fault-tolerant, checkpointable variant of [`sec5_4`].
///
/// # Errors
///
/// Only trace construction and a held checkpoint journal
/// ([`SerrError::JournalLocked`]) abort the sweep; per-point panics and
/// errors land in [`SweepReport::failures`].
pub fn sec5_4_sweep(
    workloads: &[Workload],
    c_values: &[u64],
    n_times_s: &[f64],
    cfg: &ExperimentConfig,
    opts: &SweepOptions,
) -> Result<SweepReport<Sec54Row>, SerrError> {
    let mut points = Vec::new();
    for &w in workloads {
        let trace = synthesized_trace_with(w, cfg, opts.obs.as_ref())?;
        collect_fig6_points(&mut points, w.label(), &trace, c_values, n_times_s);
    }
    let fp = sweep_fingerprint("sec5_4", cfg, &fig6_point_coords(&points));
    let (threads, inner) = fanout(cfg, points.len());
    let v = match &opts.obs {
        Some(o) => inner.validator().with_observer(o.clone()),
        None => inner.validator(),
    };
    checkpoint::run_sweep_prepared(
        "sec5_4",
        fp,
        &points,
        threads,
        opts,
        |pending| prepare_systems(&v, threads, cfg, opts.obs.as_ref(), &points, pending),
        |i, (label, _, c, prod), prepared| {
            let sv = prepared_row(prepared, i)?;
            Ok(Sec54Row {
                workload: label.clone(),
                c: *c,
                n_times_s: *prod,
                softarch_error: sv.softarch_error_vs_mc,
                softarch_error_vs_renewal: serr_types::relative_error(
                    sv.mttf_softarch.as_secs(),
                    sv.mttf_renewal.as_secs(),
                ),
            })
        },
    )
}

/// Helper: the length of one iteration of a workload's trace in wall-clock
/// time, for reports.
#[must_use]
pub fn trace_period(trace: &dyn VulnerabilityTrace, freq: Frequency) -> Seconds {
    Seconds::new(trace.period_cycles() as f64 / freq.hz())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ExperimentConfig {
        let mut c = ExperimentConfig::quick();
        c.sim_instructions = 30_000;
        c.mc.trials = 15_000;
        c
    }

    #[test]
    fn sec5_1_matches_paper_for_one_benchmark() {
        let rows = sec5_1(&["gzip"], &cfg()).unwrap();
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        // Paper: < 0.5% everywhere. MC noise at 15k trials is ~1.6% (95%),
        // so allow 3%; the renewal-referenced error in validate.rs tests
        // pins the methodology itself much tighter.
        assert!(row.max_component_error < 0.03, "{row:?}");
        assert!(row.sofr_error < 0.03, "{row:?}");
        assert!(row.ipc > 0.1);
        assert_eq!(row.components.len(), 4);
    }

    #[test]
    fn fig5_day_shows_error_growth_with_n_s() {
        let rows = fig5(&[Workload::Day], &[1e7, 1e11, 1e13], &cfg()).unwrap();
        assert_eq!(rows.len(), 3);
        // Small N×S: valid regime. Large N×S: the paper's up-to-90% regime.
        assert!(rows[0].error < 0.05, "small N×S: {}", rows[0].error);
        assert!(rows[2].error > 0.3, "large N×S: {}", rows[2].error);
        // SoftArch stays accurate everywhere (within MC noise).
        for r in &rows {
            assert!(r.softarch_error < 0.05, "{r:?}");
        }
        assert!((rows[0].avf - 0.5).abs() < 1e-9);
    }

    #[test]
    fn fig6b_day_shows_error_growth_with_c() {
        let rows = fig6b(&[Workload::Day], &[2, 5_000], &[1e8], &cfg()).unwrap();
        assert_eq!(rows.len(), 2);
        assert!(rows[0].error < 0.05, "C=2: {}", rows[0].error);
        // The paper reports ~11% at (N×S = 1e8, C = 5000); under this
        // workspace's start-at-busy-phase convention the discrepancy at the
        // same crossover point is much larger (~100%) — the crossover
        // location matches, the steepness depends on the (unstated) trial
        // start-phase convention. See EXPERIMENTS.md.
        assert!(rows[1].error > 0.3, "C=5000: {}", rows[1].error);
    }

    #[test]
    fn sec5_4_softarch_accurate_in_avf_breaking_regime() {
        let rows = sec5_4(&[Workload::Week], &[5_000], &[1e8], &cfg()).unwrap();
        assert_eq!(rows.len(), 1);
        assert!(rows[0].softarch_error_vs_renewal < 1e-5, "{:?}", rows[0]);
        assert!(rows[0].softarch_error < 0.05, "{:?}", rows[0]);
    }

    /// Round-trips each row type through its journal encoding and checks
    /// bit-identity (PartialEq on f64 is exact for the finite values used).
    #[test]
    fn all_row_types_roundtrip_through_the_journal() {
        let sec51 = Sec51Row {
            benchmark: "gzip".to_owned(),
            components: vec![
                ("int".to_owned(), 0.3125, 0.001_953_125), // exact binary fractions
                ("fp".to_owned(), 0.1 + 0.2, 1.0 / 3.0),   // awkward ones
            ],
            max_component_error: 0.017,
            max_component_error_exact: 3.2e-7,
            sofr_error: 0.004,
            sofr_error_exact: 1.1e-9,
            ipc: 1.37,
        };
        assert_eq!(Sec51Row::from_journal(&sec51.to_journal()).unwrap(), sec51);

        let fig5 = Fig5Row {
            workload: "day".to_owned(),
            n_times_s: 1e13,
            avf: 0.5,
            mttf_avf_years: 12.34,
            mttf_mc_years: 6.78,
            error: 0.9,
            softarch_error: 0.01,
        };
        assert_eq!(Fig5Row::from_journal(&fig5.to_journal()).unwrap(), fig5);

        let fig6 = Fig6Row {
            workload: "week".to_owned(),
            c: 5_000,
            n_times_s: 1e8,
            mttf_sofr_years: 1.0 / 7.0,
            mttf_mc_years: 0.1,
            error: 0.11,
            softarch_error: 0.02,
        };
        assert_eq!(Fig6Row::from_journal(&fig6.to_journal()).unwrap(), fig6);

        let sec54 = Sec54Row {
            workload: "combined".to_owned(),
            c: 2,
            n_times_s: 1e10,
            softarch_error: 0.015,
            softarch_error_vs_renewal: 2.5e-6,
        };
        assert_eq!(Sec54Row::from_journal(&sec54.to_journal()).unwrap(), sec54);

        // Schema mismatch (missing field) must decode to None, not garbage.
        assert!(Fig5Row::from_journal(&sec54.to_journal()).is_none());
    }

    /// The acceptance scenario at the experiments layer: a checkpointed
    /// sweep re-invoked after completing restores every row from the
    /// journal — zero recomputation — bit-identically.
    #[test]
    fn fig5_sweep_checkpoints_and_resumes_bit_identically() {
        let dir = std::env::temp_dir().join(format!("serr-fig5-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let c = cfg();
        let points: &[f64] = &[1e7, 1e13];

        let first =
            fig5_sweep(&[Workload::Day], points, &c, &SweepOptions::fresh().in_dir(&dir)).unwrap();
        assert!(first.failures.is_empty());
        assert_eq!((first.computed, first.resumed), (2, 0));

        let second =
            fig5_sweep(&[Workload::Day], points, &c, &SweepOptions::resume().in_dir(&dir)).unwrap();
        assert!(second.failures.is_empty());
        assert_eq!((second.computed, second.resumed), (0, 2));
        assert_eq!(second.rows.len(), first.rows.len());
        for (a, b) in first.rows.iter().zip(&second.rows) {
            assert_eq!(a.workload, b.workload);
            assert_eq!(a.mttf_mc_years.to_bits(), b.mttf_mc_years.to_bits());
            assert_eq!(a.error.to_bits(), b.error.to_bits());
            assert_eq!(a.softarch_error.to_bits(), b.softarch_error.to_bits());
        }

        // A different config must not resume from this journal.
        let mut other = c;
        other.mc.trials += 1;
        let third =
            fig5_sweep(&[Workload::Day], points, &other, &SweepOptions::resume().in_dir(&dir))
                .unwrap();
        assert_eq!((third.computed, third.resumed), (2, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A journal written by the per-point path — one independent Monte
    /// Carlo engine run per design point through [`Validator::component`] —
    /// must resume bit-identically under the shared-stream kernel: same
    /// sweep name, same fingerprint (both paths consume the same draw
    /// schedule), same bits in every restored row, and the
    /// points the legacy run never reached compute on the kernel path to
    /// exactly the values the legacy path would have produced.
    #[test]
    fn legacy_per_point_journal_resumes_bit_identically_under_the_kernel() {
        let dir = std::env::temp_dir().join(format!("serr-fig5-legacy-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let c = cfg();
        let n_points: &[f64] = &[1e7, 1e10, 1e13];

        // Rebuild exactly the design points and fingerprint `fig5_sweep`
        // derives, then journal a two-point prefix the way the old code
        // did — `run_sweep` with a per-point independent engine run —
        // simulating a legacy run interrupted before its last point.
        let trace = synthesized_trace(Workload::Day, &c).unwrap();
        let points: Vec<(Workload, Arc<dyn VulnerabilityTrace>, f64)> =
            n_points.iter().map(|&prod| (Workload::Day, trace.clone(), prod)).collect();
        let coords: Vec<String> =
            points.iter().map(|(w, _, prod)| format!("{}@{prod:?}", w.label())).collect();
        let fp = sweep_fingerprint("fig5", &c, &coords);
        let (threads, inner) = fanout(&c, points.len());
        let v = inner.validator();
        let legacy = checkpoint::run_sweep(
            "fig5",
            fp,
            &points[..2],
            threads,
            &SweepOptions::fresh().in_dir(&dir),
            |_, (w, trace, prod)| {
                let cv = v.component(&**trace, RawErrorRate::baseline_per_bit().scale(*prod))?;
                Ok(Fig5Row {
                    workload: w.label().to_owned(),
                    n_times_s: *prod,
                    avf: cv.avf,
                    mttf_avf_years: cv.mttf_avf.as_years(),
                    mttf_mc_years: cv.mttf_mc.mttf.as_years(),
                    error: cv.avf_error_vs_mc,
                    softarch_error: cv.softarch_error_vs_mc,
                })
            },
        )
        .unwrap();
        assert!(legacy.failures.is_empty());
        assert_eq!((legacy.computed, legacy.resumed), (2, 0));

        // Resume under the kernel: the legacy prefix restores from the
        // journal; only the third point runs, on the shared-stream path.
        let resumed =
            fig5_sweep(&[Workload::Day], n_points, &c, &SweepOptions::resume().in_dir(&dir))
                .unwrap();
        assert!(resumed.failures.is_empty());
        assert_eq!((resumed.computed, resumed.resumed), (1, 2));

        // Every row — legacy-restored or kernel-computed — is bit-identical
        // to an un-journaled kernel run of the whole sweep.
        let fresh = fig5(&[Workload::Day], n_points, &c).unwrap();
        assert_eq!(resumed.rows.len(), fresh.len());
        for (a, b) in resumed.rows.iter().zip(&fresh) {
            assert_eq!(a.workload, b.workload);
            assert_eq!(a.n_times_s.to_bits(), b.n_times_s.to_bits());
            assert_eq!(a.avf.to_bits(), b.avf.to_bits());
            assert_eq!(a.mttf_avf_years.to_bits(), b.mttf_avf_years.to_bits());
            assert_eq!(a.mttf_mc_years.to_bits(), b.mttf_mc_years.to_bits());
            assert_eq!(a.error.to_bits(), b.error.to_bits());
            assert_eq!(a.softarch_error.to_bits(), b.softarch_error.to_bits());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A sweep journal written under the fingerprint that left out the
    /// draw-schedule and trace-cache versions — rows computed by schedule
    /// v1 — is never resumed: every point recomputes under the current
    /// schedule, and the stale file is left unread.
    #[test]
    fn journal_from_the_unversioned_fingerprint_is_not_resumed() {
        let dir = std::env::temp_dir().join(format!("serr-fig5-stale-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let c = cfg();
        let n_points: &[f64] = &[1e7, 1e13];
        let coords: Vec<String> =
            n_points.iter().map(|prod| format!("{}@{prod:?}", Workload::Day.label())).collect();
        let mut canon = c;
        canon.mc.threads = 0;
        let cfg_str = format!("{canon:?}");
        let mut parts = vec!["fig5", cfg_str.as_str()];
        parts.extend(coords.iter().map(String::as_str));
        let stale_fp = checkpoint::fingerprint(&parts);
        assert_ne!(stale_fp, sweep_fingerprint("fig5", &c, &coords));

        // Journal both points under the stale fingerprint with rows no
        // estimator would produce, so a resumed row is unmistakable.
        let stale = checkpoint::run_sweep(
            "fig5",
            stale_fp,
            n_points,
            1,
            &SweepOptions::fresh().in_dir(&dir),
            |_, &prod| {
                Ok(Fig5Row {
                    workload: Workload::Day.label().to_owned(),
                    n_times_s: prod,
                    avf: -1.0,
                    mttf_avf_years: -1.0,
                    mttf_mc_years: -1.0,
                    error: -1.0,
                    softarch_error: -1.0,
                })
            },
        )
        .unwrap();
        assert_eq!((stale.computed, stale.resumed), (2, 0));

        let resumed =
            fig5_sweep(&[Workload::Day], n_points, &c, &SweepOptions::resume().in_dir(&dir))
                .unwrap();
        assert!(resumed.failures.is_empty());
        assert_eq!((resumed.computed, resumed.resumed), (2, 0));
        assert!(resumed.rows.iter().all(|r| r.mttf_mc_years > 0.0 && r.avf >= 0.0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A panic in one trace group's reference pass fails that group's
    /// points only, though the group's other pass succeeded; the other
    /// group's rows and the unprepared points are untouched.
    #[test]
    fn a_panicking_reference_task_fails_only_its_own_group() {
        use serr_trace::IntervalTrace;
        let healthy: Arc<dyn VulnerabilityTrace> =
            Arc::new(IntervalTrace::constant(10, 1.0).unwrap());
        let poisoned: Arc<dyn VulnerabilityTrace> =
            Arc::new(IntervalTrace::constant(20, 1.0).unwrap());
        let traces = vec![healthy.clone(), poisoned.clone(), healthy, poisoned.clone(), poisoned];
        let rate = RawErrorRate::baseline_per_bit();
        for threads in [1, 3] {
            let rows = prepare_rows(
                threads,
                &traces,
                &[0, 1, 2, 3],
                |members| [vec![rate; members.len()], vec![rate; members.len() + 1]],
                |trace, r, list| {
                    if r == Reference::SoftArch {
                        assert_ne!(trace.period_cycles(), 20, "poisoned group");
                    }
                    list.iter().map(|_| Ok(Mttf::from_secs(1.0))).collect()
                },
                |_, members, [renewal, softarch]| {
                    assert_eq!((renewal.len(), softarch.len()), (members.len(), members.len() + 1));
                    members.iter().map(|&i| Ok(i * 10)).collect()
                },
            );
            assert_eq!(rows.len(), 5);
            assert_eq!(rows[0], Some(Ok(0)));
            assert_eq!(rows[2], Some(Ok(20)));
            for i in [1, 3] {
                match &rows[i] {
                    Some(Err(SerrError::PointFailed { payload, .. })) => {
                        assert!(payload.contains("poisoned group"), "{payload}");
                    }
                    other => panic!("point {i}: {other:?}"),
                }
            }
            assert_eq!(rows[4], None);
        }
    }

    /// Rates at which an estimator cannot resolve a positive MTTF fail as
    /// typed errors on their own design points; every other point of the
    /// same trace group keeps the row a per-point `Validator` call gives.
    #[test]
    fn extreme_rates_fail_only_their_own_points() {
        let c = ExperimentConfig { mc: MonteCarloConfig { trials: 2_000, ..cfg().mc }, ..cfg() };
        let v = c.validator();
        let trace = synthesized_trace(Workload::Day, &c).unwrap();
        // SoftArch's MTTF rounds to zero at 1e300/yr; the Monte Carlo mean
        // overflows at 1e-300/yr.
        let n_s = [1e7, 1e308, 1e-292, 1e12];
        let report = fig5_sweep(&[Workload::Day], &n_s, &c, &SweepOptions::off()).unwrap();
        let failed: Vec<usize> = report.failures.iter().map(|f| f.index).collect();
        assert_eq!(failed, vec![1, 2]);
        for f in &report.failures {
            assert!(matches!(f.error, SerrError::InvalidValue { .. }), "{:?}", f.error);
            let rate = RawErrorRate::baseline_per_bit().scale(n_s[f.index]);
            // Rendered, since a NaN payload never compares equal.
            assert_eq!(v.component(&*trace, rate).unwrap_err().to_string(), f.error.to_string());
        }
        for (row, prod) in report.rows.iter().zip([1e7, 1e12]) {
            let want = v.component(&*trace, RawErrorRate::baseline_per_bit().scale(prod)).unwrap();
            assert_eq!(row.mttf_mc_years.to_bits(), want.mttf_mc.mttf.as_years().to_bits());
            assert_eq!(row.softarch_error.to_bits(), want.softarch_error_vs_mc.to_bits());
        }

        // A cluster of u64::MAX components at 1e10/yr each.
        let report =
            fig6b_sweep(&[Workload::Day], &[2, u64::MAX], &[1e18], &c, &SweepOptions::off())
                .unwrap();
        assert_eq!(report.rows.len(), 1);
        assert_eq!(report.failures.len(), 1);
        let f = &report.failures[0];
        assert_eq!(f.index, 1);
        let rate = RawErrorRate::baseline_per_bit().scale(1e18);
        let want = v.system_identical(trace, rate, u64::MAX).unwrap_err();
        assert_eq!(want.to_string(), f.error.to_string());
    }

    #[test]
    fn synthesized_traces_have_paper_periods() {
        let c = cfg();
        let day = synthesized_trace(Workload::Day, &c).unwrap();
        assert_eq!(trace_period(&day, c.frequency).as_hours().round() as u64, 24);
        let week = synthesized_trace(Workload::Week, &c).unwrap();
        assert_eq!(trace_period(&week, c.frequency).as_days().round() as u64, 7);
        assert!(matches!(
            synthesized_trace(Workload::SpecInt, &c),
            Err(SerrError::InvalidConfig { .. })
        ));
    }
}
