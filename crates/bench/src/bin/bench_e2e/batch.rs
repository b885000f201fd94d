//! The batch workloads: the paper's Fig 5 and Fig 6a sweeps and a dense
//! Fig 5-style rate sweep, run through the public sweep entry points
//! (`experiments::fig5_sweep` / `fig6a_sweep`) exactly as the figure
//! binaries run them.
//!
//! Each workload runs in fresh child processes of this binary (see
//! [`run`]), each with its own temporary trace cache and checkpoint
//! directory, so every set-up starts from an empty cache and nothing
//! touches the repository's `target/serr-*` directories.

use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

use serr_analytic::renewal::renewal_mttf;
use serr_core::avf::avf_step_mttf;
use serr_core::checkpoint::{fingerprint, Journal, JournalRow, SweepOptions, SweepReport};
use serr_core::experiments::{
    fig5_sweep, fig6a_sweep, spec_processor_trace, synthesized_trace, ExperimentConfig, Fig5Row,
    Fig6Row, REPRESENTATIVE_BENCHMARKS,
};
use serr_core::jsonio::Json;
use serr_core::pipeline::{load_cache_entry_mmap, simulate_benchmark, write_cache_entry};
use serr_core::prelude::Workload;
use serr_core::sofr::sofr_mttf_identical;
use serr_mc::{MonteCarlo, MttfEstimate};
use serr_obs::{MetricsSnapshot, Obs};
use serr_softarch::SoftArch;
use serr_trace::{CompiledTrace, VulnerabilityTrace};
use serr_types::{relative_error, RawErrorRate, SerrError};

use crate::spans::Spans;
use crate::stats::{self, Digest};
use crate::{Ctx, Metric, Outcome};

/// The paper's §5.4 bound on SoftArch error. SoftArch equals exact renewal
/// on these traces, so a row above it means the Monte Carlo is off.
const SOFTARCH_ERROR_BOUND: f64 = 0.02;

/// The `fig5` binary's N·S grid.
const FIG5_N_S: [f64; 7] = [1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 5e12];
/// The `fig6a` binary's cluster sizes and N·S grid.
const FIG6A_C: [u64; 5] = [2, 8, 5_000, 50_000, 500_000];
const FIG6A_N_S: [f64; 4] = [1e8, 1e9, 2e12, 5e12];
/// The dense sweep: log-spaced N·S from 1e6 to 1e13 per workload.
const DENSE_POINTS: usize = 256;

/// The fewest measured sweeps in a run, so its median has a spread.
const MIN_SWEEPS: usize = 3;

/// Stages below this share of the 1-thread sweep are checked by call count
/// only; above it, `replay.share_dev` also compares the replay's share.
const CROSS_CHECK_FLOOR: f64 = 0.05;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Batch {
    Fig5Avf,
    Fig6aSpec,
    DenseSweep,
}

impl Batch {
    pub const ALL: [Batch; 3] = [Batch::Fig5Avf, Batch::Fig6aSpec, Batch::DenseSweep];

    pub fn name(self) -> &'static str {
        match self {
            Batch::Fig5Avf => "fig5_avf",
            Batch::Fig6aSpec => "fig6a_spec",
            Batch::DenseSweep => "dense_sweep",
        }
    }

    /// Cold set-ups per run; `setup_s` is their median. The dense sweep's
    /// set-up is two closed-form traces (microseconds), so it takes more
    /// samples for the same steadiness.
    fn setup_reps(self) -> usize {
        match self {
            Batch::Fig5Avf | Batch::Fig6aSpec => 3,
            Batch::DenseSweep => 51,
        }
    }

    /// One sweep's wall time on the machine `RESULTS.md` records, in
    /// seconds. It only sizes the run: see [`Batch::sweeps`].
    fn nominal_sweep_s(self) -> f64 {
        match self {
            Batch::Fig5Avf => 2.3,
            Batch::Fig6aSpec => 7.3,
            Batch::DenseSweep => 1.85,
        }
    }

    /// Measured sweeps in a run of `seconds`: as many as take about that
    /// long on the reference machine, at least [`MIN_SWEEPS`]. The count
    /// depends on the arguments only, so a faster build runs the same
    /// sweeps in less time rather than more sweeps.
    fn sweeps(self, seconds: f64) -> usize {
        ((seconds / self.nominal_sweep_s()).round() as usize).max(MIN_SWEEPS)
    }

    /// `ExperimentConfig::full()` (the figure binaries' default), seeded,
    /// with the Monte Carlo pinned to `threads` like `SERR_THREADS` pins
    /// the sweep fan-out. The dense sweep runs the paper's 1M trials.
    fn config(self, seed: u64, threads: usize) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::full();
        cfg.seed = seed;
        cfg.mc.seed = seed;
        cfg.mc.threads = threads;
        if self == Batch::DenseSweep {
            cfg.mc.trials = 1_000_000;
        }
        cfg
    }

    fn workloads(self) -> &'static [Workload] {
        match self {
            Batch::Fig5Avf => &[Workload::Day, Workload::Week, Workload::Combined],
            Batch::DenseSweep => &[Workload::Day, Workload::Week],
            Batch::Fig6aSpec => &[],
        }
    }

    fn n_s(self) -> Vec<f64> {
        match self {
            Batch::Fig5Avf => FIG5_N_S.to_vec(),
            Batch::Fig6aSpec => FIG6A_N_S.to_vec(),
            Batch::DenseSweep => (0..DENSE_POINTS)
                .map(|i| 10f64.powf(6.0 + 7.0 * i as f64 / (DENSE_POINTS - 1) as f64))
                .collect(),
        }
    }

    fn points(self) -> usize {
        match self {
            Batch::Fig6aSpec => REPRESENTATIVE_BENCHMARKS.len() * FIG6A_C.len() * FIG6A_N_S.len(),
            _ => self.workloads().len() * self.n_s().len(),
        }
    }

    /// The SPEC programs whose timing simulation the workload's traces need.
    fn simulated(self) -> &'static [&'static str] {
        match self {
            Batch::Fig5Avf => &["gzip", "swim"],
            Batch::Fig6aSpec => &REPRESENTATIVE_BENCHMARKS,
            Batch::DenseSweep => &[],
        }
    }

    /// Builds every trace the sweep needs (simulation, trace build and
    /// trace-cache store on a cold cache).
    fn setup(self, cfg: &ExperimentConfig) -> Result<(), SerrError> {
        for &w in self.workloads() {
            synthesized_trace(w, cfg)?;
        }
        if self == Batch::Fig6aSpec {
            for b in REPRESENTATIVE_BENCHMARKS {
                spec_processor_trace(b, cfg)?;
            }
        }
        Ok(())
    }

    /// One sweep through the public entry point.
    fn sweep(self, cfg: &ExperimentConfig, opts: &SweepOptions) -> Result<Sweep, SerrError> {
        match self {
            Batch::Fig6aSpec => {
                fig6a_sweep(&REPRESENTATIVE_BENCHMARKS, &FIG6A_C, &FIG6A_N_S, cfg, opts)
                    .map(|r| Sweep::from_report(r, Rows::Fig6))
            }
            _ => fig5_sweep(self.workloads(), &self.n_s(), cfg, opts)
                .map(|r| Sweep::from_report(r, Rows::Fig5)),
        }
    }
}

enum Rows {
    Fig5(Vec<Fig5Row>),
    Fig6(Vec<Fig6Row>),
}

impl Rows {
    fn len(&self) -> usize {
        match self {
            Rows::Fig5(r) => r.len(),
            Rows::Fig6(r) => r.len(),
        }
    }

    /// FNV over every row field's bits, in row order.
    fn digest(&self) -> String {
        let mut d = Digest::new();
        match self {
            Rows::Fig5(rows) => {
                for r in rows {
                    d.bytes(r.workload.as_bytes());
                    for x in [
                        r.n_times_s,
                        r.avf,
                        r.mttf_avf_years,
                        r.mttf_mc_years,
                        r.error,
                        r.softarch_error,
                    ] {
                        d.f64(x);
                    }
                }
            }
            Rows::Fig6(rows) => {
                for r in rows {
                    d.bytes(r.workload.as_bytes());
                    for x in [
                        r.c as f64,
                        r.n_times_s,
                        r.mttf_sofr_years,
                        r.mttf_mc_years,
                        r.error,
                        r.softarch_error,
                    ] {
                        d.f64(x);
                    }
                }
            }
        }
        d.hex()
    }

    fn softarch_errors(&self) -> Vec<f64> {
        match self {
            Rows::Fig5(rows) => rows.iter().map(|r| r.softarch_error).collect(),
            Rows::Fig6(rows) => rows.iter().map(|r| r.softarch_error).collect(),
        }
    }
}

struct Sweep {
    rows: Rows,
    failed: usize,
    resumed: usize,
}

impl Sweep {
    fn from_report<R>(r: SweepReport<R>, wrap: fn(Vec<R>) -> Rows) -> Sweep {
        Sweep { failed: r.failures.len(), resumed: r.resumed, rows: wrap(r.rows) }
    }
}

/// The correctness gates every sweep must pass: one row per design point,
/// no failed point, and SoftArch within the paper's bound on every row.
/// Returns the number of failing rows or points.
fn check_sweep(b: Batch, s: &Sweep, what: &str, checks: &mut Vec<String>) -> u64 {
    let over = s
        .rows
        .softarch_errors()
        .iter()
        .filter(|e| e.is_nan() || **e > SOFTARCH_ERROR_BOUND)
        .count();
    if s.rows.len() != b.points() || s.failed > 0 {
        checks.push(format!(
            "{what}: {} rows and {} failed points for {} design points",
            s.rows.len(),
            s.failed,
            b.points()
        ));
    }
    if over > 0 {
        checks.push(format!("{what}: {over} rows with SoftArch error above 2%"));
    }
    (s.failed + over + b.points().saturating_sub(s.rows.len() + s.failed)) as u64
}

fn threads_from_env() -> usize {
    std::env::var("SERR_THREADS").ok().and_then(|v| v.trim().parse().ok()).unwrap_or(1)
}

/// The peak resident set size in MiB of the process `pid` (`self` for this
/// one), from `VmHWM` in `/proc/<pid>/status`.
pub fn peak_rss_of(pid: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("cannot read VmHWM from /proc/{pid}/status"))
}

// ---------------------------------------------------------------------------
// Parent side: spawn the children, collect their numbers.
// ---------------------------------------------------------------------------

/// Runs one child to the end and returns the JSON line it printed last.
fn spawn_child(ctx: &Ctx, b: Batch, mode: &str) -> Result<Json, String> {
    let dir = ctx.fresh_dir(&format!("{}-{mode}", b.name()))?;
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["child", b.name(), mode, &ctx.seed.to_string(), &ctx.seconds.to_string()])
        .arg(&dir)
        .env("SERR_THREADS", ctx.threads.to_string())
        .env("SERR_TRACE_CACHE", dir.join("trace-cache"))
        .env("SERR_CHECKPOINT_DIR", dir.join("checkpoints"))
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("run {} child: {e}", b.name()))?;
    let _ = std::fs::remove_dir_all(&dir);
    if !out.status.success() {
        return Err(format!("{} {mode} child exited with {}", b.name(), out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .and_then(Json::parse)
        .ok_or_else(|| format!("{} {mode} child: no result", b.name()))
}

fn strings(v: Option<&Json>) -> Vec<String> {
    v.and_then(Json::as_array)
        .map(|a| a.iter().filter_map(Json::as_str).map(str::to_owned).collect())
        .unwrap_or_default()
}

fn num(v: &Json, key: &str) -> f64 {
    v.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

/// Runs one batch workload: untraced, `setup_reps` cold set-ups (the last
/// one continuing into the measured sweeps); traced, one child that times
/// every layer.
pub fn run(ctx: &Ctx, b: Batch) -> Result<Outcome, String> {
    if ctx.traced {
        let r = &spawn_child(ctx, b, "traced")?;
        let metrics = r.get("metrics").ok_or("traced child: no metrics")?;
        return Ok(Outcome {
            workload: b.name(),
            attempted: num(r, "attempted") as u64,
            failed: num(r, "failed") as u64,
            checks: strings(r.get("checks")),
            metrics: crate::per_layer_metrics(|name| metrics.get(name).and_then(Json::as_f64)),
        });
    }
    let mut setups = Vec::with_capacity(b.setup_reps());
    for _ in 1..b.setup_reps() {
        setups.push(num(&spawn_child(ctx, b, "setup")?, "setup_s"));
    }
    let r = &spawn_child(ctx, b, "measure")?;
    setups.push(num(r, "setup_s"));
    let iters: Vec<f64> = r
        .get("iters_s")
        .and_then(Json::as_array)
        .map(|a| a.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default();
    if iters.is_empty() {
        return Err(format!("{}: the measure child ran no sweeps", b.name()));
    }
    let iters_ms: Vec<f64> = iters.iter().map(|s| s * 1e3).collect();
    let (tail_label, tail_ms) = stats::tail(&iters_ms);
    let per_s: Vec<f64> = iters.iter().map(|s| b.points() as f64 / s).collect();
    Ok(Outcome {
        workload: b.name(),
        attempted: num(r, "attempted") as u64,
        failed: num(r, "failed") as u64,
        checks: strings(r.get("checks")),
        metrics: vec![
            Metric::of("setup_s", "s", &setups),
            Metric::of("p50_ms", "ms", &iters_ms),
            Metric {
                label: Some(tail_label),
                value: tail_ms,
                ..Metric::of("tail_ms", "ms", &iters_ms)
            },
            Metric::of("throughput_per_s", "1/s", &per_s),
            Metric::one("peak_rss_mb", "MiB", num(r, "rss_mb")),
        ],
    })
}

// ---------------------------------------------------------------------------
// Child side.
// ---------------------------------------------------------------------------

/// Entry point of `bench_e2e child <workload> <mode> <seed> <seconds> <dir>`.
/// Prints one JSON line. Set-up is timed from here until every trace the
/// workload needs is built, so it leaves out the process start, which the
/// operating system's state sways more than anything this code does.
pub fn child(b: Batch, mode: &str, seed: u64, seconds: f64, dir: &Path) -> Result<(), String> {
    let start = Instant::now();
    let cfg = b.config(seed, threads_from_env());
    let setup = || -> Result<f64, String> {
        b.setup(&cfg).map_err(|e| e.to_string())?;
        Ok(start.elapsed().as_secs_f64())
    };
    let result = match mode {
        "setup" => Json::Obj(vec![("setup_s".to_owned(), Json::Num(setup()?))]),
        "measure" => measure(b, &cfg, setup()?, seconds, dir)?,
        "traced" => traced(b, cfg, dir)?,
        other => return Err(format!("unknown child mode `{other}`")),
    };
    println!("{}", result.to_json());
    Ok(())
}

/// One sweep with a fresh journal — plus, on the dense sweep, the resume
/// pass that reads all of its rows back — timed as one unit of work.
fn one_iteration(
    b: Batch,
    cfg: &ExperimentConfig,
    dir: &Path,
    checks: &mut Vec<String>,
) -> Result<(f64, Sweep), String> {
    let _ = std::fs::remove_dir_all(dir);
    let t0 = Instant::now();
    let sweep = b.sweep(cfg, &SweepOptions::fresh().in_dir(dir)).map_err(|e| e.to_string())?;
    if b == Batch::DenseSweep {
        let again = b.sweep(cfg, &SweepOptions::resume().in_dir(dir)).map_err(|e| e.to_string())?;
        if again.resumed != b.points() || again.rows.digest() != sweep.rows.digest() {
            checks.push(format!(
                "resume pass restored {} of {} rows, digest {} vs {}",
                again.resumed,
                b.points(),
                again.rows.digest(),
                sweep.rows.digest()
            ));
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(dir);
    Ok((secs, sweep))
}

/// One discarded warm-up sweep, then the run's fixed number of sweeps.
fn measure(
    b: Batch,
    cfg: &ExperimentConfig,
    setup_s: f64,
    seconds: f64,
    dir: &Path,
) -> Result<Json, String> {
    let mut checks = Vec::new();
    let journal = dir.join("checkpoints").join("sweep");
    let (_, warm) = one_iteration(b, cfg, &journal, &mut checks)?;
    let mut failed = check_sweep(b, &warm, "warm-up", &mut checks);
    let digest = warm.rows.digest();
    let mut iters: Vec<f64> = Vec::new();
    for _ in 0..b.sweeps(seconds) {
        let (secs, sweep) = one_iteration(b, cfg, &journal, &mut checks)?;
        let what = format!("sweep {}", iters.len() + 1);
        failed += check_sweep(b, &sweep, &what, &mut checks);
        if sweep.rows.digest() != digest {
            checks
                .push(format!("{what}: row digest {} differs from {digest}", sweep.rows.digest()));
        }
        iters.push(secs);
    }
    Ok(Json::Obj(vec![
        ("setup_s".to_owned(), Json::Num(setup_s)),
        ("iters_s".to_owned(), Json::Arr(iters.iter().map(|&s| Json::Num(s)).collect())),
        ("attempted".to_owned(), Json::Num((b.points() * (iters.len() + 1)) as f64)),
        ("failed".to_owned(), Json::Num(failed as f64)),
        ("digest".to_owned(), Json::Str(digest)),
        ("rss_mb".to_owned(), Json::Num(peak_rss_of("self")?)),
        ("checks".to_owned(), Json::Arr(checks.into_iter().map(Json::Str).collect())),
    ]))
}

// ---------------------------------------------------------------------------
// Traced run: time every layer from outside by replaying the sweep's calls.
// ---------------------------------------------------------------------------

/// Counts gathered while replaying a sweep.
#[derive(Default)]
struct Replayed {
    trial_points: f64,
    compiled_points: f64,
    compile_kernel_ms: f64,
    compile_per_point_ms: f64,
}

/// One replayed design point.
struct Point {
    group: usize,
    prod: f64,
    c: u64,
}

/// Replays one sweep serially, calling each layer's public function the way
/// the sweep does: trace builds; per trace, `CompiledTrace::compile` then
/// the shared-stream `MonteCarlo::component_mttf_multi`; per point, the
/// analytic estimators of `Validator::component_with_mc` (Fig 5: one
/// renewal, one SoftArch) or `system_identical_with_mc` (Fig 6: two
/// renewals, one SoftArch); and one journal append per point.
///
/// The Monte Carlo call compiles its trace again internally; the replay's
/// own compile spans measure that cost, which [`traced`] subtracts from the
/// Monte Carlo spans.
fn replay(
    b: Batch,
    cfg: &ExperimentConfig,
    dir: &Path,
    spans: &mut Spans,
    obs: &Obs,
    acc: &mut Replayed,
) -> Result<Rows, SerrError> {
    let freq = cfg.frequency;
    spans.time("sweep", None, |s| {
        let mut traces: Vec<(String, Arc<dyn VulnerabilityTrace>)> = Vec::new();
        for &w in b.workloads() {
            let t = s.time("trace.build", None, |_| synthesized_trace(w, cfg))?;
            traces.push((w.label().to_owned(), t));
        }
        if b == Batch::Fig6aSpec {
            for name in REPRESENTATIVE_BENCHMARKS {
                let t = s.time("trace.build", None, |_| spec_processor_trace(name, cfg))?;
                traces.push((name.to_owned(), t));
            }
        }
        let mut points = Vec::new();
        for group in 0..traces.len() {
            let cs: &[u64] = if b == Batch::Fig6aSpec { &FIG6A_C } else { &[1] };
            for &c in cs {
                for prod in b.n_s() {
                    points.push(Point { group, prod, c });
                }
            }
        }
        let component = |p: &Point| RawErrorRate::baseline_per_bit().scale(p.prod);
        let system = |p: &Point| component(p).scale(p.c as f64);

        let journal = s.time("journal.open", None, |_| {
            Journal::open(dir, "bench_e2e-replay", fingerprint(&[b.name()]), true)
        })?;
        let mc = MonteCarlo::new(cfg.mc).with_observer(obs.clone());
        let mut estimates: Vec<Option<MttfEstimate>> = vec![None; points.len()];
        for (g, (_, trace)) in traces.iter().enumerate() {
            let members: Vec<usize> = (0..points.len()).filter(|&i| points[i].group == g).collect();
            let rates: Vec<RawErrorRate> = members.iter().map(|&i| system(&points[i])).collect();
            let compiled = s.time("trace.compile", None, |_| CompiledTrace::compile(&**trace));
            let compile_ms = s.last_ms();
            let name = if compiled.is_some() { "mc.kernel" } else { "mc.per_point" };
            let out = s.time(name, None, |_| mc.component_mttf_multi(&**trace, &rates, freq))?;
            for (&i, est) in members.iter().zip(out) {
                estimates[i] = Some(est?);
            }
            acc.trial_points += (cfg.mc.trials as usize * members.len()) as f64;
            if compiled.is_some() {
                acc.compiled_points += members.len() as f64;
                acc.compile_kernel_ms += compile_ms;
            } else {
                acc.compile_per_point_ms += compile_ms;
            }
        }

        let mut fig5 = Vec::new();
        let mut fig6 = Vec::new();
        for (i, p) in points.iter().enumerate() {
            let (label, trace) = &traces[p.group];
            let mc_est =
                estimates[i].ok_or_else(|| SerrError::invalid_config("unprepared point"))?;
            let mc_s = mc_est.mttf.as_secs();
            let row = s.time("point", Some(i), |s| -> Result<Json, SerrError> {
                if b == Batch::Fig6aSpec {
                    let comp =
                        s.time("renewal", Some(i), |_| renewal_mttf(&**trace, component(p), freq))?;
                    let sofr = sofr_mttf_identical(comp, p.c)?;
                    s.time("renewal", Some(i), |_| renewal_mttf(&**trace, system(p), freq))?;
                    let soft = s.time("softarch", Some(i), |_| {
                        SoftArch::new(freq).component_mttf(&**trace, system(p))
                    })?;
                    let row = Fig6Row {
                        workload: label.clone(),
                        c: p.c,
                        n_times_s: p.prod,
                        mttf_sofr_years: sofr.as_years(),
                        mttf_mc_years: mc_est.mttf.as_years(),
                        error: relative_error(sofr.as_secs(), mc_s),
                        softarch_error: relative_error(soft.as_secs(), mc_s),
                    };
                    let json = row.to_journal();
                    fig6.push(row);
                    Ok(json)
                } else {
                    let avf = avf_step_mttf(&**trace, component(p))?;
                    s.time("renewal", Some(i), |_| renewal_mttf(&**trace, component(p), freq))?;
                    let soft = s.time("softarch", Some(i), |_| {
                        SoftArch::new(freq).component_mttf(&**trace, component(p))
                    })?;
                    let row = Fig5Row {
                        workload: label.clone(),
                        n_times_s: p.prod,
                        avf: trace.avf(),
                        mttf_avf_years: avf.as_years(),
                        mttf_mc_years: mc_est.mttf.as_years(),
                        error: relative_error(avf.as_secs(), mc_s),
                        softarch_error: relative_error(soft.as_secs(), mc_s),
                    };
                    let json = row.to_journal();
                    fig5.push(row);
                    Ok(json)
                }
            })?;
            s.time("journal.record", Some(i), |_| journal.record(i, &row))?;
        }
        Ok(if b == Batch::Fig6aSpec { Rows::Fig6(fig6) } else { Rows::Fig5(fig5) })
    })
}

/// The `sim.*` and `trace_cache.*` layers: a cold timing simulation of
/// each program, then its trace-cache entry written and read back apart.
/// `simulate_benchmark` writes that entry itself, so the probe write's time
/// comes off the simulator's.
pub fn sim_layers(
    programs: &[&str],
    cfg: &ExperimentConfig,
    dir: &Path,
    spans: &mut Spans,
) -> Result<Vec<(&'static str, f64)>, String> {
    let root = spans.next_id();
    let (mut instructions, mut bytes) = (0u64, 0u64);
    spans.time("setup", None, |s| -> Result<(), String> {
        for &name in programs {
            let run = s
                .time("sim", None, |_| simulate_benchmark(name, cfg.sim_instructions, cfg.seed))
                .map_err(|e| e.to_string())?;
            instructions += run.output.stats.instructions;
            let probe = dir.join(format!("probe-{name}.store"));
            s.time("trace_cache.store", None, |_| write_cache_entry(&probe, &run.output))
                .map_err(|e| e.to_string())?;
            bytes += std::fs::metadata(&probe).map_or(0, |m| m.len());
            if s.time("trace_cache.load", None, |_| load_cache_entry_mmap(&probe)).is_none() {
                return Err(format!("trace-cache entry for {name} did not load back"));
            }
        }
        Ok(())
    })?;
    let (store_ms, _) = spans.total(root, "trace_cache.store");
    let sim_ms = spans.total(root, "sim").0 - store_ms;
    let per_s = if sim_ms > 0.0 { instructions as f64 / sim_ms / 1e3 } else { 0.0 };
    Ok(vec![
        ("sim.busy_ms", sim_ms),
        ("sim.instructions", instructions as f64),
        ("sim.minstr_per_s", per_s),
        ("trace_cache.store_ms", store_ms),
        ("trace_cache.load_ms", spans.total(root, "trace_cache.load").0),
        ("trace_cache.bytes", bytes as f64),
    ])
}

/// The traced child: a cold set-up with the simulator and trace cache timed
/// apart; sweeps at the run's thread count and at `SERR_THREADS=1` (with
/// the program's own stage histograms attached) around the serial replay;
/// and a resume pass over a 1-thread sweep's journal.
fn traced(b: Batch, mut cfg: ExperimentConfig, dir: &Path) -> Result<Json, String> {
    let err = |e: SerrError| e.to_string();
    let threads = cfg.mc.threads;
    let mut spans = Spans::new();
    let mut checks = Vec::new();

    let mut layers = sim_layers(b.simulated(), &cfg, dir, &mut spans)?;

    // Sweeps at T threads and at 1 thread bracket the replay — T, 1, replay,
    // 1, T — so a machine speeding up or slowing down over the run cancels,
    // to first order, out of every comparison with the replay.
    let journal = |tag: &str| dir.join("checkpoints").join(tag);
    let mut failed = 0;
    let mut digests = Vec::new();
    let mut sweep = |cfg: &ExperimentConfig, tag: &str, obs: Option<&Obs>| {
        let mut opts = SweepOptions::fresh().in_dir(journal(tag));
        if let Some(obs) = obs {
            opts = opts.with_obs(obs.clone());
        }
        let t0 = Instant::now();
        let run = b.sweep(cfg, &opts).map_err(err)?;
        let secs = t0.elapsed().as_secs_f64();
        failed += check_sweep(b, &run, &format!("{tag} sweep"), &mut checks);
        digests.push((tag.to_owned(), run.rows.digest()));
        Ok::<f64, String>(secs)
    };
    let stage_obs = Obs::disabled();
    let mc_obs = Obs::disabled();
    let mut acc = Replayed::default();
    let sweep_root = spans.next_id();
    // No other thread of this process is alive between sweeps (each joins
    // its workers), so switching the fan-out width is race-free.
    let wide_a = sweep(&cfg, "wide-a", None)?;
    std::env::set_var("SERR_THREADS", "1");
    cfg.mc.threads = 1;
    let serial_a = sweep(&cfg, "serial-a", Some(&stage_obs))?;
    let replayed =
        replay(b, &cfg, &journal("replay"), &mut spans, &mc_obs, &mut acc).map_err(err)?;
    let serial_b = sweep(&cfg, "serial-b", Some(&stage_obs))?;
    std::env::set_var("SERR_THREADS", threads.to_string());
    cfg.mc.threads = threads;
    let wide_b = sweep(&cfg, "wide-b", None)?;
    let (wall_1, wall_t) = ((serial_a + serial_b) / 2.0, (wide_a + wide_b) / 2.0);
    digests.push(("replay".to_owned(), replayed.digest()));
    let digest = digests[0].1.clone();
    for (tag, d) in &digests {
        if *d != digest {
            checks
                .push(format!("{tag}: row digest {d} differs from the {threads}-thread {digest}"));
        }
    }

    let resume_root = spans.next_id();
    let resumed = spans
        .time("journal.resume", None, |_| {
            b.sweep(&cfg, &SweepOptions::resume().in_dir(journal("serial-a")))
        })
        .map_err(err)?;
    if resumed.resumed != b.points() || resumed.rows.digest() != digest {
        checks.push(format!("resume restored {} of {} rows", resumed.resumed, b.points()));
    }

    let own = spans.self_ms(sweep_root);
    let get = |name: &str| own.get(name).copied().unwrap_or(0.0);
    let compile_ms = acc.compile_kernel_ms + acc.compile_per_point_ms;
    let kernel_ms = get("mc.kernel") - acc.compile_kernel_ms;
    let per_point_ms = get("mc.per_point") - acc.compile_per_point_ms;
    let mc_ms = kernel_ms + per_point_ms;
    let root_ms = spans.get(sweep_root).map_or(0.0, |s| s.ms());
    let snap = stage_obs.metrics().snapshot();
    let mc_snap = mc_obs.metrics().snapshot();
    let hist = |snap: &MetricsSnapshot, name: &str| {
        snap.histograms.get(name).map_or((0.0, 0), |h| (h.sum(), h.count() as usize))
    };
    let counter = |name: &str| mc_snap.counters.get(name).copied().unwrap_or(0) as f64;

    // The replay must make the calls the 1-thread sweep made — every stage
    // histogram's count. How far its share of time in each stage that takes
    // a real part of the sweep lies from the sweep's own share is reported,
    // not gated. Shares, not milliseconds, since the two executions run
    // seconds apart; even so, on a shared 2-vCPU VM one stage's share moves
    // by 10–30% between two executions of the same work.
    let replay_ms = root_ms - compile_ms;
    let kernel_hist = {
        let (shared, _) = hist(&snap, "stage.sweep_shared_ms");
        let (point, n) = hist(&snap, "stage.sweep_point_ms");
        (shared + point, n)
    };
    let stages = [
        ("renewal", spans.total(sweep_root, "renewal"), hist(&snap, "stage.renewal_quadrature_ms")),
        ("softarch", spans.total(sweep_root, "softarch"), hist(&snap, "stage.softarch_ms")),
        (
            "trace_compile",
            (compile_ms, hist(&mc_snap, "stage.trace_compile_ms").1),
            hist(&snap, "stage.trace_compile_ms"),
        ),
        ("sweep_kernel", (kernel_ms, hist(&mc_snap, "stage.sweep_point_ms").1), kernel_hist),
        (
            "mc_run",
            (per_point_ms, hist(&mc_snap, "stage.mc_run_ms").1),
            hist(&snap, "stage.mc_run_ms"),
        ),
    ];
    // The stage histograms hold both 1-thread sweeps.
    let mut share_dev: f64 = 0.0;
    for (stage, (ms, calls), (hist_ms, hist_calls)) in stages {
        if 2 * calls != hist_calls {
            checks.push(format!(
                "cross-check {stage}: replay made {calls} calls, the two sweeps {hist_calls}"
            ));
        }
        let (share, hist_share) = (ms / replay_ms, hist_ms / (2.0 * wall_1 * 1e3));
        if hist_share >= CROSS_CHECK_FLOOR {
            share_dev = share_dev.max((share - hist_share).abs() / hist_share);
        }
    }

    let attributed = root_ms - get("sweep") - compile_ms;
    layers.extend([
        ("trace.build_ms", get("trace.build")),
        ("trace.compile_ms", compile_ms),
        ("trace.compile_calls", spans.total(sweep_root, "trace.compile").1 as f64),
        ("trace.compiled_frac", acc.compiled_points / b.points() as f64),
        ("mc.busy_ms", mc_ms),
        ("mc.trial_points", acc.trial_points),
        ("mc.ns_per_trial_point", mc_ms * 1e6 / acc.trial_points),
        ("mc.event_loop_runs", counter("mc.runs_event_loop")),
        ("mc.raw_error_events", counter("mc.raw_error_events")),
        ("sweep.shared_ms", hist(&mc_snap, "stage.sweep_shared_ms").0),
        ("sweep.point_ms", hist(&mc_snap, "stage.sweep_point_ms").0),
        ("renewal.busy_ms", get("renewal")),
        ("renewal.calls", spans.total(sweep_root, "renewal").1 as f64),
        ("softarch.busy_ms", get("softarch")),
        ("softarch.calls", spans.total(sweep_root, "softarch").1 as f64),
        ("validate.glue_ms", get("point")),
        ("journal.record_ms", get("journal.record") + get("journal.open")),
        ("journal.records", spans.total(sweep_root, "journal.record").1 as f64),
        ("journal.resume_ms", spans.get(resume_root).map_or(0.0, |s| s.ms())),
        ("wall_1thread_ms", wall_1 * 1e3),
        ("par.efficiency", wall_1 / (threads as f64 * wall_t)),
        ("attributed_frac", attributed / (wall_1 * 1e3)),
        ("trace_overhead_frac", replay_ms / (wall_1 * 1e3) - 1.0),
        ("replay.share_dev", share_dev),
    ]);

    spans
        .append_jsonl(&crate::trace_path(), b.name())
        .map_err(|e| format!("write span trace: {e}"))?;
    Ok(Json::Obj(vec![
        (
            "metrics".to_owned(),
            Json::Obj(layers.into_iter().map(|(k, v)| (k.to_owned(), Json::Num(v))).collect()),
        ),
        ("attempted".to_owned(), Json::Num((b.points() * 6) as f64)),
        ("failed".to_owned(), Json::Num(failed as f64)),
        ("digest".to_owned(), Json::Str(digest)),
        ("checks".to_owned(), Json::Arr(checks.into_iter().map(Json::Str).collect())),
    ]))
}
