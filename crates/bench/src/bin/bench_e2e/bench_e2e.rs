//! `bench_e2e` — the end-to-end benchmark: wall time of what the system
//! produces (a paper figure sweep, a `serr serve` reply), every output
//! checked, and a separate traced run that attributes the time to layers.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --offline --manifest-path crates/bench/src/bin/bench_e2e/Cargo.toml -- \
//!     [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! bench_e2e compare A.json[,A2.json...] B.json[,B2.json...]
//! ```
//!
//! Without `--workload`, every workload runs. Each metric is printed with
//! its unit, sample count and interquartile range; the last line of stdout
//! is one JSON object `{"correct", "attempted", "failed", "metrics"}`, and
//! `--out` writes the full report that `compare` reads. Any failed
//! correctness check makes the exit code nonzero. `compare` judges side B
//! against side A with the bounds in `BENCHMARK.json`: better, same, worse,
//! or unresolved when a side's run-to-run spread (the IQR across its
//! reports) exceeds the bound or is unknown, as it is for a side of fewer
//! than three reports.
//! `RESULTS.md` beside this file records the machine, the baseline runs,
//! their run-to-run spread and where the time goes.
//!
//! # Workloads
//!
//! | name | what runs | why |
//! |---|---|---|
//! | `fig5_avf` | `fig5_sweep`: day/week/combined × 7 N·S (21 points), `ExperimentConfig::full()` | The paper's Fig 5. `combined` does not compile, so most of the time is the per-point event-loop fallback in `serr-mc`: a compiled-trace change shows here. |
//! | `fig6a_spec` | `fig6a_sweep`: gzip/mcf/equake × 5 C × 4 N·S (60 points), full config | The paper's Fig 6a on compiled SPEC traces: no event loop, dominated by renewal quadrature and SoftArch; its cold set-up is the timing simulator. Bypasses the event loop, so an event-loop change should not move it. |
//! | `dense_sweep` | `fig5_sweep`: day+week × 256 log-spaced N·S in 1e6…1e13, 1M trials, each sweep followed by a resume pass | The shared-stream kernel's per-point finish dominates, so sampler work shows here and nowhere else; 512 fsync'd journal appends then read back exercise `serr-store`. |
//! | `serve_mix` | `serr serve` child process, 2 closed-loop clients | Interactive callers: 70% `mttf`, 20% `sofr` (c=100), 10% 8-rate `sweep`, 20k trials; 9 workload specs (the serve tests' duty loops and the figures' workloads), more than the daemon's 8-entry trace cache holds; ~10% repeated bodies answered from the results journal. Many traces with one rate each — the opposite of `dense_sweep`. The repository records no real traffic, so these shares are an assumption, kept fixed. |
//!
//! Batch workloads use the figure binaries' grids and a fresh checkpoint
//! journal per sweep (`--fresh`).
//!
//! # End-to-end metrics (`--trace 0`)
//!
//! A *unit of work* is one full sweep for a batch workload and one request
//! for `serve_mix`.
//!
//! | name | unit | definition |
//! |---|---|---|
//! | `setup_s` | s | Median of several cold set-ups. Batch: in a fresh workload process, from its entry point until every trace it needs is built from an empty trace cache (simulation, trace build, cache store); the process start itself is left out. Serve: daemon spawn, socket bound, one warm-up answered per spec. |
//! | `p50_ms` | ms | Median unit time; for `serve_mix`, the median of the latency medians of consecutive blocks of 100 requests. |
//! | `tail_ms` | ms | Highest percentile of unit time with at least ten samples beyond it (p99 for `serve_mix`, which sends at least 1000 requests); the nearest-rank p75 when a run has too few units (batch). |
//! | `throughput_per_s` | 1/s | Batch: median over sweeps of design points per second. Serve: completed requests per second of the loop's wall time. |
//! | `peak_rss_mb` | MiB | `VmHWM` of the process doing the work: the workload child, or the daemon read before shutdown. |
//!
//! The IQR printed with a metric is that of the samples its value is the
//! median of: sweeps, set-ups, or for `serve_mix` the medians of blocks of
//! 100 consecutive requests (single estimates print n=1 and 0). It shows the
//! noise within one run; `compare` does not use it. Points or requests
//! that fail, and rows that fail a check, are counted in `failed` against
//! `attempted`.
//!
//! # Correctness gates
//!
//! Every sweep: one row per design point, no failed point, SoftArch within
//! 2% of Monte Carlo on every row (the paper's §5.4 bound; SoftArch equals
//! exact renewal, so this bounds Monte Carlo error), and a row digest (FNV
//! over the f64 bits in order) identical across all sweeps of a run and
//! between the run's thread count and `SERR_THREADS=1`. `serve_mix`: every
//! response is `result`, and 20 seeded-sampled responses are bit-equal to a
//! direct `Validator` call under `ExperimentConfig::cli()`.
//!
//! # Per-layer metrics (`--trace 1`)
//!
//! A batch traced run times a cold set-up with `simulate_benchmark` and the
//! trace-cache store/load apart, runs the sweep at the run's thread count
//! and again at `SERR_THREADS=1` with the program's `stage.*` histograms
//! attached, then replays the 1-thread sweep's calls into each layer's
//! public function serially inside spans (see [`spans`]). The replay must
//! reproduce the sweep's rows bit for bit and make as many calls per stage
//! as the stage histograms count; `replay.share_dev` reports how far its
//! share of time per stage lies from the histograms' (a timing comparison
//! between two executions, so reported, not gated). `serve_mix` splits
//! client latency by class, reads the daemon's `stats` counters, and
//! replays the first 200 requests layer by layer. Spans go to
//! `target/bench-e2e-trace.jsonl`. Which end-to-end metric each layer
//! should move:
//!
//! | layer metrics | moves |
//! |---|---|
//! | `sim.*` (`pipeline::simulate_benchmark`) | `setup_s` on fig6a_spec most, fig5_avf, serve_mix; not dense_sweep |
//! | `trace_cache.*` (`write_cache_entry`, `load_cache_entry_mmap`) | `setup_s` |
//! | `trace.*` (trace builds, `CompiledTrace::compile`) | `p50_ms` on fig5_avf (`compiled_frac` < 1 is the event-loop fallback) and fig6a_spec |
//! | `mc.*`, `sweep.*` (`MonteCarlo::component_mttf_multi`) | `p50_ms` on dense_sweep and fig5_avf; serve `p50_ms` |
//! | `renewal.*`, `softarch.*` | `p50_ms` on fig6a_spec (dominant) and fig5_avf; serve `tail_ms` |
//! | `journal.*` (`Journal::record`, resume pass) | `p50_ms` on dense_sweep; serve `p50_ms` |
//! | `par.efficiency` = 1-thread wall / (T × T-thread wall) | `p50_ms` on every batch workload |
//! | `serve.*` | serve `p50_ms`, `tail_ms`, `throughput_per_s` |
//! | `attributed_frac`, `trace_overhead_frac`, `replay.share_dev` | check that the replay covers the run |
//!
//! A layer a workload never enters reports 0.
//!
//! # Sandbox
//!
//! Batch workloads run in fresh child processes with `SERR_THREADS=T`,
//! T = min(cores, 4); the daemon gets `SERR_THREADS=max(1, T/2)` so its two
//! estimate workers fill T cores. Every child and daemon has its own
//! temporary trace cache and checkpoint directory under
//! `target/bench-e2e-tmp/`, deleted afterwards. `--seed` seeds
//! `ExperimentConfig.seed` and `mc.seed` of the batch workloads and the
//! request generator; the daemon keeps `ExperimentConfig::cli()`, which its
//! bit-parity contract requires.
//!
//! Run lengths are fixed by the arguments, never by how fast the code runs:
//! each batch measurement is one discarded warm-up sweep and then
//! `--seconds` / (the workload's sweep time on the machine `RESULTS.md`
//! records) sweeps, at least three; `serve_mix` sends 100 requests per
//! second of `--seconds`, at least 1000. A faster build does the same work
//! in less time.

mod batch;
mod compare;
mod serve;
mod spans;
mod stats;

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use serr_core::jsonio::Json;

use crate::batch::Batch;

/// The end-to-end metrics, in report order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics of a traced run, in report order.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("sim.busy_ms", "ms"),
    ("sim.instructions", "count"),
    ("sim.minstr_per_s", "Minstr/s"),
    ("trace_cache.store_ms", "ms"),
    ("trace_cache.load_ms", "ms"),
    ("trace_cache.bytes", "bytes"),
    ("trace.build_ms", "ms"),
    ("trace.compile_ms", "ms"),
    ("trace.compile_calls", "count"),
    ("trace.compiled_frac", "ratio"),
    ("mc.busy_ms", "ms"),
    ("mc.trial_points", "count"),
    ("mc.ns_per_trial_point", "ns"),
    ("mc.event_loop_runs", "count"),
    ("mc.raw_error_events", "count"),
    ("sweep.shared_ms", "ms"),
    ("sweep.point_ms", "ms"),
    ("renewal.busy_ms", "ms"),
    ("renewal.calls", "count"),
    ("softarch.busy_ms", "ms"),
    ("softarch.calls", "count"),
    ("validate.glue_ms", "ms"),
    ("journal.record_ms", "ms"),
    ("journal.records", "count"),
    ("journal.resume_ms", "ms"),
    ("wall_1thread_ms", "ms"),
    ("par.efficiency", "ratio"),
    ("serve.light_p50_ms", "ms"),
    ("serve.spec_p50_ms", "ms"),
    ("serve.sweep_p50_ms", "ms"),
    ("serve.service_p50_ms", "ms"),
    ("serve.overhead_p50_ms", "ms"),
    ("serve.resumed", "count"),
    ("serve.cache_evictions", "count"),
    ("serve.shed", "count"),
    ("attributed_frac", "ratio"),
    ("trace_overhead_frac", "ratio"),
    ("replay.share_dev", "ratio"),
];

const WORKLOADS: [&str; 4] = ["fig5_avf", "fig6a_spec", "dense_sweep", serve::NAME];

/// Where traced runs write their spans.
pub fn trace_path() -> PathBuf {
    PathBuf::from("target").join("bench-e2e-trace.jsonl")
}

/// Settings shared by every workload of one invocation.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// T: the batch workloads' `SERR_THREADS`.
    pub threads: usize,
    pub traced: bool,
    /// This run's scratch root (relative, so unix socket paths stay short).
    tmp: PathBuf,
    dirs: AtomicUsize,
}

impl Ctx {
    /// A new, empty scratch directory under this run's root.
    pub fn fresh_dir(&self, tag: &str) -> Result<PathBuf, String> {
        let dir = self.tmp.join(format!("{tag}-{}", self.dirs.fetch_add(1, Ordering::SeqCst)));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

/// One reported metric: the value, and the samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub n: usize,
    pub iqr: f64,
    /// Which percentile a tail value is.
    pub label: Option<&'static str>,
}

impl Metric {
    /// The median of `samples`, with their count and IQR.
    pub fn of(name: &'static str, unit: &'static str, samples: &[f64]) -> Metric {
        let (value, n, iqr) = (stats::median(samples), samples.len(), stats::iqr(samples));
        Metric { name, unit, value, n, iqr, label: None }
    }

    /// A single measured value.
    pub fn one(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric { name, unit, value, n: 1, iqr: 0.0, label: None }
    }
}

/// Every per-layer metric, 0 where the workload never enters the layer.
pub fn per_layer_metrics(get: impl Fn(&str) -> Option<f64>) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric::one(name, unit, get(name).unwrap_or(0.0)))
        .collect()
}

/// One workload's result.
pub struct Outcome {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks, one line each.
    pub checks: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.checks.is_empty() && self.failed == 0 && self.attempted > 0
    }

    fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let mut fields = vec![
                    ("value".to_owned(), Json::Num(m.value)),
                    ("unit".to_owned(), Json::Str(m.unit.to_owned())),
                    ("n".to_owned(), Json::Num(m.n as f64)),
                    ("iqr".to_owned(), Json::Num(m.iqr)),
                ];
                if let Some(label) = m.label {
                    fields.push(("label".to_owned(), Json::Str(label.to_owned())));
                }
                (m.name.to_owned(), Json::Obj(fields))
            })
            .collect();
        Json::Obj(vec![
            ("name".to_owned(), Json::Str(self.workload.to_owned())),
            ("correct".to_owned(), Json::Bool(self.correct())),
            ("attempted".to_owned(), Json::Num(self.attempted as f64)),
            ("failed".to_owned(), Json::Num(self.failed as f64)),
            ("checks".to_owned(), Json::Arr(self.checks.iter().cloned().map(Json::Str).collect())),
            ("metrics".to_owned(), Json::Obj(metrics)),
        ])
    }
}

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args { workloads: Vec::new(), seed: 42, seconds: 10.0, traced: false, out: None };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                for w in value()?.split(',') {
                    if !WORKLOADS.contains(&w) {
                        return Err(format!(
                            "unknown workload `{w}` (known: {})",
                            WORKLOADS.join(", ")
                        ));
                    }
                    a.workloads.push(w.to_owned());
                }
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds.is_finite() && a.seconds > 0.0) {
                    return Err("--seconds must be positive".to_owned());
                }
            }
            "--trace" => {
                a.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--out" => a.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if a.workloads.is_empty() {
        a.workloads = WORKLOADS.iter().map(|&w| w.to_owned()).collect();
    }
    Ok(a)
}

/// Runs one workload and checks it reported exactly the declared metrics.
fn run_workload(ctx: &Ctx, name: &str) -> Result<Outcome, String> {
    let o = match Batch::ALL.into_iter().find(|b| b.name() == name) {
        Some(b) => batch::run(ctx, b)?,
        None => serve::run(ctx)?,
    };
    let want: &[(&str, &str)] = if ctx.traced { &PER_LAYER } else { &END_TO_END };
    let got: Vec<(&str, &str)> = o.metrics.iter().map(|m| (m.name, m.unit)).collect();
    if got != want {
        return Err(format!("reported {got:?}, declared {want:?}"));
    }
    Ok(o)
}

fn print_outcome(o: &Outcome) {
    println!("{} — {}/{} failed, correct: {}", o.workload, o.failed, o.attempted, o.correct());
    for m in &o.metrics {
        let label = m.label.map(|l| format!(" [{l}]")).unwrap_or_default();
        println!(
            "  {:<24} {:>16.6} {:<9} n={:<5} iqr={:.6}{label}",
            m.name, m.value, m.unit, m.n, m.iqr
        );
    }
    for c in &o.checks {
        println!("  FAILED CHECK: {c}");
    }
}

/// The result line: one workload's metrics by name, or, for several
/// workloads, every metric as `<workload>.<metric>`. Written by hand so the
/// counts print as whole numbers.
fn summary(outcomes: &[Outcome]) -> String {
    let single = outcomes.len() == 1;
    let mut metrics = Vec::new();
    for o in outcomes {
        for m in &o.metrics {
            let name =
                if single { m.name.to_owned() } else { format!("{}.{}", o.workload, m.name) };
            let value = Json::Obj(vec![
                ("value".to_owned(), Json::Num(m.value)),
                ("unit".to_owned(), Json::Str(m.unit.to_owned())),
            ]);
            metrics.push((name, value));
        }
    }
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        outcomes.iter().all(Outcome::correct),
        outcomes.iter().map(|o| o.attempted).sum::<u64>(),
        outcomes.iter().map(|o| o.failed).sum::<u64>(),
        Json::Obj(metrics).to_json()
    )
}

/// The `[profile.release]` table of a manifest: its settings, one per line.
fn release_profile(manifest: &str) -> Vec<&str> {
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect()
}

fn run(args: &Args) -> Result<bool, String> {
    // This package's manifest copies the workspace's release profile; a
    // stale copy would measure differently compiled code.
    let (own, workspace) = (include_str!("Cargo.toml"), include_str!("../../../../../Cargo.toml"));
    if release_profile(own) != release_profile(workspace) {
        return Err(format!(
            "[profile.release] of bench_e2e's Cargo.toml is {:?}, the workspace's is {:?}",
            release_profile(own),
            release_profile(workspace)
        ));
    }
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        threads: cores.min(4),
        traced: args.traced,
        tmp: PathBuf::from("target").join("bench-e2e-tmp").join(std::process::id().to_string()),
        dirs: AtomicUsize::new(0),
    };
    // The serve checks build traces in this process too: give it a cache
    // and journal directory of its own, like every child gets.
    let own = ctx.fresh_dir("self")?;
    std::env::set_var("SERR_TRACE_CACHE", own.join("trace-cache"));
    std::env::set_var("SERR_CHECKPOINT_DIR", own.join("checkpoints"));
    if ctx.traced {
        let _ = std::fs::remove_file(trace_path());
    }
    let mut outcomes = Vec::new();
    let mut failure = None;
    for w in &args.workloads {
        match run_workload(&ctx, w) {
            Ok(o) => outcomes.push(o),
            Err(e) => {
                failure = Some(format!("{w}: {e}"));
                break;
            }
        }
    }
    let _ = std::fs::remove_dir_all(&ctx.tmp);
    if let Some(parent) = ctx.tmp.parent() {
        let _ = std::fs::remove_dir(parent); // only if no other run is using it
    }
    if let Some(e) = failure {
        return Err(e);
    }

    println!(
        "bench_e2e seed={} seconds={} threads={} cores={cores} trace={}",
        ctx.seed,
        ctx.seconds,
        ctx.threads,
        u8::from(ctx.traced)
    );
    outcomes.iter().for_each(print_outcome);
    if let Some(path) = &args.out {
        let report = Json::Obj(vec![
            ("seed".to_owned(), Json::Num(ctx.seed as f64)),
            ("seconds".to_owned(), Json::Num(ctx.seconds)),
            ("threads".to_owned(), Json::Num(ctx.threads as f64)),
            ("cores".to_owned(), Json::Num(cores as f64)),
            ("traced".to_owned(), Json::Bool(ctx.traced)),
            ("workloads".to_owned(), Json::Arr(outcomes.iter().map(Outcome::to_json).collect())),
        ]);
        std::fs::write(path, report.to_json() + "\n")
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    println!("{}", summary(&outcomes));
    Ok(outcomes.iter().all(Outcome::correct))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => compare::run(&args[1], &args[2]).map(|worse| !worse),
        Some("child") if args.len() == 6 => {
            let b = Batch::ALL.into_iter().find(|b| b.name() == args[1]);
            match (b, args[3].parse(), args[4].parse()) {
                (Some(b), Ok(seed), Ok(seconds)) => {
                    batch::child(b, &args[2], seed, seconds, args[5].as_ref()).map(|()| true)
                }
                _ => Err(format!("bad child arguments {:?}", &args[1..])),
            }
        }
        _ => parse_args(&args).and_then(|a| run(&a)),
    };
    match result {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json`, at the repository root above this package, must
    /// declare exactly the workloads and metrics this binary reports.
    #[test]
    fn benchmark_json_declares_what_the_binary_reports() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .map(|d| d.join("BENCHMARK.json"))
            .find(|p| p.exists())
            .expect("BENCHMARK.json above the package");
        let text = std::fs::read_to_string(path).expect("readable BENCHMARK.json");
        let spec = Json::parse(&text).expect("BENCHMARK.json is JSON");
        let list = |key: &str, fields: &[&str]| -> Vec<Vec<String>> {
            let rows = spec.get(key).and_then(Json::as_array).expect("a list");
            rows.iter()
                .map(|r| {
                    fields
                        .iter()
                        .map(|f| r.get(f).and_then(Json::as_str).expect(f).to_owned())
                        .collect()
                })
                .collect()
        };
        let pairs = |xs: &[(&str, &str)]| -> Vec<Vec<String>> {
            xs.iter().map(|(n, u)| vec![(*n).to_owned(), (*u).to_owned()]).collect()
        };
        assert_eq!(list("end_to_end", &["name", "unit"]), pairs(&END_TO_END));
        assert_eq!(list("per_layer", &["name", "unit"]), pairs(&PER_LAYER));
        let workloads: Vec<String> = list("workloads", &["name"]).concat();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn release_profile_reads_only_that_table() {
        let manifest = "[package]\nname = \"x\"\n\n[profile.release]\n# why\ndebug = true\n\n\
                        [profile.bench]\ndebug = false\n";
        assert_eq!(release_profile(manifest), ["debug = true"]);
        assert!(release_profile("[package]\n").is_empty());
    }
}
