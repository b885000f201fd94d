//! The `serve_mix` workload: the real `serr serve` daemon, run as a child
//! process and driven by closed-loop clients — interactive callers that
//! each wait for a reply before sending the next request.
//!
//! The repository records no real request traffic, so the mix is an
//! assumption, kept fixed until traffic can be recorded: its request kinds
//! and workload specs are the ones the serve tests, the tier-1 serve smoke
//! and the batch figures use, and its proportions (see [`BLOCK`]) are
//! chosen, not measured.

use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use serr_analytic::renewal::renewal_mttf;
use serr_core::avf::avf_step_mttf;
use serr_core::checkpoint::{fingerprint, Journal};
use serr_core::experiments::ExperimentConfig;
use serr_core::jsonio::Json;
use serr_core::prelude::{SamplerKind, Validator, WorkloadSpec};
use serr_core::sofr::sofr_mttf_identical;
use serr_mc::{MonteCarlo, MonteCarloConfig, MttfEstimate};
use serr_obs::Obs;
use serr_serve::{Bind, Client, Request, RequestBody, Response};
use serr_softarch::SoftArch;
use serr_trace::{CompiledTrace, VulnerabilityTrace};
use serr_types::{RawErrorRate, SerrError};

use crate::batch::{peak_rss_of, sim_layers};
use crate::spans::Spans;
use crate::stats::{self, SplitMix64};
use crate::{Ctx, Metric, Outcome};

pub const NAME: &str = "serve_mix";

const TRIALS: u64 = 20_000;
/// Warm-up requests use their own trial count, so no measured request is
/// ever answered from a warm-up's journaled result.
const WARMUP_TRIALS: u64 = 2_000;
/// Requests per second of `--seconds`: the request count is fixed by the
/// arguments, sized so a run takes about `--seconds` on the machine
/// `RESULTS.md` records.
const NOMINAL_RPS: f64 = 100.0;
/// At least this many requests per run, so the p99 has ten samples beyond it.
const MIN_REQUESTS: usize = 1_000;
const SETUP_REPS: usize = 3;
const CLIENTS: usize = 2;
const SAMPLED_CHECKS: usize = 20;
const REPLAYED: usize = 200;
const RATE_GRID: usize = 1_000;
/// `components` of a `sofr` request, as in the tier-1 serve smoke.
const SOFR_COMPONENTS: u64 = 100;
const SWEEP_RATES: usize = 8;
/// Consecutive requests per block: the p50 is the median of the blocks'
/// medians, and its IQR is theirs.
const LATENCY_BLOCK: usize = 100;

/// The duty loops the serve soak test and the tier-1 serve smoke send.
const DUTY_SPECS: [&str; 5] =
    ["duty:0.002:0.5", "duty:0.004:0.25", "duty:0.001:0.75", "duty:0.003:0.4", "duty:0.001:0.5"];

/// The nine workload specs of the mix: the duty loops, then the batch
/// figures' `day`, `week`, `spec:gzip` and `combined` — more than the
/// daemon's 8-entry trace cache holds.
pub fn specs() -> Vec<WorkloadSpec> {
    let mut specs: Vec<WorkloadSpec> =
        DUTY_SPECS.iter().filter_map(|s| WorkloadSpec::parse(s).ok()).collect();
    specs.extend([
        WorkloadSpec::Day,
        WorkloadSpec::Week,
        WorkloadSpec::Spec("gzip".to_owned()),
        WorkloadSpec::Combined,
    ]);
    specs
}

/// The number of requests a run of `seconds` sends.
fn requests(seconds: f64) -> usize {
    ((seconds * NOMINAL_RPS).round() as usize).max(MIN_REQUESTS)
}

/// Fresh bodies per block, by (kind, workload class): 70% `mttf`, 20%
/// `sofr` (c = 100), 10% 8-rate `sweep`; within each kind 50% duty, 15%
/// `day`, 15% `week`, 15% `spec:gzip`, 5% `combined`. These shares are an
/// assumption, not measured traffic. Exact counts per block keep the
/// costly mix — one `combined` sweep per block — the same for every seed.
const BLOCK: [(Kind, [usize; 5]); 3] = [
    (Kind::Mttf, [70, 21, 21, 21, 7]),
    (Kind::Sofr, [20, 6, 6, 6, 2]),
    (Kind::Sweep, [10, 3, 3, 3, 1]),
];

#[derive(Debug, Clone, Copy)]
enum Kind {
    Mttf,
    Sofr,
    Sweep,
}

/// The seeded request sequence: blocks of [`BLOCK`] shuffled, rates from a
/// 1000-value log grid over 0.01–10⁴ errors/year, and every tenth body an
/// exact repeat of an earlier one. A fresh body's rates
/// are redrawn until the body is new, while the grid has room.
pub fn generate(seed: u64, n: usize) -> Vec<RequestBody> {
    let specs = specs();
    let grid: Vec<f64> = (0..RATE_GRID)
        .map(|i| 10f64.powf(-2.0 + 6.0 * i as f64 / (RATE_GRID - 1) as f64))
        .collect();
    let mut rng = SplitMix64::new(seed ^ 0x5e12_5e12_0000_0002);
    let mut out: Vec<RequestBody> = Vec::with_capacity(n);
    let mut seen = HashSet::new();
    let mut slots: Vec<(Kind, usize)> = Vec::new();
    while out.len() < n {
        if out.len() % 10 == 9 {
            let earlier = out[rng.below(out.len())].clone();
            out.push(earlier);
            continue;
        }
        if slots.is_empty() {
            for (kind, counts) in BLOCK {
                for (class, &count) in counts.iter().enumerate() {
                    slots.extend(std::iter::repeat_n((kind, class), count));
                }
            }
            // Fisher–Yates, seeded.
            for i in (1..slots.len()).rev() {
                slots.swap(i, rng.below(i + 1));
            }
        }
        let Some((kind, class)) = slots.pop() else { break };
        let workload = match class {
            0 => specs[rng.below(DUTY_SPECS.len())].clone(),
            c => specs[DUTY_SPECS.len() + c - 1].clone(),
        };
        let sampler = SamplerKind::default();
        let mut rate = || grid[rng.below(RATE_GRID)];
        let mut draw = || match kind {
            Kind::Mttf => RequestBody::Mttf {
                workload: workload.clone(),
                rate_per_year: rate(),
                trials: TRIALS,
                sampler,
            },
            Kind::Sofr => RequestBody::Sofr {
                workload: workload.clone(),
                rate_per_year: rate(),
                components: SOFR_COMPONENTS,
                trials: TRIALS,
                sampler,
            },
            Kind::Sweep => RequestBody::Sweep {
                workload: workload.clone(),
                rates_per_year: (0..SWEEP_RATES).map(|_| rate()).collect(),
                trials: TRIALS,
                sampler,
            },
        };
        let mut body = draw();
        for _ in 0..32 {
            if !seen.contains(&body.canonical()) {
                break;
            }
            body = draw();
        }
        seen.insert(body.canonical());
        out.push(body);
    }
    out
}

fn workload_of(body: &RequestBody) -> Option<&WorkloadSpec> {
    match body {
        RequestBody::Mttf { workload, .. }
        | RequestBody::Sofr { workload, .. }
        | RequestBody::Sweep { workload, .. } => Some(workload),
        RequestBody::Stats | RequestBody::Shutdown => None,
    }
}

/// Latency class: `sweep` requests, single estimates on the simulated
/// workloads (`spec`), and single estimates on closed-form loops (`light`).
fn class(body: &RequestBody) -> &'static str {
    match (body, workload_of(body)) {
        (RequestBody::Sweep { .. }, _) => "sweep",
        (_, Some(WorkloadSpec::Spec(_) | WorkloadSpec::Combined)) => "spec",
        _ => "light",
    }
}

/// The numbers a response carries per estimate, compared bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Numbers {
    mttf_mc_s: u64,
    rel_ci95: u64,
    mttf_step_s: u64,
    avf: u64,
    trials: u64,
}

impl Numbers {
    fn new(mc: &MttfEstimate, step_s: f64, avf: f64) -> Numbers {
        Numbers {
            mttf_mc_s: mc.mttf.as_secs().to_bits(),
            rel_ci95: mc.relative_ci95().to_bits(),
            mttf_step_s: step_s.to_bits(),
            avf: avf.to_bits(),
            trials: mc.ttf_seconds.count,
        }
    }

    fn of_response(resp: &Response) -> Vec<Numbers> {
        let one = |e: &serr_serve::Estimate| Numbers {
            mttf_mc_s: e.mttf_mc_s.to_bits(),
            rel_ci95: e.rel_ci95.to_bits(),
            mttf_step_s: e.mttf_step_s.to_bits(),
            avf: e.avf.to_bits(),
            trials: e.trials_done,
        };
        match resp {
            Response::Estimate { est, .. } => vec![one(est)],
            Response::Sweep { points, .. } => points.iter().map(one).collect(),
            _ => Vec::new(),
        }
    }
}

/// The request estimated directly, on the daemon's configuration
/// (`ExperimentConfig::cli()`), through the public `Validator`.
fn direct(body: &RequestBody, threads: usize) -> Result<Vec<Numbers>, SerrError> {
    let cfg = ExperimentConfig::cli();
    let spec = workload_of(body).ok_or_else(|| SerrError::invalid_config("not an estimate"))?;
    let trace = spec.trace(&cfg)?;
    let mc = |trials, sampler| MonteCarloConfig { trials, threads, sampler, ..Default::default() };
    Ok(match body {
        RequestBody::Mttf { rate_per_year, trials, sampler, .. } => {
            let v = Validator::new(cfg.frequency, mc(*trials, *sampler));
            let r = v.component(&*trace, RawErrorRate::try_per_year(*rate_per_year)?)?;
            vec![Numbers::new(&r.mttf_mc, r.mttf_avf.as_secs(), r.avf)]
        }
        RequestBody::Sofr { rate_per_year, components, trials, sampler, .. } => {
            let v = Validator::new(cfg.frequency, mc(*trials, *sampler));
            let rate = RawErrorRate::try_per_year(*rate_per_year)?;
            let r = v.system_identical(Arc::clone(&trace), rate, *components)?;
            vec![Numbers::new(&r.mttf_mc, r.mttf_sofr.as_secs(), trace.avf())]
        }
        RequestBody::Sweep { rates_per_year, trials, sampler, .. } => {
            let v = Validator::new(cfg.frequency, mc(*trials, *sampler));
            let rates = rates_per_year
                .iter()
                .map(|&r| RawErrorRate::try_per_year(r))
                .collect::<Result<Vec<_>, _>>()?;
            let ests = v.monte_carlo().component_mttf_multi(&*trace, &rates, cfg.frequency)?;
            let mut out = Vec::new();
            for (rate, est) in rates.iter().zip(ests) {
                let r = v.component_with_mc(&*trace, *rate, est?)?;
                out.push(Numbers::new(&r.mttf_mc, r.mttf_avf.as_secs(), r.avf));
            }
            out
        }
        RequestBody::Stats | RequestBody::Shutdown => Vec::new(),
    })
}

// ---------------------------------------------------------------------------
// The daemon.
// ---------------------------------------------------------------------------

/// Builds `serr` from the checkout this runs in, into this binary's own
/// target directory (`<target>/release/bench_e2e`), and returns its path.
fn build_serr() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let release = exe.parent().ok_or("own executable has no directory")?;
    let target = release.parent().ok_or("own executable is not in <target>/release")?;
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "--quiet", "--bin", "serr"])
        .env("CARGO_TARGET_DIR", target)
        .status()
        .map_err(|e| format!("run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build --bin serr failed: {status}"));
    }
    Ok(release.join("serr"))
}

/// A running `serr serve` child, killed and reaped if dropped unstopped.
struct Daemon {
    child: Child,
    bind: Bind,
    dir: PathBuf,
}

impl Daemon {
    /// Spawns the daemon on a unix socket inside `dir` (a relative path,
    /// well under the socket-path limit) and waits until it accepts.
    fn start(serr: &Path, dir: PathBuf, threads: usize) -> Result<Daemon, String> {
        let sock = dir.join("s.sock");
        let child = Command::new(serr)
            .arg("serve")
            .arg("--bind")
            .arg(format!("unix:{}", sock.display()))
            .arg("--journal-dir")
            .arg(dir.join("journal"))
            .env("SERR_THREADS", threads.to_string())
            .env("SERR_TRACE_CACHE", dir.join("trace-cache"))
            .env("SERR_CHECKPOINT_DIR", dir.join("checkpoints"))
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn serr serve: {e}"))?;
        let mut daemon = Daemon { child, bind: Bind::Unix(sock), dir };
        let deadline = Instant::now() + Duration::from_secs(60);
        while Client::connect(&daemon.bind).is_err() {
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("serr serve exited before binding: {status}"));
            }
            if Instant::now() > deadline {
                return Err("serr serve did not bind within 60 s".to_owned());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(daemon)
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    fn request(&self, body: RequestBody) -> Result<Response, String> {
        let mut client = Client::connect(&self.bind).map_err(|e| format!("connect: {e}"))?;
        client
            .roundtrip(&Request { id: 0, deadline_ms: None, tag: None, body })
            .map_err(|e| format!("request: {e}"))?
            .ok_or_else(|| "connection dropped".to_owned())
    }

    /// Graceful shutdown: the wire `shutdown` request, then reap.
    fn stop(mut self) -> Result<(), String> {
        self.request(RequestBody::Shutdown)?;
        let status = self.child.wait().map_err(|e| format!("wait for serr serve: {e}"))?;
        if !status.success() {
            return Err(format!("serr serve exited with {status}"));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Set-up: spawn → socket bound → one warm-up estimate per spec answered.
fn setup(ctx: &Ctx, serr: &Path, specs: &[WorkloadSpec]) -> Result<(Daemon, f64), String> {
    let dir = ctx.fresh_dir("serve_mix-daemon")?;
    let t0 = Instant::now();
    let daemon = Daemon::start(serr, dir, daemon_threads(ctx))?;
    let mut client = Client::connect(&daemon.bind).map_err(|e| format!("connect: {e}"))?;
    for (i, spec) in specs.iter().enumerate() {
        let body = RequestBody::Mttf {
            workload: spec.clone(),
            rate_per_year: 1.0,
            trials: WARMUP_TRIALS,
            sampler: SamplerKind::default(),
        };
        let req = Request { id: i as u64, deadline_ms: None, tag: None, body };
        match client.roundtrip(&req).map_err(|e| format!("warm-up: {e}"))? {
            Some(resp) if resp.state() == "result" => {}
            other => return Err(format!("warm-up for {} answered {other:?}", spec.canonical())),
        }
    }
    Ok((daemon, t0.elapsed().as_secs_f64()))
}

/// The daemon's Monte Carlo threads: its two estimate workers then fill the
/// run's cores.
fn daemon_threads(ctx: &Ctx) -> usize {
    (ctx.threads / 2).max(1)
}

struct Sample {
    index: usize,
    latency_ms: f64,
    response: Option<Response>,
}

/// Closed loop: each client sends its next request only after the previous
/// reply arrived, until every body was sent. Returns the samples in
/// sequence order and the loop's wall time.
fn drive(
    bind: &Bind,
    bodies: &[RequestBody],
    clients: usize,
) -> Result<(Vec<Sample>, f64), String> {
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::new());
    let start = Instant::now();
    let outcomes: Vec<Result<(), String>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| -> Result<(), String> {
                    let mut client = Client::connect(bind).map_err(|e| format!("connect: {e}"))?;
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        if i >= bodies.len() {
                            return Ok(());
                        }
                        let req = Request {
                            id: i as u64,
                            deadline_ms: None,
                            tag: None,
                            body: bodies[i].clone(),
                        };
                        let t0 = Instant::now();
                        let response =
                            client.roundtrip(&req).map_err(|e| format!("request {i}: {e}"))?;
                        let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
                        samples
                            .lock()
                            .map_err(|_| "sample log poisoned".to_owned())?
                            .push(Sample { index: i, latency_ms, response });
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().unwrap_or_else(|_| Err("client panicked".to_owned())))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    outcomes.into_iter().collect::<Result<Vec<()>, String>>()?;
    let mut samples = samples.into_inner().map_err(|_| "sample log poisoned".to_owned())?;
    samples.sort_by_key(|s| s.index);
    Ok((samples, wall))
}

fn ok(s: &Sample) -> bool {
    s.response.as_ref().is_some_and(|r| r.state() == "result")
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let serr = build_serr()?;
    let specs = specs();
    let bodies = generate(ctx.seed, requests(ctx.seconds));
    // Every set-up starts a fresh daemon on an empty trace cache; the last
    // one goes on to serve the measured loop.
    let reps = if ctx.traced { 1 } else { SETUP_REPS };
    let mut setups = Vec::with_capacity(reps);
    let (mut daemon, secs) = setup(ctx, &serr, &specs)?;
    setups.push(secs);
    while setups.len() < reps {
        daemon.stop()?;
        let (next, secs) = setup(ctx, &serr, &specs)?;
        setups.push(secs);
        daemon = next;
    }
    let (samples, wall) = drive(&daemon.bind, &bodies, CLIENTS.min(ctx.threads))?;
    let rss_mb = peak_rss_of(&daemon.pid())?;
    let counters: BTreeMap<String, u64> = match daemon.request(RequestBody::Stats)? {
        Response::Stats { counters, .. } => counters.into_iter().collect(),
        other => return Err(format!("stats request answered {other:?}")),
    };
    daemon.stop()?;

    let mut checks = Vec::new();
    let failed = samples.iter().filter(|s| !ok(s)).count();
    if failed > 0 {
        checks.push(format!("{failed} of {} requests did not end in `result`", samples.len()));
    }
    let latencies: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
    let completed = samples.iter().filter(|s| ok(s)).count();
    let metrics = if ctx.traced {
        let layers = traced(ctx, &bodies, &samples, &counters)?;
        crate::per_layer_metrics(|name| layers.get(name).copied())
    } else {
        // Requests differ in kind, so the spread of their latencies says
        // nothing about noise; the spread of the medians of consecutive
        // blocks, each with about the same mix, does.
        let block_medians: Vec<f64> =
            latencies.chunks_exact(LATENCY_BLOCK).map(stats::median).collect();
        let (tail_label, tail_ms) = stats::tail(&latencies);
        vec![
            Metric::of("setup_s", "s", &setups),
            Metric::of("p50_ms", "ms", &block_medians),
            Metric { label: Some(tail_label), ..Metric::one("tail_ms", "ms", tail_ms) },
            Metric::one("throughput_per_s", "1/s", completed as f64 / wall),
            Metric::one("peak_rss_mb", "MiB", rss_mb),
        ]
    };
    // Bit-parity with the batch path on a seeded sample of the responses
    // (after the traced replay, whose simulations must start cold).
    let mut rng = SplitMix64::new(ctx.seed ^ 0x5e12_5e12_0000_0003);
    for _ in 0..SAMPLED_CHECKS.min(samples.len()) {
        let s = &samples[rng.below(samples.len())];
        let (Some(resp), body) = (&s.response, &bodies[s.index]) else { continue };
        let want = direct(body, ctx.threads).map_err(|e| format!("direct estimate: {e}"))?;
        if Numbers::of_response(resp) != want {
            checks.push(format!("request {} differs from the direct Validator estimate", s.index));
        }
    }

    Ok(Outcome {
        workload: NAME,
        attempted: samples.len() as u64,
        failed: failed as u64,
        checks,
        metrics,
    })
}

// ---------------------------------------------------------------------------
// Traced run: per-class client latency, the daemon's own counters, and a
// direct replay of the first bodies with every layer timed.
// ---------------------------------------------------------------------------

fn traced(
    ctx: &Ctx,
    bodies: &[RequestBody],
    samples: &[Sample],
    counters: &BTreeMap<String, u64>,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let err = |e: SerrError| e.to_string();
    let cfg = ExperimentConfig::cli();
    let mut spans = Spans::new();

    // The simulations behind `spec:gzip` and `combined`, cold.
    let probe_dir = ctx.fresh_dir("serve_mix-probe")?;
    let mut layers: BTreeMap<&'static str, f64> =
        sim_layers(&["gzip", "swim"], &cfg, &probe_dir, &mut spans)?.into_iter().collect();

    // Replay the first bodies the way the daemon serves a cache miss:
    // build and compile the trace, estimate through the layers the
    // `Validator` calls, journal the result.
    let journal =
        Journal::open(&probe_dir, "bench_e2e-serve", fingerprint(&[NAME]), true).map_err(err)?;
    let mc_obs = Obs::disabled();
    let threads = daemon_threads(ctx);
    let mut service_ms = Vec::new();
    let mut overhead_ms = Vec::new();
    let mut client_ms = 0.0;
    let mut trial_points = 0.0;
    let mut compiled = 0.0;
    let mut roots = Vec::new();
    for sample in samples.iter().take(REPLAYED) {
        let Some(resp) = &sample.response else { continue };
        let resumed = match resp {
            Response::Estimate { est, .. } => est.resumed,
            Response::Sweep { points, .. } => points.iter().all(|p| p.resumed),
            _ => false,
        };
        if resumed {
            continue; // answered from the results journal: no layer ran
        }
        let root = spans.next_id();
        let got = spans
            .time("request", Some(sample.index), |s| {
                let body = &bodies[sample.index];
                replay_one(s, body, threads, &mc_obs, &journal, roots.len(), sample.index)
            })
            .map_err(err)?;
        let ms = spans.get(root).map_or(0.0, |s| s.ms());
        service_ms.push(ms);
        overhead_ms.push(sample.latency_ms - ms);
        client_ms += sample.latency_ms;
        trial_points += got.trial_points;
        compiled += f64::from(u8::from(got.compiled));
        roots.push(root);
    }
    let _ = std::fs::remove_dir_all(&probe_dir);

    let mut own: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut calls: BTreeMap<&'static str, f64> = BTreeMap::new();
    for &root in &roots {
        for (name, ms) in spans.self_ms(root) {
            *own.entry(name).or_insert(0.0) += ms;
            *calls.entry(name).or_insert(0.0) += spans.total(root, name).1 as f64;
        }
    }
    let get = |m: &BTreeMap<&str, f64>, name: &str| m.get(name).copied().unwrap_or(0.0);
    let mc_ms = get(&own, "mc");
    let mc_snap = mc_obs.metrics().snapshot();
    let counter = |name: &str| mc_snap.counters.get(name).copied().unwrap_or(0) as f64;
    let hist = |name: &str| mc_snap.histograms.get(name).map_or(0.0, |h| h.sum());
    let class_p50 = |c: &str| {
        let xs: Vec<f64> =
            samples.iter().filter(|s| class(&bodies[s.index]) == c).map(|s| s.latency_ms).collect();
        if xs.is_empty() {
            0.0
        } else {
            stats::median(&xs)
        }
    };
    let served = |name: &str| counters.get(name).copied().unwrap_or(0) as f64;
    spans.append_jsonl(&crate::trace_path(), NAME).map_err(|e| format!("write span trace: {e}"))?;
    layers.extend([
        ("trace.build_ms", get(&own, "trace.build")),
        ("trace.compile_ms", get(&own, "trace.compile")),
        ("trace.compile_calls", get(&calls, "trace.compile")),
        ("trace.compiled_frac", compiled / roots.len().max(1) as f64),
        ("mc.busy_ms", mc_ms),
        ("mc.trial_points", trial_points),
        (
            "mc.ns_per_trial_point",
            if trial_points > 0.0 { mc_ms * 1e6 / trial_points } else { 0.0 },
        ),
        ("mc.event_loop_runs", counter("mc.runs_event_loop")),
        ("mc.raw_error_events", counter("mc.raw_error_events")),
        ("sweep.shared_ms", hist("stage.sweep_shared_ms")),
        ("sweep.point_ms", hist("stage.sweep_point_ms")),
        ("renewal.busy_ms", get(&own, "renewal")),
        ("renewal.calls", get(&calls, "renewal")),
        ("softarch.busy_ms", get(&own, "softarch")),
        ("softarch.calls", get(&calls, "softarch")),
        ("validate.glue_ms", get(&own, "request")),
        ("journal.record_ms", get(&own, "journal.record")),
        ("journal.records", get(&calls, "journal.record")),
        ("serve.light_p50_ms", class_p50("light")),
        ("serve.spec_p50_ms", class_p50("spec")),
        ("serve.sweep_p50_ms", class_p50("sweep")),
        ("serve.service_p50_ms", stats::median(&service_ms)),
        ("serve.overhead_p50_ms", stats::median(&overhead_ms)),
        ("serve.resumed", served("serve.resumed")),
        ("serve.cache_evictions", served("serve.cache_evictions")),
        ("serve.shed", served("serve.shed")),
        ("attributed_frac", service_ms.iter().sum::<f64>() / client_ms),
    ]);
    Ok(layers)
}

struct ReplayedRequest {
    trial_points: f64,
    compiled: bool,
}

/// One request, layer by layer, mirroring the daemon's compile stage
/// (`WorkloadSpec::trace` + `CompiledTrace::compile`) and its estimate
/// stage (`Validator::component` / `system_identical`, or the sweep
/// kernel plus `component_with_mc`), then `publish_result`'s journal append.
/// Only the time is kept: the daemon's numbers are checked against the
/// `Validator` by the sampled parity gate of [`run`].
fn replay_one(
    s: &mut Spans,
    body: &RequestBody,
    threads: usize,
    obs: &Obs,
    journal: &Journal,
    record: usize,
    index: usize,
) -> Result<ReplayedRequest, SerrError> {
    let cfg = ExperimentConfig::cli();
    let freq = cfg.frequency;
    let at = Some(index);
    let spec = workload_of(body).ok_or_else(|| SerrError::invalid_config("not an estimate"))?;
    let trace: Arc<dyn VulnerabilityTrace> = s.time("trace.build", at, |_| spec.trace(&cfg))?;
    let compiled = s.time("trace.compile", at, |_| CompiledTrace::compile(&*trace)).is_some();
    let mc_for = |trials: u64, sampler| {
        MonteCarlo::new(MonteCarloConfig { trials, threads, sampler, ..Default::default() })
            .with_observer(obs.clone())
    };
    let component = |s: &mut Spans, rate: RawErrorRate| {
        avf_step_mttf(&*trace, rate)?;
        s.time("renewal", at, |_| renewal_mttf(&*trace, rate, freq))?;
        s.time("softarch", at, |_| SoftArch::new(freq).component_mttf(&*trace, rate))?;
        Ok::<_, SerrError>(())
    };
    let trial_points = match body {
        RequestBody::Mttf { rate_per_year, trials, sampler, .. } => {
            let rate = RawErrorRate::try_per_year(*rate_per_year)?;
            s.time("mc", at, |_| mc_for(*trials, *sampler).component_mttf(&*trace, rate, freq))?;
            component(s, rate)?;
            *trials as f64
        }
        RequestBody::Sofr { rate_per_year, components, trials, sampler, .. } => {
            let rate = RawErrorRate::try_per_year(*rate_per_year)?;
            let system = rate.scale(*components as f64);
            s.time("mc", at, |_| mc_for(*trials, *sampler).component_mttf(&*trace, system, freq))?;
            let comp = s.time("renewal", at, |_| renewal_mttf(&*trace, rate, freq))?;
            sofr_mttf_identical(comp, *components)?;
            s.time("renewal", at, |_| renewal_mttf(&*trace, system, freq))?;
            s.time("softarch", at, |_| SoftArch::new(freq).component_mttf(&*trace, system))?;
            *trials as f64
        }
        RequestBody::Sweep { rates_per_year, trials, sampler, .. } => {
            let rates = rates_per_year
                .iter()
                .map(|&r| RawErrorRate::try_per_year(r))
                .collect::<Result<Vec<_>, _>>()?;
            let ests = s.time("mc", at, |_| {
                mc_for(*trials, *sampler).component_mttf_multi(&*trace, &rates, freq)
            })?;
            for (rate, est) in rates.iter().zip(ests) {
                est?;
                component(s, *rate)?;
            }
            (*trials * rates.len() as u64) as f64
        }
        RequestBody::Stats | RequestBody::Shutdown => 0.0,
    };
    let row = Json::Obj(vec![("body".to_owned(), Json::Str(body.canonical()))]);
    s.time("journal.record", at, |_| journal.record(record, &row))?;
    Ok(ReplayedRequest { trial_points, compiled })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_mix_is_a_pure_function_of_the_seed() {
        let a = generate(42, 3_000);
        assert_eq!(a, generate(42, 3_000));
        assert_ne!(a, generate(43, 3_000));
        assert_eq!(specs().len(), DUTY_SPECS.len() + 4, "every duty spec parses");
    }

    #[test]
    fn the_request_count_follows_the_seconds_only() {
        assert_eq!(requests(15.0), 1_500);
        assert_eq!(requests(1.0), MIN_REQUESTS);
    }

    #[test]
    fn the_mix_has_the_stated_proportions() {
        // About the number of requests one run sends.
        let bodies = generate(7, 2_000);
        let share = |f: &dyn Fn(&RequestBody) -> bool| {
            bodies.iter().filter(|b| f(b)).count() as f64 / bodies.len() as f64
        };
        let near = |x: f64, want: f64| (x - want).abs() < 0.03;
        assert!(near(share(&|b| matches!(b, RequestBody::Mttf { .. })), 0.70));
        assert!(near(share(&|b| matches!(b, RequestBody::Sofr { .. })), 0.20));
        assert!(near(share(&|b| matches!(b, RequestBody::Sweep { .. })), 0.10));
        assert!(near(share(&|b| workload_of(b) == Some(&WorkloadSpec::Combined)), 0.05));
        assert!(near(share(&|b| workload_of(b) == Some(&WorkloadSpec::Day)), 0.15));
        let canon: Vec<String> = bodies.iter().map(RequestBody::canonical).collect();
        let repeats = (1..canon.len()).filter(|&i| canon[..i].contains(&canon[i])).count();
        assert!(near(repeats as f64 / canon.len() as f64, 0.10), "{repeats} repeats");
        // Every body is a valid wire frame.
        for (i, body) in bodies.iter().take(500).enumerate() {
            let req = Request { id: i as u64, deadline_ms: None, tag: None, body: body.clone() };
            assert_eq!(Request::parse(&req.to_line()).map(|r| r.body).as_ref(), Ok(body));
        }
    }
}
