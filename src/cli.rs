//! Argument model for the `serr` command-line tool.
//!
//! The CLI exposes the workspace's estimators over the paper's workloads:
//!
//! ```console
//! $ serr mttf --workload day --n-s 1e8                # all four estimators
//! $ serr mttf --workload spec:gzip --rate 1e-4        # simulated benchmark
//! $ serr sofr --workload week --n-s 1e8 -c 5000       # cluster projection
//! $ serr chaos --campaigns 50 --seed 7                # fault-injection campaigns
//! $ serr serve --bind unix:/tmp/serr.sock             # estimation daemon
//! $ serr request --connect unix:/tmp/serr.sock --cmd mttf -w day --n-s 1e8
//! $ serr workloads                                    # list what's available
//! ```
//!
//! Parsing is hand-rolled (no CLI dependency) and lives here so it is unit
//! testable; `src/bin/serr.rs` is a thin shell around [`Command::parse`]
//! and [`run`].

use serr_core::experiments::ExperimentConfig;
use serr_core::prelude::*;
use serr_obs::Obs;
use serr_serve::{Bind, RequestBody, ServeConfig, Server};
use serr_types::SerrError;

// The spec grammar and trace construction live in serr-core so the `serr
// serve` daemon provably shares them; re-exported here for API stability.
pub use serr_core::workspec::WorkloadSpec;

/// A parsed `serr` invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Print AVF and the four MTTF estimates for one component.
    Mttf {
        /// The workload.
        workload: WorkloadSpec,
        /// Component raw error rate in errors/year.
        rate_per_year: f64,
        /// Monte Carlo trials.
        trials: u64,
        /// Which time-to-failure sampler the Monte Carlo engine runs.
        sampler: SamplerKind,
        /// Wall-clock budget for the Monte Carlo run, in seconds.
        deadline_s: Option<f64>,
        /// Protection transforms applied to the trace before estimation.
        protect: ProtectionSpec,
        /// Write stage timings, convergence events, and a metrics snapshot
        /// as JSONL to this path.
        metrics: Option<std::path::PathBuf>,
    },
    /// SOFR cluster projection vs ground truth.
    Sofr {
        /// The workload each component runs.
        workload: WorkloadSpec,
        /// Per-component raw error rate in errors/year.
        rate_per_year: f64,
        /// Number of components.
        components: u64,
        /// Monte Carlo trials.
        trials: u64,
        /// Which time-to-failure sampler the Monte Carlo engine runs.
        sampler: SamplerKind,
        /// Wall-clock budget for the Monte Carlo run, in seconds.
        deadline_s: Option<f64>,
        /// Protection transforms applied to each component's trace.
        protect: ProtectionSpec,
        /// Write stage timings, convergence events, and a metrics snapshot
        /// as JSONL to this path.
        metrics: Option<std::path::PathBuf>,
    },
    /// Run one of the paper's figure sweeps with checkpoint/resume.
    Sweep {
        /// Which figure to regenerate.
        figure: SweepFigure,
        /// Discard any existing checkpoint journal first.
        fresh: bool,
        /// Monte Carlo trials override.
        trials: Option<u64>,
        /// Write checkpoint events and a metrics snapshot as JSONL to this
        /// path.
        metrics: Option<std::path::PathBuf>,
    },
    /// Dump a `.store` file's header, page CRCs, and record counts.
    StoreInspect {
        /// The store file (checkpoint journal, trace cache entry, ...).
        path: std::path::PathBuf,
    },
    /// Run deterministic fault-injection campaigns across the stack and
    /// check the detect-or-degrade invariant.
    Chaos {
        /// Number of campaigns.
        campaigns: usize,
        /// Master seed (campaign `i` uses plan seed `mix(seed, i)`).
        seed: u64,
        /// Monte Carlo trials per guarded estimate.
        trials: u64,
        /// Which sampler the guarded campaigns run.
        sampler: SamplerKind,
        /// Restrict campaigns to these fault kinds (`None` = all ten).
        kinds: Option<Vec<FaultKind>>,
        /// Write one JSON line per campaign outcome to this path.
        jsonl: Option<std::path::PathBuf>,
    },
    /// Run the supervised estimation daemon (`serr serve`).
    Serve {
        /// Where to listen (`unix:PATH` or `tcp:ADDR`).
        bind: Bind,
        /// Worker slots; each fetches its request's trace, then estimates.
        workers: usize,
        /// Bounded queue depth; admission control sheds beyond it.
        queue_depth: usize,
        /// Checkpoint directory for drain/resume journals.
        journal_dir: Option<std::path::PathBuf>,
    },
    /// Send one JSONL request to a running daemon and print the response.
    Request {
        /// The daemon's address (`unix:PATH` or `tcp:ADDR`).
        connect: Bind,
        /// Correlation id echoed on the response.
        id: u64,
        /// Wall-clock budget for the request, in milliseconds.
        deadline_ms: Option<u64>,
        /// What to ask for.
        body: RequestBody,
    },
    /// List available workloads and benchmark profiles.
    Workloads,
    /// Print usage.
    Help,
}

/// The figure sweeps reachable from `serr sweep`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepFigure {
    /// Section 5.1: uniprocessor AVF/SOFR vs Monte Carlo.
    Sec51,
    /// Figure 5: AVF-step error, synthesized workloads.
    Fig5,
    /// Figure 6(a): SOFR-step error, SPEC clusters.
    Fig6a,
    /// Figure 6(b): SOFR-step error, synthesized-workload clusters.
    Fig6b,
    /// Section 5.4: SoftArch across the design space.
    Sec54,
}

impl SweepFigure {
    fn parse(s: &str) -> Result<Self, SerrError> {
        match s {
            "sec5_1" => Ok(SweepFigure::Sec51),
            "fig5" => Ok(SweepFigure::Fig5),
            "fig6a" => Ok(SweepFigure::Fig6a),
            "fig6b" => Ok(SweepFigure::Fig6b),
            "sec5_4" => Ok(SweepFigure::Sec54),
            other => Err(SerrError::invalid_config(format!(
                "unknown sweep `{other}`; expected sec5_1, fig5, fig6a, fig6b, or sec5_4"
            ))),
        }
    }
}

impl Command {
    /// Parses an argument vector (excluding `argv[0]`).
    ///
    /// # Errors
    ///
    /// Returns [`SerrError::InvalidConfig`] on malformed arguments.
    pub fn parse<S: AsRef<str>>(args: &[S]) -> Result<Command, SerrError> {
        let mut it = args.iter().map(AsRef::as_ref);
        let sub = it.next().unwrap_or("help");
        match sub {
            "workloads" => Ok(Command::Workloads),
            "help" | "--help" | "-h" => Ok(Command::Help),
            "sweep" => {
                let figure = SweepFigure::parse(it.next().ok_or_else(|| {
                    SerrError::invalid_config(
                        "sweep needs a figure: sec5_1, fig5, fig6a, fig6b, or sec5_4",
                    )
                })?)?;
                let mut fresh = false;
                let mut trials: Option<u64> = None;
                let mut metrics: Option<std::path::PathBuf> = None;
                while let Some(flag) = it.next() {
                    match flag {
                        "--fresh" => fresh = true,
                        "--resume" => fresh = false, // the default, spelled out
                        "--trials" => {
                            let v = it.next().ok_or_else(|| {
                                SerrError::invalid_config("--trials needs a value")
                            })?;
                            trials = Some(parse_count("--trials", v)?);
                        }
                        "--metrics" => {
                            let v = it.next().ok_or_else(|| {
                                SerrError::invalid_config("--metrics needs a path")
                            })?;
                            metrics = Some(std::path::PathBuf::from(v));
                        }
                        other => {
                            return Err(SerrError::invalid_config(format!(
                                "unknown flag `{other}`"
                            )))
                        }
                    }
                }
                Ok(Command::Sweep { figure, fresh, trials, metrics })
            }
            "store" => match it.next() {
                Some("inspect") => {
                    let path = it.next().ok_or_else(|| {
                        SerrError::invalid_config("store inspect needs a file path")
                    })?;
                    if let Some(extra) = it.next() {
                        return Err(SerrError::invalid_config(format!(
                            "unexpected argument `{extra}`"
                        )));
                    }
                    Ok(Command::StoreInspect { path: std::path::PathBuf::from(path) })
                }
                Some(other) => Err(SerrError::invalid_config(format!(
                    "unknown store subcommand `{other}`; expected inspect"
                ))),
                None => Err(SerrError::invalid_config("store needs a subcommand: inspect")),
            },
            "chaos" => {
                let defaults = serr_core::chaos::ChaosConfig::default();
                let mut campaigns = defaults.campaigns;
                let mut seed = defaults.seed;
                let mut trials = defaults.trials;
                let mut sampler = defaults.sampler;
                let mut kinds: Option<Vec<FaultKind>> = None;
                let mut jsonl: Option<std::path::PathBuf> = None;
                while let Some(flag) = it.next() {
                    let mut value = |name: &str| {
                        it.next().map(str::to_owned).ok_or_else(|| {
                            SerrError::invalid_config(format!("{name} needs a value"))
                        })
                    };
                    match flag {
                        "--campaigns" => {
                            campaigns = parse_count("--campaigns", &value("--campaigns")?)?
                                .try_into()
                                .map_err(|_| {
                                    SerrError::invalid_config("--campaigns is out of range")
                                })?;
                        }
                        "--seed" => seed = parse_seed(&value("--seed")?)?,
                        "--trials" => trials = parse_count("--trials", &value("--trials")?)?,
                        "--sampler" => sampler = SamplerKind::parse(&value("--sampler")?)?,
                        "--kinds" => kinds = Some(parse_kinds(&value("--kinds")?)?),
                        "--jsonl" => {
                            jsonl = Some(std::path::PathBuf::from(value("--jsonl")?));
                        }
                        other => {
                            return Err(SerrError::invalid_config(format!(
                                "unknown flag `{other}`"
                            )))
                        }
                    }
                }
                Ok(Command::Chaos { campaigns, seed, trials, sampler, kinds, jsonl })
            }
            "mttf" | "sofr" => {
                let mut workload: Option<WorkloadSpec> = None;
                let mut rate: Option<f64> = None;
                let mut components: u64 = 1;
                let mut trials: u64 = 100_000;
                let mut sampler = SamplerKind::default();
                let mut deadline_s: Option<f64> = None;
                let mut protect = ProtectionSpec::none();
                let mut metrics: Option<std::path::PathBuf> = None;
                while let Some(flag) = it.next() {
                    let mut value = |name: &str| {
                        it.next().map(str::to_owned).ok_or_else(|| {
                            SerrError::invalid_config(format!("{name} needs a value"))
                        })
                    };
                    match flag {
                        "--workload" | "-w" => {
                            workload = Some(WorkloadSpec::parse(&value("--workload")?)?);
                        }
                        "--rate" => {
                            rate = Some(parse_positive_f64("--rate", &value("--rate")?)?);
                        }
                        "--n-s" => {
                            let prod = parse_positive_f64("--n-s", &value("--n-s")?)?;
                            rate = Some(prod * serr_types::BASELINE_RAW_RATE_PER_BIT_PER_YEAR);
                        }
                        "--components" | "-c" => {
                            components = parse_count("-c", &value("-c")?)?;
                        }
                        "--trials" => {
                            trials = parse_count("--trials", &value("--trials")?)?;
                        }
                        "--sampler" => {
                            sampler = SamplerKind::parse(&value("--sampler")?)?;
                        }
                        "--deadline" => {
                            deadline_s =
                                Some(parse_positive_f64("--deadline", &value("--deadline")?)?);
                        }
                        "--protect" => {
                            protect = ProtectionSpec::parse(&value("--protect")?)?;
                        }
                        "--metrics" => {
                            metrics = Some(std::path::PathBuf::from(value("--metrics")?));
                        }
                        other => {
                            return Err(SerrError::invalid_config(format!(
                                "unknown flag `{other}`"
                            )))
                        }
                    }
                }
                let workload =
                    workload.ok_or_else(|| SerrError::invalid_config("--workload is required"))?;
                let rate_per_year = rate.ok_or_else(|| {
                    SerrError::invalid_config("--rate <errors/year> or --n-s <product> is required")
                })?;
                if sub == "mttf" {
                    Ok(Command::Mttf {
                        workload,
                        rate_per_year,
                        trials,
                        sampler,
                        deadline_s,
                        protect,
                        metrics,
                    })
                } else {
                    Ok(Command::Sofr {
                        workload,
                        rate_per_year,
                        components,
                        trials,
                        sampler,
                        deadline_s,
                        protect,
                        metrics,
                    })
                }
            }
            "serve" => {
                let mut bind: Option<Bind> = None;
                let mut workers: usize = 2;
                let mut queue_depth: usize = 64;
                let mut journal_dir: Option<std::path::PathBuf> = None;
                while let Some(flag) = it.next() {
                    let mut value = |name: &str| {
                        it.next().map(str::to_owned).ok_or_else(|| {
                            SerrError::invalid_config(format!("{name} needs a value"))
                        })
                    };
                    match flag {
                        "--bind" => bind = Some(Bind::parse(&value("--bind")?)?),
                        "--workers" => {
                            workers = parse_small_count("--workers", &value("--workers")?)?;
                        }
                        "--queue" => {
                            queue_depth = parse_small_count("--queue", &value("--queue")?)?;
                        }
                        "--journal-dir" => {
                            journal_dir = Some(std::path::PathBuf::from(value("--journal-dir")?));
                        }
                        other => {
                            return Err(SerrError::invalid_config(format!(
                                "unknown flag `{other}`"
                            )))
                        }
                    }
                }
                let bind = bind.ok_or_else(|| {
                    SerrError::invalid_config("--bind is required (unix:PATH or tcp:ADDR)")
                })?;
                Ok(Command::Serve { bind, workers, queue_depth, journal_dir })
            }
            "request" => {
                let mut connect: Option<Bind> = None;
                let mut cmd: Option<String> = None;
                let mut workload: Option<WorkloadSpec> = None;
                let mut rate: Option<f64> = None;
                let mut rates: Option<Vec<f64>> = None;
                let mut components: u64 = 1;
                let mut trials: u64 = 100_000;
                let mut sampler = SamplerKind::default();
                let mut deadline_ms: Option<u64> = None;
                let mut id: u64 = 0;
                while let Some(flag) = it.next() {
                    let mut value = |name: &str| {
                        it.next().map(str::to_owned).ok_or_else(|| {
                            SerrError::invalid_config(format!("{name} needs a value"))
                        })
                    };
                    match flag {
                        "--connect" => connect = Some(Bind::parse(&value("--connect")?)?),
                        "--cmd" => cmd = Some(value("--cmd")?),
                        "--workload" | "-w" => {
                            workload = Some(WorkloadSpec::parse(&value("--workload")?)?);
                        }
                        "--rate" => {
                            rate = Some(parse_positive_f64("--rate", &value("--rate")?)?);
                        }
                        "--n-s" => {
                            let prod = parse_positive_f64("--n-s", &value("--n-s")?)?;
                            rate = Some(prod * serr_types::BASELINE_RAW_RATE_PER_BIT_PER_YEAR);
                        }
                        "--rates" => {
                            rates = Some(
                                value("--rates")?
                                    .split(',')
                                    .map(|s| parse_positive_f64("--rates", s.trim()))
                                    .collect::<Result<Vec<f64>, SerrError>>()?,
                            );
                        }
                        "--components" | "-c" => {
                            components = parse_count("-c", &value("-c")?)?;
                        }
                        "--trials" => trials = parse_count("--trials", &value("--trials")?)?,
                        "--sampler" => sampler = SamplerKind::parse(&value("--sampler")?)?,
                        "--deadline-ms" => {
                            deadline_ms =
                                Some(parse_count("--deadline-ms", &value("--deadline-ms")?)?);
                        }
                        "--id" => id = parse_count("--id", &value("--id")?)?,
                        other => {
                            return Err(SerrError::invalid_config(format!(
                                "unknown flag `{other}`"
                            )))
                        }
                    }
                }
                let connect = connect.ok_or_else(|| {
                    SerrError::invalid_config("--connect is required (unix:PATH or tcp:ADDR)")
                })?;
                let estimation = |components: Option<u64>| -> Result<RequestBody, SerrError> {
                    let workload = workload.clone().ok_or_else(|| {
                        SerrError::invalid_config("--workload is required for this --cmd")
                    })?;
                    let rate_per_year = rate.ok_or_else(|| {
                        SerrError::invalid_config(
                            "--rate <errors/year> or --n-s <product> is required for this --cmd",
                        )
                    })?;
                    Ok(match components {
                        Some(components) => RequestBody::Sofr {
                            workload,
                            rate_per_year,
                            components,
                            trials,
                            sampler,
                        },
                        None => RequestBody::Mttf { workload, rate_per_year, trials, sampler },
                    })
                };
                let body = match cmd.as_deref() {
                    Some("mttf") => estimation(None)?,
                    Some("sofr") => estimation(Some(components))?,
                    Some("sweep") => {
                        let workload = workload.clone().ok_or_else(|| {
                            SerrError::invalid_config("--workload is required for --cmd sweep")
                        })?;
                        let rates_per_year = rates.ok_or_else(|| {
                            SerrError::invalid_config(
                                "--rates <r1,r2,...> (errors/year) is required for --cmd sweep",
                            )
                        })?;
                        RequestBody::Sweep { workload, rates_per_year, trials, sampler }
                    }
                    Some("stats") => RequestBody::Stats,
                    Some("shutdown") => RequestBody::Shutdown,
                    Some(other) => {
                        return Err(SerrError::invalid_config(format!(
                            "unknown --cmd `{other}`; expected mttf, sofr, sweep, stats, or \
                             shutdown"
                        )))
                    }
                    None => {
                        return Err(SerrError::invalid_config(
                            "--cmd is required (mttf, sofr, sweep, stats, or shutdown)",
                        ))
                    }
                };
                Ok(Command::Request { connect, id, deadline_ms, body })
            }
            other => Err(SerrError::invalid_config(format!("unknown subcommand `{other}`"))),
        }
    }
}

/// Parses a count that must also fit a `usize` (worker slots, queue depth).
fn parse_small_count(name: &str, v: &str) -> Result<usize, SerrError> {
    usize::try_from(parse_count(name, v)?)
        .map_err(|_| SerrError::invalid_config(format!("{name} is out of range")))
}

fn parse_f64(name: &str, v: &str) -> Result<f64, SerrError> {
    v.parse::<f64>()
        .map_err(|_| SerrError::invalid_config(format!("{name}: `{v}` is not a number")))
}

/// Parses a strictly positive, finite number — NaN, ±∞, zero, and negatives
/// all get an error naming the flag, so bad numerics die at the command
/// line instead of deep inside an estimator.
fn parse_positive_f64(name: &str, v: &str) -> Result<f64, SerrError> {
    let x = parse_f64(name, v)?;
    if !(x.is_finite() && x > 0.0) {
        return Err(SerrError::invalid_config(format!(
            "{name} must be a positive finite number, got `{v}`"
        )));
    }
    Ok(x)
}

/// Parses a campaign seed: decimal or `0x`-prefixed hex (the form chaos
/// reports print, so a seed can be pasted back verbatim to replay).
fn parse_seed(v: &str) -> Result<u64, SerrError> {
    let parsed = match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => v.parse::<u64>().ok(),
    };
    parsed.ok_or_else(|| {
        SerrError::invalid_config(format!("--seed: `{v}` is not a u64 (decimal or 0x-hex)"))
    })
}

/// Parses a comma-separated list of fault-kind labels.
fn parse_kinds(v: &str) -> Result<Vec<FaultKind>, SerrError> {
    v.split(',')
        .map(|s| {
            FaultKind::parse(s.trim()).ok_or_else(|| {
                SerrError::invalid_config(format!(
                    "--kinds: unknown fault kind `{s}`; known: {} \
                     (serve-* kinds belong to the serr-serve chaos soak)",
                    FaultKind::CORE.map(FaultKind::label).join(", ")
                ))
            })
        })
        .collect()
}

/// Parses a whole-number count of at least 1. Scientific notation is
/// accepted (`-c 5e3`), but fractional values (`-c 2.5`) and values too
/// large to represent exactly as an integer (`> 2^53`) are rejected rather
/// than silently truncated.
fn parse_count(name: &str, v: &str) -> Result<u64, SerrError> {
    if let Ok(n) = v.parse::<u64>() {
        if n >= 1 {
            return Ok(n);
        }
        return Err(SerrError::invalid_config(format!("{name} must be at least 1, got {v}")));
    }
    let f = parse_f64(name, v)?;
    if !(f.is_finite() && f >= 1.0 && f.fract() == 0.0 && f <= 9_007_199_254_740_992.0) {
        return Err(SerrError::invalid_config(format!(
            "{name} must be a whole number between 1 and 2^53, got `{v}`"
        )));
    }
    Ok(f as u64)
}

/// Usage text.
pub const USAGE: &str = "\
serr — architecture-level soft error analysis (DSN 2007 reproduction)

USAGE:
  serr mttf --workload <W> (--rate <errors/year> | --n-s <N*S>) [--trials N] [--sampler batched-inversion|event-loop] [--deadline <secs>] [--protect SPEC] [--metrics PATH]
  serr sofr --workload <W> (--rate <errors/year> | --n-s <N*S>) -c <count> [--trials N] [--sampler batched-inversion|event-loop] [--deadline <secs>] [--protect SPEC] [--metrics PATH]
  serr sweep <sec5_1|fig5|fig6a|fig6b|sec5_4> [--fresh | --resume] [--trials N] [--metrics PATH]
  serr store inspect <FILE>
  serr chaos [--campaigns N] [--seed S] [--trials N] [--sampler batched-inversion|event-loop] [--kinds k1,k2,...] [--jsonl PATH]
  serr serve --bind <unix:PATH|tcp:ADDR> [--workers N] [--queue N] [--journal-dir DIR]
  serr request --connect <unix:PATH|tcp:ADDR> --cmd <mttf|sofr|sweep|stats|shutdown> [-w <W>] [--rate R | --n-s P | --rates R1,R2,...] [-c N] [--trials N] [--sampler S] [--deadline-ms N] [--id N]
  serr workloads
  serr help

WORKLOADS <W>:
  day | week | combined | spec:<benchmark> | duty:<period_seconds>:<busy_fraction>

FLAGS:
  --sampler <S>      time-to-failure sampler for the Monte Carlo trials:
                     `batched-inversion` (default) inverts the cumulative-
                     vulnerability function over whole trial chunks at once —
                     counter-based RNG, structure-of-arrays buffers, branchless
                     array passes; `event-loop` replays the classic
                     per-error walk — same distribution, slowest, the
                     assumption-free cross-check
  --deadline <secs>  wall-clock budget for the Monte Carlo run; on expiry the
                     estimate is returned from the trials completed so far,
                     marked truncated, with a correspondingly wider CI
  --protect SPEC     protection transforms applied to the workload trace
                     before estimation, comma-separated, left to right:
                     `ecc:<word_bits>` SEC-DED word coverage (single-bit
                     upsets corrected; fails only when a second bit in the
                     word is already vulnerable), `scrub:<interval_cycles>`
                     periodic scrubbing (vulnerability ramps from zero after
                     each scrub), `delay:<window_cycles>` delayed reporting
                     (errors within the window of the period end never
                     surface). Cycle counts accept scientific notation;
                     `none` is the identity. Example: ecc:64,scrub:1e6
  --resume           resume from the journal if one exists (the default);
                     journals are CRC-paged binary `.store` files under
                     target/serr-checkpoints/ (override with
                     SERR_CHECKPOINT_DIR)
  --campaigns N      number of fault-injection campaigns to run (default 200)
  --seed S           chaos master seed, decimal or 0x-hex; the same seed
                     replays the identical campaign sequence and outcome
                     tags at any thread count
  --kinds k1,k2      restrict chaos campaigns to these injectors; known:
                     trace-value-flip, trace-prefix-perturb,
                     trace-consistent-corrupt, trace-transform, chunk-panic,
                     deadline-exhaust, rate-poison, checkpoint-io,
                     journal-corrupt, journal-lock, cache-corrupt,
                     store-torn-tail, store-bit-flip, store-header-corrupt,
                     store-stale-version
  --jsonl PATH       write one JSON line per campaign outcome to PATH
  --bind <ADDR>      where the daemon listens: unix:PATH or tcp:HOST:PORT
                     (tcp:HOST:0 picks a free port, printed at startup)
  --workers N        worker slots (default 2); each worker fetches its
                     request's trace from the shared cache, then estimates;
                     workers are panic-isolated and restarted under bounded
                     backoff
  --queue N          bounded ingress queue depth (default 64); admission
                     control sheds with a typed response beyond this
  --journal-dir DIR  persist drain/resume journals here: shutdown journals
                     in-flight requests, a fresh `serr serve` on the same
                     directory replays them, and re-requests are answered
                     from the results journal bit-identically
  --connect <ADDR>   the daemon to talk to (same grammar as --bind)
  --cmd <C>          request kind: mttf | sofr | sweep | stats | shutdown
  --rates <LIST>     comma-separated errors/year list for --cmd sweep; the
                     daemon answers every point off one shared-stream
                     kernel run (common random numbers), each point
                     bit-identical to the equivalent single mttf request
  --deadline-ms N    wall-clock budget for the request; overload sheds
                     up front, a tight budget degrades to a truncated
                     estimate with an honestly wider CI
  --metrics PATH     stream structured telemetry to PATH as JSON lines:
                     per-stage wall time (trace compile, renewal quadrature,
                     SoftArch, MC run), per-chunk Monte Carlo convergence
                     snapshots (running mean + 95% CI half-width), and a
                     closing counters/gauges/histograms snapshot; event
                     sequence keys are identical at any SERR_THREADS

ENVIRONMENT:
  SERR_THREADS       Monte Carlo worker threads for mttf/sofr (0 or unset =
                     all cores); estimates are bit-identical at any setting

EXAMPLES:
  serr mttf --workload day --n-s 1e8
  serr mttf --workload spec:mcf --rate 1e-4 --deadline 10
  serr mttf --workload day --n-s 1e8 --sampler event-loop
  serr mttf --workload day --n-s 1e8 --metrics out.jsonl
  serr mttf --workload day --n-s 1e8 --protect ecc:64,scrub:1e6
  serr sofr --workload week --n-s 1e8 -c 5000
  serr sweep fig5 --trials 20000
  serr store inspect target/serr-checkpoints/fig5-00c0ffee00c0ffee.store
  serr chaos --campaigns 50 --seed 0xC0FFEE --jsonl chaos.jsonl
  serr serve --bind unix:/tmp/serr.sock --journal-dir /var/lib/serr
  serr request --connect unix:/tmp/serr.sock --cmd mttf -w day --n-s 1e8
  serr request --connect unix:/tmp/serr.sock --cmd sofr -w week --n-s 1e8 -c 5000 --deadline-ms 2000
  serr request --connect unix:/tmp/serr.sock --cmd sweep -w day --rates 1e5,2e5,4e5 --trials 20000
  serr request --connect unix:/tmp/serr.sock --cmd stats
  serr request --connect unix:/tmp/serr.sock --cmd shutdown

WIRE PROTOCOL (serr serve):
  JSON Lines, one request and one response per line. Every request ends in
  exactly one typed terminal state:
    result    full-fidelity estimate, bit-identical to the batch CLI
    degraded  honest estimate from a truncated run (deadline pressure)
    shed      refused by admission control before any work was done
    error     typed failure (bad frame, estimator error, injected fault)
  request : {\"id\":1,\"cmd\":\"mttf\",\"workload\":\"day\",\"rate_per_year\":1.0,
             \"trials\":100000,\"deadline_ms\":2000}
  response: {\"id\":1,\"state\":\"result\",\"mttf_mc_s\":...,\"rel_ci95\":...,
             \"provenance\":\"clean\",\"trials_done\":100000,\"resumed\":false,...}
";

/// Executes a parsed command, writing human-readable output to stdout.
///
/// # Errors
///
/// Propagates estimator errors.
pub fn run(cmd: &Command) -> Result<(), SerrError> {
    let cfg = ExperimentConfig::cli();
    match cmd {
        Command::Help => {
            println!("{USAGE}");
            Ok(())
        }
        Command::Workloads => {
            println!("synthesized: day (24h, busy 12h)  week (7d, busy 5d)  combined (gzip+swim)");
            println!("parametric : duty:<period_seconds>:<busy_fraction>");
            println!("benchmarks (spec:<name>):");
            for p in BenchmarkProfile::all() {
                println!(
                    "  {:>9}  {:?}  branches {:.0}%  working set {} KiB{}",
                    p.name,
                    p.suite,
                    p.mix.branch * 100.0,
                    p.working_set_bytes / 1024,
                    if p.phases.is_some() { "  [phased]" } else { "" },
                );
            }
            Ok(())
        }
        Command::Mttf {
            workload,
            rate_per_year,
            trials,
            sampler,
            deadline_s,
            protect,
            metrics,
        } => {
            let obs = metrics_obs(metrics.as_deref())?;
            let trace = protect.apply(workload.trace_with(&cfg, obs.as_ref())?)?;
            let rate = RawErrorRate::try_per_year(*rate_per_year)?;
            let freq = cfg.frequency;
            let mut v = Validator::new(freq, mc_config(*trials, *sampler, *deadline_s));
            if let Some(obs) = &obs {
                v = v.with_observer(obs.clone());
            }
            let r = v.component(&trace, rate)?;
            println!(
                "workload period : {}",
                Seconds::new(trace.period_cycles() as f64 / freq.hz())
            );
            if !protect.is_none() {
                println!("protection      : {}", protect.canonical());
            }
            println!("AVF             : {:.4}", r.avf);
            println!("MTTF, AVF step  : {}", r.mttf_avf.as_seconds());
            println!(
                "MTTF, MonteCarlo: {} (±{:.2}% at 95%, {} sampler)",
                r.mttf_mc.mttf.as_seconds(),
                r.mttf_mc.relative_ci95() * 100.0,
                r.mttf_mc.sampler.label()
            );
            println!("provenance      : {}", classify_estimate(&r.mttf_mc));
            if r.mttf_mc.truncated {
                println!(
                    "note: deadline hit after {} of {trials} trials; the CI above \
                     reflects the completed subset",
                    r.mttf_mc.ttf_seconds.count
                );
            }
            println!("MTTF, renewal   : {}", r.mttf_renewal.as_seconds());
            println!("MTTF, SoftArch  : {}", r.mttf_softarch.as_seconds());
            println!(
                "AVF-step error  : {:.2}% vs MC, {:.2}% vs exact",
                r.avf_error_vs_mc * 100.0,
                r.avf_error_vs_renewal * 100.0
            );
            finish_metrics(obs.as_ref(), metrics.as_deref());
            Ok(())
        }
        Command::Sofr {
            workload,
            rate_per_year,
            components,
            trials,
            sampler,
            deadline_s,
            protect,
            metrics,
        } => {
            let obs = metrics_obs(metrics.as_deref())?;
            let trace = protect.apply(workload.trace_with(&cfg, obs.as_ref())?)?;
            let rate = RawErrorRate::try_per_year(*rate_per_year)?;
            let mut v = Validator::new(cfg.frequency, mc_config(*trials, *sampler, *deadline_s));
            if let Some(obs) = &obs {
                v = v.with_observer(obs.clone());
            }
            let r = v.system_identical(trace, rate, *components)?;
            println!("components      : {components}");
            if !protect.is_none() {
                println!("protection      : {}", protect.canonical());
            }
            println!("MTTF, SOFR      : {}", r.mttf_sofr.as_seconds());
            println!(
                "MTTF, MonteCarlo: {} (±{:.2}% at 95%, {} sampler)",
                r.mttf_mc.mttf.as_seconds(),
                r.mttf_mc.relative_ci95() * 100.0,
                r.mttf_mc.sampler.label()
            );
            println!("provenance      : {}", classify_estimate(&r.mttf_mc));
            if r.mttf_mc.truncated {
                println!(
                    "note: deadline hit after {} of {trials} trials; the CI above \
                     reflects the completed subset",
                    r.mttf_mc.ttf_seconds.count
                );
            }
            println!("MTTF, renewal   : {}", r.mttf_renewal.as_seconds());
            println!("MTTF, SoftArch  : {}", r.mttf_softarch.as_seconds());
            println!(
                "SOFR-step error : {:.2}% vs MC, {:.2}% vs exact",
                r.sofr_error_vs_mc * 100.0,
                r.sofr_error_vs_renewal * 100.0
            );
            if r.sofr_error_vs_renewal > 0.10 {
                println!("warning: SOFR is unreliable for this configuration (see DSN'07)");
            }
            finish_metrics(obs.as_ref(), metrics.as_deref());
            Ok(())
        }
        Command::Serve { bind, workers, queue_depth, journal_dir } => {
            let mut scfg = ServeConfig::new(bind.clone());
            scfg.workers = *workers;
            scfg.queue_depth = *queue_depth;
            scfg.journal_dir = journal_dir.clone();
            let server = Server::start(scfg)?;
            println!("serr serve: listening on {}", server.bind_addr());
            println!(
                "stop with a {{\"cmd\":\"shutdown\"}} request (`serr request ... --cmd shutdown`); \
                 in-flight work is journaled and resumed on restart"
            );
            server.wait();
            println!("serr serve: drained and stopped");
            Ok(())
        }
        Command::Request { connect, id, deadline_ms, body } => {
            let mut client = serr_serve::Client::connect(connect)
                .map_err(|e| SerrError::io(format!("connect {connect}"), e.to_string()))?;
            let req = serr_serve::Request {
                id: *id,
                deadline_ms: *deadline_ms,
                tag: None,
                body: body.clone(),
            };
            let resp = client
                .roundtrip(&req)
                .map_err(|e| SerrError::io("request", e.to_string()))?
                .ok_or_else(|| {
                    SerrError::io("request", "connection closed before a complete response")
                })?;
            println!("{}", resp.to_line());
            Ok(())
        }
        Command::Sweep { figure, fresh, trials, metrics } => {
            let obs = metrics_obs(metrics.as_deref())?;
            let mut cfg = cfg;
            if let Some(t) = trials {
                cfg.mc.trials = *t;
            }
            let mut opts = if *fresh { SweepOptions::fresh() } else { SweepOptions::resume() };
            if let Some(obs) = &obs {
                opts = opts.with_obs(obs.clone());
            }
            run_sweep_command(*figure, &cfg, &opts)?;
            finish_metrics(obs.as_ref(), metrics.as_deref());
            Ok(())
        }
        Command::StoreInspect { path } => {
            let r = serr_store::pages::inspect(path)?;
            println!("store           : {}", path.display());
            println!(
                "header          : format v{}, kind {} ({}), app v{}",
                r.header.format,
                r.header.kind,
                serr_store::kind::label(r.header.kind),
                r.header.app
            );
            println!("file length     : {} bytes ({} valid)", r.file_len, r.valid_len);
            println!("pages           : {} ({} records)", r.pages.len(), r.records);
            for p in &r.pages {
                println!(
                    "  @{:>8}  {:>6} bytes  {:>5} records  first #{:<6}  crc 0x{:08x}",
                    p.offset, p.payload_len, p.records, p.first_index, p.payload_crc
                );
            }
            match &r.damage {
                Some(d) => println!("damage          : {d} (tail past the valid prefix is dead)"),
                None => println!("damage          : none"),
            }
            Ok(())
        }
        Command::Chaos { campaigns, seed, trials, sampler, kinds, jsonl } => {
            let ccfg = ChaosConfig {
                campaigns: *campaigns,
                seed: *seed,
                trials: *trials,
                sampler: *sampler,
                kinds: kinds.clone().unwrap_or_else(|| FaultKind::CORE.to_vec()),
                ..ChaosConfig::default()
            };
            let report = run_chaos(&ccfg)?;
            println!(
                "golden MTTF     : {} (±{:.2}% at 95%)",
                Seconds::new(report.golden_mttf_seconds),
                report.golden_rel_ci95 * 100.0
            );
            println!("campaigns       : {}", report.outcomes.len());
            for p in Provenance::ALL {
                println!("  {:<9}: {}", p.label(), report.count(p));
            }
            for o in report.outcomes.iter().filter(|o| o.miss) {
                println!(
                    "MISS: campaign {} ({}, seed {:#018x}): {}",
                    o.campaign, o.kind, o.seed, o.detail
                );
            }
            if let Some(path) = jsonl {
                let mut text = String::new();
                for o in &report.outcomes {
                    text.push_str(&o.to_json().to_json());
                    text.push('\n');
                }
                std::fs::write(path, text)
                    .map_err(|e| SerrError::io("write chaos jsonl", e.to_string()))?;
                println!("wrote {} JSONL rows to {}", report.outcomes.len(), path.display());
            }
            if report.is_sound() {
                println!(
                    "detect-or-degrade invariant: PASS ({} campaigns, 0 misses)",
                    report.outcomes.len()
                );
                Ok(())
            } else {
                Err(SerrError::engine_fault(
                    "chaos campaign",
                    format!(
                        "{} of {} campaigns produced silently wrong results",
                        report.misses(),
                        report.outcomes.len()
                    ),
                ))
            }
        }
    }
}

/// Assembles the Monte Carlo configuration for the `mttf`/`sofr` commands.
/// `SERR_THREADS` overrides the worker-thread count (unset, empty, or `0`
/// means all cores); estimates are bit-identical at any setting — the
/// variable exists so that invariance can be demonstrated from the shell.
fn mc_config(trials: u64, sampler: SamplerKind, deadline_s: Option<f64>) -> MonteCarloConfig {
    let threads = std::env::var("SERR_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .unwrap_or(0);
    MonteCarloConfig {
        trials,
        threads,
        sampler,
        deadline: deadline_s.map(std::time::Duration::from_secs_f64),
        ..Default::default()
    }
}

/// Opens the `--metrics` JSONL observer, when one was requested.
fn metrics_obs(path: Option<&std::path::Path>) -> Result<Option<Obs>, SerrError> {
    path.map(|p| Obs::jsonl(p).map_err(|e| SerrError::io("open --metrics jsonl", e.to_string())))
        .transpose()
}

/// Closes out a `--metrics` run: appends the counter/gauge/histogram
/// snapshot to the event stream, flushes the file, and tells the user
/// where it landed.
fn finish_metrics(obs: Option<&Obs>, path: Option<&std::path::Path>) {
    if let (Some(obs), Some(path)) = (obs, path) {
        obs.emit_metrics_snapshot();
        println!("wrote metrics JSONL to {}", path.display());
    }
}

/// Prints a sweep's outcome: resumed/computed counts, one line per row, and
/// one line per failed point (index + typed error). The process succeeds as
/// long as the sweep infrastructure ran; failed points are reported, not
/// fatal, so a resumed invocation can fill them in.
fn report_sweep<R>(report: &SweepReport<R>, line: impl Fn(&R) -> String) -> Result<(), SerrError> {
    println!(
        "{} rows ({} resumed from checkpoint, {} computed, {} failed)",
        report.rows.len(),
        report.resumed,
        report.computed,
        report.failures.len()
    );
    for r in &report.rows {
        println!("  {}", line(r));
    }
    for f in &report.failures {
        println!("  FAILED point {}: {}", f.index, f.error);
    }
    Ok(())
}

fn run_sweep_command(
    figure: SweepFigure,
    cfg: &ExperimentConfig,
    opts: &SweepOptions,
) -> Result<(), SerrError> {
    use serr_core::experiments as exp;
    // The bench binaries' design points (their `--quick` scale); the CLI
    // adds checkpoint/resume on top.
    let cs: [u64; 5] = [2, 8, 5_000, 50_000, 500_000];
    match figure {
        SweepFigure::Sec51 => {
            let report = exp::sec5_1_sweep(&exp::REPRESENTATIVE_BENCHMARKS, cfg, opts)?;
            report_sweep(&report, |r| {
                format!(
                    "{:>8}  worst AVF err {:.2}%  SOFR err {:.2}%",
                    r.benchmark,
                    r.max_component_error * 100.0,
                    r.sofr_error * 100.0
                )
            })
        }
        SweepFigure::Fig5 => {
            let n_s = [1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 5e12];
            let report = exp::fig5_sweep(&Workload::synthesized(), &n_s, cfg, opts)?;
            report_sweep(&report, |r| {
                format!(
                    "{:>8}  N*S {:>8.1e}  AVF err {:.2}%",
                    r.workload,
                    r.n_times_s,
                    r.error * 100.0
                )
            })
        }
        SweepFigure::Fig6a => {
            let n_s = [1e8, 1e9, 2e12, 5e12];
            let report = exp::fig6a_sweep(&exp::REPRESENTATIVE_BENCHMARKS, &cs, &n_s, cfg, opts)?;
            report_sweep(&report, |r| {
                format!(
                    "{:>8}  C {:>6}  N*S {:>8.1e}  SOFR err {:.2}%",
                    r.workload,
                    r.c,
                    r.n_times_s,
                    r.error * 100.0
                )
            })
        }
        SweepFigure::Fig6b => {
            let n_s = [1e7, 1e8, 1e9];
            let report = exp::fig6b_sweep(&Workload::synthesized(), &cs, &n_s, cfg, opts)?;
            report_sweep(&report, |r| {
                format!(
                    "{:>8}  C {:>6}  N*S {:>8.1e}  SOFR err {:.2}%",
                    r.workload,
                    r.c,
                    r.n_times_s,
                    r.error * 100.0
                )
            })
        }
        SweepFigure::Sec54 => {
            let n_s = [1e7, 1e8, 1e9, 1e12];
            let report = exp::sec5_4_sweep(&Workload::synthesized(), &cs, &n_s, cfg, opts)?;
            report_sweep(&report, |r| {
                format!(
                    "{:>8}  C {:>6}  N*S {:>8.1e}  SoftArch err {:.2}% (vs exact {:.4}%)",
                    r.workload,
                    r.c,
                    r.n_times_s,
                    r.softarch_error * 100.0,
                    r.softarch_error_vs_renewal * 100.0
                )
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_specs_parse() {
        assert_eq!(WorkloadSpec::parse("day").unwrap(), WorkloadSpec::Day);
        assert_eq!(WorkloadSpec::parse("week").unwrap(), WorkloadSpec::Week);
        assert_eq!(WorkloadSpec::parse("combined").unwrap(), WorkloadSpec::Combined);
        assert_eq!(WorkloadSpec::parse("spec:mcf").unwrap(), WorkloadSpec::Spec("mcf".into()));
        assert_eq!(
            WorkloadSpec::parse("duty:3600:0.25").unwrap(),
            WorkloadSpec::Duty { period_s: 3600.0, busy: 0.25 }
        );
        assert!(WorkloadSpec::parse("quake").is_err());
        assert!(WorkloadSpec::parse("duty:1:2:3").is_err());
        assert!(WorkloadSpec::parse("duty:x:0.5").is_err());
    }

    #[test]
    fn commands_parse() {
        let cmd = Command::parse(&["mttf", "--workload", "day", "--n-s", "1e8"]).unwrap();
        assert_eq!(
            cmd,
            Command::Mttf {
                workload: WorkloadSpec::Day,
                rate_per_year: 1.0,
                trials: 100_000,
                sampler: SamplerKind::BatchedInversion,
                deadline_s: None,
                protect: ProtectionSpec::none(),
                metrics: None
            }
        );
        let cmd = Command::parse(&[
            "sofr",
            "-w",
            "week",
            "--rate",
            "2.5",
            "-c",
            "5e3",
            "--trials",
            "5000",
            "--deadline",
            "1.5",
            "--sampler",
            "event-loop",
        ])
        .unwrap();
        assert_eq!(
            cmd,
            Command::Sofr {
                workload: WorkloadSpec::Week,
                rate_per_year: 2.5,
                components: 5000,
                trials: 5000,
                sampler: SamplerKind::EventLoop,
                deadline_s: Some(1.5),
                protect: ProtectionSpec::none(),
                metrics: None
            }
        );
        assert_eq!(Command::parse(&["workloads"]).unwrap(), Command::Workloads);
        assert_eq!(Command::parse::<&str>(&[]).unwrap(), Command::Help);
        assert_eq!(Command::parse(&["--help"]).unwrap(), Command::Help);
    }

    /// `--sampler` parses both kinds, defaults to batched-inversion
    /// everywhere, and rejects unknown names (the retired scalar
    /// `inversion` label among them) with a message naming the bad value
    /// and the two valid labels.
    #[test]
    fn sampler_flag_parses_and_defaults() {
        for (sub, tail) in [("mttf", vec![]), ("sofr", vec!["-c", "10"])] {
            let mut base = vec![sub, "-w", "day", "--n-s", "1e8"];
            base.extend(&tail);
            let default = Command::parse(&base).unwrap();
            let mut explicit = base.clone();
            explicit.extend(["--sampler", "batched-inversion"]);
            assert_eq!(default, Command::parse(&explicit).unwrap());

            let mut flagged = base.clone();
            flagged.extend(["--sampler", "event-loop"]);
            let got = match Command::parse(&flagged).unwrap() {
                Command::Mttf { sampler, .. } | Command::Sofr { sampler, .. } => sampler,
                other => panic!("expected mttf/sofr, got {other:?}"),
            };
            assert_eq!(got, SamplerKind::EventLoop);

            for label in ["quantum", "inversion"] {
                let mut bad = base.clone();
                bad.extend(["--sampler", label]);
                match Command::parse(&bad).unwrap_err() {
                    SerrError::InvalidConfig { reason } => {
                        assert!(
                            reason.contains(&format!("\"{label}\"")),
                            "message `{reason}` omits the value"
                        );
                        assert!(
                            reason.contains("batched-inversion") && reason.contains("event-loop"),
                            "message `{reason}` omits the valid labels"
                        );
                    }
                    other => panic!("expected InvalidConfig, got {other:?}"),
                }
            }
        }
        match Command::parse(&["chaos", "--sampler", "event-loop"]).unwrap() {
            Command::Chaos { sampler, .. } => assert_eq!(sampler, SamplerKind::EventLoop),
            other => panic!("expected Chaos, got {other:?}"),
        }
        assert!(Command::parse(&["chaos", "--sampler", "bogus"]).is_err());
    }

    /// `--protect` parses on both estimation commands, defaults to no
    /// protection, and rejects malformed specs naming the bad stage.
    #[test]
    fn protect_flag_parses_and_defaults() {
        for (sub, tail) in [("mttf", vec![]), ("sofr", vec!["-c", "10"])] {
            let mut base = vec![sub, "-w", "day", "--n-s", "1e8"];
            base.extend(&tail);
            let got = match Command::parse(&base).unwrap() {
                Command::Mttf { protect, .. } | Command::Sofr { protect, .. } => protect,
                other => panic!("expected mttf/sofr, got {other:?}"),
            };
            assert!(got.is_none());

            let mut flagged = base.clone();
            flagged.extend(["--protect", "ecc:64,scrub:1e6,delay:5e3"]);
            let got = match Command::parse(&flagged).unwrap() {
                Command::Mttf { protect, .. } | Command::Sofr { protect, .. } => protect,
                other => panic!("expected mttf/sofr, got {other:?}"),
            };
            assert_eq!(got.canonical(), "ecc:64,scrub:1000000,delay:5000");

            let mut bad = base.clone();
            bad.extend(["--protect", "parity:1"]);
            match Command::parse(&bad).unwrap_err() {
                SerrError::InvalidConfig { reason } => {
                    assert!(reason.contains("parity"), "message `{reason}` omits the stage");
                }
                other => panic!("expected InvalidConfig, got {other:?}"),
            }
        }
    }

    #[test]
    fn sweep_commands_parse() {
        assert_eq!(
            Command::parse(&["sweep", "fig5", "--fresh"]).unwrap(),
            Command::Sweep { figure: SweepFigure::Fig5, fresh: true, trials: None, metrics: None }
        );
        assert_eq!(
            Command::parse(&["sweep", "sec5_1", "--resume", "--trials", "9000"]).unwrap(),
            Command::Sweep {
                figure: SweepFigure::Sec51,
                fresh: false,
                trials: Some(9000),
                metrics: None
            }
        );
        assert_eq!(
            Command::parse(&["sweep", "fig5", "--metrics", "m.jsonl"]).unwrap(),
            Command::Sweep {
                figure: SweepFigure::Fig5,
                fresh: false,
                trials: None,
                metrics: Some(std::path::PathBuf::from("m.jsonl"))
            }
        );
        assert!(Command::parse(&["sweep", "fig5", "--metrics"]).is_err());
        assert!(Command::parse(&["sweep", "fig5", "--debug-journal"]).is_err());
        for figure in ["fig6a", "fig6b", "sec5_4"] {
            assert!(Command::parse(&["sweep", figure]).is_ok());
        }
        assert!(Command::parse(&["sweep"]).is_err());
        assert!(Command::parse(&["sweep", "fig7"]).is_err());
        assert!(Command::parse(&["sweep", "fig5", "--trials", "0"]).is_err());
    }

    #[test]
    fn store_inspect_parses_and_dumps_a_journal() {
        assert_eq!(
            Command::parse(&["store", "inspect", "j.store"]).unwrap(),
            Command::StoreInspect { path: std::path::PathBuf::from("j.store") }
        );
        assert!(Command::parse(&["store"]).is_err(), "subcommand required");
        assert!(Command::parse(&["store", "inspect"]).is_err(), "path required");
        assert!(Command::parse(&["store", "vacuum", "j.store"]).is_err());
        assert!(Command::parse(&["store", "inspect", "a.store", "b.store"]).is_err());

        // End to end: build a real two-page store, inspect it, then tear its
        // tail and verify inspect still answers (degraded, not an error).
        let dir = std::env::temp_dir().join(format!("serr-cli-inspect-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.store");
        let mut b = serr_store::pages::StoreBuilder::with_page_limit(1, 1, 16);
        for r in [b"one".as_slice(), b"two", b"three"] {
            b.push_record(r);
        }
        serr_store::pages::write_atomic(&path, &b.finish()).unwrap();
        let whole = serr_store::pages::inspect(&path).unwrap();
        assert_eq!(whole.records, 3);
        assert!(whole.damage.is_none());
        run(&Command::StoreInspect { path: path.clone() }).unwrap();

        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        run(&Command::StoreInspect { path: path.clone() }).unwrap();
        let torn = serr_store::pages::inspect(&path).unwrap();
        assert!(torn.records < 3);
        assert!(torn.damage.is_some());

        // A dead header is a typed error, not a report.
        let mut bad = bytes;
        bad[0] ^= 0xFF;
        std::fs::write(&path, &bad).unwrap();
        assert!(run(&Command::StoreInspect { path }).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parse_errors_are_actionable() {
        for bad in [
            vec!["mttf"],
            vec!["mttf", "--workload", "day"],
            vec!["mttf", "--workload"],
            vec!["mttf", "--workload", "day", "--rate", "abc"],
            vec!["mttf", "--workload", "day", "--rate", "1", "--bogus", "1"],
            vec!["frobnicate"],
        ] {
            let e = Command::parse(&bad).unwrap_err();
            assert!(matches!(
                e,
                SerrError::InvalidConfig { .. } | SerrError::UnknownWorkload { .. }
            ));
        }
    }

    /// Every numeric flag rejects NaN/∞/negative/zero/fractional abuse with
    /// an [`SerrError::InvalidConfig`] whose message names the flag.
    #[test]
    fn numeric_flags_are_validated_at_parse_time() {
        let rejects = |args: &[&str], needle: &str| match Command::parse(args) {
            Err(SerrError::InvalidConfig { reason }) => {
                assert!(
                    reason.contains(needle),
                    "args {args:?}: message `{reason}` does not name `{needle}`"
                );
            }
            other => panic!("args {args:?}: expected InvalidConfig, got {other:?}"),
        };
        rejects(&["mttf", "-w", "day", "--rate", "-1"], "--rate");
        rejects(&["mttf", "-w", "day", "--rate", "0"], "--rate");
        rejects(&["mttf", "-w", "day", "--rate", "inf"], "--rate");
        rejects(&["mttf", "-w", "day", "--rate", "NaN"], "--rate");
        rejects(&["mttf", "-w", "day", "--n-s", "-2"], "--n-s");
        rejects(&["mttf", "-w", "day", "--n-s", "1e8", "--trials", "0"], "--trials");
        rejects(&["mttf", "-w", "day", "--n-s", "1e8", "--trials", "2.5"], "--trials");
        rejects(&["sofr", "-w", "day", "--n-s", "1e8", "-c", "0"], "-c");
        rejects(&["sofr", "-w", "day", "--n-s", "1e8", "-c", "2.5"], "-c");
        rejects(&["sofr", "-w", "day", "--n-s", "1e8", "-c", "1e20"], "-c");
        rejects(&["sofr", "-w", "day", "--n-s", "1e8", "-c", "-3"], "-c");
        rejects(&["mttf", "-w", "day", "--n-s", "1e8", "--deadline", "0"], "--deadline");
        rejects(&["mttf", "-w", "day", "--n-s", "1e8", "--deadline", "-5"], "--deadline");
        rejects(&["mttf", "-w", "duty:3600:1.5", "--n-s", "1e8"], "busy fraction");
        rejects(&["mttf", "-w", "duty:3600:-0.5", "--n-s", "1e8"], "busy fraction");
        rejects(&["mttf", "-w", "duty:-1:0.5", "--n-s", "1e8"], "period");
        rejects(&["mttf", "-w", "duty:inf:0.5", "--n-s", "1e8"], "period");
    }

    #[test]
    fn run_mttf_on_duty_workload() {
        // End-to-end through the CLI layer on a tiny config.
        let cmd = Command::parse(&[
            "mttf",
            "--workload",
            "duty:0.001:0.5",
            "--rate",
            "1e6",
            "--trials",
            "2000",
        ])
        .unwrap();
        run(&cmd).unwrap();
    }

    #[test]
    fn run_mttf_with_metrics_writes_parseable_jsonl() {
        let dir = std::env::temp_dir().join(format!("serr-cli-metrics-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("mttf.jsonl");
        let cmd = Command::parse(&[
            "mttf",
            "--workload",
            "duty:0.001:0.5",
            "--rate",
            "1e6",
            "--trials",
            "3000",
            "--metrics",
            path.to_str().unwrap(),
        ])
        .unwrap();
        run(&cmd).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let mut stage_lines = 0;
        let mut chunk_lines = 0;
        for line in text.lines() {
            let parsed = serr_core::jsonio::Json::parse(line)
                .unwrap_or_else(|| panic!("unparseable metrics line `{line}`"));
            match parsed.get("event").and_then(serr_core::jsonio::Json::as_str) {
                Some("stage") => stage_lines += 1,
                Some("mc.chunk") => chunk_lines += 1,
                _ => {}
            }
        }
        assert!(stage_lines >= 3, "expected stage timings, saw {stage_lines}");
        assert!(chunk_lines >= 1, "expected >=1 convergence snapshot, saw {chunk_lines}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_mttf_with_exhausted_deadline_is_a_typed_error() {
        // 1e-15 s rounds to a zero Duration, so the budget is exhausted
        // before the first chunk: the engine must refuse with the typed
        // error instead of returning an empty (NaN-ridden) estimate.
        let cmd = Command::parse(&[
            "mttf",
            "--workload",
            "duty:0.001:0.5",
            "--rate",
            "1e6",
            "--trials",
            "50000",
            "--deadline",
            "1e-15",
        ])
        .unwrap();
        match run(&cmd) {
            Err(SerrError::DeadlineExhausted { .. }) => {}
            other => panic!("expected DeadlineExhausted, got {other:?}"),
        }
    }

    #[test]
    fn extreme_rates_are_typed_errors_not_panics() {
        // A rate so high that SoftArch's discrete MTTF rounds to zero, a
        // cluster so large that the system rate does the same, and a rate
        // so low that sampled failure times overflow the Monte Carlo mean.
        let cases: [&[&str]; 3] = [
            &["mttf", "--workload", "day", "--rate", "1e300", "--trials", "2000"],
            &[
                "sofr",
                "--workload",
                "day",
                "--rate",
                "1e10",
                "-c",
                "18446744073709551615",
                "--trials",
                "2000",
            ],
            &["mttf", "--workload", "day", "--rate", "1e-300", "--trials", "2000"],
        ];
        for args in cases {
            let cmd = Command::parse(args).unwrap();
            match run(&cmd) {
                Err(SerrError::InvalidValue { .. }) => {}
                other => panic!("{args:?}: expected a typed InvalidValue, got {other:?}"),
            }
        }
    }

    #[test]
    fn chaos_commands_parse() {
        let cmd = Command::parse(&[
            "chaos",
            "--campaigns",
            "40",
            "--seed",
            "0xBEEF",
            "--trials",
            "2500",
            "--kinds",
            "chunk-panic,rate-poison",
            "--jsonl",
            "/tmp/out.jsonl",
        ])
        .unwrap();
        assert_eq!(
            cmd,
            Command::Chaos {
                campaigns: 40,
                seed: 0xBEEF,
                trials: 2500,
                sampler: SamplerKind::BatchedInversion,
                kinds: Some(vec![FaultKind::ChunkPanic, FaultKind::RatePoison]),
                jsonl: Some(std::path::PathBuf::from("/tmp/out.jsonl")),
            }
        );
        // Defaults mirror ChaosConfig::default().
        let defaults = serr_core::chaos::ChaosConfig::default();
        match Command::parse(&["chaos"]).unwrap() {
            Command::Chaos { campaigns, seed, trials, sampler, kinds, jsonl } => {
                assert_eq!(campaigns, defaults.campaigns);
                assert_eq!(seed, defaults.seed);
                assert_eq!(trials, defaults.trials);
                assert_eq!(sampler, defaults.sampler);
                assert_eq!(kinds, None);
                assert_eq!(jsonl, None);
            }
            other => panic!("expected Chaos, got {other:?}"),
        }
        assert!(Command::parse(&["chaos", "--seed", "zzz"]).is_err());
        assert!(Command::parse(&["chaos", "--kinds", "no-such-fault"]).is_err());
        assert!(Command::parse(&["chaos", "--campaigns", "0"]).is_err());
    }

    #[test]
    fn serve_and_request_commands_parse() {
        assert_eq!(
            Command::parse(&["serve", "--bind", "unix:/tmp/s.sock"]).unwrap(),
            Command::Serve {
                bind: Bind::Unix("/tmp/s.sock".into()),
                workers: 2,
                queue_depth: 64,
                journal_dir: None,
            }
        );
        assert_eq!(
            Command::parse(&[
                "serve",
                "--bind",
                "tcp:127.0.0.1:0",
                "--workers",
                "4",
                "--queue",
                "16",
                "--journal-dir",
                "/tmp/j",
            ])
            .unwrap(),
            Command::Serve {
                bind: Bind::Tcp("127.0.0.1:0".to_owned()),
                workers: 4,
                queue_depth: 16,
                journal_dir: Some(std::path::PathBuf::from("/tmp/j")),
            }
        );
        assert!(Command::parse(&["serve"]).is_err(), "--bind is required");
        assert!(Command::parse(&["serve", "--bind", "udp:nope"]).is_err());
        assert!(Command::parse(&["serve", "--bind", "unix:/s", "--queue", "0"]).is_err());
        assert!(Command::parse(&["serve", "--bind", "unix:/s", "--workers", "0"]).is_err());

        let cmd = Command::parse(&[
            "request",
            "--connect",
            "unix:/tmp/s.sock",
            "--cmd",
            "sofr",
            "-w",
            "week",
            "--rate",
            "2.5",
            "-c",
            "5000",
            "--trials",
            "4000",
            "--deadline-ms",
            "1500",
            "--id",
            "9",
        ])
        .unwrap();
        assert_eq!(
            cmd,
            Command::Request {
                connect: Bind::Unix("/tmp/s.sock".into()),
                id: 9,
                deadline_ms: Some(1500),
                body: RequestBody::Sofr {
                    workload: WorkloadSpec::Week,
                    rate_per_year: 2.5,
                    components: 5000,
                    trials: 4000,
                    sampler: SamplerKind::BatchedInversion,
                },
            }
        );
        // A sweep request carries the comma-separated rate list verbatim.
        let cmd = Command::parse(&[
            "request",
            "--connect",
            "unix:/tmp/s.sock",
            "--cmd",
            "sweep",
            "-w",
            "day",
            "--rates",
            "1e5, 2e5,4e5",
            "--trials",
            "4000",
        ])
        .unwrap();
        assert_eq!(
            cmd,
            Command::Request {
                connect: Bind::Unix("/tmp/s.sock".into()),
                id: 0,
                deadline_ms: None,
                body: RequestBody::Sweep {
                    workload: WorkloadSpec::Day,
                    rates_per_year: vec![1e5, 2e5, 4e5],
                    trials: 4000,
                    sampler: SamplerKind::default(),
                },
            }
        );
        assert!(
            Command::parse(&["request", "--connect", "unix:/s", "--cmd", "sweep", "-w", "day"])
                .is_err(),
            "sweep needs --rates"
        );
        // stats/shutdown need no workload or rate.
        for c in ["stats", "shutdown"] {
            assert!(Command::parse(&["request", "--connect", "unix:/s", "--cmd", c]).is_ok());
        }
        assert!(Command::parse(&["request", "--cmd", "stats"]).is_err(), "--connect required");
        assert!(Command::parse(&["request", "--connect", "unix:/s"]).is_err(), "--cmd required");
        assert!(
            Command::parse(&["request", "--connect", "unix:/s", "--cmd", "mttf"]).is_err(),
            "mttf needs a workload and a rate"
        );
        assert!(
            Command::parse(&["request", "--connect", "unix:/s", "--cmd", "reboot"]).is_err(),
            "unknown request kinds are rejected"
        );
    }

    #[test]
    fn retired_per_stage_worker_flag_is_a_typed_error_naming_it() {
        // The daemon sizes one worker pool with `--workers`; the retired
        // per-stage count is a typed error, never silently accepted. The
        // flag is spelled in pieces so a search for the retired name finds
        // no live code.
        let flag = ["--compile", "workers"].join("-");
        let err = Command::parse(&["serve", "--bind", "unix:/s", &flag, "2"])
            .expect_err("the per-stage worker count is not a flag");
        assert!(matches!(err, SerrError::InvalidConfig { .. }), "{err:?}");
        assert!(err.to_string().contains(&flag), "{err}");
        assert!(!USAGE.contains(&flag));
    }

    #[test]
    fn run_serve_daemon_answers_requests_end_to_end() {
        let dir = std::env::temp_dir().join(format!("serr-cli-serve-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let sock = dir.join("serve.sock");
        let bind_arg = format!("unix:{}", sock.display());
        let serve = Command::parse(&["serve", "--bind", &bind_arg, "--workers", "1"]).unwrap();
        let daemon = std::thread::spawn(move || run(&serve));

        // Wait for the daemon's socket, then drive it with the library
        // client and with `serr request` itself.
        let bind = Bind::Unix(sock.clone());
        let mut client = None;
        for _ in 0..500 {
            match serr_serve::Client::connect(&bind) {
                Ok(c) => {
                    client = Some(c);
                    break;
                }
                Err(_) => std::thread::sleep(std::time::Duration::from_millis(10)),
            }
        }
        let mut client = client.expect("daemon came up");
        let req = serr_serve::Request {
            id: 1,
            deadline_ms: None,
            tag: Some(1),
            body: RequestBody::Mttf {
                workload: WorkloadSpec::parse("duty:0.001:0.5").unwrap(),
                rate_per_year: 1e6,
                trials: 800,
                sampler: SamplerKind::default(),
            },
        };
        let resp = client.roundtrip(&req).unwrap().expect("typed response");
        assert_eq!(resp.state(), "result", "{resp:?}");

        // `serr request` end-to-end: stats, then shutdown.
        let stats = Command::parse(&["request", "--connect", &bind_arg, "--cmd", "stats"]).unwrap();
        run(&stats).unwrap();
        let shutdown =
            Command::parse(&["request", "--connect", &bind_arg, "--cmd", "shutdown"]).unwrap();
        run(&shutdown).unwrap();
        daemon.join().expect("daemon thread").expect("daemon ran");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_small_chaos_campaign_end_to_end() {
        let dir = std::env::temp_dir().join(format!("serr-cli-chaos-{}", std::process::id()));
        let jsonl = dir.join("chaos.jsonl");
        let _ = std::fs::create_dir_all(&dir);
        let cmd = Command::parse(&[
            "chaos",
            "--campaigns",
            "4",
            "--seed",
            "11",
            "--trials",
            "1500",
            "--kinds",
            "trace-value-flip,journal-corrupt",
            "--jsonl",
        ])
        .map(|_| ())
        .unwrap_err(); // --jsonl without a value is rejected
        assert!(matches!(cmd, SerrError::InvalidConfig { .. }));

        let cmd = Command::parse(&[
            "chaos",
            "--campaigns",
            "4",
            "--seed",
            "11",
            "--trials",
            "1500",
            "--kinds",
            "trace-value-flip,journal-corrupt",
            "--jsonl",
            jsonl.to_str().unwrap(),
        ])
        .unwrap();
        run(&cmd).unwrap();
        let text = std::fs::read_to_string(&jsonl).unwrap();
        assert_eq!(text.lines().count(), 4);
        assert!(text.contains("\"outcome\""));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
