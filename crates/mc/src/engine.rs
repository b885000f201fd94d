//! The parallel Monte Carlo driver.
//!
//! # Determinism contract
//!
//! Results are **bit-identical** for a given `(config.seed, config.trials)`
//! at any thread count. The trial space is split into fixed-size chunks of
//! [`TRIAL_CHUNK`] trials; chunk `j` seeds its own RNG with a SplitMix64
//! finalizer over `(seed, j)` — a pure counter-based derivation that never
//! looks at which worker thread runs the chunk. Workers pick up chunks
//! round-robin by index, and the main thread folds per-chunk statistics in
//! ascending chunk order, so the floating-point reduction order is fixed
//! too. (An earlier implementation derived streams from *thread* ids, which
//! silently broke this promise for `threads > 1`.)
//!
//! # Compiled hot path and sampler dispatch
//!
//! Before spawning workers, the engine lowers the trace into a
//! [`CompiledTrace`] (flat segments + bucketed `O(1)` phase index and a
//! bucketed inverse index over the prefix sums, or a tile level over such
//! tables for day-scale tilings like the paper's `combined` workload) and
//! monomorphizes the trial loop over the configured [`SamplerKind`]:
//!
//! * [`SamplerKind::BatchedInversion`] (the default) makes the whole
//!   chunk the unit of work: counter-based RNG words and branchless
//!   structure-of-arrays passes produce all [`TRIAL_CHUNK`] times to
//!   failure per dispatch — see [`crate::batched`];
//! * [`SamplerKind::EventLoop`] walks raw-error events one at a time (the
//!   paper's Appendix A decomposition) over the compiled point queries —
//!   kept as the cross-check oracle.
//!
//! Every sampler runs on the compiled trace, so the sampler that ran is
//! always the configured one. A trace that cannot be compiled at all — over
//! the segment cap with no tiling to fold, such as a phase-shifted
//! `combined` — is a typed [`SerrError::InvalidTrace`], never a silent
//! change of sampler.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serr_numeric::stats::{RunningStats, Summary};
use serr_obs::{Event, Obs};
use serr_trace::{CompiledTrace, VulnerabilityTrace};
use serr_types::{Frequency, Mttf, RawErrorRate, SerrError};

use crate::batched::{BatchScratch, BatchedInversionSampler};
use crate::config::{SamplerKind, StartPhase};
use crate::sampler::{sample_time_to_failure, TrialOutcome};
use crate::system::SystemModel;
use crate::MonteCarloConfig;

/// Trials per deterministic RNG chunk. Small enough that a 20,000-trial
/// smoke run still spreads across cores, large enough that per-chunk
/// scheduling overhead vanishes against millions of raw-error events.
pub(crate) const TRIAL_CHUNK: u64 = 1024;

/// Counter-based per-chunk stream derivation: a SplitMix64 finalizer over
/// the `(seed, chunk)` pair. Depends only on the chunk *index*, never on
/// the thread that executes it — the root of the determinism contract.
pub(crate) fn chunk_seed(seed: u64, chunk: u64) -> u64 {
    let mut z = seed.wrapping_add(chunk.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The single wall-clock deadline test shared by the pre-run gate and the
/// between-chunks check, so the two paths cannot drift (PR 3 fixed exactly
/// such a drift). Semantics:
///
/// * no deadline configured → never expired;
/// * once any caller has observed expiry, the sticky `expired` flag makes
///   every later call answer `true` without consulting the clock — a
///   worker that races past an expiring clock can therefore never buy
///   another chunk after a peer has seen the deadline pass;
/// * otherwise the clock is consulted, and an elapsed budget (including a
///   zero budget, where `elapsed >= ZERO` holds trivially) sets the flag.
fn deadline_expired(
    started: &std::time::Instant,
    deadline: Option<std::time::Duration>,
    expired: &std::sync::atomic::AtomicBool,
) -> bool {
    use std::sync::atomic::Ordering;
    let Some(limit) = deadline else {
        return false;
    };
    if expired.load(Ordering::Relaxed) {
        return true;
    }
    if started.elapsed() >= limit {
        expired.store(true, Ordering::Relaxed);
        return true;
    }
    false
}

/// Renders a panic payload for the typed worker-fault error, mirroring the
/// helper in `serr-core::par` (the two crates cannot share it without a
/// dependency cycle).
fn panic_payload_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Assembles an [`MttfEstimate`] from cycle-domain statistics folded in
/// ascending chunk order — the one place the cycles → seconds conversion
/// lives, shared by the single-point run and the sweep kernel so the two
/// paths cannot round differently.
///
/// # Errors
///
/// Returns [`SerrError::InvalidValue`] when the mean time to failure is not
/// a positive duration — at a rate so small that sampled failure times
/// overflow, the running mean turns NaN.
pub(crate) fn estimate_from_cycle_stats(
    stats: &RunningStats,
    hz: f64,
    total_events: u64,
    truncated: bool,
    sampler: SamplerKind,
) -> Result<MttfEstimate, SerrError> {
    let completed = stats.count();
    let summary = Summary {
        count: completed,
        mean: stats.mean() / hz,
        std_dev: stats.sample_variance().sqrt() / hz,
        ci95: stats.ci95_half_width() / hz,
        min: stats.min() / hz,
        max: stats.max() / hz,
    };
    let mttf = Mttf::try_from_secs(summary.mean).map_err(|_| {
        SerrError::invalid_value("Monte Carlo mean time to failure (s)", summary.mean)
    })?;
    Ok(MttfEstimate {
        mttf,
        ttf_seconds: summary,
        mean_events_per_trial: total_events as f64 / completed as f64,
        truncated,
        sampler,
    })
}

/// Lowers `trace` into the [`CompiledTrace`] every sampler runs on.
///
/// # Errors
///
/// Returns [`SerrError::InvalidTrace`] for an irreducible trace: more spans
/// than [`CompiledTrace::MAX_SEGMENTS`] and no tiling to fold them into.
pub fn compile_for_sampling(trace: &dyn VulnerabilityTrace) -> Result<CompiledTrace, SerrError> {
    CompiledTrace::compile(trace).ok_or_else(|| {
        SerrError::invalid_trace(format!(
            "trace cannot be compiled for sampling: up to {} spans exceed the {}-segment cap \
             and it exposes no tiling",
            trace.span_count_hint(),
            CompiledTrace::MAX_SEGMENTS
        ))
    })
}

/// Everything one chunk of trials produces.
struct ChunkOutcome {
    stats: RunningStats,
    events: u64,
    /// Raw per-trial TTFs in cycles, populated only when the caller asked
    /// for samples.
    ttfs: Vec<f64>,
}

/// A Monte Carlo MTTF estimate with sampling diagnostics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MttfEstimate {
    /// The estimated mean time to failure.
    pub mttf: Mttf,
    /// Sample statistics of the time-to-failure distribution, in seconds.
    pub ttf_seconds: Summary,
    /// Mean raw-error events consumed per trial.
    pub mean_events_per_trial: f64,
    /// Whether a configured [`deadline`](crate::MonteCarloConfig::deadline)
    /// cut the run short. A truncated estimate averages only the trials
    /// completed before the deadline (`ttf_seconds.count` of them); its
    /// confidence interval is honestly wider than the full run's would be.
    pub truncated: bool,
    /// The sampler that produced the trials: the configured
    /// [`MonteCarloConfig::sampler`].
    pub sampler: SamplerKind,
}

impl MttfEstimate {
    /// Relative half-width of the 95% confidence interval on the MTTF.
    #[must_use]
    pub fn relative_ci95(&self) -> f64 {
        self.ttf_seconds.ci95 / self.ttf_seconds.mean
    }
}

/// The Monte Carlo engine: owns a configuration, runs trials in parallel,
/// and reports MTTF estimates with confidence intervals.
///
/// Results are deterministic for a given `(config.seed, trials)` regardless
/// of thread count: RNG streams are derived per fixed-size trial *chunk*
/// from `(seed, chunk index)` alone, never from the worker that runs the
/// chunk, and per-chunk results are folded in ascending chunk order, so
/// the floating-point reduction order is fixed too. The
/// `deterministic_across_thread_counts` test checks the bit-equality.
#[derive(Debug, Clone, Default)]
pub struct MonteCarlo {
    pub(crate) config: MonteCarloConfig,
    /// Optional observability handle. Telemetry is strictly read-only over
    /// the already-folded results: convergence events are emitted from the
    /// deterministic chunk-order fold on the main thread, so attaching an
    /// observer cannot perturb estimates or their thread-count invariance.
    pub(crate) obs: Option<Obs>,
}

impl MonteCarlo {
    /// Creates an engine with the given configuration.
    #[must_use]
    pub fn new(config: MonteCarloConfig) -> Self {
        MonteCarlo { config, obs: None }
    }

    /// Attaches an observability handle. The engine then records per-stage
    /// wall time (`stage.trace_compile_ms`, `stage.mc_run_ms`), chunk /
    /// trial / raw-event counters, a samples-per-second gauge, and emits
    /// one `mc.chunk` convergence event per completed chunk (running mean
    /// and CI half-width after folding that chunk, keyed by chunk index).
    #[must_use]
    pub fn with_observer(mut self, obs: Obs) -> Self {
        self.obs = Some(obs);
        self
    }

    /// The engine's configuration.
    #[must_use]
    pub fn config(&self) -> &MonteCarloConfig {
        &self.config
    }

    /// Estimates the MTTF of a single component with raw error rate `rate`
    /// running `trace` at `freq` — the ground truth against which the AVF
    /// step is judged.
    ///
    /// # Errors
    ///
    /// Returns [`SerrError::InvalidConfig`] for a zero rate or zero trials,
    /// [`SerrError::InvalidTrace`] for an AVF-0 trace or one that cannot be
    /// compiled, and propagates a trial that exceeds the per-trial event
    /// cap.
    pub fn component_mttf(
        &self,
        trace: &dyn VulnerabilityTrace,
        rate: RawErrorRate,
        freq: Frequency,
    ) -> Result<MttfEstimate, SerrError> {
        self.validate(trace, rate)?;
        let compiled = self.compile(trace)?;
        self.run(&compiled, rate, freq)
    }

    /// [`MonteCarlo::component_mttf`] on a trace compiled ahead of time —
    /// for callers that hold a [`CompiledTrace`] across many estimates
    /// (the service's trace cache). Since [`MonteCarlo::component_mttf`] is
    /// exactly `compile` followed by this, passing `compile(trace)` gives a
    /// bit-identical estimate.
    ///
    /// # Errors
    ///
    /// As for [`MonteCarlo::component_mttf`].
    pub fn component_mttf_compiled(
        &self,
        trace: &CompiledTrace,
        rate: RawErrorRate,
        freq: Frequency,
    ) -> Result<MttfEstimate, SerrError> {
        self.validate(trace, rate)?;
        self.run(trace, rate, freq)
    }

    /// Estimates the MTTF of a whole system — the ground truth against which
    /// the SOFR step is judged. See [`SystemModel`] for construction.
    ///
    /// # Errors
    ///
    /// As for [`MonteCarlo::component_mttf`].
    pub fn system_mttf(&self, system: &SystemModel) -> Result<MttfEstimate, SerrError> {
        let trace = system.combined_trace();
        let rate = system.total_rate();
        self.validate(&trace, rate)?;
        let compiled = self.compile(&trace)?;
        self.run(&compiled, rate, system.frequency())
    }

    /// Draws `n` raw time-to-failure samples (in seconds) for distribution
    /// analysis — e.g. Kolmogorov–Smirnov tests of the SOFR exponentiality
    /// assumption.
    ///
    /// Shares the compiled-trace chunked trial loop with
    /// [`MonteCarlo::component_mttf`]: it honors `config.threads`, and the
    /// returned sample vector is in deterministic trial order (chunk-major)
    /// for any thread count.
    ///
    /// # Errors
    ///
    /// As for [`MonteCarlo::component_mttf`].
    pub fn sample_ttfs(
        &self,
        trace: &dyn VulnerabilityTrace,
        rate: RawErrorRate,
        freq: Frequency,
        n: u64,
    ) -> Result<Vec<f64>, SerrError> {
        self.validate(trace, rate)?;
        let lambda_cycle = rate.per_second_value() / freq.hz();
        let engine = MonteCarlo::new(MonteCarloConfig { trials: n, ..self.config });
        let compiled = compile_for_sampling(trace)?;
        let (chunks, _truncated) = engine.run_sampler(&compiled, lambda_cycle, true)?;
        let hz = freq.hz();
        Ok(chunks.into_iter().flat_map(|(_, c)| c.ttfs).map(|t| t / hz).collect())
    }

    /// Compiles `trace` once for a run, recording the `trace_compile`
    /// stage; every worker then runs the monomorphized loop with O(1)
    /// trace lookups and no virtual dispatch.
    pub(crate) fn compile(
        &self,
        trace: &dyn VulnerabilityTrace,
    ) -> Result<CompiledTrace, SerrError> {
        let t_compile = std::time::Instant::now();
        let compiled = compile_for_sampling(trace);
        if let Some(obs) = &self.obs {
            obs.record_stage("trace_compile", t_compile.elapsed().as_secs_f64() * 1e3);
        }
        compiled
    }

    fn validate(
        &self,
        trace: &dyn VulnerabilityTrace,
        rate: RawErrorRate,
    ) -> Result<(), SerrError> {
        self.config.validate()?;
        if rate.is_zero() {
            return Err(SerrError::invalid_config("raw error rate is zero; MTTF is infinite"));
        }
        if trace.is_never_vulnerable() {
            return Err(SerrError::invalid_trace(
                "trace has AVF = 0; the component can never fail",
            ));
        }
        Ok(())
    }

    fn run(
        &self,
        compiled: &CompiledTrace,
        rate: RawErrorRate,
        freq: Frequency,
    ) -> Result<MttfEstimate, SerrError> {
        let lambda_cycle = rate.per_second_value() / freq.hz();
        let t_run = std::time::Instant::now();
        let (chunks, truncated) = self.run_sampler(compiled, lambda_cycle, false)?;
        let sampler = self.config.sampler;

        // Fold in ascending chunk order: the reduction order (and thus the
        // result, bit for bit) is independent of the thread count. The
        // per-chunk convergence snapshots ride on this fold — emitted from
        // the main thread in chunk order and keyed by chunk index, they are
        // byte-identical at any thread count.
        let hz = freq.hz();
        let mut stats = RunningStats::new();
        let mut total_events = 0u64;
        for (chunk, c) in &chunks {
            stats.merge(&c.stats);
            total_events += c.events;
            if let Some(obs) = &self.obs {
                obs.emit(
                    Event::new("mc.chunk", *chunk)
                        .with("chunk", *chunk)
                        .with("n", stats.count())
                        .with("mean_s", stats.mean() / hz)
                        .with("ci95_s", stats.ci95_half_width() / hz),
                );
            }
        }

        // Convert cycle statistics to seconds. Normalize events by the
        // trials that actually ran — under a deadline that is fewer than
        // `config.trials`.
        let completed = stats.count();
        if let Some(obs) = &self.obs {
            let secs = t_run.elapsed().as_secs_f64();
            obs.record_stage("mc_run", secs * 1e3);
            let metrics = obs.metrics();
            metrics.add("mc.runs", 1);
            metrics.add(
                match sampler {
                    SamplerKind::EventLoop => "mc.runs_event_loop",
                    SamplerKind::BatchedInversion => "mc.runs_batched_inversion",
                },
                1,
            );
            metrics.add("mc.rng_chunks", chunks.len() as u64);
            metrics.add("mc.trials_completed", completed);
            metrics.add("mc.raw_error_events", total_events);
            if truncated {
                metrics.add("mc.truncated_runs", 1);
            }
            if secs > 0.0 {
                metrics.set_gauge("mc.samples_per_sec", completed as f64 / secs);
            }
        }
        estimate_from_cycle_stats(&stats, hz, total_events, truncated, sampler)
    }

    /// Dispatches the configured [`SamplerKind`] over the compiled trace
    /// and runs the chunked trial loop, monomorphizing it over the
    /// per-trial closure. Returns the chunk outcomes and the truncation
    /// flag.
    fn run_sampler(
        &self,
        c: &CompiledTrace,
        lambda_cycle: f64,
        collect_samples: bool,
    ) -> Result<(Vec<(u64, ChunkOutcome)>, bool), SerrError> {
        let cap = self.config.max_events_per_trial;
        match self.config.sampler {
            SamplerKind::BatchedInversion => {
                // Chunk-at-a-time path: the sampler consumes its own
                // versioned counter-RNG stream derived from the same
                // `chunk_seed(seed, chunk)` values, so the determinism
                // contract (bit-identical at any thread count) holds by the
                // same argument as the per-trial path. `StartPhase` is
                // resolved inside the batched kernels — the stationary
                // variant draws its phase plane from the counter stream.
                let sampler =
                    BatchedInversionSampler::new(c, lambda_cycle, self.config.start_phase);
                let seed = self.config.seed;
                self.run_chunks_scaffold(BatchScratch::new, |scratch, chunk, n| {
                    let (ttfs, stats) = sampler.sample_chunk_with_stats(
                        scratch,
                        chunk_seed(seed, chunk),
                        n as usize,
                    );
                    Ok(ChunkOutcome {
                        stats,
                        // One raw-error event (the failing one) per trial.
                        events: n,
                        ttfs: if collect_samples { ttfs.to_vec() } else { Vec::new() },
                    })
                })
            }
            SamplerKind::EventLoop => {
                self.run_chunks(c.period_cycles(), collect_samples, |rng, phase| {
                    sample_time_to_failure(c, lambda_cycle, cap, rng, phase)
                })
            }
        }
    }

    /// The per-trial loop over [`run_chunks_scaffold`] that the event loop
    /// runs: one chunk-seeded `SmallRng` per chunk, one closure call per
    /// trial, monomorphized over the closure so the walk inlines end to
    /// end. The `StartPhase` draw happens *before* the trial call, so the
    /// phase stream is fixed by the chunk seed alone.
    ///
    /// [`run_chunks_scaffold`]: MonteCarlo::run_chunks_scaffold
    fn run_chunks<F>(
        &self,
        period_cycles: u64,
        collect_samples: bool,
        trial: F,
    ) -> Result<(Vec<(u64, ChunkOutcome)>, bool), SerrError>
    where
        F: Fn(&mut SmallRng, f64) -> Result<TrialOutcome, SerrError> + Sync,
    {
        let seed = self.config.seed;
        let start_phase = self.config.start_phase;
        let period = period_cycles as f64;
        self.run_chunks_scaffold(
            || (),
            |(), chunk, n| {
                let mut rng = SmallRng::seed_from_u64(chunk_seed(seed, chunk));
                let mut stats = RunningStats::new();
                let mut events = 0u64;
                let mut ttfs = Vec::with_capacity(if collect_samples { n as usize } else { 0 });
                for _ in 0..n {
                    // The `StartPhase` draw must stay *before* the trial
                    // call: moving it would reorder the RNG stream.
                    let phase = match start_phase {
                        StartPhase::WorkloadStart => 0.0,
                        StartPhase::Stationary => rng.gen_range(0.0..period),
                    };
                    let t = trial(&mut rng, phase)?;
                    stats.push(t.ttf_cycles);
                    events += t.events;
                    if collect_samples {
                        ttfs.push(t.ttf_cycles);
                    }
                }
                Ok(ChunkOutcome { stats, events, ttfs })
            },
        )
    }

    /// The chunk scaffolding shared by the per-trial and batched paths:
    /// claims chunks round-robin by index across workers, honors real and
    /// injected deadlines at chunk boundaries, maps worker panics to the
    /// typed engine fault, and returns outcomes sorted by chunk index.
    /// `scratch_init` runs once per worker (the batched sampler reuses its
    /// structure-of-arrays buffers across every chunk a worker claims);
    /// `chunk_body(scratch, chunk, n)` produces the outcome of `n` trials
    /// on chunk `chunk`'s deterministic stream.
    ///
    /// Deadline semantics: the budget is checked at chunk boundaries only —
    /// a chunk that has started always finishes, and every worker completes
    /// at least its *first* chunk, so a truncated run still contains at
    /// least [`TRIAL_CHUNK`] trials per worker and the estimate is never
    /// empty. Because each chunk's stream depends only on its index, the
    /// truncated result is still a deterministic function of *which* chunks
    /// completed (e.g. a zero deadline with one thread always yields
    /// exactly chunk 0).
    pub(crate) fn run_chunks_scaffold<S, I, G, O>(
        &self,
        scratch_init: I,
        chunk_body: G,
    ) -> Result<(Vec<(u64, O)>, bool), SerrError>
    where
        I: Fn() -> S + Sync,
        G: Fn(&mut S, u64, u64) -> Result<O, SerrError> + Sync,
        O: Send,
    {
        let trials = self.config.trials;
        let n_chunks = trials.div_ceil(TRIAL_CHUNK);
        let threads = self.config.effective_threads().min(n_chunks.max(1) as usize).max(1);
        let seed = self.config.seed;
        let deadline = self.config.deadline;
        let chaos = self.config.chaos;
        let started = std::time::Instant::now();
        let expired = std::sync::atomic::AtomicBool::new(false);

        // A budget that is already spent buys zero chunks: fail fast with
        // the typed error instead of burning one full chunk per worker on a
        // deadline that has no time left in it. Same predicate as the
        // between-chunks check below (a zero budget trips `elapsed >= limit`
        // trivially), so the two paths cannot disagree about what "expired"
        // means.
        if deadline_expired(&started, deadline, &expired) {
            let budget_s = deadline.map_or(0.0, |d| d.as_secs_f64());
            return Err(SerrError::DeadlineExhausted {
                budget_s,
                elapsed_s: started.elapsed().as_secs_f64(),
            });
        }
        // Injected deadline exhaustion at chunk 0 models the same condition.
        let cut_chunk = chaos.and_then(|p| p.deadline_cut_chunk(n_chunks));
        if cut_chunk == Some(0) {
            return Err(SerrError::DeadlineExhausted {
                budget_s: deadline.map_or(0.0, |d| d.as_secs_f64()),
                elapsed_s: started.elapsed().as_secs_f64(),
            });
        }
        let worker = |tid: usize| -> Result<Vec<(u64, O)>, SerrError> {
            let mut scratch = scratch_init();
            let mut out = Vec::new();
            let mut chunk = tid as u64;
            let mut first = true;
            while chunk < n_chunks {
                // Injected deadline cut: unlike the wall-clock budget this
                // keys on the chunk *index*, so the completed set {0..k} is
                // identical at any thread count.
                if let Some(k) = cut_chunk {
                    if chunk >= k {
                        break;
                    }
                }
                // Honor the wall-clock budget between chunks (never
                // mid-chunk), but always run the first claimed chunk. Same
                // `deadline_expired` predicate as the pre-run gate; its
                // sticky flag means that once any worker observes expiry,
                // no worker — including one that raced past the clock
                // check — buys another chunk.
                if !first && deadline_expired(&started, deadline, &expired) {
                    break;
                }
                first = false;
                if let Some(plan) = chaos {
                    if plan.chunk_panics(seed, chunk, n_chunks) {
                        panic!("chaos: injected panic in chunk {chunk}");
                    }
                }
                let lo = chunk * TRIAL_CHUNK;
                let hi = (lo + TRIAL_CHUNK).min(trials);
                out.push((chunk, chunk_body(&mut scratch, chunk, hi - lo)?));
                chunk += threads as u64;
            }
            Ok(out)
        };

        // A panicking worker — injected or genuine — must surface as a typed
        // error, never tear down the caller: catch the unwind on the
        // single-thread path and map scope-join failures on the parallel one.
        let gathered: Vec<Result<Vec<(u64, O)>, SerrError>> = if threads == 1 {
            vec![std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| worker(0)))
                .unwrap_or_else(|p| {
                    Err(SerrError::engine_fault("monte carlo worker", panic_payload_string(&*p)))
                })]
        } else {
            std::thread::scope(|scope| {
                let worker = &worker;
                let handles: Vec<_> =
                    (0..threads).map(|tid| scope.spawn(move || worker(tid))).collect();
                handles
                    .into_iter()
                    .map(|h| {
                        h.join().unwrap_or_else(|p| {
                            Err(SerrError::engine_fault(
                                "monte carlo worker",
                                panic_payload_string(&*p),
                            ))
                        })
                    })
                    .collect()
            })
        };

        // Under a deadline the completed set can be any subset that contains
        // each worker's first chunk; sort so the fold order stays ascending
        // by chunk index regardless of which worker finished what.
        let mut completed: Vec<(u64, O)> = Vec::with_capacity(n_chunks as usize);
        for res in gathered {
            completed.extend(res?);
        }
        completed.sort_unstable_by_key(|&(chunk, _)| chunk);
        let truncated = (completed.len() as u64) < n_chunks;
        debug_assert!(
            deadline.is_some() || chaos.is_some() || !truncated,
            "chunks can only go missing when a deadline (real or injected) expires"
        );
        // Chunk indices ride along so the caller's fold can key convergence
        // telemetry deterministically.
        Ok((completed, truncated))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serr_trace::IntervalTrace;

    fn fast_engine() -> MonteCarlo {
        MonteCarlo::new(MonteCarloConfig { trials: 40_000, ..Default::default() })
    }

    #[test]
    fn component_matches_renewal_truth() {
        let trace = IntervalTrace::busy_idle(40, 60).unwrap();
        let freq = Frequency::base();
        // λL ≈ 0.5 at this rate: a regime with real AVF error.
        let rate = RawErrorRate::per_second(0.005 * freq.hz() / 100.0);
        let est = fast_engine().component_mttf(&trace, rate, freq).unwrap();
        let truth = serr_analytic::renewal::renewal_mttf(&trace, rate, freq).unwrap().as_secs();
        let err = (est.mttf.as_secs() - truth).abs() / truth;
        assert!(err < 0.02, "MC {} vs renewal {truth}: {err}", est.mttf.as_secs());
        assert!(est.relative_ci95() < 0.02);
        assert!(est.mean_events_per_trial >= 1.0);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        // The real contract: bit-identical estimates at different thread
        // counts for a fixed (seed, trials). 5,000 trials span several RNG
        // chunks, so 4 workers genuinely interleave.
        let trace = IntervalTrace::busy_idle(10, 10).unwrap();
        let rate = RawErrorRate::per_year(5.0);
        let one = MonteCarloConfig { trials: 5_000, threads: 1, ..Default::default() };
        let four = MonteCarloConfig { threads: 4, ..one };
        let a = MonteCarlo::new(one).component_mttf(&trace, rate, Frequency::base()).unwrap();
        let b = MonteCarlo::new(four).component_mttf(&trace, rate, Frequency::base()).unwrap();
        assert_eq!(a, b);
        // Repeat runs are stable too.
        let c = MonteCarlo::new(four).component_mttf(&trace, rate, Frequency::base()).unwrap();
        assert_eq!(b, c);
    }

    #[test]
    fn deterministic_across_thread_counts_fractional_and_stationary() {
        // Fractional vulnerabilities exercise the Bernoulli masking draw and
        // the stationary start draws a per-trial phase — both consume RNG on
        // the chunk stream and must not disturb cross-thread determinism.
        let trace =
            IntervalTrace::from_levels(&[1.0, 0.25, 0.25, 0.0, 0.5, 0.0, 0.0, 0.0]).unwrap();
        let rate = RawErrorRate::per_year(5.0);
        let one = MonteCarloConfig {
            trials: 4_000,
            threads: 1,
            start_phase: crate::StartPhase::Stationary,
            ..Default::default()
        };
        let three = MonteCarloConfig { threads: 3, ..one };
        let a = MonteCarlo::new(one).component_mttf(&trace, rate, Frequency::base()).unwrap();
        let b = MonteCarlo::new(three).component_mttf(&trace, rate, Frequency::base()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn all_samplers_are_deterministic_across_thread_counts() {
        let trace =
            IntervalTrace::from_levels(&[1.0, 0.25, 0.25, 0.0, 0.5, 0.0, 0.0, 0.0]).unwrap();
        let rate = RawErrorRate::per_year(5.0);
        for sampler in [SamplerKind::EventLoop, SamplerKind::BatchedInversion] {
            for start_phase in [StartPhase::WorkloadStart, StartPhase::Stationary] {
                let one = MonteCarloConfig {
                    trials: 4_000,
                    threads: 1,
                    sampler,
                    start_phase,
                    ..Default::default()
                };
                let four = MonteCarloConfig { threads: 4, ..one };
                let a =
                    MonteCarlo::new(one).component_mttf(&trace, rate, Frequency::base()).unwrap();
                let b =
                    MonteCarlo::new(four).component_mttf(&trace, rate, Frequency::base()).unwrap();
                assert_eq!(a, b, "{sampler:?}/{start_phase:?} not thread-count invariant");
                assert_eq!(a.sampler, sampler);
            }
        }
    }

    #[test]
    fn samplers_agree_within_confidence_intervals() {
        // Same trace, same rate: the two samplers draw from the same
        // distribution (the full KS suite lives in
        // tests/sampler_equivalence.rs; this pins the engine wiring).
        let trace = IntervalTrace::busy_idle(30, 70).unwrap();
        let rate = RawErrorRate::per_second(0.01 * Frequency::base().hz() / 100.0);
        let base = MonteCarloConfig { trials: 100_000, ..Default::default() };
        let ev = MonteCarlo::new(MonteCarloConfig { sampler: SamplerKind::EventLoop, ..base })
            .component_mttf(&trace, rate, Frequency::base())
            .unwrap();
        let batched =
            MonteCarlo::new(MonteCarloConfig { sampler: SamplerKind::BatchedInversion, ..base })
                .component_mttf(&trace, rate, Frequency::base())
                .unwrap();
        let gap = (batched.mttf.as_secs() - ev.mttf.as_secs()).abs();
        let tol = 3.0 * (batched.ttf_seconds.ci95 + ev.ttf_seconds.ci95);
        assert!(
            gap <= tol,
            "batched-inversion {} vs event-loop {}: gap {gap} > {tol}",
            batched.mttf.as_secs(),
            ev.mttf.as_secs()
        );
        // Inversion consumes exactly one event per trial; the event loop
        // needs ~1/AVF (plus the λL-dependent correction).
        assert_eq!(batched.mean_events_per_trial, 1.0);
        assert!(ev.mean_events_per_trial > 2.0, "events {}", ev.mean_events_per_trial);
        assert_eq!(ev.sampler, SamplerKind::EventLoop);
        assert_eq!(batched.sampler, SamplerKind::BatchedInversion);
    }

    /// `busy_idle(3, 5)` tiled 10⁷ times: over twice the flat segment cap.
    fn over_cap_tiling() -> serr_trace::ConcatTrace {
        use std::sync::Arc;
        let unit: Arc<dyn VulnerabilityTrace> = Arc::new(IntervalTrace::busy_idle(3, 5).unwrap());
        serr_trace::ConcatTrace::new(vec![(unit, 10_000_000)]).unwrap()
    }

    #[test]
    fn tiled_trace_runs_the_batched_sampler() {
        let tiled = over_cap_tiling();
        assert!(CompiledTrace::compile(&tiled).is_some_and(|c| c.is_tiled()));
        let cfg = MonteCarloConfig { trials: 20_000, ..Default::default() };
        assert_eq!(cfg.sampler, SamplerKind::BatchedInversion);
        let freq = Frequency::base();
        let rate = RawErrorRate::per_year(1000.0);
        let est = MonteCarlo::new(cfg).component_mttf(&tiled, rate, freq).unwrap();
        assert_eq!(est.sampler, SamplerKind::BatchedInversion);
        assert_eq!(est.mean_events_per_trial, 1.0);
        let truth = serr_analytic::renewal::renewal_mttf(&tiled, rate, freq).unwrap().as_secs();
        let err = (est.mttf.as_secs() - truth).abs() / truth;
        assert!(err < 4.0 * est.relative_ci95(), "MC {} vs renewal {truth}", est.mttf.as_secs());
    }

    #[test]
    fn irreducible_trace_is_a_typed_invalid_trace() {
        use std::sync::Arc;
        // A phase shift over an over-cap concatenation exposes no tiling:
        // nothing can compile it, so every entry point refuses with a typed
        // error instead of changing sampler behind the caller's back.
        let shifted = serr_trace::ShiftedTrace::new(Arc::new(over_cap_tiling()), 3);
        assert!(CompiledTrace::compile(&shifted).is_none());
        let mc = MonteCarlo::new(MonteCarloConfig { trials: 2_000, ..Default::default() });
        let rate = RawErrorRate::per_year(1000.0);
        let freq = Frequency::base();
        for res in [
            mc.component_mttf(&shifted, rate, freq).map(|_| ()),
            mc.sample_ttfs(&shifted, rate, freq, 100).map(|_| ()),
            mc.component_mttf_multi(&shifted, &[rate], freq).map(|_| ()),
        ] {
            match res {
                Err(SerrError::InvalidTrace { reason }) => {
                    assert!(reason.contains("cannot be compiled"), "reason: {reason}");
                }
                other => panic!("expected a typed InvalidTrace, got {other:?}"),
            }
        }
    }

    #[test]
    fn sample_ttfs_deterministic_and_threaded() {
        let trace = IntervalTrace::busy_idle(30, 70).unwrap();
        let rate = RawErrorRate::per_year(20.0);
        let one = MonteCarlo::new(MonteCarloConfig { threads: 1, ..Default::default() });
        let four = MonteCarlo::new(MonteCarloConfig { threads: 4, ..Default::default() });
        let a = one.sample_ttfs(&trace, rate, Frequency::base(), 3_000).unwrap();
        let b = four.sample_ttfs(&trace, rate, Frequency::base(), 3_000).unwrap();
        assert_eq!(a.len(), 3_000);
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_invalid_inputs() {
        let dead = IntervalTrace::constant(10, 0.0).unwrap();
        let live = IntervalTrace::constant(10, 1.0).unwrap();
        let engine = fast_engine();
        assert!(engine
            .component_mttf(&dead, RawErrorRate::per_year(1.0), Frequency::base())
            .is_err());
        assert!(engine.component_mttf(&live, RawErrorRate::ZERO, Frequency::base()).is_err());
        let zero_trials = MonteCarlo::new(MonteCarloConfig { trials: 0, ..Default::default() });
        assert!(zero_trials
            .component_mttf(&live, RawErrorRate::per_year(1.0), Frequency::base())
            .is_err());
    }

    #[test]
    fn sampled_ttfs_are_exponential_in_avf_regime() {
        // SOFR's assumption holds when λL -> 0: KS test against Exp(λ·AVF).
        let trace = IntervalTrace::busy_idle(30, 70).unwrap();
        let freq = Frequency::base();
        let rate = RawErrorRate::per_year(20.0); // λL astronomically small
        let engine = fast_engine();
        let samples = engine.sample_ttfs(&trace, rate, freq, 4_000).unwrap();
        let ecdf = serr_numeric::ecdf::Ecdf::new(samples).expect("TTF samples contain no NaN");
        let eff_rate = rate.per_second_value() * 0.3;
        let d = ecdf.ks_vs_exponential(eff_rate);
        assert!(
            d < serr_numeric::ecdf::ks_critical_value(4_000, 0.01),
            "KS {d} rejects exponentiality in the valid regime"
        );
    }

    #[test]
    fn estimate_summary_is_consistent() {
        let trace = IntervalTrace::constant(100, 1.0).unwrap();
        let est = fast_engine()
            .component_mttf(&trace, RawErrorRate::per_year(1.0), Frequency::base())
            .unwrap();
        assert_eq!(est.ttf_seconds.count, 40_000);
        assert!(est.ttf_seconds.min >= 0.0);
        assert!(est.ttf_seconds.max > est.ttf_seconds.mean);
        assert!((est.mttf.as_secs() - est.ttf_seconds.mean).abs() < 1e-12);
        // Fully vulnerable -> exactly one event per trial.
        assert_eq!(est.mean_events_per_trial, 1.0);
        assert!(!est.truncated);
    }

    #[test]
    fn exhausted_deadline_fails_before_the_first_chunk() {
        use std::time::Duration;
        // A deadline already in the past used to buy one full chunk per
        // worker; now it fails immediately with the typed error.
        let trace = IntervalTrace::busy_idle(10, 10).unwrap();
        let rate = RawErrorRate::per_year(5.0);
        for threads in [1usize, 4] {
            let cfg = MonteCarloConfig {
                trials: 40_960,
                threads,
                deadline: Some(Duration::ZERO),
                ..Default::default()
            };
            match MonteCarlo::new(cfg).component_mttf(&trace, rate, Frequency::base()) {
                Err(SerrError::DeadlineExhausted { budget_s, elapsed_s }) => {
                    assert_eq!(budget_s, 0.0);
                    assert!(elapsed_s >= 0.0, "elapsed context must be populated");
                }
                other => panic!("expected DeadlineExhausted, got {other:?}"),
            }
        }
    }

    #[test]
    fn injected_deadline_cut_truncates_identically_at_any_thread_count() {
        use serr_inject::{FaultKind, FaultPlan};
        let trace = IntervalTrace::busy_idle(10, 10).unwrap();
        let rate = RawErrorRate::per_year(5.0);
        let freq = Frequency::base();
        let full_cfg = MonteCarloConfig { trials: 40_960, threads: 1, ..Default::default() };
        let full = MonteCarlo::new(full_cfg).component_mttf(&trace, rate, freq).unwrap();
        assert!(!full.truncated);
        assert_eq!(full.ttf_seconds.count, 40_960);

        // An injected cut at chunk 2 completes exactly chunks {0, 1} no
        // matter how many workers race for them.
        let plan = (0..1_000u64)
            .map(|s| FaultPlan::new(s, FaultKind::DeadlineExhaust))
            .find(|p| p.deadline_cut_chunk(40) == Some(2))
            .expect("some seed cuts at chunk 2");
        let cut_cfg = MonteCarloConfig { chaos: Some(plan), ..full_cfg };
        let cut = MonteCarlo::new(cut_cfg).component_mttf(&trace, rate, freq).unwrap();
        assert!(cut.truncated);
        assert_eq!(cut.ttf_seconds.count, 2_048);
        assert!(cut.mean_events_per_trial >= 1.0);
        // Honestly wider CI than the full run, and the partial mean still
        // covers it (chunks {0,1} are a subset of the full run's trials).
        assert!(cut.ttf_seconds.ci95 > full.ttf_seconds.ci95);
        let diff = (cut.ttf_seconds.mean - full.ttf_seconds.mean).abs();
        assert!(
            diff <= 2.0 * cut.ttf_seconds.ci95,
            "partial mean {} +/- {} does not cover full-run mean {}",
            cut.ttf_seconds.mean,
            cut.ttf_seconds.ci95,
            full.ttf_seconds.mean
        );
        // Bit-identical on re-run and across thread counts.
        let again = MonteCarlo::new(cut_cfg).component_mttf(&trace, rate, freq).unwrap();
        assert_eq!(cut, again);
        let four = MonteCarloConfig { threads: 4, ..cut_cfg };
        let wide = MonteCarlo::new(four).component_mttf(&trace, rate, freq).unwrap();
        assert_eq!(cut, wide);
    }

    #[test]
    fn injected_cut_at_chunk_zero_is_the_typed_deadline_error() {
        use serr_inject::{FaultKind, FaultPlan};
        let trace = IntervalTrace::busy_idle(10, 10).unwrap();
        let plan = (0..1_000u64)
            .map(|s| FaultPlan::new(s, FaultKind::DeadlineExhaust))
            .find(|p| p.deadline_cut_chunk(4) == Some(0))
            .expect("some seed cuts at chunk 0");
        let cfg = MonteCarloConfig { trials: 4_096, chaos: Some(plan), ..Default::default() };
        let res = MonteCarlo::new(cfg).component_mttf(
            &trace,
            RawErrorRate::per_year(5.0),
            Frequency::base(),
        );
        assert!(
            matches!(res, Err(SerrError::DeadlineExhausted { .. })),
            "expected DeadlineExhausted, got {res:?}"
        );
    }

    #[test]
    fn injected_worker_panic_surfaces_as_typed_engine_fault() {
        use serr_inject::{FaultKind, FaultPlan};
        let trace = IntervalTrace::busy_idle(10, 10).unwrap();
        let rate = RawErrorRate::per_year(5.0);
        let base = MonteCarloConfig { trials: 8_192, threads: 1, ..Default::default() };
        // Every chunk-panic plan has a victim among the run's 8 chunks.
        let plan = (0..1_000u64)
            .map(|s| FaultPlan::new(s, FaultKind::ChunkPanic))
            .find(|p| (0..8).any(|c| p.chunk_panics(base.seed, c, 8)))
            .expect("some seed panics within the first 8 chunks");
        // Quiet the default panic hook for the injected panics; restoring it
        // would race other tests, and the filter chains to the previous hook
        // for every genuine panic.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.contains("chaos: injected"));
            if !injected {
                prev(info);
            }
        }));
        for threads in [1usize, 3] {
            let cfg = MonteCarloConfig { threads, chaos: Some(plan), ..base };
            match MonteCarlo::new(cfg).component_mttf(&trace, rate, Frequency::base()) {
                Err(SerrError::EngineFault { site, detail }) => {
                    assert_eq!(site, "monte carlo worker");
                    assert!(detail.contains("chaos: injected panic"), "detail: {detail}");
                }
                other => panic!("threads={threads}: expected EngineFault, got {other:?}"),
            }
        }
    }

    #[test]
    fn generous_deadline_matches_unbounded_run() {
        use std::time::Duration;
        let trace = IntervalTrace::busy_idle(10, 10).unwrap();
        let rate = RawErrorRate::per_year(5.0);
        let base = MonteCarloConfig { trials: 5_000, threads: 2, ..Default::default() };
        let bounded = MonteCarloConfig { deadline: Some(Duration::from_secs(3600)), ..base };
        let a = MonteCarlo::new(base).component_mttf(&trace, rate, Frequency::base()).unwrap();
        let b = MonteCarlo::new(bounded).component_mttf(&trace, rate, Frequency::base()).unwrap();
        assert!(!b.truncated);
        assert_eq!(a, b);
    }

    #[test]
    fn deadline_helper_shares_semantics_between_gate_and_workers() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::time::{Duration, Instant};
        let started = Instant::now();

        // No deadline: never expires, flag untouched.
        let flag = AtomicBool::new(false);
        assert!(!deadline_expired(&started, None, &flag));
        assert!(!flag.load(Ordering::Relaxed));

        // Zero budget: expires on the first consultation (the pre-run gate
        // path) and latches the flag.
        let flag = AtomicBool::new(false);
        assert!(deadline_expired(&started, Some(Duration::ZERO), &flag));
        assert!(flag.load(Ordering::Relaxed));

        // Generous budget: not expired, flag stays clear.
        let flag = AtomicBool::new(false);
        assert!(!deadline_expired(&started, Some(Duration::from_secs(3600)), &flag));
        assert!(!flag.load(Ordering::Relaxed));
    }

    #[test]
    fn expiry_observed_by_one_worker_is_sticky_for_all() {
        use std::sync::atomic::AtomicBool;
        use std::time::{Duration, Instant};
        // Regression for the mid-run guarantee: once any worker has seen
        // the deadline pass, every later check answers "expired" without
        // consulting the clock — even against a budget the clock would
        // still call generous — so no worker can buy a second chunk after
        // a peer observed expiry.
        let started = Instant::now();
        let flag = AtomicBool::new(false);
        assert!(deadline_expired(&started, Some(Duration::ZERO), &flag), "first observer trips");
        assert!(
            deadline_expired(&started, Some(Duration::from_secs(3600)), &flag),
            "sticky flag must override a clock that says there is time left"
        );
    }

    #[test]
    fn tiny_deadline_never_buys_a_second_chunk_per_worker() {
        use std::time::Duration;
        // A 1 ns budget is always spent by the time anyone checks: either
        // the pre-run gate catches it (typed error), or — on a coarse
        // clock — workers run exactly their first claimed chunk each and
        // then stop. Either way no worker completes two chunks: with the
        // old duplicated checks, drift between the two predicates could
        // hand an expired worker one more chunk.
        let trace = IntervalTrace::busy_idle(10, 10).unwrap();
        let rate = RawErrorRate::per_year(5.0);
        for threads in [1usize, 4] {
            let cfg = MonteCarloConfig {
                trials: 40_960,
                threads,
                deadline: Some(Duration::from_nanos(1)),
                ..Default::default()
            };
            match MonteCarlo::new(cfg).component_mttf(&trace, rate, Frequency::base()) {
                Err(SerrError::DeadlineExhausted { budget_s, elapsed_s }) => {
                    assert!((budget_s - 1e-9).abs() < 1e-15);
                    assert!(elapsed_s >= budget_s, "the budget was blown, not merely met");
                }
                Ok(est) => {
                    assert!(est.truncated);
                    let n = est.ttf_seconds.count;
                    assert_eq!(n % TRIAL_CHUNK, 0, "whole chunks only");
                    assert!(
                        n <= threads as u64 * TRIAL_CHUNK,
                        "threads={threads}: {n} trials means some worker bought a second \
                         chunk after expiry"
                    );
                }
                other => panic!("threads={threads}: unexpected result {other:?}"),
            }
        }
    }

    #[test]
    fn observer_telemetry_is_readonly_and_chunk_ordered() {
        use serr_obs::Value;
        // Attaching an observer must not change the estimate, and the
        // mc.chunk convergence snapshots arrive in ascending chunk order
        // with a running sample count.
        let trace = IntervalTrace::busy_idle(10, 10).unwrap();
        let rate = RawErrorRate::per_year(5.0);
        let cfg = MonteCarloConfig { trials: 5_000, threads: 4, ..Default::default() };
        let plain = MonteCarlo::new(cfg).component_mttf(&trace, rate, Frequency::base()).unwrap();
        let (obs, sink) = Obs::memory();
        let observed = MonteCarlo::new(cfg)
            .with_observer(obs.clone())
            .component_mttf(&trace, rate, Frequency::base())
            .unwrap();
        assert_eq!(plain, observed);

        let chunks = sink.events_of("mc.chunk");
        assert_eq!(chunks.len(), 5, "5000 trials -> 5 chunks of 1024");
        let seqs: Vec<u64> = chunks.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
        let last = &chunks[4];
        assert!(last.fields.iter().any(|(k, v)| *k == "n" && *v == Value::U64(5_000)));

        let snap = obs.metrics().snapshot();
        assert_eq!(snap.counters["mc.rng_chunks"], 5);
        assert_eq!(
            snap.counters["mc.runs_batched_inversion"], 1,
            "default sampler is batched inversion"
        );
        assert!(!snap.counters.contains_key("mc.runs_event_loop"));
        assert_eq!(snap.counters["mc.trials_completed"], 5_000);
        assert_eq!(snap.histograms["stage.mc_run_ms"].count(), 1);
        assert_eq!(snap.histograms["stage.trace_compile_ms"].count(), 1);
        assert!(snap.gauges["mc.samples_per_sec"] > 0.0);
    }

    #[test]
    fn rejects_zero_event_cap() {
        let live = IntervalTrace::constant(10, 1.0).unwrap();
        let engine =
            MonteCarlo::new(MonteCarloConfig { max_events_per_trial: 0, ..Default::default() });
        assert!(engine
            .component_mttf(&live, RawErrorRate::per_year(1.0), Frequency::base())
            .is_err());
    }
}
