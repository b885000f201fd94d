//! The parallel Monte Carlo engine: every estimate — one rate or a rate
//! list — runs through one chunked loop.
//!
//! # Determinism contract
//!
//! Results are **bit-identical** for a given `(config.seed, config.trials)`
//! at any thread count, and a rate's estimate is the same whether it runs
//! alone ([`MonteCarlo::component_mttf`]) or as one point of a rate list
//! ([`MonteCarlo::component_mttf_multi`]). The trial space is split into
//! fixed-size chunks of [`TRIAL_CHUNK`] trials; chunk `j` derives its
//! stream seed with a SplitMix64 finalizer over `(seed, j)` — a pure
//! counter-based derivation that never looks at which worker thread runs
//! the chunk — and every rate of the list consumes that same stream: the
//! batched sampler prepares the λ-independent planes once and finishes
//! each rate over them. Workers claim chunks in index order from a
//! shared counter and hand each finished chunk to the calling thread
//! (itself worker 0), which merges chunk `k` into every rate's running
//! statistics only after chunks `0..k`: the floating-point reduction order
//! is fixed too, and a run holds one running fold per rate rather than
//! every chunk's statistics.
//! `tests/sweep_equivalence.rs` and `tests/metrics_invariant.rs` pin both
//! properties, the latter for the telemetry as well.
//!
//! # Compiled hot path
//!
//! Before spawning workers, the engine lowers the trace into a
//! [`CompiledTrace`] (flat segments + bucketed `O(1)` phase index and a
//! bucketed inverse index over the prefix sums, or a tile level over such
//! tables for day-scale tilings like the paper's `combined` workload). The
//! batched inversion sampler ([`crate::SamplerKind::BatchedInversion`], the
//! only one) makes the whole chunk the unit of work: per chunk one shared
//! prepare pass and one finish pass per rate, counter-based RNG words and
//! branchless structure-of-arrays passes producing all [`TRIAL_CHUNK`]
//! times to failure per finish — see [`crate::batched`]. The paper's
//! per-event walk ([`crate::sampler`]) is not an engine path: it is the
//! oracle the KS-equivalence suite checks this sampler against.
//!
//! A trace that cannot be compiled at all — over the segment cap with no
//! tiling to fold, such as a phase-shifted `combined` — is a typed
//! [`SerrError::InvalidTrace`].

use std::collections::BTreeMap;
use std::time::Instant;

use serr_numeric::stats::{RunningStats, Summary};
use serr_obs::Obs;
use serr_trace::{CompiledTrace, VulnerabilityTrace};
use serr_types::{panic_payload_string, Frequency, Mttf, RawErrorRate, SerrError};

use crate::batched::{BatchedInversionSampler, PointScratch, SharedChunk};
use crate::system::SystemModel;
use crate::MonteCarloConfig;

/// Trials per deterministic RNG chunk. Small enough that a 20,000-trial
/// smoke run still spreads across cores, large enough that per-chunk
/// scheduling overhead vanishes against the chunk's array passes.
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
/// between-chunks check, so the two paths cannot drift. Semantics:
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

/// Milliseconds elapsed since `t`.
fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The error of a zero raw error rate, whose MTTF is infinite.
pub(crate) fn zero_rate() -> SerrError {
    SerrError::invalid_config("raw error rate is zero; MTTF is infinite")
}

/// The error of a trace with AVF = 0, whose component can never fail.
pub(crate) fn never_vulnerable() -> SerrError {
    SerrError::invalid_trace("trace has AVF = 0; the component can never fail")
}

/// Assembles an [`MttfEstimate`] from one point's cycle-domain statistics
/// folded in ascending chunk order — the one place the cycles → seconds
/// conversion lives.
///
/// # Errors
///
/// Returns [`SerrError::InvalidValue`] when the mean time to failure is not
/// a positive duration — at a rate so small that sampled failure times
/// overflow, the running mean turns NaN.
pub(crate) fn estimate_from_cycle_stats(
    stats: &RunningStats,
    hz: f64,
    truncated: bool,
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
    Ok(MttfEstimate { mttf, ttf_seconds: summary, truncated })
}

/// Lowers `trace` into the [`CompiledTrace`] the sampler runs on.
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

/// One chunk across every rate of a run, in rate order: what a worker
/// hands the fold when it finishes the chunk.
pub(crate) struct Chunk<K> {
    /// Each rate's statistics and what the caller kept of its times to
    /// failure.
    pub(crate) points: Vec<(RunningStats, K)>,
    /// The sampler's wall time in the shared prepare pass and in the
    /// per-rate finish passes.
    pub(crate) shared_ms: f64,
    pub(crate) point_ms: f64,
}

/// One rate's share of a run, folded over its chunks in ascending chunk
/// index.
pub(crate) struct PointFold<K> {
    /// The statistics of every chunk merged so far.
    pub(crate) stats: RunningStats,
    /// What the caller kept of each merged chunk, in chunk order.
    pub(crate) kept: Vec<K>,
    /// `(chunk, running statistics after merging it)` for each merged
    /// chunk, recorded only when the engine has an observer: the `mc.chunk`
    /// convergence snapshots, emitted point-major once the run is over.
    pub(crate) snapshots: Vec<(u64, RunningStats)>,
}

/// A whole run, folded: each rate's [`PointFold`] and the run's totals.
pub(crate) struct RunFold<K> {
    pub(crate) points: Vec<PointFold<K>>,
    /// Chunks merged, that is completed.
    pub(crate) chunks: u64,
    /// Whether a deadline, real or injected, cut the run short.
    pub(crate) truncated: bool,
    /// [`Chunk::shared_ms`] and [`Chunk::point_ms`] summed over the run.
    pub(crate) shared_ms: f64,
    pub(crate) point_ms: f64,
}

impl<K> RunFold<K> {
    fn new(rates: usize) -> Self {
        RunFold {
            points: (0..rates)
                .map(|_| PointFold {
                    stats: RunningStats::new(),
                    kept: Vec::new(),
                    snapshots: Vec::new(),
                })
                .collect(),
            chunks: 0,
            truncated: false,
            shared_ms: 0.0,
            point_ms: 0.0,
        }
    }

    /// Merges chunk `chunk` into every rate's fold. Called in ascending
    /// chunk order, so the floating-point reduction order is fixed.
    fn merge(&mut self, chunk: u64, c: Chunk<K>, snapshots: bool) {
        self.chunks += 1;
        self.shared_ms += c.shared_ms;
        self.point_ms += c.point_ms;
        for (point, (stats, kept)) in self.points.iter_mut().zip(c.points) {
            point.stats.merge(&stats);
            point.kept.push(kept);
            if snapshots {
                point.snapshots.push((chunk, point.stats));
            }
        }
    }
}

/// The calling thread's side of the streaming fold: takes chunk outcomes in
/// whatever order the workers finish them and merges them in ascending
/// chunk index, holding back only those that finish ahead of their turn.
/// It never skips a chunk: workers claim chunks in index order and finish
/// every chunk they claim, so the chunks of a run cut short are a
/// contiguous prefix, and the fold stops at the first chunk that never
/// arrives.
struct OrderedFold<O, M> {
    merge: M,
    /// The lowest chunk index not merged yet: the number merged so far.
    next: u64,
    /// Outcomes that finished ahead of `next`.
    ahead: BTreeMap<u64, O>,
}

impl<O, M: FnMut(u64, O)> OrderedFold<O, M> {
    fn new(merge: M) -> Self {
        OrderedFold { merge, next: 0, ahead: BTreeMap::new() }
    }

    /// Takes chunk `chunk`'s outcome and merges every chunk now due.
    fn push(&mut self, chunk: u64, outcome: O) {
        debug_assert!(chunk >= self.next, "chunk {chunk} arrived after the fold passed it");
        let again = self.ahead.insert(chunk, outcome).is_some();
        debug_assert!(!again, "chunk {chunk} handed to the fold twice");
        while let Some(outcome) = self.ahead.remove(&self.next) {
            (self.merge)(self.next, outcome);
            self.next += 1;
        }
    }

    /// The number of chunks merged, once every worker has stopped.
    fn finish(self) -> u64 {
        debug_assert!(
            self.ahead.is_empty(),
            "chunks {:?} arrived but chunk {} never did: the completed chunks are not a prefix",
            self.ahead.keys().collect::<Vec<_>>(),
            self.next
        );
        self.next
    }
}

/// A Monte Carlo MTTF estimate with sampling diagnostics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MttfEstimate {
    /// The estimated mean time to failure.
    pub mttf: Mttf,
    /// Sample statistics of the time-to-failure distribution, in seconds.
    pub ttf_seconds: Summary,
    /// Whether a configured [`deadline`](crate::MonteCarloConfig::deadline)
    /// cut the run short. A truncated estimate averages only the trials
    /// completed before the deadline (`ttf_seconds.count` of them); its
    /// confidence interval is honestly wider than the full run's would be.
    pub truncated: bool,
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
/// of thread count and of the other rates a run carries: chunk `j` of every
/// rate draws from a stream derived from `(seed, j)` alone, and each rate's
/// chunks fold in ascending chunk order on the main thread.
#[derive(Debug, Clone, Default)]
pub struct MonteCarlo {
    pub(crate) config: MonteCarloConfig,
    /// Optional observability handle. Telemetry is strictly read-only over
    /// the already-folded results: convergence events are emitted from the
    /// deterministic chunk-order fold on the main thread, so attaching an
    /// observer cannot perturb estimates or their thread-count invariance.
    pub(crate) obs: Option<Obs>,
    /// Runs before each chunk's body with the chunk index: tests use it to
    /// make chunks finish out of order.
    #[cfg(test)]
    pub(crate) before_chunk: Option<fn(u64)>,
}

impl MonteCarlo {
    /// Creates an engine with the given configuration.
    #[must_use]
    pub fn new(config: MonteCarloConfig) -> Self {
        MonteCarlo { config, ..MonteCarlo::default() }
    }

    /// Attaches an observability handle. Every run then records the same
    /// vocabulary, whatever the number of rates: per-stage wall time
    /// (`stage.trace_compile_ms`, `stage.sweep_shared_ms` and
    /// `stage.sweep_point_ms`), run / chunk / trial / raw-event counters, a
    /// samples-per-second gauge, and one `mc.chunk` convergence event per
    /// completed (rate, chunk) — the rate's running mean and CI half-width
    /// after folding that chunk (see [`MonteCarlo::component_mttf_multi`]).
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
    /// step is judged. The one-rate case of
    /// [`MonteCarlo::component_mttf_multi`].
    ///
    /// # Errors
    ///
    /// Returns [`SerrError::InvalidConfig`] for a zero rate or zero trials,
    /// [`SerrError::InvalidTrace`] for an AVF-0 trace or one that cannot be
    /// compiled, and [`SerrError::InvalidValue`] when the mean time to
    /// failure overflows.
    pub fn component_mttf(
        &self,
        trace: &dyn VulnerabilityTrace,
        rate: RawErrorRate,
        freq: Frequency,
    ) -> Result<MttfEstimate, SerrError> {
        self.component_mttf_multi(trace, &[rate], freq)?.pop().expect("one estimate per rate")
    }

    /// Estimates the MTTF of a whole system — the ground truth against which
    /// the SOFR step is judged: [`MonteCarlo::component_mttf`] on the
    /// system's combined trace at its total rate. See [`SystemModel`] for
    /// construction.
    ///
    /// # Errors
    ///
    /// As for [`MonteCarlo::component_mttf`].
    pub fn system_mttf(&self, system: &SystemModel) -> Result<MttfEstimate, SerrError> {
        self.component_mttf(&system.combined_trace(), system.total_rate(), system.frequency())
    }

    /// Draws `n` raw time-to-failure samples (in seconds) for distribution
    /// analysis — e.g. Kolmogorov–Smirnov tests of the SOFR exponentiality
    /// assumption.
    ///
    /// Runs the same chunk loop as [`MonteCarlo::component_mttf`]: it
    /// honors `config.threads`, and the returned sample vector is in
    /// deterministic trial order (chunk-major) for any thread count.
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
        self.config.validate()?;
        if rate.is_zero() {
            return Err(zero_rate());
        }
        let compiled = compile_for_sampling(trace)?;
        if compiled.is_never_vulnerable() {
            return Err(never_vulnerable());
        }
        let hz = freq.hz();
        let mut engine = self.clone();
        engine.config.trials = n;
        engine.obs = None;
        let mut run =
            engine.run_rates(&compiled, &[rate.per_second_value() / hz], <[f64]>::to_vec)?;
        let point = run.points.pop().expect("one fold per rate");
        Ok(point.kept.into_iter().flatten().map(|t| t / hz).collect())
    }

    /// Compiles `trace` once for a run, recording the `trace_compile`
    /// stage; every worker then runs the chunk passes over its flat
    /// tables with no virtual dispatch.
    pub(crate) fn compile(
        &self,
        trace: &dyn VulnerabilityTrace,
    ) -> Result<CompiledTrace, SerrError> {
        let t_compile = Instant::now();
        let compiled = compile_for_sampling(trace);
        if let Some(obs) = &self.obs {
            obs.record_stage("trace_compile", ms_since(t_compile));
        }
        compiled
    }

    /// The one chunk loop: runs the configured trial count for every
    /// per-cycle rate in `lambdas` (each positive) on `c`, and returns the
    /// run folded per rate. Each chunk is merged into the fold as soon as
    /// every lower chunk has been, so a run holds a rate's running
    /// statistics, not one entry per (rate, chunk). `keep` maps one rate's
    /// chunk of times to failure (in cycles, trial order) to what the
    /// caller keeps of it — nothing for an estimate, the samples for
    /// [`MonteCarlo::sample_ttfs`]. With an observer attached, each rate's
    /// fold also records its convergence snapshots.
    ///
    /// Each chunk is prepared once and finished per rate.
    pub(crate) fn run_rates<K: Send>(
        &self,
        c: &CompiledTrace,
        lambdas: &[f64],
        keep: impl Fn(&[f64]) -> K + Sync,
    ) -> Result<RunFold<K>, SerrError> {
        let seed = self.config.seed;
        let start_phase = self.config.start_phase;
        let snapshots = self.obs.is_some();
        let samplers: Vec<BatchedInversionSampler> = lambdas
            .iter()
            .map(|&lambda| BatchedInversionSampler::new(c, lambda, start_phase))
            .collect();
        let mut run = RunFold::new(lambdas.len());
        run.truncated = self.run_chunks_scaffold(
            <(SharedChunk, PointScratch)>::default,
            |(shared, point), chunk, n| {
                let n = n as usize;
                // The shared pass runs once per chunk; any sampler may drive
                // it (λ is unread there). Hints never cross chunks, so a
                // chunk's lookups do not depend on which chunk this worker
                // served before.
                let t_shared = Instant::now();
                samplers[0].prepare_chunk(shared, chunk_seed(seed, chunk), n);
                point.forget_segment_hints();
                let shared_ms = ms_since(t_shared);
                let t_point = Instant::now();
                let points = samplers
                    .iter()
                    .map(|s| (s.finish_chunk(shared, point, n), keep(point.ttfs())))
                    .collect();
                Chunk { points, shared_ms, point_ms: ms_since(t_point) }
            },
            |chunk, out| run.merge(chunk, out, snapshots),
        )?;
        Ok(run)
    }

    /// The chunk scaffolding under [`MonteCarlo::run_rates`]: hands chunks
    /// out to workers from a shared counter, honors real and injected
    /// deadlines at chunk boundaries, maps worker panics to the typed
    /// engine fault, and streams each chunk's outcome to `merge` on the
    /// calling thread in ascending chunk index. Returns whether the run was
    /// cut short. `scratch_init` runs once per worker (the samplers reuse
    /// their buffers across every chunk a worker claims); `chunk_body(scratch,
    /// chunk, n)` produces the outcome of `n` trials on chunk `chunk`'s
    /// deterministic stream.
    ///
    /// Worker `w` runs chunk `w` first and then claims the lowest chunk no
    /// worker has claimed yet, so a worker that finishes early takes the
    /// next chunk instead of idling behind a slower one. The calling thread
    /// is worker 0. The other workers hand each finished chunk to it, and
    /// it merges chunk `k` only after chunks `0..k` — the ascending order a
    /// sort of the whole run would give — holding back only the chunks that
    /// finish ahead of their turn. With chunks of equal cost that is about
    /// one chunk per worker; a stalled worker lets it grow, at most to the
    /// run's whole length.
    ///
    /// Deadline semantics: the budget is checked at chunk boundaries only,
    /// before a worker claims its next chunk — a claimed chunk always runs
    /// to the end, and every worker completes at least its *first* chunk,
    /// so a truncated run still contains at least [`TRIAL_CHUNK`] trials
    /// per worker and the estimate is never empty. Chunks are claimed in
    /// index order, so the chunks a cut run completes are always a
    /// contiguous prefix `0..k`; because each chunk's stream depends only
    /// on its index, the truncated result is a deterministic function of
    /// `k` (e.g. a zero deadline with one thread always yields exactly
    /// chunk 0). One budget covers every rate of the run.
    fn run_chunks_scaffold<S, I, G, O>(
        &self,
        scratch_init: I,
        chunk_body: G,
        merge: impl FnMut(u64, O),
    ) -> Result<bool, SerrError>
    where
        I: Fn() -> S + Sync,
        G: Fn(&mut S, u64, u64) -> O + Sync,
        O: Send,
    {
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
        let trials = self.config.trials;
        let n_chunks = trials.div_ceil(TRIAL_CHUNK);
        let threads = self.config.effective_threads().min(n_chunks.max(1) as usize).max(1);
        let seed = self.config.seed;
        let deadline = self.config.deadline;
        let chaos = self.config.chaos;
        let started = Instant::now();
        let expired = AtomicBool::new(false);

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
        // Injected deadline cut: unlike the wall-clock budget this keys on
        // the chunk *index*, so the completed set {0..k} is identical at any
        // thread count.
        let end = cut_chunk.unwrap_or(n_chunks).min(n_chunks);
        // Chunks `0..threads` are each worker's first; the rest are claimed
        // in index order. `Relaxed` suffices: the counter hands out indices
        // and publishes no data (outcomes travel through the channel).
        let unclaimed = AtomicU64::new(threads as u64);
        let worker = |tid: usize, hand_off: &mut dyn FnMut(u64, O)| {
            let mut scratch = scratch_init();
            let mut chunk = tid as u64;
            while chunk < end {
                if let Some(plan) = chaos {
                    if plan.chunk_panics(seed, chunk, n_chunks) {
                        panic!("chaos: injected panic in chunk {chunk}");
                    }
                }
                #[cfg(test)]
                if let Some(hook) = self.before_chunk {
                    hook(chunk);
                }
                let lo = chunk * TRIAL_CHUNK;
                let hi = (lo + TRIAL_CHUNK).min(trials);
                hand_off(chunk, chunk_body(&mut scratch, chunk, hi - lo));
                // Honor the wall-clock budget between chunks (never
                // mid-chunk), before claiming: a claimed chunk always runs,
                // so the completed chunks stay a prefix. Same
                // `deadline_expired` predicate as the pre-run gate; its
                // sticky flag means that once any worker observes expiry,
                // no worker — including one that raced past the clock
                // check — claims another chunk.
                if deadline_expired(&started, deadline, &expired) {
                    break;
                }
                chunk = unclaimed.fetch_add(1, Ordering::Relaxed);
            }
        };
        let fault = |p: Box<dyn std::any::Any + Send>| {
            SerrError::engine_fault("monte carlo worker", panic_payload_string(&*p))
        };

        // The calling thread is worker 0: between its own chunks it merges
        // whatever the other workers have handed over, then waits for the
        // rest. A panicking worker — injected or genuine — must surface as a
        // typed error, never tear down the caller: worker 0's unwind is
        // caught here, the others' at their join.
        let mut fold = OrderedFold::new(merge);
        let (tx, rx) = std::sync::mpsc::channel();
        let joined: Vec<Result<(), SerrError>> = std::thread::scope(|scope| {
            let worker = &worker;
            let handles: Vec<_> = (1..threads)
                .map(|tid| {
                    let tx = tx.clone();
                    scope.spawn(move || {
                        worker(tid, &mut |chunk, out| {
                            // The receiver outlives every worker.
                            let _ = tx.send((chunk, out));
                        });
                    })
                })
                .collect();
            drop(tx);
            let own = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                worker(0, &mut |chunk, out| {
                    fold.push(chunk, out);
                    rx.try_iter().for_each(|(chunk, out)| fold.push(chunk, out));
                });
            }));
            rx.iter().for_each(|(chunk, out)| fold.push(chunk, out));
            std::iter::once(own)
                .chain(handles.into_iter().map(std::thread::ScopedJoinHandle::join))
                .map(|r| r.map_err(fault))
                .collect()
        });
        joined.into_iter().collect::<Result<(), _>>()?;

        let truncated = fold.finish() < n_chunks;
        debug_assert!(
            deadline.is_some() || chaos.is_some() || !truncated,
            "chunks can only go missing when a deadline (real or injected) expires"
        );
        Ok(truncated)
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
        let freq = Frequency::base();
        let rate = RawErrorRate::per_year(1000.0);
        let est = MonteCarlo::new(cfg).component_mttf(&tiled, rate, freq).unwrap();
        let truth = serr_analytic::renewal::renewal_mttf(&tiled, rate, freq).unwrap().as_secs();
        let err = (est.mttf.as_secs() - truth).abs() / truth;
        assert!(err < 4.0 * est.relative_ci95(), "MC {} vs renewal {truth}", est.mttf.as_secs());
    }

    #[test]
    fn irreducible_trace_is_a_typed_invalid_trace() {
        use std::sync::Arc;
        // A phase shift over an over-cap concatenation exposes no tiling:
        // nothing can compile it, so every entry point refuses with a typed
        // error.
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
        // mc.chunk convergence snapshots of a one-rate run arrive in
        // ascending chunk order, keyed by chunk index, with a running
        // sample count.
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
        for (k, e) in chunks.iter().enumerate() {
            assert!(e.fields.iter().any(|(f, v)| *f == "point" && *v == Value::U64(0)));
            assert!(e.fields.iter().any(|(f, v)| *f == "chunk" && *v == Value::U64(k as u64)));
        }
        let last = &chunks[4];
        assert!(last.fields.iter().any(|(k, v)| *k == "n" && *v == Value::U64(5_000)));

        let snap = obs.metrics().snapshot();
        assert_eq!(snap.counters["mc.runs"], 1);
        assert_eq!(snap.counters["mc.runs_batched_inversion"], 1);
        assert_eq!(snap.counters["mc.rng_chunks"], 5);
        assert_eq!(snap.counters["mc.trials_completed"], 5_000);
        assert_eq!(snap.counters["mc.raw_error_events"], 5_000);
        assert!(!snap.counters.contains_key("mc.truncated_runs"));
        let stages = ["stage.trace_compile_ms", "stage.sweep_shared_ms", "stage.sweep_point_ms"];
        for (name, h) in snap.histograms.iter().filter(|(n, _)| n.starts_with("stage.")) {
            assert!(stages.contains(&name.as_str()), "unexpected stage {name}");
            assert_eq!(h.count(), 1, "{name}");
        }
        for name in stages {
            assert!(snap.histograms.contains_key(name), "no {name}");
        }
        assert!(snap.gauges["mc.samples_per_sec"] > 0.0);
    }

    #[test]
    fn ordered_fold_merges_ascending_whatever_the_arrival_order() {
        // Nine chunks handed over out of order, as workers claiming from a
        // shared counter finish them. The run is cut after chunk 6: chunks
        // 7 and 8 never arrive. The fold skips nothing; it merges each
        // chunk as soon as every lower one has been merged.
        let mut merged = Vec::new();
        let mut fold = OrderedFold::new(|chunk, tag: u64| merged.push((chunk, tag)));
        for (chunk, due) in [(2, 0), (5, 0), (1, 0), (0, 3), (3, 4), (6, 4), (4, 7)] {
            fold.push(chunk, chunk * 10);
            assert_eq!(fold.next, due, "after chunk {chunk}");
        }
        assert_eq!(fold.finish(), 7);
        assert_eq!(merged, [(0, 0), (1, 10), (2, 20), (3, 30), (4, 40), (5, 50), (6, 60)]);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "not a prefix")]
    fn ordered_fold_refuses_a_gap_in_the_completed_chunks() {
        let mut fold = OrderedFold::new(|_, _: ()| ());
        fold.push(0, ());
        fold.push(2, ());
        fold.finish();
    }

    #[test]
    fn a_stalled_worker_leaves_the_remaining_chunks_to_the_others() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Mutex;
        use std::thread::ThreadId;
        use std::time::Duration;
        // Chunk 0 runs on the calling thread (worker 0) and, when `STALL`
        // is set, waits until every other chunk has started. The other
        // workers must claim all of them: under round-robin claiming
        // chunks 3, 6 and 9 would have waited for worker 0, and the stall
        // would have run into its timeout. Estimates, samples and
        // `mc.chunk` events must equal the 1-thread run's.
        static RAN: Mutex<Vec<(u64, ThreadId)>> = Mutex::new(Vec::new());
        static STALL: AtomicBool = AtomicBool::new(false);
        const CHUNKS: u64 = 12;
        let trace = IntervalTrace::busy_idle(30, 70).unwrap();
        let freq = Frequency::base();
        let rates: Vec<RawErrorRate> =
            (0..4).map(|i| RawErrorRate::per_year(2.0f64.powi(i))).collect();
        let base = MonteCarloConfig { trials: CHUNKS * TRIAL_CHUNK, ..Default::default() };
        type Ran = Vec<(u64, ThreadId)>;
        let run = |threads: usize| {
            let mut mc = MonteCarlo::new(MonteCarloConfig { threads, ..base });
            mc.before_chunk = Some(|chunk| {
                RAN.lock().unwrap().push((chunk, std::thread::current().id()));
                if chunk == 0 && STALL.load(Ordering::Relaxed) {
                    let t0 = Instant::now();
                    while (RAN.lock().unwrap().len() as u64) < CHUNKS
                        && t0.elapsed() < Duration::from_secs(10)
                    {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            });
            STALL.store(threads > 1, Ordering::Relaxed);
            let mut ran: Vec<Ran> = Vec::new();
            RAN.lock().unwrap().clear();
            let (obs, sink) = Obs::memory();
            let multi = mc.clone().with_observer(obs).component_mttf_multi(&trace, &rates, freq);
            ran.push(std::mem::take(&mut *RAN.lock().unwrap()));
            let samples = mc.sample_ttfs(&trace, rates[1], freq, base.trials).unwrap();
            ran.push(std::mem::take(&mut *RAN.lock().unwrap()));
            let events: Vec<(u64, Vec<(&'static str, serr_obs::Value)>)> =
                sink.events_of("mc.chunk").into_iter().map(|e| (e.seq, e.fields)).collect();
            let samples: Vec<u64> = samples.iter().map(|t| t.to_bits()).collect();
            ((multi.unwrap(), samples, events), ran)
        };
        let (one, _) = run(1);
        let (three, ran) = run(3);
        assert_eq!(one, three, "3 threads differ from 1");
        assert_eq!(one.2.len() as u64, rates.len() as u64 * CHUNKS);
        let caller = std::thread::current().id();
        for ran in ran {
            let mut chunks: Vec<u64> = ran.iter().map(|&(c, _)| c).collect();
            chunks.sort_unstable();
            assert_eq!(chunks, (0..CHUNKS).collect::<Vec<_>>(), "each chunk runs once");
            let own: Vec<u64> = ran.iter().filter(|(_, t)| *t == caller).map(|&(c, _)| c).collect();
            assert_eq!(own, [0], "the stalled worker ran only its first chunk");
        }
    }

    #[test]
    fn a_wall_clock_cut_merges_a_prefix_of_chunks() {
        use serr_obs::Value;
        use std::time::Duration;
        // Every chunk sleeps 5 ms and the budget is 30 ms, so the deadline
        // expires a few chunks into a 40-chunk run whose last chunk is
        // partial. Whatever each worker had claimed by then, the completed
        // chunks are a prefix: the samples are the full run's first ones,
        // whole chunks only, and the `mc.chunk` events count 0, 1, 2, ...
        let trace = IntervalTrace::busy_idle(30, 70).unwrap();
        let freq = Frequency::base();
        let rate = RawErrorRate::per_year(20.0);
        let trials = 40 * TRIAL_CHUNK - 100;
        let whole = |threads| MonteCarloConfig { trials, threads, ..Default::default() };
        let full = MonteCarlo::new(whole(1)).sample_ttfs(&trace, rate, freq, trials).unwrap();
        for threads in [1usize, 3] {
            let cfg =
                MonteCarloConfig { deadline: Some(Duration::from_millis(30)), ..whole(threads) };
            let mut mc = MonteCarlo::new(cfg);
            mc.before_chunk = Some(|_| std::thread::sleep(Duration::from_millis(5)));
            let cut = mc.sample_ttfs(&trace, rate, freq, trials).unwrap();
            let n = cut.len() as u64;
            assert!(n < trials, "threads={threads}: the budget cut nothing");
            assert!(n.is_multiple_of(TRIAL_CHUNK), "threads={threads}: whole chunks only");
            let bits = |v: &[f64]| v.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&cut), bits(&full[..cut.len()]), "threads={threads}: not a prefix");

            let (obs, sink) = Obs::memory();
            let est = mc.with_observer(obs).component_mttf(&trace, rate, freq).unwrap();
            assert!(est.truncated);
            let n = est.ttf_seconds.count;
            assert!(n == trials || n.is_multiple_of(TRIAL_CHUNK), "threads={threads}: {n} trials");
            let chunks: Vec<Value> = sink
                .events_of("mc.chunk")
                .into_iter()
                .filter_map(|e| e.fields.into_iter().find(|(k, _)| *k == "chunk").map(|(_, v)| v))
                .collect();
            let prefix: Vec<Value> = (0..n.div_ceil(TRIAL_CHUNK)).map(Value::U64).collect();
            assert_eq!(chunks, prefix, "threads={threads}");
        }
    }

    #[test]
    fn chunks_finishing_out_of_order_fold_exactly_as_at_one_thread() {
        use serr_inject::{FaultKind, FaultPlan};
        use serr_obs::Value;
        // Chunks 0 and 1 pause before their bodies, so at 3 threads worker
        // 2 runs ahead and the fold receives chunks out of order. Rate-list
        // estimates, `sample_ttfs` samples and the `mc.chunk` event sequence
        // must still equal the 1-thread run: plain, under an injected
        // deadline cut, and under an injected chunk panic.
        let trace = IntervalTrace::busy_idle(30, 70).unwrap();
        let freq = Frequency::base();
        let rates: Vec<RawErrorRate> =
            (0..4).map(|i| RawErrorRate::per_year(2.0f64.powi(i))).collect();
        let base = MonteCarloConfig { trials: 12 * TRIAL_CHUNK, ..Default::default() };
        let cut = (0..1_000u64)
            .map(|s| FaultPlan::new(s, FaultKind::DeadlineExhaust))
            .find(|p| p.deadline_cut_chunk(12) == Some(3))
            .expect("some seed cuts at chunk 3");
        let panic = (0..1_000u64)
            .map(|s| FaultPlan::new(s, FaultKind::ChunkPanic))
            .find(|p| (2..4).any(|c| p.chunk_panics(base.seed, c, 12)))
            .expect("some seed panics in chunk 2 or 3");
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
        type Events = Vec<(u64, Vec<(&'static str, Value)>)>;
        let run = |threads: usize, chaos: Option<FaultPlan>| {
            let cfg = MonteCarloConfig { threads, chaos, ..base };
            let mut mc = MonteCarlo::new(cfg);
            mc.before_chunk = Some(|chunk| {
                if chunk < 2 {
                    std::thread::sleep(std::time::Duration::from_millis(30));
                }
            });
            let (obs, sink) = Obs::memory();
            let multi = mc.clone().with_observer(obs).component_mttf_multi(&trace, &rates, freq);
            let samples = mc.sample_ttfs(&trace, rates[1], freq, base.trials);
            let events: Events =
                sink.events_of("mc.chunk").into_iter().map(|e| (e.seq, e.fields)).collect();
            (multi, samples.map(|v| v.iter().map(|t| t.to_bits()).collect::<Vec<_>>()), events)
        };
        for (mode, chaos) in [("plain", None), ("deadline cut", Some(cut)), ("panic", Some(panic))]
        {
            let one = run(1, chaos);
            let three = run(3, chaos);
            assert_eq!(one, three, "{mode}: 3 threads differ from 1");
            let (multi, samples, events) = one;
            match mode {
                "panic" => {
                    for res in [multi.map(|_| ()), samples.map(|_| ())] {
                        assert!(
                            matches!(res, Err(SerrError::EngineFault { .. })),
                            "{mode}: expected EngineFault, got {res:?}"
                        );
                    }
                    assert!(events.is_empty());
                }
                _ => {
                    let multi = multi.unwrap();
                    let truncated = chaos.is_some();
                    let n = multi[0].as_ref().unwrap().ttf_seconds.count;
                    assert_eq!(n < base.trials, truncated, "{mode}");
                    assert_eq!(samples.unwrap().len() as u64, n, "{mode}");
                    assert_eq!(events.len() as u64, rates.len() as u64 * n / TRIAL_CHUNK);
                    let seqs: Vec<u64> = events.iter().map(|(seq, _)| *seq).collect();
                    assert!(seqs.windows(2).all(|w| w[0] < w[1]), "{mode}: point-major order");
                }
            }
        }
    }
}
