//! The shared-stream sweep kernel: one Monte Carlo pass over *many*
//! design points.
//!
//! # Why sweeps deserve their own kernel
//!
//! The paper's headline artifacts are sweeps — MTTF vs raw error rate
//! (Fig 5), MTTF/SOFR over `c × N·S` grids (Fig 6a/6b) — and a sweep
//! evaluated point-by-point regenerates an identical counter-RNG word
//! stream and an identical `Exp(1)` log pass for every λ, even
//! though the `Exp(1)` draws are λ-independent (`TTF = Λ⁻¹(E)`; only the
//! cheap inversion depends on the point). This is the classic
//! common-random-numbers design from the simulation literature: per
//! 1024-trial chunk the kernel runs
//! [`BatchedInversionSampler::prepare_chunk`] **once** — RNG words,
//! exponent-splice uniforms, the vectorized `Exp(1)` log, and
//! (stationary) the phase plane with its `V(φ)` pricing — then
//! re-inverts the shared buffers for each λ with
//! [`BatchedInversionSampler::finish_chunk`] (the per-point
//! `neg_inv_lambda_w` scaling plus `phase_at_cumulative_batch`). Each
//! finish also starts its inverse lookups from the segments the previous
//! point landed in: neighboring rates put a trial's final-window mass in
//! the same segment, so on flat traces too large for the select-chain
//! about half the lookups skip the bucket search, with identical phases.
//! For an M-point sweep the RNG + log work is paid once instead of M
//! times, and because every point consumes the *same* draws, sampling
//! noise is positively correlated across the curve — crossing points stop
//! jittering between neighboring design points.
//!
//! # Bit-identity contract
//!
//! Each point's estimate is **bit-identical** to an independent
//! [`MonteCarlo::component_mttf`] run with the same seed: the kernel uses
//! the same `(seed, chunk)` word schedule, the shared draws are consumed
//! with identical operands in identical operation order (the fused
//! single-point kernel *is* prepare + finish — see `crate::batched`), and
//! the per-point fold walks chunks in the same ascending order. The
//! kernel is likewise thread-count invariant at any `SERR_THREADS`, by
//! the same argument as the single-point engine: chunk streams key on the
//! chunk index, never the worker. `tests/sweep_equivalence.rs` pins both
//! properties.
//!
//! # The c-axis of Fig 6 rides the same kernel
//!
//! A system of `c` identical phase-aligned components superposes into a
//! single component at rate `c·λ` over the same trace
//! (`serr_mc::system`), so the c-axis of the Fig 6 grids *is* a λ-axis:
//! grouping a grid by trace reduces every cell to one shared-stream rate
//! sweep, reusing the per-component draw planes across `c` without
//! changing a single sampled bit.
//!
//! # Every workload rides it
//!
//! The kernel reads its trace only through
//! [`CompiledTrace::cumulative_at_batch`] (prepare) and
//! [`CompiledTrace::phase_at_cumulative_batch_hinted`] (finish), and both
//! layouts of [`CompiledTrace`] answer them with one batch call per chunk:
//! the two-span day/week loops through the select-chain, and the SPEC
//! processor traces and the tile level of the paper's day-scale `combined`
//! tiling through the staged probe, whose stage buffers the per-worker
//! [`PointScratch`] owns. A trace that compiles neither flat nor tiled is
//! a typed [`SerrError::InvalidTrace`] for the whole sweep.

use std::time::Instant;

use serr_numeric::stats::RunningStats;
use serr_obs::Event;
use serr_trace::{CompiledTrace, VulnerabilityTrace};
use serr_types::{Frequency, RawErrorRate, SerrError};

use crate::batched::{BatchedInversionSampler, PointScratch, SharedChunk};
use crate::config::SamplerKind;
use crate::engine::{chunk_seed, estimate_from_cycle_stats, MonteCarlo, MttfEstimate};

/// One chunk's outcome across every valid design point: per-point
/// statistics in point order, plus the chunk's wall time split between the
/// shared prepare pass and the per-point finish passes (folded into the
/// `stage.sweep_shared_ms` / `stage.sweep_point_ms` histograms on the main
/// thread).
struct MultiChunk {
    stats: Vec<RunningStats>,
    shared_ms: f64,
    point_ms: f64,
}

impl MonteCarlo {
    /// Estimates the MTTF of one component under *each* raw error rate in
    /// `rates`, sharing the expensive λ-independent sampling passes across
    /// all of them (see the [module docs](self)).
    ///
    /// Per-point semantics match [`MonteCarlo::component_mttf`] exactly:
    /// each returned entry is bit-identical to an independent run at that
    /// rate with the same configuration. A rate that is individually
    /// invalid (zero) yields a per-point `Err` without disturbing its
    /// neighbors. The event loop ([`SamplerKind::EventLoop`]) runs each
    /// point independently on the shared compiled trace, which *defines*
    /// the per-point result, so the equivalence is trivial there.
    ///
    /// # Errors
    ///
    /// Returns a top-level error only for faults that poison every point
    /// at once: an invalid configuration, an AVF-0 trace or one that cannot
    /// be compiled, an exhausted deadline before the first chunk, or an
    /// engine fault in a shared chunk — callers degrade **all** dependent
    /// points on it (one corrupted shared trace can never fail silently for
    /// a subset).
    pub fn component_mttf_multi(
        &self,
        trace: &dyn VulnerabilityTrace,
        rates: &[RawErrorRate],
        freq: Frequency,
    ) -> Result<Vec<Result<MttfEstimate, SerrError>>, SerrError> {
        self.config.validate()?;
        if rates.is_empty() {
            return Ok(Vec::new());
        }
        let compiled = self.compile(trace)?;
        self.component_mttf_multi_compiled(&compiled, rates, freq)
    }

    /// [`MonteCarlo::component_mttf_multi`] on a trace compiled ahead of
    /// time; with `compile(trace)` every point is bit-identical to it.
    ///
    /// # Errors
    ///
    /// As for [`MonteCarlo::component_mttf_multi`].
    pub fn component_mttf_multi_compiled(
        &self,
        c: &CompiledTrace,
        rates: &[RawErrorRate],
        freq: Frequency,
    ) -> Result<Vec<Result<MttfEstimate, SerrError>>, SerrError> {
        self.config.validate()?;
        if c.is_never_vulnerable() {
            return Err(SerrError::invalid_trace(
                "trace has AVF = 0; the component can never fail",
            ));
        }
        if self.config.sampler != SamplerKind::BatchedInversion {
            // Per-point runs on the shared compiled trace: the definition
            // of the per-point result, so equivalence holds trivially.
            return Ok(rates.iter().map(|&r| self.component_mttf_compiled(c, r, freq)).collect());
        }

        let zero_rate = || SerrError::invalid_config("raw error rate is zero; MTTF is infinite");
        let hz = freq.hz();
        // Valid points carry their input index so per-point errors keep
        // their slots; the kernel only ever sees positive rates.
        let valid: Vec<(usize, f64)> = rates
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.is_zero())
            .map(|(i, r)| (i, r.per_second_value() / hz))
            .collect();
        let mut out: Vec<Result<MttfEstimate, SerrError>> =
            rates.iter().map(|_| Err(zero_rate())).collect();
        if valid.is_empty() {
            return Ok(out);
        }

        let samplers: Vec<BatchedInversionSampler> = valid
            .iter()
            .map(|&(_, lambda)| BatchedInversionSampler::new(c, lambda, self.config.start_phase))
            .collect();
        let seed = self.config.seed;
        let t_run = Instant::now();
        let (chunks, truncated) = self.run_chunks_scaffold(
            || (SharedChunk::new(), PointScratch::with_segment_hints()),
            |(shared, point), chunk, n| {
                let n = n as usize;
                // The shared pass runs once per chunk on the exact stream
                // seed every independent run would use; any sampler may
                // drive it (λ is unread there).
                let t_shared = Instant::now();
                samplers[0].prepare_chunk(shared, chunk_seed(seed, chunk), n);
                point.forget_segment_hints();
                let shared_ms = t_shared.elapsed().as_secs_f64() * 1e3;
                let t_point = Instant::now();
                let stats = samplers.iter().map(|s| s.finish_chunk(shared, point, n)).collect();
                Ok(MultiChunk { stats, shared_ms, point_ms: t_point.elapsed().as_secs_f64() * 1e3 })
            },
        )?;

        // Fold per point in ascending chunk order — the identical
        // reduction order an independent run uses, so the merge is
        // bit-identical too (the scaffold returns chunks sorted by index).
        let mut per_point: Vec<RunningStats> =
            (0..valid.len()).map(|_| RunningStats::new()).collect();
        let mut shared_ms = 0.0;
        let mut point_ms = 0.0;
        for (_, mc) in &chunks {
            for (p, s) in mc.stats.iter().enumerate() {
                per_point[p].merge(s);
            }
            shared_ms += mc.shared_ms;
            point_ms += mc.point_ms;
        }

        if let Some(obs) = &self.obs {
            let secs = t_run.elapsed().as_secs_f64();
            obs.record_stage("sweep_shared", shared_ms);
            obs.record_stage("sweep_point", point_ms);
            let metrics = obs.metrics();
            metrics.add("sweep.kernel_runs", 1);
            metrics.add("sweep.points", valid.len() as u64);
            metrics.add("sweep.rng_chunks", chunks.len() as u64);
            if valid.len() > 1 {
                // The trace was compiled once for all points instead of
                // once per point.
                metrics.add("sweep.trace_reuse", valid.len() as u64 - 1);
            }
            let trials: u64 = per_point.iter().map(RunningStats::count).sum();
            if secs > 0.0 {
                metrics.set_gauge("mc.samples_per_sec", trials as f64 / secs);
            }
        }

        for (&(i, _), stats) in valid.iter().zip(&per_point) {
            // One raw-error event (the failing one) per trial.
            let est = match estimate_from_cycle_stats(
                stats,
                hz,
                stats.count(),
                truncated,
                SamplerKind::BatchedInversion,
            ) {
                Ok(est) => est,
                Err(e) => {
                    out[i] = Err(e);
                    continue;
                }
            };
            if let Some(obs) = &self.obs {
                // Per-point telemetry is emitted from this main-thread
                // fold, keyed by input point index: byte-identical fields
                // at any thread count.
                obs.emit(
                    Event::new("sweep.point", i as u64)
                        .with("point", i)
                        .with("rate_per_s", rates[i].per_second_value())
                        .with("n", est.ttf_seconds.count)
                        .with("mean_s", est.ttf_seconds.mean)
                        .with("ci95_s", est.ttf_seconds.ci95),
                );
            }
            out[i] = Ok(est);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MonteCarloConfig, StartPhase};
    use serr_trace::IntervalTrace;

    fn rates_sweep() -> Vec<RawErrorRate> {
        (0..8).map(|i| RawErrorRate::per_year(2.0f64.powi(i) * 0.5)).collect()
    }

    fn assert_bit_identical(a: &MttfEstimate, b: &MttfEstimate) {
        assert_eq!(a.mttf.as_secs().to_bits(), b.mttf.as_secs().to_bits());
        assert_eq!(a.ttf_seconds.count, b.ttf_seconds.count);
        assert_eq!(a.ttf_seconds.mean.to_bits(), b.ttf_seconds.mean.to_bits());
        assert_eq!(a.ttf_seconds.ci95.to_bits(), b.ttf_seconds.ci95.to_bits());
        assert_eq!(a.ttf_seconds.std_dev.to_bits(), b.ttf_seconds.std_dev.to_bits());
        assert_eq!(a.ttf_seconds.min.to_bits(), b.ttf_seconds.min.to_bits());
        assert_eq!(a.ttf_seconds.max.to_bits(), b.ttf_seconds.max.to_bits());
        assert_eq!(a.truncated, b.truncated);
        assert_eq!(a.sampler, b.sampler);
    }

    #[test]
    fn multi_matches_independent_runs_bit_for_bit() {
        let trace =
            IntervalTrace::from_levels(&[1.0, 0.25, 0.25, 0.0, 0.5, 0.0, 0.0, 0.0]).unwrap();
        let rates = rates_sweep();
        for start_phase in [StartPhase::WorkloadStart, StartPhase::Stationary] {
            for threads in [1usize, 4] {
                let cfg =
                    MonteCarloConfig { trials: 5_000, threads, start_phase, ..Default::default() };
                let mc = MonteCarlo::new(cfg);
                let multi = mc.component_mttf_multi(&trace, &rates, Frequency::base()).unwrap();
                assert_eq!(multi.len(), rates.len());
                for (r, m) in rates.iter().zip(&multi) {
                    let solo = mc.component_mttf(&trace, *r, Frequency::base()).unwrap();
                    let m = m.as_ref().expect("valid point");
                    assert_bit_identical(m, &solo);
                    assert_eq!(m.sampler, SamplerKind::BatchedInversion);
                }
            }
        }
    }

    #[test]
    fn multi_is_thread_count_invariant() {
        let trace = IntervalTrace::busy_idle(30, 70).unwrap();
        let rates = rates_sweep();
        let one = MonteCarloConfig { trials: 5_000, threads: 1, ..Default::default() };
        let eight = MonteCarloConfig { threads: 8, ..one };
        let a = MonteCarlo::new(one).component_mttf_multi(&trace, &rates, Frequency::base());
        let b = MonteCarlo::new(eight).component_mttf_multi(&trace, &rates, Frequency::base());
        let (a, b) = (a.unwrap(), b.unwrap());
        for (x, y) in a.iter().zip(&b) {
            assert_bit_identical(x.as_ref().unwrap(), y.as_ref().unwrap());
        }
    }

    #[test]
    fn zero_rate_point_fails_alone() {
        let trace = IntervalTrace::busy_idle(30, 70).unwrap();
        let rates =
            vec![RawErrorRate::per_year(1.0), RawErrorRate::ZERO, RawErrorRate::per_year(4.0)];
        let mc = MonteCarlo::new(MonteCarloConfig { trials: 3_000, ..Default::default() });
        let multi = mc.component_mttf_multi(&trace, &rates, Frequency::base()).unwrap();
        assert!(multi[0].is_ok());
        assert!(matches!(multi[1], Err(SerrError::InvalidConfig { .. })));
        assert!(multi[2].is_ok());
        let solo = mc.component_mttf(&trace, rates[2], Frequency::base()).unwrap();
        assert_bit_identical(multi[2].as_ref().unwrap(), &solo);
    }

    #[test]
    fn empty_sweep_and_dead_trace_edge_cases() {
        let trace = IntervalTrace::busy_idle(30, 70).unwrap();
        let mc = MonteCarlo::new(MonteCarloConfig { trials: 2_000, ..Default::default() });
        assert!(mc.component_mttf_multi(&trace, &[], Frequency::base()).unwrap().is_empty());
        let dead = IntervalTrace::constant(10, 0.0).unwrap();
        assert!(matches!(
            mc.component_mttf_multi(&dead, &rates_sweep(), Frequency::base()),
            Err(SerrError::InvalidTrace { .. })
        ));
    }

    #[test]
    fn the_event_loop_falls_back_to_independent_runs() {
        let trace = IntervalTrace::busy_idle(30, 70).unwrap();
        let rates: Vec<RawErrorRate> =
            (0..3).map(|i| RawErrorRate::per_year(2.0 + f64::from(i))).collect();
        let sampler = SamplerKind::EventLoop;
        let cfg = MonteCarloConfig { trials: 2_000, sampler, ..Default::default() };
        let mc = MonteCarlo::new(cfg);
        let multi = mc.component_mttf_multi(&trace, &rates, Frequency::base()).unwrap();
        for (r, m) in rates.iter().zip(&multi) {
            let solo = mc.component_mttf(&trace, *r, Frequency::base()).unwrap();
            assert_bit_identical(m.as_ref().unwrap(), &solo);
            assert_eq!(m.as_ref().unwrap().sampler, sampler);
        }
    }

    #[test]
    fn injected_deadline_cut_truncates_every_point_identically() {
        use serr_inject::{FaultKind, FaultPlan};
        let trace = IntervalTrace::busy_idle(10, 10).unwrap();
        let rates = rates_sweep();
        let base = MonteCarloConfig { trials: 8_192, threads: 1, ..Default::default() };
        let plan = (0..1_000u64)
            .map(|s| FaultPlan::new(s, FaultKind::DeadlineExhaust))
            .find(|p| p.deadline_cut_chunk(8) == Some(3))
            .expect("some seed cuts at chunk 3");
        let cfg = MonteCarloConfig { chaos: Some(plan), ..base };
        let mc = MonteCarlo::new(cfg);
        let multi = mc.component_mttf_multi(&trace, &rates, Frequency::base()).unwrap();
        for (r, m) in rates.iter().zip(&multi) {
            let m = m.as_ref().unwrap();
            assert!(m.truncated);
            assert_eq!(m.ttf_seconds.count, 3 * 1024);
            // The truncated multi estimate still matches the truncated
            // independent run under the same injected cut.
            let solo = mc.component_mttf(&trace, *r, Frequency::base()).unwrap();
            assert_bit_identical(m, &solo);
        }
    }

    #[test]
    fn sweep_telemetry_is_deterministic_and_keyed_by_point() {
        use serr_obs::Obs;
        let trace = IntervalTrace::busy_idle(30, 70).unwrap();
        let rates = rates_sweep();
        let events_at = |threads: usize| {
            let cfg = MonteCarloConfig { trials: 4_096, threads, ..Default::default() };
            let (obs, sink) = Obs::memory();
            MonteCarlo::new(cfg)
                .with_observer(obs.clone())
                .component_mttf_multi(&trace, &rates, Frequency::base())
                .unwrap();
            let snap = obs.metrics().snapshot();
            assert_eq!(snap.counters["sweep.kernel_runs"], 1);
            assert_eq!(snap.counters["sweep.points"], rates.len() as u64);
            assert_eq!(snap.counters["sweep.rng_chunks"], 4);
            assert_eq!(snap.counters["sweep.trace_reuse"], rates.len() as u64 - 1);
            assert_eq!(snap.histograms["stage.sweep_shared_ms"].count(), 1);
            assert_eq!(snap.histograms["stage.sweep_point_ms"].count(), 1);
            let mut events = sink.events_of("sweep.point");
            events.sort_by_key(|e| e.seq);
            events
        };
        let one = events_at(1);
        let eight = events_at(8);
        assert_eq!(one.len(), rates.len());
        let one_fields: Vec<_> = one.iter().map(|e| (e.seq, e.fields.clone())).collect();
        let eight_fields: Vec<_> = eight.iter().map(|e| (e.seq, e.fields.clone())).collect();
        assert_eq!(one_fields, eight_fields, "sweep.point events must be thread-invariant");
    }
}
