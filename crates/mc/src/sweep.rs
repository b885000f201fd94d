//! Rate lists: one Monte Carlo pass over *many* design points, and the
//! fold and telemetry every estimate goes through.
//!
//! # Why rate lists share a pass
//!
//! The paper's headline artifacts are sweeps — MTTF vs raw error rate
//! (Fig 5), MTTF/SOFR over `c × N·S` grids (Fig 6a/6b) — and a sweep
//! evaluated point-by-point would regenerate an identical counter-RNG word
//! stream and an identical `Exp(1)` log pass for every λ, even though the
//! `Exp(1)` draws are λ-independent (`TTF = Λ⁻¹(E)`; only the cheap
//! inversion depends on the point). This is the classic
//! common-random-numbers design from the simulation literature: per
//! 1024-trial chunk the engine runs
//! [`BatchedInversionSampler::prepare_chunk`](crate::batched::BatchedInversionSampler::prepare_chunk) **once** — RNG words,
//! exponent-splice uniforms, the vectorized `Exp(1)` log, and
//! (stationary) the phase plane with its `V(φ)` pricing — then
//! re-inverts the shared buffers for each λ with
//! [`BatchedInversionSampler::finish_chunk`](crate::batched::BatchedInversionSampler::finish_chunk) (the per-point
//! `neg_inv_lambda_w` scaling plus [`CompiledTrace::phase_at_cumulative_batch`]).
//! Each finish also starts its inverse lookups from the segments the
//! previous point landed in: neighboring rates put a trial's final-window
//! mass in the same segment, so on flat traces too large for the
//! select-chain about half the lookups skip the bucket search, with
//! identical phases. For an M-point sweep the RNG + log work is paid once
//! instead of M times, and because every point consumes the *same* draws,
//! sampling noise is positively correlated across the curve — crossing
//! points stop jittering between neighboring design points.
//!
//! A one-rate estimate ([`MonteCarlo::component_mttf`]) is the one-point
//! case of the same call, so each point of a list is bit-identical to the
//! rate run alone, at any `SERR_THREADS` (see [`MonteCarlo`]).
//!
//! # The c-axis of Fig 6 rides the same pass
//!
//! A system of `c` identical phase-aligned components superposes into a
//! single component at rate `c·λ` over the same trace (superposition; see
//! the crate docs), so the c-axis of the Fig 6 grids *is* a λ-axis:
//! grouping a grid by trace reduces every cell to one shared-stream rate
//! list, reusing the per-component draw planes across `c` without
//! changing a single sampled bit.
//!
//! # Every workload rides it
//!
//! The batched sampler reads its trace only through
//! [`CompiledTrace::cumulative_at_batch`] (prepare) and
//! [`CompiledTrace::phase_at_cumulative_batch`] (finish), and both
//! layouts of [`CompiledTrace`] answer them with one batch call per chunk:
//! the two-span day/week loops through the select-chain, and the SPEC
//! processor traces and the tile level of the paper's day-scale `combined`
//! tiling through the staged probe, whose stage buffers the per-worker
//! [`crate::batched::PointScratch`] owns. A trace that compiles neither
//! flat nor tiled is a typed [`SerrError::InvalidTrace`] for the whole
//! list.
//!
//! # Telemetry
//!
//! One vocabulary for any number of rates, emitted from the main-thread
//! fold only when an observer is attached: an `mc.chunk` event per
//! (point, chunk) with `seq = point·n_chunks + chunk` (so a one-rate run
//! keys its events by chunk index), the `sweep_shared` and `sweep_point`
//! stages, and the `mc.*` counters and gauge.

use std::time::Instant;

use serr_obs::Event;
use serr_trace::{CompiledTrace, VulnerabilityTrace};
use serr_types::{Frequency, RawErrorRate, SerrError};

use crate::engine::{
    estimate_from_cycle_stats, never_vulnerable, zero_rate, MonteCarlo, MttfEstimate, TRIAL_CHUNK,
};

impl MonteCarlo {
    /// Estimates the MTTF of one component under *each* raw error rate in
    /// `rates`, sharing the expensive λ-independent sampling passes across
    /// all of them (see the [module docs](self)).
    ///
    /// Each returned entry is bit-identical to
    /// [`MonteCarlo::component_mttf`] at that rate with the same
    /// configuration. A rate that fails on its own — a zero rate, a mean
    /// time to failure that overflows — yields a per-point `Err` without
    /// disturbing its neighbors.
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
        // Nothing to sample: answer before paying for a compile.
        if rates.iter().all(|r| r.is_zero()) {
            return Ok(rates.iter().map(|_| Err(zero_rate())).collect());
        }
        let compiled = self.compile(trace)?;
        self.component_mttf_multi_compiled(&compiled, rates, freq)
    }

    /// [`MonteCarlo::component_mttf_multi`] on a trace compiled ahead of
    /// time — for callers that hold a [`CompiledTrace`] across many
    /// estimates (the service's trace cache); with `compile(trace)` every
    /// point is bit-identical to it.
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
            return Err(never_vulnerable());
        }
        let hz = freq.hz();
        // Valid points carry their input index so per-point errors keep
        // their slots; the chunk loop only ever sees positive rates.
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

        let lambdas: Vec<f64> = valid.iter().map(|&(_, lambda)| lambda).collect();
        let t_run = Instant::now();
        let run = self.run_rates(c, &lambdas, |_| ())?;
        let n_chunks = self.config.trials.div_ceil(TRIAL_CHUNK);

        // The run merged each point's chunks in ascending chunk order: the
        // same reduction order for any thread count and any rate list. The
        // convergence snapshots it recorded are emitted here, point-major,
        // keyed by (point, chunk).
        let mut trials = 0u64;
        for (&(i, _), point) in valid.iter().zip(run.points) {
            if let Some(obs) = &self.obs {
                for (chunk, s) in point.snapshots {
                    obs.emit(
                        Event::new("mc.chunk", i as u64 * n_chunks + chunk)
                            .with("point", i)
                            .with("chunk", chunk)
                            .with("n", s.count())
                            .with("mean_s", s.mean() / hz)
                            .with("ci95_s", s.ci95_half_width() / hz),
                    );
                }
            }
            trials += point.stats.count();
            out[i] = estimate_from_cycle_stats(&point.stats, hz, run.truncated);
        }

        if let Some(obs) = &self.obs {
            let secs = t_run.elapsed().as_secs_f64();
            obs.record_stage("sweep_shared", run.shared_ms);
            obs.record_stage("sweep_point", run.point_ms);
            let metrics = obs.metrics();
            let runs = valid.len() as u64;
            metrics.add("mc.runs", runs);
            metrics.add("mc.runs_batched_inversion", runs);
            metrics.add("mc.rng_chunks", run.chunks);
            metrics.add("mc.trials_completed", trials);
            // Each trial consumes exactly one raw-error event: the failing one.
            metrics.add("mc.raw_error_events", trials);
            if run.truncated {
                metrics.add("mc.truncated_runs", runs);
            }
            if secs > 0.0 {
                metrics.set_gauge("mc.samples_per_sec", trials as f64 / secs);
            }
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
                    assert_bit_identical(m.as_ref().expect("valid point"), &solo);
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
    fn an_overflowing_point_fails_alone() {
        // Two low rates of a list fail: at the first (3e-308 per cycle at
        // the base frequency) sampled failure times pass f64's range, so
        // its mean overflows; at the second the per-cycle rate is
        // subnormal. Each fails alone with a typed error, and every other
        // point is bit-identical to its one-rate run, at 1 and 8 threads.
        let trace = IntervalTrace::busy_idle(30, 70).unwrap();
        let rates = vec![
            RawErrorRate::per_year(2.0),
            RawErrorRate::per_second(6e-299),
            RawErrorRate::per_year(8.0),
            RawErrorRate::per_year(1e-300),
        ];
        for threads in [1usize, 8] {
            let cfg = MonteCarloConfig { trials: 3_000, threads, ..Default::default() };
            let mc = MonteCarlo::new(cfg);
            let multi = mc.component_mttf_multi(&trace, &rates, Frequency::base()).unwrap();
            for k in [1, 3] {
                assert!(
                    matches!(multi[k], Err(SerrError::InvalidValue { .. })),
                    "threads={threads}, point {k}: {:?}",
                    multi[k]
                );
                assert!(matches!(
                    mc.component_mttf(&trace, rates[k], Frequency::base()),
                    Err(SerrError::InvalidValue { .. })
                ));
            }
            for k in [0, 2] {
                let solo = mc.component_mttf(&trace, rates[k], Frequency::base()).unwrap();
                assert_bit_identical(multi[k].as_ref().unwrap(), &solo);
            }
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
        use serr_obs::{Obs, Value};
        let trace = IntervalTrace::busy_idle(30, 70).unwrap();
        let rates = rates_sweep();
        let events_at = |threads: usize| {
            let cfg = MonteCarloConfig { trials: 4_096, threads, ..Default::default() };
            let (obs, sink) = Obs::memory();
            let multi = MonteCarlo::new(cfg)
                .with_observer(obs.clone())
                .component_mttf_multi(&trace, &rates, Frequency::base())
                .unwrap();
            let snap = obs.metrics().snapshot();
            assert_eq!(snap.counters["mc.runs"], rates.len() as u64);
            assert_eq!(snap.counters["mc.runs_batched_inversion"], rates.len() as u64);
            assert_eq!(snap.counters["mc.rng_chunks"], 4);
            assert_eq!(snap.counters["mc.trials_completed"], 4_096 * rates.len() as u64);
            assert_eq!(snap.counters["mc.raw_error_events"], 4_096 * rates.len() as u64);
            assert_eq!(snap.histograms["stage.sweep_shared_ms"].count(), 1);
            assert_eq!(snap.histograms["stage.sweep_point_ms"].count(), 1);
            assert_eq!(snap.histograms["stage.trace_compile_ms"].count(), 1);
            let events = sink.events_of("mc.chunk");
            assert_eq!(events.len(), 4 * rates.len());
            for (k, e) in events.iter().enumerate() {
                let (point, chunk) = (k / 4, k % 4);
                assert_eq!(e.seq, (point * 4 + chunk) as u64, "seq = point * n_chunks + chunk");
                assert!(e
                    .fields
                    .iter()
                    .any(|(f, v)| *f == "point" && *v == Value::U64(point as u64)));
                // A point's last snapshot is its estimate.
                if chunk == 3 {
                    let est = multi[point].as_ref().unwrap();
                    let mean = e.fields.iter().find(|(f, _)| *f == "mean_s").map(|(_, v)| v);
                    assert_eq!(mean, Some(&Value::F64(est.ttf_seconds.mean)));
                }
            }
            events
        };
        let one = events_at(1);
        let eight = events_at(8);
        let one_fields: Vec<_> = one.iter().map(|e| (e.seq, e.fields.clone())).collect();
        let eight_fields: Vec<_> = eight.iter().map(|e| (e.seq, e.fields.clone())).collect();
        assert_eq!(one_fields, eight_fields, "mc.chunk events must be thread-invariant");
    }
}
