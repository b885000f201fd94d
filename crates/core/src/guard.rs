//! Runtime guardrails: detect-or-degrade MTTF estimation.
//!
//! The raw estimators ([`serr_mc`], [`serr_analytic`], [`serr_softarch`])
//! each trust their inputs and their own arithmetic. [`Guard`] wraps them
//! in a fallback chain that cross-checks every answer and tags the result
//! with a [`Provenance`], so a corrupted trace, a poisoned estimator, or a
//! failing Monte Carlo run is *detected* (the tag worsens) or *degraded
//! around* (an independent estimator supplies the answer) — never returned
//! as a silently wrong `Clean` number.
//!
//! The chain, in order:
//!
//! 1. **Analytic renewal** ([`serr_analytic::renewal::renewal_mttf`]) —
//!    the exact closed form. A typed error here is terminal: the
//!    configuration itself is unusable (zero rate, AVF-0 trace).
//! 2. **SoftArch** — an independent analytic reference. Disagreement with
//!    renewal beyond tolerance quarantines it from the consistency vote.
//! 3. **Trace integrity** — the compiled trace is checked with
//!    [`CompiledTrace::verify`]; a corrupted compile is rebuilt from the
//!    source trace (floor [`Provenance::Retried`]).
//! 4. **Monte Carlo** — up to `1 + max_retries` attempts, each retry with
//!    a fresh derived seed. An estimate must pass NaN/monotonicity sanity
//!    checks and agree with renewal within a CI-derived bound to be
//!    accepted; when the default inversion sampler produced it, a small
//!    event-loop run must also agree ([`GuardPolicy::oracle_trials`]) —
//!    the event loop resolves masking from segment values alone and never
//!    reads the prefix tables the inversion sampler inverts, so the two
//!    samplers vote on each other's compiled state.
//! 5. **Fallback** — if every Monte Carlo attempt fails, the renewal
//!    answer is returned tagged [`Provenance::Degraded`] (or
//!    [`Provenance::Suspect`] when the analytic references disagree with
//!    each other too, leaving nothing to vouch for the number).

use serr_analytic::renewal::renewal_mttf;
use serr_inject::rng::mix;
use serr_inject::{FaultPlan, TraceFault};
use serr_mc::{compile_for_sampling, MonteCarlo, MonteCarloConfig, MttfEstimate, SamplerKind};
use serr_obs::{Event, Obs};
use serr_softarch::SoftArch;
use serr_trace::{CompiledTrace, VulnerabilityTrace};
use serr_types::{Frequency, Mttf, Provenance, RawErrorRate, SerrError};

/// Acceptance thresholds for the guard's consistency checks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardPolicy {
    /// Monte Carlo retries after a failed or rejected first attempt.
    pub max_retries: u32,
    /// Baseline relative tolerance for cross-engine agreement.
    pub rel_tol: f64,
    /// Widens the Monte Carlo acceptance band to `ci_mult` times the
    /// estimate's 95% confidence half-width (whichever of the two bounds
    /// is looser wins), so a high-variance run is not rejected for honest
    /// sampling noise.
    pub ci_mult: f64,
    /// Trials for the event-loop oracle run that cross-checks an accepted
    /// inversion estimate (see [`SamplerKind`]): the two samplers draw from
    /// the same distribution but read different compiled tables, so a
    /// disagreement means one of them was fed corrupted state. Kept small —
    /// the oracle pays the event loop's ~1/AVF events per trial, exactly
    /// the cost the inversion sampler exists to avoid — and `0` disables
    /// the vote entirely.
    pub oracle_trials: u64,
}

impl Default for GuardPolicy {
    fn default() -> Self {
        GuardPolicy { max_retries: 1, rel_tol: 0.02, ci_mult: 4.0, oracle_trials: 4_096 }
    }
}

/// A guarded MTTF: the number plus how much to trust it.
#[derive(Debug, Clone)]
pub struct GuardedMttf {
    /// The best available MTTF.
    pub mttf: Mttf,
    /// How the estimate was obtained (see [`Provenance`]).
    pub provenance: Provenance,
    /// The accepted Monte Carlo estimate, when one was accepted.
    pub mc: Option<MttfEstimate>,
    /// The analytic renewal reference.
    pub renewal: Mttf,
    /// The SoftArch reference, when it could be computed.
    pub softarch: Option<Mttf>,
    /// Human-readable audit trail of every anomaly the guard saw.
    pub notes: Vec<String>,
}

/// The guarded estimator: Monte Carlo with analytic cross-checks,
/// retry-with-backoff, and a degrade path.
#[derive(Debug, Clone)]
pub struct Guard {
    policy: GuardPolicy,
    frequency: Frequency,
    mc: MonteCarloConfig,
    obs: Option<Obs>,
}

impl Guard {
    /// Creates a guard with the default [`GuardPolicy`].
    #[must_use]
    pub fn new(frequency: Frequency, mc: MonteCarloConfig) -> Self {
        Guard { policy: GuardPolicy::default(), frequency, mc, obs: None }
    }

    /// Attaches an observer: every audit-trail note is mirrored as a typed
    /// `guard.fallback` event, the final tag as a `guard.verdict`, and the
    /// inner Monte Carlo attempts report stage timings and convergence
    /// telemetry through the same sink.
    #[must_use]
    pub fn with_observer(mut self, obs: Obs) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Overrides the acceptance policy.
    #[must_use]
    pub fn with_policy(mut self, policy: GuardPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The acceptance policy in force.
    #[must_use]
    pub fn policy(&self) -> &GuardPolicy {
        &self.policy
    }

    /// Estimates the component MTTF with the full detect-or-degrade chain.
    ///
    /// `chaos` arms deterministic fault injection (`None` in production):
    /// trace corruption is applied to the compiled trace before the
    /// integrity check, estimator poisoning to the SoftArch reference, and
    /// the plan rides into the Monte Carlo engine for worker-level faults.
    ///
    /// # Errors
    ///
    /// Only configuration-level failures that no estimator can work
    /// around: a zero rate or an AVF-0 trace (from the renewal reference).
    pub fn component_mttf(
        &self,
        trace: &dyn VulnerabilityTrace,
        rate: RawErrorRate,
        chaos: Option<FaultPlan>,
    ) -> Result<GuardedMttf, SerrError> {
        let mut notes = Vec::new();
        let mut floor = Provenance::Clean;

        // 1. The exact renewal reference — terminal on error.
        let renewal = renewal_mttf(trace, rate, self.frequency)?;

        // 2. The SoftArch reference, with injected estimator poisoning.
        let (softarch, refs_agree) =
            self.softarch_reference(trace, rate, renewal, chaos, &mut notes, &mut floor);

        // 3. Compile the trace, inject any planned corruption, and verify.
        // 4. Monte Carlo attempts on the compiled trace. A trace that cannot
        //    be compiled leaves nothing to sample: degrade to renewal.
        let accepted = match self.compiled_for_run(trace, chaos, &mut notes, &mut floor) {
            Ok(compiled) => {
                self.monte_carlo_attempts(&compiled, rate, renewal, chaos, &mut notes, &mut floor)
            }
            Err(e) => {
                notes.push(format!("monte carlo unavailable: {e}"));
                None
            }
        };

        // 5. Accept, or degrade to the analytic answer.
        let guarded = match accepted {
            Some(est) => GuardedMttf {
                mttf: est.mttf,
                provenance: floor,
                mc: Some(est),
                renewal,
                softarch,
                notes,
            },
            None => {
                let provenance = if refs_agree {
                    notes.push(
                        "all monte carlo attempts failed; degraded to the analytic \
                         renewal estimate"
                            .to_owned(),
                    );
                    floor.worse(Provenance::Degraded)
                } else {
                    notes.push(
                        "all monte carlo attempts failed and the analytic references \
                         disagree; result is suspect"
                            .to_owned(),
                    );
                    Provenance::Suspect
                };
                GuardedMttf { mttf: renewal, provenance, mc: None, renewal, softarch, notes }
            }
        };
        self.emit_verdict(&guarded);
        Ok(guarded)
    }

    /// Step 4 of [`Guard::component_mttf`]: up to `1 + max_retries` Monte
    /// Carlo attempts on the compiled trace, each retry with a fresh
    /// derived seed (raising the floor to [`Provenance::Retried`]).
    /// Returns the first estimate that passes the sanity screen, the
    /// renewal cross-check, and — for the inversion samplers — the
    /// event-loop oracle vote.
    fn monte_carlo_attempts(
        &self,
        compiled: &CompiledTrace,
        rate: RawErrorRate,
        renewal: Mttf,
        chaos: Option<FaultPlan>,
        notes: &mut Vec<String>,
        floor: &mut Provenance,
    ) -> Option<MttfEstimate> {
        for attempt in 0..=self.policy.max_retries {
            let mut cfg = self.mc;
            if attempt > 0 {
                cfg.seed = mix(&[self.mc.seed, u64::from(attempt)]);
                *floor = floor.worse(Provenance::Retried);
            }
            cfg.chaos = chaos;
            let mut engine = MonteCarlo::new(cfg);
            if let Some(obs) = &self.obs {
                engine = engine.with_observer(obs.clone());
            }
            let est = match engine.component_mttf(compiled, rate, self.frequency) {
                Ok(est) => est,
                Err(e) => {
                    notes.push(format!("monte carlo attempt {attempt} failed: {e}"));
                    continue;
                }
            };
            if let Err(why) = estimate_sanity(&est) {
                notes.push(format!("monte carlo attempt {attempt} insane: {why}"));
                continue;
            }
            let tol = self.policy.rel_tol.max(self.policy.ci_mult * est.relative_ci95());
            let gap = relative_gap(est.mttf.as_secs(), renewal.as_secs());
            if gap > tol {
                notes.push(format!(
                    "monte carlo attempt {attempt} inconsistent with renewal: \
                     relative gap {gap:.3e} exceeds tolerance {tol:.3e}"
                ));
                continue;
            }
            // 4b. Sampler consistency vote: the event loop never reads the
            // prefix tables the inversion samplers invert, so an
            // independent event-loop run on the *same* compiled trace
            // cross-checks the inversion machinery — scalar or batched —
            // itself (defense in depth beyond the renewal check, which is
            // computed from the uncompiled source trace).
            if est.sampler != SamplerKind::EventLoop && self.policy.oracle_trials > 0 {
                match self.event_loop_oracle(compiled, rate, attempt) {
                    Ok(oracle) => {
                        if let Some(obs) = &self.obs {
                            obs.metrics().add("guard.oracle_runs", 1);
                        }
                        if let Some(why) = oracle_disagreement(&est, &oracle, &self.policy) {
                            notes.push(format!("monte carlo attempt {attempt}: {why}"));
                            continue;
                        }
                    }
                    Err(e) => {
                        notes.push(format!(
                            "monte carlo attempt {attempt}: event-loop oracle failed: {e}"
                        ));
                        continue;
                    }
                }
            }
            if est.truncated {
                notes.push(format!(
                    "monte carlo attempt {attempt} truncated by deadline \
                     ({} of {} trials)",
                    est.ttf_seconds.count, self.mc.trials
                ));
                *floor = floor.worse(Provenance::Degraded);
            }
            return Some(est);
        }
        None
    }

    /// Estimates guarded component MTTFs for *every* rate in `rates` from
    /// one shared detect-or-degrade pass — the guard-layer face of the
    /// shared-stream sweep kernel ([`MonteCarlo::component_mttf_multi`]).
    ///
    /// Shared work runs once for the whole group: the trace is compiled
    /// (and any injected corruption applied and integrity-screened) a
    /// single time, so a corruption caught there raises the provenance
    /// floor of **every** dependent point, and one Monte Carlo kernel run
    /// covers all rates on common random numbers. Per point, the estimate
    /// still has to pass the sanity screen and the renewal cross-check —
    /// an estimate that fails either degrades *that* point to its analytic
    /// renewal answer (never a silent clean tag), and a fault in a shared
    /// chunk degrades every point at once. Unlike
    /// [`Guard::component_mttf`], this path does not retry with fresh
    /// seeds and skips the event-loop oracle vote: the per-point renewal
    /// cross-check is the acceptance bar, which keeps the shared pass
    /// worth sharing.
    ///
    /// # Errors
    ///
    /// Only configuration-level failures that poison the whole group
    /// before any estimator can run: a zero rate anywhere in `rates` or an
    /// AVF-0 trace (from the renewal reference).
    pub fn component_mttf_multi(
        &self,
        trace: &dyn VulnerabilityTrace,
        rates: &[RawErrorRate],
        chaos: Option<FaultPlan>,
    ) -> Result<Vec<GuardedMttf>, SerrError> {
        if rates.is_empty() {
            return Ok(Vec::new());
        }
        // Exact references per point — terminal on error, like the single
        // path: an unusable configuration has nothing to degrade to.
        let renewals: Vec<Mttf> = rates
            .iter()
            .map(|&r| renewal_mttf(trace, r, self.frequency))
            .collect::<Result<_, _>>()?;

        // Shared compile + injected corruption + integrity screen: one
        // compile guards the whole group, and a detected corruption floors
        // every dependent point.
        let mut shared_notes = Vec::new();
        let mut shared_floor = Provenance::Clean;
        let compiled = self.compiled_for_run(trace, chaos, &mut shared_notes, &mut shared_floor);

        // One shared-stream kernel run across every rate.
        let mut cfg = self.mc;
        cfg.chaos = chaos;
        let mut engine = MonteCarlo::new(cfg);
        if let Some(obs) = &self.obs {
            engine = engine.with_observer(obs.clone());
        }
        let runs = compiled.and_then(|c| engine.component_mttf_multi(&c, rates, self.frequency));
        let per_point: Vec<Result<MttfEstimate, SerrError>> = match runs {
            Ok(v) => v,
            // A fault in a shared chunk (engine fault, exhausted deadline,
            // poisoned or uncompilable shared trace) is a fault in every
            // point built on it.
            Err(e) => rates.iter().map(|_| Err(e.clone())).collect(),
        };

        let mut out = Vec::with_capacity(rates.len());
        for ((&rate, &renewal), run) in rates.iter().zip(&renewals).zip(per_point) {
            let mut notes = shared_notes.clone();
            let mut floor = shared_floor;
            let (softarch, refs_agree) =
                self.softarch_reference(trace, rate, renewal, chaos, &mut notes, &mut floor);
            let accepted = match run {
                Ok(est) => {
                    if let Err(why) = estimate_sanity(&est) {
                        notes.push(format!("shared-stream monte carlo insane: {why}"));
                        None
                    } else {
                        let tol =
                            self.policy.rel_tol.max(self.policy.ci_mult * est.relative_ci95());
                        let gap = relative_gap(est.mttf.as_secs(), renewal.as_secs());
                        if gap > tol {
                            notes.push(format!(
                                "shared-stream monte carlo inconsistent with renewal: \
                                 relative gap {gap:.3e} exceeds tolerance {tol:.3e}"
                            ));
                            None
                        } else {
                            if est.truncated {
                                notes.push(format!(
                                    "shared-stream monte carlo truncated by deadline \
                                     ({} of {} trials)",
                                    est.ttf_seconds.count, self.mc.trials
                                ));
                                floor = floor.worse(Provenance::Degraded);
                            }
                            Some(est)
                        }
                    }
                }
                Err(e) => {
                    notes.push(format!("shared-stream monte carlo failed: {e}"));
                    None
                }
            };
            let guarded = match accepted {
                Some(est) => GuardedMttf {
                    mttf: est.mttf,
                    provenance: floor,
                    mc: Some(est),
                    renewal,
                    softarch,
                    notes,
                },
                None => {
                    let provenance = if refs_agree {
                        notes.push(
                            "shared-stream monte carlo rejected; degraded to the analytic \
                             renewal estimate"
                                .to_owned(),
                        );
                        floor.worse(Provenance::Degraded)
                    } else {
                        notes.push(
                            "shared-stream monte carlo rejected and the analytic references \
                             disagree; result is suspect"
                                .to_owned(),
                        );
                        Provenance::Suspect
                    };
                    GuardedMttf { mttf: renewal, provenance, mc: None, renewal, softarch, notes }
                }
            };
            self.emit_verdict(&guarded);
            out.push(guarded);
        }
        Ok(out)
    }

    /// The SoftArch reference for one point, with injected estimator
    /// poisoning applied and the quarantine vote taken: returns the
    /// reference (when computable) and whether it agrees with renewal
    /// within tolerance. A disagreeing reference is noted and floors the
    /// provenance at [`Provenance::Degraded`] — a reference estimator is
    /// provably wrong, so the run is never reported pristine.
    fn softarch_reference(
        &self,
        trace: &dyn VulnerabilityTrace,
        rate: RawErrorRate,
        renewal: Mttf,
        chaos: Option<FaultPlan>,
        notes: &mut Vec<String>,
        floor: &mut Provenance,
    ) -> (Option<Mttf>, bool) {
        let softarch = match SoftArch::new(self.frequency).component_mttf(trace, rate) {
            Ok(m) => {
                let poison = chaos.and_then(|p| p.rate_poison_factor());
                Some(match poison {
                    Some(f) => Mttf::from_secs(m.as_secs() * f),
                    None => m,
                })
            }
            Err(e) => {
                notes.push(format!("softarch reference unavailable: {e}"));
                None
            }
        };
        let refs_agree = softarch
            .is_some_and(|s| relative_gap(s.as_secs(), renewal.as_secs()) <= self.policy.rel_tol);
        if let Some(s) = softarch {
            if !refs_agree {
                notes.push(format!(
                    "softarch reference quarantined: {:.3e} s vs renewal {:.3e} s \
                     disagree beyond {:.1}%",
                    s.as_secs(),
                    renewal.as_secs(),
                    self.policy.rel_tol * 100.0
                ));
                // The result still rests on two independent methods (Monte
                // Carlo + renewal), but a reference estimator is provably
                // wrong: never report this run as pristine.
                *floor = floor.worse(Provenance::Degraded);
            }
        }
        (softarch, refs_agree)
    }

    /// Mirrors the audit trail into the event stream: one `guard.fallback`
    /// warning per note, sequenced by note index so the stream is
    /// byte-identical for identical runs, then a closing `guard.verdict`
    /// carrying the provenance tag.
    fn emit_verdict(&self, g: &GuardedMttf) {
        let Some(obs) = &self.obs else { return };
        for (i, note) in g.notes.iter().enumerate() {
            obs.emit(Event::warn("guard.fallback", i as u64).with("note", note.clone()));
        }
        obs.emit(
            Event::new("guard.verdict", g.notes.len() as u64)
                .with("provenance", g.provenance.to_string())
                .with("mttf_s", g.mttf.as_secs())
                .with("mc_accepted", g.mc.is_some()),
        );
        obs.metrics().add("guard.runs", 1);
        obs.metrics().add("guard.fallback_notes", g.notes.len() as u64);
    }

    /// Runs the small event-loop cross-check (see
    /// [`GuardPolicy::oracle_trials`]) on the same trace the candidate
    /// estimate sampled — *including* any injected corruption baked into
    /// the compiled form, which is the point: the event loop votes on the
    /// compiled state through an independent code path and an independent
    /// derived seed.
    fn event_loop_oracle(
        &self,
        compiled: &CompiledTrace,
        rate: RawErrorRate,
        attempt: u32,
    ) -> Result<MttfEstimate, SerrError> {
        let cfg = MonteCarloConfig {
            sampler: SamplerKind::EventLoop,
            trials: self.policy.oracle_trials.min(self.mc.trials),
            seed: mix(&[self.mc.seed, 0x0DAC_1E00, u64::from(attempt)]),
            chaos: None,
            ..self.mc
        };
        MonteCarlo::new(cfg).component_mttf(compiled, rate, self.frequency)
    }

    /// Compiles the trace for the Monte Carlo run, applying and then
    /// screening any injected corruption. A compile that fails
    /// [`CompiledTrace::verify`] is rebuilt from the source trace and the
    /// run floor raised to [`Provenance::Retried`].
    ///
    /// # Errors
    ///
    /// [`SerrError::InvalidTrace`] for a trace no layout can compile.
    fn compiled_for_run(
        &self,
        trace: &dyn VulnerabilityTrace,
        chaos: Option<FaultPlan>,
        notes: &mut Vec<String>,
        floor: &mut Provenance,
    ) -> Result<CompiledTrace, SerrError> {
        let mut compiled = compile_for_sampling(trace)?;
        if let Some(fault) = chaos.and_then(|p| p.trace_fault()) {
            match fault {
                TraceFault::ValueBitFlip { bit } => compiled.chaos_flip_dominant_value_bit(bit),
                TraceFault::PrefixPerturb { selector, delta_frac } => {
                    compiled.chaos_perturb_prefix(selector, delta_frac);
                }
                TraceFault::ConsistentScale { factor } => {
                    compiled.chaos_scale_dominant_value(factor);
                }
            }
        }
        match compiled.verify() {
            Ok(()) => Ok(compiled),
            Err(e) => {
                notes.push(format!(
                    "compiled trace failed integrity verification ({e}); recompiled \
                     from the source trace"
                ));
                *floor = floor.worse(Provenance::Retried);
                compile_for_sampling(trace)
            }
        }
    }
}

/// `|a − b| / |b|`, with non-finite inputs treated as infinitely far apart.
fn relative_gap(a: f64, b: f64) -> f64 {
    if !a.is_finite() || !b.is_finite() || b == 0.0 {
        return f64::INFINITY;
    }
    (a - b).abs() / b.abs()
}

/// The sampler consistency vote: an accepted inversion estimate (scalar or
/// batched) must agree with an independent event-loop run within the
/// combined CI-derived tolerance. Returns the rejection note on
/// disagreement.
fn oracle_disagreement(
    est: &MttfEstimate,
    oracle: &MttfEstimate,
    policy: &GuardPolicy,
) -> Option<String> {
    let gap = relative_gap(est.mttf.as_secs(), oracle.mttf.as_secs());
    let tol = policy.rel_tol.max(policy.ci_mult * (est.relative_ci95() + oracle.relative_ci95()));
    (gap > tol).then(|| {
        format!(
            "{} sampler disagrees with the event-loop oracle \
             ({:.3e} s vs {:.3e} s): relative gap {gap:.3e} exceeds tolerance {tol:.3e}",
            est.sampler.label(),
            est.mttf.as_secs(),
            oracle.mttf.as_secs()
        )
    })
}

/// NaN / monotonicity poisoning detector for a Monte Carlo estimate.
fn estimate_sanity(est: &MttfEstimate) -> Result<(), String> {
    let s = &est.ttf_seconds;
    for (name, v) in [
        ("mttf", est.mttf.as_secs()),
        ("mean", s.mean),
        ("std_dev", s.std_dev),
        ("ci95", s.ci95),
        ("min", s.min),
        ("max", s.max),
    ] {
        if !v.is_finite() {
            return Err(format!("{name} is not finite: {v}"));
        }
    }
    if est.mttf.as_secs() <= 0.0 {
        return Err(format!("mttf is not positive: {}", est.mttf.as_secs()));
    }
    if s.ci95 < 0.0 || s.std_dev < 0.0 {
        return Err("negative dispersion statistic".to_owned());
    }
    if !(s.min <= s.mean && s.mean <= s.max) {
        return Err(format!("order violated: min {} mean {} max {}", s.min, s.mean, s.max));
    }
    if s.count == 0 {
        return Err("estimate built from zero trials".to_owned());
    }
    Ok(())
}

/// Tags an unguarded Monte Carlo estimate for display: [`Provenance::Clean`]
/// for a full sane run, [`Provenance::Degraded`] for a deadline-truncated
/// one, [`Provenance::Suspect`] if the numbers fail the sanity screen.
#[must_use]
pub fn classify_estimate(est: &MttfEstimate) -> Provenance {
    if estimate_sanity(est).is_err() {
        Provenance::Suspect
    } else if est.truncated {
        Provenance::Degraded
    } else {
        Provenance::Clean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serr_inject::FaultKind;
    use serr_trace::IntervalTrace;

    fn campaign_trace() -> IntervalTrace {
        let mut levels = vec![1.0; 16];
        levels.extend(std::iter::repeat_n(0.5, 16));
        levels.extend(std::iter::repeat_n(0.0, 32));
        IntervalTrace::from_levels(&levels).expect("valid levels")
    }

    fn guard() -> Guard {
        let cfg = MonteCarloConfig { trials: 3_000, threads: 1, ..Default::default() };
        Guard::new(Frequency::base(), cfg)
    }

    #[test]
    fn fault_free_run_is_clean_and_matches_renewal() {
        let trace = campaign_trace();
        let rate = RawErrorRate::per_year(50.0);
        let g = guard().component_mttf(&trace, rate, None).unwrap();
        assert_eq!(g.provenance, Provenance::Clean, "notes: {:?}", g.notes);
        assert!(g.mc.is_some());
        let est = g.mc.as_ref().unwrap();
        let gap = relative_gap(g.mttf.as_secs(), g.renewal.as_secs());
        assert!(gap <= 0.02f64.max(4.0 * est.relative_ci95()), "gap {gap}");
    }

    #[test]
    fn trace_corruption_is_detected_and_healed() {
        let trace = campaign_trace();
        let rate = RawErrorRate::per_year(50.0);
        // A bit-flip plan: verify() must catch it and the guard recompile.
        let plan = FaultPlan::new(11, FaultKind::TraceValueFlip);
        assert!(matches!(plan.trace_fault(), Some(TraceFault::ValueBitFlip { .. })));
        let g = guard().component_mttf(&trace, rate, Some(plan)).unwrap();
        assert_ne!(g.provenance, Provenance::Clean, "notes: {:?}", g.notes);
        assert!(g.notes.iter().any(|n| n.contains("integrity")), "notes: {:?}", g.notes);
        // The healed answer still agrees with the analytic reference.
        assert!(relative_gap(g.mttf.as_secs(), g.renewal.as_secs()) < 0.1);
    }

    #[test]
    fn consistent_corruption_is_caught_by_the_cross_engine_check() {
        let trace = campaign_trace();
        let rate = RawErrorRate::per_year(50.0);
        let plan = FaultPlan::new(3, FaultKind::TraceConsistentCorrupt);
        assert!(matches!(plan.trace_fault(), Some(TraceFault::ConsistentScale { .. })));
        let g = guard().component_mttf(&trace, rate, Some(plan)).unwrap();
        // The corrupted trace self-verifies, so only the renewal
        // cross-check can flag it; the guard must not report Clean...
        assert_ne!(g.provenance, Provenance::Clean, "notes: {:?}", g.notes);
        // ...and the degraded answer is the (uncorrupted) analytic one.
        assert_eq!(g.mttf.as_secs().to_bits(), g.renewal.as_secs().to_bits());
    }

    #[test]
    fn poisoned_reference_estimator_is_quarantined() {
        let trace = campaign_trace();
        let rate = RawErrorRate::per_year(50.0);
        let plan = FaultPlan::new(5, FaultKind::RatePoison);
        let factor = plan.rate_poison_factor().unwrap();
        assert!(factor >= 1.5, "poison factor {factor} too small to detect");
        let g = guard().component_mttf(&trace, rate, Some(plan)).unwrap();
        assert_ne!(g.provenance, Provenance::Clean, "notes: {:?}", g.notes);
        assert!(g.notes.iter().any(|n| n.contains("quarantined")), "notes: {:?}", g.notes);
        // The answer itself comes from the two agreeing engines.
        assert!(relative_gap(g.mttf.as_secs(), g.renewal.as_secs()) < 0.1);
    }

    #[test]
    fn guard_fallbacks_surface_as_typed_events() {
        let trace = campaign_trace();
        let rate = RawErrorRate::per_year(50.0);
        let (obs, sink) = serr_obs::Obs::memory();
        let plan = FaultPlan::new(11, FaultKind::TraceValueFlip);
        let g = guard().with_observer(obs).component_mttf(&trace, rate, Some(plan)).unwrap();
        assert!(!g.notes.is_empty(), "corruption plan should leave an audit trail");
        // One warn event per audit note, sequenced by note index.
        let fallbacks = sink.events_of("guard.fallback");
        assert_eq!(fallbacks.len(), g.notes.len());
        for (i, e) in fallbacks.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
            assert_eq!(e.level, serr_obs::Level::Warn);
        }
        // Exactly one closing verdict, sequenced after the notes.
        let verdicts = sink.events_of("guard.verdict");
        assert_eq!(verdicts.len(), 1);
        assert_eq!(verdicts[0].seq, g.notes.len() as u64);
        // The inner Monte Carlo engine shares the sink.
        assert!(!sink.events_of("mc.chunk").is_empty());
    }

    #[test]
    fn inversion_runs_are_vetted_by_the_event_loop_oracle() {
        let trace = campaign_trace();
        let rate = RawErrorRate::per_year(50.0);
        // The default-configured guard samples by batched inversion; a
        // clean run must carry exactly one oracle vote and stay Clean.
        let (obs, _sink) = serr_obs::Obs::memory();
        let g = guard().with_observer(obs.clone()).component_mttf(&trace, rate, None).unwrap();
        assert_eq!(g.provenance, Provenance::Clean, "notes: {:?}", g.notes);
        assert_eq!(g.mc.as_ref().unwrap().sampler, serr_mc::SamplerKind::BatchedInversion);
        assert_eq!(obs.metrics().snapshot().counters["guard.oracle_runs"], 1);

        // The scalar inversion sampler is vetted the same way.
        let cfg = MonteCarloConfig {
            trials: 3_000,
            threads: 1,
            sampler: serr_mc::SamplerKind::Inversion,
            ..Default::default()
        };
        let (obs, _sink) = serr_obs::Obs::memory();
        let g = Guard::new(Frequency::base(), cfg)
            .with_observer(obs.clone())
            .component_mttf(&trace, rate, None)
            .unwrap();
        assert_eq!(g.provenance, Provenance::Clean, "notes: {:?}", g.notes);
        assert_eq!(obs.metrics().snapshot().counters["guard.oracle_runs"], 1);

        // An event-loop-configured guard has nothing to cross-check.
        let cfg = MonteCarloConfig {
            trials: 3_000,
            threads: 1,
            sampler: serr_mc::SamplerKind::EventLoop,
            ..Default::default()
        };
        let (obs, _sink) = serr_obs::Obs::memory();
        let g = Guard::new(Frequency::base(), cfg)
            .with_observer(obs.clone())
            .component_mttf(&trace, rate, None)
            .unwrap();
        assert_eq!(g.provenance, Provenance::Clean, "notes: {:?}", g.notes);
        assert!(!obs.metrics().snapshot().counters.contains_key("guard.oracle_runs"));
    }

    #[test]
    fn oracle_vote_rejects_gross_disagreement_and_tolerates_noise() {
        fn est(mean_s: f64, ci95: f64, sampler: serr_mc::SamplerKind) -> MttfEstimate {
            MttfEstimate {
                mttf: Mttf::from_secs(mean_s),
                ttf_seconds: serr_numeric::stats::Summary {
                    count: 10_000,
                    mean: mean_s,
                    std_dev: ci95 * 51.0,
                    ci95,
                    min: 0.0,
                    max: mean_s * 10.0,
                },
                mean_events_per_trial: 1.0,
                truncated: false,
                sampler,
            }
        }
        let policy = GuardPolicy::default();
        let inv = est(1.0e6, 5.0e3, serr_mc::SamplerKind::Inversion);
        // Within combined CI noise: no vote against.
        let close = est(1.01e6, 8.0e3, serr_mc::SamplerKind::EventLoop);
        assert_eq!(oracle_disagreement(&inv, &close, &policy), None);
        // A corrupted prefix table shifts the inversion answer far outside
        // any honest noise band: the vote must reject.
        let far = est(2.0e6, 8.0e3, serr_mc::SamplerKind::EventLoop);
        let why = oracle_disagreement(&inv, &far, &policy).expect("gross gap must be rejected");
        assert!(why.contains("event-loop oracle"), "note: {why}");
    }

    #[test]
    fn multi_clean_run_matches_single_guard_per_point() {
        let trace = campaign_trace();
        let rates: Vec<RawErrorRate> =
            [5.0, 50.0, 400.0].iter().map(|&y| RawErrorRate::per_year(y)).collect();
        let g = guard();
        let multi = g.component_mttf_multi(&trace, &rates, None).unwrap();
        assert_eq!(multi.len(), rates.len());
        for (&rate, m) in rates.iter().zip(&multi) {
            assert_eq!(m.provenance, Provenance::Clean, "notes: {:?}", m.notes);
            // The shared kernel's accepted estimate is the bit-identical
            // attempt-0 estimate the single guard accepts.
            let single = g.component_mttf(&trace, rate, None).unwrap();
            assert_eq!(
                m.mc.as_ref().unwrap().mttf.as_secs().to_bits(),
                single.mc.as_ref().unwrap().mttf.as_secs().to_bits()
            );
        }
    }

    #[test]
    fn multi_shared_corruption_floors_every_point() {
        let trace = campaign_trace();
        let rates: Vec<RawErrorRate> =
            [10.0, 50.0, 200.0].iter().map(|&y| RawErrorRate::per_year(y)).collect();
        // The same prefix/value corruption plans the single-point campaigns
        // pin: one corrupted shared trace must worsen every dependent
        // point's tag — a silently clean subset is the failure mode.
        for kind in [FaultKind::TraceValueFlip, FaultKind::TracePrefixPerturb] {
            let plan = FaultPlan::new(11, kind);
            let multi = guard().component_mttf_multi(&trace, &rates, Some(plan)).unwrap();
            assert_eq!(multi.len(), rates.len());
            for m in &multi {
                assert_ne!(m.provenance, Provenance::Clean, "notes: {:?}", m.notes);
                assert!(
                    m.notes.iter().any(|n| n.contains("integrity")),
                    "shared corruption missing from notes: {:?}",
                    m.notes
                );
                // Whatever survived still agrees with the analytic answer.
                assert!(relative_gap(m.mttf.as_secs(), m.renewal.as_secs()) < 0.1);
            }
        }
    }

    #[test]
    fn trace_faults_on_a_tiled_trace_are_detect_or_degrade_at_any_thread_count() {
        use std::sync::Arc;
        // The campaign trace tiled past the flat segment cap: the guard
        // compiles it to the tile level, and every injector lands in the
        // dominant part's inner tables.
        let unit: Arc<dyn VulnerabilityTrace> = Arc::new(campaign_trace());
        let trace = serr_trace::ConcatTrace::new(vec![(unit, 2_000_000)]).unwrap();
        assert!(CompiledTrace::compile(&trace).is_some_and(|c| c.is_tiled()));
        let rate = RawErrorRate::per_year(50.0);
        let rates = [rate.scale(0.5), rate, rate.scale(2.0)];
        let kinds = [
            FaultKind::TraceValueFlip,
            FaultKind::TracePrefixPerturb,
            FaultKind::TraceConsistentCorrupt,
        ];
        let mut verdicts_by_threads = Vec::new();
        for threads in [1usize, 4] {
            let g = Guard::new(
                Frequency::base(),
                MonteCarloConfig { trials: 3_000, threads, ..Default::default() },
            );
            let policy = *g.policy();
            // A Clean tag farther from golden than twice the combined
            // acceptance band is a miss — the chaos harness's rule.
            let miss_tol = |golden: &GuardedMttf| {
                2.0 * policy
                    .ci_mult
                    .mul_add(golden.mc.map_or(0.0, |e| e.relative_ci95()), policy.rel_tol)
            };
            let golden = g.component_mttf(&trace, rate, None).unwrap();
            assert_eq!(golden.provenance, Provenance::Clean, "notes: {:?}", golden.notes);
            assert_eq!(golden.mc.unwrap().sampler, SamplerKind::BatchedInversion);
            let golden_sweep = g.component_mttf_multi(&trace, &rates, None).unwrap();
            let mut verdicts = Vec::new();
            for kind in kinds {
                let mut detected = false;
                for seed in 0..4u64 {
                    let plan = FaultPlan::new(seed, kind);
                    let single = g.component_mttf(&trace, rate, Some(plan)).unwrap();
                    let gap = relative_gap(single.mttf.as_secs(), golden.mttf.as_secs());
                    assert!(
                        single.provenance != Provenance::Clean || gap <= miss_tol(&golden),
                        "{kind} seed {seed} at {threads} threads: clean but off by {gap}"
                    );
                    detected |= single.provenance != Provenance::Clean;
                    verdicts.push((single.provenance, single.mttf.as_secs().to_bits()));
                    let sweep = g.component_mttf_multi(&trace, &rates, Some(plan)).unwrap();
                    for (point, want) in sweep.iter().zip(&golden_sweep) {
                        let gap = relative_gap(point.mttf.as_secs(), want.mttf.as_secs());
                        assert!(
                            point.provenance != Provenance::Clean || gap <= miss_tol(want),
                            "{kind} seed {seed} sweep at {threads} threads: clean but off by {gap}"
                        );
                        verdicts.push((point.provenance, point.mttf.as_secs().to_bits()));
                    }
                }
                assert!(detected, "{kind} never left the Clean path on the tiled trace");
            }
            verdicts_by_threads.push(verdicts);
        }
        assert_eq!(verdicts_by_threads[0], verdicts_by_threads[1], "verdicts moved with threads");
    }

    #[test]
    fn classify_estimate_maps_states_to_tags() {
        let trace = campaign_trace();
        let rate = RawErrorRate::per_year(50.0);
        let cfg = MonteCarloConfig { trials: 3_000, threads: 1, ..Default::default() };
        let est = MonteCarlo::new(cfg).component_mttf(&trace, rate, Frequency::base()).unwrap();
        assert_eq!(classify_estimate(&est), Provenance::Clean);
        let mut truncated = est.clone();
        truncated.truncated = true;
        assert_eq!(classify_estimate(&truncated), Provenance::Degraded);
        let mut poisoned = est;
        poisoned.ttf_seconds.mean = f64::NAN;
        assert_eq!(classify_estimate(&poisoned), Provenance::Suspect);
    }
}
