//! The validation harness: AVF+SOFR against the assumption-free estimators.
//!
//! For every configuration the harness produces four MTTFs:
//!
//! * **AVF(+SOFR)** — the method under examination;
//! * **Monte Carlo** — the paper's ground truth (Section 4.3);
//! * **renewal** — this workspace's exact closed form for the same masking
//!   model, used to separate genuine methodology error from MC sampling
//!   noise;
//! * **SoftArch** — the alternative first-principles estimator of
//!   Section 5.4.
//!
//! Renewal and SoftArch take rate lists: each codes the trace's spans once
//! and prices every rate in one pass, so a grouped sweep or a `serr serve`
//! request pays one span walk per trace, not one per design point.

use std::sync::Arc;
use std::time::Instant;

use serr_mc::system::SystemModel;
use serr_mc::{MonteCarlo, MonteCarloConfig, MttfEstimate};
use serr_obs::Obs;
use serr_softarch::SoftArch;
use serr_trace::VulnerabilityTrace;
use serr_types::{relative_error, Frequency, Mttf, RawErrorRate, SerrError};

use crate::{avf, par, sofr};

/// Validation of the AVF step on a single component (the paper's
/// Sections 5.1–5.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComponentValidation {
    /// The component's AVF.
    pub avf: f64,
    /// MTTF by the AVF step (Equation 1).
    pub mttf_avf: Mttf,
    /// MTTF by Monte Carlo (ground truth).
    pub mttf_mc: MttfEstimate,
    /// MTTF by exact renewal analysis.
    pub mttf_renewal: Mttf,
    /// MTTF by SoftArch.
    pub mttf_softarch: Mttf,
    /// `|AVF − MC| / MC` — the quantity in Figures 3 and 5.
    pub avf_error_vs_mc: f64,
    /// `|AVF − renewal| / renewal` — the same signal without MC noise.
    pub avf_error_vs_renewal: f64,
    /// `|SoftArch − MC| / MC` — the Section 5.4 check.
    pub softarch_error_vs_mc: f64,
}

/// Validation of the SOFR step on a system of components (Section 5.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemValidation {
    /// Number of component instances in the system.
    pub components: u64,
    /// System MTTF by the SOFR step (component MTTFs from the exact
    /// renewal method, so the reported error is *only* the SOFR step's —
    /// mirroring the paper's use of Monte-Carlo component MTTFs).
    pub mttf_sofr: Mttf,
    /// System MTTF by Monte Carlo (ground truth).
    pub mttf_mc: MttfEstimate,
    /// System MTTF by exact renewal analysis.
    pub mttf_renewal: Mttf,
    /// System MTTF by SoftArch.
    pub mttf_softarch: Mttf,
    /// `|SOFR − MC| / MC` — the quantity in Figure 6.
    pub sofr_error_vs_mc: f64,
    /// `|SOFR − renewal| / renewal`.
    pub sofr_error_vs_renewal: f64,
    /// `|SoftArch − MC| / MC`.
    pub softarch_error_vs_mc: f64,
}

/// Runs all four estimators over components and systems.
#[derive(Debug, Clone)]
pub struct Validator {
    frequency: Frequency,
    mc: MonteCarlo,
    obs: Option<Obs>,
}

impl Validator {
    /// Creates a validator for machines clocked at `frequency`, running
    /// Monte Carlo with `config`.
    #[must_use]
    pub fn new(frequency: Frequency, config: MonteCarloConfig) -> Self {
        Validator { frequency, mc: MonteCarlo::new(config), obs: None }
    }

    /// Attaches an observer: the analytic stages record their wall time
    /// (`stage.renewal_quadrature_ms`, `stage.softarch_ms`) and the Monte
    /// Carlo engine reports its own stage timings and per-chunk convergence
    /// telemetry through the same sink.
    #[must_use]
    pub fn with_observer(mut self, obs: Obs) -> Self {
        self.mc = self.mc.clone().with_observer(obs.clone());
        self.obs = Some(obs);
        self
    }

    /// The Monte Carlo engine used.
    #[must_use]
    pub fn monte_carlo(&self) -> &MonteCarlo {
        &self.mc
    }

    /// Runs `f` under the observer's stage timer when one is attached.
    fn timed<R>(&self, stage: &'static str, f: impl FnOnce() -> R) -> R {
        match &self.obs {
            Some(obs) => obs.time_stage(stage, f),
            None => f(),
        }
    }

    /// Runs a rate-list pass that returns `values` results and records
    /// `stage` once per value, each with an equal share of the pass's wall
    /// time — so stage counts stay one per reference a row reads, however
    /// the rates were batched.
    fn timed_per_value<R>(&self, stage: &'static str, values: usize, f: impl FnOnce() -> R) -> R {
        let Some(obs) = &self.obs else { return f() };
        let t0 = Instant::now();
        let out = f();
        let share = t0.elapsed().as_secs_f64() * 1e3 / values.max(1) as f64;
        for _ in 0..values {
            obs.record_stage(stage, share);
        }
        out
    }

    /// Validates the AVF step on one component.
    ///
    /// # Errors
    ///
    /// Propagates estimator errors (zero rate, AVF-0 trace, MC
    /// non-convergence).
    pub fn component(
        &self,
        trace: &dyn VulnerabilityTrace,
        rate: RawErrorRate,
    ) -> Result<ComponentValidation, SerrError> {
        let mttf_mc = self.mc.component_mttf(trace, rate, self.frequency)?;
        self.component_with_mc(trace, rate, mttf_mc)
    }

    /// [`Validator::component`] with the Monte Carlo ground truth already
    /// in hand: the one-rate case of [`Validator::components_with_mc`].
    /// Passing the estimate an independent run would produce yields a row
    /// bit-identical to [`Validator::component`].
    ///
    /// # Errors
    ///
    /// Propagates analytic-estimator errors (zero rate, AVF-0 trace).
    pub fn component_with_mc(
        &self,
        trace: &dyn VulnerabilityTrace,
        rate: RawErrorRate,
        mttf_mc: MttfEstimate,
    ) -> Result<ComponentValidation, SerrError> {
        self.components_with_mc(trace, &[rate], vec![Ok(mttf_mc)]).pop().expect("one row per rate")
    }

    /// [`Validator::component_with_mc`] over a rate list — the entry point
    /// for grouped sweeps and `serr serve`, where one shared-stream kernel
    /// run (`MonteCarlo::component_mttf_multi`) produces every rate's
    /// estimate. Renewal and SoftArch each price every rate whose estimate
    /// is `Ok` in one coded pass over the trace's spans. Row `k` is
    /// bit-identical to `component_with_mc(trace, rates[k], mttf_mc[k]?)`;
    /// errors are per rate.
    pub fn components_with_mc(
        &self,
        trace: &dyn VulnerabilityTrace,
        rates: &[RawErrorRate],
        mttf_mc: Vec<Result<MttfEstimate, SerrError>>,
    ) -> Vec<Result<ComponentValidation, SerrError>> {
        let lists = component_reference_rates(rates, &mttf_mc);
        let priced = Reference::ALL.map(|r| self.price(trace, r, &lists[r as usize]));
        self.component_rows(trace, rates, mttf_mc, priced)
    }

    /// `reference`'s MTTF at every rate of `rates` on `trace`, in one coded
    /// pass over its spans ([`serr_analytic::renewal::renewal_mttfs`],
    /// [`SoftArch::component_mttfs`]). With an observer attached, records
    /// the reference's stage (`stage.renewal_quadrature_ms`,
    /// `stage.softarch_ms`) once per value returned, each with an equal
    /// share of the pass's wall time.
    pub(crate) fn price(
        &self,
        trace: &dyn VulnerabilityTrace,
        reference: Reference,
        rates: &[RawErrorRate],
    ) -> Vec<Result<Mttf, SerrError>> {
        match reference {
            Reference::Renewal => self.timed_per_value("renewal_quadrature", rates.len(), || {
                serr_analytic::renewal::renewal_mttfs(trace, rates, self.frequency)
            }),
            Reference::SoftArch => self.timed_per_value("softarch", rates.len(), || {
                SoftArch::new(self.frequency).component_mttfs(trace, rates)
            }),
        }
    }

    /// Component rows from their references, priced by
    /// [`Validator::price`] at [`component_reference_rates`]'s lists
    /// (indexed by [`Reference`]).
    pub(crate) fn component_rows(
        &self,
        trace: &dyn VulnerabilityTrace,
        rates: &[RawErrorRate],
        mttf_mc: Vec<Result<MttfEstimate, SerrError>>,
        priced: [Vec<Result<Mttf, SerrError>>; 2],
    ) -> Vec<Result<ComponentValidation, SerrError>> {
        let [renewal, softarch] = priced;
        let (mut renewal, mut softarch) = (renewal.into_iter(), softarch.into_iter());
        rates
            .iter()
            .zip(mttf_mc)
            .map(|(&rate, mc)| {
                let mc = mc?;
                let (r, s) = (renewal.next(), softarch.next());
                self.component_from_references(
                    trace,
                    rate,
                    mc,
                    r.expect("one renewal per priced rate"),
                    s.expect("one SoftArch per priced rate"),
                )
            })
            .collect()
    }

    /// A component row from references priced by a rate-list pass. Errors
    /// surface in the order the estimators would run one point at a time:
    /// AVF step, renewal, SoftArch.
    fn component_from_references(
        &self,
        trace: &dyn VulnerabilityTrace,
        rate: RawErrorRate,
        mttf_mc: MttfEstimate,
        renewal: Result<Mttf, SerrError>,
        softarch: Result<Mttf, SerrError>,
    ) -> Result<ComponentValidation, SerrError> {
        let mttf_avf = avf::avf_step_mttf(trace, rate)?;
        let mttf_renewal = renewal?;
        let mttf_softarch = softarch?;
        Ok(ComponentValidation {
            avf: trace.avf(),
            mttf_avf,
            mttf_mc,
            mttf_renewal,
            mttf_softarch,
            avf_error_vs_mc: relative_error(mttf_avf.as_secs(), mttf_mc.mttf.as_secs()),
            avf_error_vs_renewal: relative_error(mttf_avf.as_secs(), mttf_renewal.as_secs()),
            softarch_error_vs_mc: relative_error(mttf_softarch.as_secs(), mttf_mc.mttf.as_secs()),
        })
    }

    /// Validates the SOFR step on a system of `c` identical, phase-aligned
    /// components (the paper's cluster configuration: "all processors run
    /// the same workload").
    ///
    /// # Errors
    ///
    /// Propagates estimator errors.
    pub fn system_identical(
        &self,
        trace: Arc<dyn VulnerabilityTrace>,
        component_rate: RawErrorRate,
        c: u64,
    ) -> Result<SystemValidation, SerrError> {
        if c == 0 {
            return Err(SerrError::invalid_config("system must have at least one component"));
        }
        // Ground truth: identical phase-aligned components superpose into a
        // single process with C x the rate over the same trace.
        let system_rate = component_rate.scale(c as f64);
        let mttf_mc = self.mc.component_mttf(&trace, system_rate, self.frequency)?;
        self.system_identical_with_mc(&*trace, component_rate, c, mttf_mc)
    }

    /// [`Validator::system_identical`] with the Monte Carlo ground truth
    /// already in hand: the one-rate case of
    /// [`Validator::systems_identical_with_mc`]. With the estimate an
    /// independent run would produce, the row is bit-identical to
    /// [`Validator::system_identical`].
    ///
    /// # Errors
    ///
    /// Propagates analytic-estimator errors; rejects `c == 0`.
    pub fn system_identical_with_mc(
        &self,
        trace: &dyn VulnerabilityTrace,
        component_rate: RawErrorRate,
        c: u64,
        mttf_mc: MttfEstimate,
    ) -> Result<SystemValidation, SerrError> {
        self.systems_identical_with_mc(trace, &[component_rate], &[c], vec![Ok(mttf_mc)])
            .pop()
            .expect("one row per rate")
    }

    /// [`Validator::system_identical_with_mc`] over a list of systems on
    /// one trace: system `k` has `cs[k]` components at component rate
    /// `component_rates[k]`.
    ///
    /// Because c identical phase-aligned components superpose into one
    /// process at `c·λ` over the same trace, the c-axis of a Fig 6 grid is
    /// a *rate* axis: one shared-stream kernel run over the scaled rates
    /// gives every cell's estimate, and renewal (at each component rate and
    /// each system rate) and SoftArch (at each system rate) each price
    /// their rates in one coded pass. Row `k` is bit-identical to
    /// `system_identical_with_mc(trace, component_rates[k], cs[k],
    /// mttf_mc[k]?)`; errors are per system.
    pub fn systems_identical_with_mc(
        &self,
        trace: &dyn VulnerabilityTrace,
        component_rates: &[RawErrorRate],
        cs: &[u64],
        mttf_mc: Vec<Result<MttfEstimate, SerrError>>,
    ) -> Vec<Result<SystemValidation, SerrError>> {
        let lists = system_reference_rates(component_rates, cs, &mttf_mc);
        let priced = Reference::ALL.map(|r| self.price(trace, r, &lists[r as usize]));
        self.system_rows(cs, mttf_mc, priced)
    }

    /// System rows from their references, priced by [`Validator::price`]
    /// at [`system_reference_rates`]'s lists (indexed by [`Reference`]).
    pub(crate) fn system_rows(
        &self,
        cs: &[u64],
        mttf_mc: Vec<Result<MttfEstimate, SerrError>>,
        priced: [Vec<Result<Mttf, SerrError>>; 2],
    ) -> Vec<Result<SystemValidation, SerrError>> {
        let [mut component, softarch] = priced;
        // Renewal priced the component rates, then the system rates: one
        // of each per SoftArch value.
        let mut at_system = component.split_off(softarch.len()).into_iter();
        let mut component = component.into_iter();
        let mut softarch = softarch.into_iter();
        cs.iter()
            .zip(mttf_mc)
            .map(|(&c, mc)| {
                if c == 0 {
                    return Err(SerrError::invalid_config(
                        "system must have at least one component",
                    ));
                }
                let mc = mc?;
                self.system_from_references(
                    c,
                    mc,
                    component.next().expect("one renewal per priced rate"),
                    at_system.next().expect("one renewal per priced rate"),
                    softarch.next().expect("one SoftArch per priced rate"),
                )
            })
            .collect()
    }

    /// A system row from references priced by a rate-list pass: the renewal
    /// MTTF at the component rate (the SOFR step's input), and renewal and
    /// SoftArch at the system rate. Errors surface in the order the
    /// estimators would run one point at a time.
    fn system_from_references(
        &self,
        c: u64,
        mttf_mc: MttfEstimate,
        component_renewal: Result<Mttf, SerrError>,
        renewal: Result<Mttf, SerrError>,
        softarch: Result<Mttf, SerrError>,
    ) -> Result<SystemValidation, SerrError> {
        // SOFR: component MTTF from the exact first-principles method,
        // divided by C (Equations 2-3 for identical components).
        let mttf_sofr = sofr::sofr_mttf_identical(component_renewal?, c)?;
        let mttf_renewal = renewal?;
        let mttf_softarch = softarch?;
        Ok(SystemValidation {
            components: c,
            mttf_sofr,
            mttf_mc,
            mttf_renewal,
            mttf_softarch,
            sofr_error_vs_mc: relative_error(mttf_sofr.as_secs(), mttf_mc.mttf.as_secs()),
            sofr_error_vs_renewal: relative_error(mttf_sofr.as_secs(), mttf_renewal.as_secs()),
            softarch_error_vs_mc: relative_error(mttf_softarch.as_secs(), mttf_mc.mttf.as_secs()),
        })
    }

    /// Validates the SOFR step on a heterogeneous system (e.g. the four
    /// components of one processor in Section 5.1).
    ///
    /// # Errors
    ///
    /// Propagates estimator errors; parts with AVF-0 traces contribute no
    /// failure rate to SOFR and are skipped there (they cannot fail).
    pub fn system_parts(
        &self,
        parts: &[(RawErrorRate, Arc<dyn VulnerabilityTrace>)],
    ) -> Result<SystemValidation, SerrError> {
        if parts.is_empty() {
            return Err(SerrError::invalid_config("system must have at least one part"));
        }
        // SOFR over per-component renewal MTTFs (skipping never-failing
        // parts). Each part's renewal integral is independent — fan them
        // out across cores, keeping part order in the reduction.
        let frequency = self.frequency;
        let per_part: Result<Vec<_>, SerrError> = self
            .timed("renewal_quadrature", || {
                par::par_map(parts, par::fanout_threads(parts.len()), |_, (rate, trace)| {
                    if trace.is_never_vulnerable() {
                        return Ok(None);
                    }
                    let mttf = serr_analytic::renewal::renewal_mttf(trace, *rate, frequency)?;
                    Ok(Some(mttf.to_failure_rate()))
                })
            })
            .into_iter()
            .collect();
        let rates: Vec<_> = per_part?.into_iter().flatten().collect();
        let mttf_sofr = sofr::sofr_failure_rate(rates)?.to_mttf();

        // Ground truth on the superposed system.
        let mut builder = SystemModel::builder(self.frequency);
        for (i, (rate, trace)) in parts.iter().enumerate() {
            builder.add(format!("part{i}"), *rate, trace.clone())?;
        }
        let system = builder.build()?;
        let mttf_mc = self.mc.system_mttf(&system)?;
        let combined = system.combined_trace();
        let total = system.total_rate();
        let mttf_renewal = self.timed("renewal_quadrature", || {
            serr_analytic::renewal::renewal_mttf(&combined, total, self.frequency)
        })?;
        let mttf_softarch = self
            .timed("softarch", || SoftArch::new(self.frequency).component_mttf(&combined, total))?;

        Ok(SystemValidation {
            components: parts.len() as u64,
            mttf_sofr,
            mttf_mc,
            mttf_renewal,
            mttf_softarch,
            sofr_error_vs_mc: relative_error(mttf_sofr.as_secs(), mttf_mc.mttf.as_secs()),
            sofr_error_vs_renewal: relative_error(mttf_sofr.as_secs(), mttf_renewal.as_secs()),
            softarch_error_vs_mc: relative_error(mttf_softarch.as_secs(), mttf_mc.mttf.as_secs()),
        })
    }
}

/// An exact reference: a rate-list pass over a trace's coded spans. The
/// two passes behind a list of rows are independent, so a sweep runs each
/// as its own task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Reference {
    Renewal,
    SoftArch,
}

impl Reference {
    /// Both references, in the order their lists are indexed.
    pub(crate) const ALL: [Reference; 2] = [Reference::Renewal, Reference::SoftArch];
}

/// The rates each [`Reference`] prices for component rows: every rate
/// whose Monte Carlo estimate is `Ok`, for both.
pub(crate) fn component_reference_rates(
    rates: &[RawErrorRate],
    mttf_mc: &[Result<MttfEstimate, SerrError>],
) -> [Vec<RawErrorRate>; 2] {
    let priced: Vec<RawErrorRate> =
        rates.iter().zip(mttf_mc).filter(|(_, mc)| mc.is_ok()).map(|(r, _)| *r).collect();
    [priced.clone(), priced]
}

/// The rates each [`Reference`] prices for systems of `cs[k]` identical
/// components at `component_rates[k]` (those with `c > 0` and an `Ok`
/// estimate): renewal at every component rate, then at every system rate
/// `c·λ`; SoftArch at every system rate.
pub(crate) fn system_reference_rates(
    component_rates: &[RawErrorRate],
    cs: &[u64],
    mttf_mc: &[Result<MttfEstimate, SerrError>],
) -> [Vec<RawErrorRate>; 2] {
    let priced: Vec<(RawErrorRate, RawErrorRate)> = component_rates
        .iter()
        .zip(cs)
        .zip(mttf_mc)
        .filter(|((_, &c), mc)| c > 0 && mc.is_ok())
        .map(|((&rate, &c), _)| (rate, rate.scale(c as f64)))
        .collect();
    let system: Vec<RawErrorRate> = priced.iter().map(|&(_, s)| s).collect();
    let renewal = priced.iter().map(|&(r, _)| r).chain(system.iter().copied()).collect();
    [renewal, system]
}

#[cfg(test)]
mod tests {
    use super::*;
    use serr_trace::IntervalTrace;

    fn validator() -> Validator {
        Validator::new(Frequency::base(), MonteCarloConfig { trials: 30_000, ..Default::default() })
    }

    #[test]
    fn avf_valid_regime_shows_no_error() {
        // Small λL: everything agrees (paper Section 5.1's finding).
        let trace = IntervalTrace::busy_idle(3_000, 7_000).unwrap();
        let v = validator().component(&trace, RawErrorRate::per_year(10.0)).unwrap();
        assert!(v.avf_error_vs_renewal < 1e-9, "{}", v.avf_error_vs_renewal);
        assert!(v.avf_error_vs_mc < 0.02, "{}", v.avf_error_vs_mc);
        assert!(v.softarch_error_vs_mc < 0.02, "{}", v.softarch_error_vs_mc);
        assert!((v.avf - 0.3).abs() < 1e-12);
    }

    #[test]
    fn avf_invalid_regime_shows_error_but_softarch_does_not() {
        // λL ~ 4: the Figure 3/5 discrepancy regime.
        let freq = Frequency::base();
        let trace = IntervalTrace::busy_idle(1_000_000, 1_000_000).unwrap();
        let l_seconds = 2_000_000.0 / freq.hz();
        let rate = RawErrorRate::per_second(4.0 / l_seconds);
        let v = validator().component(&trace, rate).unwrap();
        assert!(v.avf_error_vs_renewal > 0.2, "avf err {}", v.avf_error_vs_renewal);
        assert!(v.avf_error_vs_mc > 0.15, "avf err vs mc {}", v.avf_error_vs_mc);
        // SoftArch stays faithful (paper Section 5.4).
        assert!(v.softarch_error_vs_mc < 0.02, "softarch {}", v.softarch_error_vs_mc);
        // And the MC engine itself agrees with the exact answer.
        let mc_vs_renewal = relative_error(v.mttf_mc.mttf.as_secs(), v.mttf_renewal.as_secs());
        assert!(mc_vs_renewal < 0.02, "mc noise {mc_vs_renewal}");
    }

    #[test]
    fn sofr_error_grows_with_components() {
        // Fixed component rate in the borderline regime; growing C pushes
        // the system into the invalid regime (Figure 6's shape).
        let freq = Frequency::base();
        let trace: Arc<dyn VulnerabilityTrace> =
            Arc::new(IntervalTrace::busy_idle(500_000, 500_000).unwrap());
        let l_seconds = 1_000_000.0 / freq.hz();
        let rate = RawErrorRate::per_second(0.05 / l_seconds); // λL = 0.05
        let v = validator();
        let small = v.system_identical(trace.clone(), rate, 2).unwrap();
        let large = v.system_identical(trace, rate, 100).unwrap();
        assert!(small.sofr_error_vs_renewal < 0.03, "C=2 {}", small.sofr_error_vs_renewal);
        assert!(large.sofr_error_vs_renewal > 0.3, "C=100 {}", large.sofr_error_vs_renewal);
        assert!(large.softarch_error_vs_mc < 0.02);
    }

    #[test]
    fn heterogeneous_system_validation() {
        let a: Arc<dyn VulnerabilityTrace> = Arc::new(IntervalTrace::busy_idle(400, 600).unwrap());
        let b: Arc<dyn VulnerabilityTrace> =
            Arc::new(IntervalTrace::from_levels(&[0.5; 1000]).unwrap());
        let v = validator()
            .system_parts(&[(RawErrorRate::per_year(3.0), a), (RawErrorRate::per_year(7.0), b)])
            .unwrap();
        // Tiny λL: SOFR is fine here.
        assert!(v.sofr_error_vs_renewal < 1e-6, "{}", v.sofr_error_vs_renewal);
        assert!(v.sofr_error_vs_mc < 0.02);
        assert_eq!(v.components, 2);
    }

    #[test]
    fn observer_records_per_stage_wall_time() {
        let (obs, sink) = Obs::memory();
        let trace = IntervalTrace::busy_idle(3_000, 7_000).unwrap();
        let v = validator().with_observer(obs.clone());
        v.component(&trace, RawErrorRate::per_year(10.0)).unwrap();
        let snap = obs.metrics().snapshot();
        for stage in [
            "stage.renewal_quadrature_ms",
            "stage.softarch_ms",
            "stage.trace_compile_ms",
            "stage.mc_run_ms",
        ] {
            let h = snap.histograms.get(stage).unwrap_or_else(|| panic!("missing {stage}"));
            assert_eq!(h.count(), 1, "{stage} should be timed exactly once");
        }
        // The shared sink carries the engine's convergence telemetry too.
        assert!(!sink.events_of("mc.chunk").is_empty());
    }

    #[test]
    fn rejects_degenerate_systems() {
        let v = validator();
        let t: Arc<dyn VulnerabilityTrace> = Arc::new(IntervalTrace::busy_idle(1, 1).unwrap());
        assert!(v.system_identical(t, RawErrorRate::per_year(1.0), 0).is_err());
        assert!(v.system_parts(&[]).is_err());
    }
}
