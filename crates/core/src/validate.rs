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
//!
//! Every row carries a [`Provenance`] verdict on how far its three
//! assumption-free MTTFs vouch for each other, on the same path that
//! produces every number the CLI, the sweeps and `serr serve` emit:
//!
//! * a Monte Carlo estimate that fails the sanity screen (a non-finite
//!   statistic, MTTF ≤ 0, negative dispersion, `min ≤ mean ≤ max`
//!   violated, zero trials) is `suspect`;
//! * Monte Carlo farther than max(2%, 4 × its relative CI95) from renewal
//!   is `degraded` when SoftArch agrees with renewal (the references vouch
//!   for each other, so the estimate is the odd one out), `suspect`
//!   otherwise;
//! * SoftArch more than 2% from renewal floors the row at `degraded`: a
//!   reference is provably wrong;
//! * a deadline-truncated estimate floors it at `degraded`.
//!
//! [`verify_or_rebuild`] repairs a compiled trace whose bytes can have
//! changed since its compile.

use std::sync::Arc;
use std::time::Instant;

use serr_mc::system::SystemModel;
use serr_mc::{MonteCarlo, MonteCarloConfig, MttfEstimate};
use serr_obs::Obs;
use serr_softarch::SoftArch;
use serr_trace::{CompiledTrace, VulnerabilityTrace};
use serr_types::{relative_error, Frequency, Mttf, Provenance, RawErrorRate, SerrError};

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
    /// How far the row's Monte Carlo, renewal and SoftArch MTTFs vouch for
    /// each other (the row verdict; see the module docs).
    pub provenance: Provenance,
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
    /// How far the row's Monte Carlo, renewal and SoftArch MTTFs vouch for
    /// each other (the row verdict; see the module docs).
    pub provenance: Provenance,
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
    /// estimate. Renewal and SoftArch each price every rate in one coded
    /// pass over the trace's spans. Row `k` is bit-identical to
    /// `component_with_mc(trace, rates[k], mttf_mc[k]?)`; errors are per
    /// rate.
    pub fn components_with_mc(
        &self,
        trace: &dyn VulnerabilityTrace,
        rates: &[RawErrorRate],
        mttf_mc: Vec<Result<MttfEstimate, SerrError>>,
    ) -> Vec<Result<ComponentValidation, SerrError>> {
        let priced = self.price_both(trace, &component_reference_rates(rates));
        self.component_rows(trace, rates, mttf_mc, priced)
    }

    /// `reference`'s MTTF at every rate of `rates` on `trace`, in one coded
    /// pass over its spans ([`serr_analytic::renewal::renewal_mttfs`],
    /// [`SoftArch::component_mttfs`]); each element is bit-identical to the
    /// pass over that rate alone. Records nothing: see
    /// [`Validator::record_pass`]. A chaos plan in the Monte Carlo
    /// configuration that poisons a reference
    /// ([`serr_inject::FaultPlan::rate_poison_factor`]) scales every
    /// SoftArch MTTF by its factor.
    pub(crate) fn price(
        &self,
        trace: &dyn VulnerabilityTrace,
        reference: Reference,
        rates: &[RawErrorRate],
    ) -> Vec<Result<Mttf, SerrError>> {
        match reference {
            Reference::Renewal => {
                serr_analytic::renewal::renewal_mttfs(trace, rates, self.frequency)
            }
            Reference::SoftArch => {
                let priced = SoftArch::new(self.frequency).component_mttfs(trace, rates);
                match self.mc.config().chaos.and_then(|p| p.rate_poison_factor()) {
                    Some(f) => priced
                        .into_iter()
                        .map(|m| m.map(|m| Mttf::from_secs(m.as_secs() * f)))
                        .collect(),
                    None => priced,
                }
            }
        }
    }

    /// With an observer attached, records one [`Validator::price`] pass of
    /// `reference` that priced `values` rates in `ms`: the reference's stage
    /// (`stage.renewal_quadrature_ms`, `stage.softarch_ms`) once per value,
    /// each with an equal share of the pass's wall time — so stage counts
    /// stay one per reference a row reads, however the rates were batched.
    pub(crate) fn record_pass(&self, reference: Reference, values: usize, ms: f64) {
        let Some(obs) = &self.obs else { return };
        let share = ms / values.max(1) as f64;
        for _ in 0..values {
            obs.record_stage(reference.stage(), share);
        }
    }

    /// Both references' passes over `lists` on the calling thread, each
    /// recorded as it ends.
    fn price_both(
        &self,
        trace: &dyn VulnerabilityTrace,
        lists: &[Vec<RawErrorRate>; 2],
    ) -> [Vec<Result<Mttf, SerrError>>; 2] {
        Reference::ALL.map(|r| {
            let t0 = Instant::now();
            let priced = self.price(trace, r, &lists[r as usize]);
            self.record_pass(r, priced.len(), t0.elapsed().as_secs_f64() * 1e3);
            priced
        })
    }

    /// Component rows from their references, priced by
    /// [`Validator::price`] at [`component_reference_rates`]'s lists
    /// (indexed by [`Reference`]): one value per rate of each.
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
                let (r, s) = (renewal.next(), softarch.next());
                self.component_from_references(
                    trace,
                    rate,
                    mc?,
                    r.expect("one renewal per rate"),
                    s.expect("one SoftArch per rate"),
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
            provenance: verdict(&mttf_mc, mttf_renewal, mttf_softarch),
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
        let priced = self.price_both(trace, &system_reference_rates(component_rates, cs));
        self.system_rows(cs, mttf_mc, priced)
    }

    /// System rows from their references, priced by [`Validator::price`]
    /// at [`system_reference_rates`]'s lists (indexed by [`Reference`]):
    /// values for every system with `c > 0`.
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
                let (r, at, s) = (component.next(), at_system.next(), softarch.next());
                self.system_from_references(
                    c,
                    mc?,
                    r.expect("one renewal per system"),
                    at.expect("one renewal per system"),
                    s.expect("one SoftArch per system"),
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
            provenance: verdict(&mttf_mc, mttf_renewal, mttf_softarch),
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
            provenance: verdict(&mttf_mc, mttf_renewal, mttf_softarch),
        })
    }
}

/// Baseline relative tolerance for agreement between two estimators.
const REL_TOL: f64 = 0.02;

/// Monte Carlo may sit `CI_MULT` times its 95% confidence half-width from
/// renewal when that band is wider than [`REL_TOL`], so a high-variance
/// run is not flagged for honest sampling noise.
const CI_MULT: f64 = 4.0;

/// How far a Monte Carlo estimate with relative 95% half-width `rel_ci95`
/// may sit from the renewal MTTF and still agree with it.
pub(crate) fn mc_tolerance(rel_ci95: f64) -> f64 {
    REL_TOL.max(CI_MULT * rel_ci95)
}

/// A row's provenance from its Monte Carlo estimate and its two exact
/// references at the same rate, by the rules in the module docs. Pure: the
/// same inputs give the same tag at any thread count.
fn verdict(mc: &MttfEstimate, renewal: Mttf, softarch: Mttf) -> Provenance {
    if !is_sane(mc) {
        return Provenance::Suspect;
    }
    let refs_agree = relative_gap(softarch.as_secs(), renewal.as_secs()) <= REL_TOL;
    let mut tag = if refs_agree { Provenance::Clean } else { Provenance::Degraded };
    if relative_gap(mc.mttf.as_secs(), renewal.as_secs()) > mc_tolerance(mc.relative_ci95()) {
        tag = if refs_agree { Provenance::Degraded } else { Provenance::Suspect };
    }
    if mc.truncated {
        tag = tag.worse(Provenance::Degraded);
    }
    tag
}

/// `|a − b| / |b|`, with non-finite inputs treated as infinitely far apart.
fn relative_gap(a: f64, b: f64) -> f64 {
    if !a.is_finite() || !b.is_finite() || b == 0.0 {
        return f64::INFINITY;
    }
    (a - b).abs() / b.abs()
}

/// The sanity screen for a Monte Carlo estimate: every statistic finite,
/// the MTTF positive, dispersion non-negative, `min ≤ mean ≤ max`, and at
/// least one trial.
fn is_sane(est: &MttfEstimate) -> bool {
    let s = &est.ttf_seconds;
    [est.mttf.as_secs(), s.mean, s.std_dev, s.ci95, s.min, s.max].iter().all(|v| v.is_finite())
        && est.mttf.as_secs() > 0.0
        && s.ci95 >= 0.0
        && s.std_dev >= 0.0
        && s.min <= s.mean
        && s.mean <= s.max
        && s.count > 0
}

/// Trace-integrity repair for a compiled trace whose bytes can have changed
/// since its compile: a cache hit, or an injected fault. Checks
/// `compiled(&held)` with [`CompiledTrace::verify`]; if the check fails,
/// replaces `held` with `rebuild()` and floors the tag at
/// [`Provenance::Retried`]. A fresh compile needs no check.
///
/// # Errors
///
/// Propagates `rebuild`'s error.
pub fn verify_or_rebuild<T>(
    held: T,
    compiled: impl Fn(&T) -> &CompiledTrace,
    rebuild: impl FnOnce() -> Result<T, SerrError>,
) -> Result<(T, Provenance), SerrError> {
    if compiled(&held).verify().is_ok() {
        Ok((held, Provenance::Clean))
    } else {
        Ok((rebuild()?, Provenance::Retried))
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

    /// The stage a pass of this reference records.
    fn stage(self) -> &'static str {
        match self {
            Reference::Renewal => "renewal_quadrature",
            Reference::SoftArch => "softarch",
        }
    }
}

/// The rates each [`Reference`] prices for component rows: every rate, for
/// both. The lists do not depend on the Monte Carlo estimates, so a sweep
/// can price them while its Monte Carlo runs.
pub(crate) fn component_reference_rates(rates: &[RawErrorRate]) -> [Vec<RawErrorRate>; 2] {
    [rates.to_vec(), rates.to_vec()]
}

/// The rates each [`Reference`] prices for systems of `cs[k]` identical
/// components at `component_rates[k]` (those with `c > 0`): renewal at
/// every component rate, then at every system rate `c·λ`; SoftArch at
/// every system rate.
pub(crate) fn system_reference_rates(
    component_rates: &[RawErrorRate],
    cs: &[u64],
) -> [Vec<RawErrorRate>; 2] {
    let priced: Vec<(RawErrorRate, RawErrorRate)> = component_rates
        .iter()
        .zip(cs)
        .filter(|(_, &c)| c > 0)
        .map(|(&rate, &c)| (rate, rate.scale(c as f64)))
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
        // The SOFR step's error is not the row's provenance: Monte Carlo,
        // renewal and SoftArch still vouch for each other.
        assert_eq!((small.provenance, large.provenance), (Provenance::Clean, Provenance::Clean));
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
        assert_eq!(v.provenance, Provenance::Clean);
    }

    #[test]
    fn observer_records_per_stage_wall_time() {
        let (obs, sink) = Obs::memory();
        let trace = IntervalTrace::busy_idle(3_000, 7_000).unwrap();
        let v = validator().with_observer(obs.clone());
        v.component(&trace, RawErrorRate::per_year(10.0)).unwrap();
        let snap = obs.metrics().snapshot();
        // The sampler names its stages `sweep_shared` and `sweep_point` for
        // one rate as for many.
        for stage in [
            "stage.renewal_quadrature_ms",
            "stage.softarch_ms",
            "stage.trace_compile_ms",
            "stage.sweep_shared_ms",
            "stage.sweep_point_ms",
        ] {
            let h = snap.histograms.get(stage).unwrap_or_else(|| panic!("missing {stage}"));
            assert_eq!(h.count(), 1, "{stage} should be timed exactly once");
        }
        // The shared sink carries the engine's convergence telemetry too.
        assert!(!sink.events_of("mc.chunk").is_empty());
    }

    #[test]
    fn verdict_maps_the_sanity_screen_and_the_checks_to_tags() {
        let trace = IntervalTrace::busy_idle(3_000, 7_000).unwrap();
        let row = validator().component(&trace, RawErrorRate::per_year(10.0)).unwrap();
        let (mc, renewal, softarch) = (row.mttf_mc, row.mttf_renewal, row.mttf_softarch);
        assert_eq!(row.provenance, Provenance::Clean);
        assert_eq!(verdict(&mc, renewal, softarch), Provenance::Clean);
        let mut truncated = mc;
        truncated.truncated = true;
        assert_eq!(verdict(&truncated, renewal, softarch), Provenance::Degraded);
        let mut poisoned = mc;
        poisoned.ttf_seconds.mean = f64::NAN;
        assert_eq!(verdict(&poisoned, renewal, softarch), Provenance::Suspect);
        let mut disordered = mc;
        disordered.ttf_seconds.min = disordered.ttf_seconds.max * 2.0;
        assert_eq!(verdict(&disordered, renewal, softarch), Provenance::Suspect);
        // Monte Carlo off renewal: Degraded while SoftArch vouches for
        // renewal, Suspect when nothing does.
        let far = Mttf::from_secs(renewal.as_secs() * 1.5);
        assert_eq!(verdict(&mc, far, far), Provenance::Degraded);
        assert_eq!(verdict(&mc, far, softarch), Provenance::Suspect);
        // SoftArch off renewal alone floors the row at Degraded.
        let off = Mttf::from_secs(softarch.as_secs() * 1.05);
        assert_eq!(verdict(&mc, renewal, off), Provenance::Degraded);
        // Honest noise inside 4·CI95 is not flagged, even past 2%.
        let band = mc_tolerance(mc.relative_ci95());
        assert!(0.9 * band > REL_TOL, "band {band} is not CI-driven at this trial count");
        let noisy = Mttf::from_secs(mc.mttf.as_secs() / (1.0 + 0.9 * band));
        assert_eq!(verdict(&mc, noisy, noisy), Provenance::Clean);
    }

    #[test]
    fn a_poisoned_softarch_is_quarantined_to_degraded() {
        use serr_inject::{FaultKind, FaultPlan};
        let trace = IntervalTrace::busy_idle(3_000, 7_000).unwrap();
        let rate = RawErrorRate::per_year(10.0);
        let plan = FaultPlan::new(5, FaultKind::RatePoison);
        let factor = plan.rate_poison_factor().unwrap();
        assert!(factor >= 1.5, "poison factor {factor} too small to detect");
        let cfg = MonteCarloConfig { trials: 30_000, ..Default::default() };
        let clean = Validator::new(Frequency::base(), cfg).component(&trace, rate).unwrap();
        let cfg = MonteCarloConfig { chaos: Some(plan), ..cfg };
        let poisoned = Validator::new(Frequency::base(), cfg).component(&trace, rate).unwrap();
        assert_eq!(poisoned.provenance, Provenance::Degraded);
        assert_eq!(
            poisoned.mttf_softarch.as_secs().to_bits(),
            (clean.mttf_softarch.as_secs() * factor).to_bits()
        );
        // The Monte Carlo answer and the renewal reference are untouched.
        assert_eq!(
            poisoned.mttf_mc.mttf.as_secs().to_bits(),
            clean.mttf_mc.mttf.as_secs().to_bits()
        );
        assert_eq!(poisoned.mttf_renewal, clean.mttf_renewal);
    }

    #[test]
    fn a_failed_verify_rebuilds_and_floors_at_retried() {
        let trace = IntervalTrace::busy_idle(3_000, 7_000).unwrap();
        let compile = || serr_mc::compile_for_sampling(&trace);
        let (_, tag) = verify_or_rebuild(compile().unwrap(), |c| c, || panic!("verifies")).unwrap();
        assert_eq!(tag, Provenance::Clean);
        let mut bad = compile().unwrap();
        bad.chaos_flip_dominant_value_bit(51);
        let (fixed, tag) = verify_or_rebuild(bad, |c| c, compile).unwrap();
        assert_eq!(tag, Provenance::Retried);
        assert!(fixed.verify().is_ok());
    }

    /// Every answer a trace gives that a corrupted compile could leak
    /// into: its spans, the cumulative vulnerability at each span end, a
    /// point query inside each span, and its AVF, as bit patterns.
    fn answers(t: &dyn VulnerabilityTrace) -> Vec<u64> {
        let mut bits = vec![t.avf().to_bits()];
        let mut start = 0;
        for (end, v) in t.spans() {
            let at = t.vulnerability_at(start).to_bits();
            bits.extend([end, v.to_bits(), at, t.cumulative_within_period(end).to_bits()]);
            start = end;
        }
        bits
    }

    #[test]
    fn chaos_injectors_write_copy_on_write() {
        let levels: Vec<f64> = (0..600).map(|i| f64::from((i * 7) % 5) / 4.0).collect();
        let unit = IntervalTrace::from_levels(&levels).unwrap();
        let other = IntervalTrace::busy_idle(200, 400).unwrap();
        let composite = serr_trace::CompositeTrace::new(vec![
            (1.0, Arc::new(unit.clone()) as Arc<dyn VulnerabilityTrace>),
            (3.0, Arc::new(other) as Arc<dyn VulnerabilityTrace>),
        ])
        .unwrap();
        let sources: [&dyn VulnerabilityTrace; 2] = [&unit, &composite];
        let injectors: [(&str, fn(&mut CompiledTrace)); 3] = [
            ("value bit flip", |c| c.chaos_flip_dominant_value_bit(51)),
            ("prefix perturbation", |c| c.chaos_perturb_prefix(3, 0.05)),
            ("consistent scale", |c| c.chaos_scale_dominant_value(0.25)),
        ];
        for source in sources {
            let before = answers(source);
            let clean = serr_mc::compile_for_sampling(source).unwrap();
            let compiled = answers(&clean);
            for (name, inject) in injectors {
                let mut bad = clean.clone();
                inject(&mut bad);
                assert_ne!(answers(&bad), compiled, "{name} changed nothing");
                assert_eq!(answers(source), before, "{name} reached the source");
                assert_eq!(answers(&clean), compiled, "{name} reached a sibling compile");
                let rebuild = || serr_mc::compile_for_sampling(source);
                assert!(rebuild().unwrap().verify().is_ok(), "{name}: the rebuild fails verify");
                let (fixed, _) = verify_or_rebuild(bad, |c| c, rebuild).unwrap();
                if name != "consistent scale" {
                    assert_eq!(
                        answers(&fixed),
                        compiled,
                        "{name}: repair is not the clean compile"
                    );
                }
            }
        }
    }

    #[test]
    fn rejects_degenerate_systems() {
        let v = validator();
        let t: Arc<dyn VulnerabilityTrace> = Arc::new(IntervalTrace::busy_idle(1, 1).unwrap());
        assert!(v.system_identical(t, RawErrorRate::per_year(1.0), 0).is_err());
        assert!(v.system_parts(&[]).is_err());
    }
}
