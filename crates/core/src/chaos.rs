//! Deterministic chaos campaigns over the estimator stack.
//!
//! A *campaign* arms one [`FaultPlan`] — a seed plus a [`FaultKind`] — and
//! runs the stack end to end under it: the production estimation path —
//! one shared-stream Monte Carlo kernel call and one rate-list
//! [`Validator`] call, whose rows carry their own provenance verdict — for
//! the estimator-level faults (trace corruption, worker panics, injected
//! deadline exhaustion, reference poisoning) and checkpoint/cache probes
//! for the on-disk faults (journal corruption, lock contention, simulated
//! I/O errors, trace-cache corruption). Every campaign yields a
//! [`CampaignOutcome`] whose [`Provenance`] tag says how the stack coped,
//! and a **miss** flag for the one unacceptable result: output tagged
//! [`Provenance::Clean`] that deviates from the fault-free golden answer.
//!
//! Every injection decision is a pure function of the plan's seed, so the
//! same [`ChaosConfig`] reproduces the identical campaign sequence and
//! outcome tags at any thread count.

use std::fs;
use std::path::PathBuf;
use std::sync::{Arc, Once};

use serr_inject::rng::{mix, unit};
use serr_inject::{FaultKind, FaultPlan, StoreFault, TraceFault};
use serr_mc::{compile_for_sampling, MonteCarloConfig, MttfEstimate};
use serr_obs::{Event, Obs};
use serr_trace::{CompiledTrace, IntervalTrace, Transform, TransformPipeline, VulnerabilityTrace};
use serr_types::{panic_payload_string, Frequency, Provenance, RawErrorRate, SerrError};

use crate::checkpoint::{self, Journal, JournalRow, SweepOptions};
use crate::jsonio::Json;
use crate::pipeline;
use crate::validate::{mc_tolerance, verify_or_rebuild, ComponentValidation, Validator};

/// Configuration of one chaos run (a sequence of campaigns).
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Number of campaigns to run.
    pub campaigns: usize,
    /// Master seed; campaign `i` derives its plan seed as `mix(seed, i)`.
    pub seed: u64,
    /// Monte Carlo trials per estimate.
    pub trials: u64,
    /// Monte Carlo worker threads (`0` = all cores). Outcome tags are
    /// invariant to this by construction.
    pub threads: usize,
    /// Fault kinds to cycle through (campaign `i` uses `kinds[i % len]`).
    pub kinds: Vec<FaultKind>,
    /// Scratch directory for the on-disk fault probes. `None` uses a
    /// process-unique directory under the system temp dir.
    pub scratch_dir: Option<PathBuf>,
    /// Observer receiving one `chaos.verdict` event per campaign (sequenced
    /// by campaign index) plus campaign/miss counters. `None` routes to the
    /// process-global observer.
    pub obs: Option<Obs>,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            campaigns: 200,
            seed: 0xC4A0_5CA0_0000_0001,
            trials: 3_000,
            threads: 0,
            kinds: FaultKind::CORE.to_vec(),
            scratch_dir: None,
            obs: None,
        }
    }
}

/// One campaign's result.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// Campaign index within the run.
    pub campaign: usize,
    /// The injected fault kind.
    pub kind: FaultKind,
    /// The plan seed (replays the campaign exactly).
    pub seed: u64,
    /// How the stack coped (the detect-or-degrade tag).
    pub outcome: Provenance,
    /// The Monte Carlo MTTF at the campaign rate, for estimator-level
    /// campaigns whose estimate did not fail.
    pub mttf_seconds: Option<f64>,
    /// Largest relative deviation of any point from its fault-free golden
    /// MTTF.
    pub deviation: Option<f64>,
    /// `true` iff the output was tagged [`Provenance::Clean`] yet deviates
    /// from the golden answer (or an on-disk probe silently returned wrong
    /// data) — the invariant violation the harness exists to catch.
    pub miss: bool,
    /// One-line human-readable account.
    pub detail: String,
}

impl CampaignOutcome {
    /// The outcome as one JSONL record.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("campaign".to_owned(), Json::Num(self.campaign as f64)),
            ("kind".to_owned(), Json::Str(self.kind.label().to_owned())),
            ("seed".to_owned(), Json::Str(format!("{:#018x}", self.seed))),
            ("outcome".to_owned(), Json::Str(self.outcome.label().to_owned())),
            ("miss".to_owned(), Json::Bool(self.miss)),
            ("detail".to_owned(), Json::Str(self.detail.clone())),
        ];
        if let Some(m) = self.mttf_seconds {
            fields.push(("mttf_seconds".to_owned(), Json::Num(m)));
        }
        if let Some(d) = self.deviation {
            fields.push(("deviation".to_owned(), Json::Num(d)));
        }
        Json::Obj(fields)
    }
}

/// The aggregate result of a chaos run.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The fault-free golden MTTF in seconds.
    pub golden_mttf_seconds: f64,
    /// The golden estimate's relative 95% confidence half-width.
    pub golden_rel_ci95: f64,
    /// Per-campaign outcomes, in campaign order.
    pub outcomes: Vec<CampaignOutcome>,
}

impl ChaosReport {
    /// Campaigns whose outcome carries the given tag.
    #[must_use]
    pub fn count(&self, tag: Provenance) -> usize {
        self.outcomes.iter().filter(|o| o.outcome == tag).count()
    }

    /// Campaigns that violated the detect-or-degrade invariant.
    #[must_use]
    pub fn misses(&self) -> usize {
        self.outcomes.iter().filter(|o| o.miss).count()
    }

    /// `true` iff no campaign produced a silently wrong result.
    #[must_use]
    pub fn is_sound(&self) -> bool {
        self.misses() == 0
    }
}

/// The fixed campaign workload: a 64-cycle loop of 16 fully-vulnerable,
/// 16 half-vulnerable, and 32 idle cycles. The first segment carries two
/// thirds of the vulnerability mass, so consistent-corruption faults move
/// the MTTF far beyond any acceptance tolerance.
///
/// # Panics
///
/// Never — the levels are valid by construction.
#[must_use]
pub fn campaign_trace() -> IntervalTrace {
    let mut levels = vec![1.0; 16];
    levels.extend(std::iter::repeat_n(0.5, 16));
    levels.extend(std::iter::repeat_n(0.0, 32));
    IntervalTrace::from_levels(&levels).expect("campaign levels are valid")
}

/// The protection-transformed campaign workload the
/// [`FaultKind::TraceTransform`] campaigns attack: [`campaign_trace`] run
/// through a fixed scrub + SEC-DED pipeline. The scrub staircase fans the
/// 3-segment loop out into dozens of fractional-valued segments, so the
/// verifier and cross-engine votes are exercised on exactly the trace
/// shapes the `--protect` path produces.
///
/// # Panics
///
/// Never — the fixed pipeline is valid for the fixed campaign trace.
#[must_use]
pub fn transformed_campaign_trace() -> IntervalTrace {
    let pipeline = TransformPipeline::new(vec![
        Transform::Scrub { interval_cycles: 16 },
        Transform::EccSecDed { word_bits: 8 },
    ]);
    pipeline.apply_interval(&campaign_trace()).expect("fixed campaign pipeline is valid")
}

/// Suppresses the default panic-hook backtrace for *injected* chaos panics
/// (their payload starts with `chaos: injected`), chaining every other
/// panic to the previously installed hook. Installed at most once per
/// process; campaigns would otherwise spam stderr with expected panics.
pub fn install_chaos_panic_filter() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = panic_payload_string(info.payload()).contains("chaos: injected");
            if !injected {
                prev(info);
            }
        }));
    });
}

/// A tiny deterministic row for the on-disk fault probes.
#[derive(Debug, Clone, PartialEq)]
struct ProbeRow {
    idx: u64,
    value: f64,
}

impl JournalRow for ProbeRow {
    fn to_journal(&self) -> Json {
        Json::Obj(vec![
            ("idx".to_owned(), Json::Num(self.idx as f64)),
            ("value".to_owned(), Json::Num(self.value)),
        ])
    }
    fn from_journal(v: &Json) -> Option<Self> {
        Some(ProbeRow { idx: v.get("idx")?.as_u64()?, value: v.get("value")?.as_f64()? })
    }
}

/// Pure probe evaluator: the row depends only on `(seed, i)`.
fn probe_eval(seed: u64, i: usize) -> ProbeRow {
    ProbeRow { idx: i as u64, value: unit(mix(&[seed, i as u64])).mul_add(0.9, 0.05) }
}

const PROBE_POINTS: usize = 6;

/// Runs the configured chaos campaigns and reports every outcome.
///
/// # Errors
///
/// Environmental failures only: an unusable scratch directory, or a golden
/// (fault-free) baseline that is itself not [`Provenance::Clean`] — both
/// mean the harness, not the stack under test, is broken. Injected faults
/// never surface as errors; they land in the outcome tags.
pub fn run_chaos(cfg: &ChaosConfig) -> Result<ChaosReport, SerrError> {
    if cfg.campaigns == 0 || cfg.kinds.is_empty() {
        return Err(SerrError::invalid_config(
            "chaos run needs at least one campaign and one fault kind",
        ));
    }
    install_chaos_panic_filter();

    let mc = MonteCarloConfig { trials: cfg.trials, threads: cfg.threads, ..Default::default() };
    let raw = Target::new(Arc::new(campaign_trace()), mc, "chaos golden baseline")?;
    // The transform campaigns attack a different workload (the transformed
    // trace), so their Clean tag is judged against its own golden baseline.
    // Computed only when the run actually includes the kind.
    let transformed = if cfg.kinds.contains(&FaultKind::TraceTransform) {
        let trace = Arc::new(transformed_campaign_trace());
        Some(Target::new(trace, mc, "chaos transformed golden baseline")?)
    } else {
        None
    };

    let scratch = cfg
        .scratch_dir
        .clone()
        .unwrap_or_else(|| std::env::temp_dir().join(format!("serr-chaos-{}", std::process::id())));

    let mut outcomes = Vec::with_capacity(cfg.campaigns);
    for campaign in 0..cfg.campaigns {
        let seed = mix(&[cfg.seed, campaign as u64]);
        let kind = cfg.kinds[campaign % cfg.kinds.len()];
        let plan = FaultPlan::new(seed, kind);
        let outcome = match kind {
            FaultKind::TraceValueFlip
            | FaultKind::TracePrefixPerturb
            | FaultKind::TraceConsistentCorrupt
            | FaultKind::ChunkPanic
            | FaultKind::DeadlineExhaust
            | FaultKind::RatePoison => raw.campaign(plan, campaign)?,
            FaultKind::TraceTransform => transformed
                .as_ref()
                .expect("computed above when the kind is present")
                .campaign(plan, campaign)?,
            FaultKind::CheckpointIo => checkpoint_io_campaign(&scratch, plan, campaign)?,
            FaultKind::JournalCorrupt => journal_corrupt_campaign(&scratch, plan, campaign)?,
            FaultKind::JournalLock => journal_lock_campaign(&scratch, plan, campaign)?,
            FaultKind::CacheCorrupt => cache_corrupt_campaign(&scratch, plan, campaign)?,
            FaultKind::StoreTornTail
            | FaultKind::StoreBitFlip
            | FaultKind::StoreHeaderCorrupt
            | FaultKind::StoreStaleVersion => store_fault_campaign(&scratch, plan, campaign)?,
            // The serve-layer kinds need a running service to mean
            // anything; the request soak in `serr-serve` injects them.
            kind if kind.is_serve() => {
                return Err(SerrError::invalid_config(format!(
                    "fault kind {kind} targets the serving layer; run the serr-serve chaos \
                     soak instead of an estimator campaign"
                )))
            }
            kind => {
                return Err(SerrError::invalid_config(format!(
                    "fault kind {kind} has no estimator campaign"
                )))
            }
        };
        emit_verdict(cfg.obs.as_ref().unwrap_or_else(|| serr_obs::global()), &outcome);
        outcomes.push(outcome);
    }
    let obs = cfg.obs.as_ref().unwrap_or_else(|| serr_obs::global());
    obs.metrics().add("chaos.campaigns", outcomes.len() as u64);
    obs.metrics().add("chaos.misses", outcomes.iter().filter(|o| o.miss).count() as u64);
    let _ = fs::remove_dir_all(&scratch);

    let golden = &raw.golden[0];
    Ok(ChaosReport {
        golden_mttf_seconds: golden.mttf.as_secs(),
        golden_rel_ci95: golden.relative_ci95(),
        outcomes,
    })
}

/// One typed `chaos.verdict` event per campaign, sequenced by campaign
/// index — the same deterministic key at any thread count. A miss (the
/// detect-or-degrade invariant violated) is the only warning-level verdict.
fn emit_verdict(obs: &Obs, o: &CampaignOutcome) {
    let seq = o.campaign as u64;
    let mut ev =
        if o.miss { Event::warn("chaos.verdict", seq) } else { Event::new("chaos.verdict", seq) };
    ev = ev
        .with("kind", o.kind.label())
        .with("outcome", o.outcome.label())
        .with("miss", o.miss)
        .with("detail", o.detail.clone());
    if let Some(m) = o.mttf_seconds {
        ev = ev.with("mttf_s", m);
    }
    obs.emit(ev);
}

/// Applies a plan's trace fault, if it has one, to a compiled trace.
fn inject_trace_fault(compiled: &mut CompiledTrace, plan: Option<FaultPlan>) {
    match plan.and_then(|p| p.trace_fault()) {
        Some(TraceFault::ValueBitFlip { bit }) => compiled.chaos_flip_dominant_value_bit(bit),
        Some(TraceFault::PrefixPerturb { selector, delta_frac }) => {
            compiled.chaos_perturb_prefix(selector, delta_frac);
        }
        Some(TraceFault::ConsistentScale { factor }) => compiled.chaos_scale_dominant_value(factor),
        None => {}
    }
}

/// Component rows for every rate in `rates` on `trace`, by the production
/// path with `plan` armed: compile the trace, apply the plan's trace fault,
/// repair the compile ([`verify_or_rebuild`]), run one shared-stream kernel
/// call over every rate ([`serr_mc::MonteCarlo::component_mttf_multi_compiled`]),
/// then one rate-list [`Validator::components_with_mc`] call, whose
/// SoftArch pass the plan may poison. A repaired compile floors every
/// row's provenance at [`Provenance::Retried`]; that floor is returned too.
///
/// # Errors
///
/// [`SerrError::InvalidTrace`] for a trace no layout can compile.
fn estimate_under(
    trace: &dyn VulnerabilityTrace,
    rates: &[RawErrorRate],
    mc: MonteCarloConfig,
    plan: Option<FaultPlan>,
) -> Result<(Vec<Result<ComponentValidation, SerrError>>, Provenance), SerrError> {
    let mut compiled = compile_for_sampling(trace)?;
    inject_trace_fault(&mut compiled, plan);
    let (compiled, floor) = verify_or_rebuild(compiled, |c| c, || compile_for_sampling(trace))?;
    let freq = Frequency::base();
    let v = Validator::new(freq, MonteCarloConfig { chaos: plan, ..mc });
    // A fault in a shared chunk is a fault in every point built on it.
    let ests = match v.monte_carlo().component_mttf_multi_compiled(&compiled, rates, freq) {
        Ok(ests) => ests,
        Err(e) => rates.iter().map(|_| Err(e.clone())).collect(),
    };
    let mut rows = v.components_with_mc(trace, rates, ests);
    for row in rows.iter_mut().flatten() {
        row.provenance = row.provenance.worse(floor);
    }
    Ok((rows, floor))
}

/// An estimator campaign's workload: a trace, the rates every campaign
/// prices on it, and the fault-free Monte Carlo estimate at each rate.
struct Target {
    trace: Arc<dyn VulnerabilityTrace>,
    rates: [RawErrorRate; 3],
    mc: MonteCarloConfig,
    golden: Vec<MttfEstimate>,
}

impl Target {
    /// Runs the fault-free baseline; `what` names it in the error a
    /// non-Clean golden row raises.
    fn new(
        trace: Arc<dyn VulnerabilityTrace>,
        mc: MonteCarloConfig,
        what: &str,
    ) -> Result<Self, SerrError> {
        // The campaign rate first (it is the one a campaign reports), then
        // its neighbours: one compiled trace feeds several design points,
        // as in a sweep's trace group.
        let rate = RawErrorRate::per_year(50.0);
        let rates = [rate, rate.scale(0.5), rate.scale(2.0)];
        let (rows, _) = estimate_under(&*trace, &rates, mc, None)?;
        let golden = rows
            .into_iter()
            .map(|row| match row? {
                r if r.provenance.is_clean() => Ok(r.mttf_mc),
                r => Err(SerrError::engine_fault(
                    what,
                    format!("fault-free row tagged {}", r.provenance),
                )),
            })
            .collect::<Result<_, _>>()?;
        Ok(Target { trace, rates, mc, golden })
    }

    /// One estimator campaign: [`estimate_under`] with the plan armed.
    ///
    /// The campaign's tag is the worst row's: a point whose estimate failed
    /// with a typed error has no number and reads [`Provenance::Degraded`]
    /// (a sweep records it as a failed point that a journal resume
    /// retries). A campaign is a miss if any Clean row sits farther from
    /// its golden estimate than twice the verdict's tolerance at the
    /// golden's CI — farther than sampling noise can explain.
    fn campaign(&self, plan: FaultPlan, campaign: usize) -> Result<CampaignOutcome, SerrError> {
        let (rows, floor) = estimate_under(&*self.trace, &self.rates, self.mc, Some(plan))?;
        let mut outcome = Provenance::Clean;
        let mut miss = false;
        let mut deviation: Option<f64> = None;
        let mut clean_points = 0_usize;
        let mut failure = None;
        for (row, golden) in rows.iter().zip(&self.golden) {
            match row {
                Ok(r) => {
                    let want = golden.mttf.as_secs();
                    let dev = (r.mttf_mc.mttf.as_secs() - want).abs() / want;
                    deviation = Some(deviation.map_or(dev, |d| d.max(dev)));
                    outcome = outcome.worse(r.provenance);
                    if r.provenance.is_clean() {
                        clean_points += 1;
                        miss |= dev > 2.0 * mc_tolerance(golden.relative_ci95());
                    }
                }
                Err(e) => {
                    outcome = outcome.worse(Provenance::Degraded);
                    failure.get_or_insert_with(|| format!("monte carlo failed: {e}"));
                }
            }
        }
        let first = rows.first().and_then(|r| r.as_ref().ok());
        let why = if !floor.is_clean() {
            "compiled trace failed verification; rebuilt from the source trace".to_owned()
        } else if let Some(failure) = failure {
            failure
        } else if outcome.is_clean() {
            "no anomalies observed".to_owned()
        } else {
            format!("row verdict {outcome}")
        };
        Ok(CampaignOutcome {
            campaign,
            kind: plan.kind,
            seed: plan.seed,
            outcome,
            mttf_seconds: first.map(|r| r.mttf_mc.mttf.as_secs()),
            deviation,
            miss,
            detail: format!("{} points ({clean_points} clean): {why}", rows.len()),
        })
    }
}

fn campaign_dir(scratch: &std::path::Path, campaign: usize) -> PathBuf {
    scratch.join(format!("c{campaign}"))
}

/// Simulated journal I/O failure: the sweep must degrade to journal-less
/// operation and still produce exactly the reference rows.
fn checkpoint_io_campaign(
    scratch: &std::path::Path,
    plan: FaultPlan,
    campaign: usize,
) -> Result<CampaignOutcome, SerrError> {
    let dir = campaign_dir(scratch, campaign);
    let seed = plan.seed;
    let reference: Vec<ProbeRow> = (0..PROBE_POINTS).map(|i| probe_eval(seed, i)).collect();
    let items: Vec<u64> = (0..PROBE_POINTS as u64).collect();
    let fp = checkpoint::fingerprint(&["chaos-io", &format!("{seed:#x}")]);
    let opts = SweepOptions::fresh().in_dir(&dir).with_chaos(plan);
    let report =
        checkpoint::run_sweep("chaos-io", fp, &items, 1, &opts, |i, _| Ok(probe_eval(seed, i)))?;
    let intact = report.rows == reference && report.failures.is_empty();
    let site = plan.io_fault_site().expect("CheckpointIo plan selects a site");
    let _ = fs::remove_dir_all(&dir);
    Ok(CampaignOutcome {
        campaign,
        kind: plan.kind,
        seed,
        outcome: if intact { Provenance::Degraded } else { Provenance::Suspect },
        mttf_seconds: None,
        deviation: None,
        miss: !intact,
        detail: format!("injected i/o fault at {site:?}; rows intact: {intact}"),
    })
}

/// On-disk journal corruption: the resumed sweep must spot the damage (a
/// failed page CRC, torn tail, or broken header) and recompute whatever
/// the valid prefix no longer covers.
fn journal_corrupt_campaign(
    scratch: &std::path::Path,
    plan: FaultPlan,
    campaign: usize,
) -> Result<CampaignOutcome, SerrError> {
    let dir = campaign_dir(scratch, campaign);
    let seed = plan.seed;
    let reference: Vec<ProbeRow> = (0..PROBE_POINTS).map(|i| probe_eval(seed, i)).collect();
    let items: Vec<u64> = (0..PROBE_POINTS as u64).collect();
    let fp = checkpoint::fingerprint(&["chaos-journal", &format!("{seed:#x}")]);

    let journal = Journal::open(&dir, "chaos-j", fp, true)?;
    for (i, row) in reference.iter().enumerate() {
        journal
            .record(i, &row.to_journal())
            .map_err(|e| SerrError::io("chaos journal record", e.to_string()))?;
    }
    drop(journal);

    let path = checkpoint::journal_path(&dir, "chaos-j", fp);
    let mut bytes =
        fs::read(&path).map_err(|e| SerrError::io("chaos journal read", e.to_string()))?;
    let corruption =
        plan.file_corruption(bytes.len()).expect("JournalCorrupt plan corrupts non-empty file");
    corruption.apply(&mut bytes);
    fs::write(&path, &bytes).map_err(|e| SerrError::io("chaos journal write", e.to_string()))?;

    let opts = SweepOptions::resume().in_dir(&dir);
    let report =
        checkpoint::run_sweep("chaos-j", fp, &items, 1, &opts, |i, _| Ok(probe_eval(seed, i)))?;
    let recovered = report.rows == reference && report.failures.is_empty();
    let detected = report.resumed < PROBE_POINTS;
    let _ = fs::remove_dir_all(&dir);
    Ok(CampaignOutcome {
        campaign,
        kind: plan.kind,
        seed,
        // Damage caught and recomputed → Retried. A truncation that lands
        // exactly on a page boundary (or at the full file length) removes
        // nothing detectable — then nothing needed recomputing and Clean
        // with matching rows is legitimate.
        outcome: if recovered && detected {
            Provenance::Retried
        } else if recovered {
            Provenance::Clean
        } else {
            Provenance::Suspect
        },
        mttf_seconds: None,
        deviation: None,
        miss: !recovered,
        detail: format!(
            "corrupted {} byte(s) at offset {}; resumed {}/{PROBE_POINTS}",
            if corruption.truncate { "tail from" } else { "1" },
            corruption.offset,
            report.resumed
        ),
    })
}

/// Applies a [`StoreFault`] to an in-memory store image, returning a
/// one-line description for the campaign detail.
fn apply_store_fault(bytes: &mut Vec<u8>, fault: StoreFault) -> String {
    use serr_store::pages::{forge_format_version, FORMAT_VERSION};
    match fault {
        StoreFault::TornTail { drop_bytes } => {
            let cut = bytes.len().saturating_sub(drop_bytes);
            bytes.truncate(cut);
            format!("tore {drop_bytes} byte(s) off the tail")
        }
        StoreFault::BitFlip { offset, xor_mask } => {
            if let Some(b) = bytes.get_mut(offset) {
                *b ^= xor_mask;
            }
            format!("xor {xor_mask:#04x} into page byte {offset}")
        }
        StoreFault::HeaderCorrupt { offset, xor_mask } => {
            if let Some(b) = bytes.get_mut(offset) {
                *b ^= xor_mask;
            }
            format!("xor {xor_mask:#04x} into header byte {offset}")
        }
        StoreFault::StaleVersion { bump } => {
            let version = FORMAT_VERSION.wrapping_add(bump);
            forge_format_version(bytes, version);
            format!("forged format version {version}")
        }
    }
}

/// Binary-container damage against a checkpoint journal: a torn tail or an
/// in-page flip must degrade resume to the valid prefix (the rest
/// recomputes); a damaged header or a foreign format version must surface
/// as a typed error that resets the journal. In every case the final rows
/// must equal the fault-free reference — a Clean-tagged deviation is the
/// miss this campaign exists to catch.
fn store_fault_campaign(
    scratch: &std::path::Path,
    plan: FaultPlan,
    campaign: usize,
) -> Result<CampaignOutcome, SerrError> {
    let dir = campaign_dir(scratch, campaign);
    let seed = plan.seed;
    let reference: Vec<ProbeRow> = (0..PROBE_POINTS).map(|i| probe_eval(seed, i)).collect();
    let items: Vec<u64> = (0..PROBE_POINTS as u64).collect();
    let fp = checkpoint::fingerprint(&["chaos-store", &format!("{seed:#x}")]);

    let journal = Journal::open(&dir, "chaos-s", fp, true)?;
    for (i, row) in reference.iter().enumerate() {
        journal
            .record(i, &row.to_journal())
            .map_err(|e| SerrError::io("chaos store record", e.to_string()))?;
    }
    drop(journal);

    let path = checkpoint::journal_path(&dir, "chaos-s", fp);
    let mut bytes =
        fs::read(&path).map_err(|e| SerrError::io("chaos store read", e.to_string()))?;
    let fault = plan
        .store_fault(bytes.len(), serr_store::pages::HEADER_LEN)
        .expect("store plans always select a fault");
    let fault_detail = apply_store_fault(&mut bytes, fault);
    fs::write(&path, &bytes).map_err(|e| SerrError::io("chaos store write", e.to_string()))?;

    // A private observer so the campaign can see whether the sweep took the
    // reset path (typed header/version error) or prefix recovery.
    let (obs, sink) = Obs::memory();
    let opts = SweepOptions::resume().in_dir(&dir).with_obs(obs);
    let report =
        checkpoint::run_sweep("chaos-s", fp, &items, 1, &opts, |i, _| Ok(probe_eval(seed, i)))?;
    let recovered = report.rows == reference && report.failures.is_empty();
    let reset = !sink.events_of("checkpoint.journal_reset").is_empty();
    let detected = reset || report.resumed < PROBE_POINTS;
    let _ = fs::remove_dir_all(&dir);
    Ok(CampaignOutcome {
        campaign,
        kind: plan.kind,
        seed,
        // Header/version damage is answered wholesale (journal reset) →
        // Degraded; page-level damage resumes the valid prefix and
        // recomputes the rest → Retried. Damage that altered nothing
        // observable (e.g. a flip in already-ignored trailing bytes) would
        // be Clean — acceptable only because the rows match the reference.
        outcome: if recovered && reset {
            Provenance::Degraded
        } else if recovered && detected {
            Provenance::Retried
        } else if recovered {
            Provenance::Clean
        } else {
            Provenance::Suspect
        },
        mttf_seconds: None,
        deviation: None,
        miss: !recovered,
        detail: format!(
            "{fault_detail}; reset: {reset}, resumed {}/{PROBE_POINTS}",
            report.resumed
        ),
    })
}

/// Lock contention: a sweep against a journal held by a live writer must
/// refuse with the typed error, never interleave.
fn journal_lock_campaign(
    scratch: &std::path::Path,
    plan: FaultPlan,
    campaign: usize,
) -> Result<CampaignOutcome, SerrError> {
    let dir = campaign_dir(scratch, campaign);
    let seed = plan.seed;
    let items: Vec<u64> = (0..PROBE_POINTS as u64).collect();
    let fp = checkpoint::fingerprint(&["chaos-lock", &format!("{seed:#x}")]);
    let held = Journal::open(&dir, "chaos-l", fp, true)?;
    let opts = SweepOptions::resume().in_dir(&dir);
    let contender =
        checkpoint::run_sweep("chaos-l", fp, &items, 1, &opts, |i, _| Ok(probe_eval(seed, i)));
    let refused = matches!(contender, Err(SerrError::JournalLocked { .. }));
    drop(held);
    let _ = fs::remove_dir_all(&dir);
    Ok(CampaignOutcome {
        campaign,
        kind: plan.kind,
        seed,
        outcome: if refused { Provenance::Degraded } else { Provenance::Suspect },
        mttf_seconds: None,
        deviation: None,
        miss: !refused,
        detail: format!("second writer refused: {refused}"),
    })
}

/// Trace-cache corruption: a damaged cache entry must be rejected by its
/// content checksum (forcing re-simulation), never decoded into wrong
/// traces.
fn cache_corrupt_campaign(
    scratch: &std::path::Path,
    plan: FaultPlan,
    campaign: usize,
) -> Result<CampaignOutcome, SerrError> {
    let dir = campaign_dir(scratch, campaign);
    fs::create_dir_all(&dir).map_err(|e| SerrError::io("chaos cache scratch", e.to_string()))?;
    // Small fixed simulation — memoized in-process, so only the first
    // cache campaign pays for it.
    let run = pipeline::simulate_benchmark("vpr", 6_000, 3)?;
    let path = dir.join("probe.bin");
    pipeline::store(&path, &run.output)
        .map_err(|e| SerrError::io("chaos cache store", e.to_string()))?;
    let mut bytes =
        fs::read(&path).map_err(|e| SerrError::io("chaos cache read", e.to_string()))?;
    let corruption =
        plan.file_corruption(bytes.len()).expect("CacheCorrupt plan corrupts non-empty file");
    corruption.apply(&mut bytes);
    fs::write(&path, &bytes).map_err(|e| SerrError::io("chaos cache write", e.to_string()))?;

    let loaded = pipeline::load(&path);
    let (outcome, miss, detail) = match loaded {
        None => (
            Provenance::Retried,
            false,
            "corrupt cache entry rejected; simulation would re-run".to_owned(),
        ),
        Some(out)
            if out.stats == run.output.stats
                && out.traces.int_unit == run.output.traces.int_unit
                && out.traces.fp_unit == run.output.traces.fp_unit
                && out.traces.decode == run.output.traces.decode
                && out.traces.regfile == run.output.traces.regfile =>
        {
            (Provenance::Clean, false, "corruption did not alter the decoded payload".to_owned())
        }
        Some(_) => (
            Provenance::Suspect,
            true,
            "corrupt cache entry decoded into different data".to_owned(),
        ),
    };
    let _ = fs::remove_dir_all(&dir);
    Ok(CampaignOutcome {
        campaign,
        kind: plan.kind,
        seed: plan.seed,
        outcome,
        mttf_seconds: None,
        deviation: None,
        miss,
        detail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(campaigns: usize, seed: u64) -> ChaosConfig {
        ChaosConfig {
            campaigns,
            seed,
            trials: 2_000,
            threads: 1,
            scratch_dir: Some(
                std::env::temp_dir().join(format!("serr-chaos-test-{}-{seed}", std::process::id())),
            ),
            ..Default::default()
        }
    }

    #[test]
    fn small_campaign_run_is_sound_and_covers_all_kinds() {
        let cfg = quick_cfg(FaultKind::CORE.len() * 2, 0xABCD);
        let report = run_chaos(&cfg).unwrap();
        assert_eq!(report.outcomes.len(), cfg.campaigns);
        assert!(
            report.is_sound(),
            "misses: {:?}",
            report.outcomes.iter().filter(|o| o.miss).collect::<Vec<_>>()
        );
        for kind in FaultKind::CORE {
            assert!(report.outcomes.iter().any(|o| o.kind == kind), "kind {kind} never ran");
        }
    }

    #[test]
    fn campaign_outcomes_replay_identically() {
        let cfg = quick_cfg(FaultKind::CORE.len(), 0x5EED);
        let a = run_chaos(&cfg).unwrap();
        let mut cfg_mt = quick_cfg(FaultKind::CORE.len(), 0x5EED);
        cfg_mt.threads = 4;
        let b = run_chaos(&cfg_mt).unwrap();
        let tags =
            |r: &ChaosReport| r.outcomes.iter().map(|o| (o.kind, o.outcome)).collect::<Vec<_>>();
        assert_eq!(tags(&a), tags(&b), "outcome tags must not depend on thread count");
    }

    #[test]
    fn every_campaign_emits_one_verdict_event() {
        let (obs, sink) = Obs::memory();
        let mut cfg = quick_cfg(FaultKind::CORE.len(), 0xE4E7);
        cfg.obs = Some(obs);
        let report = run_chaos(&cfg).unwrap();
        let verdicts = sink.events_of("chaos.verdict");
        assert_eq!(verdicts.len(), report.outcomes.len());
        for (i, (e, o)) in verdicts.iter().zip(&report.outcomes).enumerate() {
            assert_eq!(e.seq, i as u64, "verdicts sequenced by campaign index");
            let is_warn = e.level == serr_obs::Level::Warn;
            assert_eq!(is_warn, o.miss, "only misses warn");
        }
    }

    #[test]
    fn prefix_perturb_is_detected_and_verdicts_mirror_outcomes() {
        // The sampler inverts the compiled prefix table on every trial, so
        // every campaign corrupting it must be detected or degraded, and
        // each verdict event must carry its campaign's outcome tag.
        let (obs, sink) = Obs::memory();
        let cfg = ChaosConfig {
            campaigns: 8,
            seed: 0xBA7C_4A05,
            trials: 2_000,
            threads: 1,
            kinds: vec![FaultKind::TracePrefixPerturb],
            scratch_dir: Some(
                std::env::temp_dir()
                    .join(format!("serr-chaos-test-batched-{}", std::process::id())),
            ),
            obs: Some(obs),
        };
        let report = run_chaos(&cfg).unwrap();
        assert!(report.is_sound(), "prefix perturbation produced a miss");
        for o in &report.outcomes {
            assert_ne!(
                o.outcome,
                Provenance::Clean,
                "campaign {}: prefix corruption went unnoticed ({})",
                o.campaign,
                o.detail
            );
        }
        let verdicts = sink.events_of("chaos.verdict");
        assert_eq!(verdicts.len(), report.outcomes.len());
        for (e, o) in verdicts.iter().zip(&report.outcomes) {
            let tagged = e
                .fields
                .iter()
                .any(|(k, v)| *k == "outcome" && *v == serr_obs::Value::from(o.outcome.label()));
            assert!(tagged, "campaign {}: verdict outcome tag out of sync", o.campaign);
        }
    }

    #[test]
    fn trace_transform_campaigns_detect_or_degrade() {
        // Corruptions of the scrub+ECC-transformed trace must be caught by
        // the same machinery as raw-trace corruptions: no campaign may
        // return a Clean-tagged estimate that deviates from the transformed
        // golden (the detect-or-degrade invariant on the transform path).
        let mut cfg = quick_cfg(9, 0x7A_4F_0123);
        cfg.kinds = vec![FaultKind::TraceTransform];
        let report = run_chaos(&cfg).unwrap();
        assert!(
            report.is_sound(),
            "transform-path corruption slipped through: {:?}",
            report.outcomes.iter().filter(|o| o.miss).collect::<Vec<_>>()
        );
        // The fault always lands (the transformed trace always compiles),
        // so at least one campaign must have noticed something.
        assert!(
            report.outcomes.iter().any(|o| o.outcome != Provenance::Clean),
            "every transform corruption went unnoticed"
        );
    }

    #[test]
    fn shared_trace_corruption_floors_every_point_of_its_group() {
        // One corrupted compiled trace feeds every design point of its
        // group, so a detected corruption must floor every dependent point —
        // a partially clean group would be a silent corruption of some
        // points. Both kinds that attack the shared compiled trace, at 1
        // and 4 threads with identical tags.
        for kind in [FaultKind::TracePrefixPerturb, FaultKind::TraceTransform] {
            let mut cfg = quick_cfg(8, 0x5EED_0042);
            cfg.kinds = vec![kind];
            let report = run_chaos(&cfg).unwrap();
            assert!(
                report.is_sound(),
                "{kind:?}: shared-trace corruption produced a miss: {:?}",
                report.outcomes.iter().filter(|o| o.miss).collect::<Vec<_>>()
            );
            for o in &report.outcomes {
                // A verify-detectable fault is repaired (`Retried`); a
                // self-consistent scaling is caught by the row verdict
                // (`Degraded`) unless it moves the MTTF less than the
                // verdict's noise band, which the soundness check above
                // bounds.
                let fault = FaultPlan::new(o.seed, kind).trace_fault().expect("a trace fault");
                let scaled = matches!(fault, TraceFault::ConsistentScale { .. });
                if scaled && o.outcome.is_clean() {
                    continue;
                }
                let want = if scaled { Provenance::Degraded } else { Provenance::Retried };
                assert_eq!(o.outcome, want, "{kind:?} campaign {}: {}", o.campaign, o.detail);
                assert!(
                    o.detail.starts_with("3 points (0 clean)"),
                    "{kind:?} campaign {}: some dependent points stayed clean ({})",
                    o.campaign,
                    o.detail
                );
            }
            assert!(report.outcomes.iter().any(|o| !o.outcome.is_clean()), "{kind:?}: dormant");
            let mut par = cfg.clone();
            par.threads = 4;
            let par_report = run_chaos(&par).unwrap();
            let tags = |r: &ChaosReport| {
                r.outcomes.iter().map(|o| (o.outcome, o.miss)).collect::<Vec<_>>()
            };
            assert_eq!(tags(&report), tags(&par_report), "{kind:?}: tags drift across threads");
        }
    }

    fn quick_mc(threads: usize) -> MonteCarloConfig {
        MonteCarloConfig { trials: 3_000, threads, ..Default::default() }
    }

    #[test]
    fn a_healed_value_flip_reads_retried_with_golden_bits() {
        let trace = campaign_trace();
        let rates = [RawErrorRate::per_year(10.0), RawErrorRate::per_year(50.0)];
        let plan = FaultPlan::new(11, FaultKind::TraceValueFlip);
        assert!(matches!(plan.trace_fault(), Some(TraceFault::ValueBitFlip { .. })));
        let (golden, _) = estimate_under(&trace, &rates, quick_mc(1), None).unwrap();
        let (healed, floor) = estimate_under(&trace, &rates, quick_mc(1), Some(plan)).unwrap();
        assert_eq!(floor, Provenance::Retried);
        for (g, h) in golden.iter().zip(&healed) {
            let (g, h) = (g.as_ref().unwrap(), h.as_ref().unwrap());
            assert_eq!(g.provenance, Provenance::Clean);
            assert_eq!(h.provenance, Provenance::Retried);
            // The rebuilt compile is the fault-free one, bit for bit.
            assert_eq!(h.mttf_mc.mttf.as_secs().to_bits(), g.mttf_mc.mttf.as_secs().to_bits());
        }
    }

    #[test]
    fn consistent_scaling_is_never_clean() {
        // The scaled trace self-verifies, so only the Monte Carlo-versus-
        // renewal check can flag it: every point must read Degraded (the
        // two exact references still agree with each other).
        let trace = campaign_trace();
        let rates = [RawErrorRate::per_year(5.0), RawErrorRate::per_year(50.0)];
        for seed in 0..4 {
            let plan = FaultPlan::new(seed, FaultKind::TraceConsistentCorrupt);
            assert!(matches!(plan.trace_fault(), Some(TraceFault::ConsistentScale { .. })));
            let (rows, floor) = estimate_under(&trace, &rates, quick_mc(1), Some(plan)).unwrap();
            assert_eq!(floor, Provenance::Clean, "the scaled compile passes verify");
            for row in &rows {
                assert_eq!(row.as_ref().unwrap().provenance, Provenance::Degraded, "seed {seed}");
            }
        }
    }

    #[test]
    fn tiled_trace_injectors_give_the_same_verdicts_at_1_and_4_threads() {
        // The campaign trace tiled past the flat segment cap compiles to the
        // tile level, and every injector lands in the dominant part's inner
        // tables.
        let unit: Arc<dyn VulnerabilityTrace> = Arc::new(campaign_trace());
        let trace: Arc<dyn VulnerabilityTrace> =
            Arc::new(serr_trace::ConcatTrace::new(vec![(unit, 3_000_000)]).unwrap());
        assert!(CompiledTrace::compile(&*trace).is_some_and(|c| c.is_tiled()));
        let kinds = [
            FaultKind::TraceValueFlip,
            FaultKind::TracePrefixPerturb,
            FaultKind::TraceConsistentCorrupt,
        ];
        let mut verdicts_by_threads = Vec::new();
        for threads in [1usize, 4] {
            let target = Target::new(trace.clone(), quick_mc(threads), "tiled golden").unwrap();
            let mut verdicts = Vec::new();
            for kind in kinds {
                for seed in 0..4u64 {
                    let o = target.campaign(FaultPlan::new(seed, kind), 0).unwrap();
                    assert!(!o.miss, "{kind} seed {seed} at {threads} threads: {}", o.detail);
                    assert_ne!(o.outcome, Provenance::Clean, "{kind} seed {seed}: {}", o.detail);
                    verdicts.push((o.outcome, o.mttf_seconds.map(f64::to_bits)));
                }
            }
            verdicts_by_threads.push(verdicts);
        }
        assert_eq!(verdicts_by_threads[0], verdicts_by_threads[1], "verdicts moved with threads");
    }

    #[test]
    fn transformed_campaign_trace_is_protective_and_fans_out() {
        use serr_trace::VulnerabilityTrace;
        let raw = campaign_trace();
        let t = transformed_campaign_trace();
        assert_eq!(t.period_cycles(), raw.period_cycles());
        assert!(t.avf() < raw.avf(), "protection must reduce AVF");
        assert!(t.segment_count() > raw.segment_count(), "scrub staircase must fan segments out");
    }

    #[test]
    fn outcome_json_carries_the_replay_seed() {
        let o = CampaignOutcome {
            campaign: 3,
            kind: FaultKind::ChunkPanic,
            seed: 0x1234,
            outcome: Provenance::Retried,
            mttf_seconds: Some(1.5e9),
            deviation: Some(0.001),
            miss: false,
            detail: "healed".to_owned(),
        };
        let j = o.to_json();
        assert_eq!(j.get("kind").unwrap().as_str(), Some("chunk-panic"));
        assert_eq!(j.get("outcome").unwrap().as_str(), Some("retried"));
        assert_eq!(j.get("seed").unwrap().as_str(), Some("0x0000000000001234"));
        assert_eq!(j.get("miss").unwrap().as_bool(), Some(false));
    }
}
