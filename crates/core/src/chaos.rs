//! Deterministic chaos campaigns over the estimator stack.
//!
//! A *campaign* arms one [`FaultPlan`] — a seed plus a [`FaultKind`] — and
//! runs the stack end to end under it: guarded MTTF estimation for the
//! estimator-level faults (trace corruption, worker panics, injected
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
use std::sync::Once;

use serr_inject::rng::{mix, unit};
use serr_inject::{FaultKind, FaultPlan, StoreFault};
use serr_mc::SamplerKind;
use serr_obs::{Event, Obs};
use serr_trace::{IntervalTrace, Transform, TransformPipeline};
use serr_types::{Frequency, Provenance, RawErrorRate, SerrError};

use crate::checkpoint::{self, Journal, JournalRow, SweepOptions};
use crate::guard::{Guard, GuardPolicy};
use crate::jsonio::Json;
use crate::pipeline;

/// Configuration of one chaos run (a sequence of campaigns).
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Number of campaigns to run.
    pub campaigns: usize,
    /// Master seed; campaign `i` derives its plan seed as `mix(seed, i)`.
    pub seed: u64,
    /// Monte Carlo trials per guarded estimate.
    pub trials: u64,
    /// Monte Carlo worker threads (`0` = all cores). Outcome tags are
    /// invariant to this by construction.
    pub threads: usize,
    /// Which time-to-failure sampler the guarded campaigns run. The default
    /// mirrors production ([`SamplerKind::BatchedInversion`]), which
    /// *reads* the compiled prefix table that
    /// [`FaultKind::TracePrefixPerturb`] corrupts.
    pub sampler: SamplerKind,
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
            sampler: SamplerKind::default(),
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
    /// The guarded MTTF, for estimator-level campaigns.
    pub mttf_seconds: Option<f64>,
    /// Relative deviation from the fault-free golden MTTF.
    pub deviation: Option<f64>,
    /// `true` iff the output was tagged [`Provenance::Clean`] yet deviates
    /// from the golden answer (or an on-disk probe silently returned wrong
    /// data) — the invariant violation the harness exists to catch.
    pub miss: bool,
    /// The sampler that produced the accepted Monte Carlo estimate —
    /// `None` for on-disk probes and for campaigns where the guard
    /// degraded without accepting any estimate. Recorded so a logged
    /// verdict says which sampling code path was under attack.
    pub sampler: Option<SamplerKind>,
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
        if let Some(k) = self.sampler {
            fields.push(("sampler".to_owned(), Json::Str(k.label().to_owned())));
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
            let payload = info.payload();
            let injected = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .is_some_and(|s| s.contains("chaos: injected"));
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

    let trace = campaign_trace();
    let rate = RawErrorRate::per_year(50.0);
    let mc = serr_mc::MonteCarloConfig {
        trials: cfg.trials,
        threads: cfg.threads,
        sampler: cfg.sampler,
        ..Default::default()
    };
    let guard = Guard::new(Frequency::base(), mc);

    // The fault-free golden baseline the Clean tag is judged against.
    let golden = guard.component_mttf(&trace, rate, None)?;
    if golden.provenance != Provenance::Clean {
        return Err(SerrError::engine_fault(
            "chaos golden baseline",
            format!("fault-free run tagged {}: {:?}", golden.provenance, golden.notes),
        ));
    }
    let golden_mttf = golden.mttf.as_secs();
    let golden_ci = golden.mc.map_or(0.0, |e| e.relative_ci95());
    let policy = *guard.policy();
    // A Clean-tagged result farther from golden than twice the combined
    // acceptance band cannot be explained by sampling noise: it is a miss.
    let miss_tol = 2.0 * policy.ci_mult.mul_add(golden_ci, policy.rel_tol);

    // The trace-corruption kinds alternate between the single-point guard
    // and the shared-stream sweep-kernel path
    // (`Guard::component_mttf_multi`), so every corruption is also fired
    // at the path where one compiled trace feeds many design points — the
    // invariant under attack there is that the corruption degrades *every*
    // dependent point, never a silently clean subset.
    let sweep_rates = [rate.scale(0.5), rate, rate.scale(2.0)];
    let golden_sweep = sweep_golden(&guard, &trace, &sweep_rates, &policy, "chaos sweep golden")?;

    // The transform campaigns attack a different workload (the transformed
    // trace), so their Clean tag is judged against its own golden baseline.
    // Computed only when the run actually includes the kind.
    let transformed = if cfg.kinds.contains(&FaultKind::TraceTransform) {
        let trace = transformed_campaign_trace();
        let golden = guard.component_mttf(&trace, rate, None)?;
        if golden.provenance != Provenance::Clean {
            return Err(SerrError::engine_fault(
                "chaos transformed golden baseline",
                format!("fault-free run tagged {}: {:?}", golden.provenance, golden.notes),
            ));
        }
        let ci = golden.mc.map_or(0.0, |e| e.relative_ci95());
        let tol = 2.0 * policy.ci_mult.mul_add(ci, policy.rel_tol);
        let sweep =
            sweep_golden(&guard, &trace, &sweep_rates, &policy, "chaos transformed sweep golden")?;
        Some((trace, golden.mttf.as_secs(), tol, sweep))
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
        // Odd trace-corruption campaigns take the sweep-kernel path: the
        // parity is a pure function of the campaign index, so the schedule
        // replays identically at any thread count.
        let sweep_path = campaign % 2 == 1;
        let outcome = match kind {
            FaultKind::TraceValueFlip
            | FaultKind::TracePrefixPerturb
            | FaultKind::TraceConsistentCorrupt
                if sweep_path =>
            {
                guarded_sweep_campaign(&guard, &trace, &sweep_rates, plan, campaign, &golden_sweep)?
            }
            FaultKind::TraceValueFlip
            | FaultKind::TracePrefixPerturb
            | FaultKind::TraceConsistentCorrupt
            | FaultKind::ChunkPanic
            | FaultKind::DeadlineExhaust
            | FaultKind::RatePoison => {
                guarded_campaign(&guard, &trace, rate, plan, campaign, golden_mttf, miss_tol)?
            }
            FaultKind::TraceTransform => {
                let (t, t_golden, t_tol, t_sweep) =
                    transformed.as_ref().expect("computed above when the kind is present");
                if sweep_path {
                    guarded_sweep_campaign(&guard, t, &sweep_rates, plan, campaign, t_sweep)?
                } else {
                    guarded_campaign(&guard, t, rate, plan, campaign, *t_golden, *t_tol)?
                }
            }
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

    Ok(ChaosReport { golden_mttf_seconds: golden_mttf, golden_rel_ci95: golden_ci, outcomes })
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
    if let Some(k) = o.sampler {
        ev = ev.with("sampler", k.label());
    }
    obs.emit(ev);
}

/// An estimator-level campaign: the guard runs under the plan and its own
/// provenance tag is the verdict.
fn guarded_campaign(
    guard: &Guard,
    trace: &IntervalTrace,
    rate: RawErrorRate,
    plan: FaultPlan,
    campaign: usize,
    golden_mttf: f64,
    miss_tol: f64,
) -> Result<CampaignOutcome, SerrError> {
    let g = guard.component_mttf(trace, rate, Some(plan))?;
    let mttf = g.mttf.as_secs();
    let deviation = (mttf - golden_mttf).abs() / golden_mttf;
    let miss = g.provenance == Provenance::Clean && deviation > miss_tol;
    Ok(CampaignOutcome {
        campaign,
        kind: plan.kind,
        seed: plan.seed,
        outcome: g.provenance,
        mttf_seconds: Some(mttf),
        deviation: Some(deviation),
        miss,
        sampler: g.mc.map(|e| e.sampler),
        detail: g.notes.last().cloned().unwrap_or_else(|| "no anomalies observed".to_owned()),
    })
}

/// Fault-free baseline for the sweep-kernel campaigns: one guarded
/// shared-stream run over every campaign rate, each point required Clean,
/// returned as `(golden mttf seconds, miss tolerance)` per point.
fn sweep_golden(
    guard: &Guard,
    trace: &IntervalTrace,
    rates: &[RawErrorRate],
    policy: &GuardPolicy,
    what: &str,
) -> Result<Vec<(f64, f64)>, SerrError> {
    let golden = guard.component_mttf_multi(trace, rates, None)?;
    golden
        .iter()
        .map(|g| {
            if g.provenance != Provenance::Clean {
                return Err(SerrError::engine_fault(
                    what,
                    format!("fault-free sweep point tagged {}: {:?}", g.provenance, g.notes),
                ));
            }
            let ci = g.mc.as_ref().map_or(0.0, |e| e.relative_ci95());
            Ok((g.mttf.as_secs(), 2.0 * policy.ci_mult.mul_add(ci, policy.rel_tol)))
        })
        .collect()
}

/// One campaign against the shared-stream sweep kernel: the fault plan is
/// armed while `Guard::component_mttf_multi` evaluates every rate off one
/// shared compiled trace and one shared RNG stream.
///
/// The aggregate tag is the WORST per-point provenance — a corruption of
/// the shared trace must degrade every dependent point, so a campaign is a
/// miss if ANY point comes back Clean-tagged yet deviates from its own
/// golden baseline beyond tolerance.
fn guarded_sweep_campaign(
    guard: &Guard,
    trace: &IntervalTrace,
    rates: &[RawErrorRate],
    plan: FaultPlan,
    campaign: usize,
    golden: &[(f64, f64)],
) -> Result<CampaignOutcome, SerrError> {
    let points = guard.component_mttf_multi(trace, rates, Some(plan))?;
    let mut outcome = Provenance::Clean;
    let mut miss = false;
    let mut max_deviation = 0.0_f64;
    let mut sampler = None;
    let mut clean_points = 0_usize;
    let mut note = None;
    for (g, &(golden_mttf, miss_tol)) in points.iter().zip(golden) {
        let deviation = (g.mttf.as_secs() - golden_mttf).abs() / golden_mttf;
        max_deviation = max_deviation.max(deviation);
        outcome = outcome.worse(g.provenance);
        if g.provenance == Provenance::Clean {
            clean_points += 1;
            if deviation > miss_tol {
                miss = true;
            }
        }
        if let Some(e) = &g.mc {
            sampler = Some(e.sampler);
        }
        if note.is_none() {
            note = g.notes.last().cloned();
        }
    }
    Ok(CampaignOutcome {
        campaign,
        kind: plan.kind,
        seed: plan.seed,
        outcome,
        mttf_seconds: points.first().map(|g| g.mttf.as_secs()),
        deviation: Some(max_deviation),
        miss,
        sampler,
        detail: format!(
            "sweep-kernel path over {} points ({clean_points} clean): {}",
            rates.len(),
            note.unwrap_or_else(|| "no anomalies observed".to_owned())
        ),
    })
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
        sampler: None,
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
        sampler: None,
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
        sampler: None,
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
        sampler: None,
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
        sampler: None,
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
    fn prefix_perturb_under_batched_inversion_is_detected_and_tagged() {
        // The batched sampler reads the same corrupted prefix table as the
        // scalar one; the guard must detect or degrade every campaign, and
        // accepted estimates must carry the batched-inversion sampler tag
        // in both the outcome record and the verdict event.
        let (obs, sink) = Obs::memory();
        let cfg = ChaosConfig {
            campaigns: 8,
            seed: 0xBA7C_4A05,
            trials: 2_000,
            threads: 1,
            sampler: SamplerKind::BatchedInversion,
            kinds: vec![FaultKind::TracePrefixPerturb],
            scratch_dir: Some(
                std::env::temp_dir()
                    .join(format!("serr-chaos-test-batched-{}", std::process::id())),
            ),
            obs: Some(obs),
        };
        let report = run_chaos(&cfg).unwrap();
        assert!(report.is_sound(), "prefix perturbation produced a miss under batched inversion");
        for o in &report.outcomes {
            assert_ne!(
                o.outcome,
                Provenance::Clean,
                "campaign {}: prefix corruption went unnoticed ({})",
                o.campaign,
                o.detail
            );
            // An accepted estimate under this config can only have come
            // from the batched sampler (the campaign trace always
            // compiles); campaigns that degraded past every attempt
            // accepted none and carry no tag.
            if let Some(k) = o.sampler {
                assert_eq!(k, SamplerKind::BatchedInversion);
            }
        }
        // Verdict events mirror the tag.
        let verdicts = sink.events_of("chaos.verdict");
        assert_eq!(verdicts.len(), report.outcomes.len());
        for (e, o) in verdicts.iter().zip(&report.outcomes) {
            let tagged = e
                .fields
                .iter()
                .any(|(k, v)| *k == "sampler" && *v == serr_obs::Value::from("batched-inversion"));
            assert_eq!(
                tagged,
                o.sampler == Some(SamplerKind::BatchedInversion),
                "campaign {}: verdict sampler tag out of sync",
                o.campaign
            );
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
    fn sweep_kernel_campaigns_degrade_every_dependent_point() {
        // Satellite invariant of the shared-stream sweep kernel: one
        // corrupted shared trace feeds every design point of the sweep, so
        // every dependent point must come back non-Clean — a partially
        // clean sweep would be a silent corruption of some points. Odd
        // campaigns take the sweep-kernel path; check both corruption
        // kinds that attack the shared compiled trace.
        for kind in [FaultKind::TracePrefixPerturb, FaultKind::TraceTransform] {
            let mut cfg = quick_cfg(8, 0x5EED_0042);
            cfg.sampler = SamplerKind::BatchedInversion;
            cfg.kinds = vec![kind];
            let report = run_chaos(&cfg).unwrap();
            assert!(
                report.is_sound(),
                "{kind:?}: sweep-kernel corruption produced a miss: {:?}",
                report.outcomes.iter().filter(|o| o.miss).collect::<Vec<_>>()
            );
            let sweep: Vec<_> =
                report.outcomes.iter().filter(|o| o.detail.contains("sweep-kernel path")).collect();
            assert_eq!(sweep.len(), 4, "{kind:?}: odd campaigns must ride the sweep kernel");
            for o in &sweep {
                assert_ne!(
                    o.outcome,
                    Provenance::Clean,
                    "{kind:?} campaign {}: shared-trace corruption left the sweep clean ({})",
                    o.campaign,
                    o.detail
                );
                assert!(
                    o.detail.contains("(0 clean)"),
                    "{kind:?} campaign {}: some dependent points stayed clean ({})",
                    o.campaign,
                    o.detail
                );
            }
            // The schedule is a pure function of campaign index and seed,
            // so a parallel run must replay the identical tags.
            let mut par = cfg.clone();
            par.threads = 4;
            let par_report = run_chaos(&par).unwrap();
            let tags = |r: &ChaosReport| {
                r.outcomes.iter().map(|o| (o.outcome, o.miss)).collect::<Vec<_>>()
            };
            assert_eq!(tags(&report), tags(&par_report), "{kind:?}: tags drift across threads");
        }
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
            sampler: Some(SamplerKind::BatchedInversion),
            detail: "healed".to_owned(),
        };
        let j = o.to_json();
        assert_eq!(j.get("kind").unwrap().as_str(), Some("chunk-panic"));
        assert_eq!(j.get("outcome").unwrap().as_str(), Some("retried"));
        assert_eq!(j.get("seed").unwrap().as_str(), Some("0x0000000000001234"));
        assert_eq!(j.get("miss").unwrap().as_bool(), Some(false));
        assert_eq!(j.get("sampler").unwrap().as_str(), Some("batched-inversion"));
    }
}
