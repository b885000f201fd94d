//! Checkpoint journals and the fault-tolerant sweep runner.
//!
//! The figure sweeps (`sec5_1`, `fig5`, `fig6a/b`, `sec5_4`) can run for
//! hours at paper scale (`C = 5000`, `N×S = 1e13`, 10⁶ trials per point).
//! This module makes them restartable and panic-tolerant:
//!
//! * Each completed design point is appended to a CRC-paged binary journal
//!   (the `serr-store` container) under `target/serr-checkpoints/`
//!   (overridable via the `SERR_CHECKPOINT_DIR` environment variable),
//!   keyed by a fingerprint of the sweep kind, configuration, and point
//!   list. A re-run of the same sweep resumes from the journal, recomputing
//!   only the missing points; a *fresh* run discards the journal first.
//! * Work items run through [`crate::par::try_par_map`], so one panicking
//!   point surfaces as a [`SerrError::PointFailed`] in the report instead
//!   of aborting the sweep.
//!
//! # Journal format
//!
//! The journal is a `serr-store` page stream (`.store` extension, stream
//! kind [`serr_store::kind::CHECKPOINT_JOURNAL`]): a versioned header
//! followed by CRC-guarded pages, one page per append. Each record is a
//! varint point index followed by the row's binary JSON encoding (see
//! [`crate::binjson`]) — floats travel as raw `f64` bits, so a resumed
//! sweep reproduces **bit-identical** rows without a decimal parse on the
//! resume path. Appends are fsynced per point: a killed process loses at
//! most the point it was computing, never a recorded one.
//!
//! Damage is detect-or-degrade, never silent: a torn final page (crash
//! mid-append) is truncated away on open; an in-page flip fails that
//! page's CRC and resume falls back to the longest valid prefix (the
//! damaged page and its successors recompute); a damaged header or a
//! foreign format version is a typed error ([`SerrError::StoreCorrupt`] /
//! [`SerrError::StoreVersion`]) that [`run_sweep`] answers by resetting
//! the journal — all points recompute, with a `checkpoint.journal_reset`
//! warning — rather than trusting bytes it cannot verify.
//!
//! # Locking
//!
//! Two processes appending to one journal would interleave pages and each
//! would resume from a snapshot the other invalidates. [`Journal::open`]
//! therefore takes an advisory per-journal lock — a `<journal>.lock` file
//! created with `O_EXCL` and holding the owner's PID — and fails with
//! [`SerrError::JournalLocked`] while another live process holds it. A lock
//! left behind by a dead process (checked via `/proc`) is reclaimed
//! automatically; the lock is removed when the [`Journal`] drops.
//!
//! # Fault injection
//!
//! [`SweepOptions::chaos`] accepts a deterministic [`FaultPlan`] (see
//! `serr-inject`) that simulates journal I/O failures — an unopenable
//! journal or failing per-point appends — so the degrade paths above are
//! exercised under test exactly as a real filesystem error would.

use std::collections::BTreeMap;
use std::fs::{self, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use serr_inject::{FaultPlan, IoSite};
use serr_obs::{Event, Obs};
use serr_store::pages::PageJournal;
use serr_store::{kind as store_kind, varint};
use serr_types::SerrError;

use crate::binjson;
use crate::jsonio::Json;
use crate::par;
use crate::retry::{retry_with_backoff, BackoffPolicy};

/// Application-level schema version of the checkpoint record encoding
/// (varint point index + binary JSON row), stored in the container header.
pub const CHECKPOINT_APP: u32 = 1;

/// How a sweep interacts with its checkpoint journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckpointMode {
    /// No journal: compute everything, record nothing.
    #[default]
    Off,
    /// Resume from an existing journal (if any) and record new points.
    Resume,
    /// Discard any existing journal, then record points as they complete.
    Fresh,
}

/// Options controlling a fault-tolerant sweep run.
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Checkpoint behavior; [`CheckpointMode::Off`] by default.
    pub mode: CheckpointMode,
    /// Journal directory override. `None` uses `SERR_CHECKPOINT_DIR` or
    /// `target/serr-checkpoints`.
    pub dir: Option<PathBuf>,
    /// Deterministic fault-injection plan. `None` (the default) injects
    /// nothing; `Some(plan)` simulates the journal I/O failure the plan's
    /// seed selects (see `serr-inject`), degrading exactly like the real
    /// error would.
    pub chaos: Option<FaultPlan>,
    /// Observability handle for checkpoint warnings and resume/compute
    /// counters. `None` falls back to [`serr_obs::global`], whose default
    /// renders warnings to stderr — the behaviour the old ad-hoc
    /// `eprintln!` diagnostics had.
    pub obs: Option<Obs>,
}

impl SweepOptions {
    /// No checkpointing (the default).
    #[must_use]
    pub fn off() -> Self {
        SweepOptions { mode: CheckpointMode::Off, ..SweepOptions::default() }
    }

    /// Resume from the journal if one exists.
    #[must_use]
    pub fn resume() -> Self {
        SweepOptions { mode: CheckpointMode::Resume, ..SweepOptions::default() }
    }

    /// Discard any stale journal and start over.
    #[must_use]
    pub fn fresh() -> Self {
        SweepOptions { mode: CheckpointMode::Fresh, ..SweepOptions::default() }
    }

    /// Pins the journal directory (tests; tools with their own layout).
    #[must_use]
    pub fn in_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.dir = Some(dir.into());
        self
    }

    /// Arms a deterministic fault-injection plan (chaos campaigns only).
    #[must_use]
    pub fn with_chaos(mut self, plan: FaultPlan) -> Self {
        self.chaos = Some(plan);
        self
    }

    /// Routes checkpoint warnings and counters through `obs` instead of
    /// the process-wide default.
    #[must_use]
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = Some(obs);
        self
    }

    /// The effective observability handle: the attached one, else the
    /// process-wide default (warnings to stderr).
    #[must_use]
    pub fn effective_obs(&self) -> &Obs {
        self.obs.as_ref().unwrap_or_else(|| serr_obs::global())
    }
}

/// One failed design point of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct PointFailure {
    /// Input-order index of the failed point.
    pub index: usize,
    /// What went wrong: [`SerrError::PointFailed`] for a panic, or the
    /// point's own typed error.
    pub error: SerrError,
}

/// The outcome of a fault-tolerant sweep.
#[derive(Debug, Clone)]
pub struct SweepReport<R> {
    /// Completed rows in input order (failed points are absent).
    pub rows: Vec<R>,
    /// Failed points, ascending by index.
    pub failures: Vec<PointFailure>,
    /// Points restored from the journal without recomputation.
    pub resumed: usize,
    /// Points computed (successfully) in this run.
    pub computed: usize,
}

impl<R> SweepReport<R> {
    /// Collapses the report into the classic all-or-nothing shape: the rows
    /// if every point succeeded, otherwise the first failure in input order.
    ///
    /// # Errors
    ///
    /// Returns the lowest-index [`PointFailure`]'s error.
    pub fn into_result(self) -> Result<Vec<R>, SerrError> {
        match self.failures.into_iter().next() {
            None => Ok(self.rows),
            Some(f) => Err(f.error),
        }
    }
}

/// A row type that can round-trip through the checkpoint journal.
///
/// Implementations must be lossless for every field that feeds a report:
/// `from_journal(&to_journal(row))` must reconstruct `row` bit-for-bit
/// (floats included — the binary journal carries raw `f64` bits).
pub trait JournalRow: Sized {
    /// Encodes the row as a JSON value (one journal record's row payload).
    fn to_journal(&self) -> Json;
    /// Decodes a row; `None` (schema mismatch, missing field) means the
    /// journal entry is discarded and the point recomputed.
    fn from_journal(v: &Json) -> Option<Self>;
}

/// The journal directory: `SERR_CHECKPOINT_DIR` if set, else
/// `target/serr-checkpoints` relative to the working directory.
#[must_use]
pub fn default_journal_dir() -> PathBuf {
    match std::env::var_os("SERR_CHECKPOINT_DIR") {
        Some(dir) => PathBuf::from(dir),
        None => PathBuf::from("target").join("serr-checkpoints"),
    }
}

/// FNV-1a fingerprint over a list of string parts, with a separator fold so
/// part boundaries matter (`["ab","c"] != ["a","bc"]`). Keys sweeps to
/// their configuration: same kind + config + point list → same journal.
#[must_use]
pub fn fingerprint(parts: &[&str]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x1000_0000_01b3;
    let mut h = OFFSET;
    for part in parts {
        for &b in part.as_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(PRIME);
        }
        h = (h ^ 0xff).wrapping_mul(PRIME);
    }
    h
}

/// The binary journal file path for `(kind, fingerprint)` under `dir`.
#[must_use]
pub fn journal_path(dir: &Path, kind: &str, fingerprint: u64) -> PathBuf {
    dir.join(format!("{kind}-{fingerprint:016x}.store"))
}

/// The advisory lock file guarding a journal: the journal path with a
/// `.lock` suffix appended.
#[must_use]
pub fn journal_lock_path(journal: &Path) -> PathBuf {
    let mut os = journal.as_os_str().to_owned();
    os.push(".lock");
    PathBuf::from(os)
}

/// One binary journal record: varint point index + binary JSON row.
fn encode_record(index: usize, row: &Json) -> Vec<u8> {
    let mut buf = Vec::new();
    varint::write_u64(&mut buf, index as u64);
    binjson::encode(row, &mut buf);
    buf
}

/// Decodes one journal record; `None` (bad varint, corrupt row encoding,
/// trailing bytes) means the record is dropped and its point recomputes.
fn decode_record(mut bytes: &[u8]) -> Option<(usize, Json)> {
    let index = varint::read_u64(&mut bytes).ok()?;
    let index = usize::try_from(index).ok()?;
    let row = binjson::decode(&mut bytes).ok()?;
    bytes.is_empty().then_some((index, row))
}

/// Whether the process named in `lock_path` is provably dead, so the lock
/// is stale and may be reclaimed. An unreadable or unparsable lock file
/// (torn write) also counts as stale. Without a `/proc` filesystem,
/// liveness cannot be checked, so a well-formed lock is assumed live.
fn lock_holder_is_dead(lock_path: &Path) -> bool {
    let Some(pid) = fs::read_to_string(lock_path).ok().and_then(|s| s.trim().parse::<u32>().ok())
    else {
        return true;
    };
    let proc_root = Path::new("/proc");
    proc_root.is_dir() && !proc_root.join(pid.to_string()).is_dir()
}

/// Takes the advisory lock for a journal, reclaiming a stale holder once.
fn acquire_journal_lock(lock_path: &Path) -> Result<(), SerrError> {
    for attempt in 0..2u8 {
        match OpenOptions::new().write(true).create_new(true).open(lock_path) {
            Ok(mut f) => {
                // Best-effort PID stamp: a missing stamp reads as a torn
                // (stale) lock, which is the safe direction.
                let _ = write!(f, "{}", std::process::id());
                let _ = f.sync_data();
                return Ok(());
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                if attempt == 0 && lock_holder_is_dead(lock_path) {
                    let _ = fs::remove_file(lock_path);
                    continue;
                }
                return Err(SerrError::JournalLocked { path: lock_path.display().to_string() });
            }
            Err(e) => return Err(SerrError::io("create journal lock", e.to_string())),
        }
    }
    Err(SerrError::JournalLocked { path: lock_path.display().to_string() })
}

/// An append-only, fsync'd binary checkpoint journal for one sweep, held
/// under an advisory lock that is released when the journal drops.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    lock_path: PathBuf,
    store: Mutex<PageJournal>,
    completed: BTreeMap<usize, Json>,
}

impl Journal {
    /// Opens (or creates) the journal for `(kind, fingerprint)` under
    /// `dir`, loading previously completed points. With `fresh`, any
    /// existing journal is deleted first.
    ///
    /// A torn final page (crash mid-append) is truncated away; a page
    /// damaged in place stops the scan there, so the valid prefix resumes
    /// and the rest recomputes.
    ///
    /// # Errors
    ///
    /// [`SerrError::JournalLocked`] when another live process holds the
    /// journal's advisory lock (fatal: two writers would corrupt each
    /// other's resume state); [`SerrError::StoreCorrupt`] /
    /// [`SerrError::StoreVersion`] when the store header is damaged or
    /// claims a foreign format version (deterministic — retrying cannot
    /// help; callers reset the journal instead); [`SerrError::Io`] for
    /// filesystem errors — callers degrade the latter to checkpoint-less
    /// operation rather than failing the sweep.
    pub fn open(
        dir: &Path,
        kind: &str,
        fingerprint: u64,
        fresh: bool,
    ) -> Result<Journal, SerrError> {
        Self::open_inner(dir, kind, fingerprint, fresh)
    }

    /// [`Journal::open`] wrapped in [`retry_with_backoff`]: a journal
    /// locked by a process that is just shutting down (the common transient
    /// — e.g. a draining service handing over to its replacement) is
    /// retried on the bounded, jitter-deterministic schedule, as is a
    /// transient filesystem error. A lock held by a *live* writer still
    /// defeats every attempt and returns the same typed error as before.
    ///
    /// Deterministic corruption ([`SerrError::StoreCorrupt`] /
    /// [`SerrError::StoreVersion`]) is **not** retried: the bytes on disk
    /// do not change between attempts, so retrying only burns the backoff
    /// schedule before the caller learns it must reset the journal. The
    /// error surfaces immediately, unchanged from the first attempt.
    ///
    /// # Errors
    ///
    /// [`SerrError::JournalLocked`] once retries are exhausted, corruption
    /// errors immediately, or any other [`Journal::open`] error unchanged
    /// from the first try.
    pub fn open_with_retry(
        dir: &Path,
        kind: &str,
        fingerprint: u64,
        fresh: bool,
        policy: &BackoffPolicy,
    ) -> Result<Journal, SerrError> {
        Self::open_with_retry_sleep(dir, kind, fingerprint, fresh, policy, std::thread::sleep)
    }

    /// [`Journal::open_with_retry`] with an injectable sleep, so tests can
    /// assert the retry schedule (corruption must not sleep at all).
    pub(crate) fn open_with_retry_sleep(
        dir: &Path,
        kind: &str,
        fingerprint: u64,
        fresh: bool,
        policy: &BackoffPolicy,
        sleep: impl FnMut(std::time::Duration),
    ) -> Result<Journal, SerrError> {
        retry_with_backoff(
            policy,
            |_| Self::open_inner(dir, kind, fingerprint, fresh),
            Self::open_retryable,
            sleep,
        )
    }

    /// Which open errors are worth retrying: lock contention and transient
    /// I/O. Deterministic corruption is excluded — the same bytes fail the
    /// same way on every attempt.
    fn open_retryable(e: &SerrError) -> bool {
        !e.is_deterministic_corruption()
            && matches!(e, SerrError::JournalLocked { .. } | SerrError::Io { .. })
    }

    fn open_inner(
        dir: &Path,
        kind: &str,
        fingerprint: u64,
        fresh: bool,
    ) -> Result<Journal, SerrError> {
        fs::create_dir_all(dir)
            .map_err(|e| SerrError::io("create checkpoint directory", e.to_string()))?;
        let path = journal_path(dir, kind, fingerprint);
        let lock_path = journal_lock_path(&path);
        acquire_journal_lock(&lock_path)?;
        match Self::open_locked(&path, fresh) {
            Ok((store, completed)) => {
                Ok(Journal { path, lock_path, store: Mutex::new(store), completed })
            }
            Err(e) => {
                let _ = fs::remove_file(&lock_path);
                Err(e)
            }
        }
    }

    /// The fallible tail of [`Journal::open`], split out so the caller can
    /// release the just-taken lock on any error.
    fn open_locked(
        path: &Path,
        fresh: bool,
    ) -> Result<(PageJournal, BTreeMap<usize, Json>), SerrError> {
        if fresh {
            match fs::remove_file(path) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(SerrError::io("discard stale journal", e.to_string())),
            }
        }
        let (store, recovery) =
            PageJournal::open(path, store_kind::CHECKPOINT_JOURNAL, CHECKPOINT_APP)?;
        let completed = recovery.records.iter().filter_map(|rec| decode_record(rec)).collect();
        Ok((store, completed))
    }

    /// Points already recorded, by input index.
    #[must_use]
    pub fn completed(&self) -> &BTreeMap<usize, Json> {
        &self.completed
    }

    /// The binary journal file path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one completed point as its own fsynced page, so a subsequent
    /// crash cannot lose it (and can tear at most this page, which recovery
    /// truncates away).
    ///
    /// # Errors
    ///
    /// Propagates write/sync errors; the sweep runner logs and continues
    /// (losing checkpointing for that point, not the point itself).
    pub fn record(&self, index: usize, row: &Json) -> Result<(), SerrError> {
        let record = encode_record(index, row);
        // A poisoned lock only means another worker panicked *between*
        // journal writes; the file itself is page-consistent, so keep going.
        let mut store = self.store.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        store.append(&[record.as_slice()])?;
        Ok(())
    }
}

impl Drop for Journal {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.lock_path);
    }
}

/// Runs a fault-tolerant, checkpointed sweep over `items`.
///
/// Completed points are restored from the journal (when `opts.mode` says
/// so) without calling `eval`; the rest run in parallel on up to `threads`
/// workers via [`par::try_par_map`], each success being journaled before
/// the report is assembled. Panics and errors in `eval` poison only their
/// own point.
///
/// If the journal cannot be opened (read-only filesystem, permission
/// error, or an injected open fault), the sweep still runs — it just
/// doesn't checkpoint; a `checkpoint.journal_unavailable` warning event is
/// emitted through `opts.obs` (or the process-wide default sink, which
/// renders warnings to stderr). A journal whose store header is damaged or
/// claims a foreign format version is **reset**: a
/// `checkpoint.journal_reset` warning is emitted, the store is recreated
/// fresh, and every point recomputes — degraded, never silently wrong.
/// Resume/compute/failure counts land in the same handle's metrics
/// registry.
///
/// # Errors
///
/// [`SerrError::JournalLocked`] when another live process holds the
/// journal's advisory lock. Every other journal problem degrades instead
/// of failing.
pub fn run_sweep<T, R, F>(
    kind: &str,
    fingerprint: u64,
    items: &[T],
    threads: usize,
    opts: &SweepOptions,
    eval: F,
) -> Result<SweepReport<R>, SerrError>
where
    T: Sync,
    R: JournalRow + Send,
    F: Fn(usize, &T) -> Result<R, SerrError> + Sync,
{
    run_sweep_prepared(
        kind,
        fingerprint,
        items,
        threads,
        opts,
        |_| (),
        |i, item, (): &()| eval(i, item),
    )
}

/// [`run_sweep`] with a group-level preparation step that runs **once**
/// over the still-pending point indices before any `eval` call.
///
/// This is how sweep runners amortize shared work across a group of points
/// — compiling one trace, running one shared-stream Monte Carlo kernel —
/// without giving up checkpoint semantics: `prepare` only sees indices the
/// journal did *not* restore, so a fully resumed sweep never pays for it,
/// and `eval` receives the prepared value by reference alongside each
/// point. A panic inside `prepare` fails **every** pending point with the
/// panic payload (a corrupted shared input must degrade all of its
/// dependents, never a silent subset) while resumed rows survive
/// untouched.
///
/// # Errors
///
/// Same contract as [`run_sweep`]: only [`SerrError::JournalLocked`] is
/// fatal.
pub fn run_sweep_prepared<T, R, P, Prep, F>(
    kind: &str,
    fingerprint: u64,
    items: &[T],
    threads: usize,
    opts: &SweepOptions,
    prepare: Prep,
    eval: F,
) -> Result<SweepReport<R>, SerrError>
where
    T: Sync,
    R: JournalRow + Send,
    P: Sync,
    Prep: FnOnce(&[usize]) -> P,
    F: Fn(usize, &T, &P) -> Result<R, SerrError> + Sync,
{
    let injected_io = opts.chaos.and_then(|p| p.io_fault_site());
    let obs = opts.effective_obs();
    // Typed replacements for the old `eprintln!` warnings: same severity
    // (the default global sink renders warnings to stderr), but structured,
    // keyed by point index, and capturable by tests and `--metrics` files.
    let warn_open = |reason: String| {
        obs.emit(
            Event::warn("checkpoint.journal_unavailable", 0)
                .with("sweep", kind)
                .with("reason", reason)
                .with("action", "sweep runs without checkpointing"),
        );
    };
    let journal = match opts.mode {
        CheckpointMode::Off => None,
        CheckpointMode::Resume | CheckpointMode::Fresh => {
            let dir = opts.dir.clone().unwrap_or_else(default_journal_dir);
            let fresh = opts.mode == CheckpointMode::Fresh;
            if injected_io == Some(IoSite::Open) {
                warn_open("injected i/o fault at open".to_owned());
                None
            } else {
                // A lock holder that is mid-shutdown clears within the
                // bounded retry schedule; a genuinely live writer defeats
                // every attempt and the typed error stays fatal.
                let policy = BackoffPolicy::journal(fingerprint);
                let open =
                    |fresh| Journal::open_with_retry(&dir, kind, fingerprint, fresh, &policy);
                match open(fresh) {
                    Ok(j) => Some(j),
                    Err(e @ SerrError::JournalLocked { .. }) => return Err(e),
                    Err(e) if e.is_deterministic_corruption() => {
                        // Unusable bytes: reset rather than trust them.
                        // All points recompute — degraded, never silent.
                        obs.emit(
                            Event::warn("checkpoint.journal_reset", 0)
                                .with("sweep", kind)
                                .with("reason", e.to_string())
                                .with("action", "journal reset; every point recomputes"),
                        );
                        match open(true) {
                            Ok(j) => Some(j),
                            Err(e @ SerrError::JournalLocked { .. }) => return Err(e),
                            Err(e) => {
                                warn_open(e.to_string());
                                None
                            }
                        }
                    }
                    Err(e) => {
                        warn_open(e.to_string());
                        None
                    }
                }
            }
        }
    };

    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    let mut resumed = 0usize;
    if let Some(j) = &journal {
        for (&i, row) in j.completed() {
            if i < items.len() {
                if let Some(decoded) = R::from_journal(row) {
                    slots[i] = Some(decoded);
                    resumed += 1;
                }
            }
        }
    }

    let pending: Vec<usize> = (0..items.len()).filter(|&i| slots[i].is_none()).collect();

    // Group-level preparation sees only the indices the journal did not
    // restore. A panic here poisons every pending point at once — shared
    // state that is wrong for one dependent is wrong for all of them —
    // while resumed rows stay intact.
    let prepared =
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| prepare(&pending))) {
            Ok(p) => p,
            Err(payload) => {
                let payload = par::panic_payload_string(payload.as_ref());
                let failures: Vec<PointFailure> = pending
                    .iter()
                    .map(|&i| PointFailure {
                        index: i,
                        error: SerrError::PointFailed { index: i, payload: payload.clone() },
                    })
                    .collect();
                let metrics = obs.metrics();
                metrics.add("checkpoint.resumed", resumed as u64);
                metrics.add("checkpoint.computed", 0);
                metrics.add("checkpoint.failed", failures.len() as u64);
                return Ok(SweepReport {
                    rows: slots.into_iter().flatten().collect(),
                    failures,
                    resumed,
                    computed: 0,
                });
            }
        };

    // Record-failure events carry the point index as their sequence key:
    // workers emit concurrently, so sink order is nondeterministic, but the
    // key set for a given failure pattern is thread-count invariant.
    let warn_record = |i: usize, reason: String| {
        obs.emit(
            Event::warn("checkpoint.record_failed", i as u64)
                .with("sweep", kind)
                .with("point", i)
                .with("reason", reason),
        );
    };
    let results = par::try_par_map(&pending, threads, |_, &i| {
        let row = eval(i, &items[i], &prepared)?;
        if let Some(j) = &journal {
            if injected_io == Some(IoSite::Record) {
                warn_record(i, "injected i/o fault at record".to_owned());
            } else if let Err(e) = j.record(i, &row.to_journal()) {
                warn_record(i, e.to_string());
            }
        }
        Ok(row)
    });

    let mut failures = Vec::new();
    let mut computed = 0usize;
    for (&orig, res) in pending.iter().zip(results) {
        match res {
            Ok(row) => {
                slots[orig] = Some(row);
                computed += 1;
            }
            // try_par_map indexes into `pending`; report the original
            // position in the sweep's point list instead.
            Err(SerrError::PointFailed { payload, .. }) => failures.push(PointFailure {
                index: orig,
                error: SerrError::PointFailed { index: orig, payload },
            }),
            Err(error) => failures.push(PointFailure { index: orig, error }),
        }
    }
    failures.sort_by_key(|f| f.index);

    let metrics = obs.metrics();
    metrics.add("checkpoint.resumed", resumed as u64);
    metrics.add("checkpoint.computed", computed as u64);
    metrics.add("checkpoint.failed", failures.len() as u64);

    Ok(SweepReport { rows: slots.into_iter().flatten().collect(), failures, resumed, computed })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[derive(Debug, Clone, PartialEq)]
    struct TestRow {
        idx: u64,
        value: f64,
        label: String,
    }

    impl JournalRow for TestRow {
        fn to_journal(&self) -> Json {
            Json::Obj(vec![
                ("idx".to_owned(), Json::Num(self.idx as f64)),
                ("value".to_owned(), Json::Num(self.value)),
                ("label".to_owned(), Json::Str(self.label.clone())),
            ])
        }
        fn from_journal(v: &Json) -> Option<Self> {
            Some(TestRow {
                idx: v.get("idx")?.as_u64()?,
                value: v.get("value")?.as_f64()?,
                label: v.get("label")?.as_str()?.to_owned(),
            })
        }
    }

    /// A deliberately awkward float per index, to catch any formatting
    /// loss in the journal round trip.
    fn eval_row(i: usize, x: &u64) -> Result<TestRow, SerrError> {
        let value = (*x as f64).sqrt() * 0.1 + 0.2 + 1.0 / (*x as f64 + 3.0);
        Ok(TestRow { idx: *x, value, label: format!("point-{i}") })
    }

    fn fresh_test_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir()
            .join(format!("serr-checkpoint-test-{}-{tag}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn assert_rows_bit_identical(a: &[TestRow], b: &[TestRow]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.idx, y.idx);
            assert_eq!(x.label, y.label);
            assert_eq!(
                x.value.to_bits(),
                y.value.to_bits(),
                "row {} not bit-identical: {} vs {}",
                x.idx,
                x.value,
                y.value
            );
        }
    }

    #[test]
    fn off_mode_computes_everything_and_journals_nothing() {
        let items: Vec<u64> = (0..10).collect();
        let calls = AtomicUsize::new(0);
        let report = run_sweep("t-off", 1, &items, 4, &SweepOptions::off(), |i, x| {
            calls.fetch_add(1, Ordering::Relaxed);
            eval_row(i, x)
        })
        .unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 10);
        assert_eq!(report.rows.len(), 10);
        assert_eq!(report.resumed, 0);
        assert_eq!(report.computed, 10);
        assert!(report.failures.is_empty());
        // Rows come back in input order.
        for (i, row) in report.rows.iter().enumerate() {
            assert_eq!(row.idx, i as u64);
        }
    }

    #[test]
    fn interrupted_sweep_resumes_without_recomputing_completed_points() {
        let dir = fresh_test_dir("resume");
        let items: Vec<u64> = (0..12).collect();
        let opts = SweepOptions::resume().in_dir(&dir);
        let fp = fingerprint(&["resume-test", "v1"]);

        // Uninterrupted reference run (no journal involved).
        let reference =
            run_sweep("t-resume", fp, &items, 4, &SweepOptions::off(), eval_row).unwrap().rows;

        // "Killed" run: points >= 7 fail, so the journal records 0..=6 only
        // — the on-disk state a mid-run SIGKILL leaves behind.
        let partial = run_sweep("t-resume", fp, &items, 4, &opts, |i, x| {
            if *x >= 7 {
                return Err(SerrError::invalid_config("simulated crash"));
            }
            eval_row(i, x)
        })
        .unwrap();
        assert_eq!(partial.rows.len(), 7);
        assert_eq!(partial.failures.len(), 5);

        // Re-invocation: only the 5 missing points are recomputed...
        let calls = AtomicUsize::new(0);
        let second = run_sweep("t-resume", fp, &items, 4, &opts, |i, x| {
            calls.fetch_add(1, Ordering::Relaxed);
            eval_row(i, x)
        })
        .unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 5, "resumed points were recomputed");
        assert_eq!(second.resumed, 7);
        assert_eq!(second.computed, 5);
        assert!(second.failures.is_empty());
        assert_rows_bit_identical(&second.rows, &reference);

        // ...and a third run recomputes zero points, bit-identically.
        let calls = AtomicUsize::new(0);
        let third = run_sweep("t-resume", fp, &items, 4, &opts, |i, x| {
            calls.fetch_add(1, Ordering::Relaxed);
            eval_row(i, x)
        })
        .unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 0);
        assert_eq!(third.resumed, 12);
        assert_rows_bit_identical(&third.rows, &reference);

        // The advisory lock is released between runs and after the last.
        let lock = journal_lock_path(&journal_path(&dir, "t-resume", fp));
        assert!(!lock.exists(), "lock file left behind: {}", lock.display());

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn prepared_sweep_sees_only_pending_indices_after_resume() {
        let dir = fresh_test_dir("prepared");
        let items: Vec<u64> = (0..10).collect();
        let opts = SweepOptions::resume().in_dir(&dir);
        let fp = fingerprint(&["prepared-test", "v1"]);

        // First run journals only the even points.
        run_sweep("t-prepared", fp, &items, 4, &opts, |i, x| {
            if x % 2 == 1 {
                return Err(SerrError::invalid_config("odd points fail"));
            }
            eval_row(i, x)
        })
        .unwrap();

        // Resumed run: prepare receives exactly the odd (pending) indices
        // and its product is visible to every eval call.
        let report = run_sweep_prepared(
            "t-prepared",
            fp,
            &items,
            4,
            &opts,
            |pending: &[usize]| {
                assert_eq!(pending, &[1, 3, 5, 7, 9]);
                pending.iter().map(|&i| i as u64 * 100).collect::<Vec<u64>>()
            },
            |i, x, shared: &Vec<u64>| {
                let slot = shared.iter().position(|&v| v == i as u64 * 100);
                assert!(slot.is_some(), "eval saw a point prepare never did: {i}");
                eval_row(i, x)
            },
        )
        .unwrap();
        assert_eq!(report.resumed, 5);
        assert_eq!(report.computed, 5);
        assert!(report.failures.is_empty());
        assert_eq!(report.rows.len(), 10);

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn prepare_panic_fails_every_pending_point_but_keeps_resumed_rows() {
        let dir = fresh_test_dir("prepared-panic");
        let items: Vec<u64> = (0..8).collect();
        let opts = SweepOptions::resume().in_dir(&dir);
        let fp = fingerprint(&["prepared-panic-test"]);

        // Journal the first half.
        run_sweep("t-prep-panic", fp, &items, 2, &opts, |i, x| {
            if *x >= 4 {
                return Err(SerrError::invalid_config("later"));
            }
            eval_row(i, x)
        })
        .unwrap();

        // A panicking prepare degrades every still-pending point with the
        // payload; the journaled rows come back untouched and eval never
        // runs.
        let calls = AtomicUsize::new(0);
        let report = run_sweep_prepared(
            "t-prep-panic",
            fp,
            &items,
            2,
            &opts,
            |_: &[usize]| -> () { panic!("shared trace corrupted") },
            |i, x, (): &()| {
                calls.fetch_add(1, Ordering::Relaxed);
                eval_row(i, x)
            },
        )
        .unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 0, "eval ran after prepare panicked");
        assert_eq!(report.resumed, 4);
        assert_eq!(report.computed, 0);
        assert_eq!(report.rows.len(), 4);
        assert_eq!(report.failures.len(), 4);
        for (f, expect) in report.failures.iter().zip([4usize, 5, 6, 7]) {
            assert_eq!(f.index, expect);
            match &f.error {
                SerrError::PointFailed { index, payload } => {
                    assert_eq!(*index, expect);
                    assert!(payload.contains("shared trace corrupted"), "payload: {payload}");
                }
                other => panic!("expected PointFailed, got {other:?}"),
            }
        }

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fresh_mode_discards_the_journal() {
        let dir = fresh_test_dir("fresh");
        let items: Vec<u64> = (0..6).collect();
        let fp = fingerprint(&["fresh-test"]);
        let resume = SweepOptions::resume().in_dir(&dir);
        run_sweep("t-fresh", fp, &items, 2, &resume, eval_row).unwrap();

        let calls = AtomicUsize::new(0);
        let fresh = SweepOptions::fresh().in_dir(&dir);
        let report = run_sweep("t-fresh", fp, &items, 2, &fresh, |i, x| {
            calls.fetch_add(1, Ordering::Relaxed);
            eval_row(i, x)
        })
        .unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 6, "--fresh must recompute everything");
        assert_eq!(report.resumed, 0);
        assert_eq!(report.computed, 6);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn poisoned_point_is_reported_with_its_input_index() {
        let items: Vec<u64> = (0..8).collect();
        let report = run_sweep("t-poison", 1, &items, 3, &SweepOptions::off(), |i, x| {
            assert!(*x != 5, "point {x} is poisoned");
            eval_row(i, x)
        })
        .unwrap();
        assert_eq!(report.rows.len(), 7);
        let expected: Vec<u64> = (0..8).filter(|&x| x != 5).collect();
        assert_eq!(report.rows.iter().map(|r| r.idx).collect::<Vec<_>>(), expected);
        assert_eq!(report.failures.len(), 1);
        let failure = &report.failures[0];
        assert_eq!(failure.index, 5);
        match &failure.error {
            SerrError::PointFailed { index: 5, payload } => {
                assert!(payload.contains("point 5 is poisoned"), "payload: {payload}");
            }
            other => panic!("expected PointFailed {{ index: 5, .. }}, got {other:?}"),
        }
        // into_result surfaces the failure as a typed error.
        assert!(matches!(report.into_result(), Err(SerrError::PointFailed { index: 5, .. })));
    }

    #[test]
    fn fingerprints_respect_part_boundaries() {
        assert_ne!(fingerprint(&["ab", "c"]), fingerprint(&["a", "bc"]));
        assert_ne!(fingerprint(&["fig5"]), fingerprint(&["fig6a"]));
        assert_eq!(fingerprint(&["x", "y"]), fingerprint(&["x", "y"]));
    }

    #[test]
    fn journal_row_roundtrip_is_lossless() {
        let row = TestRow { idx: 42, value: 0.1 + 0.2, label: "λ \"quoted\"\n".to_owned() };
        let back = TestRow::from_journal(&row.to_journal()).unwrap();
        assert_eq!(back.label, row.label);
        assert_eq!(back.value.to_bits(), row.value.to_bits());
    }

    #[test]
    fn binary_record_roundtrip_is_lossless() {
        let row = eval_row(3, &9).unwrap().to_journal();
        let rec = encode_record(3, &row);
        let (i, back) = decode_record(&rec).expect("record decodes");
        assert_eq!(i, 3);
        assert_eq!(back, row);
        // Truncated and padded records are dropped, not trusted.
        assert!(decode_record(&rec[..rec.len() - 1]).is_none());
        let mut padded = rec.clone();
        padded.push(0);
        assert!(decode_record(&padded).is_none());
    }

    #[test]
    fn second_writer_on_a_live_journal_gets_the_typed_lock_error() {
        let dir = fresh_test_dir("lock");
        let items: Vec<u64> = (0..3).collect();
        let fp = fingerprint(&["lock-test"]);
        let held = Journal::open(&dir, "t-lock", fp, false).unwrap();

        // A sweep against the same journal must refuse, naming the lock.
        let opts = SweepOptions::resume().in_dir(&dir);
        match run_sweep("t-lock", fp, &items, 2, &opts, eval_row) {
            Err(SerrError::JournalLocked { path }) => {
                assert!(path.contains("t-lock"), "lock path should name the journal: {path}");
                assert!(path.ends_with(".lock"), "lock path: {path}");
            }
            other => panic!("expected JournalLocked, got {other:?}"),
        }
        // So must a direct second open.
        assert!(matches!(
            Journal::open(&dir, "t-lock", fp, false),
            Err(SerrError::JournalLocked { .. })
        ));

        // Dropping the holder releases the lock; the sweep then proceeds.
        drop(held);
        let report = run_sweep("t-lock", fp, &items, 2, &opts, eval_row).unwrap();
        assert_eq!(report.rows.len(), 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_with_retry_outlasts_a_holder_that_is_shutting_down() {
        let dir = fresh_test_dir("retry-open");
        let fp = fingerprint(&["retry-open-test"]);
        let held = Journal::open(&dir, "t-retry", fp, false).unwrap();

        // Release the lock partway through the retry schedule; the
        // contender's later attempt then succeeds where the first failed.
        let policy = BackoffPolicy::journal(fp);
        let release = std::thread::spawn(move || {
            std::thread::sleep(policy.delay(0) / 2);
            drop(held);
        });
        let j = Journal::open_with_retry(&dir, "t-retry", fp, false, &policy)
            .expect("retry must outlast a shutting-down holder");
        release.join().expect("release thread");
        drop(j);

        // A holder that never releases still defeats every attempt with
        // the same typed error the fail-fast path produced.
        let held = Journal::open(&dir, "t-retry", fp, false).unwrap();
        assert!(matches!(
            Journal::open_with_retry(&dir, "t-retry", fp, false, &policy),
            Err(SerrError::JournalLocked { .. })
        ));
        drop(held);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_with_retry_fails_corruption_immediately_without_sleeping() {
        let dir = fresh_test_dir("retry-corrupt");
        let fp = fingerprint(&["retry-corrupt-test"]);
        // A journal whose store header is damaged in place.
        let journal = Journal::open(&dir, "t-rc", fp, false).unwrap();
        journal.record(0, &eval_row(0, &0).unwrap().to_journal()).unwrap();
        drop(journal);
        let path = journal_path(&dir, "t-rc", fp);
        let mut bytes = fs::read(&path).unwrap();
        bytes[3] ^= 0x40; // magic byte
        fs::write(&path, &bytes).unwrap();

        // Deterministic corruption must not burn the backoff schedule:
        // zero sleeps, typed error from the first attempt.
        let policy = BackoffPolicy::journal(fp);
        let sleeps = AtomicUsize::new(0);
        let result = Journal::open_with_retry_sleep(&dir, "t-rc", fp, false, &policy, |_| {
            sleeps.fetch_add(1, Ordering::Relaxed);
        });
        assert!(
            matches!(result, Err(SerrError::StoreCorrupt { .. })),
            "expected StoreCorrupt, got {result:?}"
        );
        assert_eq!(sleeps.load(Ordering::Relaxed), 0, "corruption retries cannot help");

        // Same for a structurally valid header claiming a future format.
        let mut bytes = fs::read(&path).unwrap();
        bytes[3] ^= 0x40; // restore magic
        serr_store::pages::forge_format_version(&mut bytes, serr_store::pages::FORMAT_VERSION + 9);
        fs::write(&path, &bytes).unwrap();
        let sleeps = AtomicUsize::new(0);
        let result = Journal::open_with_retry_sleep(&dir, "t-rc", fp, false, &policy, |_| {
            sleeps.fetch_add(1, Ordering::Relaxed);
        });
        assert!(
            matches!(result, Err(SerrError::StoreVersion { .. })),
            "expected StoreVersion, got {result:?}"
        );
        assert_eq!(sleeps.load(Ordering::Relaxed), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn stale_lock_from_a_dead_process_is_reclaimed() {
        let dir = fresh_test_dir("stale");
        fs::create_dir_all(&dir).unwrap();
        let fp = fingerprint(&["stale-test"]);
        let lock = journal_lock_path(&journal_path(&dir, "t-stale", fp));
        // PID far above any real pid_max, so /proc/<pid> cannot exist.
        fs::write(&lock, "4000000000").unwrap();
        let j = Journal::open(&dir, "t-stale", fp, false).expect("stale lock must be reclaimed");
        drop(j);
        // A torn (unparsable) lock file is also stale.
        fs::write(&lock, "not a pid").unwrap();
        Journal::open(&dir, "t-stale", fp, false).expect("torn lock must be reclaimed");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_journal_pages_fail_their_crc_and_recompute() {
        let dir = fresh_test_dir("crc");
        let items: Vec<u64> = (0..3).collect();
        let fp = fingerprint(&["crc-test"]);
        let journal = Journal::open(&dir, "t-crc", fp, false).unwrap();
        for i in 0..3usize {
            journal.record(i, &eval_row(i, &(i as u64)).unwrap().to_journal()).unwrap();
        }
        drop(journal);

        // Flip one byte inside row 1's page payload (its label string lands
        // verbatim in the binary encoding).
        let path = journal_path(&dir, "t-crc", fp);
        let mut bytes = fs::read(&path).unwrap();
        let needle = b"point-1";
        let at = bytes
            .windows(needle.len())
            .position(|w| w == needle)
            .expect("journal should hold row 1");
        bytes[at + 6] ^= 0x08; // "point-1" -> not "point-1"
        fs::write(&path, &bytes).unwrap();

        // The damaged page fails its CRC; the scan stops there, so row 0
        // resumes and rows 1..3 (the damaged page and its successors)
        // recompute. Prefix recovery trades later intact pages for never
        // trusting an unverifiable offset.
        let calls = AtomicUsize::new(0);
        let opts = SweepOptions::resume().in_dir(&dir);
        let report = run_sweep("t-crc", fp, &items, 1, &opts, |i, x| {
            calls.fetch_add(1, Ordering::Relaxed);
            eval_row(i, x)
        })
        .unwrap();
        assert_eq!(report.resumed, 1, "the prefix before the damaged page resumes");
        assert_eq!(calls.load(Ordering::Relaxed), 2, "damaged page and successors recompute");
        assert_eq!(report.rows.len(), 3);
        assert_eq!(report.rows[1].label, "point-1", "recomputed row is correct");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_store_header_resets_the_journal_with_a_typed_warning() {
        let dir = fresh_test_dir("reset");
        let items: Vec<u64> = (0..4).collect();
        let fp = fingerprint(&["reset-test"]);
        let journal = Journal::open(&dir, "t-reset", fp, false).unwrap();
        for i in 0..4usize {
            journal.record(i, &eval_row(i, &(i as u64)).unwrap().to_journal()).unwrap();
        }
        drop(journal);
        let path = journal_path(&dir, "t-reset", fp);
        let mut bytes = fs::read(&path).unwrap();
        bytes[10] ^= 0xFF; // format-version field -> header CRC mismatch
        fs::write(&path, &bytes).unwrap();

        let (obs, sink) = Obs::memory();
        let calls = AtomicUsize::new(0);
        let opts = SweepOptions::resume().in_dir(&dir).with_obs(obs);
        let report = run_sweep("t-reset", fp, &items, 2, &opts, |i, x| {
            calls.fetch_add(1, Ordering::Relaxed);
            eval_row(i, x)
        })
        .unwrap();
        assert_eq!(report.resumed, 0, "nothing from unverifiable bytes");
        assert_eq!(calls.load(Ordering::Relaxed), 4, "every point recomputes");
        let resets = sink.events_of("checkpoint.journal_reset");
        assert_eq!(resets.len(), 1);
        assert_eq!(resets[0].level, serr_obs::Level::Warn);

        // The reset journal is usable again: the next run resumes all 4.
        let opts = SweepOptions::resume().in_dir(&dir);
        let second = run_sweep("t-reset", fp, &items, 2, &opts, eval_row).unwrap();
        assert_eq!(second.resumed, 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_warnings_are_typed_events_not_stderr_noise() {
        use serr_inject::{FaultKind, FaultPlan};
        let dir = fresh_test_dir("obs-events");
        let items: Vec<u64> = (0..4).collect();
        let fp = fingerprint(&["obs-events-test"]);
        let plan_for = |site: IoSite| {
            (0..1_000u64)
                .map(|s| FaultPlan::new(s, FaultKind::CheckpointIo))
                .find(|p| p.io_fault_site() == Some(site))
                .expect("some seed selects the site")
        };

        // Open fault: one journal_unavailable warning, no record events.
        let (obs, sink) = Obs::memory();
        let opts = SweepOptions::resume()
            .in_dir(&dir)
            .with_chaos(plan_for(IoSite::Open))
            .with_obs(obs.clone());
        run_sweep("t-obs-ev", fp, &items, 2, &opts, eval_row).unwrap();
        let warns = sink.events_of("checkpoint.journal_unavailable");
        assert_eq!(warns.len(), 1);
        assert_eq!(warns[0].level, serr_obs::Level::Warn);
        assert!(sink.events_of("checkpoint.record_failed").is_empty());
        assert_eq!(obs.metrics().snapshot().counters["checkpoint.computed"], 4);

        // Record fault: one record_failed warning per computed point, keyed
        // by point index — the same key set at any worker count.
        let (obs, sink) = Obs::memory();
        let opts = SweepOptions::resume()
            .in_dir(&dir)
            .with_chaos(plan_for(IoSite::Record))
            .with_obs(obs.clone());
        run_sweep("t-obs-ev", fp, &items, 2, &opts, eval_row).unwrap();
        let mut keys: Vec<u64> =
            sink.events_of("checkpoint.record_failed").iter().map(|e| e.seq).collect();
        keys.sort_unstable();
        assert_eq!(keys, vec![0, 1, 2, 3]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_io_faults_degrade_without_losing_rows() {
        use serr_inject::{FaultKind, FaultPlan};
        let dir = fresh_test_dir("chaos-io");
        let items: Vec<u64> = (0..5).collect();
        let fp = fingerprint(&["chaos-io-test"]);

        // Find plans hitting each injection site.
        let plan_for = |site: IoSite| {
            (0..1_000u64)
                .map(|s| FaultPlan::new(s, FaultKind::CheckpointIo))
                .find(|p| p.io_fault_site() == Some(site))
                .expect("some seed selects the site")
        };
        let reference =
            run_sweep("t-chaos-io", fp, &items, 1, &SweepOptions::off(), eval_row).unwrap().rows;

        // Open fault: no journal at all, rows still correct.
        let opts = SweepOptions::resume().in_dir(&dir).with_chaos(plan_for(IoSite::Open));
        let report = run_sweep("t-chaos-io", fp, &items, 1, &opts, eval_row).unwrap();
        assert_rows_bit_identical(&report.rows, &reference);
        assert!(
            !journal_path(&dir, "t-chaos-io", fp).exists(),
            "open fault must not create a journal"
        );

        // Record fault: journal exists but holds no pages; rows still
        // correct.
        let opts = SweepOptions::resume().in_dir(&dir).with_chaos(plan_for(IoSite::Record));
        let report = run_sweep("t-chaos-io", fp, &items, 1, &opts, eval_row).unwrap();
        assert_rows_bit_identical(&report.rows, &reference);
        let len = fs::metadata(journal_path(&dir, "t-chaos-io", fp)).unwrap().len();
        assert_eq!(
            len,
            serr_store::pages::HEADER_LEN as u64,
            "record fault must suppress appends (header only)"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
