//! Deterministic seeded fault injection for the soft-error-analysis stack.
//!
//! The paper's thesis is that silent assumptions make reliability estimates
//! silently wrong; this crate lets the stack hold itself to that standard.
//! A [`FaultPlan`] is a tiny, serializable spec — one seed plus one
//! [`FaultKind`] — from which every injection decision (which chunk panics,
//! which bit flips, where a journal is corrupted) is derived as a pure
//! SplitMix64 hash. The same plan therefore reproduces the identical fault
//! sequence on any thread count, which is what makes chaos campaigns
//! replayable and their outcome tags comparable across runs.
//!
//! This crate only *decides* faults; it never performs them. The hooks that
//! consult a plan live next to the code they sabotage: `serr-mc` asks
//! [`FaultPlan::chunk_panics`] and [`FaultPlan::deadline_cut_chunk`] inside
//! its worker loop, `serr-core::checkpoint` asks [`FaultPlan::io_fault_site`],
//! `serr-core`'s chaos harness applies [`FaultPlan::trace_fault`] to a
//! compiled trace before its integrity check, and the `Validator` applies
//! [`FaultPlan::rate_poison_factor`] to its SoftArch reference. Keeping the decision
//! pure and the application local means production paths pay one `Option`
//! check and no global state exists to leak between tests.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod rng;

use std::fmt;

use crate::rng::{mix, unit};

/// Number of chunk slots the chunk-level injectors target. Victim indices
/// are drawn from `0..CHUNK_VICTIM_SLOTS`, so plans whose victim lands past
/// the end of a short run simply never fire.
pub const CHUNK_VICTIM_SLOTS: u64 = 4;

// Domain-separation salts: each query hashes its own salt so the same seed
// yields independent decisions per injector.
const SALT_PANIC: u64 = 0x01;
const SALT_DEADLINE: u64 = 0x02;
const SALT_TRACE: u64 = 0x03;
const SALT_RATE: u64 = 0x04;
const SALT_IO: u64 = 0x05;
const SALT_FILE: u64 = 0x06;
const SALT_SERVE: u64 = 0x07;
const SALT_STORE: u64 = 0x08;
const SALT_TRANSFORM: u64 = 0x09;

/// The injector families a [`FaultPlan`] can select.
///
/// One plan injects exactly one kind of fault; campaigns cycle through all
/// kinds so coverage is uniform and attribution is unambiguous.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Flip one high mantissa/exponent bit of a `CompiledTrace` segment
    /// value. Must be caught by the trace structural verifier.
    TraceValueFlip,
    /// Add a large perturbation to one entry of the compiled prefix-sum
    /// table. The event-loop sampler never reads the prefix sums, so under
    /// it only the verifier can catch this; the default inversion sampler
    /// inverts the prefix table on *every trial*, so the corruption must
    /// be caught by the verifier (or, failing that, the row verdict's
    /// Monte Carlo-versus-renewal check) before it poisons the estimate.
    TracePrefixPerturb,
    /// Scale the dominant segment value and recompute every derived field
    /// consistently. Passes structural checks by construction; only the
    /// cross-engine consistency check can catch it.
    TraceConsistentCorrupt,
    /// Corrupt the compiled form of a *protection-transformed* trace (the
    /// output of the ECC/scrub/delay pipeline). The fault itself is one of
    /// the three trace faults above, plan-chosen; the point is that the
    /// transform algebra's output must be defended by the same verifier and
    /// cross-engine votes as any raw workload trace — its many-segment
    /// scrub staircases and fractional ECC values buy no exemption.
    TraceTransform,
    /// Panic inside one Monte Carlo chunk worker.
    ChunkPanic,
    /// Exhaust the Monte Carlo deadline artificially after a plan-chosen
    /// number of chunks (possibly zero).
    DeadlineExhaust,
    /// Multiply the raw error rate seen by one reference estimator, making
    /// independent references disagree.
    RatePoison,
    /// Simulate an I/O failure opening or writing a checkpoint journal.
    CheckpointIo,
    /// Corrupt or truncate a checkpoint journal file on disk between runs.
    JournalCorrupt,
    /// Hold the advisory journal lock so a concurrent sweep must refuse.
    JournalLock,
    /// Corrupt or truncate a trace-cache file on disk.
    CacheCorrupt,
    /// Tear the final append of a `serr-store` container: truncate the file
    /// mid-page, as a crash between `write` and `fsync` would. Recovery
    /// must drop the torn tail and resume from the last valid page.
    StoreTornTail,
    /// Flip one bit inside a store page body. The page CRC must catch it
    /// and recovery must degrade to the valid prefix before that page.
    StoreBitFlip,
    /// Flip one bit inside the store's fixed header. The header CRC (or
    /// magic check) must reject the whole file with a typed error.
    StoreHeaderCorrupt,
    /// Rewrite the store's format version to a foreign value with a valid
    /// CRC — a file from a different release. Readers must refuse it with
    /// a typed version error, never guess at its layout.
    StoreStaleVersion,
    /// Panic inside a service estimation worker mid-request; the worker
    /// thread dies and the supervisor must restart it.
    ServeWorkerPanic,
    /// Stall a service worker for a plan-chosen number of milliseconds
    /// before it touches its request, modeling a slow or wedged worker.
    ServeWorkerStall,
    /// Deliver a malformed or oversized request frame to the service.
    ServeFrameCorrupt,
    /// Drop the client socket mid-response, after the estimate computed.
    ServeSocketDrop,
}

impl FaultKind {
    /// Every injector kind, in a fixed order campaigns cycle through.
    pub const ALL: [FaultKind; 19] = [
        FaultKind::TraceValueFlip,
        FaultKind::TracePrefixPerturb,
        FaultKind::TraceConsistentCorrupt,
        FaultKind::TraceTransform,
        FaultKind::ChunkPanic,
        FaultKind::DeadlineExhaust,
        FaultKind::RatePoison,
        FaultKind::CheckpointIo,
        FaultKind::JournalCorrupt,
        FaultKind::JournalLock,
        FaultKind::CacheCorrupt,
        FaultKind::StoreTornTail,
        FaultKind::StoreBitFlip,
        FaultKind::StoreHeaderCorrupt,
        FaultKind::StoreStaleVersion,
        FaultKind::ServeWorkerPanic,
        FaultKind::ServeWorkerStall,
        FaultKind::ServeFrameCorrupt,
        FaultKind::ServeSocketDrop,
    ];

    /// The estimator- and disk-level kinds `serr_core`'s chaos campaigns
    /// exercise. The serve-layer kinds below are injected by the `serr-serve`
    /// request soak instead: they need a running service to mean anything.
    pub const CORE: [FaultKind; 15] = [
        FaultKind::TraceValueFlip,
        FaultKind::TracePrefixPerturb,
        FaultKind::TraceConsistentCorrupt,
        FaultKind::TraceTransform,
        FaultKind::ChunkPanic,
        FaultKind::DeadlineExhaust,
        FaultKind::RatePoison,
        FaultKind::CheckpointIo,
        FaultKind::JournalCorrupt,
        FaultKind::JournalLock,
        FaultKind::CacheCorrupt,
        FaultKind::StoreTornTail,
        FaultKind::StoreBitFlip,
        FaultKind::StoreHeaderCorrupt,
        FaultKind::StoreStaleVersion,
    ];

    /// The service-layer kinds, in the order the serve soak cycles through.
    pub const SERVE: [FaultKind; 4] = [
        FaultKind::ServeWorkerPanic,
        FaultKind::ServeWorkerStall,
        FaultKind::ServeFrameCorrupt,
        FaultKind::ServeSocketDrop,
    ];

    /// True for the service-layer kinds (injected per request by
    /// `serr-serve`, not per chunk/file by the estimator campaigns).
    #[must_use]
    pub fn is_serve(self) -> bool {
        FaultKind::SERVE.contains(&self)
    }

    /// Stable kebab-case label used in CLI output and JSONL rows.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::TraceValueFlip => "trace-value-flip",
            FaultKind::TracePrefixPerturb => "trace-prefix-perturb",
            FaultKind::TraceConsistentCorrupt => "trace-consistent-corrupt",
            FaultKind::TraceTransform => "trace-transform",
            FaultKind::ChunkPanic => "chunk-panic",
            FaultKind::DeadlineExhaust => "deadline-exhaust",
            FaultKind::RatePoison => "rate-poison",
            FaultKind::CheckpointIo => "checkpoint-io",
            FaultKind::JournalCorrupt => "journal-corrupt",
            FaultKind::JournalLock => "journal-lock",
            FaultKind::CacheCorrupt => "cache-corrupt",
            FaultKind::StoreTornTail => "store-torn-tail",
            FaultKind::StoreBitFlip => "store-bit-flip",
            FaultKind::StoreHeaderCorrupt => "store-header-corrupt",
            FaultKind::StoreStaleVersion => "store-stale-version",
            FaultKind::ServeWorkerPanic => "serve-worker-panic",
            FaultKind::ServeWorkerStall => "serve-worker-stall",
            FaultKind::ServeFrameCorrupt => "serve-frame-corrupt",
            FaultKind::ServeSocketDrop => "serve-socket-drop",
        }
    }

    /// Parses a [`FaultKind::label`] back into the kind.
    #[must_use]
    pub fn parse(s: &str) -> Option<FaultKind> {
        FaultKind::ALL.into_iter().find(|k| k.label() == s)
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A trace-level fault to apply to a `CompiledTrace`, fully parameterized.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceFault {
    /// XOR bit `bit` into the IEEE-754 representation of the dominant
    /// segment's value. Bits 30..=62 guarantee a relative change far above
    /// the verifier's 1e-9 tolerance without touching the sign bit.
    ValueBitFlip {
        /// Which bit of the `f64` bit pattern to flip (30..=62).
        bit: u32,
    },
    /// Add `delta_frac` of the trace's total vulnerability mass to prefix
    /// entry `selector % len`.
    PrefixPerturb {
        /// Chooses the poisoned prefix entry.
        selector: u64,
        /// Perturbation as a fraction of total mass (0.05..0.5).
        delta_frac: f64,
    },
    /// Multiply the dominant segment's value by `factor` and recompute all
    /// derived fields so the trace stays self-consistent.
    ConsistentScale {
        /// Scale factor (0.25..0.5) — far enough from 1 that the corrupted
        /// estimate must exceed any reasonable cross-engine tolerance.
        factor: f64,
    },
}

/// Which checkpoint I/O operation a [`FaultKind::CheckpointIo`] plan fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoSite {
    /// Opening the journal fails; the sweep must run journal-less.
    Open,
    /// Every per-row record write fails; the sweep must still finish.
    Record,
}

/// A deterministic corruption of an on-disk file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileCorruption {
    /// Byte offset the corruption targets (always `< len` for `len > 0`).
    pub offset: usize,
    /// Nonzero mask XORed into the byte at `offset` (flip style).
    pub xor_mask: u8,
    /// If true, truncate the file at `offset` instead of flipping a byte.
    pub truncate: bool,
}

impl FileCorruption {
    /// Applies the corruption to an in-memory copy of the file.
    pub fn apply(&self, data: &mut Vec<u8>) {
        if self.truncate {
            data.truncate(self.offset);
        } else if let Some(b) = data.get_mut(self.offset) {
            *b ^= self.xor_mask;
        }
    }
}

/// A deterministic fault against a `serr-store` container file, fully
/// parameterized (see [`FaultPlan::store_fault`]). The applier owns the
/// byte-level mechanics; this type only carries the decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreFault {
    /// Truncate the file `drop_bytes` short of its end — a torn final
    /// append. Always leaves the fixed header intact (`drop_bytes` never
    /// exceeds the body length), because a decapitated file is
    /// [`StoreFault::HeaderCorrupt`]'s job.
    TornTail {
        /// How many trailing bytes the tear removes (≥ 1).
        drop_bytes: usize,
    },
    /// XOR `xor_mask` into the byte at `offset`, which always lands in the
    /// page body (at or past the header length given to the query).
    BitFlip {
        /// Absolute byte offset of the flip.
        offset: usize,
        /// Nonzero single-bit mask.
        xor_mask: u8,
    },
    /// XOR `xor_mask` into a byte inside the fixed header
    /// (`offset < header_len`).
    HeaderCorrupt {
        /// Byte offset within the header.
        offset: usize,
        /// Nonzero single-bit mask.
        xor_mask: u8,
    },
    /// Rewrite the container's format version to `current + bump` (with a
    /// refreshed header CRC, so only the version check can object).
    StaleVersion {
        /// Nonzero amount to add to the current format version.
        bump: u32,
    },
}

/// A service-layer fault to inject while handling one request, fully
/// parameterized (see [`FaultPlan::serve_fault`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeFault {
    /// Panic inside the estimation worker before it computes the request;
    /// the worker thread dies and the supervisor must restart it while the
    /// request still reaches a typed terminal state.
    WorkerPanic,
    /// Sleep `stall_ms` milliseconds before touching the request (5..30 —
    /// long enough to back up a bounded queue, short enough for soaks).
    WorkerStall {
        /// The injected stall, in milliseconds.
        stall_ms: u64,
    },
    /// Mangle the request frame before it is sent: either garbage bytes
    /// (`oversized == false`) or a frame longer than the protocol's limit.
    FrameCorrupt {
        /// If true, inflate the frame past the size limit instead of
        /// corrupting its bytes.
        oversized: bool,
    },
    /// Drop the client connection mid-response, after the estimate
    /// computed — the server-side ledger must still record the terminal
    /// state exactly once.
    SocketDrop,
}

/// A replayable fault-injection campaign spec: one seed, one injector kind.
///
/// Every query below is a pure function of the plan (plus explicit inputs),
/// so a plan can be freely copied across threads and serialized into
/// configs; there is no hidden injection state anywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultPlan {
    /// Seed every injection parameter is derived from.
    pub seed: u64,
    /// The single injector family this plan exercises.
    pub kind: FaultKind,
}

impl FaultPlan {
    /// Creates a plan injecting faults of `kind` derived from `seed`.
    #[must_use]
    pub fn new(seed: u64, kind: FaultKind) -> Self {
        FaultPlan { seed, kind }
    }

    fn h(&self, salt: u64) -> u64 {
        mix(&[self.seed, salt])
    }

    /// True when the Monte Carlo worker processing `chunk` under engine seed
    /// `run_seed` must panic. The victim chunk depends on `run_seed` and
    /// lands in `0..CHUNK_VICTIM_SLOTS`, so a run shorter than its victim
    /// never panics; one that does fails with a typed engine fault, which
    /// the estimator campaigns tag `Degraded`.
    #[must_use]
    pub fn chunk_panics(&self, run_seed: u64, chunk: u64) -> bool {
        self.kind == FaultKind::ChunkPanic
            && chunk == mix(&[self.seed, SALT_PANIC, run_seed]) % CHUNK_VICTIM_SLOTS
    }

    /// For [`FaultKind::DeadlineExhaust`] plans, the chunk index at which the
    /// deadline is considered exhausted: `Some(0)` means before any work (the
    /// engine must return the typed deadline error), `Some(k > 0)` means the
    /// run is truncated to the chunks claimed before slot `k`.
    #[must_use]
    pub fn deadline_cut_chunk(&self) -> Option<u64> {
        (self.kind == FaultKind::DeadlineExhaust)
            .then(|| self.h(SALT_DEADLINE) % CHUNK_VICTIM_SLOTS)
    }

    /// The trace-level fault this plan applies, if it is a trace plan.
    /// [`FaultKind::TraceTransform`] plans draw one of the three trace
    /// faults (salted independently, so a transform campaign and a plain
    /// trace campaign on the same seed differ), to be applied to the
    /// compiled form of a protection-transformed trace.
    #[must_use]
    pub fn trace_fault(&self) -> Option<TraceFault> {
        let h = self.h(SALT_TRACE);
        let fault = match self.kind {
            FaultKind::TraceValueFlip => TraceFault::ValueBitFlip { bit: 30 + (h % 33) as u32 },
            FaultKind::TracePrefixPerturb => TraceFault::PrefixPerturb {
                selector: mix(&[h, SALT_TRACE]),
                delta_frac: 0.05 + 0.45 * unit(h),
            },
            FaultKind::TraceConsistentCorrupt => {
                TraceFault::ConsistentScale { factor: 0.25 + 0.25 * unit(h) }
            }
            FaultKind::TraceTransform => {
                let t = self.h(SALT_TRANSFORM);
                match t % 3 {
                    0 => TraceFault::ValueBitFlip { bit: 30 + (t % 33) as u32 },
                    1 => TraceFault::PrefixPerturb {
                        selector: mix(&[t, SALT_TRANSFORM]),
                        delta_frac: 0.05 + 0.45 * unit(t),
                    },
                    _ => TraceFault::ConsistentScale { factor: 0.25 + 0.25 * unit(t) },
                }
            }
            _ => return None,
        };
        if let TraceFault::ValueBitFlip { bit } = fault {
            debug_assert!((30..=62).contains(&bit), "bit flip outside detectable range: {bit}");
        }
        Some(fault)
    }

    /// For [`FaultKind::RatePoison`] plans, the factor (1.5..3.0) by which
    /// one reference estimator's raw error rate is silently multiplied.
    #[must_use]
    pub fn rate_poison_factor(&self) -> Option<f64> {
        (self.kind == FaultKind::RatePoison).then(|| {
            let f = 1.5 + 1.5 * unit(self.h(SALT_RATE));
            debug_assert!((1.5..3.0).contains(&f), "rate poison factor out of range: {f}");
            f
        })
    }

    /// For [`FaultKind::CheckpointIo`] plans, which journal operation fails.
    #[must_use]
    pub fn io_fault_site(&self) -> Option<IoSite> {
        (self.kind == FaultKind::CheckpointIo).then(|| {
            if self.h(SALT_IO) & 1 == 0 {
                IoSite::Open
            } else {
                IoSite::Record
            }
        })
    }

    /// For the serve-layer kinds, the fault to inject while handling
    /// request number `request` (the service's admission counter), or
    /// `None` when this request is spared. Roughly one request in four is
    /// a victim, so a soak sees healthy and faulted requests interleaved;
    /// the victim set is a pure function of `(seed, kind, request)` and so
    /// identical at any worker count.
    #[must_use]
    pub fn serve_fault(&self, request: u64) -> Option<ServeFault> {
        if !self.kind.is_serve() {
            return None;
        }
        let h = mix(&[self.seed, SALT_SERVE, request]);
        if !h.is_multiple_of(4) {
            return None;
        }
        let detail = mix(&[h, SALT_SERVE]);
        Some(match self.kind {
            FaultKind::ServeWorkerPanic => ServeFault::WorkerPanic,
            FaultKind::ServeWorkerStall => ServeFault::WorkerStall { stall_ms: 5 + detail % 25 },
            FaultKind::ServeFrameCorrupt => ServeFault::FrameCorrupt { oversized: detail & 1 == 0 },
            FaultKind::ServeSocketDrop => ServeFault::SocketDrop,
            _ => unreachable!("is_serve() gated above"),
        })
    }

    /// For the on-disk corruption kinds, the deterministic corruption to
    /// apply to a file of `len` bytes. Returns `None` for other kinds or for
    /// empty files.
    #[must_use]
    pub fn file_corruption(&self, len: usize) -> Option<FileCorruption> {
        if !matches!(self.kind, FaultKind::JournalCorrupt | FaultKind::CacheCorrupt) || len == 0 {
            return None;
        }
        let h = self.h(SALT_FILE);
        let offset = (mix(&[h, SALT_FILE]) % len as u64) as usize;
        let c = FileCorruption {
            offset,
            xor_mask: 1 + (h % 255) as u8,
            truncate: h.rotate_right(17).is_multiple_of(4),
        };
        debug_assert!(c.offset < len, "corruption offset past end: {} >= {len}", c.offset);
        debug_assert!(c.xor_mask != 0, "xor mask must actually change the byte");
        Some(c)
    }

    /// For the `Store*` kinds, the deterministic store fault to apply to a
    /// container file of `file_len` bytes whose fixed header occupies the
    /// first `header_len`. Returns `None` for other kinds. Offsets are
    /// placed so each kind hits its own layer: tears and bit flips stay in
    /// the page body, header corruption stays in the header.
    #[must_use]
    pub fn store_fault(&self, file_len: usize, header_len: usize) -> Option<StoreFault> {
        let h = self.h(SALT_STORE);
        let body = file_len.saturating_sub(header_len).max(1);
        let at = (mix(&[h, SALT_STORE]) % body as u64) as usize;
        let mask = 1u8 << (h % 8);
        let fault = match self.kind {
            FaultKind::StoreTornTail => StoreFault::TornTail { drop_bytes: 1 + at },
            FaultKind::StoreBitFlip => {
                StoreFault::BitFlip { offset: header_len + at, xor_mask: mask }
            }
            FaultKind::StoreHeaderCorrupt => StoreFault::HeaderCorrupt {
                offset: (h % header_len.max(1) as u64) as usize,
                xor_mask: mask,
            },
            FaultKind::StoreStaleVersion => StoreFault::StaleVersion { bump: 1 + (h % 64) as u32 },
            _ => return None,
        };
        if let StoreFault::TornTail { drop_bytes } = fault {
            debug_assert!(drop_bytes <= body, "tear must not reach into the header");
        }
        Some(fault)
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (seed {:#018x})", self.kind, self.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn queries_fire_only_for_their_own_kind() {
        for kind in FaultKind::ALL {
            let p = FaultPlan::new(7, kind);
            assert_eq!(p.deadline_cut_chunk().is_some(), kind == FaultKind::DeadlineExhaust);
            assert_eq!(p.rate_poison_factor().is_some(), kind == FaultKind::RatePoison);
            assert_eq!(p.io_fault_site().is_some(), kind == FaultKind::CheckpointIo);
            assert_eq!(
                p.trace_fault().is_some(),
                matches!(
                    kind,
                    FaultKind::TraceValueFlip
                        | FaultKind::TracePrefixPerturb
                        | FaultKind::TraceConsistentCorrupt
                        | FaultKind::TraceTransform
                )
            );
            assert_eq!(
                p.file_corruption(100).is_some(),
                matches!(kind, FaultKind::JournalCorrupt | FaultKind::CacheCorrupt)
            );
            assert_eq!(
                p.store_fault(500, 24).is_some(),
                matches!(
                    kind,
                    FaultKind::StoreTornTail
                        | FaultKind::StoreBitFlip
                        | FaultKind::StoreHeaderCorrupt
                        | FaultKind::StoreStaleVersion
                )
            );
            if kind != FaultKind::ChunkPanic {
                assert!(!(0..64).any(|c| p.chunk_panics(1, c)));
            }
            assert_eq!((0..64).any(|r| p.serve_fault(r).is_some()), kind.is_serve());
        }
    }

    #[test]
    fn core_and_serve_partition_the_kinds() {
        assert_eq!(FaultKind::CORE.len() + FaultKind::SERVE.len(), FaultKind::ALL.len());
        for kind in FaultKind::ALL {
            assert_eq!(
                FaultKind::CORE.contains(&kind),
                !FaultKind::SERVE.contains(&kind),
                "{kind} must be in exactly one family"
            );
            assert_eq!(kind.is_serve(), FaultKind::SERVE.contains(&kind));
        }
    }

    #[test]
    fn serve_faults_spare_most_requests_and_match_their_kind() {
        for kind in FaultKind::SERVE {
            let p = FaultPlan::new(0x5E4E, kind);
            let victims: Vec<u64> = (0..400).filter(|&r| p.serve_fault(r).is_some()).collect();
            // Roughly one in four; generous bounds keep this seed-robust.
            assert!(
                (40..=200).contains(&victims.len()),
                "{kind}: {} victims out of 400",
                victims.len()
            );
            for &r in &victims {
                let fault = p.serve_fault(r).expect("victim");
                assert_eq!(p.serve_fault(r), Some(fault), "pure query");
                match (kind, fault) {
                    (FaultKind::ServeWorkerPanic, ServeFault::WorkerPanic)
                    | (FaultKind::ServeFrameCorrupt, ServeFault::FrameCorrupt { .. })
                    | (FaultKind::ServeSocketDrop, ServeFault::SocketDrop) => {}
                    (FaultKind::ServeWorkerStall, ServeFault::WorkerStall { stall_ms }) => {
                        assert!((5..30).contains(&stall_ms), "stall out of range: {stall_ms}");
                    }
                    (k, f) => panic!("kind {k} produced mismatched fault {f:?}"),
                }
            }
        }
    }

    #[test]
    fn labels_round_trip_and_are_unique() {
        for kind in FaultKind::ALL {
            assert_eq!(FaultKind::parse(kind.label()), Some(kind));
        }
        assert!(FaultKind::parse("no-such-injector").is_none());
        let mut labels: Vec<_> = FaultKind::ALL.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), FaultKind::ALL.len());
    }

    #[test]
    fn panic_victim_depends_on_run_seed_so_retries_can_heal() {
        let p = FaultPlan::new(0xABCD, FaultKind::ChunkPanic);
        let victim = |rs: u64| (0..CHUNK_VICTIM_SLOTS).find(|&c| p.chunk_panics(rs, c));
        // Every run seed has exactly one victim slot...
        for rs in 0..64 {
            assert!(victim(rs).is_some());
        }
        // ...and different run seeds hit different slots.
        let distinct: std::collections::HashSet<_> = (0..64).filter_map(victim).collect();
        assert!(distinct.len() > 1, "victim slot never moved across 64 run seeds");
    }

    proptest! {
        #[test]
        fn all_parameters_are_deterministic_and_in_range(seed in any::<u64>(), len in 1usize..4096) {
            for kind in FaultKind::ALL {
                let p = FaultPlan::new(seed, kind);
                prop_assert_eq!(p.trace_fault(), p.trace_fault());
                match p.trace_fault() {
                    Some(TraceFault::ValueBitFlip { bit }) => prop_assert!((30..=62).contains(&bit)),
                    Some(TraceFault::PrefixPerturb { delta_frac, .. }) =>
                        prop_assert!((0.05..0.5).contains(&delta_frac)),
                    Some(TraceFault::ConsistentScale { factor }) =>
                        prop_assert!((0.25..0.5).contains(&factor)),
                    None => {}
                }
                if let Some(f) = p.rate_poison_factor() {
                    prop_assert!((1.5..3.0).contains(&f));
                }
                if let Some(k) = p.deadline_cut_chunk() {
                    prop_assert!(k < CHUNK_VICTIM_SLOTS);
                }
                if let Some(c) = p.file_corruption(len) {
                    prop_assert!(c.offset < len);
                    prop_assert!(c.xor_mask != 0);
                    prop_assert_eq!(p.file_corruption(len), Some(c));
                }
                let header_len = 24usize;
                if let Some(f) = p.store_fault(len.max(header_len + 1), header_len) {
                    prop_assert_eq!(p.store_fault(len.max(header_len + 1), header_len), Some(f));
                    let body = len.max(header_len + 1) - header_len;
                    match f {
                        StoreFault::TornTail { drop_bytes } => {
                            prop_assert!(drop_bytes >= 1 && drop_bytes <= body);
                        }
                        StoreFault::BitFlip { offset, xor_mask } => {
                            prop_assert!(offset >= header_len);
                            prop_assert!(offset < len.max(header_len + 1));
                            prop_assert!(xor_mask.count_ones() == 1);
                        }
                        StoreFault::HeaderCorrupt { offset, xor_mask } => {
                            prop_assert!(offset < header_len);
                            prop_assert!(xor_mask.count_ones() == 1);
                        }
                        StoreFault::StaleVersion { bump } => {
                            prop_assert!(bump >= 1);
                        }
                    }
                }
                for r in 0..16u64 {
                    prop_assert_eq!(p.serve_fault(r), p.serve_fault(r));
                    if let Some(ServeFault::WorkerStall { stall_ms }) = p.serve_fault(r) {
                        prop_assert!((5..30).contains(&stall_ms));
                    }
                }
            }
        }

        #[test]
        fn file_corruption_always_changes_the_bytes(seed in any::<u64>(), len in 1usize..256) {
            let p = FaultPlan::new(seed, FaultKind::JournalCorrupt);
            let original: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let mut data = original.clone();
            let c = p.file_corruption(len).expect("journal plans always corrupt");
            c.apply(&mut data);
            // Truncation at offset 0 empties the file; a byte flip always
            // changes exactly one byte. Either way the content differs
            // unless truncation cut zero bytes (offset == len, impossible).
            prop_assert_ne!(data, original);
        }
    }
}
