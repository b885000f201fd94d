//! `serr-store` — the durable binary container every crash-safe artifact in
//! the workspace writes: checkpoint journals, the trace cache, and the
//! serve result/pending journals.
//!
//! One versioned little-endian format (magic + format version + typed
//! record stream), CRC-32 on every page header and payload, varint record
//! lengths, and prefix-sum page indices. Two write disciplines:
//!
//! * **Batch** ([`StoreBuilder`] + [`write_atomic`]): build the whole image
//!   in memory, commit via tmp-file + rename — readers see the old file or
//!   the complete new one, never a torn intermediate. Used by the trace
//!   cache.
//! * **Append** ([`PageJournal`]): one fsynced page per append, so a crash
//!   tears at most the in-flight page. On reopen the torn tail is detected
//!   by checksum, truncated back to the last valid page boundary, and
//!   appends resume there. Used by checkpoint and serve journals.
//!
//! The recovery contract, everywhere: **never panic** on foreign bytes —
//! return a typed [`SerrError`](serr_types::SerrError) (damaged/missing header, wrong format
//! version) or a degraded-but-usable prefix (any damage at or after the
//! first page).
//!
//! Record payloads are opaque here: each caller encodes its own records
//! (varints from [`varint`], floats as raw little-endian bits so resumed
//! values are bit-identical to what was computed).

#![warn(missing_docs)]

pub mod crc32;
pub mod mmap;
pub mod pages;
pub mod varint;

pub use crc32::crc32;
pub use mmap::FileBytes;
pub use pages::{
    decode_header, encode_header, encode_page, forge_format_version, inspect, read_store, recover,
    write_atomic, Header, JournalRecovery, PageInfo, PageJournal, Recovered, StoreBuilder,
    StoreReport, DEFAULT_PAGE_LIMIT, FORMAT_VERSION, FORMAT_VERSION_RANGE, HEADER_LEN, MAGIC,
    PAGE_HEADER_LEN,
};

/// Stream kinds currently assigned. Kept in one place so `serr store
/// inspect` can name them and no two callers collide.
pub mod kind {
    /// `serr-core::checkpoint` sweep journals (rows keyed by point index).
    pub const CHECKPOINT_JOURNAL: u32 = 1;
    /// The trace cache: one simulation output per file.
    pub const TRACE_CACHE: u32 = 2;

    /// Human label for a stream kind, for diagnostics.
    #[must_use]
    pub fn label(kind: u32) -> &'static str {
        match kind {
            CHECKPOINT_JOURNAL => "checkpoint-journal",
            TRACE_CACHE => "trace-cache",
            _ => "unknown",
        }
    }
}
