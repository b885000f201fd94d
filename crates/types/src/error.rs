//! The workspace-wide error type.

use std::error::Error;
use std::fmt;

/// Errors produced by the soft-error-analysis crates.
///
/// Most APIs in this workspace enforce their invariants statically or by
/// panicking on programmer error per the validation guidelines; `SerrError`
/// covers the genuinely runtime-fallible operations (parsing, configuration
/// validation, non-converging numerics).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SerrError {
    /// A configuration value was inconsistent or out of range.
    InvalidConfig {
        /// What was wrong.
        reason: String,
    },
    /// A trace was malformed (empty, zero period, vulnerability out of range).
    InvalidTrace {
        /// What was wrong.
        reason: String,
    },
    /// An iterative numerical routine failed to converge.
    NoConvergence {
        /// The routine that failed.
        what: String,
        /// Iterations or subdivisions consumed before giving up.
        after: usize,
    },
    /// A named workload or benchmark was not recognized.
    UnknownWorkload {
        /// The requested name.
        name: String,
    },
    /// One design point of a parallel sweep panicked. The sweep itself
    /// completes; this variant names the poisoned point and carries the
    /// panic payload so partial results stay usable.
    PointFailed {
        /// Input-order index of the failed design point.
        index: usize,
        /// The panic payload, rendered to a string.
        payload: String,
    },
    /// A numeric boundary value was NaN, infinite, or out of its valid
    /// range. Produced by the `try_*` constructors so deep numeric code can
    /// assume finite, in-range inputs.
    InvalidValue {
        /// What the value was supposed to be.
        what: String,
        /// The offending value.
        value: f64,
    },
    /// An estimation engine failed internally: a worker panicked, a sanity
    /// check on its output tripped, or a cross-engine consistency check
    /// rejected the result.
    EngineFault {
        /// Where the fault surfaced (e.g. `monte carlo worker`).
        site: String,
        /// What went wrong, rendered to a string.
        detail: String,
    },
    /// The wall-clock budget was exhausted before the engine completed its
    /// first unit of work, so not even a truncated estimate exists.
    DeadlineExhausted {
        /// The budget that was granted, in seconds.
        budget_s: f64,
        /// Wall-clock seconds actually spent before the engine gave up, so
        /// the caller can tell a zero budget from a badly blown one.
        elapsed_s: f64,
    },
    /// Another live process holds the advisory lock on a checkpoint journal
    /// with the same configuration fingerprint; concurrent writers would
    /// interleave and corrupt the journal.
    JournalLocked {
        /// The lock file that names the holder.
        path: String,
    },
    /// An I/O operation failed in a context where silently degrading is not
    /// an option.
    Io {
        /// The operation that failed (e.g. `open checkpoint journal`).
        site: String,
        /// The underlying error, rendered to a string.
        detail: String,
    },
    /// A binary store file is structurally damaged beyond prefix recovery:
    /// bad magic, a failed header checksum, or an undecodable record inside
    /// a checksum-valid page. Deterministic — retrying the open cannot help.
    StoreCorrupt {
        /// The file or logical store that was damaged.
        site: String,
        /// What the reader tripped over, rendered to a string.
        detail: String,
    },
    /// A binary store file carries a format version this build does not
    /// speak (stale file from an older build, or one from the future).
    /// Deterministic — retrying the open cannot help.
    StoreVersion {
        /// The file or logical store that was rejected.
        site: String,
        /// The version found in the file header.
        found: u32,
        /// The version this build writes and reads.
        expected: u32,
    },
}

impl SerrError {
    /// Convenience constructor for [`SerrError::InvalidConfig`].
    #[must_use]
    pub fn invalid_config(reason: impl Into<String>) -> Self {
        SerrError::InvalidConfig { reason: reason.into() }
    }

    /// Convenience constructor for [`SerrError::InvalidTrace`].
    #[must_use]
    pub fn invalid_trace(reason: impl Into<String>) -> Self {
        SerrError::InvalidTrace { reason: reason.into() }
    }

    /// Convenience constructor for [`SerrError::InvalidValue`].
    #[must_use]
    pub fn invalid_value(what: impl Into<String>, value: f64) -> Self {
        SerrError::InvalidValue { what: what.into(), value }
    }

    /// Checks that `value` is finite and non-negative, the common contract
    /// for rates and durations at system boundaries.
    ///
    /// # Errors
    ///
    /// Returns [`SerrError::InvalidValue`] naming `what` otherwise.
    pub fn require_finite_non_negative(what: &str, value: f64) -> Result<f64, SerrError> {
        if value.is_finite() && value >= 0.0 {
            Ok(value)
        } else {
            Err(SerrError::invalid_value(what, value))
        }
    }

    /// Convenience constructor for [`SerrError::EngineFault`].
    #[must_use]
    pub fn engine_fault(site: impl Into<String>, detail: impl Into<String>) -> Self {
        SerrError::EngineFault { site: site.into(), detail: detail.into() }
    }

    /// Convenience constructor for [`SerrError::Io`].
    #[must_use]
    pub fn io(site: impl Into<String>, detail: impl Into<String>) -> Self {
        SerrError::Io { site: site.into(), detail: detail.into() }
    }

    /// Convenience constructor for [`SerrError::StoreCorrupt`].
    #[must_use]
    pub fn store_corrupt(site: impl Into<String>, detail: impl Into<String>) -> Self {
        SerrError::StoreCorrupt { site: site.into(), detail: detail.into() }
    }

    /// True for errors that describe deterministic on-disk damage — wrong
    /// bytes, not a transient condition — so retry loops can fail fast
    /// instead of burning their backoff budget re-reading the same file.
    #[must_use]
    pub fn is_deterministic_corruption(&self) -> bool {
        matches!(self, SerrError::StoreCorrupt { .. } | SerrError::StoreVersion { .. })
    }

    /// Checks that `value` is finite and strictly positive.
    ///
    /// # Errors
    ///
    /// Returns [`SerrError::InvalidValue`] naming `what` otherwise.
    pub fn require_finite_positive(what: &str, value: f64) -> Result<f64, SerrError> {
        if value.is_finite() && value > 0.0 {
            Ok(value)
        } else {
            Err(SerrError::invalid_value(what, value))
        }
    }
}

impl fmt::Display for SerrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SerrError::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
            SerrError::InvalidTrace { reason } => write!(f, "invalid trace: {reason}"),
            SerrError::NoConvergence { what, after } => {
                write!(f, "{what} did not converge after {after} steps")
            }
            SerrError::UnknownWorkload { name } => write!(f, "unknown workload `{name}`"),
            SerrError::PointFailed { index, payload } => {
                write!(f, "design point {index} panicked: {payload}")
            }
            // Everyday magnitudes read as plain decimals; the rest in the
            // shortest round-trip scientific form, not hundreds of digits.
            SerrError::InvalidValue { what, value } => {
                if *value == 0.0 || !value.is_finite() || (1e-3..1e6).contains(&value.abs()) {
                    write!(f, "invalid value for {what}: {value}")
                } else {
                    write!(f, "invalid value for {what}: {value:e}")
                }
            }
            SerrError::EngineFault { site, detail } => {
                write!(f, "engine fault in {site}: {detail}")
            }
            SerrError::DeadlineExhausted { budget_s, elapsed_s } => {
                write!(
                    f,
                    "deadline of {budget_s} s exhausted before the first trial chunk \
                     ({elapsed_s} s elapsed)"
                )
            }
            SerrError::JournalLocked { path } => {
                write!(f, "checkpoint journal locked by another process: {path}")
            }
            SerrError::Io { site, detail } => write!(f, "i/o error during {site}: {detail}"),
            SerrError::StoreCorrupt { site, detail } => {
                write!(f, "corrupt store {site}: {detail}")
            }
            SerrError::StoreVersion { site, found, expected } => {
                write!(f, "store {site} has format version {found}, expected {expected}")
            }
        }
    }
}

impl Error for SerrError {}

/// Renders a caught panic payload for error reporting: `panic!` with a
/// string message covers practically every panic in this workspace
/// (asserts included); anything else gets a placeholder.
#[must_use]
pub fn panic_payload_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panic_payloads_render_their_message() {
        assert_eq!(panic_payload_string(&"static message"), "static message");
        assert_eq!(panic_payload_string(&String::from("owned message")), "owned message");
        assert_eq!(panic_payload_string(&42u32), "non-string panic payload");
    }

    #[test]
    fn errors_display_lowercase_without_punctuation() {
        let e = SerrError::invalid_config("retirement rate is zero");
        assert_eq!(e.to_string(), "invalid configuration: retirement rate is zero");
        let e = SerrError::NoConvergence { what: "adaptive simpson".into(), after: 40 };
        assert_eq!(e.to_string(), "adaptive simpson did not converge after 40 steps");
    }

    #[test]
    fn extreme_invalid_values_display_in_scientific_form() {
        let e = SerrError::invalid_value("rate", 1e-300);
        assert_eq!(e.to_string(), "invalid value for rate: 1e-300");
        let e = SerrError::invalid_value("rate", 1.585_489_599_188_229e-300);
        assert_eq!(e.to_string(), "invalid value for rate: 1.585489599188229e-300");
        let e = SerrError::invalid_value("rate", -1e300);
        assert_eq!(e.to_string(), "invalid value for rate: -1e300");
        assert_eq!(SerrError::invalid_value("rate", 0.0).to_string(), "invalid value for rate: 0");
    }

    #[test]
    fn new_variants_display_lowercase_without_punctuation() {
        let e = SerrError::PointFailed { index: 7, payload: "boom".into() };
        assert_eq!(e.to_string(), "design point 7 panicked: boom");
        let e = SerrError::invalid_value("raw error rate", f64::NAN);
        assert_eq!(e.to_string(), "invalid value for raw error rate: NaN");
        let e = SerrError::invalid_value("raw error rate", -0.5);
        assert_eq!(e.to_string(), "invalid value for raw error rate: -0.5");
        let e = SerrError::engine_fault("monte carlo worker", "worker panicked");
        assert_eq!(e.to_string(), "engine fault in monte carlo worker: worker panicked");
        let e = SerrError::DeadlineExhausted { budget_s: 0.5, elapsed_s: 0.75 };
        assert_eq!(
            e.to_string(),
            "deadline of 0.5 s exhausted before the first trial chunk (0.75 s elapsed)"
        );
        let e = SerrError::JournalLocked { path: "/tmp/j.lock".into() };
        assert_eq!(e.to_string(), "checkpoint journal locked by another process: /tmp/j.lock");
        let e = SerrError::io("open checkpoint journal", "permission denied");
        assert_eq!(e.to_string(), "i/o error during open checkpoint journal: permission denied");
        let e = SerrError::store_corrupt("/tmp/j.store", "header checksum mismatch");
        assert_eq!(e.to_string(), "corrupt store /tmp/j.store: header checksum mismatch");
        let e = SerrError::StoreVersion { site: "/tmp/j.store".into(), found: 9, expected: 1 };
        assert_eq!(e.to_string(), "store /tmp/j.store has format version 9, expected 1");
    }

    #[test]
    fn corruption_errors_are_classified_deterministic() {
        assert!(SerrError::store_corrupt("f", "bad").is_deterministic_corruption());
        let v = SerrError::StoreVersion { site: "f".into(), found: 2, expected: 1 };
        assert!(v.is_deterministic_corruption());
        assert!(!SerrError::io("open", "eintr").is_deterministic_corruption());
        assert!(!SerrError::JournalLocked { path: "l".into() }.is_deterministic_corruption());
    }

    #[test]
    fn finite_guards_reject_nan_inf_and_sign() {
        assert!(SerrError::require_finite_non_negative("x", 0.0).is_ok());
        assert!(SerrError::require_finite_non_negative("x", 3.5).is_ok());
        assert!(SerrError::require_finite_non_negative("x", -1.0).is_err());
        assert!(SerrError::require_finite_non_negative("x", f64::NAN).is_err());
        assert!(SerrError::require_finite_non_negative("x", f64::INFINITY).is_err());
        assert!(SerrError::require_finite_positive("x", 1e-300).is_ok());
        assert!(SerrError::require_finite_positive("x", 0.0).is_err());
        assert!(SerrError::require_finite_positive("x", f64::NEG_INFINITY).is_err());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SerrError>();
    }
}
