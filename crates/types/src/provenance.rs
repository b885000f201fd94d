//! Provenance tags for reliability estimates.
//!
//! Every number the guarded estimation path emits carries a [`Provenance`]
//! tag describing how much of the normal pipeline actually produced it. The
//! tags form a severity lattice — `Clean < Retried < Degraded < Suspect` —
//! and combine with [`Provenance::worse`], so a result that was both retried
//! and deadline-truncated ends up `Degraded`, not `Retried`.

use std::fmt;

/// How an estimate was produced, ordered from best to worst.
///
/// The derived `Ord` is the severity order used by [`Provenance::worse`]:
/// `Clean < Retried < Degraded < Suspect`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Provenance {
    /// The primary estimator ran once and passed every consistency check.
    #[default]
    Clean,
    /// The primary estimator failed at least once but a retry (fresh seed,
    /// recompiled trace) produced a value that passed every check.
    Retried,
    /// The primary estimator never produced an acceptable value; the result
    /// is a labeled fallback (analytic renewal estimate, truncated partial
    /// estimate, or a journal-less sweep).
    Degraded,
    /// Independent references disagree beyond tolerance, so no single value
    /// can be trusted; the reported number is best-effort only.
    Suspect,
}

impl Provenance {
    /// Every tag, in severity order. Handy for exhaustive reports.
    pub const ALL: [Provenance; 4] =
        [Provenance::Clean, Provenance::Retried, Provenance::Degraded, Provenance::Suspect];

    /// The lowercase label used in CLI output and JSONL rows.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Provenance::Clean => "clean",
            Provenance::Retried => "retried",
            Provenance::Degraded => "degraded",
            Provenance::Suspect => "suspect",
        }
    }

    /// Combines two tags, keeping the more severe one.
    #[must_use]
    pub fn worse(self, other: Provenance) -> Provenance {
        self.max(other)
    }

    /// True for the only tag that claims the full pipeline succeeded.
    #[must_use]
    pub fn is_clean(self) -> bool {
        self == Provenance::Clean
    }
}

impl fmt::Display for Provenance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_order_is_clean_retried_degraded_suspect() {
        let [a, b, c, d] = Provenance::ALL;
        assert!(a < b && b < c && c < d);
        assert_eq!(a, Provenance::Clean);
        assert_eq!(d, Provenance::Suspect);
    }

    #[test]
    fn worse_keeps_the_more_severe_tag() {
        assert_eq!(Provenance::Clean.worse(Provenance::Retried), Provenance::Retried);
        assert_eq!(Provenance::Suspect.worse(Provenance::Degraded), Provenance::Suspect);
        assert_eq!(Provenance::Degraded.worse(Provenance::Degraded), Provenance::Degraded);
    }

    #[test]
    fn labels_are_lowercase_and_display_matches() {
        for p in Provenance::ALL {
            assert_eq!(p.label(), p.to_string());
            assert!(p.label().chars().all(|c| c.is_ascii_lowercase()));
        }
        assert!(Provenance::Clean.is_clean());
        assert!(!Provenance::Retried.is_clean());
    }

    #[test]
    fn default_is_clean() {
        assert_eq!(Provenance::default(), Provenance::Clean);
    }
}
