//! Provenance tags for reliability estimates.
//!
//! Every validation row carries a [`Provenance`] tag: the `Validator`'s
//! verdict on how far the row's Monte Carlo estimate and its two exact
//! references (renewal and SoftArch) vouch for each other, floored by any
//! repair on the way (a compiled trace rebuilt after a failed integrity
//! check). The CLI, the sweeps, `serr serve` and the chaos harness all read
//! it from the row. The tags form a severity lattice — `Clean < Retried <
//! Degraded < Suspect` — and combine with [`Provenance::worse`], so a
//! result that was both repaired and deadline-truncated ends up `Degraded`,
//! not `Retried`.

use std::fmt;

/// How an estimate was produced, ordered from best to worst.
///
/// The derived `Ord` is the severity order used by [`Provenance::worse`]:
/// `Clean < Retried < Degraded < Suspect`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Provenance {
    /// The estimate passed every check: sane statistics, Monte Carlo within
    /// noise of renewal, SoftArch within tolerance of renewal.
    #[default]
    Clean,
    /// A fault was detected and repaired before the estimate ran (a
    /// compiled trace rebuilt after a failed integrity check, a damaged
    /// journal recomputed), and the result passed every check.
    Retried,
    /// The result is honest but something it rests on is not: a truncated
    /// run, a Monte Carlo estimate that both exact references contradict, a
    /// SoftArch reference off renewal, a point that failed with a typed
    /// error, or a journal-less sweep.
    Degraded,
    /// The estimate failed its sanity screen, or it disagrees with renewal
    /// and SoftArch disagrees too, so nothing vouches for the number; it is
    /// best-effort only.
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
