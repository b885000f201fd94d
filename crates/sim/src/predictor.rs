//! Branch direction predictors.
//!
//! The paper's trace-driven methodology annotates branches with a
//! statistical misprediction rate ([`BranchPredictorKind::TraceAnnotation`]);
//! this module additionally models real history-based predictors so the
//! front-end stall structure of the masking traces can be studied as an
//! ablation rather than assumed.

/// Which front-end prediction model the simulator uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BranchPredictorKind {
    /// Use the trace's statistical misprediction annotation (the paper's
    /// methodology; mispredict rate equals the benchmark profile's).
    #[default]
    TraceAnnotation,
    /// Per-site 2-bit saturating counters with `entries` slots.
    Bimodal {
        /// Table entries (power of two).
        entries: usize,
    },
    /// Global-history-XOR-site indexed 2-bit counters.
    Gshare {
        /// Table entries (power of two).
        entries: usize,
        /// Global history bits folded into the index.
        history_bits: u32,
    },
}

/// A direction predictor: predict, then learn the outcome.
pub trait DirectionPredictor: Send {
    /// Predicts whether the branch at `site` is taken.
    fn predict(&mut self, site: u32) -> bool;
    /// Trains on the resolved outcome.
    fn update(&mut self, site: u32, taken: bool);
}

/// Two-bit saturating counter helper: 0,1 predict not-taken; 2,3 taken.
fn counter_predict(c: u8) -> bool {
    c >= 2
}

fn counter_update(c: u8, taken: bool) -> u8 {
    if taken {
        (c + 1).min(3)
    } else {
        c.saturating_sub(1)
    }
}

/// Per-site 2-bit saturating counters (Smith predictor).
///
/// ```
/// use serr_sim::predictor::{Bimodal, DirectionPredictor};
/// let mut p = Bimodal::new(64);
/// for _ in 0..4 {
///     p.update(7, true);
/// }
/// assert!(p.predict(7));
/// ```
#[derive(Debug, Clone)]
pub struct Bimodal {
    table: Vec<u8>,
    mask: usize,
}

impl Bimodal {
    /// Creates a table of `entries` counters, initialized weakly not-taken.
    ///
    /// # Panics
    ///
    /// Panics unless `entries` is a nonzero power of two.
    #[must_use]
    pub fn new(entries: usize) -> Self {
        assert!(entries.is_power_of_two(), "table size must be a power of two");
        Bimodal { table: vec![1; entries], mask: entries - 1 }
    }
}

impl DirectionPredictor for Bimodal {
    fn predict(&mut self, site: u32) -> bool {
        counter_predict(self.table[site as usize & self.mask])
    }

    fn update(&mut self, site: u32, taken: bool) {
        let slot = &mut self.table[site as usize & self.mask];
        *slot = counter_update(*slot, taken);
    }
}

/// Gshare: 2-bit counters indexed by `site XOR global-history`.
#[derive(Debug, Clone)]
pub struct Gshare {
    table: Vec<u8>,
    mask: usize,
    history: u32,
    history_mask: u32,
}

impl Gshare {
    /// Creates a gshare predictor.
    ///
    /// # Panics
    ///
    /// Panics unless `entries` is a nonzero power of two or `history_bits`
    /// exceeds 31.
    #[must_use]
    pub fn new(entries: usize, history_bits: u32) -> Self {
        assert!(entries.is_power_of_two(), "table size must be a power of two");
        assert!(history_bits <= 31, "history must fit a u32");
        Gshare {
            table: vec![1; entries],
            mask: entries - 1,
            history: 0,
            history_mask: (1u32 << history_bits) - 1,
        }
    }

    fn index(&self, site: u32) -> usize {
        ((site ^ (self.history & self.history_mask)) as usize) & self.mask
    }
}

impl DirectionPredictor for Gshare {
    fn predict(&mut self, site: u32) -> bool {
        counter_predict(self.table[self.index(site)])
    }

    fn update(&mut self, site: u32, taken: bool) {
        let idx = self.index(site);
        self.table[idx] = counter_update(self.table[idx], taken);
        self.history = (self.history << 1) | u32::from(taken);
    }
}

/// Instantiates the configured predictor, or `None` for annotation mode.
#[must_use]
pub fn build(kind: BranchPredictorKind) -> Option<Box<dyn DirectionPredictor>> {
    match kind {
        BranchPredictorKind::TraceAnnotation => None,
        BranchPredictorKind::Bimodal { entries } => Some(Box::new(Bimodal::new(entries))),
        BranchPredictorKind::Gshare { entries, history_bits } => {
            Some(Box::new(Gshare::new(entries, history_bits)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Synthetic site population mirroring the trace generator's bimodal
    /// bias distribution.
    fn biased_stream(n: usize, seed: u64) -> Vec<(u32, bool)> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let biases: Vec<f64> = (0..256)
            .map(|_| {
                let u: f64 = rng.gen_range(0.0..1.0);
                if u < 0.4 {
                    0.95
                } else if u < 0.8 {
                    0.05
                } else {
                    0.5
                }
            })
            .collect();
        (0..n)
            .map(|_| {
                let u: f64 = rng.gen_range(0.0..1.0);
                let site = ((u * u) * 256.0) as u32;
                let taken = rng.gen_range(0.0..1.0) < biases[site as usize];
                (site, taken)
            })
            .collect()
    }

    fn accuracy(p: &mut dyn DirectionPredictor, stream: &[(u32, bool)]) -> f64 {
        let mut hits = 0usize;
        for &(site, taken) in stream {
            if p.predict(site) == taken {
                hits += 1;
            }
            p.update(site, taken);
        }
        hits as f64 / stream.len() as f64
    }

    #[test]
    fn counters_saturate() {
        let mut c = 1u8;
        for _ in 0..10 {
            c = counter_update(c, true);
        }
        assert_eq!(c, 3);
        for _ in 0..10 {
            c = counter_update(c, false);
        }
        assert_eq!(c, 0);
        assert!(!counter_predict(1));
        assert!(counter_predict(2));
    }

    #[test]
    fn bimodal_learns_biased_sites() {
        let stream = biased_stream(100_000, 11);
        let acc = accuracy(&mut Bimodal::new(1024), &stream);
        assert!(acc > 0.85, "bimodal accuracy {acc}");
    }

    #[test]
    fn bimodal_aliasing_hurts() {
        // A 4-entry table aliases 256 sites: accuracy must drop measurably.
        let stream = biased_stream(100_000, 11);
        let big = accuracy(&mut Bimodal::new(1024), &stream);
        let tiny = accuracy(&mut Bimodal::new(4), &stream);
        assert!(big > tiny + 0.03, "big {big} vs tiny {tiny}");
    }

    #[test]
    fn gshare_needs_correlation_bimodal_needs_bias() {
        // On history-UNcorrelated biased branches, gshare's history bits
        // are pure index noise: bimodal wins decisively. This is the
        // textbook failure mode, reproduced.
        let stream = biased_stream(100_000, 13);
        let bim = accuracy(&mut Bimodal::new(1024), &stream);
        let gs = accuracy(&mut Gshare::new(4096, 8), &stream);
        assert!(bim > gs + 0.1, "bimodal {bim} should beat gshare {gs} here");

        // On a history-CORRELATED pattern (period-4 T,T,N,T at one site),
        // gshare learns the pattern and approaches perfection while
        // bimodal saturates at the majority direction (75%).
        let pattern: Vec<(u32, bool)> = (0..40_000).map(|i| (7u32, i % 4 != 2)).collect();
        let bim = accuracy(&mut Bimodal::new(1024), &pattern);
        let gs = accuracy(&mut Gshare::new(4096, 8), &pattern);
        assert!(gs > 0.95, "gshare should learn the pattern: {gs}");
        assert!(bim < 0.80, "bimodal cannot: {bim}");
    }

    #[test]
    fn build_dispatches() {
        assert!(build(BranchPredictorKind::TraceAnnotation).is_none());
        assert!(build(BranchPredictorKind::Bimodal { entries: 64 }).is_some());
        assert!(build(BranchPredictorKind::Gshare { entries: 64, history_bits: 6 }).is_some());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = Bimodal::new(100);
    }
}
