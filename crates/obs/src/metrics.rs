//! Counters, gauges, and fixed-bucket log2 histograms.
//!
//! All aggregation is commutative: counters add, gauges keep the last
//! written value under a total order on writes (callers write gauges from
//! one thread), and histograms merge bucket-wise with Kahan-compensated
//! totals. That keeps metric values independent of worker interleaving,
//! matching the engine's thread-count-invariance contract.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;

use serr_numeric::KahanSum;

use crate::event::{push_json_f64, push_json_str};

/// Number of fixed buckets. Bucket `i` covers values in
/// `[2^(i - ZERO_BUCKET), 2^(i - ZERO_BUCKET + 1))`; values that are not
/// finite and positive land in bucket 0.
pub const BUCKETS: usize = 64;
const ZERO_BUCKET: i32 = 32;

/// A fixed-bucket base-2 histogram with a Kahan-compensated running total.
///
/// Bucket boundaries are powers of two from `2^-32` to `2^31`, which spans
/// sub-nanosecond stage timings (in ms) up to multi-week MTTFs (in hours)
/// without configuration. Merging is bucket-wise and therefore exactly
/// associative and commutative on counts; totals are compensated, so merge
/// order perturbs them by at most one ulp-scale rounding per merge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Log2Histogram {
    counts: [u64; BUCKETS],
    total: KahanSum,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram { counts: [0; BUCKETS], total: KahanSum::new() }
    }
}

impl Log2Histogram {
    #[must_use]
    pub fn new() -> Self {
        Log2Histogram::default()
    }

    /// The fixed bucket index for `value`.
    #[must_use]
    pub fn bucket_index(value: f64) -> usize {
        if value.is_finite() && value > 0.0 {
            let exp = value.log2().floor() as i32 + ZERO_BUCKET;
            exp.clamp(0, BUCKETS as i32 - 1) as usize
        } else {
            0
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: f64) {
        self.counts[Self::bucket_index(value)] += 1;
        if value.is_finite() {
            self.total.add(value);
        }
    }

    /// Merges another histogram into this one. Counts merge exactly;
    /// totals merge with Kahan compensation.
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.total.merge(&other.total);
    }

    /// Total number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Compensated sum of all finite observations.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.total.sum()
    }

    /// Mean of the finite observations, or `None` if empty.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        self.total.mean()
    }

    /// The raw bucket counts.
    #[must_use]
    pub fn bucket_counts(&self) -> &[u64; BUCKETS] {
        &self.counts
    }

    /// Non-empty buckets as `"index:count"` pairs joined by commas — a
    /// compact, order-stable rendering for JSONL metric rows.
    #[must_use]
    pub fn sparse_buckets(&self) -> String {
        let mut out = String::new();
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 {
                if !out.is_empty() {
                    out.push(',');
                }
                let _ = write!(out, "{i}:{c}");
            }
        }
        out
    }
}

/// A point-in-time copy of every registered metric.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
    pub histograms: BTreeMap<String, Log2Histogram>,
}

impl MetricsSnapshot {
    /// Renders the snapshot as JSONL rows (one metric per line), sorted by
    /// metric name within each family so output is deterministic.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            out.push_str("{\"metric\":");
            push_json_str(&mut out, name);
            let _ = writeln!(out, ",\"type\":\"counter\",\"value\":{value}}}");
        }
        for (name, value) in &self.gauges {
            out.push_str("{\"metric\":");
            push_json_str(&mut out, name);
            out.push_str(",\"type\":\"gauge\",\"value\":");
            push_json_f64(&mut out, *value);
            out.push_str("}\n");
        }
        for (name, hist) in &self.histograms {
            out.push_str("{\"metric\":");
            push_json_str(&mut out, name);
            let _ = write!(out, ",\"type\":\"histogram\",\"count\":{}", hist.count());
            out.push_str(",\"sum\":");
            push_json_f64(&mut out, hist.sum());
            out.push_str(",\"mean\":");
            push_json_f64(&mut out, hist.mean().unwrap_or(f64::NAN));
            out.push_str(",\"buckets\":");
            push_json_str(&mut out, &hist.sparse_buckets());
            out.push_str("}\n");
        }
        out
    }
}

#[derive(Debug, Default)]
struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Log2Histogram>,
}

/// A thread-safe metrics registry. One short mutex hold per update; the
/// intended usage pattern is coarse (per chunk / per stage), not per
/// sample, so contention is negligible.
#[derive(Debug, Default)]
pub struct Metrics {
    inner: Mutex<Registry>,
}

impl Metrics {
    #[must_use]
    pub fn new() -> Self {
        Metrics::default()
    }

    fn registry(&self) -> std::sync::MutexGuard<'_, Registry> {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Adds `delta` to the monotonic counter `name`.
    pub fn add(&self, name: &str, delta: u64) {
        let mut reg = self.registry();
        *reg.counters.entry(name.to_owned()).or_insert(0) += delta;
    }

    /// Sets the gauge `name` to `value` (last write wins).
    pub fn set_gauge(&self, name: &str, value: f64) {
        self.registry().gauges.insert(name.to_owned(), value);
    }

    /// Records one observation into the histogram `name`.
    pub fn observe(&self, name: &str, value: f64) {
        self.registry().histograms.entry(name.to_owned()).or_default().observe(value);
    }

    /// Merges a whole histogram into `name` (commutative bucket-wise add).
    pub fn merge_histogram(&self, name: &str, hist: &Log2Histogram) {
        self.registry().histograms.entry(name.to_owned()).or_default().merge(hist);
    }

    /// A copy of the current state of every metric.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let reg = self.registry();
        MetricsSnapshot {
            counters: reg.counters.clone(),
            gauges: reg.gauges.clone(),
            histograms: reg.histograms.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_mapping_covers_the_line() {
        assert_eq!(Log2Histogram::bucket_index(1.0), 32);
        assert_eq!(Log2Histogram::bucket_index(2.0), 33);
        assert_eq!(Log2Histogram::bucket_index(1.5), 32);
        assert_eq!(Log2Histogram::bucket_index(0.5), 31);
        // Out-of-range, non-positive, and non-finite inputs are absorbed,
        // never panicking.
        assert_eq!(Log2Histogram::bucket_index(0.0), 0);
        assert_eq!(Log2Histogram::bucket_index(-3.0), 0);
        assert_eq!(Log2Histogram::bucket_index(f64::NAN), 0);
        assert_eq!(Log2Histogram::bucket_index(1e300), BUCKETS - 1);
        assert_eq!(Log2Histogram::bucket_index(1e-300), 0);
    }

    #[test]
    fn histogram_counts_and_means() {
        let mut h = Log2Histogram::new();
        for v in [1.0, 2.0, 3.0, 4.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 10.0);
        assert_eq!(h.mean(), Some(2.5));
        assert_eq!(h.bucket_counts()[32], 1); // 1.0
        assert_eq!(h.bucket_counts()[33], 2); // 2.0, 3.0
        assert_eq!(h.bucket_counts()[34], 1); // 4.0
        assert_eq!(h.sparse_buckets(), "32:1,33:2,34:1");
    }

    #[test]
    fn counters_and_gauges_round_trip() {
        let m = Metrics::new();
        m.add("mc.chunks", 3);
        m.add("mc.chunks", 4);
        m.set_gauge("mc.samples_per_sec", 123.5);
        m.observe("stage.sweep_point_ms", 8.0);
        let snap = m.snapshot();
        assert_eq!(snap.counters["mc.chunks"], 7);
        assert_eq!(snap.gauges["mc.samples_per_sec"], 123.5);
        assert_eq!(snap.histograms["stage.sweep_point_ms"].count(), 1);
        let jsonl = snap.to_jsonl();
        assert!(jsonl.contains("{\"metric\":\"mc.chunks\",\"type\":\"counter\",\"value\":7}"));
        assert!(jsonl.contains("\"type\":\"gauge\",\"value\":123.5"));
        assert!(jsonl.contains("\"type\":\"histogram\",\"count\":1"));
    }

    #[test]
    fn empty_histogram_serialises_mean_as_null() {
        let m = Metrics::new();
        m.merge_histogram("empty", &Log2Histogram::new());
        assert!(m.snapshot().to_jsonl().contains("\"mean\":null"));
    }
}
