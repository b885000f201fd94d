//! Thread-count invariance of the estimates AND their telemetry.
//!
//! The engine's determinism contract says a run is bit-identical at any
//! worker-thread count. The observability layer must not weaken that:
//! event sequence keys derive from (point, chunk) indices (never
//! scheduling), the per-chunk convergence snapshots are emitted from the
//! main-thread fold in ascending chunk order, one rate or many, and
//! counters aggregate commutatively — so the
//! whole telemetry stream, rendered to JSON, is byte-identical too (modulo
//! wall-clock-valued stage timings, which keep deterministic *keys*).

use serr_core::prelude::*;
use serr_obs::{Event, Obs};

struct Telemetry {
    estimate: MttfEstimate,
    /// The rate list's estimates; its first rate is the one-rate run's.
    list: Vec<MttfEstimate>,
    /// Full JSON rendering of the one-rate run's `mc.chunk` events.
    one_rate_chunk_json: Vec<String>,
    /// Full JSON rendering of every `mc.chunk` convergence event, the
    /// one-rate run's followed by the rate list's.
    chunk_json: Vec<String>,
    /// `(kind, seq)` for every event, in emission order.
    sequence_keys: Vec<(String, u64)>,
    /// All counters (deterministic; gauges carry wall-clock rates).
    counters: Vec<(String, u64)>,
}

/// One rate, then a three-rate list led by the same rate, on one observer:
/// both run through the same chunk loop and speak the same vocabulary.
fn observed_run(threads: usize) -> Telemetry {
    let trace = IntervalTrace::busy_idle(1_000, 3_000).expect("valid trace");
    let cfg = MonteCarloConfig { trials: 10_000, threads, seed: 0x0D15_EA5E, ..Default::default() };
    let (obs, sink) = Obs::memory();
    let mc = MonteCarlo::new(cfg).with_observer(obs.clone());
    let rate = RawErrorRate::per_year(25.0);
    let estimate = mc.component_mttf(&trace, rate, Frequency::base()).expect("MC run succeeds");
    let one_rate_chunk_json: Vec<String> =
        sink.events_of("mc.chunk").iter().map(Event::to_json).collect();
    let list = mc
        .component_mttf_multi(&trace, &[rate, rate.scale(2.0), rate.scale(4.0)], Frequency::base())
        .expect("rate-list run succeeds")
        .into_iter()
        .map(|e| e.expect("every point succeeds"))
        .collect();
    Telemetry {
        estimate,
        list,
        one_rate_chunk_json,
        chunk_json: sink.events_of("mc.chunk").iter().map(Event::to_json).collect(),
        sequence_keys: sink.events().iter().map(|e| (e.kind.to_owned(), e.seq)).collect(),
        counters: obs.metrics().snapshot().counters.into_iter().collect(),
    }
}

#[test]
fn telemetry_is_byte_identical_across_thread_counts() {
    let one = observed_run(1);
    let eight = observed_run(8);

    // The estimate itself: bit-identical, observer attached or not, and
    // the same as the rate list's first point.
    assert_eq!(one.estimate, eight.estimate);
    assert_eq!(
        one.estimate.mttf.as_secs().to_bits(),
        eight.estimate.mttf.as_secs().to_bits(),
        "estimates must be bit-identical at 1 vs 8 threads"
    );
    assert_eq!(one.list, eight.list);
    assert_eq!(one.list[0], one.estimate, "a one-rate run is the rate list's first point");

    // Convergence snapshots: same count, same keys, same rendered bytes —
    // ten chunks for the one-rate run, ten per point for the list.
    assert_eq!(one.one_rate_chunk_json.len(), 10, "run must emit one snapshot per chunk");
    assert_eq!(one.chunk_json.len(), 40);
    assert_eq!(one.chunk_json, eight.chunk_json, "mc.chunk JSON must not depend on threads");

    // Every event's (kind, seq) — including stage timings, whose *values*
    // are wall clock but whose keys are program-ordered.
    assert_eq!(one.sequence_keys, eight.sequence_keys);

    // Counters aggregate commutatively, and count every point of both runs.
    assert_eq!(one.counters, eight.counters);
    let runs = one.counters.iter().find(|(k, _)| k == "mc.runs").map(|&(_, v)| v);
    assert_eq!(runs, Some(4));
}

#[test]
fn convergence_snapshots_tighten_the_estimator() {
    // The telemetry exists so `--metrics` shows the CI half-width shrinking
    // as chunks fold in; verify the trajectory it reports actually narrows
    // (1/sqrt(n)-ish) from the first snapshot to the last.
    let t = observed_run(4);
    let ci = |line: &str| -> f64 {
        let json = serr_core::jsonio::Json::parse(line).expect("chunk event renders valid JSON");
        json.get("ci95_s").and_then(serr_core::jsonio::Json::as_f64).expect("ci95_s field")
    };
    let first = ci(&t.one_rate_chunk_json[0]);
    let last = ci(t.one_rate_chunk_json.last().expect("at least one snapshot"));
    assert!(first.is_finite() && last.is_finite());
    assert!(
        last < first,
        "CI half-width should tighten across chunks: first {first:.3e}, last {last:.3e}"
    );
}
