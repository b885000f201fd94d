//! Simulation telemetry on the `--metrics` observer: a `spec:` workload's
//! timing simulation and trace-cache traffic show up in the run's JSONL.
//!
//! Each run is a separate `serr` process (the in-process simulation memo
//! would otherwise hide the cache), pointed at a private trace cache
//! through `SERR_TRACE_CACHE`.

use std::path::{Path, PathBuf};
use std::process::Command;

use serr_core::jsonio::Json;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("serr-sim-telemetry-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs `serr mttf -w <workload> --metrics` at `threads` against the
/// cache in `dir` and returns its parsed JSONL events.
fn observed_mttf(dir: &Path, run: &str, workload: &str, threads: &str) -> Vec<Json> {
    let jsonl = dir.join(format!("{run}.jsonl"));
    let out = Command::new(env!("CARGO_BIN_EXE_serr"))
        .args(["mttf", "-w", workload, "--n-s", "1e10", "--trials", "2000", "--metrics"])
        .arg(&jsonl)
        .env("SERR_TRACE_CACHE", dir.join("cache"))
        .env("SERR_THREADS", threads)
        .output()
        .expect("run serr");
    assert!(out.status.success(), "{run} run failed: {}", String::from_utf8_lossy(&out.stderr));
    std::fs::read_to_string(&jsonl)
        .expect("metrics JSONL written")
        .lines()
        .map(|l| Json::parse(l).expect("every JSONL line parses"))
        .collect()
}

fn field(e: &Json, key: &str) -> String {
    e.get(key).and_then(Json::as_str).unwrap_or_default().to_owned()
}

/// The `(event, name)` pairs of a run's metrics snapshot.
fn metric_names(events: &[Json]) -> Vec<(String, String)> {
    events
        .iter()
        .map(|e| (field(e, "event"), field(e, "name")))
        .filter(|(kind, _)| kind.starts_with("metric."))
        .collect()
}

#[test]
fn cold_run_records_simulation_and_warm_run_records_cache_load() {
    let dir = scratch("cold-warm");
    let has = |names: &[(String, String)], kind: &str, name: &str| {
        names.iter().any(|(k, n)| k == kind && n == name)
    };

    let cold = metric_names(&observed_mttf(&dir, "cold", "spec:gzip", "1"));
    for (kind, name) in [
        ("metric.histogram", "stage.sim_ms"),
        ("metric.histogram", "stage.trace_cache_store_ms"),
        ("metric.counter", "sim.cycles"),
        ("metric.counter", "sim.skipped_cycles"),
    ] {
        assert!(has(&cold, kind, name), "cold run must record {name}: {cold:?}");
    }
    assert!(!has(&cold, "metric.histogram", "stage.trace_cache_load_ms"));

    let warm = metric_names(&observed_mttf(&dir, "warm", "spec:gzip", "1"));
    assert!(
        has(&warm, "metric.histogram", "stage.trace_cache_load_ms"),
        "warm run must record the cache load: {warm:?}"
    );
    assert!(!has(&warm, "metric.histogram", "stage.sim_ms"), "warm run must not simulate");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn telemetry_keys_and_counts_do_not_depend_on_threads() {
    // `combined` simulates gzip and swim in parallel when threads allow.
    let runs: Vec<Vec<Json>> = ["1", "2"]
        .iter()
        .map(|threads| {
            let dir = scratch(&format!("threads-{threads}"));
            let events = observed_mttf(&dir, "cold", "combined", threads);
            let _ = std::fs::remove_dir_all(&dir);
            events
        })
        .collect();
    // Every event's key, in emission order; and every counter's value.
    let keys = |events: &[Json]| -> Vec<(String, String, String)> {
        events
            .iter()
            .map(|e| {
                let seq = e.get("seq").and_then(Json::as_f64).unwrap_or(-1.0);
                (field(e, "event"), format!("{seq}"), field(e, "name"))
            })
            .collect()
    };
    let counters = |events: &[Json]| -> Vec<String> {
        events
            .iter()
            .filter(|e| field(e, "event") == "metric.counter")
            .map(|e| format!("{}={:?}", field(e, "name"), e.get("value").and_then(Json::as_f64)))
            .collect()
    };
    assert_eq!(keys(&runs[0]), keys(&runs[1]));
    assert_eq!(counters(&runs[0]), counters(&runs[1]));
    assert!(counters(&runs[0]).iter().any(|c| c.starts_with("sim.skipped_cycles=")));
    let sims = |events: &[Json]| {
        events
            .iter()
            .find(|e| field(e, "name") == "stage.sim_ms")
            .and_then(|e| e.get("count")?.as_f64())
    };
    assert_eq!(sims(&runs[0]), Some(2.0), "gzip and swim each simulate once");
}
