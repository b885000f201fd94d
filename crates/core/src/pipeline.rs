//! The SPEC simulation pipeline: benchmark name → timing simulation →
//! masking traces → processor-level composite trace.
//!
//! Detailed simulation is the expensive stage of the paper's methodology,
//! so runs are memoized at two levels: per `(benchmark, instructions,
//! seed)` within the process, and — for the masking traces, which are all
//! downstream estimation needs — in an on-disk cache under
//! `target/serr-trace-cache/` shared by every binary of the workspace.
//! Set `SERR_TRACE_CACHE=off` to disable the disk layer (e.g. after
//! changing the simulator) or point it at another directory.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use serr_obs::{Event, Obs};
use serr_sim::{ProcessorMaskingTraces, SimConfig, SimOutput, SimStats, Simulator};
use serr_store::pages::{recover, write_atomic, StoreBuilder};
use serr_store::{kind as store_kind, FileBytes};
use serr_trace::{
    decode_interval_trace, encode_interval_trace, CompositeTrace, VulnerabilityTrace,
};
use serr_types::SerrError;
use serr_workload::{BenchmarkProfile, TraceGenerator};

use crate::par;
use crate::rates::UnitRates;

/// Bump when generator or trace-format changes invalidate cached traces
/// (machine-configuration changes are covered by the config fingerprint).
/// It is part of [`crate::checkpoint::results_version`], so a bump also
/// stops sweeps and the daemon resuming rows computed from the old traces.
/// v4: a leading FNV-1a content checksum guards the whole payload.
/// v5: the `serr-store` CRC-paged container (`.store` extension, stream
/// kind [`serr_store::kind::TRACE_CACHE`], this constant as the `app`
/// header field) with five records — the stats block and the four unit
/// traces — and memory-mapped zero-copy loads.
pub(crate) const CACHE_VERSION: u32 = 5;

/// FNV-1a over arbitrary bytes — the config fingerprint.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// FNV-1a over the machine configuration's debug rendering: any change to
/// the simulated machine silently invalidates old cache entries.
fn config_fingerprint(cfg: &SimConfig) -> u64 {
    fnv1a(format!("{cfg:?}").as_bytes())
}

fn cache_dir() -> Option<PathBuf> {
    match std::env::var("SERR_TRACE_CACHE") {
        Ok(v) if v == "off" => None,
        Ok(v) if !v.is_empty() => Some(PathBuf::from(v)),
        _ => Some(PathBuf::from("target/serr-trace-cache")),
    }
}

fn cache_path(name: &str, instructions: u64, seed: u64, cfg: &SimConfig) -> Option<PathBuf> {
    let fp = config_fingerprint(cfg);
    cache_dir()
        .map(|d| d.join(format!("v{CACHE_VERSION}-{fp:016x}-{name}-{instructions}-{seed}.store")))
}

/// On-disk format: a fixed-width stats header followed by the four traces
/// in the `serr-trace` binary codec.
fn encode_stats(s: &SimStats) -> [u8; 72] {
    let mut out = [0u8; 72];
    let fields = [
        s.cycles as f64,
        s.instructions as f64,
        s.l1i_miss_rate,
        s.l1d_miss_rate,
        s.l2_miss_rate,
        s.dtlb_miss_rate,
        s.branch_mispredicts as f64,
        s.dispatch_stall_cycles as f64,
        s.l1d_writebacks as f64,
    ];
    for (i, f) in fields.iter().enumerate() {
        out[i * 8..(i + 1) * 8].copy_from_slice(&f.to_le_bytes());
    }
    out
}

fn decode_stats(b: &[u8]) -> Option<SimStats> {
    if b.len() != 72 {
        return None;
    }
    let mut f = [0.0f64; 9];
    for (slot, chunk) in f.iter_mut().zip(b.chunks_exact(8)) {
        let v = f64::from_le_bytes(chunk.try_into().ok()?);
        // A NaN/∞ here means the file is corrupt (no simulator statistic is
        // non-finite); reject rather than let it poison downstream math.
        if !v.is_finite() {
            return None;
        }
        *slot = v;
    }
    // Counter fields must decode to exact non-negative integers.
    let count = |v: f64| -> Option<u64> {
        ((0.0..=9_007_199_254_740_992.0).contains(&v) && v.fract() == 0.0).then_some(v as u64)
    };
    Some(SimStats {
        cycles: count(f[0])?,
        instructions: count(f[1])?,
        l1i_miss_rate: f[2],
        l1d_miss_rate: f[3],
        l2_miss_rate: f[4],
        dtlb_miss_rate: f[5],
        branch_mispredicts: count(f[6])?,
        dispatch_stall_cycles: count(f[7])?,
        l1d_writebacks: count(f[8])?,
    })
}

pub(crate) fn store(path: &Path, out: &SimOutput) -> Result<(), SerrError> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)
            .map_err(|e| SerrError::io("create trace-cache directory", e.to_string()))?;
    }
    // Five records in the CRC-paged container: the stats block, then the
    // four unit traces. `write_atomic` commits via tmp + fsync + rename, so
    // a concurrent reader never sees a torn file.
    let mut builder = StoreBuilder::new(store_kind::TRACE_CACHE, CACHE_VERSION);
    builder.push_record(&encode_stats(&out.stats));
    for t in [&out.traces.int_unit, &out.traces.fp_unit, &out.traces.decode, &out.traces.regfile] {
        builder.push_record(&encode_interval_trace(t));
    }
    write_atomic(path, &builder.finish())
}

/// Decodes a cache file image (store container, five records). `None`
/// means the entry is corrupt, incomplete, or from an incompatible writer.
///
/// Unlike the checkpoint journal, a cache entry is all-or-nothing: a valid
/// *prefix* of a simulation's traces is useless, so any damage — torn tail,
/// failed page CRC, wrong record count — rejects the whole entry.
fn decode_cache_image(data: &[u8]) -> Option<SimOutput> {
    let rec = recover(data, "trace cache").ok()?;
    if rec.header.kind != store_kind::TRACE_CACHE
        || rec.header.app != CACHE_VERSION
        || rec.truncated()
        || rec.records.len() != 5
    {
        return None;
    }
    let stats = decode_stats(rec.records[0])?;
    let mut traces = Vec::with_capacity(4);
    for raw in &rec.records[1..] {
        traces.push(decode_interval_trace(raw).ok()?);
    }
    let regfile = traces.pop()?;
    let decode = traces.pop()?;
    let fp_unit = traces.pop()?;
    let int_unit = traces.pop()?;
    Some(SimOutput {
        stats,
        traces: ProcessorMaskingTraces { int_unit, fp_unit, decode, regfile },
        skipped_cycles: 0,
    })
}

fn load_with(
    path: &Path,
    open: impl FnOnce(&Path) -> Result<FileBytes, SerrError>,
) -> Option<SimOutput> {
    // A missing file is the normal cache-miss path — leave the filesystem
    // alone. A present-but-undecodable file is corrupt: delete it so this
    // run re-simulates and rewrites a good entry instead of tripping over
    // the same bad bytes forever.
    let image = open(path).ok()?;
    let out = decode_cache_image(&image);
    if out.is_none() {
        let bytes = image.len() as u64;
        drop(image); // release the mapping before unlinking
        let _ = std::fs::remove_file(path);
        let obs = serr_obs::global();
        obs.emit(
            Event::warn("cache.evict", 0)
                .with("path", path.display().to_string())
                .with("reason", "checksum or decode failure")
                .with("bytes", bytes),
        );
        obs.metrics().add("cache.evictions", 1);
    }
    out
}

pub(crate) fn load(path: &Path) -> Option<SimOutput> {
    load_with(path, FileBytes::map)
}

/// Loads one on-disk cache entry through the memory-mapped (zero-copy)
/// path — the default the pipeline itself uses. Public for benchmarks.
#[must_use]
pub fn load_cache_entry_mmap(path: &Path) -> Option<SimOutput> {
    load_with(path, FileBytes::map)
}

/// Loads one on-disk cache entry through an ordinary buffered read —
/// the comparison baseline for [`load_cache_entry_mmap`] benchmarks.
#[must_use]
pub fn load_cache_entry_read(path: &Path) -> Option<SimOutput> {
    load_with(path, FileBytes::read)
}

/// Writes one on-disk cache entry in the v5 store format. Public for
/// benchmarks; the pipeline writes entries itself on cache misses.
///
/// # Errors
///
/// [`SerrError::Io`] when the directory or file cannot be written.
pub fn write_cache_entry(path: &Path, out: &SimOutput) -> Result<(), SerrError> {
    store(path, out)
}

/// A memoized benchmark simulation.
#[derive(Debug)]
pub struct BenchmarkRun {
    /// The SPEC program name.
    pub name: String,
    /// Simulation statistics and the four unit masking traces.
    pub output: SimOutput,
}

type Cache = Mutex<HashMap<(String, u64, u64), Arc<BenchmarkRun>>>;

fn cache() -> &'static Cache {
    static CACHE: OnceLock<Cache> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Simulates `instructions` instructions of the named benchmark on the
/// paper's base machine (memoized).
///
/// Telemetry goes to the process-wide observer (the crate's trace builders
/// pass the run's own): the `stage.trace_cache_load_ms` histogram for a
/// run served from the on-disk cache; `stage.sim_ms`, the `sim.cycles` and
/// `sim.skipped_cycles` counters and `stage.trace_cache_store_ms` for a
/// simulated one; nothing for an in-process hit. Only order-independent
/// metrics are recorded, never sequenced events, so traces may be built on
/// any thread.
///
/// # Errors
///
/// Returns [`SerrError::UnknownWorkload`] for an unknown benchmark name and
/// propagates simulator errors.
///
/// # Panics
///
/// Panics if the global cache mutex is poisoned (a prior panic in this
/// function).
pub fn simulate_benchmark(
    name: &str,
    instructions: u64,
    seed: u64,
) -> Result<Arc<BenchmarkRun>, SerrError> {
    let mut runs = simulate_benchmarks_with(&[name], instructions, seed, None)?;
    Ok(runs.pop().expect("one run per name"))
}

/// [`simulate_benchmark`] for each of `names`, with telemetry on `obs` (the
/// process-wide observer when `None`); the runs come back in input order.
/// In-process and on-disk cache hits resolve first; the remaining programs
/// simulate in parallel ([`par::par_map`]). Cache-file writes stay on the
/// calling thread: done by the workers, their transient encode buffers
/// stayed resident in the workers' allocator arenas, out of reach of later
/// allocations.
///
/// # Errors
///
/// The first failing program's error, in input order.
///
/// # Panics
///
/// As [`simulate_benchmark`].
pub(crate) fn simulate_benchmarks_with(
    names: &[&str],
    instructions: u64,
    seed: u64,
    obs: Option<&Obs>,
) -> Result<Vec<Arc<BenchmarkRun>>, SerrError> {
    let metrics = obs.unwrap_or_else(|| serr_obs::global()).metrics();
    let ms = |t0: Instant| t0.elapsed().as_secs_f64() * 1e3;
    let machine = SimConfig::power4();
    let remember = |name: &str, output: SimOutput| {
        let run = Arc::new(BenchmarkRun { name: name.to_owned(), output });
        let key = (name.to_owned(), instructions, seed);
        cache().lock().expect("cache lock").insert(key, run.clone());
        run
    };
    let mut runs: Vec<Option<Arc<BenchmarkRun>>> = names
        .iter()
        .map(|&name| {
            let key = (name.to_owned(), instructions, seed);
            if let Some(hit) = cache().lock().expect("cache lock").get(&key) {
                return Some(hit.clone());
            }
            let t0 = Instant::now();
            let output =
                cache_path(name, instructions, seed, &machine).as_deref().and_then(load)?;
            metrics.observe("stage.trace_cache_load_ms", ms(t0));
            Some(remember(name, output))
        })
        .collect();
    let misses: Vec<usize> = (0..names.len()).filter(|&i| runs[i].is_none()).collect();
    let simulated = par::par_map(&misses, par::fanout_threads(misses.len()), |_, &i| {
        let profile = BenchmarkProfile::by_name(names[i])?;
        let t0 = Instant::now();
        let output = Simulator::new(machine.clone())
            .run(TraceGenerator::new(profile, seed), instructions)?;
        Ok::<_, SerrError>((output, ms(t0)))
    });
    for (&i, result) in misses.iter().zip(simulated) {
        let (output, sim_ms) = result?;
        metrics.observe("stage.sim_ms", sim_ms);
        metrics.add("sim.cycles", output.stats.cycles);
        metrics.add("sim.skipped_cycles", output.skipped_cycles);
        if let Some(path) = cache_path(names[i], instructions, seed, &machine) {
            // Cache write failures are non-fatal (read-only checkouts, races).
            let t0 = Instant::now();
            if store(&path, &output).is_ok() {
                metrics.observe("stage.trace_cache_store_ms", ms(t0));
            }
        }
        runs[i] = Some(remember(names[i], output));
    }
    Ok(runs.into_iter().map(|r| r.expect("every name resolved")).collect())
}

/// Builds the processor-level masking trace for the cluster experiments:
/// the three unit traces (integer, FP, decode) combined with weights
/// proportional to their raw error rates, exactly as the paper applies
/// them "to the corresponding units simultaneously to determine whether
/// there is a processor-level failure" (Section 4.2).
///
/// # Errors
///
/// Returns [`SerrError::InvalidTrace`] if the traces disagree on period
/// (cannot happen for traces from one simulation).
pub fn processor_trace(run: &BenchmarkRun, rates: &UnitRates) -> Result<CompositeTrace, SerrError> {
    let t = &run.output.traces;
    let parts: Vec<(f64, Arc<dyn VulnerabilityTrace>)> = vec![
        (rates.int_unit.per_second_value(), Arc::new(t.int_unit.clone()) as _),
        (rates.fp_unit.per_second_value(), Arc::new(t.fp_unit.clone()) as _),
        (rates.decode.per_second_value(), Arc::new(t.decode.clone()) as _),
    ];
    // FP-free integer benchmarks have an all-idle FP trace; the composite
    // handles the zero-vulnerability part fine, but every weight must be
    // positive, which the paper's rates guarantee.
    CompositeTrace::new(parts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memoization_returns_same_run() {
        let a = simulate_benchmark("gzip", 5_000, 7).unwrap();
        let b = simulate_benchmark("gzip", 5_000, 7).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let c = simulate_benchmark("gzip", 5_000, 8).unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn unknown_benchmark_is_an_error() {
        assert!(matches!(
            simulate_benchmark("quake3", 1_000, 0),
            Err(SerrError::UnknownWorkload { .. })
        ));
    }

    #[test]
    fn disk_cache_roundtrip() {
        let dir = std::env::temp_dir().join(format!("serr-cache-test-{}", std::process::id()));
        let path = dir.join("probe.bin");
        let run = simulate_benchmark("vpr", 6_000, 3).unwrap();
        store(&path, &run.output).unwrap();
        let loaded = load(&path).expect("cache readable");
        assert_eq!(loaded.stats, run.output.stats);
        assert_eq!(loaded.traces.int_unit, run.output.traces.int_unit);
        assert_eq!(loaded.traces.regfile, run.output.traces.regfile);
        // Corrupt file: load degrades to None, not a panic, and the bad
        // entry is dropped so the next run re-simulates.
        std::fs::write(&path, b"garbage").unwrap();
        assert!(load(&path).is_none());
        assert!(!path.exists(), "corrupt cache entry should be deleted");
        // A missing file is a plain miss — no error, nothing to delete.
        assert!(load(&path).is_none());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn checksum_catches_single_bit_flips() {
        let dir = std::env::temp_dir().join(format!("serr-cache-bitflip-{}", std::process::id()));
        let path = dir.join("probe.bin");
        let run = simulate_benchmark("vpr", 6_000, 4).unwrap();
        store(&path, &run.output).unwrap();
        let good = std::fs::read(&path).unwrap();

        // Flip one bit in a handful of positions spread across the file —
        // header, stats, trace payload — and in the checksum itself. Every
        // variant must be rejected (and the poisoned entry removed).
        let positions = [0, 8, 20, good.len() / 2, good.len() - 1];
        for &pos in &positions {
            let mut bad = good.clone();
            bad[pos] ^= 0x40;
            std::fs::write(&path, &bad).unwrap();
            assert!(load(&path).is_none(), "bit flip at byte {pos} went undetected");
            assert!(!path.exists(), "entry with flip at byte {pos} not deleted");
        }

        // Truncation is also caught, even at an 8-byte boundary that the
        // structural decode alone might accept.
        let mut truncated = good.clone();
        truncated.truncate(good.len() - 8);
        std::fs::write(&path, &truncated).unwrap();
        assert!(load(&path).is_none(), "truncated entry went undetected");

        // The pristine bytes still decode after all that.
        std::fs::write(&path, &good).unwrap();
        assert!(load(&path).is_some());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn decode_stats_rejects_non_finite_and_fractional_counters() {
        let run = simulate_benchmark("gzip", 5_000, 9).unwrap();
        let good = encode_stats(&run.output.stats);
        assert!(decode_stats(&good).is_some());

        // NaN in a rate field.
        let mut bad = good;
        bad[2 * 8..3 * 8].copy_from_slice(&f64::NAN.to_le_bytes());
        assert!(decode_stats(&bad).is_none());

        // ∞ in a counter field.
        let mut bad = good;
        bad[0..8].copy_from_slice(&f64::INFINITY.to_le_bytes());
        assert!(decode_stats(&bad).is_none());

        // Negative or fractional counters cannot round-trip to u64.
        let mut bad = good;
        bad[0..8].copy_from_slice(&(-1.0f64).to_le_bytes());
        assert!(decode_stats(&bad).is_none());
        let mut bad = good;
        bad[6 * 8..7 * 8].copy_from_slice(&1.5f64.to_le_bytes());
        assert!(decode_stats(&bad).is_none());

        // Wrong length is structurally invalid.
        assert!(decode_stats(&good[..64]).is_none());
    }

    #[test]
    fn config_fingerprint_tracks_machine_changes() {
        let base = SimConfig::power4();
        let mut tweaked = SimConfig::power4();
        tweaked.mshrs += 1;
        assert_ne!(config_fingerprint(&base), config_fingerprint(&tweaked));
        assert_eq!(config_fingerprint(&base), config_fingerprint(&SimConfig::power4()));
        let (a, b) = (
            cache_path("gzip", 1000, 1, &base).unwrap(),
            cache_path("gzip", 1000, 1, &tweaked).unwrap(),
        );
        assert_ne!(a, b);
    }

    #[test]
    fn processor_trace_spans_simulation() {
        let run = simulate_benchmark("swim", 10_000, 1).unwrap();
        let proc = processor_trace(&run, &UnitRates::paper()).unwrap();
        assert_eq!(proc.period_cycles(), run.output.stats.cycles);
        let avf = proc.avf();
        assert!(avf > 0.0 && avf <= 1.0, "avf {avf}");
    }
}
