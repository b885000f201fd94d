//! A minimal work-stealing-free parallel map over a slice, built on
//! `std::thread::scope` only (the build environment is offline; no rayon).
//!
//! Design points in the figure sweeps are mutually independent and vary
//! wildly in cost (a `C = 5000`, `N×S = 1e13` Monte Carlo run is orders of
//! magnitude heavier than the small-`λL` corner), so workers pull the next
//! item off a shared atomic counter rather than pre-partitioning the slice.
//! Output order is the input order regardless of which worker computed
//! which item, so parallel sweeps produce byte-identical report rows.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use serr_types::{panic_payload_string, SerrError};

/// The `SERR_THREADS` thread budget, in the Monte Carlo engine's
/// convention: `0` — all cores — when the variable is unset, empty,
/// unparsable or `0`. The one reader of the variable: the sweep fan-out
/// ([`fanout_threads`]), the Monte Carlo configuration of `serr mttf`,
/// `sofr` and `sweep`, and the `serr serve` daemon all take it from here,
/// so one environment variable pins their thread pools. Results never
/// depend on the setting (sweep output is input-ordered and each MC
/// estimate is chunk-deterministic); the variable exists so that
/// invariance can be demonstrated, and core counts bounded, from the shell.
#[must_use]
pub fn serr_threads() -> usize {
    std::env::var("SERR_THREADS").ok().and_then(|v| v.trim().parse().ok()).unwrap_or(0)
}

/// The number of worker threads to use for a fan-out over `jobs` independent
/// items: the [`serr_threads`] budget when set, else `available_parallelism`,
/// capped by the job count (never zero).
#[must_use]
pub fn fanout_threads(jobs: usize) -> usize {
    match serr_threads() {
        0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        n => n,
    }
    .min(jobs.max(1))
}

/// Applies `f` to every element of `items` using up to `threads` OS threads
/// and returns the results **in input order**.
///
/// `f` receives `(index, &item)`. Items are claimed dynamically (atomic
/// counter), so a slow item does not stall the remaining work. With
/// `threads <= 1` or fewer than two items this degenerates to a plain
/// sequential map on the calling thread — no threads are spawned.
///
/// # Panics
///
/// If `f` panics on any item, the panic is propagated to the caller after
/// the other workers finish their current items.
pub fn par_map<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let threads = threads.clamp(1, items.len().max(1));
    if threads <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let next = AtomicUsize::new(0);
    // Each worker collects (index, result) pairs; the merge below restores
    // input order without sharing mutable state across threads.
    let per_worker: Vec<Vec<(usize, U)>> = std::thread::scope(|scope| {
        let (f, next) = (&f, &next);
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        out.push((i, f(i, &items[i])));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(v) => v,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });

    let mut slots: Vec<Option<U>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    for (i, value) in per_worker.into_iter().flatten() {
        slots[i] = Some(value);
    }
    slots.into_iter().map(|s| s.expect("every index claimed exactly once")).collect()
}

/// Panic-isolating variant of [`par_map`] for fallible work items: applies
/// `f` to every element in parallel and returns one `Result` per item **in
/// input order**. A panic in `f` poisons only its own item — it is caught
/// with `catch_unwind` and surfaced as [`SerrError::PointFailed`] carrying
/// the item's index and the panic message — so one pathological design
/// point cannot abort a multi-hour sweep or discard its finished siblings.
///
/// Ordinary `Err` returns from `f` pass through untouched.
pub fn try_par_map<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<Result<U, SerrError>>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> Result<U, SerrError> + Sync,
{
    // `AssertUnwindSafe` is sound here: `f` only sees shared references, and
    // a poisoned item's partial state is confined to the closure call that
    // panicked — nothing it touched is observed afterwards.
    par_map(items, threads, |i, item| {
        catch_unwind(AssertUnwindSafe(|| f(i, item))).unwrap_or_else(|payload| {
            Err(SerrError::PointFailed {
                index: i,
                payload: panic_payload_string(payload.as_ref()),
            })
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..97).collect();
        let got = par_map(&items, 4, |i, &x| {
            assert_eq!(i as u64, x);
            x * x
        });
        let want: Vec<u64> = items.iter().map(|x| x * x).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let items: Vec<u64> = (0..41).collect();
        let seq = par_map(&items, 1, |_, &x| x.wrapping_mul(0x9E37_79B9).rotate_left(7));
        let par = par_map(&items, 8, |_, &x| x.wrapping_mul(0x9E37_79B9).rotate_left(7));
        assert_eq!(seq, par);
    }

    #[test]
    fn handles_empty_and_singleton() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, 4, |_, &x| x).is_empty());
        assert_eq!(par_map(&[7u32], 4, |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let items = [1u32, 2, 3];
        assert_eq!(par_map(&items, 64, |_, &x| x * 10), vec![10, 20, 30]);
    }

    #[test]
    fn fanout_threads_is_positive_and_capped() {
        assert_eq!(fanout_threads(0), 1);
        assert_eq!(fanout_threads(1), 1);
        assert!(fanout_threads(1024) >= 1);
        assert!(fanout_threads(2) <= 2);
    }

    #[test]
    fn fanout_threads_honors_serr_threads() {
        // Env mutation is process-global: take values through every branch
        // inside one test so no parallel test observes a half-set variable.
        let saved = std::env::var("SERR_THREADS").ok();
        std::env::set_var("SERR_THREADS", "5");
        assert_eq!(serr_threads(), 5);
        assert_eq!(fanout_threads(1024), 5, "explicit override wins");
        assert_eq!(fanout_threads(3), 3, "job count still caps the override");
        assert_eq!(fanout_threads(0), 1, "never zero");
        std::env::set_var("SERR_THREADS", " 2 ");
        assert_eq!(fanout_threads(1024), 2, "whitespace-tolerant like the CLI");
        for all_cores in ["0", "", "not-a-number"] {
            std::env::set_var("SERR_THREADS", all_cores);
            assert_eq!(serr_threads(), 0, "{all_cores:?} is the all-cores budget");
            let n = fanout_threads(1024);
            assert!(n >= 1, "{all_cores:?} must fall back to all cores, got {n}");
        }
        match saved {
            Some(v) => std::env::set_var("SERR_THREADS", v),
            None => std::env::remove_var("SERR_THREADS"),
        }
    }

    #[test]
    fn try_par_map_isolates_a_poisoned_point() {
        let items: Vec<u64> = (0..50).collect();
        for threads in [1, 4] {
            let got = try_par_map(&items, threads, |_, &x| {
                assert!(x != 17, "poisoned point {x}");
                Ok(x * 2)
            });
            assert_eq!(got.len(), items.len());
            for (i, res) in got.iter().enumerate() {
                if i == 17 {
                    match res {
                        Err(SerrError::PointFailed { index, payload }) => {
                            assert_eq!(*index, 17);
                            assert!(payload.contains("poisoned point 17"), "payload: {payload}");
                        }
                        other => panic!("expected PointFailed, got {other:?}"),
                    }
                } else {
                    // Every other result is present, correct, in input order.
                    assert_eq!(res.as_ref().expect("healthy point"), &(i as u64 * 2));
                }
            }
        }
    }

    #[test]
    fn try_par_map_passes_plain_errors_through() {
        let items = [1u32, 2, 3];
        let got = try_par_map(&items, 2, |_, &x| {
            if x == 2 {
                Err(SerrError::invalid_config("two is right out"))
            } else {
                Ok(x)
            }
        });
        assert_eq!(got[0], Ok(1));
        assert_eq!(got[1], Err(SerrError::invalid_config("two is right out")));
        assert_eq!(got[2], Ok(3));
    }

    #[test]
    fn try_par_map_reports_non_string_payloads() {
        let items = [0u8];
        let got = try_par_map(&items, 1, |_, _| -> Result<(), SerrError> {
            std::panic::panic_any(42i32)
        });
        match &got[0] {
            Err(SerrError::PointFailed { index: 0, payload }) => {
                assert_eq!(payload, "non-string panic payload");
            }
            other => panic!("expected PointFailed, got {other:?}"),
        }
    }

    #[test]
    fn propagates_results_with_errors() {
        // The common call shape: f returns Result, caller collects.
        let items: Vec<i32> = (0..20).collect();
        let rows: Result<Vec<i32>, String> =
            par_map(&items, 4, |_, &x| if x == 13 { Err("boom".to_owned()) } else { Ok(x) })
                .into_iter()
                .collect();
        assert_eq!(rows.unwrap_err(), "boom");
    }
}
