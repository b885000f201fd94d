//! A shared in-memory trace cache keyed by canonical workload spec.
//!
//! A worker builds and compiles each workload trace once; every later
//! request on the same workload — at any rate, trial count, sampler or
//! command — reuses both the raw trace (which feeds the analytic
//! estimators) and its [`CompiledTrace`] (which the Monte Carlo engine
//! samples directly, and which is re-verified on every hit by
//! [`verify_or_rebuild`] — a cache entry whose invariants no longer hold is
//! rebuilt, not served, and the lookup floors the request's provenance at
//! `retried`). The compiled form is exactly `compile(raw)`, the trace the
//! engine would build itself, so cached and uncached requests are
//! bit-identical.
//!
//! The lock guards only the entry list: verification and builds run outside
//! it, so a large trace being checked or built never stalls lookups of
//! other workloads. A miss first stores a building marker for its key;
//! concurrent lookups of that key wait for the one build instead of
//! repeating it.
//!
//! Eviction is least-recently-used over a small fixed capacity: the
//! service is expected to see a handful of hot workloads, not an unbounded
//! stream of distinct ones.

use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use serr_core::prelude::verify_or_rebuild;
use serr_trace::{CompiledTrace, VulnerabilityTrace};
use serr_types::{Provenance, SerrError};

/// How a lookup was satisfied, for the metrics at the call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Entry present and its compiled form passed verification.
    Hit,
    /// Entry present but its compiled form failed verification; the trace
    /// was rebuilt from scratch and the entry replaced.
    HitRebuilt,
    /// Entry absent; built and inserted (possibly evicting the LRU entry).
    Miss,
}

impl CacheOutcome {
    /// The provenance floor of estimates built on the looked-up trace:
    /// [`Provenance::Retried`] for a rebuilt hit, else clean.
    #[must_use]
    pub fn provenance(self) -> Provenance {
        match self {
            CacheOutcome::HitRebuilt => Provenance::Retried,
            CacheOutcome::Hit | CacheOutcome::Miss => Provenance::Clean,
        }
    }
}

/// One cached workload: the raw trace for the analytic estimators and its
/// compiled form for the Monte Carlo engine.
#[derive(Clone)]
pub struct CachedTrace {
    /// The trace exactly as the batch CLI would build it.
    pub raw: Arc<dyn VulnerabilityTrace>,
    /// `compile(raw)`: flat, or tiled for the day-scale `combined` loop.
    pub compiled: Arc<CompiledTrace>,
}

impl std::fmt::Debug for CachedTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CachedTrace")
            .field("avf", &self.raw.avf())
            .field("tiled", &self.compiled.is_tiled())
            .finish()
    }
}

struct Entry {
    key: String,
    /// `None` while the one build of this key is in flight.
    cached: Option<CachedTrace>,
    last_use: u64,
}

struct Inner {
    entries: Vec<Entry>,
    tick: u64,
    /// Lookups that have waited for another request's build (tests force
    /// interleavings with it).
    #[cfg(test)]
    waits: usize,
}

/// A bounded LRU cache of built workload traces.
pub struct TraceCache {
    cap: usize,
    inner: Mutex<Inner>,
    /// Signalled whenever an in-flight build finishes or is abandoned.
    built: Condvar,
}

impl std::fmt::Debug for TraceCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceCache").field("cap", &self.cap).finish()
    }
}

impl TraceCache {
    /// A cache holding at most `cap` traces (`cap` ≥ 1).
    #[must_use]
    pub fn new(cap: usize) -> Self {
        TraceCache {
            cap: cap.max(1),
            inner: Mutex::new(Inner {
                entries: Vec::new(),
                tick: 0,
                #[cfg(test)]
                waits: 0,
            }),
            built: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks up `key`, building (and caching) the trace with `build_raw` on
    /// a miss or on a hit whose compiled form no longer verifies. A lookup
    /// that finds `key` being built by another request waits for that
    /// build rather than starting its own.
    ///
    /// Returns the outcome alongside the trace so the caller can count
    /// hits, misses, and rebuilds; `evicted` reports whether an LRU entry
    /// was displaced.
    ///
    /// # Errors
    ///
    /// Propagates the builder's error (e.g. an invalid workload spec) and
    /// a typed [`SerrError::InvalidTrace`] for a trace that cannot be
    /// compiled; nothing is cached on error.
    pub fn get_or_build(
        &self,
        key: &str,
        build_raw: impl FnOnce() -> Result<Arc<dyn VulnerabilityTrace>, SerrError>,
    ) -> Result<(CachedTrace, CacheOutcome, bool), SerrError> {
        let mut g = self.lock();
        loop {
            g.tick += 1;
            let tick = g.tick;
            let Some(e) = g.entries.iter_mut().find(|e| e.key == key) else {
                g.entries.push(Entry { key: key.to_owned(), cached: None, last_use: tick });
                break;
            };
            e.last_use = tick;
            let Some(cached) = e.cached.clone() else {
                #[cfg(test)]
                {
                    g.waits += 1;
                }
                g = self.built.wait(g).unwrap_or_else(PoisonError::into_inner);
                continue;
            };
            // Verify outside the lock (see the module docs); compiled
            // tables that fail their invariant check are rebuilt rather
            // than served.
            drop(g);
            let (fresh, tag) =
                verify_or_rebuild(cached.clone(), |c| &*c.compiled, || build(build_raw))?;
            if tag.is_clean() {
                return Ok((fresh, CacheOutcome::Hit, false));
            }
            // Swap the rebuild in, unless the entry was replaced or evicted
            // while we rebuilt.
            let mut g = self.lock();
            if let Some(e) = g.entries.iter_mut().find(|e| {
                e.key == key
                    && e.cached.as_ref().is_some_and(|c| Arc::ptr_eq(&c.compiled, &cached.compiled))
            }) {
                e.cached = Some(fresh.clone());
            }
            return Ok((fresh, CacheOutcome::HitRebuilt, false));
        }
        drop(g);
        let pending = Pending { cache: self, key };
        let cached = build(build_raw)?;
        let mut g = self.lock();
        g.tick += 1;
        let tick = g.tick;
        if let Some(e) = g.entries.iter_mut().find(|e| e.key == key) {
            e.cached = Some(cached.clone());
            e.last_use = tick;
        }
        let mut evicted = false;
        while g.entries.len() > self.cap {
            // Only finished entries are evicted; in-flight builds keep theirs.
            let Some(lru) = g
                .entries
                .iter()
                .enumerate()
                .filter(|(_, e)| e.key != key && e.cached.is_some())
                .min_by_key(|(_, e)| e.last_use)
                .map(|(i, _)| i)
            else {
                break;
            };
            g.entries.swap_remove(lru);
            evicted = true;
        }
        drop(g);
        drop(pending);
        Ok((cached, CacheOutcome::Miss, evicted))
    }

    /// Test hook: corrupt a cached entry's compiled trace so the next hit
    /// must detect it and rebuild.
    #[cfg(test)]
    fn poison(&self, key: &str, bad: Arc<CompiledTrace>) -> bool {
        let mut g = self.lock();
        match g.entries.iter_mut().find_map(|e| e.cached.as_mut().filter(|_| e.key == key)) {
            Some(cached) => {
                cached.compiled = bad;
                true
            }
            None => false,
        }
    }
}

/// One in-flight build. Dropping it wakes the lookups waiting on its key,
/// and, if the build failed or panicked, removes the key's building marker
/// so the next lookup builds afresh.
struct Pending<'a> {
    cache: &'a TraceCache,
    key: &'a str,
}

impl Drop for Pending<'_> {
    fn drop(&mut self) {
        let mut g = self.cache.lock();
        g.entries.retain(|e| e.key != self.key || e.cached.is_some());
        drop(g);
        self.cache.built.notify_all();
    }
}

/// Builds the raw trace and compiles it for sampling.
fn build(
    build_raw: impl FnOnce() -> Result<Arc<dyn VulnerabilityTrace>, SerrError>,
) -> Result<CachedTrace, SerrError> {
    let raw = build_raw()?;
    let compiled = Arc::new(serr_mc::compile_for_sampling(&*raw)?);
    Ok(CachedTrace { raw, compiled })
}

#[cfg(test)]
mod tests {
    use super::*;
    use serr_trace::IntervalTrace;

    fn build(busy: u64) -> Result<Arc<dyn VulnerabilityTrace>, SerrError> {
        Ok(Arc::new(IntervalTrace::busy_idle(busy, 1_000)?))
    }

    #[test]
    fn hits_reuse_the_same_raw_trace() {
        let cache = TraceCache::new(4);
        let (a, out, _) = cache.get_or_build("k", || build(100)).expect("builds");
        assert_eq!(out, CacheOutcome::Miss);
        let (b, out, _) =
            cache.get_or_build("k", || panic!("hit must not rebuild")).expect("cached");
        assert_eq!(out, CacheOutcome::Hit);
        assert!(Arc::ptr_eq(&a.raw, &b.raw), "hit returns the identical Arc");
        assert!(Arc::ptr_eq(&a.compiled, &b.compiled), "hit returns the identical compile");
    }

    #[test]
    fn lru_entry_is_evicted_at_capacity() {
        let cache = TraceCache::new(2);
        cache.get_or_build("a", || build(100)).expect("builds");
        cache.get_or_build("b", || build(200)).expect("builds");
        // Touch "a" so "b" is the LRU victim.
        cache.get_or_build("a", || panic!("hit")).expect("cached");
        let (_, out, evicted) = cache.get_or_build("c", || build(300)).expect("builds");
        assert_eq!((out, evicted), (CacheOutcome::Miss, true));
        // "a" survived, "b" did not.
        cache.get_or_build("a", || panic!("a must still be cached")).expect("cached");
        let (_, out, _) = cache.get_or_build("b", || build(200)).expect("rebuilds");
        assert_eq!(out, CacheOutcome::Miss, "the LRU entry was evicted");
    }

    #[test]
    fn corrupted_compiled_entry_is_rebuilt_on_hit() {
        let cache = TraceCache::new(4);
        cache.get_or_build("k", || build(100)).expect("builds");
        // Corrupt the compiled tables the way the chaos taxonomy does: a
        // bit flip in the dominant segment value fails `verify()`.
        let mut broken =
            CompiledTrace::compile(&IntervalTrace::busy_idle(100, 1_000).expect("valid trace"))
                .expect("compiles");
        broken.chaos_flip_dominant_value_bit(51);
        let bad = Arc::new(broken);
        assert!(cache.poison("k", bad));
        let (got, out, _) = cache.get_or_build("k", || build(100)).expect("rebuilds");
        assert_eq!(out, CacheOutcome::HitRebuilt);
        assert_eq!(out.provenance(), Provenance::Retried);
        assert!(got.compiled.verify().is_ok(), "the rebuilt entry verifies again");
        // The rebuild replaced the entry: the next lookup is a clean hit.
        let (again, out, _) = cache.get_or_build("k", || panic!("hit")).expect("cached");
        assert_eq!((out, out.provenance()), (CacheOutcome::Hit, Provenance::Clean));
        assert!(Arc::ptr_eq(&again.compiled, &got.compiled));
    }

    /// Blocks until some lookup is waiting on an in-flight build.
    fn wait_for_a_waiter(cache: &TraceCache) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while cache.lock().waits == 0 {
            assert!(std::time::Instant::now() < deadline, "no lookup waited for the build");
            std::thread::yield_now();
        }
    }

    #[test]
    fn other_keys_are_served_while_one_key_builds() {
        use std::sync::mpsc;
        use std::time::Duration;
        let cache = &TraceCache::new(4);
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        std::thread::scope(|s| {
            let slow = s.spawn(move || {
                cache.get_or_build("slow", move || {
                    started_tx.send(()).expect("test thread alive");
                    release_rx
                        .recv_timeout(Duration::from_secs(10))
                        .expect("the other key's lookup finished while this build was blocked");
                    build(100)
                })
            });
            started_rx.recv().expect("slow build started");
            let (_, out, _) = cache.get_or_build("fast", || build(200)).expect("builds");
            assert_eq!(out, CacheOutcome::Miss);
            release_tx.send(()).expect("slow builder alive");
            let (_, out, _) = slow.join().expect("slow builder thread").expect("builds");
            assert_eq!(out, CacheOutcome::Miss);
        });
    }

    #[test]
    fn concurrent_misses_on_one_key_build_it_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::mpsc;
        use std::time::Duration;
        let cache = &TraceCache::new(4);
        let builds = &AtomicUsize::new(0);
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        std::thread::scope(|s| {
            let first = s.spawn(move || {
                cache.get_or_build("k", || {
                    builds.fetch_add(1, Ordering::SeqCst);
                    started_tx.send(()).expect("test thread alive");
                    release_rx.recv_timeout(Duration::from_secs(10)).expect("released");
                    build(100)
                })
            });
            started_rx.recv().expect("first build started");
            let second = s.spawn(move || {
                cache.get_or_build("k", || {
                    builds.fetch_add(1, Ordering::SeqCst);
                    build(100)
                })
            });
            wait_for_a_waiter(cache);
            release_tx.send(()).expect("first builder alive");
            let (a, out_a, _) = first.join().expect("first thread").expect("builds");
            let (b, out_b, _) = second.join().expect("second thread").expect("served");
            assert_eq!((out_a, out_b), (CacheOutcome::Miss, CacheOutcome::Hit));
            assert!(Arc::ptr_eq(&a.raw, &b.raw), "the waiter got the one build");
        });
        assert_eq!(builds.load(Ordering::SeqCst), 1, "build_raw ran once");
    }

    #[test]
    fn a_failed_build_wakes_waiters_to_build_afresh() {
        use std::sync::mpsc;
        use std::time::Duration;
        let cache = &TraceCache::new(4);
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        std::thread::scope(|s| {
            let failing = s.spawn(move || {
                cache.get_or_build("k", || {
                    started_tx.send(()).expect("test thread alive");
                    release_rx.recv_timeout(Duration::from_secs(10)).expect("released");
                    Err(SerrError::invalid_config("nope"))
                })
            });
            started_rx.recv().expect("failing build started");
            let waiter = s.spawn(move || cache.get_or_build("k", || build(100)));
            wait_for_a_waiter(cache);
            release_tx.send(()).expect("failing builder alive");
            assert!(failing.join().expect("failing thread").is_err());
            let (_, out, _) = waiter.join().expect("waiter thread").expect("builds");
            assert_eq!(out, CacheOutcome::Miss);
        });
    }

    #[test]
    fn build_errors_are_propagated_and_not_cached() {
        let cache = TraceCache::new(4);
        let err = cache.get_or_build("bad", || Err(SerrError::invalid_config("nope")));
        assert!(err.is_err());
        // The failed build left no entry behind.
        let (_, out, _) = cache.get_or_build("bad", || build(100)).expect("builds");
        assert_eq!(out, CacheOutcome::Miss);
    }
}
