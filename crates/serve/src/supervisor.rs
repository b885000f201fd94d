//! Panic-isolated worker pools with supervised restart.
//!
//! Each worker slot is owned by a supervisor thread that runs the worker
//! body under [`std::panic::catch_unwind`]. A panic kills only that
//! worker's current request; the supervisor observes the death, waits out
//! a bounded exponential backoff (reusing [`BackoffPolicy`] from
//! `serr-core`, so the delays are deterministic given the seed), and
//! respawns the slot. A worker that returns [`WorkerExit::Shutdown`]
//! retires its slot permanently — that is the graceful-drain path.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use serr_core::prelude::BackoffPolicy;

/// How one invocation of the worker body ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerExit {
    /// Clean exit: the input queue closed. The slot retires.
    Shutdown,
    /// The body asked to be treated as crashed (used by fault injection to
    /// exercise the restart path after the request was already answered).
    Died,
}

/// A pool of supervised worker slots over one worker body.
#[derive(Debug)]
pub struct Pool {
    name: &'static str,
    supervisors: Vec<JoinHandle<()>>,
    stopping: Arc<AtomicBool>,
    restarts: Arc<AtomicU64>,
}

impl Pool {
    /// Spawns `slots` supervised workers, each running `work(slot)` in a
    /// loop: panic or [`WorkerExit::Died`] → backoff and respawn;
    /// [`WorkerExit::Shutdown`] → retire. `on_restart(slot)` is called once
    /// per respawn (for metrics and telemetry).
    #[must_use]
    pub fn spawn(
        name: &'static str,
        slots: usize,
        policy: BackoffPolicy,
        work: Arc<dyn Fn(usize) -> WorkerExit + Send + Sync>,
        on_restart: Arc<dyn Fn(usize) + Send + Sync>,
    ) -> Pool {
        let stopping = Arc::new(AtomicBool::new(false));
        let restarts = Arc::new(AtomicU64::new(0));
        let supervisors = (0..slots)
            .map(|slot| {
                let work = Arc::clone(&work);
                let on_restart = Arc::clone(&on_restart);
                let stopping = Arc::clone(&stopping);
                let restarts = Arc::clone(&restarts);
                std::thread::Builder::new()
                    .name(format!("serr-serve/{name}-supervisor-{slot}"))
                    .spawn(move || {
                        let mut attempt: u32 = 0;
                        loop {
                            let body = Arc::clone(&work);
                            let worker = std::thread::Builder::new()
                                .name(format!("serr-serve/{name}-{slot}"))
                                .spawn(move || catch_unwind(AssertUnwindSafe(|| body(slot))))
                                .expect("worker thread spawn");
                            // An Err join (the worker's own thread panicked
                            // outside catch_unwind) is treated as a death too.
                            let exit = match worker.join() {
                                Ok(Ok(exit)) => exit,
                                Ok(Err(_)) | Err(_) => WorkerExit::Died,
                            };
                            match exit {
                                WorkerExit::Shutdown => break,
                                WorkerExit::Died => {
                                    if stopping.load(Ordering::SeqCst) {
                                        break;
                                    }
                                    restarts.fetch_add(1, Ordering::SeqCst);
                                    on_restart(slot);
                                    // Bounded exponential backoff: delay()
                                    // caps at the policy's max_delay, so a
                                    // crash-looping worker cannot spin.
                                    std::thread::sleep(policy.delay(attempt.min(16)));
                                    attempt = attempt.saturating_add(1);
                                }
                            }
                        }
                    })
                    .expect("supervisor thread spawn")
            })
            .collect();
        Pool { name, supervisors, stopping, restarts }
    }

    /// Total worker respawns across all slots so far.
    #[must_use]
    pub fn restarts(&self) -> u64 {
        self.restarts.load(Ordering::SeqCst)
    }

    /// Stops supervising: workers that die after this retire instead of
    /// respawning. Call before closing the input queue so drain is clean.
    pub fn begin_shutdown(&self) {
        self.stopping.store(true, Ordering::SeqCst);
    }

    /// Waits for every slot to retire. Workers only retire when their body
    /// returns [`WorkerExit::Shutdown`] (input queue closed) or when they
    /// die after [`Pool::begin_shutdown`] — so close the queue first.
    pub fn join(self) {
        for s in self.supervisors {
            if s.join().is_err() {
                // A supervisor itself panicking is a bug, but shutdown must
                // still complete; the pool name identifies the culprit.
                debug_assert!(false, "supervisor panicked in pool {}", self.name);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::Bounded;
    use std::time::Duration;

    fn tight_policy() -> BackoffPolicy {
        BackoffPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(4),
            jitter_seed: 7,
        }
    }

    #[test]
    fn panicking_workers_are_restarted_and_finish_the_backlog() {
        let q: Arc<Bounded<u64>> = Arc::new(Bounded::new(64));
        for i in 0..40 {
            q.try_push(i).expect("space");
        }
        let done = Arc::new(AtomicU64::new(0));
        let work = {
            let q = Arc::clone(&q);
            let done = Arc::clone(&done);
            Arc::new(move |_slot: usize| {
                while let Some(i) = q.pop() {
                    if i % 10 == 3 {
                        // The item is counted first: a panic kills the
                        // worker, not the request's terminal state.
                        done.fetch_add(1, Ordering::SeqCst);
                        panic!("injected worker panic on item {i}");
                    }
                    done.fetch_add(1, Ordering::SeqCst);
                }
                WorkerExit::Shutdown
            })
        };
        let pool = Pool::spawn("test", 2, tight_policy(), work, Arc::new(|_| {}));
        while done.load(Ordering::SeqCst) < 40 {
            std::thread::yield_now();
        }
        pool.begin_shutdown();
        q.close();
        assert!(pool.restarts() >= 4, "four panic items, each a restart");
        pool.join();
        assert_eq!(done.load(Ordering::SeqCst), 40, "no item was lost to a panic");
    }

    #[test]
    fn shutdown_exit_retires_the_slot_without_restart() {
        let q: Arc<Bounded<u64>> = Arc::new(Bounded::new(4));
        let work = {
            let q = Arc::clone(&q);
            Arc::new(move |_slot: usize| {
                while q.pop().is_some() {}
                WorkerExit::Shutdown
            })
        };
        let pool = Pool::spawn("test", 3, tight_policy(), work, Arc::new(|_| {}));
        q.close();
        pool.join();
    }

    #[test]
    fn died_exit_after_begin_shutdown_retires_instead_of_respawning() {
        let q: Arc<Bounded<u64>> = Arc::new(Bounded::new(4));
        let work = {
            let q = Arc::clone(&q);
            Arc::new(move |_slot: usize| match q.pop() {
                Some(_) => WorkerExit::Died,
                None => WorkerExit::Shutdown,
            })
        };
        let restarts_seen = Arc::new(AtomicU64::new(0));
        let on_restart = {
            let n = Arc::clone(&restarts_seen);
            Arc::new(move |_slot: usize| {
                n.fetch_add(1, Ordering::SeqCst);
            })
        };
        let pool = Pool::spawn("test", 1, tight_policy(), work, on_restart);
        q.try_push(1).expect("space");
        // First death: supervisor restarts the slot. It bumps the restart
        // count before it calls the hook, so wait on the hook.
        while restarts_seen.load(Ordering::SeqCst) < 1 {
            std::thread::yield_now();
        }
        assert_eq!(pool.restarts(), 1, "one restart counted");
        // After begin_shutdown, a death retires the slot.
        pool.begin_shutdown();
        q.try_push(2).expect("space");
        q.close();
        pool.join();
    }
}
