//! A bounded MPMC queue built on `Mutex` + `Condvar`.
//!
//! Bounded capacity is what turns overload into backpressure: the
//! admission controller uses [`Bounded::try_push`] so a full ingress queue
//! becomes a typed `shed` response instead of unbounded memory growth,
//! while startup replay of journaled work uses the blocking
//! [`Bounded::push`], waiting for workers to make room.
//!
//! Closing the queue wakes every blocked producer and consumer; whatever
//! was still queued is recovered with [`Bounded::drain`] so graceful
//! shutdown can journal in-flight requests instead of dropping them.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why [`Bounded::try_push`] refused an item; the item comes back so the
/// caller can respond to it (shed, journal) instead of losing it.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue was at capacity.
    Full(T),
    /// The queue was closed.
    Closed(T),
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer multi-consumer queue.
pub struct Bounded<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    cap: usize,
}

impl<T> std::fmt::Debug for Bounded<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Bounded").field("cap", &self.cap).field("len", &self.len()).finish()
    }
}

impl<T> Bounded<T> {
    /// A queue holding at most `cap` items (`cap` ≥ 1).
    #[must_use]
    pub fn new(cap: usize) -> Self {
        Bounded {
            inner: Mutex::new(Inner { items: VecDeque::new(), closed: false }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            cap: cap.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Items currently queued.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// Whether the queue is currently empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Non-blocking push: refuses instead of waiting. This is the
    /// admission-control entry point — `Full` means shed.
    ///
    /// # Errors
    ///
    /// [`PushError`] returning the item when the queue is full or closed.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut g = self.lock();
        if g.closed {
            return Err(PushError::Closed(item));
        }
        if g.items.len() >= self.cap {
            return Err(PushError::Full(item));
        }
        g.items.push_back(item);
        drop(g);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocking push: waits for space, propagating backpressure upstream.
    ///
    /// # Errors
    ///
    /// Returns the item when the queue is (or becomes) closed.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut g = self.lock();
        loop {
            if g.closed {
                return Err(item);
            }
            if g.items.len() < self.cap {
                g.items.push_back(item);
                drop(g);
                self.not_empty.notify_one();
                return Ok(());
            }
            g = self.not_full.wait(g).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Blocking pop. Returns `None` once the queue is closed — even if
    /// items remain: post-close leftovers belong to [`Bounded::drain`],
    /// which journals them, not to workers that may already be stopping.
    pub fn pop(&self) -> Option<T> {
        let mut g = self.lock();
        loop {
            if g.closed {
                return None;
            }
            if let Some(item) = g.items.pop_front() {
                drop(g);
                self.not_full.notify_one();
                return Some(item);
            }
            g = self.not_empty.wait(g).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Closes the queue and wakes every blocked producer and consumer.
    pub fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Removes and returns everything still queued (normally called after
    /// [`Bounded::close`], to journal what the workers never picked up).
    #[must_use]
    pub fn drain(&self) -> Vec<T> {
        let drained: Vec<T> = self.lock().items.drain(..).collect();
        self.not_full.notify_all();
        drained
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn try_push_sheds_at_capacity_and_after_close() {
        let q = Bounded::new(2);
        assert_eq!(q.try_push(1), Ok(()));
        assert_eq!(q.try_push(2), Ok(()));
        assert_eq!(q.try_push(3), Err(PushError::Full(3)), "full queue sheds");
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.try_push(4), Ok(()), "pop frees a slot");
        q.close();
        assert_eq!(q.try_push(5), Err(PushError::Closed(5)));
    }

    #[test]
    fn pop_returns_none_after_close_and_drain_recovers_leftovers() {
        let q = Bounded::new(8);
        q.try_push("a").expect("space");
        q.try_push("b").expect("space");
        q.close();
        // Closed ⇒ consumers stop, even though items remain...
        assert_eq!(q.pop(), None);
        // ...and the drain path recovers them for the journal.
        assert_eq!(q.drain(), vec!["a", "b"]);
        assert_eq!(q.drain(), Vec::<&str>::new());
    }

    #[test]
    fn blocking_push_waits_for_space_then_delivers() {
        let q = Arc::new(Bounded::new(1));
        q.try_push(0u32).expect("space");
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push(1).is_ok())
        };
        // The producer is blocked on the full queue until this pop.
        assert_eq!(q.pop(), Some(0));
        assert!(producer.join().expect("no panic"), "push succeeds once space frees");
        assert_eq!(q.pop(), Some(1));
    }

    #[test]
    fn close_unblocks_a_waiting_consumer() {
        let q: Arc<Bounded<u32>> = Arc::new(Bounded::new(4));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        // Give the consumer a moment to block, then close.
        std::thread::sleep(std::time::Duration::from_millis(10));
        q.close();
        assert_eq!(consumer.join().expect("no panic"), None);
    }

    #[test]
    fn queue_is_mpmc_and_loses_nothing() {
        let q: Arc<Bounded<u64>> = Arc::new(Bounded::new(4));
        let total: u64 = 200;
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(x) = q.pop() {
                        got.push(x);
                    }
                    got
                })
            })
            .collect();
        let producers: Vec<_> = (0..2)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..total / 2 {
                        q.push(p * (total / 2) + i).expect("open");
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().expect("no panic");
        }
        // Producers are done; let consumers finish the backlog then stop.
        while !q.is_empty() {
            std::thread::yield_now();
        }
        q.close();
        let mut all: Vec<u64> =
            consumers.into_iter().flat_map(|c| c.join().expect("no panic")).collect();
        all.sort_unstable();
        assert_eq!(all, (0..total).collect::<Vec<_>>(), "every item delivered exactly once");
    }
}
