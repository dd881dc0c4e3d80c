//! Small synchronization primitives shared by the concurrent set arena
//! and the window scheduler.
//!
//! * [`WaitLock`] — a reader/writer lock that **counts contended
//!   acquisitions**: every time a caller fails the optimistic `try_*`
//!   path and has to block, a counter ticks. The arena's shards are built
//!   on it, so `SetArena::shard_wait_count` can report how often the
//!   sharding fan-out actually failed to keep threads apart (the
//!   `window_parallel` bench records this in `target/bench.json`).
//! * [`Slot`] — a one-shot single-producer result cell. The window
//!   scheduler's tasks are fire-and-forget ([`crate::Scope::spawn_detached`]);
//!   each fills a slot, and consumers (other tasks or the driver) block
//!   on [`Slot::wait`]/[`Slot::take`]. A task that panics poisons its
//!   slot, and the first waiter re-raises the panic — so failures
//!   propagate instead of deadlocking the window.

use std::any::Any;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// A contention-counting reader/writer lock (see module docs).
///
/// Reads are optimistic and shared: an uncontended `read` is a single
/// `try_read` that never touches the counter; only acquisitions that had
/// to block count as waits. Poisoning is deliberately ignored (`unwrap`
/// semantics): the protected structures are only mutated through
/// panic-free paths.
#[derive(Debug, Default)]
pub struct WaitLock<T> {
    inner: RwLock<T>,
    waits: AtomicU64,
}

impl<T> WaitLock<T> {
    /// Wraps a value.
    pub fn new(value: T) -> Self {
        Self {
            inner: RwLock::new(value),
            waits: AtomicU64::new(0),
        }
    }

    /// Shared access; counts a wait iff the optimistic try failed.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        if let Ok(guard) = self.inner.try_read() {
            return guard;
        }
        self.waits.fetch_add(1, Ordering::Relaxed);
        self.inner.read().unwrap()
    }

    /// Exclusive access; counts a wait iff the optimistic try failed.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        if let Ok(guard) = self.inner.try_write() {
            return guard;
        }
        self.waits.fetch_add(1, Ordering::Relaxed);
        self.inner.write().unwrap()
    }

    /// Acquisitions that found the lock held and had to block.
    pub fn wait_count(&self) -> u64 {
        self.waits.load(Ordering::Relaxed)
    }
}

/// Internal state of a [`Slot`].
enum SlotState<T> {
    /// Not produced yet.
    Empty,
    /// Produced, not consumed by [`Slot::take`].
    Ready(T),
    /// Consumed by [`Slot::take`].
    Taken,
    /// The producer panicked; the payload re-raises at the first waiter.
    Poisoned(Option<Box<dyn Any + Send>>),
}

/// A [`Slot`]'s state and the consumers blocked on it, under one lock.
struct SlotInner<T> {
    state: SlotState<T>,
    /// Consumers parked on [`Slot`]'s condvar. A producer wakes them only
    /// when there are some: `notify_all` costs a syscall even with nobody
    /// waiting, and most slots fill before anyone asks (all of them on a
    /// one-thread pool, which runs every task at its spawn).
    parked: usize,
}

/// A one-shot result cell: one producer [`Slot::set`]s (or
/// [`Slot::poison`]s), any number of consumers block on the value (see
/// module docs).
pub struct Slot<T> {
    inner: Mutex<SlotInner<T>>,
    ready: Condvar,
}

impl<T> Default for Slot<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> std::fmt::Debug for Slot<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Slot").finish_non_exhaustive()
    }
}

impl<T> Slot<T> {
    /// An empty slot awaiting its producer.
    pub fn new() -> Self {
        Self::with_state(SlotState::Empty)
    }

    /// A slot that is already filled (the inline-execution fast path).
    pub fn ready(value: T) -> Self {
        Self::with_state(SlotState::Ready(value))
    }

    fn with_state(state: SlotState<T>) -> Self {
        Self {
            inner: Mutex::new(SlotInner { state, parked: 0 }),
            ready: Condvar::new(),
        }
    }

    /// Publishes the value, waking every waiter. Panics if the slot was
    /// already set, poisoned or taken — slots are strictly one-shot.
    pub fn set(&self, value: T) {
        self.fill(SlotState::Ready(value));
    }

    /// Marks the producer as panicked; the payload re-raises at the
    /// first waiter (later waiters raise a generic panic).
    pub fn poison(&self, payload: Box<dyn Any + Send>) {
        self.fill(SlotState::Poisoned(Some(payload)));
    }

    fn fill(&self, state: SlotState<T>) {
        let mut inner = self.inner.lock().unwrap();
        assert!(
            matches!(inner.state, SlotState::Empty),
            "slot filled more than once"
        );
        inner.state = state;
        let wake = inner.parked > 0;
        drop(inner);
        if wake {
            self.ready.notify_all();
        }
    }

    /// Blocks until a producer wakes this consumer, counted as parked
    /// meanwhile (spurious wake-ups return too; callers re-check).
    fn park<'a>(&self, mut inner: MutexGuard<'a, SlotInner<T>>) -> MutexGuard<'a, SlotInner<T>> {
        inner.parked += 1;
        let mut inner = self.ready.wait(inner).unwrap();
        inner.parked -= 1;
        inner
    }

    /// Blocks until the value is published and clones it out — the
    /// multi-consumer read (the scheduler shares shard outcomes across
    /// months as `Arc`s, so the clone is a pointer bump).
    pub fn wait(&self) -> T
    where
        T: Clone,
    {
        let mut inner = self.inner.lock().unwrap();
        loop {
            match &mut inner.state {
                SlotState::Ready(value) => return value.clone(),
                SlotState::Taken => panic!("slot value already taken"),
                SlotState::Poisoned(payload) => match payload.take() {
                    Some(payload) => resume_unwind(payload),
                    None => panic!("slot producer panicked"),
                },
                SlotState::Empty => inner = self.park(inner),
            }
        }
    }

    /// Blocks until the value is published and moves it out — the
    /// single-consumer read. Panics on a second take.
    pub fn take(&self) -> T {
        let mut inner = self.inner.lock().unwrap();
        loop {
            match &mut inner.state {
                SlotState::Ready(_) => {
                    match std::mem::replace(&mut inner.state, SlotState::Taken) {
                        SlotState::Ready(value) => return value,
                        _ => unreachable!(),
                    }
                }
                SlotState::Taken => panic!("slot value already taken"),
                SlotState::Poisoned(payload) => match payload.take() {
                    Some(payload) => resume_unwind(payload),
                    None => panic!("slot producer panicked"),
                },
                SlotState::Empty => inner = self.park(inner),
            }
        }
    }

    /// Non-blocking probe: whether a value (or poison) has landed.
    pub fn is_done(&self) -> bool {
        !matches!(self.inner.lock().unwrap().state, SlotState::Empty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn wait_lock_counts_only_contended_acquisitions() {
        let lock = WaitLock::new(0u32);
        for _ in 0..10 {
            *lock.write() += 1;
            assert_eq!(*lock.read(), *lock.read());
        }
        assert_eq!(lock.wait_count(), 0, "uncontended use never counts");

        let lock = Arc::new(lock);
        let held = lock.clone();
        let guard = held.write();
        let contender = {
            let lock = lock.clone();
            std::thread::spawn(move || *lock.read())
        };
        // The contender's failed `try_read` counts before it blocks, so
        // the writer holds on until the wait is on record.
        while lock.wait_count() == 0 {
            std::thread::yield_now();
        }
        drop(guard);
        assert_eq!(contender.join().unwrap(), 10);
        assert_eq!(lock.wait_count(), 1, "one blocked read, counted once");
    }

    #[test]
    fn slot_set_then_wait_and_take() {
        let slot = Slot::new();
        slot.set(7u32);
        assert!(slot.is_done());
        assert_eq!(slot.wait(), 7);
        assert_eq!(slot.wait(), 7, "wait clones, repeatedly");
        assert_eq!(slot.take(), 7);
    }

    #[test]
    fn slot_ready_is_prefilled() {
        let slot = Slot::ready("x");
        assert_eq!(slot.take(), "x");
    }

    #[test]
    fn slot_blocks_until_produced() {
        let slot = Arc::new(Slot::new());
        let producer = {
            let slot = slot.clone();
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(10));
                slot.set(42u64);
            })
        };
        assert_eq!(slot.wait(), 42);
        producer.join().unwrap();
    }

    #[test]
    fn slot_wakes_a_parked_waiter() {
        let slot = Arc::new(Slot::new());
        let consumer = {
            let slot = slot.clone();
            std::thread::spawn(move || slot.take())
        };
        // Fill only once the consumer is parked, so the wake-up path runs.
        while slot.inner.lock().unwrap().parked == 0 {
            std::thread::yield_now();
        }
        slot.set(5u8);
        assert_eq!(consumer.join().unwrap(), 5);
        assert_eq!(slot.inner.lock().unwrap().parked, 0);
    }

    #[test]
    fn slot_poison_resumes_panic_at_waiter() {
        let slot: Slot<u32> = Slot::new();
        slot.poison(Box::new("task boom"));
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| slot.wait()))
            .expect_err("poisoned slot must panic");
        assert_eq!(*err.downcast_ref::<&str>().unwrap(), "task boom");
        // Later waiters still fail, with a generic payload.
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| slot.take())).is_err());
    }

    #[test]
    fn double_take_panics() {
        let slot = Slot::ready(1u8);
        let _ = slot.take();
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| slot.take())).is_err());
    }
}
