//! A persistent thread pool with scoped fire-and-forget tasks — the
//! workspace's offline stand-in for the part of `rayon` the detection
//! engine needs.
//!
//! The build environment has no registry access, so the engine vendors
//! one small mechanism instead: [`ThreadPool::scope`] opens a scope, and
//! [`Scope::spawn_detached`] submits a closure that may borrow caller
//! state and reports through a channel of its own (a [`sync::Slot`]).
//! There are no join handles and no result plumbing in the pool itself.
//!
//! The pool is **persistent**: workers are spawned once at construction
//! and parked on a condvar while the shared FIFO queue is empty, so
//! submitting a task costs a queue push and a wake-up instead of an OS
//! thread spawn. A pool of `n` threads counts the calling thread, which
//! drives the scope, and spawns `n - 1` workers; a one-thread pool spawns
//! none and runs every task inline at its spawn, in submission order.
//! Dropping the pool drains the queue and joins every worker.
//!
//! # Scoped tasks and lifetime erasure
//!
//! Queued jobs are stored as `'static` boxed closures, but a scope's
//! tasks may borrow anything that outlives it. The lifetime is erased at
//! the submission boundary (`erase_job_lifetime`, the crate's only
//! `unsafe`) and re-imposed structurally, following `std::thread::scope`:
//! the scope counts its outstanding jobs, and `scope()` does not return
//! (or unwind) until every spawned job has finished. Soundness therefore
//! rests on no handle's destructor — there is no handle to leak.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod sync;

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A queued unit of work. The `'static` is imposed by
/// [`erase_job_lifetime`]; the scope that submitted the job waits for it
/// before any borrow inside it expires.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Erases the borrow lifetime of a job so it can sit in the pool's
/// queue.
///
/// Sound because the only submitter, [`Scope::spawn_detached_inner`],
/// increments its scope's pending counter first, and
/// [`ThreadPool::scope`] waits for that counter to reach zero before
/// returning or unwinding — no leakable destructor is involved.
#[allow(unsafe_code)]
fn erase_job_lifetime<'env>(job: Box<dyn FnOnce() + Send + 'env>) -> Job {
    // SAFETY: only the borrow lifetime parameter of the trait object
    // changes; vtable and layout are identical. The scope guarantees the
    // closure finishes executing (and is dropped) while 'env is live.
    unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Job>(job) }
}

/// State shared between the pool handle and its workers.
struct PoolShared {
    /// Pending jobs, FIFO except for queue-jumping ones.
    queue: Mutex<VecDeque<Job>>,
    /// Signals parked workers that the queue changed or shutdown began.
    available: Condvar,
    /// Set (once) by the pool's `Drop`; workers drain the queue first.
    shutdown: AtomicBool,
}

impl PoolShared {
    /// Enqueues a job, at the front if it is `urgent`.
    fn push(&self, job: Job, urgent: bool) {
        let mut queue = self.queue.lock().unwrap();
        if urgent {
            queue.push_front(job);
        } else {
            queue.push_back(job);
        }
        drop(queue);
        self.available.notify_one();
    }

    /// The worker main loop: pop jobs until the queue is empty *and*
    /// shutdown has been requested. Jobs never unwind (the scope wraps
    /// them in `catch_unwind`), so a worker lives as long as the pool.
    fn worker_loop(&self) {
        loop {
            let job = {
                let mut queue = self.queue.lock().unwrap();
                loop {
                    if let Some(job) = queue.pop_front() {
                        break job;
                    }
                    if self.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    queue = self.available.wait(queue).unwrap();
                }
            };
            job();
        }
    }
}

/// Book-keeping of one [`ThreadPool::scope`] invocation.
struct ScopeState {
    /// Spawned jobs not yet finished.
    pending: Mutex<usize>,
    /// Signalled when `pending` reaches zero.
    all_done: Condvar,
}

/// A spawning handle tied to one [`ThreadPool::scope`] call. Jobs
/// spawned through it may borrow anything that outlives `'env`; the
/// scope guarantees they finish before `scope()` returns.
pub struct Scope<'env> {
    pool: &'env ThreadPool,
    state: Arc<ScopeState>,
    /// Makes `'env` invariant, pinning the borrows spawned jobs may hold.
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'env> Scope<'env> {
    /// Submits a fire-and-forget closure that may borrow caller state.
    /// It runs on a parked worker, or inline at once if the pool has
    /// none, and has finished by the time the enclosing
    /// [`ThreadPool::scope`] returns. It has no handle: a task reports
    /// through its own channel (e.g. a [`sync::Slot`]).
    ///
    /// The job runs under `catch_unwind`; a panic is swallowed (the
    /// worker and the scope survive), so closures that can fail should
    /// route the failure through their result channel — the engine's
    /// tasks poison their slot, which re-raises the panic at the
    /// consumer.
    pub fn spawn_detached<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        self.spawn_detached_inner(f, false);
    }

    /// [`Scope::spawn_detached`], but the job **jumps the queue**: it is
    /// dequeued before every job already pending. Use for tasks whose
    /// captured state blocks a producer — beware that a queue-jumping
    /// job must never wait on a job enqueued before it (it may now run
    /// first), or the pool can deadlock.
    pub fn spawn_detached_urgent<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        self.spawn_detached_inner(f, true);
    }

    fn spawn_detached_inner<F>(&self, f: F, urgent: bool)
    where
        F: FnOnce() + Send + 'env,
    {
        let scope_state = Arc::clone(&self.state);
        *self.state.pending.lock().unwrap() += 1;
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            let _ = catch_unwind(AssertUnwindSafe(f));
            // Last: release the scope. Nothing below touches borrowed
            // data, so the scope may return the instant this hits zero.
            let mut pending = scope_state.pending.lock().unwrap();
            *pending -= 1;
            if *pending == 0 {
                scope_state.all_done.notify_all();
            }
        });
        if self.pool.workers.is_empty() {
            job();
        } else {
            self.pool.shared.push(erase_job_lifetime(job), urgent);
        }
    }
}

/// The persistent pool (see module docs).
pub struct ThreadPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.threads)
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl ThreadPool {
    /// A pool of `threads` logical threads, the caller's included, so
    /// `threads - 1` workers are spawned (a one-thread pool spawns none
    /// and runs everything inline). `0` sizes the pool to the machine
    /// (`available_parallelism`, at least 1).
    pub fn with_threads(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            threads
        };
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (1..threads)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || shared.worker_loop())
            })
            .collect();
        Self {
            shared,
            workers,
            threads,
        }
    }

    /// Number of logical threads, the caller's included.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Opens a spawning scope, following `std::thread::scope`: the
    /// closure may spawn borrowing jobs through the [`Scope`], and
    /// `scope` does not return — normally or by unwind — until every
    /// spawned job has finished.
    pub fn scope<'env, F, R>(&'env self, f: F) -> R
    where
        F: FnOnce(&Scope<'env>) -> R,
    {
        let scope = Scope {
            pool: self,
            state: Arc::new(ScopeState {
                pending: Mutex::new(0),
                all_done: Condvar::new(),
            }),
            _env: PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        // Wait out every spawned job before returning or unwinding: the
        // jobs may borrow state the caller frees right after us.
        let mut pending = scope.state.pending.lock().unwrap();
        while *pending > 0 {
            pending = scope.state.all_done.wait(pending).unwrap();
        }
        drop(pending);
        match result {
            Ok(value) => value,
            Err(payload) => resume_unwind(payload),
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // The store must synchronise with the workers' empty-check →
        // park window through the queue mutex: a worker that just found
        // the queue empty and read `shutdown == false` still holds the
        // lock until `Condvar::wait` parks it, so storing under the same
        // lock guarantees the notify below cannot be lost between the
        // check and the park.
        {
            let _queue = self.shared.queue.lock().unwrap();
            self.shared.shutdown.store(true, Ordering::Release);
        }
        self.shared.available.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::Slot;

    #[test]
    fn auto_sizing_and_explicit_threads() {
        assert!(ThreadPool::with_threads(0).threads() >= 1);
        assert_eq!(ThreadPool::with_threads(1).workers.len(), 0);
        assert_eq!(ThreadPool::with_threads(3).threads(), 3);
        assert_eq!(ThreadPool::with_threads(3).workers.len(), 2);
    }

    #[test]
    fn spawn_detached_runs_and_is_waited_out() {
        // Fire-and-forget tasks fill their own channels; a panicking task
        // neither kills the worker nor wedges the scope. One worker, so
        // the second scope's task proves that worker survived.
        let pool = ThreadPool::with_threads(2);
        let slot = Arc::new(Slot::new());
        pool.scope(|scope| {
            scope.spawn_detached(|| panic!("detached boom"));
            let in_slot = Arc::clone(&slot);
            scope.spawn_detached(move || in_slot.set(11u32));
        });
        assert!(slot.is_done(), "scope returned after its tasks");
        assert_eq!(slot.take(), 11);
        let slot = Slot::new();
        pool.scope(|scope| scope.spawn_detached(|| slot.set(12u32)));
        assert_eq!(slot.take(), 12);
    }

    #[test]
    fn scope_spawn_runs_inline_without_workers() {
        let pool = ThreadPool::with_threads(1);
        let order = Mutex::new(Vec::new());
        pool.scope(|scope| {
            scope.spawn_detached(|| order.lock().unwrap().push(1));
            assert_eq!(*order.lock().unwrap(), [1], "ran at its spawn");
            scope.spawn_detached_urgent(|| order.lock().unwrap().push(2));
            assert_eq!(
                *order.lock().unwrap(),
                [1, 2],
                "urgent changes nothing inline"
            );
        });
    }

    #[test]
    fn pool_is_reusable_across_many_scopes() {
        // The persistent-pool contract: many scopes on one set of
        // workers, every task's slot filled before its scope returns.
        let pool = ThreadPool::with_threads(4);
        for round in 0u64..50 {
            let slots: Vec<Slot<u64>> = (0..16).map(|_| Slot::new()).collect();
            pool.scope(|scope| {
                for (i, slot) in slots.iter().enumerate() {
                    scope.spawn_detached(move || slot.set(round + i as u64));
                }
            });
            assert!(slots.iter().all(Slot::is_done));
            let got: Vec<u64> = slots.iter().map(Slot::take).collect();
            assert_eq!(got, (round..round + 16).collect::<Vec<_>>());
        }
    }

    #[test]
    fn urgent_jobs_jump_the_queue() {
        // One worker, held by a gated job until both later jobs are
        // queued: the urgent one must run first.
        let pool = ThreadPool::with_threads(2);
        let gate = Slot::new();
        let order = Mutex::new(Vec::new());
        pool.scope(|scope| {
            scope.spawn_detached(|| gate.wait());
            scope.spawn_detached(|| order.lock().unwrap().push("normal"));
            scope.spawn_detached_urgent(|| order.lock().unwrap().push("urgent"));
            gate.set(());
        });
        assert_eq!(*order.lock().unwrap(), ["urgent", "normal"]);
    }

    /// A helper thread that fills `gate` once `signal` is filled, so a
    /// pool job blocked on `gate` is still running when the scope body
    /// fills `signal` and leaves.
    fn open_after(signal: &Arc<Slot<()>>, gate: &Arc<Slot<()>>) -> JoinHandle<()> {
        let (signal, gate) = (Arc::clone(signal), Arc::clone(gate));
        std::thread::spawn(move || {
            signal.wait();
            gate.set(());
        })
    }

    #[test]
    fn scope_exit_waits_for_detached_jobs() {
        // The soundness property: the scope must not return while a job
        // still runs against borrowed state, though nothing joins it.
        let pool = ThreadPool::with_threads(2);
        let (body_done, gate) = (Arc::new(Slot::new()), Arc::new(Slot::new()));
        let opener = open_after(&body_done, &gate);
        let ran = AtomicBool::new(false);
        pool.scope(|scope| {
            let gate = Arc::clone(&gate);
            let ran = &ran;
            scope.spawn_detached(move || {
                gate.wait();
                ran.store(true, Ordering::SeqCst);
            });
            body_done.set(());
        });
        assert!(ran.load(Ordering::SeqCst), "scope waited for the job");
        opener.join().unwrap();
    }

    #[test]
    fn scope_propagates_closure_panics_after_draining() {
        let pool = ThreadPool::with_threads(2);
        let (body_done, gate) = (Arc::new(Slot::new()), Arc::new(Slot::new()));
        let opener = open_after(&body_done, &gate);
        let ran = AtomicBool::new(false);
        let err = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|scope| {
                let gate = Arc::clone(&gate);
                let ran = &ran;
                scope.spawn_detached(move || {
                    gate.wait();
                    ran.store(true, Ordering::SeqCst);
                });
                body_done.set(());
                panic!("scope body boom");
            })
        }))
        .unwrap_err();
        assert_eq!(*err.downcast_ref::<&str>().unwrap(), "scope body boom");
        assert!(ran.load(Ordering::SeqCst), "jobs drained before unwind");
        opener.join().unwrap();
    }

    #[test]
    fn shutdown_completes_pending_work() {
        // Jobs still queued when the drop begins run before it returns.
        // The one worker is held by a gated job until shutdown is
        // flagged, so the other 15 are queued at that point.
        let counter = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let gate = Arc::new(Slot::new());
        let pool = ThreadPool::with_threads(2);
        let in_gate = Arc::clone(&gate);
        pool.shared.push(Box::new(move || in_gate.wait()), false);
        for _ in 0..15 {
            let counter = Arc::clone(&counter);
            pool.shared.push(
                Box::new(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                }),
                false,
            );
        }
        let shared = Arc::clone(&pool.shared);
        let opener = std::thread::spawn(move || {
            while !shared.shutdown.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            gate.set(());
        });
        drop(pool);
        assert_eq!(counter.load(Ordering::SeqCst), 15);
        opener.join().unwrap();
    }

    #[test]
    fn rapid_create_drop_cycles_never_hang() {
        // Regression guard for the shutdown lost-wakeup race: Drop used
        // to set the flag and notify without the queue lock, so a worker
        // between its shutdown check and its condvar park could miss the
        // wakeup forever.
        for _ in 0..200 {
            drop(ThreadPool::with_threads(3));
        }
        for round in 0..50u32 {
            let pool = ThreadPool::with_threads(3);
            let slot = Slot::new();
            pool.scope(|scope| scope.spawn_detached(|| slot.set(round)));
            assert_eq!(slot.take(), round);
        }
    }
}
