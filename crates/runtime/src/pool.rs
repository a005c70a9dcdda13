//! A work-stealing worker pool built on `std::thread` + mutex-guarded deques — no
//! external dependencies, no unsafe code.
//!
//! Design:
//!
//! * every worker owns a deque; submissions are distributed round-robin across the
//!   deques, a worker pops from **its own** deque first and **steals** from the
//!   others when it runs dry, so an uneven batch rebalances itself;
//! * the *submitting* thread is part of the pool for the duration of its batch: while
//!   waiting for results it steals and runs pending tasks instead of blocking. This
//!   "caller helps" rule makes nested submissions deadlock-free (a task running on a
//!   worker may itself submit a batch and wait) and makes `workers = 0` a genuine
//!   sequential mode — the caller just runs everything, which is the single-thread
//!   baseline the benchmarks compare against;
//! * [`WorkerPool::run`] preserves input order in its result vector, so parallel maps
//!   are **deterministic**: scheduling decides *who* computes each slot, never *what*
//!   the slot contains. The determinism suite exercises this at 1, 2 and 8 workers.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Consecutive empty polls a waiting submitter spends yielding its timeslice
/// before it backs off to a real sleep. Yield-first keeps small batches from
/// stalling by a full sleep on loaded or single-core machines.
pub const SUBMITTER_YIELD_POLLS: u32 = 64;

/// How long a waiting submitter sleeps per empty poll once the yield budget
/// ([`SUBMITTER_YIELD_POLLS`]) is exhausted and its tasks are still in flight
/// on workers.
pub const SUBMITTER_BACKOFF: Duration = Duration::from_micros(50);

/// Upper bound on how long an idle worker parks on the wakeup condvar before
/// re-checking the deques; it only bounds shutdown latency (wakeups are
/// explicit), so it trades idle wake frequency against drop responsiveness.
pub const IDLE_WAIT_TIMEOUT: Duration = Duration::from_millis(10);

type Task = Box<dyn FnOnce() + Send + 'static>;

struct Shared {
    /// One deque per worker (at least one, so a worker-less pool can still queue).
    deques: Vec<Mutex<VecDeque<Task>>>,
    /// Round-robin submission cursor.
    next: AtomicUsize,
    /// Set once on drop; workers drain their deques and exit.
    shutdown: AtomicBool,
    /// Idle workers sleep here; submissions notify it.
    idle: Mutex<()>,
    wakeup: Condvar,
}

impl Shared {
    /// Enqueues a whole batch with one lock round per deque and a single
    /// notification, instead of a lock + notify per task — batch submission is
    /// the hot path (`run` is called per scan / join of a compiled plan).
    fn push_batch(&self, tasks: Vec<Task>) {
        let n = self.deques.len();
        // relaxed: round-robin cursor — any start index is correct, only spread matters.
        let first = self.next.fetch_add(tasks.len(), Ordering::Relaxed);
        if n == 1 {
            self.deques[0]
                .lock()
                .expect("pool deque poisoned")
                .extend(tasks);
        } else {
            let mut per_deque: Vec<Vec<Task>> = (0..n).map(|_| Vec::new()).collect();
            for (offset, task) in tasks.into_iter().enumerate() {
                per_deque[(first + offset) % n].push(task);
            }
            for (slot, chunk) in per_deque.into_iter().enumerate() {
                if !chunk.is_empty() {
                    self.deques[slot]
                        .lock()
                        .expect("pool deque poisoned")
                        .extend(chunk);
                }
            }
        }
        // Notify while holding the idle lock: a worker that found the deques
        // empty either re-checks before it waits (and sees these tasks) or is
        // already waiting (and receives this notification) — no lost wakeup.
        let _idle = self.idle.lock().expect("pool idle lock poisoned");
        self.wakeup.notify_all();
    }

    /// Pops from deque `home` first, then steals round-robin from the others.
    fn pop_or_steal(&self, home: usize) -> Option<Task> {
        let n = self.deques.len();
        for i in 0..n {
            let slot = (home + i) % n;
            let task = self.deques[slot]
                .lock()
                .expect("pool deque poisoned")
                .pop_front();
            if task.is_some() {
                return task;
            }
        }
        None
    }
}

/// The shared work-stealing pool: `workers` background threads plus every
/// submitting thread for the duration of its batch.
///
/// ```
/// use nev_runtime::pool::WorkerPool;
///
/// let pool = WorkerPool::new(4);
/// let squares = pool.run((0..100u64).collect(), |_, n| n * n);
/// assert_eq!(squares[7], 49);
/// // Order is preserved regardless of which thread computed each slot.
/// assert!(squares.windows(2).all(|w| w[0] < w[1]));
/// ```
#[derive(Debug)]
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("deques", &self.deques.len())
            // relaxed: Debug-only read; staleness is harmless.
            .field("shutdown", &self.shutdown.load(Ordering::Relaxed))
            .finish()
    }
}

impl WorkerPool {
    /// Spawns a pool with `workers` background threads. `0` is valid and means
    /// every batch runs sequentially on the thread that submits it.
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            deques: (0..workers.max(1))
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            next: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            idle: Mutex::new(()),
            wakeup: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|home| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("nev-worker-{home}"))
                    .spawn(move || worker_loop(&shared, home))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            workers: handles,
        }
    }

    /// Number of background worker threads (callers always help on top).
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Maps `f` over `items` in parallel, preserving input order in the results.
    ///
    /// `f` receives `(index, item)` so tasks can vary deterministically by slot.
    /// The calling thread participates: it steals and runs queued tasks (its own
    /// or another batch's) until every slot of *this* batch is filled, so the call
    /// never deadlocks even when issued from inside a pool task.
    ///
    /// # Panics
    /// If `f` panics on any item, the panic is captured where it happened
    /// (worker threads survive, the batch still completes every other slot) and
    /// re-raised on the calling thread once the batch is done.
    pub fn run<I, T, F>(&self, items: Vec<I>, f: F) -> Vec<T>
    where
        I: Send + 'static,
        T: Send + 'static,
        F: Fn(usize, I) -> T + Send + Sync + 'static,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        let f = Arc::new(f);
        let results: Arc<Vec<Mutex<Option<std::thread::Result<T>>>>> =
            Arc::new((0..n).map(|_| Mutex::new(None)).collect());
        let done = Arc::new(AtomicUsize::new(0));
        let tasks: Vec<Task> = items
            .into_iter()
            .enumerate()
            .map(|(index, item)| {
                let f = Arc::clone(&f);
                let results = Arc::clone(&results);
                let done = Arc::clone(&done);
                Box::new(move || {
                    // Capture panics instead of unwinding the worker: an
                    // unwound worker would never increment `done`, hanging the
                    // submitter, and would permanently shrink the pool.
                    let out =
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(index, item)));
                    *results[index].lock().expect("result slot poisoned") = Some(out);
                    done.fetch_add(1, Ordering::Release);
                }) as Task
            })
            .collect();
        self.shared.push_batch(tasks);
        // Help until this batch is complete.
        let mut empty_polls = 0u32;
        while done.load(Ordering::Acquire) < n {
            match self.shared.pop_or_steal(0) {
                Some(task) => {
                    empty_polls = 0;
                    task();
                }
                None => {
                    // Nothing runnable: our remaining tasks are in flight on
                    // workers. Yield the timeslice first — on a loaded (or
                    // single-core) machine that lets the worker holding our
                    // last task finish immediately, where a fixed sleep would
                    // stall every small batch by its full duration. Only back
                    // off to a real sleep after repeated empty polls.
                    empty_polls += 1;
                    if empty_polls < SUBMITTER_YIELD_POLLS {
                        std::thread::yield_now();
                    } else {
                        std::thread::sleep(SUBMITTER_BACKOFF);
                    }
                }
            }
        }
        // Take the slots rather than unwrapping the Arc: the last task may still be
        // between its `done` increment and the drop of its own Arc clone. A
        // captured panic resurfaces here, on the thread that submitted the batch.
        results
            .iter()
            .map(|slot| {
                match slot
                    .lock()
                    .expect("result slot poisoned")
                    .take()
                    .expect("completed batch filled every slot")
                {
                    Ok(out) => out,
                    Err(panic) => std::panic::resume_unwind(panic),
                }
            })
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.wakeup.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared, home: usize) {
    loop {
        match shared.pop_or_steal(home) {
            Some(task) => task(),
            None => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                // Re-check the deques *under the idle lock*: push() enqueues
                // before notifying under the same lock, so a task submitted
                // after our first (lock-free) check is either visible here or
                // its notification arrives while we wait — never lost. The
                // timeout only bounds shutdown latency.
                let guard = shared.idle.lock().expect("pool idle lock poisoned");
                if let Some(task) = shared.pop_or_steal(home) {
                    drop(guard);
                    task();
                    continue;
                }
                let _unused = shared
                    .wakeup
                    .wait_timeout(guard, IDLE_WAIT_TIMEOUT)
                    .expect("pool idle lock poisoned");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_at_every_worker_count() {
        let expected: Vec<u64> = (0..200u64).map(|n| n * 3 + 1).collect();
        for workers in [0, 1, 2, 8] {
            let pool = WorkerPool::new(workers);
            let got = pool.run((0..200u64).collect(), |_, n| n * 3 + 1);
            assert_eq!(got, expected, "workers={workers}");
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let pool = WorkerPool::new(2);
        let out: Vec<u64> = pool.run(Vec::<u64>::new(), |_, n| n);
        assert!(out.is_empty());
    }

    #[test]
    fn index_argument_matches_the_slot() {
        let pool = WorkerPool::new(3);
        let got = pool.run(vec!["a", "b", "c", "d"], |i, s| format!("{i}:{s}"));
        assert_eq!(got, vec!["0:a", "1:b", "2:c", "3:d"]);
    }

    #[test]
    fn nested_batches_do_not_deadlock() {
        let pool = Arc::new(WorkerPool::new(2));
        let inner_pool = Arc::clone(&pool);
        // Outer tasks each submit an inner batch to the SAME pool and wait on it;
        // without caller-helping this would exhaust the 2 workers and hang.
        let out = pool.run((0..4u64).collect(), move |_, n| {
            inner_pool
                .run((0..8u64).collect(), move |_, k| n * 10 + k)
                .iter()
                .sum::<u64>()
        });
        assert_eq!(out, vec![28, 108, 188, 268]);
    }

    #[test]
    fn many_concurrent_submitters_share_the_pool() {
        let pool = Arc::new(WorkerPool::new(4));
        let handles: Vec<_> = (0..6u64)
            .map(|t| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || pool.run((0..50u64).collect(), move |_, n| t * 1000 + n))
            })
            .collect();
        for (t, handle) in handles.into_iter().enumerate() {
            let got = handle.join().expect("submitter panicked");
            assert_eq!(got.len(), 50);
            assert_eq!(got[7], t as u64 * 1000 + 7);
        }
    }

    #[test]
    fn workers_report_their_count() {
        assert_eq!(WorkerPool::new(0).workers(), 0);
        assert_eq!(WorkerPool::new(3).workers(), 3);
    }

    #[test]
    fn task_panics_propagate_to_the_submitter_and_spare_the_workers() {
        let pool = WorkerPool::new(2);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run((0..8u64).collect(), |_, n| {
                assert!(n != 5, "task 5 exploded");
                n
            })
        }));
        assert!(outcome.is_err(), "the submitter sees the panic");
        // The pool is still fully functional afterwards: no worker unwound.
        let got = pool.run((0..16u64).collect(), |_, n| n + 1);
        assert_eq!(got.len(), 16);
        assert_eq!(got[15], 16);
    }
}
