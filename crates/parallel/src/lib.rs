//! Deterministic fan-out over OS threads, with no dependencies.
//!
//! The FairMove workloads that dominate walltime — (method × seed ×
//! fault-scenario) training/evaluation runs, and the row loops of the dense
//! matmuls inside them — are embarrassingly parallel *and* must stay
//! bit-identical to the serial path: every result file, ledger, and
//! run-report line is compared byte-for-byte in tests. This crate provides
//! one threading primitive and two one-shot helpers built on it:
//!
//! * [`Pool`] — a persistent set of parked worker threads, woken once per
//!   batch. Workers claim items from a shared atomic cursor; the calling
//!   thread is the last worker, and a batch returns only after every helper
//!   finished it. The sharded engine keeps one per `ShardedEnv` and steps
//!   its shards on it every slot.
//! * [`ordered_map`] — fan a batch of independent jobs across worker
//!   threads, collecting results **in submission order**. Workers race for
//!   *which* job to run next, never for *where* its result lands, so output
//!   order is a function of the input alone.
//! * [`par_chunks_mut`] — split a mutable slice into fixed-size chunks and
//!   hand disjoint chunks to workers. Used for row-partitioned matmul where
//!   each output row is written by exactly one thread.
//!
//! The two helpers run on a [`Pool`] that lives for one call.
//!
//! No primitive imposes an ordering on *observable side effects* of
//! the jobs themselves; jobs that must compose deterministically have to be
//! independent (own RNG, own telemetry registry, no shared mutable state).
//! That contract is what `Runner::compare` and the bench binaries uphold.
//!
//! Thread count comes from the `FAIRMOVE_THREADS` environment variable
//! (default: all available cores), read once per process. The `*_threads`
//! variants take an explicit count so tests and benches can pin 1/2/4
//! without touching the environment.

use std::any::Any;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

/// Effective worker count: `FAIRMOVE_THREADS` if set to a positive integer,
/// otherwise [`std::thread::available_parallelism`]. Cached for the process
/// lifetime; `FAIRMOVE_THREADS=1` forces the serial path everywhere.
///
/// A set-but-invalid value (`0`, garbage, overflow) is *rejected with a
/// single warning* on stderr and the default is used — silently running
/// serial (or worse, misparsing) would defeat the whole point of pinning
/// the thread count in CI.
pub fn thread_count() -> usize {
    static COUNT: OnceLock<usize> = OnceLock::new();
    *COUNT.get_or_init(|| {
        let default = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let raw = std::env::var("FAIRMOVE_THREADS").ok();
        match parse_thread_count(raw.as_deref(), default) {
            Ok(n) => n,
            Err(why) => {
                // The OnceLock initializer runs at most once per process,
                // so this warning cannot repeat.
                eprintln!("fairmove-parallel: {why}; using {default} thread(s)");
                default
            }
        }
    })
}

/// Parses a `FAIRMOVE_THREADS` value. `None` (unset) and `Some("")` mean
/// "use the default"; anything else must be a positive integer that fits in
/// `usize`. Invalid input returns the warning text to emit — callers decide
/// where it goes, which is what makes the matrix unit-testable.
pub fn parse_thread_count(raw: Option<&str>, default: usize) -> Result<usize, String> {
    let Some(raw) = raw else {
        return Ok(default);
    };
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Ok(default);
    }
    match trimmed.parse::<usize>() {
        Ok(0) => Err("FAIRMOVE_THREADS=0 is invalid (need at least one worker)".into()),
        Ok(n) => Ok(n),
        Err(_) => Err(format!(
            "FAIRMOVE_THREADS={trimmed:?} is not a positive integer"
        )),
    }
}

/// A persistent set of worker threads for repeated fan-outs.
///
/// `Pool::new(threads)` spawns `threads − 1` parked helper threads; the
/// thread that calls [`Pool::for_each`] or [`Pool::ordered_map`] is the
/// last worker. Each batch wakes the helpers once, every worker claims
/// items from one shared atomic cursor (a slow item does not stall the
/// queue behind it), and the call returns only after every helper has
/// finished the batch. A panic on any worker is re-raised on the caller
/// once the batch is over, and the pool stays usable for the next batch.
///
/// The pool owns its helpers: dropping it wakes them, and `Drop` joins
/// every one, so no helper outlives its pool. A pool of one thread spawns
/// nothing and runs every batch inline, in order.
pub struct Pool {
    threads: usize,
    shared: Arc<Shared>,
    helpers: Vec<JoinHandle<()>>,
}

/// The job a batch hands every worker: its claim loop. The lifetime is
/// erased in [`Pool::run`], which alone publishes it.
type Job = &'static (dyn Fn() + Sync);

/// Everything the caller and the helpers exchange, under one lock.
#[derive(Default)]
struct State {
    /// Bumped once per batch; each helper runs each generation once.
    generation: u64,
    /// The current batch's job, set for exactly as long as a batch runs.
    job: Option<Job>,
    /// Helpers that have not finished the current batch yet.
    running: usize,
    /// The first panic a helper raised in the current batch.
    panic: Option<Box<dyn Any + Send>>,
    /// Set by `Drop`: helpers exit instead of waiting for a batch.
    shutdown: bool,
}

#[derive(Default)]
struct Shared {
    state: Mutex<State>,
    /// Wakes the helpers: a new batch, or shutdown.
    start: Condvar,
    /// Wakes the caller: the last helper finished the batch.
    done: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        // No code panics while holding the lock (jobs run outside it), so
        // a poisoned lock still guards a consistent state.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Pool {
    /// A pool of `threads` workers (at least one): the calling thread plus
    /// `threads − 1` parked helpers.
    pub fn new(threads: usize) -> Pool {
        let threads = threads.max(1);
        let shared = Arc::new(Shared::default());
        let helpers = (1..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("fairmove-pool-{i}"))
                    .spawn(move || helper_loop(&shared))
                    .expect("spawning a pool thread")
            })
            .collect();
        Pool {
            threads,
            shared,
            helpers,
        }
    }

    /// Workers per batch, the calling thread included.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Calls `f(i)` exactly once for every `i` in `0..n`, spread over the
    /// pool's workers by dynamic claim. With one thread, or fewer than two
    /// items, the calls run inline in ascending order. Allocates nothing.
    ///
    /// # Panics
    /// Re-raises the first panic raised by `f`, after every worker has
    /// finished the batch.
    pub fn for_each<F>(&mut self, n: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        if self.helpers.is_empty() || n <= 1 {
            (0..n).for_each(f);
            return;
        }
        let cursor = AtomicUsize::new(0);
        self.run(&|| loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            f(i);
        });
    }

    /// Applies `f` to every item on the pool's workers and returns the
    /// results **in the order the items were submitted**: workers race for
    /// *which* item to run next, never for *where* its result lands.
    ///
    /// # Panics
    /// Re-raises the first panic raised by `f`.
    pub fn ordered_map<T, R, F>(&mut self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let n = items.len();
        if self.helpers.is_empty() || n <= 1 {
            return items.into_iter().map(f).collect();
        }
        let jobs: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        self.for_each(n, |i| {
            let item = jobs[i]
                .lock()
                .expect("job slot poisoned")
                .take()
                .expect("job claimed twice");
            let result = f(item);
            *slots[i].lock().expect("result slot poisoned") = Some(result);
        });
        slots
            .into_iter()
            .map(|s| {
                s.into_inner()
                    .expect("result slot poisoned")
                    .expect("worker exited without storing a result")
            })
            .collect()
    }

    /// Runs `job` once on every worker, the caller included, and returns
    /// after the last helper has finished it.
    fn run(&mut self, job: &(dyn Fn() + Sync)) {
        // SAFETY: the transmute only erases the lifetime of `job`, which
        // borrows the caller's stack. The erased reference is reachable
        // solely through `State::job`, and it is never used after `run`
        // returns or unwinds:
        // * a helper copies it out under the lock when it sees the new
        //   generation, and its copy goes out of scope before it
        //   decrements `running` under the lock (`helper_loop`);
        // * `run` publishes it with `running = helpers`, then waits until
        //   `running == 0` and clears `State::job` before returning, so no
        //   helper holds or can still fetch it afterwards;
        // * the caller's own share runs under `catch_unwind`, so a panic
        //   there cannot skip the wait: it is caught, the helpers are
        //   waited for, and only then is the panic resumed. Nothing
        //   between publishing and the end of the wait can panic: the
        //   lock is recovered from poisoning rather than unwrapped.
        // `&mut self` rules out a second batch on the same pool while one
        // runs.
        let job: Job = unsafe { std::mem::transmute::<&(dyn Fn() + Sync), Job>(job) };
        {
            let mut state = self.shared.lock();
            state.generation += 1;
            state.job = Some(job);
            state.running = self.helpers.len();
        }
        self.shared.start.notify_all();
        let mine = std::panic::catch_unwind(AssertUnwindSafe(job));
        // Each helper decrements `running` under the lock after its share,
        // so seeing 0 here also orders every helper's writes before ours.
        let mut state = self.shared.lock();
        while state.running > 0 {
            state = self
                .shared
                .done
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        state.job = None;
        let theirs = state.panic.take();
        drop(state);
        if let Err(payload) = mine {
            std::panic::resume_unwind(payload);
        }
        if let Some(payload) = theirs {
            std::panic::resume_unwind(payload);
        }
    }
}

/// A helper's life: wait for a new generation, run its job, report back;
/// exit on shutdown.
fn helper_loop(shared: &Shared) {
    let mut seen = 0u64;
    loop {
        let outcome = {
            let job = {
                let mut state = shared.lock();
                while state.generation == seen && !state.shutdown {
                    state = shared
                        .start
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                if state.shutdown {
                    return;
                }
                seen = state.generation;
                state.job.expect("a new generation publishes its job")
            };
            std::panic::catch_unwind(AssertUnwindSafe(job))
        };
        let mut state = shared.lock();
        if let Err(payload) = outcome {
            state.panic.get_or_insert(payload);
        }
        state.running -= 1;
        if state.running == 0 {
            shared.done.notify_one();
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.start.notify_all();
        for helper in self.helpers.drain(..) {
            // Helpers catch every job panic, so a join error cannot carry
            // a panic the caller has not already seen.
            let _ = helper.join();
        }
    }
}

/// [`ordered_map_threads`] with the process-wide [`thread_count`].
pub fn ordered_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    ordered_map_threads(thread_count(), items, f)
}

/// Applies `f` to every item, using up to `threads` OS threads, and returns
/// the results **in the order the items were submitted**.
///
/// This is [`Pool::ordered_map`] on a pool that lives for this one call:
/// jobs are claimed from a shared atomic cursor, but each result is written
/// into the slot of its input index, so the returned `Vec` is
/// indistinguishable from `items.into_iter().map(f).collect()` as long as
/// `f` itself is deterministic and the jobs are independent.
///
/// With `threads <= 1` (or fewer than two items) no threads are spawned and
/// the jobs run inline, in order, on the caller's stack.
///
/// # Panics
/// Propagates the first panic raised by `f` on any worker thread.
pub fn ordered_map_threads<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if threads <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }
    Pool::new(threads.min(n)).ordered_map(items, f)
}

/// [`par_chunks_mut_threads`] with the process-wide [`thread_count`].
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    par_chunks_mut_threads(thread_count(), data, chunk_len, f);
}

/// Splits `data` into consecutive chunks of `chunk_len` elements (the last
/// chunk may be shorter) and calls `f(chunk_index, chunk)` for each, using
/// up to `threads` OS threads of a pool that lives for this one call.
///
/// Chunks are disjoint, so each element is written by exactly one thread;
/// as long as `f`'s output for a chunk depends only on `(chunk_index,
/// chunk)` and shared read-only state, the final contents of `data` are
/// bit-identical for every thread count.
///
/// With `threads <= 1` (or a single chunk) the chunks are processed inline,
/// in order.
///
/// # Panics
/// Panics if `chunk_len == 0`; propagates the first panic raised by `f`.
pub fn par_chunks_mut_threads<T, F>(threads: usize, data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    let n_chunks = data.len().div_ceil(chunk_len);
    if threads <= 1 || n_chunks <= 1 {
        for (idx, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(idx, chunk);
        }
        return;
    }
    // One claimable slot per chunk: a worker takes the chunk exactly once
    // under the slot's own mutex.
    let chunks: Vec<Mutex<Option<&mut [T]>>> = data
        .chunks_mut(chunk_len)
        .map(|c| Mutex::new(Some(c)))
        .collect();
    Pool::new(threads.min(n_chunks)).for_each(n_chunks, |idx| {
        let chunk = chunks[idx]
            .lock()
            .expect("chunk slot poisoned")
            .take()
            .expect("chunk claimed twice");
        f(idx, chunk);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn ordered_map_preserves_submission_order() {
        for threads in [1, 2, 4, 8] {
            let out = ordered_map_threads(threads, (0..100u64).collect(), |x| x * x);
            let expected: Vec<u64> = (0..100).map(|x| x * x).collect();
            assert_eq!(out, expected, "threads={threads}");
        }
    }

    #[test]
    fn ordered_map_handles_empty_and_singleton() {
        let empty: Vec<u32> = ordered_map_threads(4, Vec::new(), |x: u32| x);
        assert!(empty.is_empty());
        assert_eq!(ordered_map_threads(4, vec![7u32], |x| x + 1), vec![8]);
    }

    #[test]
    fn ordered_map_actually_uses_multiple_threads() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let seen = Mutex::new(HashSet::new());
        // Jobs park briefly so slow claiming cannot let one worker drain
        // the whole queue before the others start.
        let _ = ordered_map_threads(4, (0..16).collect::<Vec<u32>>(), |x| {
            std::thread::sleep(std::time::Duration::from_millis(10));
            seen.lock().unwrap().insert(std::thread::current().id());
            x
        });
        // At least one spawned worker ran (the scope spawns workers even on
        // a single-core host; we only assert >= 1 to stay host-agnostic).
        assert!(!seen.lock().unwrap().is_empty());
    }

    #[test]
    fn ordered_map_moves_non_clone_items() {
        struct NoClone(u32);
        let items = vec![NoClone(1), NoClone(2), NoClone(3)];
        let out = ordered_map_threads(2, items, |x| x.0 * 10);
        assert_eq!(out, vec![10, 20, 30]);
    }

    #[test]
    #[should_panic(expected = "job 3 panicked")]
    fn ordered_map_propagates_worker_panics() {
        let _ = ordered_map_threads(2, (0..8u32).collect(), |x| {
            if x == 3 {
                panic!("job 3 panicked");
            }
            x
        });
    }

    #[test]
    fn pool_returns_results_in_submission_order() {
        for threads in [1, 2, 4] {
            let mut pool = Pool::new(threads);
            assert_eq!(pool.threads(), threads);
            // Several batches on one pool: each reuses the same helpers.
            for batch in 0..5u64 {
                let out = pool.ordered_map((0..64u64).collect(), |x| x * x + batch);
                let expected: Vec<u64> = (0..64).map(|x| x * x + batch).collect();
                assert_eq!(out, expected, "threads={threads} batch={batch}");
                let slots: Vec<Mutex<Option<usize>>> = (0..33).map(|_| Mutex::new(None)).collect();
                pool.for_each(slots.len(), |i| {
                    let mut slot = slots[i].lock().unwrap();
                    assert!(slot.is_none(), "item {i} ran twice");
                    *slot = Some(i * 3);
                });
                for (i, slot) in slots.iter().enumerate() {
                    assert_eq!(*slot.lock().unwrap(), Some(i * 3), "threads={threads}");
                }
            }
        }
    }

    #[test]
    fn pool_propagates_a_panic_and_runs_the_next_batch() {
        let message = |payload: Box<dyn Any + Send>| {
            payload
                .downcast_ref::<String>()
                .cloned()
                .expect("panic! with arguments carries a String")
        };
        let mut serial = Pool::new(1);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            serial.for_each(4, |i| assert!(i != 2, "item {i} failed"));
        }));
        assert_eq!(
            message(caught.expect_err("inline panic lost")),
            "item 2 failed"
        );

        for threads in [2, 4] {
            let mut pool = Pool::new(threads);
            let caller = std::thread::current().id();
            for on_caller in [true, false] {
                // One item per worker: each blocks at the barrier until
                // every worker holds one, so the caller and every helper
                // run exactly one item.
                let barrier = Barrier::new(threads);
                let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                    pool.for_each(threads, |_| {
                        barrier.wait();
                        if (std::thread::current().id() == caller) == on_caller {
                            panic!("{} failed", if on_caller { "caller" } else { "helper" });
                        }
                    });
                }));
                let want = if on_caller {
                    "caller failed"
                } else {
                    "helper failed"
                };
                let payload = caught.expect_err("the batch's panic must reach the caller");
                assert_eq!(message(payload), want, "threads={threads}");
                // The pool survives: its helpers run the next batch in full.
                let out = pool.ordered_map((0..20u32).collect(), |x| x + 1);
                assert_eq!(out, (1..21).collect::<Vec<u32>>(), "threads={threads}");
            }
        }
    }

    #[test]
    fn single_thread_pool_spawns_no_thread() {
        let mut pool = Pool::new(1);
        assert_eq!(Pool::new(0).threads(), 1, "a pool has at least one worker");
        let caller = std::thread::current().id();
        let order = Mutex::new(Vec::new());
        pool.for_each(10, |i| {
            assert_eq!(
                std::thread::current().id(),
                caller,
                "item {i} left the caller"
            );
            order.lock().unwrap().push(i);
        });
        assert_eq!(order.into_inner().unwrap(), (0..10).collect::<Vec<_>>());
        assert!(pool.helpers.is_empty());
    }

    #[test]
    fn dropping_a_pool_joins_every_helper() {
        static EXITED: AtomicUsize = AtomicUsize::new(0);
        /// Counts its thread's exit: thread-local destructors run before
        /// the thread can be joined.
        struct ExitProbe;
        impl Drop for ExitProbe {
            fn drop(&mut self) {
                EXITED.fetch_add(1, Ordering::SeqCst);
            }
        }
        thread_local! {
            static PROBE: ExitProbe = const { ExitProbe };
        }

        let caller = std::thread::current().id();
        let mut pool = Pool::new(4);
        assert_eq!(pool.helpers.len(), 3, "threads − 1 helpers");
        // One item per worker, held at the barrier until all four run one,
        // so every helper touches its probe.
        let barrier = Barrier::new(4);
        pool.for_each(4, |_| {
            if std::thread::current().id() != caller {
                PROBE.with(|_| {});
            }
            barrier.wait();
        });
        drop(pool);
        // Every helper has exited by the time `drop` returns.
        assert_eq!(EXITED.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn par_chunks_mut_writes_every_chunk_once() {
        for threads in [1, 2, 4] {
            let mut data = vec![0u32; 103];
            let calls = AtomicUsize::new(0);
            par_chunks_mut_threads(threads, &mut data, 10, |idx, chunk| {
                calls.fetch_add(1, Ordering::Relaxed);
                for (off, v) in chunk.iter_mut().enumerate() {
                    *v = (idx * 10 + off) as u32;
                }
            });
            assert_eq!(calls.load(Ordering::Relaxed), 11, "threads={threads}");
            let expected: Vec<u32> = (0..103).collect();
            assert_eq!(data, expected, "threads={threads}");
        }
    }

    #[test]
    fn par_chunks_mut_last_chunk_may_be_short() {
        let mut data = vec![0u8; 7];
        par_chunks_mut_threads(4, &mut data, 3, |idx, chunk| {
            for v in chunk.iter_mut() {
                *v = idx as u8 + 1;
            }
        });
        assert_eq!(data, vec![1, 1, 1, 2, 2, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "chunk_len must be positive")]
    fn par_chunks_mut_rejects_zero_chunk() {
        let mut data = [0u8; 4];
        par_chunks_mut_threads(2, &mut data, 0, |_, _| {});
    }

    #[test]
    fn thread_count_is_positive() {
        assert!(thread_count() >= 1);
    }

    #[test]
    fn parse_thread_count_accepts_valid_values() {
        // Unset and blank fall back to the default without complaint.
        assert_eq!(parse_thread_count(None, 8), Ok(8));
        assert_eq!(parse_thread_count(Some(""), 8), Ok(8));
        assert_eq!(parse_thread_count(Some("   "), 8), Ok(8));
        // Positive integers are taken verbatim, whitespace-trimmed.
        assert_eq!(parse_thread_count(Some("1"), 8), Ok(1));
        assert_eq!(parse_thread_count(Some("4"), 8), Ok(4));
        assert_eq!(parse_thread_count(Some(" 16 "), 8), Ok(16));
        assert_eq!(
            parse_thread_count(Some(&usize::MAX.to_string()), 8),
            Ok(usize::MAX)
        );
    }

    #[test]
    fn parse_thread_count_rejects_invalid_values() {
        // Zero workers is meaningless.
        assert!(parse_thread_count(Some("0"), 8).is_err());
        // Negative, fractional, garbage, hex, and overflowing values are
        // all rejected rather than silently misbehaving.
        for bad in ["-1", "1.5", "fast", "0x4", "4threads", "+-2", "١٢"] {
            assert!(
                parse_thread_count(Some(bad), 8).is_err(),
                "{bad:?} must be rejected"
            );
        }
        // One past usize::MAX overflows the parse.
        let overflow = format!("{}0", usize::MAX);
        assert!(parse_thread_count(Some(&overflow), 8).is_err());
    }

    #[test]
    fn parse_thread_count_errors_name_the_variable() {
        // The warning must tell the operator which knob was wrong.
        let err = parse_thread_count(Some("0"), 8).unwrap_err();
        assert!(err.contains("FAIRMOVE_THREADS"), "{err}");
        let err = parse_thread_count(Some("junk"), 8).unwrap_err();
        assert!(
            err.contains("FAIRMOVE_THREADS") && err.contains("junk"),
            "{err}"
        );
    }
}
