//! A counting global allocator for zero-allocation assertions.
//!
//! [`CountingAlloc`] delegates every request to [`System`] and bumps two
//! counters on each `alloc` / `alloc_zeroed` / `realloc`: one thread-local,
//! one process-wide.
//!
//! * The thread-local count ([`allocs_in`]) is what zero-alloc tests use:
//!   the libtest harness runs tests concurrently on separate threads, and
//!   per-thread counts keep one test's allocations from polluting another's
//!   measurement window. The flip side is that allocations made on worker
//!   threads (e.g. the parallel matmul above `PAR_MIN_FLOPS`, or the
//!   sharded engine's pool helpers) are invisible to the measuring thread —
//!   zero-alloc tests therefore keep their work on the calling thread.
//! * The process-wide count ([`allocs_in_process`]) sees every thread. A
//!   bench that owns its whole process uses it, so a multi-threaded run
//!   reports what the program allocates, not what one thread does.
//!
//! The allocator type lives in the library, but the `#[global_allocator]`
//! static must be declared by the binary that wants counting — typically an
//! integration-test file:
//!
//! ```ignore
//! use fairmove_testkit::counting_alloc::{allocs_in, CountingAlloc};
//!
//! #[global_allocator]
//! static ALLOC: CountingAlloc = CountingAlloc;
//!
//! let (n, _) = allocs_in(|| env.step_slot(&mut policy));
//! assert_eq!(n, 0);
//! ```
//!
//! Without that static installed, [`thread_allocations`] stays at zero and
//! [`allocs_in`] reports `0` for everything — harmless, but meaningless, so
//! zero-alloc assertions belong only in binaries that install the allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Allocation events on every thread of the process.
static PROCESS_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// System-delegating allocator that counts allocation events per thread and
/// per process. Deallocations are not counted: a steady-state loop that
/// frees memory it never allocated is already impossible, and counting frees
/// would double-charge every transient.
pub struct CountingAlloc;

#[inline]
fn bump() {
    PROCESS_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    // `try_with` so allocations during thread teardown (after the TLS slot
    // is destroyed) silently skip counting instead of aborting.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: pure delegation to `System`; the counter bump has no effect on the
// returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Total allocation events observed on the current thread so far. Always `0`
/// unless [`CountingAlloc`] is installed as the `#[global_allocator]`.
#[inline]
pub fn thread_allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Runs `f` and returns `(allocation events on this thread during f, f())`.
///
/// The count includes allocations made by `f`'s temporaries even if they are
/// freed before it returns — this measures allocator traffic, not net memory
/// growth, which is exactly what a zero-steady-state-alloc test wants.
pub fn allocs_in<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = thread_allocations();
    let out = f();
    (thread_allocations() - before, out)
}

/// Runs `f` and returns `(allocation events on any thread during f, f())`.
///
/// Unlike [`allocs_in`] this counts the work `f` hands to other threads,
/// and also whatever unrelated threads allocate meanwhile, so it belongs in
/// binaries that own their process (benches), not in concurrent tests.
pub fn allocs_in_process<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = PROCESS_ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (PROCESS_ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The unit-test binary does NOT install CountingAlloc, so the counter
    // must stay flat no matter what allocates. (The live-counting behavior
    // is exercised by the `alloc` integration test, which does install it.)
    #[test]
    fn without_installation_counts_stay_zero() {
        let (n, v) = allocs_in(|| vec![1u8; 4096]);
        assert_eq!(n, 0);
        assert_eq!(v.len(), 4096);
        let (n, v) = allocs_in_process(|| vec![1u8; 4096]);
        assert_eq!(n, 0);
        assert_eq!(v.len(), 4096);
    }

    #[test]
    fn allocs_in_returns_closure_output() {
        let (_, out) = allocs_in(|| 7 * 6);
        assert_eq!(out, 42);
    }
}
