//! A process-wide allocation counter, switched on only around traced work.
//!
//! The sharded engine steps shards on scoped worker threads, so a
//! thread-local counter (the testkit's `CountingAlloc`) would miss every
//! allocation a shard makes. This allocator counts allocation events of all
//! threads in one relaxed atomic, but only while [`set_counting`] has
//! switched counting on: otherwise an allocation costs one relaxed load
//! more than the system allocator's, and untraced runs measure the program,
//! not the counter. The `perfbench` binary installs it as its global
//! allocator; without it, [`allocations`] stays 0.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

fn count() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

/// System-delegating allocator that counts `alloc`, `alloc_zeroed` and
/// `realloc` calls on every thread while counting is on.
pub struct CountingAllocator;

// SAFETY: every method delegates to `System` with the caller's arguments
// unchanged; the counter bump does not touch the memory handed out.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Switches counting on or off for every thread.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocation events counted so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}
