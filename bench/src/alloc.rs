//! A counting wrapper around the system allocator: live heap bytes, their
//! peak, and the number of allocations, for the whole process (the program
//! under test is linked into this binary, so its allocations count too).
//!
//! Resident set size on this box moves by ±25 % from run to run with thread
//! arenas and fragmentation; the peak of *live* bytes is what the code asked
//! for, and repeats. Each thread batches its updates and publishes them
//! every `FLUSH_BYTES`, so the hot path is a thread-local add and the peak
//! is exact to within `FLUSH_BYTES` per thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

const FLUSH_BYTES: i64 = 16 * 1024;

static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Unpublished `(bytes, allocations)` of this thread. `const` and
    /// without a destructor, so touching it never allocates.
    static PENDING: Cell<(i64, u64)> = const { Cell::new((0, 0)) };
}

fn publish(bytes: i64, allocations: u64) {
    // Relaxed: these are statistics; they publish no other data.
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
    ALLOCATIONS.fetch_add(allocations, Ordering::Relaxed);
}

fn note(bytes: i64, allocations: u64) {
    let batched = PENDING.try_with(|pending| {
        let (b, a) = pending.get();
        let (b, a) = (b + bytes, a + allocations);
        if b.abs() >= FLUSH_BYTES {
            pending.set((0, 0));
            publish(b, a);
        } else {
            pending.set((b, a));
        }
    });
    // A thread that is being torn down has no thread-local left.
    if batched.is_err() {
        publish(bytes, allocations);
    }
}

/// The process-wide allocator of the benchmark binary.
pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result unchanged; the bookkeeping around the
// calls touches only atomics and a destructor-free thread-local, and never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64, 1);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64, 1);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as i64), 0);
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as i64 - layout.size() as i64, 1);
        // SAFETY: `ptr` came from this allocator, which is `System`, and
        // the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Highest number of live heap bytes seen so far, in MiB.
pub fn peak_heap_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

/// Allocations made so far (calls to `alloc`, `alloc_zeroed`, `realloc`).
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_large_allocation_moves_the_peak_and_a_free_does_not_lower_it() {
        let before = peak_heap_mb();
        let block = vec![1u8; 64 << 20];
        assert!(block.iter().map(|&b| b as u64).sum::<u64>() > 0);
        let during = peak_heap_mb();
        assert!(during >= before.max(64.0), "peak {during} MiB");
        drop(block);
        assert!(peak_heap_mb() >= during);
        let counted = allocations();
        let many: Vec<Box<[u8; 4096]>> = (0..80).map(|_| Box::new([0; 4096])).collect();
        assert!(allocations() >= counted + 64);
        drop(many);
    }
}
