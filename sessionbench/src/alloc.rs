//! A counting global allocator, so allocations per frame are measured
//! around the public entry points instead of asserted by inspection.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Heap allocations (`alloc` + `realloc`) since process start, on every
/// thread. A statistic only: `Relaxed` publishes nothing else.
pub fn allocation_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// System-allocator wrapper that counts every allocation.
pub struct CountingAllocator;

// SAFETY: every operation is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter never affects a pointer or layout.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: `unsafe fn` per the trait; the caller's contract is forwarded
    // unchanged to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `alloc` obligations are forwarded to `System`.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: `unsafe fn` per the trait; contract forwarded to `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc`/`realloc` above, i.e. from `System`,
        // with this layout (caller obligation, forwarded unchanged).
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: `unsafe fn` per the trait; contract forwarded to `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` is a live `System` allocation of `layout`; the
        // caller guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
