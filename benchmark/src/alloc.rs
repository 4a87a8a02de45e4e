//! A counting global allocator: every allocation made by any thread of the
//! benchmark process (generator and pool workers alike) bumps two relaxed
//! counters, so a piece's allocations are the difference of two snapshots.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// The allocator installed by `lib.rs`; forwards to the system allocator.
pub struct CountingAlloc;

/// Both counters share one cache line, so an allocation touches one line.
#[repr(align(64))]
struct Counters {
    calls: AtomicU64,
    bytes: AtomicU64,
}

static COUNTERS: Counters = Counters {
    calls: AtomicU64::new(0),
    bytes: AtomicU64::new(0),
};

fn count(size: usize) {
    // Statistics only: nothing is published through these counters.
    COUNTERS.calls.fetch_add(1, Ordering::Relaxed);
    COUNTERS.bytes.fetch_add(size as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` obligations are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation calls and bytes requested since the process started.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Calls to `alloc`, `alloc_zeroed` and `realloc`.
    pub calls: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
}

impl AllocSnapshot {
    /// The counters now.
    pub fn now() -> AllocSnapshot {
        AllocSnapshot {
            calls: COUNTERS.calls.load(Ordering::Relaxed),
            bytes: COUNTERS.bytes.load(Ordering::Relaxed),
        }
    }

    /// What was allocated between `earlier` and this snapshot.
    pub fn since(self, earlier: AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            calls: self.calls - earlier.calls,
            bytes: self.bytes - earlier.bytes,
        }
    }
}
