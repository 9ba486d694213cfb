//! A counting global allocator for the `alloc.*` metrics.
//!
//! Every allocation in the process is counted, the server's loop
//! thread's and the client thread's alike, since both run in this one
//! process. Frees are not counted: the metrics are allocations and
//! bytes asked for per operation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Delegates to [`System`] and counts each allocation and its size.
pub struct Counting;

fn count(bytes: usize) {
    // Relaxed: the counters are statistics and publish no other data.
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: each method forwards its arguments unchanged to the same
// method of `System`, so the layout, pointer and size requirements the
// caller upholds for `GlobalAlloc` are exactly those `System` needs,
// and every pointer returned comes from `System`. The counting touches
// only two static atomics, never the memory handed out, and cannot
// allocate or unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Allocations and bytes requested since the process started.
pub fn totals() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}
