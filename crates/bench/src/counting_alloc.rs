//! A counting global allocator for alloc-per-packet measurements.
//!
//! The zero-allocation claim in `DESIGN.md` §11 is checked empirically:
//! a bench binary installs [`CountingAlloc`] as its `#[global_allocator]`,
//! warms the hot path up (first-touch allocations — port tables, ring
//! buffers, the first tag insertion growing a frame — are expected and
//! excluded), then drives N packets and reads the allocation-count delta.
//! [`allocated_bytes`] counts the bytes those allocations asked for, so a
//! test can bound what building a structure commits.
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: fet_bench::counting_alloc::CountingAlloc =
//!     fet_bench::counting_alloc::CountingAlloc;
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Forwards to the system allocator, counting every allocation and the
/// bytes it requested.
pub struct CountingAlloc;

// SAFETY: pure pass-through to `System`; the counters are side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc that moves is an allocation for our purposes: the hot
        // path must not grow buffers either. Likewise all `new_size` bytes
        // count as requested.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocations observed so far (monotonic; diff two snapshots).
pub fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Bytes requested by allocations so far (monotonic and cumulative: frees
/// are not subtracted; diff two snapshots).
pub fn allocated_bytes() -> u64 {
    BYTES.load(Ordering::Relaxed)
}
