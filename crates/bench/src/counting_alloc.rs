//! A counting global allocator for alloc-per-packet and held-bytes
//! measurements.
//!
//! The zero-allocation claim in `DESIGN.md` §11 is checked empirically:
//! a bench binary installs [`CountingAlloc`] as its `#[global_allocator]`,
//! warms the hot path up (first-touch allocations — port tables, ring
//! buffers — are expected and excluded), then drives N packets and reads
//! the allocation-count delta. [`allocated_bytes`] counts the bytes those
//! allocations asked for, so a test can bound what building a structure
//! commits. [`live_bytes`] subtracts frees as well, so a test can bound
//! what a structure *holds*; [`peak_live_bytes`] is its high-water mark
//! since the last [`reset_peak`].
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
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grow(by: usize) {
    let live = LIVE.fetch_add(by as u64, Ordering::Relaxed) + by as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(by: usize) {
    LIVE.fetch_sub(by as u64, Ordering::Relaxed);
}

/// Forwards to the system allocator, counting every allocation, the
/// bytes it requested, and the bytes held between allocation and free.
pub struct CountingAlloc;

// SAFETY: pure pass-through to `System`; the counters are side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc that moves is an allocation for our purposes: the hot
        // path must not grow buffers either. Likewise all `new_size` bytes
        // count as requested.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        let new = System.realloc(ptr, layout, new_size);
        // On failure the old block stays allocated at its old size.
        if !new.is_null() {
            if new_size > layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        new
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

/// Bytes currently allocated and not yet freed, process-wide.
pub fn live_bytes() -> u64 {
    LIVE.load(Ordering::Relaxed)
}

/// Highest [`live_bytes`] seen since the process started or the last
/// [`reset_peak`].
pub fn peak_live_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed)
}

/// Restart the peak from the current [`live_bytes`].
pub fn reset_peak() {
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}
