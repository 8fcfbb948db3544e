//! A counting wrapper around the system allocator.
//!
//! Backs `peak_heap_mb` and the `alloc.*` layer metrics. Counting costs
//! three to five atomic read-modify-writes per allocation — 18% of an
//! `exec_gaming` iteration when it was always on — so it is switched
//! on only around iterations that are not timed ([`start`]/[`stop`]);
//! a timed iteration pays one relaxed load per call.
//!
//! Every counter is a statistic that publishes no other data, so all
//! accesses are `Relaxed`; [`start`] and [`stop`] are called between
//! iterations, when no other thread of the benchmark is running.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicU64, Ordering::Relaxed};

static COUNTING: AtomicBool = AtomicBool::new(false);
/// Bytes allocated minus bytes freed since [`start`]. Signed: memory
/// from before the window may be freed inside it.
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The allocator the benchmark binary installs.
pub struct Counting;

fn grew(bytes: usize) {
    if COUNTING.load(Relaxed) {
        CALLS.fetch_add(1, Relaxed);
        BYTES.fetch_add(bytes as u64, Relaxed);
        let live = LIVE.fetch_add(bytes as isize, Relaxed) + bytes as isize;
        PEAK.fetch_max(live, Relaxed);
    }
}

fn shrank(bytes: usize) {
    if COUNTING.load(Relaxed) {
        LIVE.fetch_sub(bytes as isize, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters never touch
// the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract is passed through unchanged.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract is passed through unchanged.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract is passed through unchanged.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's contract is passed through unchanged.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            shrank(layout.size());
            grew(new_size);
        }
        p
    }
}

/// What the allocator saw between [`start`] and [`stop`].
#[derive(Debug, Clone, Copy)]
pub struct HeapStats {
    /// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`).
    pub calls: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
    /// Highest number of bytes live above the level at [`start`].
    pub peak: usize,
}

/// Opens a counting window: all counters restart from zero.
pub fn start() {
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    CALLS.store(0, Relaxed);
    BYTES.store(0, Relaxed);
    COUNTING.store(true, Relaxed);
}

/// Closes the counting window and reads its counters.
pub fn stop() -> HeapStats {
    COUNTING.store(false, Relaxed);
    HeapStats {
        calls: CALLS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        peak: PEAK.load(Relaxed).max(0) as usize,
    }
}
