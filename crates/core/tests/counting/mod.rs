//! A global allocator that counts its calls and tracks the most bytes
//! live at once, shared by the allocation-budget tests. Each is a
//! binary with one `#[test]`: the counters are process-wide, and the
//! harness would run two tests on two threads at once.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

// Statistics that publish no other data, hence `Relaxed`.
/// Allocator calls (`alloc`, `alloc_zeroed`, `realloc`) so far.
static CALLS: AtomicUsize = AtomicUsize::new(0);
/// Bytes asked for so far (a `realloc` counts its new size).
static BYTES: AtomicUsize = AtomicUsize::new(0);
/// Bytes live now, and the most that were since [`measure`] reset it.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    CALLS.fetch_add(1, Relaxed);
    BYTES.fetch_add(bytes, Relaxed);
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters never touch
// the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's contract is passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's contract is passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        // SAFETY: the caller's contract is passed through unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size(), Relaxed);
        grew(new_size);
        // SAFETY: the caller's contract is passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What a call cost the allocator, on every thread of the process.
pub struct Cost {
    pub calls: usize,
    pub bytes: usize,
    /// Most bytes live at once above what was live when it began.
    pub peak: usize,
}

pub fn measure<T>(call: impl FnOnce() -> T) -> (T, Cost) {
    let (calls, bytes, live) = (CALLS.load(Relaxed), BYTES.load(Relaxed), LIVE.load(Relaxed));
    PEAK.store(live, Relaxed);
    let value = call();
    let cost = Cost {
        calls: CALLS.load(Relaxed) - calls,
        bytes: BYTES.load(Relaxed) - bytes,
        peak: PEAK.load(Relaxed) - live,
    };
    (value, cost)
}
