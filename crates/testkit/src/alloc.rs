//! A global allocator that counts its calls and bytes and tracks the
//! most bytes live at once, for allocation-budget tests.
//!
//! A test binary installs it itself:
//!
//! ```
//! use diablo_testkit::alloc::{measure, Counting};
//!
//! #[global_allocator]
//! static GLOBAL: Counting = Counting;
//!
//! fn main() {
//!     let (v, cost) = measure(|| vec![0u8; 4096]);
//!     assert_eq!(v.len(), 4096);
//!     assert!(cost.calls >= 1 && cost.bytes >= 4096 && cost.peak >= 4096);
//! }
//! ```
//!
//! The counters are process-wide and every thread's allocations land in
//! them, so a budget test is a binary with one `#[test]`: the harness
//! would run two tests on two threads at once.

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

/// The counting allocator: [`System`] plus the counters [`measure`]
/// reads. Without it installed as `#[global_allocator]` every
/// [`Cost`] is zero.
pub struct Counting;

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

/// What a call cost the allocator, on every thread of the process.
#[derive(Debug, Clone, Copy)]
pub struct Cost {
    /// Allocator calls (`alloc`, `alloc_zeroed`, `realloc`).
    pub calls: usize,
    /// Bytes asked for (a `realloc` counts its new size).
    pub bytes: usize,
    /// Most bytes live at once above what was live when it began.
    pub peak: usize,
}

/// Runs `call` and returns its value with what it cost the allocator.
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
