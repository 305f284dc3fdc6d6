//! A counting global allocator with an on/off switch.
//!
//! Switched off — the state of every untraced run — an allocation costs one
//! relaxed load on top of the system allocator. The traced run switches it
//! on for the measured slices, which gives exact allocation and byte counts
//! per fetch.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Forwards to the system allocator, counting while [`set_counting`] is on.
pub struct CountingAlloc;

// Statistics only: no other data is published through these, so every
// access is `Relaxed`.
static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

#[inline]
fn note(size: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the returned
// memory or the layout.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's layout obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's layout obligations pass through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growth is new memory requested; count it as one allocation of
        // the new size, as a fresh `alloc` + copy would be.
        note(new_size);
        // SAFETY: `ptr` came from `System` with this layout (see `alloc`).
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Turns counting on or off; the totals keep their values either way.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// `(allocations, bytes requested)` counted so far.
pub fn counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test, so nothing else flips the global switch while it runs;
    // other test threads allocate concurrently, hence `>=` while on. Off
    // is exact: no thread can count.
    #[test]
    fn counts_only_while_switched_on() {
        set_counting(false);
        let before = counts();
        drop(std::hint::black_box(vec![0u8; 4096]));
        assert_eq!(counts(), before, "counted while switched off");

        set_counting(true);
        drop(std::hint::black_box(vec![0u8; 4096]));
        set_counting(false);
        let (allocs, bytes) = counts();
        assert!(allocs > before.0, "allocation not counted");
        assert!(bytes >= before.1 + 4096, "bytes not counted");

        let after = counts();
        drop(std::hint::black_box(vec![0u8; 4096]));
        assert_eq!(counts(), after, "counted after switching off again");
    }
}
