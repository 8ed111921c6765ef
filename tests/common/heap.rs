//! A counting allocator for the heap gates (`ingest_heap`, `peak_heap`):
//! each of those binaries installs [`Tracking`] as its
//! `#[global_allocator]` and reads the high-water mark through
//! [`high_water`], or [`reset_peak`] and [`peak_above`] when it measures
//! several stretches against one base. The allocator is process-wide, so
//! such a binary holds a single test: the mark counts every thread's
//! bytes, and nothing else may allocate while it measures.

// Each test binary uses a subset of these.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Tracks the bytes currently allocated, process-wide, and their
/// high-water mark.
pub struct Tracking;

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let now = CURRENT.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(now, Relaxed);
}

unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            CURRENT.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        moved
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        CURRENT.fetch_sub(layout.size(), Relaxed);
    }
}

/// Restarts the high-water mark at the bytes allocated now, and returns
/// them.
pub fn reset_peak() -> usize {
    let now = CURRENT.load(Relaxed);
    PEAK.store(now, Relaxed);
    now
}

/// The high-water mark since the last [`reset_peak`], beyond `base`.
pub fn peak_above(base: usize) -> usize {
    PEAK.load(Relaxed) - base
}

/// The most bytes `f` had allocated at once, beyond what was allocated
/// when it started.
pub fn high_water(f: impl FnOnce()) -> usize {
    let base = reset_peak();
    f();
    peak_above(base)
}
