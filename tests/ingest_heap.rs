//! The memory gate of the CSV reader: it parses chunks on every core the
//! process may use, with a bounded number in flight, so loading a trace
//! holds little beyond the request vector it returns.
//!
//! This file is its own test binary because `#[global_allocator]` is
//! process-wide, and it holds a single test: the high-water mark counts
//! every thread's bytes, so nothing else may allocate while it measures.

use lhr_repro::trace::io;
use lhr_repro::trace::synth::{IrmConfig, SizeModel};
use lhr_repro::trace::Request;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Tracks the bytes currently allocated, process-wide, and their
/// high-water mark.
struct Tracking;

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

#[global_allocator]
static GLOBAL: Tracking = Tracking;

/// The most bytes `f` had allocated at once, beyond what was allocated
/// when it started.
fn high_water(f: impl FnOnce()) -> usize {
    let base = CURRENT.load(Relaxed);
    PEAK.store(base, Relaxed);
    f();
    PEAK.load(Relaxed) - base
}

#[test]
fn reading_a_csv_trace_holds_at_most_2_mib_beyond_its_requests() {
    // ≈ 5 MB of CSV: twenty-odd 256 KiB chunks, so the reader fans out
    // and recycles its buffers many times over.
    let trace = IrmConfig::new(20_000, 200_000)
        .zipf_alpha(0.9)
        .size_model(SizeModel::BoundedPareto {
            alpha: 1.2,
            min: 10_000,
            max: 100_000_000,
        })
        .seed(7)
        .generate();
    let mut csv = Vec::new();
    io::write_csv(&trace, &mut csv).unwrap();
    let mut read = None;
    let peak = high_water(|| read = Some(io::read_csv(&csv[..], "ingest").unwrap()));
    let read = read.unwrap();
    assert_eq!(read.requests, trace.requests);
    let held = read.requests.capacity() * std::mem::size_of::<Request>();
    let slack = 2 << 20;
    assert!(
        peak <= held + slack,
        "reading peaked at {peak} B for a {held} B request vector"
    );
}
