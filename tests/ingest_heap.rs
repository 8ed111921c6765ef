//! The memory gate of the CSV reader: it parses chunks on every core the
//! process may use, with a bounded number in flight, so loading a trace
//! holds little beyond the request vector it returns.
//!
//! This file is its own test binary because `#[global_allocator]` is
//! process-wide, and it holds a single test: the high-water mark counts
//! every thread's bytes, so nothing else may allocate while it measures
//! (`common/heap.rs` has the counting allocator).

use lhr_repro::trace::io;
use lhr_repro::trace::synth::{IrmConfig, SizeModel};
use lhr_repro::trace::Request;

#[path = "common/heap.rs"]
mod heap;

#[global_allocator]
static GLOBAL: heap::Tracking = heap::Tracking;

use heap::high_water;

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
