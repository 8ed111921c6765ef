//! Deterministic chunked parallelism for the training/prediction hot
//! paths: contiguous `split_at_mut` handout over scoped threads, no locks.

/// Resolves a thread-count knob: `0` means "one worker per available
/// core", anything else is taken literally.
pub(crate) fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        lhr_util::sync::cores()
    } else {
        threads
    }
}

/// Cost of one more scoped worker beside the caller — spawn, wake-up and
/// join — measured on the 2-vCPU reference host over 2 000 empty
/// `std::thread::scope`s: 42–58 µs at the median with one worker (35 µs
/// at the tenth percentile), 108–122 µs with three. (An earlier
/// measurement on the same host type gave 13–18 µs; the host varies.) A
/// channel round trip to a thread already running costs 16–20 µs, which is
/// why a fit spawns its growth helpers once and wakes them per level.
const SPAWN_NS: f64 = 45_000.0;

/// Least work a worker must take off the caller to be worth its spawn: four
/// spawn costs, so the spawn is at most a quarter of the work handed over,
/// and still under half of it when a busy host doubles the spawn.
const MIN_SHARE_NS: f64 = 4.0 * SPAWN_NS;

/// Measured cost of one row through one tree of the padded single-row
/// kernel, on LHR-shaped data (23 features, 25 depth-6 trees); it sizes
/// the fan-out of batched scoring.
pub(crate) const KERNEL_ROW_TREE_NS: f64 = 5.0;

/// How many of `threads` workers `work_ns` of divisible work amortises: one
/// per [`MIN_SHARE_NS`]. The estimate is a function of the data's shape
/// alone, and every fan-out in this crate reduces in a fixed order, so
/// results are identical whatever this returns.
pub(crate) fn workers(threads: usize, work_ns: f64) -> usize {
    #[cfg(test)]
    if ALWAYS_FAN_OUT.get() {
        return threads.max(1);
    }
    threads.min((work_ns / MIN_SHARE_NS) as usize).max(1)
}

#[cfg(test)]
thread_local! {
    /// Set by tests that must see every fan-out happen on small inputs:
    /// [`workers`] then grants every thread allowed, whatever the work.
    pub(crate) static ALWAYS_FAN_OUT: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Splits `out` into contiguous chunks and runs `f(start_index, chunk)` for
/// each — on scoped worker threads when `out.len() × item_ns` of work
/// amortises more than one of the `threads` allowed (see [`workers`]).
/// Every element is written independently of the chunking, so the result
/// is identical for any thread count.
pub(crate) fn for_chunks<T: Send>(
    out: &mut [T],
    threads: usize,
    item_ns: f64,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    let n = out.len();
    if n == 0 {
        return;
    }
    let threads = workers(threads.min(n), n as f64 * item_ns);
    if threads == 1 {
        f(0, out);
        return;
    }
    std::thread::scope(|scope| {
        let mut rest = out;
        let mut start = 0usize;
        for t in 0..threads {
            let end = ((t + 1) * n) / threads;
            let (chunk, next) = std::mem::take(&mut rest).split_at_mut(end - start);
            rest = next;
            let f = &f;
            // The caller takes the last chunk itself: one spawn fewer.
            if t + 1 < threads {
                scope.spawn(move || f(start, chunk));
            } else {
                f(start, chunk);
            }
            start = end;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_every_element_once() {
        for threads in [1, 2, 3, 7, 64] {
            let mut out = vec![0usize; 50];
            // An item cost that amortises a worker per element, so every
            // thread count really fans out.
            for_chunks(&mut out, threads, 1e6, |start, chunk| {
                for (k, v) in chunk.iter_mut().enumerate() {
                    *v = start + k + 1;
                }
            });
            let expect: Vec<usize> = (1..=50).collect();
            assert_eq!(out, expect, "threads = {threads}");
        }
    }

    #[test]
    fn empty_output_is_fine() {
        let mut out: Vec<u32> = Vec::new();
        for_chunks(&mut out, 4, 1e6, |_, _| panic!("no chunks expected"));
    }

    #[test]
    fn small_work_stays_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let mut out = vec![0u8; 1_000];
        // 1 000 items × 10 ns = 10 µs: less than one spawn.
        for_chunks(&mut out, 8, 10.0, |start, chunk| {
            assert_eq!(std::thread::current().id(), caller);
            assert_eq!((start, chunk.len()), (0, 1_000));
        });
        assert_eq!(workers(8, MIN_SHARE_NS * 2.5), 2);
        assert_eq!(workers(2, MIN_SHARE_NS * 100.0), 2);
        assert_eq!(workers(0, 0.0), 1);
    }

    #[test]
    fn resolve_is_positive() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }
}
