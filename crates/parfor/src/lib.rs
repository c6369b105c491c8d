#![warn(missing_docs)]

//! `omp-parfor` — a from-scratch OpenMP-style fork-join runtime.
//!
//! This crate is the *OmpThread* baseline of the ICPP'17 evaluation: plain
//! multi-threaded `#pragma omp parallel for` executed on the local machine.
//! It implements the three classic OpenMP loop schedules over a worksharing
//! construct built directly on OS threads:
//!
//! * [`Schedule::Static`] — iterations pre-partitioned into contiguous
//!   blocks (optionally round-robin chunks), zero runtime coordination;
//! * [`Schedule::Dynamic`] — threads grab fixed-size chunks from a shared
//!   atomic counter, good for irregular iteration costs;
//! * [`Schedule::Guided`] — exponentially shrinking chunks, a compromise
//!   between the two.
//!
//! Reductions follow OpenMP semantics: one private accumulator per thread,
//! combined with the reduction operator after the join.
//!
//! ```
//! use omp_parfor::{parallel_reduce, Schedule};
//! let n = 10_000u64;
//! let sum = parallel_reduce(4, n as usize, Schedule::default(), 0u64,
//!     |i| i as u64, |a, b| a + b);
//! assert_eq!(sum, n * (n - 1) / 2);
//! ```

mod pool;
mod schedule;

pub use pool::ThreadPool;
pub use schedule::Schedule;

use schedule::ChunkSource;

/// Run `body(i)` for every `i in 0..n` across `threads` OS threads using
/// the fork-join model: the calling thread blocks until all iterations are
/// done (the implicit barrier at the end of an OpenMP `parallel for`).
///
/// `body` receives the iteration index. Iterations must be independent
/// (DOALL): the schedule decides ordering and placement.
pub fn parallel_for<F>(threads: usize, n: usize, schedule: Schedule, body: F)
where
    F: Fn(usize) + Sync,
{
    parallel_for_chunks(threads, n, schedule, |range| {
        for i in range {
            body(i);
        }
    });
}

/// Like [`parallel_for`], but hands each thread whole chunks
/// (`Range<usize>`) so the body can amortize per-chunk setup — the same
/// reason the paper tiles loops to the cluster size (its Algorithm 1).
pub fn parallel_for_chunks<F>(threads: usize, n: usize, schedule: Schedule, body: F)
where
    F: Fn(std::ops::Range<usize>) + Sync,
{
    if n == 0 {
        return;
    }
    let threads = threads.max(1);
    if threads == 1 {
        body(0..n);
        return;
    }
    let source = ChunkSource::new(n, threads, schedule);
    std::thread::scope(|scope| {
        for tid in 0..threads {
            let source = &source;
            let body = &body;
            scope.spawn(move || {
                while let Some(range) = source.next_chunk(tid) {
                    body(range);
                }
            });
        }
    });
}

/// OpenMP-style reduction: each thread accumulates into a private value
/// seeded with `identity`, and the per-thread values are folded with
/// `combine` after the implicit barrier.
///
/// `combine` must be associative and `identity` its neutral element;
/// ordering across threads is unspecified (like OpenMP reductions).
pub fn parallel_reduce<T, M, C>(
    threads: usize,
    n: usize,
    schedule: Schedule,
    identity: T,
    map: M,
    combine: C,
) -> T
where
    T: Clone + Send,
    M: Fn(usize) -> T + Sync,
    C: Fn(T, T) -> T + Sync + Send,
{
    if n == 0 {
        return identity;
    }
    let threads = threads.max(1);
    if threads == 1 {
        let mut acc = identity;
        for i in 0..n {
            acc = combine(acc, map(i));
        }
        return acc;
    }
    let source = ChunkSource::new(n, threads, schedule);
    let mut partials: Vec<Option<T>> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for tid in 0..threads {
            let source = &source;
            let map = &map;
            let combine = &combine;
            let seed = identity.clone();
            handles.push(scope.spawn(move || {
                let mut acc = seed;
                while let Some(range) = source.next_chunk(tid) {
                    for i in range {
                        acc = combine(acc, map(i));
                    }
                }
                acc
            }));
        }
        partials = handles
            .into_iter()
            .map(|h| Some(h.join().expect("worker panicked")))
            .collect();
    });
    partials.into_iter().flatten().fold(identity, combine)
}

/// Split `0..n` into at most `parts` contiguous near-equal ranges
/// (difference of at most one element), in order. Used by the static
/// schedule and re-exported for anyone chunking work by hand.
pub fn split_even(n: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    let parts = parts.max(1);
    if n == 0 {
        return Vec::new();
    }
    let parts = parts.min(n);
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        out.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start, n);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn all_schedules() -> Vec<Schedule> {
        vec![
            Schedule::Static { chunk: None },
            Schedule::Static { chunk: Some(3) },
            Schedule::Dynamic { chunk: 1 },
            Schedule::Dynamic { chunk: 7 },
            Schedule::Guided { min_chunk: 1 },
            Schedule::Guided { min_chunk: 4 },
        ]
    }

    #[test]
    fn every_iteration_runs_exactly_once() {
        for sched in all_schedules() {
            for n in [0usize, 1, 2, 7, 64, 1000] {
                for threads in [1usize, 2, 4, 9] {
                    let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                    parallel_for(threads, n, sched, |i| {
                        hits[i].fetch_add(1, Ordering::Relaxed);
                    });
                    for (i, h) in hits.iter().enumerate() {
                        assert_eq!(
                            h.load(Ordering::Relaxed),
                            1,
                            "i={i} n={n} threads={threads} {sched:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn chunks_cover_range_without_overlap() {
        for sched in all_schedules() {
            let n = 512;
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            parallel_for_chunks(5, n, sched, |range| {
                for i in range {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "{sched:?}"
            );
        }
    }

    #[test]
    fn reduce_sum_matches_closed_form() {
        for sched in all_schedules() {
            let n = 4321usize;
            let sum = parallel_reduce(4, n, sched, 0u64, |i| i as u64, |a, b| a + b);
            assert_eq!(sum, (n as u64 * (n as u64 - 1)) / 2, "{sched:?}");
        }
    }

    #[test]
    fn reduce_max() {
        let v: Vec<i64> = (0..999)
            .map(|i| ((i * 7919) % 4831) as i64 - 2000)
            .collect();
        let got = parallel_reduce(
            8,
            v.len(),
            Schedule::Dynamic { chunk: 13 },
            i64::MIN,
            |i| v[i],
            i64::max,
        );
        assert_eq!(got, *v.iter().max().unwrap());
    }

    #[test]
    fn reduce_empty_returns_identity() {
        let got = parallel_reduce(4, 0, Schedule::default(), 42u32, |_| 0, |a, b| a + b);
        assert_eq!(got, 42);
    }

    #[test]
    fn more_threads_than_iterations() {
        let hits: Vec<AtomicUsize> = (0..3).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(64, 3, Schedule::default(), |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn split_even_properties() {
        for n in [0usize, 1, 5, 16, 17, 100] {
            for parts in [1usize, 2, 3, 16, 50] {
                let ranges = split_even(n, parts);
                let total: usize = ranges.iter().map(|r| r.len()).sum();
                assert_eq!(total, n);
                let mut expect = 0;
                for r in &ranges {
                    assert_eq!(r.start, expect, "contiguous");
                    assert!(!r.is_empty(), "no empty ranges");
                    expect = r.end;
                }
                if !ranges.is_empty() {
                    let min = ranges.iter().map(|r| r.len()).min().unwrap();
                    let max = ranges.iter().map(|r| r.len()).max().unwrap();
                    assert!(max - min <= 1, "balanced: n={n} parts={parts}");
                }
            }
        }
    }

    #[test]
    fn parallel_writes_to_disjoint_slices() {
        // The DOALL pattern the offloading runtime relies on.
        let n = 1024;
        let mut data = vec![0u32; n];
        let ptr = data.as_mut_slice();
        // Split via chunks_mut to prove disjointness to the borrow checker.
        let cells: Vec<_> = ptr.chunks_mut(1).collect();
        let cells: Vec<std::sync::Mutex<&mut [u32]>> =
            cells.into_iter().map(std::sync::Mutex::new).collect();
        parallel_for(4, n, Schedule::Dynamic { chunk: 32 }, |i| {
            let mut cell = cells[i].lock().unwrap();
            cell[0] = (i * i) as u32;
        });
        drop(cells);
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, (i * i) as u32);
        }
    }
}
