//! OpenMP-style fork-join parallel loops on the persistent worker pool.
//!
//! Ringo parallelizes its critical loops with a handful of OpenMP pragmas.
//! Here every such region is one fork-join loop on [`crate::pool::Pool`],
//! a long-lived worker team created once per process: `0..len` is cut
//! into pieces, the workers and the calling thread claim pieces from the
//! pool's shared counter, and the call returns once every piece has run.
//! A region inside a table operator or a PageRank iteration therefore
//! costs a condvar wake, not `threads` OS thread creations, and closures
//! may borrow from the caller's stack like an OpenMP parallel region.
//!
//! Regions differ only in how `0..len` is cut, which the caller picks
//! with a [`Grain`]:
//!
//! * [`Grain::PerThread`] — one contiguous chunk per worker
//!   ([`chunk_bounds`]), OpenMP's `schedule(static)`;
//! * [`Grain::Morsel`] — fixed-size morsels ([`morsel_bounds`]) whose
//!   boundaries do not depend on the thread count, so per-piece results
//!   (and float sums folded from them in piece order) are bit-identical
//!   at every thread count, and a slow morsel does not hold up the rest;
//! * [`Grain::Item`] — one piece per index, for a few heterogeneous items
//!   (skewed radix buckets) that a contiguous split would serialize.
//!
//! [`parallel_for`] and [`parallel_map`] take the grain as an argument.
//! [`parallel_map_timed`] runs morsels and also times every piece,
//! optionally wraps it in a trace span, and reports [`MorselStats`];
//! [`parallel_for_each_chunk_mut`] hands each worker its chunk of a
//! mutable slice. Only the timed entry point adds anything per piece
//! beyond the body. All four run through one private dispatcher, which
//! runs the pieces inline and in order when `threads <= 1` or there is a
//! single piece.
//!
//! All entry points take an explicit thread count so benchmarks can sweep
//! it; [`num_threads`] supplies a default honoring the `RINGO_THREADS`
//! environment variable.

use crate::pool::Pool;
use std::mem::MaybeUninit;
use std::ops::Range;

/// Default worker count: `RINGO_THREADS` if set and positive, otherwise the
/// machine's available parallelism.
///
/// An unparsable or zero `RINGO_THREADS` is ignored, falling back to
/// available parallelism, and a warning is printed to stderr the first
/// time that happens so typos do not silently serialize (or oversubscribe)
/// a session.
pub fn num_threads() -> usize {
    if let Ok(v) = std::env::var("RINGO_THREADS") {
        match v.parse::<usize>() {
            Ok(n) if n > 0 => return n,
            _ => {
                static WARN_ONCE: std::sync::Once = std::sync::Once::new();
                WARN_ONCE.call_once(|| {
                    eprintln!(
                        "ringo: ignoring invalid RINGO_THREADS={v:?} \
                         (expected a positive integer); using available \
                         parallelism"
                    );
                });
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Splits `len` items into at most `threads` contiguous chunks of nearly
/// equal size (the first `len % threads` chunks are one longer). Returns
/// the chunk boundaries; consecutive boundaries delimit one chunk. No
/// chunk is empty, except that `len == 0` gives the one empty chunk
/// `[0, 0]`.
pub fn chunk_bounds(len: usize, threads: usize) -> Vec<usize> {
    let threads = threads.max(1).min(len.max(1));
    let base = len / threads;
    let extra = len % threads;
    let mut bounds = Vec::with_capacity(threads + 1);
    let mut pos = 0;
    bounds.push(0);
    for t in 0..threads {
        pos += base + usize::from(t < extra);
        bounds.push(pos);
    }
    bounds
}

/// Default rows per morsel for morsel-driven operators: small enough that
/// a worst-case `u32` hit list per morsel (256KB) stays cache-resident,
/// large enough that claiming a morsel from the pool's shared counter is
/// noise next to scanning it.
pub const DEFAULT_MORSEL_ROWS: usize = 65_536;

/// Rows per morsel: `RINGO_MORSEL_ROWS` if set and positive, otherwise
/// [`DEFAULT_MORSEL_ROWS`]. Parsed once; an invalid value warns to stderr
/// (same policy as `RINGO_THREADS`).
pub fn morsel_rows() -> usize {
    static CACHED: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CACHED.get_or_init(|| {
        if let Ok(v) = std::env::var("RINGO_MORSEL_ROWS") {
            match v.parse::<usize>() {
                Ok(n) if n > 0 => return n,
                _ => eprintln!(
                    "ringo: ignoring invalid RINGO_MORSEL_ROWS={v:?} \
                     (expected a positive integer); using {DEFAULT_MORSEL_ROWS}"
                ),
            }
        }
        DEFAULT_MORSEL_ROWS
    })
}

/// Splits `0..len` into fixed-size morsels of [`morsel_rows`] rows (the
/// last morsel may be short; `len == 0` gives one empty morsel). Returns
/// morsel boundaries like [`chunk_bounds`], but the partition depends
/// only on `len` — **never** on the thread count.
pub fn morsel_bounds(len: usize) -> Vec<usize> {
    let m = morsel_rows();
    let n = len.div_ceil(m).max(1);
    let mut bounds = Vec::with_capacity(n + 1);
    for i in 0..n {
        bounds.push(i * m);
    }
    bounds.push(len);
    bounds
}

/// How a parallel region cuts `0..len` into pieces (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Grain {
    /// One contiguous chunk per worker: [`chunk_bounds`].
    PerThread,
    /// Fixed-size morsels, independent of the thread count: [`morsel_bounds`].
    Morsel,
    /// One piece per index (`len == 0` gives no pieces).
    Item,
}

impl Grain {
    /// Piece boundaries of `0..len`; consecutive entries delimit a piece.
    fn bounds(self, len: usize, threads: usize) -> Vec<usize> {
        match self {
            Grain::PerThread => chunk_bounds(len, threads),
            Grain::Morsel => morsel_bounds(len),
            Grain::Item => (0..=len).collect(),
        }
    }
}

/// The one parallel loop: runs `body(p, bounds[p]..bounds[p + 1])` for
/// every piece `p` and returns the results in piece order. With
/// `threads <= 1` or a single piece the pieces run inline, in order, and
/// the pool sees no job; otherwise they are claimed from the pool.
fn dispatch<T, F>(bounds: &[usize], threads: usize, body: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, Range<usize>) -> T + Sync,
{
    let pieces = bounds.len() - 1;
    let piece = |p: usize| body(p, bounds[p]..bounds[p + 1]);
    if threads <= 1 || pieces <= 1 {
        return (0..pieces).map(piece).collect();
    }
    // Uninitialized slots: for `T = ()` (every `parallel_for`) they take
    // no memory, so pieces neither allocate nor write a shared cache line.
    let mut slots: Vec<MaybeUninit<T>> = (0..pieces).map(|_| MaybeUninit::uninit()).collect();
    let cell = DisjointSlice::new(&mut slots);
    Pool::global().run(pieces, &|p| {
        let result = piece(p);
        // SAFETY: piece `p` exclusively owns slot `p`; the vector outlives
        // the blocking `run`.
        unsafe { cell.write(p, MaybeUninit::new(result)) };
    });
    slots
        .into_iter()
        // SAFETY: `run` returned normally, so every piece ran and filled
        // its slot (a panicking piece unwinds out of `run`, leaking the
        // filled slots instead).
        .map(|s| unsafe { s.assume_init() })
        .collect()
}

/// Runs `body(piece_index, index_range)` over `0..len` cut by `grain`.
/// `Grain::PerThread` is `#pragma omp parallel for schedule(static)`.
///
/// ```
/// use ringo_concurrent::{parallel_for, parallel_map, Grain};
/// use std::sync::atomic::{AtomicU64, Ordering};
///
/// let data: Vec<u64> = (0..10_000).collect();
/// let sum = AtomicU64::new(0);
/// parallel_for(data.len(), 4, Grain::PerThread, |_chunk, range| {
///     let local: u64 = range.map(|i| data[i]).sum();
///     sum.fetch_add(local, Ordering::Relaxed);
/// });
/// assert_eq!(sum.into_inner(), 10_000 * 9_999 / 2);
///
/// // Or without shared state: partial sums in piece order.
/// let parts = parallel_map(data.len(), 4, Grain::Morsel, |_, range| {
///     range.map(|i| data[i]).sum::<u64>()
/// });
/// assert_eq!(parts.iter().sum::<u64>(), 10_000 * 9_999 / 2);
/// ```
pub fn parallel_for<F>(len: usize, threads: usize, grain: Grain, body: F)
where
    F: Fn(usize, Range<usize>) + Sync,
{
    dispatch(&grain.bounds(len, threads), threads, body);
}

/// Runs `body(piece_index, index_range)` per piece and collects one
/// result per piece, in piece order: the "each piece produces a partial
/// result, the caller combines them" pattern (histograms, partial sums,
/// partial output buffers).
pub fn parallel_map<T, F>(len: usize, threads: usize, grain: Grain, body: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, Range<usize>) -> T + Sync,
{
    dispatch(&grain.bounds(len, threads), threads, body)
}

/// How a morsel-driven dispatch actually ran: how many morsels the index
/// space split into, how many distinct threads executed at least one of
/// them (the *effective* worker count — what the plan executor surfaces
/// per node), and how the busy time divided between those threads (the
/// per-worker busy share `QueryBuilder::profile` renders).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MorselStats {
    /// Morsels dispatched (≥ 1 for any non-degenerate input).
    pub morsels: u32,
    /// Distinct threads that executed at least one morsel.
    pub workers: u32,
    /// Nanoseconds spent inside morsel bodies per distinct executing
    /// thread, sorted descending (one entry per worker counted in
    /// `workers`). The spread exposes skew: a balanced dispatch has
    /// near-equal entries, a skewed one is dominated by the first.
    pub busy_ns: Vec<u64>,
}

/// [`parallel_map`] over [`Grain::Morsel`] that also reports how the
/// region ran: the morsel-driven operators' entry point. Every morsel is
/// timed and, with `span = Some(name)`, runs inside a flight-recorder
/// span `name` (rows-in = morsel length), recorded into the executing
/// thread's event buffer: on the dispatching thread the spans nest under
/// the caller's open operator span, on pool workers they are that
/// thread's top-level slices, which is how the Chrome export rebuilds
/// per-worker timelines.
pub fn parallel_map_timed<T, F>(
    span: Option<&'static str>,
    len: usize,
    threads: usize,
    body: F,
) -> (Vec<T>, MorselStats)
where
    T: Send,
    F: Fn(usize, Range<usize>) -> T + Sync,
{
    let timed = parallel_map(len, threads, Grain::Morsel, |p, range| {
        let started = std::time::Instant::now();
        let out = match span {
            Some(name) => {
                let mut sp = ringo_trace::Span::enter(name);
                sp.rows_in(range.len());
                body(p, range)
            }
            None => body(p, range),
        };
        let ns = started.elapsed().as_nanos() as u64;
        (out, std::thread::current().id(), ns)
    });
    let morsels = timed.len() as u32;
    let mut per_thread: Vec<(std::thread::ThreadId, u64)> = Vec::new();
    let mut out = Vec::with_capacity(timed.len());
    for (value, id, ns) in timed {
        match per_thread.iter_mut().find(|(t, _)| *t == id) {
            Some((_, busy)) => *busy += ns,
            None => per_thread.push((id, ns)),
        }
        out.push(value);
    }
    let mut busy_ns: Vec<u64> = per_thread.into_iter().map(|(_, ns)| ns).collect();
    busy_ns.sort_unstable_by(|a, b| b.cmp(a));
    let workers = busy_ns.len() as u32;
    let stats = MorselStats {
        morsels,
        workers,
        busy_ns,
    };
    (out, stats)
}

/// Applies `body(chunk_index, chunk_start, chunk)` to the disjoint
/// mutable [`Grain::PerThread`] chunks of `data`: the write-side
/// counterpart of [`parallel_for`]. Chunks share nothing, so no locking
/// is needed — the pattern Ringo uses wherever each worker owns a
/// pre-assigned partition of an output array.
pub fn parallel_for_each_chunk_mut<T, F>(data: &mut [T], threads: usize, body: F)
where
    T: Send,
    F: Fn(usize, usize, &mut [T]) + Sync,
{
    let len = data.len();
    let cell = DisjointSlice::new(data);
    parallel_for(len, threads, Grain::PerThread, |t, range| {
        // SAFETY: chunks are pairwise disjoint in-bounds windows, and
        // `data` stays borrowed until the region returns.
        let chunk = unsafe { cell.slice_mut(range.start, range.end) };
        body(t, range.start, chunk);
    });
}

/// Shared mutable slice handed to workers that provably touch disjoint
/// index windows. This is the one aliasing escape hatch of the parallel
/// runtime: the unsafe surface is confined to [`DisjointSlice::slice_mut`]
/// and [`DisjointSlice::write`], whose callers must guarantee that no index
/// is written concurrently from two workers. Used by the dispatcher (one
/// result slot per piece), [`parallel_for_each_chunk_mut`], the radix
/// sorter (scatter cursors partition the output), and the conversion fill
/// phase (disjoint slab ranges per node).
pub struct DisjointSlice<T> {
    ptr: *mut T,
    len: usize,
}

// SAFETY: shared access only hands out pairwise-disjoint windows (the
// caller contract of `slice_mut`/`write`), so no two threads alias.
unsafe impl<T: Send> Sync for DisjointSlice<T> {}

impl<T> DisjointSlice<T> {
    /// Wraps `slice` for disjoint concurrent writes. The wrapper holds a
    /// raw pointer, so the caller must keep the underlying storage alive
    /// and un-moved for as long as the cell is used.
    pub fn new(slice: &mut [T]) -> Self {
        Self {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
        }
    }

    /// # Safety
    /// Callers must ensure `[lo, hi)` windows obtained concurrently are
    /// pairwise disjoint and within bounds. The `&self` receiver is what
    /// lets workers share the cell; disjointness is the aliasing argument.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice_mut(&self, lo: usize, hi: usize) -> &mut [T] {
        debug_assert!(lo <= hi && hi <= self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(lo), hi - lo)
    }

    /// Writes one element.
    ///
    /// # Safety
    /// `i` must be in bounds and written by at most one worker for the
    /// lifetime of the concurrent region.
    #[inline(always)]
    pub unsafe fn write(&self, i: usize, value: T) {
        debug_assert!(i < self.len);
        self.ptr.add(i).write(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::pool_stats;
    use std::sync::atomic::{AtomicU8, Ordering};

    const GRAINS: [Grain; 3] = [Grain::PerThread, Grain::Morsel, Grain::Item];
    const LENS: [usize; 7] = [0, 1, 2, 65_535, 65_536, 65_537, 200_003];
    const THREADS: [usize; 4] = [1, 2, 3, 8];

    /// `chunk_bounds(len, threads)` over the test grid, pinned as literals.
    fn pinned_chunk_bounds(len: usize, threads: usize) -> Vec<usize> {
        match (len, threads) {
            (0, _) => vec![0, 0],
            (1, _) => vec![0, 1],
            (len, 1) => vec![0, len],
            (2, _) => vec![0, 1, 2],
            (65535, 2) => vec![0, 32768, 65535],
            (65535, 3) => vec![0, 21845, 43690, 65535],
            (65535, 8) => vec![0, 8192, 16384, 24576, 32768, 40960, 49152, 57344, 65535],
            (65536, 2) => vec![0, 32768, 65536],
            (65536, 3) => vec![0, 21846, 43691, 65536],
            (65536, 8) => vec![0, 8192, 16384, 24576, 32768, 40960, 49152, 57344, 65536],
            (65537, 2) => vec![0, 32769, 65537],
            (65537, 3) => vec![0, 21846, 43692, 65537],
            (65537, 8) => vec![0, 8193, 16385, 24577, 32769, 40961, 49153, 57345, 65537],
            (200003, 2) => vec![0, 100002, 200003],
            (200003, 3) => vec![0, 66668, 133336, 200003],
            (200003, 8) => vec![
                0, 25001, 50002, 75003, 100003, 125003, 150003, 175003, 200003,
            ],
            _ => unreachable!("({len}, {threads}) is not on the test grid"),
        }
    }

    #[test]
    fn chunk_bounds_cover_range_exactly() {
        for len in [0usize, 1, 2, 7, 100, 101] {
            for threads in [1usize, 2, 3, 8, 200] {
                let b = chunk_bounds(len, threads);
                assert_eq!(*b.first().unwrap(), 0);
                assert_eq!(*b.last().unwrap(), len);
                for w in b.windows(2) {
                    assert!(w[0] <= w[1]);
                    if len >= threads {
                        assert!(w[1] > w[0], "empty chunk for len={len} threads={threads}");
                    }
                }
            }
        }
    }

    #[test]
    fn pieces_cover_the_range_once_in_order_for_every_grain() {
        for grain in GRAINS {
            for len in LENS {
                for threads in THREADS {
                    let what = format!("{grain:?} len={len} threads={threads}");
                    let hits: Vec<AtomicU8> = (0..len).map(|_| AtomicU8::new(0)).collect();
                    let pieces = parallel_map(len, threads, grain, |p, range| {
                        for i in range.clone() {
                            // ORDERING: Relaxed — a per-index tally read
                            // after the region's join.
                            hits[i].fetch_add(1, Ordering::Relaxed);
                        }
                        (p, range)
                    });
                    let mut bounds = vec![0];
                    for (k, (p, range)) in pieces.into_iter().enumerate() {
                        assert_eq!(p, k, "{what}: results in piece order");
                        assert_eq!(Some(&range.start), bounds.last(), "{what}: contiguous");
                        bounds.push(range.end);
                    }
                    // ORDERING: Relaxed — read after the region's join.
                    assert!(
                        hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                        "{what}"
                    );
                    let want = match grain {
                        Grain::PerThread => pinned_chunk_bounds(len, threads),
                        Grain::Morsel => morsel_bounds(len),
                        Grain::Item => (0..=len).collect(),
                    };
                    assert_eq!(bounds, want, "{what}: bounds");
                }
            }
        }
    }

    #[test]
    fn a_panic_propagates_from_every_grain() {
        for grain in GRAINS {
            let caught = std::panic::catch_unwind(|| {
                parallel_for(200_003, 4, grain, |_, range| {
                    if range.contains(&100_000) {
                        panic!("piece fails");
                    }
                });
            });
            assert!(caught.is_err(), "{grain:?}");
        }
    }

    /// Runs `region` until one run leaves the global job counter
    /// unchanged. Sibling tests share the pool, so a nonzero delta may be
    /// theirs; the counter never decreases, so one zero delta proves the
    /// region dispatched nothing.
    fn dispatches_no_job(region: impl Fn()) -> bool {
        (0..10_000).any(|_| {
            let before = pool_stats().jobs_dispatched;
            region();
            let quiet = pool_stats().jobs_dispatched == before;
            if !quiet {
                std::thread::yield_now();
            }
            quiet
        })
    }

    #[test]
    fn one_piece_and_one_thread_regions_dispatch_no_jobs() {
        for grain in GRAINS {
            for len in LENS {
                let region = || parallel_for(len, 1, grain, |_, _| {});
                assert!(dispatches_no_job(region), "{grain:?} len={len} threads=1");
            }
            let region = || parallel_for(1, 8, grain, |_, _| {});
            assert!(dispatches_no_job(region), "{grain:?}: one piece");
        }
        let one_morsel = morsel_rows();
        let region = || parallel_for(one_morsel, 8, Grain::Morsel, |_, _| {});
        assert!(dispatches_no_job(region), "one full morsel");
        // Control: two pieces on two threads always reach the pool.
        let before = pool_stats().jobs_dispatched;
        parallel_for(2, 2, Grain::Item, |_, _| {});
        assert!(pool_stats().jobs_dispatched > before);
    }

    #[test]
    fn parallel_for_single_thread_runs_inline() {
        let caller = std::thread::current().id();
        parallel_for(5, 1, Grain::PerThread, |tid, range| {
            assert_eq!(tid, 0);
            assert_eq!(range, 0..5);
            assert_eq!(std::thread::current().id(), caller);
        });
    }

    #[test]
    fn timed_region_reports_pieces_and_workers() {
        let (out, stats) = parallel_map_timed(None, 200_003, 4, |p, _| p);
        assert_eq!(
            out,
            (0..morsel_bounds(200_003).len() - 1).collect::<Vec<_>>()
        );
        assert_eq!(stats.morsels as usize, out.len());
        assert_eq!(stats.workers as usize, stats.busy_ns.len());
        assert!(stats.workers >= 1);
        assert!(stats.busy_ns.windows(2).all(|w| w[0] >= w[1]));
        let (_, inline) = parallel_map_timed(None, 200_003, 1, |_, _| ());
        assert_eq!((inline.morsels as usize, inline.workers), (out.len(), 1));
        assert_eq!(inline.busy_ns.len(), 1);
    }

    #[test]
    fn chunk_mut_writes_disjoint_partitions() {
        let mut data = vec![0usize; 1000];
        parallel_for_each_chunk_mut(&mut data, 7, |_, start, chunk| {
            for (off, slot) in chunk.iter_mut().enumerate() {
                *slot = start + off;
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, i);
        }
    }
}
