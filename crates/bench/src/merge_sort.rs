//! The merge-sort ablation baseline (`bench_radix`, `bench_scaling`).
//!
//! Before the radix sorter, the "sort-first" table-to-graph conversion
//! (paper §2.4) sorted its copied edge columns with a parallel merge
//! sort, built one `Vec` per node in the fill phase, and installed them
//! through [`DirectedGraph::from_parts`]. No library path uses either any
//! more; both live here so the benches can keep measuring what the radix
//! path gained.
//!
//! The sort is a classic two-phase merge sort: sort one contiguous chunk
//! per worker with the standard library's unstable sort, then merge pairs
//! of runs in rounds, with the merges of one round running in parallel.
//! One auxiliary buffer of the same length is ping-ponged against the
//! input between rounds so data is moved, never reallocated.

use ringo_concurrent::parallel::chunk_bounds;
use ringo_concurrent::{parallel_for, parallel_map, DisjointSlice, Grain};
use ringo_core::{DirectedGraph, NodeId, Table, TableError};

/// Sorts `data` in ascending order using `threads` workers.
///
/// Falls back to `sort_unstable` when `threads <= 1` or the input is small
/// (< 8192 elements), where fork-join overhead would dominate.
pub fn parallel_sort<T: Ord + Copy + Send + Sync>(data: &mut [T], threads: usize) {
    parallel_sort_by_key(data, threads, |x| *x);
}

/// Sorts `data` ascending by the key extracted with `key`, in parallel.
pub fn parallel_sort_by_key<T, K, F>(data: &mut [T], threads: usize, key: F)
where
    T: Copy + Send + Sync,
    K: Ord,
    F: Fn(&T) -> K + Sync,
{
    let len = data.len();
    if threads <= 1 || len < 8192 {
        data.sort_unstable_by_key(|a| key(a));
        return;
    }
    // Phase 1: sort each chunk independently.
    let bounds = chunk_bounds(len, threads);
    {
        let cell = DisjointSlice::new(data);
        parallel_for(len, threads, Grain::PerThread, |_, range| {
            // SAFETY: per-thread chunks are disjoint index windows of `data`.
            let chunk = unsafe { cell.slice_mut(range.start, range.end) };
            chunk.sort_unstable_by_key(|a| key(a));
        });
    }

    // Phase 2: merge pairs of adjacent runs, round by round, ping-ponging
    // between `data` itself and ONE auxiliary buffer. T: Copy makes the
    // clone a memcpy; its contents only matter for the
    // trailing-unpaired-run copy-through.
    let mut aux: Vec<T> = data.to_vec();
    // True while the current runs live in `data` (merges write to `aux`).
    let mut in_data = true;

    let mut run_bounds = bounds;
    while run_bounds.len() > 2 {
        let pairs = (run_bounds.len() - 1) / 2;
        let mut next_bounds: Vec<usize> = run_bounds.iter().step_by(2).copied().collect();
        if next_bounds.last() != Some(&len) {
            next_bounds.push(len);
        }
        {
            let (src_ref, dst_cell): (&[T], DisjointSlice<T>) = if in_data {
                (&*data, DisjointSlice::new(&mut aux))
            } else {
                (&aux, DisjointSlice::new(data))
            };
            let rb = &run_bounds;
            let key = &key;
            // Every pair index satisfies `2p + 2 <= run_bounds.len() - 1`,
            // so the window bounds below never index past the slice.
            parallel_for(pairs, threads, Grain::PerThread, |_, pair_range| {
                for p in pair_range {
                    let (lo, mid, hi) = (rb[2 * p], rb[2 * p + 1], rb[2 * p + 2]);
                    // SAFETY: pairs own disjoint [lo, hi) output windows:
                    // `rb` is strictly increasing, so windows of distinct
                    // pair indices cannot overlap, and `hi <= len`.
                    let out = unsafe { dst_cell.slice_mut(lo, hi) };
                    merge_runs(&src_ref[lo..mid], &src_ref[mid..hi], out, key);
                }
            });
            // A trailing unpaired run is copied through unchanged.
            if run_bounds.len().is_multiple_of(2) {
                let lo = run_bounds[run_bounds.len() - 2];
                let hi = run_bounds[run_bounds.len() - 1];
                // SAFETY: the pair windows above end at rb[2*pairs] == lo,
                // so [lo, hi) is written by this thread alone.
                unsafe { dst_cell.slice_mut(lo, hi) }.copy_from_slice(&src_ref[lo..hi]);
            }
        }
        in_data = !in_data;
        run_bounds = next_bounds;
    }
    // An odd number of merge rounds leaves the sorted data in `aux`.
    if !in_data {
        data.copy_from_slice(&aux);
    }
}

fn merge_runs<T, K, F>(a: &[T], b: &[T], out: &mut [T], key: &F)
where
    T: Copy,
    K: Ord,
    F: Fn(&T) -> K,
{
    debug_assert_eq!(a.len() + b.len(), out.len());
    let (mut i, mut j) = (0, 0);
    for slot in out.iter_mut() {
        let take_a = match (a.get(i), b.get(j)) {
            (Some(x), Some(y)) => key(x) <= key(y),
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => unreachable!("merge exhausted both runs early"),
        };
        if take_a {
            *slot = a[i];
            i += 1;
        } else {
            *slot = b[j];
            j += 1;
        }
    }
}

/// Maximal runs of equal first elements in a sorted pair array, as
/// `(id, start, end)`.
fn runs(pairs: &[(NodeId, NodeId)]) -> Vec<(NodeId, usize, usize)> {
    let mut out = Vec::new();
    let mut start = 0;
    while start < pairs.len() {
        let id = pairs[start].0;
        let mut end = start + 1;
        while end < pairs.len() && pairs[end].0 == id {
            end += 1;
        }
        out.push((id, start, end));
        start = end;
    }
    out
}

/// The pre-radix sort-first conversion, kept as the ablation baseline:
/// parallel merge sort, per-node `Vec` allocation in the fill phase, and
/// incremental hash-table installation via `from_parts`. Builds the same
/// graph as `ringo_convert::table_to_graph`.
pub fn table_to_graph_mergesort(
    t: &Table,
    src_col: &str,
    dst_col: &str,
) -> Result<DirectedGraph, TableError> {
    let src = t.int_col(src_col)?;
    let dst = t.int_col(dst_col)?;
    let threads = t.threads();

    let mut by_src: Vec<(NodeId, NodeId)> = src.iter().copied().zip(dst.iter().copied()).collect();
    let mut by_dst: Vec<(NodeId, NodeId)> = dst.iter().copied().zip(src.iter().copied()).collect();
    parallel_sort(&mut by_src, threads);
    parallel_sort(&mut by_dst, threads);

    // Merge the two run lists (both ascending by id) into the node list,
    // remembering each node's run on either side.
    let out_runs = runs(&by_src);
    let in_runs = runs(&by_dst);
    let mut nodes: Vec<(NodeId, Option<usize>, Option<usize>)> = Vec::new();
    let (mut i, mut j) = (0, 0);
    loop {
        let o = out_runs.get(i).map(|r| r.0);
        let n = in_runs.get(j).map(|r| r.0);
        let Some(id) = o.into_iter().chain(n).min() else {
            break;
        };
        let (orun, irun) = ((o == Some(id)).then_some(i), (n == Some(id)).then_some(j));
        i += usize::from(orun.is_some());
        j += usize::from(irun.is_some());
        nodes.push((id, orun, irun));
    }

    let nbrs = |pairs: &[(NodeId, NodeId)], run: Option<(NodeId, usize, usize)>| {
        let mut v: Vec<NodeId> = run
            .map_or(&[][..], |(_, lo, hi)| &pairs[lo..hi])
            .iter()
            .map(|p| p.1)
            .collect();
        v.dedup();
        v
    };
    type NodeParts = (NodeId, Vec<NodeId>, Vec<NodeId>);
    let parts: Vec<Vec<NodeParts>> =
        parallel_map(nodes.len(), threads, Grain::PerThread, |_, range| {
            nodes[range]
                .iter()
                .map(|&(id, orun, irun)| {
                    let out_nbrs = nbrs(&by_src, orun.map(|r| out_runs[r]));
                    let in_nbrs = nbrs(&by_dst, irun.map(|r| in_runs[r]));
                    (id, in_nbrs, out_nbrs)
                })
                .collect()
        });
    Ok(DirectedGraph::from_parts(
        parts.into_iter().flatten().collect(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringo_core::convert::table_to_graph;
    use ringo_core::gen::{edges_to_table, rmat, RmatConfig};
    use ringo_rng::Rng64;

    fn check_sorted(threads: usize, len: usize, seed: u64) {
        let mut rng = Rng64::new(seed);
        let mut data: Vec<i64> = (0..len).map(|_| rng.range_i64(-1000..1000)).collect();
        let mut expect = data.clone();
        expect.sort_unstable();
        parallel_sort(&mut data, threads);
        assert_eq!(data, expect, "threads={threads} len={len}");
    }

    #[test]
    fn sorts_small_inputs_inline() {
        check_sorted(4, 0, 1);
        check_sorted(4, 1, 2);
        check_sorted(4, 100, 3);
    }

    #[test]
    fn sorts_large_inputs_with_various_thread_counts() {
        for threads in [2, 3, 4, 7, 8] {
            check_sorted(threads, 50_000, threads as u64);
        }
    }

    #[test]
    fn sorts_with_duplicates_and_already_sorted() {
        let mut dup: Vec<i64> = (0..30_000).map(|i| i % 5).collect();
        let mut expect = dup.clone();
        expect.sort_unstable();
        parallel_sort(&mut dup, 4);
        assert_eq!(dup, expect);

        let mut asc: Vec<i64> = (0..30_000).collect();
        let expect = asc.clone();
        parallel_sort(&mut asc, 4);
        assert_eq!(asc, expect);

        let mut desc: Vec<i64> = (0..30_000).rev().collect();
        parallel_sort(&mut desc, 3);
        let expect: Vec<i64> = (0..30_000).collect();
        assert_eq!(desc, expect);
    }

    #[test]
    fn sort_by_key_orders_pairs_by_first_component() {
        let mut pairs: Vec<(i64, i64)> = (0..20_000).map(|i| ((i * 7919) % 1000, i)).collect();
        parallel_sort_by_key(&mut pairs, 4, |p| p.0);
        for w in pairs.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
    }

    #[test]
    fn merge_runs_basic() {
        let a = [1, 3, 5];
        let b = [2, 4, 6];
        let mut out = [0; 6];
        merge_runs(&a, &b, &mut out, &|x| *x);
        assert_eq!(out, [1, 2, 3, 4, 5, 6]);
    }

    /// Regression test for the single-aux-buffer ping-pong: odd run counts
    /// exercise the trailing-unpaired-run copy-through, and both round
    /// parities (odd leaves the result in `aux` and must copy back).
    #[test]
    fn odd_run_counts_with_single_aux_buffer() {
        let mut rng = Rng64::new(0x0DD5);
        for threads in [3usize, 5, 7, 9] {
            let len = 60_000 + rng.below(100);
            let mut data: Vec<i64> = (0..len).map(|_| rng.range_i64(-5000..5000)).collect();
            let mut expect = data.clone();
            expect.sort_unstable();
            parallel_sort(&mut data, threads);
            assert_eq!(data, expect, "threads={threads} len={len}");
        }
    }

    /// Property test guarding the merge-round window arithmetic (the
    /// `DisjointSlice` unsafe surface): `parallel_sort_by_key` must agree with
    /// `sort_unstable_by_key` for random inputs across lengths 0–20k and
    /// thread counts 1–9, which exercises odd run counts, a trailing
    /// unpaired run, and the single-pair final round.
    #[test]
    fn property_sort_by_key_matches_std_across_lengths_and_threads() {
        let mut rng = Rng64::new(0xD1CE);
        for case in 0..48 {
            // Mix maximal and uniform lengths so the >= 8192 parallel path
            // is hit often, not only the small-input fallback.
            let len = if case % 3 == 0 {
                20_000 - rng.below(64)
            } else {
                rng.below(20_001)
            };
            for threads in 1..=9usize {
                let mut data: Vec<(i64, u32)> = (0..len)
                    .map(|i| (rng.range_i64(-300..300), i as u32))
                    .collect();
                let mut expect = data.clone();
                expect.sort_unstable_by_key(|p| p.0);
                parallel_sort_by_key(&mut data, threads, |p| p.0);
                // Keys must match the std ordering exactly; payloads must
                // be a permutation (neither sort is stable).
                assert!(
                    data.iter().map(|p| p.0).eq(expect.iter().map(|p| p.0)),
                    "key order diverged: len={len} threads={threads}"
                );
                let mut got: Vec<u32> = data.iter().map(|p| p.1).collect();
                let mut want: Vec<u32> = expect.iter().map(|p| p.1).collect();
                got.sort_unstable();
                want.sort_unstable();
                assert_eq!(got, want, "payload lost: len={len} threads={threads}");
            }
        }
    }

    /// Parallel sort agrees with the standard library for any input (a
    /// seeded property loop: the failing case is in the message).
    #[test]
    fn parallel_sort_matches_std() {
        for case in 0..64u64 {
            // The per-case stream of the root property suite's `for_cases`.
            let seed = "parallel_sort_matches_std"
                .bytes()
                .fold(case.wrapping_mul(0x9E37_79B9_7F4A_7C15), |h, b| {
                    (h ^ b as u64).wrapping_mul(0x100_0000_01B3)
                });
            let mut rng = Rng64::new(seed);
            let len = rng.below(20_000);
            let mut data: Vec<i64> = (0..len).map(|_| rng.i64()).collect();
            let threads = rng.range_usize(1..6);
            let mut expect = data.clone();
            expect.sort_unstable();
            parallel_sort(&mut data, threads);
            assert_eq!(data, expect, "case={case} len={len} threads={threads}");
        }
    }

    #[test]
    fn parallel_sort_is_deterministic_across_thread_counts() {
        let mut base: Vec<i64> = (0..300_000)
            .map(|i: i64| (i.wrapping_mul(2_654_435_761)) % 10_000)
            .collect();
        let mut expect = base.clone();
        expect.sort_unstable();
        for threads in [2, 3, 5, 8] {
            let mut data = base.clone();
            parallel_sort(&mut data, threads);
            assert_eq!(data, expect, "threads={threads}");
        }
        base.sort_unstable();
        assert_eq!(base, expect);
    }

    #[test]
    fn radix_path_matches_mergesort_path() {
        let edges = rmat(&RmatConfig {
            scale: 10,
            edges: 8_000,
            ..Default::default()
        });
        let mut t = edges_to_table(&edges);
        for threads in [1usize, 2, 4] {
            t.set_threads(threads);
            let fast = table_to_graph(&t, "src", "dst").unwrap();
            let old = table_to_graph_mergesort(&t, "src", "dst").unwrap();
            assert_eq!(fast.node_count(), old.node_count());
            assert_eq!(fast.edge_count(), old.edge_count());
            for id in old.node_ids() {
                assert_eq!(fast.out_nbrs(id), old.out_nbrs(id));
                assert_eq!(fast.in_nbrs(id), old.in_nbrs(id));
            }
        }
    }
}
