//! Radix vs comparison sort on edge pairs, plus the end-to-end
//! table→graph conversion it accelerates.
//!
//! Four distributions at three sizes compare the parallel LSD radix
//! sorter against the parallel merge sort it replaced and against the
//! standard library's sequential `sort_unstable`. R-MAT-skewed ids are
//! the paper's workload; presorted and reversed inputs probe the
//! comparison sorts' best cases. The end-to-end section measures
//! `table_to_graph` (radix + slab fill) against the pre-radix
//! `table_to_graph_mergesort` pipeline (kept in
//! `ringo_bench::merge_sort`) in edges per second.
//!
//! Results are printed and recorded in `BENCH_radix.json` at the
//! workspace root.

use ringo_bench::merge_sort::{parallel_sort, table_to_graph_mergesort};
use ringo_core::concurrent::{num_threads, radix_sort_pairs};
use ringo_core::convert::table_to_graph;
use ringo_core::gen::{edges_to_table, rmat, RmatConfig};
use std::io::Write;
use std::time::Instant;

/// Small xorshift so pair generation needs no crate beyond ringo-core.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

fn pairs_for(dist: &str, len: usize) -> Vec<(i64, i64)> {
    match dist {
        "uniform" => {
            let mut rng = XorShift(0x5DEE_CE66_D1CE_1CEB ^ len as u64);
            let span = len as u64;
            (0..len)
                .map(|_| ((rng.next() % span) as i64, (rng.next() % span) as i64))
                .collect()
        }
        "rmat" => rmat(&RmatConfig {
            scale: (len as f64).log2().ceil() as u32,
            edges: len,
            ..Default::default()
        }),
        "presorted" => {
            let mut v = pairs_for("uniform", len);
            v.sort_unstable();
            v
        }
        "reverse" => {
            let mut v = pairs_for("uniform", len);
            v.sort_unstable();
            v.reverse();
            v
        }
        _ => unreachable!(),
    }
}

/// Median of a sample vector (robust against the interference spikes of
/// a shared machine).
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs[xs.len() / 2]
}

/// Median seconds per sort; the clone happens outside the timed section.
fn time_sort(iters: usize, data: &[(i64, i64)], f: impl Fn(&mut Vec<(i64, i64)>)) -> f64 {
    let mut warm = data.to_vec();
    f(&mut warm);
    std::hint::black_box(&warm);
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let mut v = data.to_vec();
        let start = Instant::now();
        f(&mut v);
        samples.push(start.elapsed().as_secs_f64());
        std::hint::black_box(&v);
    }
    median(samples)
}

struct Case {
    len: usize,
    dist: &'static str,
    radix_s: f64,
    merge_s: f64,
    std_s: f64,
}

fn main() {
    let threads = num_threads();
    let mut cases = Vec::new();

    println!("=== radix vs merge vs std sort on (i64, i64) pairs ({threads} threads) ===");
    // Odd iteration counts so the median is a real middle sample; an even
    // count would make `median` return the worse of the two center values.
    for (len, iters) in [(100_000usize, 7usize), (1_000_000, 5), (4_000_000, 3)] {
        for dist in ["uniform", "rmat", "presorted", "reverse"] {
            let data = pairs_for(dist, len);
            let radix_s = time_sort(iters, &data, |v| radix_sort_pairs(v, threads));
            let merge_s = time_sort(iters, &data, |v| parallel_sort(v, threads));
            let std_s = time_sort(iters, &data, |v| v.sort_unstable());
            println!(
                "len {len:>9} {dist:>9}: radix {:>8.2}ms   merge {:>8.2}ms   std {:>8.2}ms   \
                 radix/merge {:.2}x",
                radix_s * 1e3,
                merge_s * 1e3,
                std_s * 1e3,
                merge_s / radix_s
            );
            cases.push(Case {
                len,
                dist,
                radix_s,
                merge_s,
                std_s,
            });
        }
    }

    // End-to-end: full table→graph conversion, radix + slab fill vs the
    // pre-radix merge-sort pipeline, on the paper's R-MAT workload.
    let e2e_edges = 1_000_000usize;
    let table = edges_to_table(&pairs_for("rmat", e2e_edges));
    // Interleave the two pipelines and take medians: on a shared box,
    // timing one pipeline's whole block and then the other's folds
    // minute-scale interference drift into the comparison.
    let e2e_iters = 5;
    std::hint::black_box(table_to_graph(&table, "src", "dst").unwrap());
    std::hint::black_box(table_to_graph_mergesort(&table, "src", "dst").unwrap());
    let mut radix_samples = Vec::with_capacity(e2e_iters);
    let mut merge_samples = Vec::with_capacity(e2e_iters);
    for _ in 0..e2e_iters {
        let start = Instant::now();
        std::hint::black_box(table_to_graph(&table, "src", "dst").unwrap());
        radix_samples.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        std::hint::black_box(table_to_graph_mergesort(&table, "src", "dst").unwrap());
        merge_samples.push(start.elapsed().as_secs_f64());
    }
    let radix_s = median(radix_samples);
    let merge_s = median(merge_samples);
    println!(
        "table_to_graph {e2e_edges} rmat edges: radix+slab {:.1}ms ({:.2}M edges/s)   \
         mergesort {:.1}ms ({:.2}M edges/s)   speedup {:.2}x",
        radix_s * 1e3,
        e2e_edges as f64 / radix_s / 1e6,
        merge_s * 1e3,
        e2e_edges as f64 / merge_s / 1e6,
        merge_s / radix_s
    );

    // Hand-rolled JSON (no serde in the hermetic workspace).
    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"radix_sort\",\n");
    json.push_str(&format!("  \"threads\": {threads},\n"));
    json.push_str("  \"cases\": [\n");
    for (i, c) in cases.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"len\": {}, \"dist\": \"{}\", \"radix_ms\": {:.3}, \"merge_ms\": {:.3}, \
             \"std_ms\": {:.3}, \"speedup_vs_merge\": {:.2}}}{}\n",
            c.len,
            c.dist,
            c.radix_s * 1e3,
            c.merge_s * 1e3,
            c.std_s * 1e3,
            c.merge_s / c.radix_s,
            if i + 1 < cases.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"end_to_end\": {{\"edges\": {e2e_edges}, \"radix_ms\": {:.1}, \
         \"mergesort_ms\": {:.1}, \"radix_edges_per_s\": {:.0}, \
         \"mergesort_edges_per_s\": {:.0}, \"speedup\": {:.2}}}\n",
        radix_s * 1e3,
        merge_s * 1e3,
        e2e_edges as f64 / radix_s,
        e2e_edges as f64 / merge_s,
        merge_s / radix_s
    ));
    json.push_str("}\n");

    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_radix.json");
    let mut f = std::fs::File::create(&out).expect("create BENCH_radix.json");
    f.write_all(json.as_bytes())
        .expect("write BENCH_radix.json");
    println!("wrote {}", out.display());
}
