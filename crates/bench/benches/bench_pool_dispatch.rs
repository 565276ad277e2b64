//! Pooled vs spawn-per-call fork-join dispatch on small inputs.
//!
//! This is the measurement behind the persistent worker pool: a parallel
//! region over a small or medium index range is dominated by dispatch
//! overhead, so paying OS thread creation per call (what the deprecated
//! `crossbeam::scope` implementation did) erases the parallel win exactly
//! where interactive table operators live. Each case times `parallel_for`
//! (pool dispatch) against an equivalent region built on
//! `std::thread::scope`, which spawns one OS thread per chunk per call.
//!
//! A second section times the dispatch cost of two region shapes with
//! trivial bodies: an `Item`-grain region of 2048 pieces (the radix
//! sorter's finish pass runs one piece per bucket) and a `Morsel`-grain
//! region over 1M indices (16 morsels). Neither entry point reads a clock
//! or takes a lock per piece, so these are pure scheduling costs.
//!
//! Results are printed and recorded in `BENCH_pool.json` at the workspace
//! root.

use ringo_core::concurrent::{num_threads, parallel_for, pool_stats, Grain};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The measured region body: sum a chunk of `data` into an atomic.
fn region_body(data: &[u64], sink: &AtomicU64, range: std::ops::Range<usize>) {
    let local: u64 = range.map(|i| data[i]).sum();
    sink.fetch_add(local, Ordering::Relaxed);
}

/// One fork-join region through the persistent pool.
fn pooled_call(data: &[u64], threads: usize, sink: &AtomicU64) {
    parallel_for(data.len(), threads, Grain::PerThread, |_, range| {
        region_body(data, sink, range);
    });
}

/// One fork-join region that spawns fresh OS threads, reproducing the
/// retired per-call `crossbeam::scope` dispatch.
fn spawn_call(data: &[u64], threads: usize, sink: &AtomicU64) {
    let bounds = ringo_core::concurrent::parallel::chunk_bounds(data.len(), threads);
    let chunks = bounds.len() - 1;
    if chunks <= 1 {
        region_body(data, sink, 0..data.len());
        return;
    }
    std::thread::scope(|s| {
        for t in 0..chunks {
            let range = bounds[t]..bounds[t + 1];
            s.spawn(move || region_body(data, sink, range));
        }
    });
}

struct Case {
    len: usize,
    iters: usize,
    pooled_ns: f64,
    spawn_ns: f64,
}

fn time_calls(iters: usize, mut call: impl FnMut()) -> f64 {
    call(); // warmup
    let start = Instant::now();
    for _ in 0..iters {
        call();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn main() {
    // Sweep a few region widths even on small machines: the comparison is
    // about dispatch overhead (wakeup vs thread creation), which exists
    // regardless of how many cores execute the chunks.
    let threads = num_threads().clamp(2, 8);
    let sink = AtomicU64::new(0);
    let mut cases = Vec::new();

    println!("=== pool vs spawn-per-call dispatch ({threads} chunks/region) ===");
    for (len, iters) in [(1_000usize, 2_000usize), (10_000, 1_000), (100_000, 300)] {
        let data: Vec<u64> = (0..len as u64).collect();
        let pooled_ns = time_calls(iters, || pooled_call(&data, threads, &sink));
        let spawn_ns = time_calls(iters, || spawn_call(&data, threads, &sink));
        println!(
            "len {len:>7}: pooled {pooled_ns:>10.0} ns/call   spawn {spawn_ns:>10.0} ns/call   \
             speedup {:.2}x",
            spawn_ns / pooled_ns
        );
        cases.push(Case {
            len,
            iters,
            pooled_ns,
            spawn_ns,
        });
    }
    std::hint::black_box(sink.into_inner());

    println!("=== region shapes, trivial bodies ({threads} threads) ===");
    let mut shapes = Vec::new();
    for (shape, grain, len, iters) in [
        ("item_2048", Grain::Item, 2048usize, 2_000usize),
        ("morsel_1m", Grain::Morsel, 1 << 20, 2_000),
    ] {
        let ns = time_calls(iters, || {
            parallel_for(len, threads, grain, |_, range| {
                std::hint::black_box(range);
            })
        });
        println!("{shape:>10}: {ns:>10.0} ns/region");
        shapes.push((shape, len, iters, ns));
    }

    let stats = pool_stats();
    assert!(
        stats.jobs_dispatched > 0,
        "pooled path must actually dispatch to the pool"
    );
    println!(
        "pool after run: {} workers, {} jobs, {} chunks, busy {:?}",
        stats.workers, stats.jobs_dispatched, stats.chunks_executed, stats.busy
    );

    // Hand-rolled JSON (no serde in the hermetic workspace).
    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"pool_vs_spawn_dispatch\",\n");
    json.push_str(&format!("  \"threads\": {threads},\n"));
    json.push_str(&format!(
        "  \"pool_workers\": {},\n  \"cases\": [\n",
        stats.workers
    ));
    for (i, c) in cases.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"len\": {}, \"iters\": {}, \"pooled_ns_per_call\": {:.0}, \
             \"spawn_ns_per_call\": {:.0}, \"speedup\": {:.2}}}{}\n",
            c.len,
            c.iters,
            c.pooled_ns,
            c.spawn_ns,
            c.spawn_ns / c.pooled_ns,
            if i + 1 < cases.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n  \"regions\": [\n");
    for (i, (shape, len, iters, ns)) in shapes.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"shape\": \"{shape}\", \"len\": {len}, \"iters\": {iters}, \
             \"ns_per_region\": {ns:.0}}}{}\n",
            if i + 1 < shapes.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");

    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_pool.json");
    let mut f = std::fs::File::create(&out).expect("create BENCH_pool.json");
    f.write_all(json.as_bytes()).expect("write BENCH_pool.json");
    println!("wrote {}", out.display());
}
