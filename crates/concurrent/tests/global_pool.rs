//! Dispatch accounting of the process-wide pool.
//!
//! `pool_stats()` reads counters every `parallel_*` call in the process
//! adds to, so an exact delta only holds when nothing else dispatches
//! meanwhile. This file is its own test binary — its own process — and
//! holds this one test, so no sibling test shares the global pool.

use ringo_concurrent::{parallel_for, pool_stats, Grain};

#[test]
fn repeated_parallel_for_never_spawns_per_call() {
    // Warm the pool up, then check that 200 further dispatches change
    // only the job counters — never the worker count.
    parallel_for(64, 4, Grain::PerThread, |_, _| {});
    let before = pool_stats();
    for _ in 0..200 {
        parallel_for(64, 4, Grain::PerThread, |_, range| {
            std::hint::black_box(range.sum::<usize>());
        });
    }
    let after = pool_stats();
    assert_eq!(after.workers, before.workers, "pool size is constant");
    assert_eq!(after.jobs_dispatched - before.jobs_dispatched, 200);
    assert!(after.chunks_executed - before.chunks_executed >= 200);
}
