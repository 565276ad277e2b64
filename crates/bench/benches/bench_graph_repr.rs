//! DESIGN.md ablation 2: the paper's node-hash-table graph against the
//! static CSR it rejects (§2.2). The CSR side is the graph version's
//! read-only index (`Topology`): kernels read it, so traversal speed is
//! CSR speed once a version is indexed. What differs is the cost of an
//! edit — `del_edge` on the hash graph is O(degree), while a read-only
//! CSR must be rebuilt, O(E), before the next kernel can run.

use ringo_bench::{criterion_group, criterion_main, BatchSize, Criterion};
use ringo_core::algo::{pagerank, PageRankConfig};
use ringo_core::graph::{DirectedTopology, Topology};
use ringo_core::Ringo;

fn bench(c: &mut Criterion) {
    let ringo = Ringo::new();
    let table = ringo.generate_lj_like(0.05, 42);
    let dynamic = ringo.to_graph(&table, "src", "dst").unwrap();
    let cfg = PageRankConfig {
        iterations: 5,
        threads: 1,
        ..PageRankConfig::default()
    };
    let victims: Vec<(i64, i64)> = dynamic.edges().step_by(101).take(64).collect();

    let mut g = c.benchmark_group("graph_repr");
    g.sample_size(12);
    g.bench_function("build_hash_graph", |b| {
        b.iter(|| std::hint::black_box(ringo.to_graph(&table, "src", "dst").unwrap()))
    });
    g.bench_function("build_index", |b| {
        b.iter(|| std::hint::black_box(Topology::build(&dynamic)))
    });
    g.bench_function("pagerank_indexed", |b| {
        b.iter(|| std::hint::black_box(pagerank(&dynamic, &cfg)))
    });
    g.bench_function("del_64_edges_hash_graph", |b| {
        b.iter_batched(
            || dynamic.clone(),
            |mut g| {
                for &(s, d) in &victims {
                    g.del_edge(s, d);
                }
                g
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("del_64_edges_reindexed", |b| {
        b.iter_batched(
            || dynamic.clone(),
            |mut g| {
                for &(s, d) in &victims {
                    g.del_edge(s, d);
                    std::hint::black_box(g.topology());
                }
                g
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
