//! DESIGN.md ablation 2: the paper's node-hash-table graph vs the CSR
//! baseline it rejects (§2.2). Kernels read a per-version slot index
//! (`Topology`) on either representation, so traversal speed is the same
//! once a version is indexed; what differs is the cost of building that
//! index (hash lookups vs CSR id lookups) against single-edge-deletion
//! cost.

use ringo_bench::{criterion_group, criterion_main, BatchSize, Criterion};
use ringo_core::algo::{pagerank, PageRankConfig};
use ringo_core::graph::Topology;
use ringo_core::{CsrGraph, Ringo};

fn bench(c: &mut Criterion) {
    let ringo = Ringo::new();
    let table = ringo.generate_lj_like(0.05, 42);
    let dynamic = ringo.to_graph(&table, "src", "dst").unwrap();
    let src = table.int_col("src").unwrap();
    let dst = table.int_col("dst").unwrap();
    let edges: Vec<(i64, i64)> = src.iter().copied().zip(dst.iter().copied()).collect();
    let csr = CsrGraph::from_edges(&edges);
    let cfg = PageRankConfig {
        iterations: 5,
        threads: 1,
        ..PageRankConfig::default()
    };
    let victims: Vec<(i64, i64)> = dynamic.edges().step_by(101).take(64).collect();

    let mut g = c.benchmark_group("graph_repr");
    g.sample_size(12);
    g.bench_function("index_hash_graph", |b| {
        b.iter(|| std::hint::black_box(Topology::build(&dynamic)))
    });
    g.bench_function("index_csr", |b| {
        b.iter(|| std::hint::black_box(Topology::build(&csr)))
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
    g.bench_function("del_64_edges_csr", |b| {
        b.iter_batched(
            || csr.clone(),
            |mut g| {
                for &(s, d) in &victims {
                    g.del_edge(s, d);
                }
                g
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("build_hash_graph", |b| {
        b.iter(|| std::hint::black_box(ringo.to_graph(&table, "src", "dst").unwrap()))
    });
    g.bench_function("build_csr", |b| {
        b.iter(|| std::hint::black_box(CsrGraph::from_edges(&edges)))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
