//! Differential tests for the kernels that read the per-version slot
//! index ([`ringo::graph::Topology`]) instead of resolving neighbor ids
//! per edge.
//!
//! The graphs are R-MAT with self-loops added and nodes deleted (so the
//! slot space has vacancies), and every kernel runs at 1, 2, 4 and 8
//! threads:
//!
//! * PageRank, personalized PageRank, HITS and eigenvector centrality
//!   must be bit-identical to the per-edge hash-lookup loops they
//!   replaced, kept below as oracles, and PageRank bit-identical across
//!   thread counts on a graph spanning several morsels;
//! * BFS distances and parents, unweighted SSSP, WCC, SCC and triangle
//!   counts must equal plain-array oracles;
//! * core numbers and the 3-core, DFS preorder, topological order and
//!   cycle detection, articulation points and bridges, parallel WCC and
//!   Dijkstra distances must equal plain-array or id-lookup oracles, and
//!   label propagation, the ANF curve and degree assortativity must be
//!   bit-identical to the id-lookup loops they replaced;
//! * a mutation after the index was built must give the answers of a
//!   freshly built graph, and a compacted catalog version must share its
//!   parent's index and give identical answers.

use ringo::algo::{
    approx_neighborhood_function, core_numbers, count_triangles, cut_structure,
    degree_assortativity, degree_centrality, degree_histogram, dfs_order, eigenvector_centrality,
    has_cycle, hits, k_core, label_propagation, pagerank, personalized_pagerank, sssp_dijkstra,
    sssp_unweighted, strongly_connected_components, topological_sort, weakly_connected_components,
    weakly_connected_components_parallel, Components, FrontierEngine, HitsScores,
};
use ringo::concurrent::morsel_rows;
use ringo::gen::{edges_to_table, RmatConfig};
use ringo::graph::DirectedTopology;
use ringo::{Catalog, DirectedGraph, Direction, GcPolicy, NodeId, PageRankConfig, UndirectedGraph};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

const THREADS: [usize; 4] = [1, 2, 4, 8];
const UNSEEN: u32 = u32::MAX;

/// R-MAT digraph with a self-loop on every 7th node and every 11th node
/// deleted, leaving vacant slots.
fn test_graph(seed: u64) -> DirectedGraph {
    let e = ringo::gen::rmat(&RmatConfig {
        scale: 9,
        edges: 4_000,
        seed,
        ..Default::default()
    });
    let mut g = ringo::convert::table_to_graph(&edges_to_table(&e), "src", "dst").unwrap();
    let ids: Vec<NodeId> = g.node_ids().collect();
    for (i, &id) in ids.iter().enumerate() {
        if i % 7 == 0 {
            g.add_edge(id, id);
        }
    }
    for (i, &id) in ids.iter().enumerate() {
        if i % 11 == 3 {
            g.del_node(id);
        }
    }
    assert!(g.n_slots() > g.node_count(), "deletions leave vacant slots");
    g
}

fn config(threads: usize, tolerance: Option<f64>) -> PageRankConfig {
    PageRankConfig {
        iterations: 30,
        tolerance,
        threads,
        ..PageRankConfig::default()
    }
}

fn slot(g: &DirectedGraph, id: NodeId) -> usize {
    g.slot_of(id).expect("neighbor id is a node")
}

fn live(g: &DirectedGraph) -> Vec<bool> {
    (0..g.n_slots()).map(|s| g.slot_id(s).is_some()).collect()
}

fn by_slot<T: Copy>(g: &DirectedGraph, v: &[T]) -> Vec<(NodeId, T)> {
    (0..g.n_slots())
        .filter_map(|s| g.slot_id(s).map(|id| (id, v[s])))
        .collect()
}

fn assert_bits(what: &str, got: &[(NodeId, f64)], want: &[(NodeId, f64)]) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for ((ia, a), (ib, b)) in got.iter().zip(want) {
        assert_eq!(ia, ib, "{what}: slot order");
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: node {ia}: {a} vs {b}");
    }
}

// ---- oracles: the per-edge hash-lookup loops the index replaced ----

fn pagerank_oracle(g: &DirectedGraph, cfg: &PageRankConfig) -> Vec<(NodeId, f64)> {
    let n_slots = g.n_slots();
    let n = g.node_count() as f64;
    let live = live(g);
    let out_deg: Vec<u32> = (0..n_slots)
        .map(|s| g.out_nbrs_of_slot(s).len() as u32)
        .collect();
    let mut rank: Vec<f64> = live
        .iter()
        .map(|&l| if l { 1.0 / n } else { 0.0 })
        .collect();
    let mut contrib = vec![0.0f64; n_slots];
    let mut next = vec![0.0f64; n_slots];
    for _ in 0..cfg.iterations {
        for s in 0..n_slots {
            contrib[s] = if live[s] && out_deg[s] > 0 {
                rank[s] / f64::from(out_deg[s])
            } else {
                0.0
            };
        }
        // The kernel's dangling sum: per-morsel partials folded in morsel
        // order, over the same fixed morsels at every thread count.
        let m = morsel_rows();
        let dangling: f64 = (0..n_slots)
            .step_by(m)
            .map(|lo| {
                let mut s = 0.0;
                for i in lo..(lo + m).min(n_slots) {
                    if live[i] && out_deg[i] == 0 {
                        s += rank[i];
                    }
                }
                s
            })
            .fold(0.0, |a, b| a + b);
        let base = (1.0 - cfg.damping) / n + cfg.damping * dangling / n;
        for s in 0..n_slots {
            if !live[s] {
                next[s] = 0.0;
                continue;
            }
            let mut acc = 0.0;
            for &u in g.in_nbrs_of_slot(s) {
                acc += contrib[slot(g, u)];
            }
            next[s] = base + cfg.damping * acc;
        }
        let delta: f64 = rank.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
        std::mem::swap(&mut rank, &mut next);
        if cfg.tolerance.is_some_and(|tol| delta < tol) {
            break;
        }
    }
    by_slot(g, &rank)
}

fn ppr_oracle(g: &DirectedGraph, seeds: &[NodeId], cfg: &PageRankConfig) -> Vec<(NodeId, f64)> {
    let n_slots = g.n_slots();
    let seed_slots: Vec<usize> = seeds.iter().filter_map(|&s| g.slot_of(s)).collect();
    let seed_mass = 1.0 / seed_slots.len() as f64;
    let mut is_seed = vec![false; n_slots];
    let mut rank = vec![0.0f64; n_slots];
    for &s in &seed_slots {
        is_seed[s] = true;
        rank[s] = seed_mass;
    }
    let live = live(g);
    let out_deg: Vec<u32> = (0..n_slots)
        .map(|s| g.out_nbrs_of_slot(s).len() as u32)
        .collect();
    let mut contrib = vec![0.0f64; n_slots];
    let mut next = vec![0.0f64; n_slots];
    for _ in 0..cfg.iterations {
        for s in 0..n_slots {
            contrib[s] = if live[s] && out_deg[s] > 0 {
                rank[s] / f64::from(out_deg[s])
            } else {
                0.0
            };
        }
        let dangling: f64 = (0..n_slots)
            .filter(|&s| live[s] && out_deg[s] == 0)
            .map(|s| rank[s])
            .sum();
        for s in 0..n_slots {
            if !live[s] {
                next[s] = 0.0;
                continue;
            }
            let walk: f64 = g
                .in_nbrs_of_slot(s)
                .iter()
                .map(|&u| contrib[slot(g, u)])
                .sum();
            let restart = if is_seed[s] {
                ((1.0 - cfg.damping) + cfg.damping * dangling) * seed_mass
            } else {
                0.0
            };
            next[s] = restart + cfg.damping * walk;
        }
        std::mem::swap(&mut rank, &mut next);
    }
    by_slot(g, &rank)
}

fn normalize(v: &mut [f64]) {
    let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm > 0.0 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
}

/// `sum of from[nbr]` over the id list of each live slot.
fn pull_by_id<'g>(
    g: &'g DirectedGraph,
    from: &[f64],
    ids_of: impl Fn(usize) -> &'g [NodeId],
) -> Vec<f64> {
    (0..g.n_slots())
        .map(|s| match g.slot_id(s) {
            Some(_) => ids_of(s).iter().map(|&u| from[slot(g, u)]).sum(),
            None => 0.0,
        })
        .collect()
}

fn hits_oracle(g: &DirectedGraph, iterations: usize) -> Vec<(NodeId, HitsScores)> {
    let mut hub: Vec<f64> = live(g).iter().map(|&l| if l { 1.0 } else { 0.0 }).collect();
    let mut auth = hub.clone();
    for _ in 0..iterations {
        auth = pull_by_id(g, &hub, |s| g.in_nbrs_of_slot(s));
        normalize(&mut auth);
        hub = pull_by_id(g, &auth, |s| g.out_nbrs_of_slot(s));
        normalize(&mut hub);
    }
    (0..g.n_slots())
        .filter_map(|s| {
            g.slot_id(s).map(|id| {
                let scores = HitsScores {
                    hub: hub[s],
                    authority: auth[s],
                };
                (id, scores)
            })
        })
        .collect()
}

fn eigen_oracle(g: &DirectedGraph, max_iters: usize) -> Vec<(NodeId, f64)> {
    let mut score: Vec<f64> = live(g).iter().map(|&l| if l { 1.0 } else { 0.0 }).collect();
    normalize(&mut score);
    for _ in 0..max_iters {
        let pulled = pull_by_id(g, &score, |s| g.in_nbrs_of_slot(s));
        let mut next: Vec<f64> = (0..g.n_slots())
            .map(|s| match g.slot_id(s) {
                Some(_) => pulled[s] + score[s],
                None => 0.0,
            })
            .collect();
        normalize(&mut next);
        score = next;
    }
    by_slot(g, &score)
}

// ---- plain-array oracles for the traversals ----

/// Neighbor slots `slot` pushes to along `dir`, resolved by id.
fn push_slots(g: &DirectedGraph, s: usize, dir: Direction) -> Vec<usize> {
    let (a, b): (&[NodeId], &[NodeId]) = match dir {
        Direction::Out => (g.out_nbrs_of_slot(s), &[]),
        Direction::In => (g.in_nbrs_of_slot(s), &[]),
        Direction::Both => (g.out_nbrs_of_slot(s), g.in_nbrs_of_slot(s)),
    };
    a.iter().chain(b).map(|&id| slot(g, id)).collect()
}

/// Queue BFS: hop distance per slot, and per reached slot the minimum
/// slot among its previous-level neighbors (the engine's parent rule).
fn bfs_oracle(g: &DirectedGraph, src: usize, dir: Direction) -> (Vec<u32>, Vec<u32>) {
    let n = g.n_slots();
    let mut dist = vec![UNSEEN; n];
    let mut order = vec![src];
    dist[src] = 0;
    let mut q = VecDeque::from([src]);
    while let Some(u) = q.pop_front() {
        for v in push_slots(g, u, dir) {
            if dist[v] == UNSEEN {
                dist[v] = dist[u] + 1;
                order.push(v);
                q.push_back(v);
            }
        }
    }
    let mut parent = vec![UNSEEN; n];
    parent[src] = src as u32;
    for &u in &order {
        for v in push_slots(g, u, dir) {
            if v != src && dist[v] == dist[u] + 1 {
                parent[v] = parent[v].min(u as u32);
            }
        }
    }
    (dist, parent)
}

/// Component label per live slot: weak via union-find over every edge.
fn wcc_oracle(g: &DirectedGraph) -> Vec<u32> {
    let mut up: Vec<usize> = (0..g.n_slots()).collect();
    fn find(up: &mut [usize], mut x: usize) -> usize {
        while up[x] != x {
            up[x] = up[up[x]];
            x = up[x];
        }
        x
    }
    for (a, b) in g.edges() {
        let (ra, rb) = (find(&mut up, slot(g, a)), find(&mut up, slot(g, b)));
        up[ra.max(rb)] = ra.min(rb);
    }
    (0..g.n_slots()).map(|s| find(&mut up, s) as u32).collect()
}

/// Strong components by Kosaraju: finish order on the graph, then sweeps
/// over the reverse graph in reverse finish order.
fn scc_oracle(g: &DirectedGraph) -> Vec<u32> {
    let n = g.n_slots();
    let live = live(g);
    let mut seen = vec![false; n];
    let mut finish = Vec::new();
    for root in (0..n).filter(|&s| live[s]) {
        if seen[root] {
            continue;
        }
        seen[root] = true;
        let mut stack = vec![(root, push_slots(g, root, Direction::Out), 0usize)];
        while let Some((u, nbrs, i)) = stack.last_mut() {
            let (u, next) = (*u, nbrs.get(*i).copied());
            *i += 1;
            match next {
                Some(v) if !seen[v] => {
                    seen[v] = true;
                    stack.push((v, push_slots(g, v, Direction::Out), 0));
                }
                Some(_) => {}
                None => {
                    finish.push(u);
                    stack.pop();
                }
            }
        }
    }
    let mut comp = vec![UNSEEN; n];
    for (c, &root) in finish.iter().rev().enumerate() {
        if comp[root] != UNSEEN {
            continue;
        }
        comp[root] = c as u32;
        let mut stack = vec![root];
        while let Some(u) = stack.pop() {
            for v in push_slots(g, u, Direction::In) {
                if comp[v] == UNSEEN {
                    comp[v] = c as u32;
                    stack.push(v);
                }
            }
        }
    }
    comp
}

/// Node sets of a labeling, canonically sorted.
fn groups(pairs: impl Iterator<Item = (NodeId, u32)>) -> Vec<Vec<NodeId>> {
    let mut by_label: HashMap<u32, Vec<NodeId>> = HashMap::new();
    for (id, label) in pairs {
        by_label.entry(label).or_default().push(id);
    }
    let mut out: Vec<Vec<NodeId>> = by_label
        .into_values()
        .map(|mut v| {
            v.sort_unstable();
            v
        })
        .collect();
    out.sort();
    out
}

fn oracle_groups(g: &DirectedGraph, labels: &[u32]) -> Vec<Vec<NodeId>> {
    groups(by_slot(g, labels).into_iter())
}

fn kernel_groups(c: &Components) -> Vec<Vec<NodeId>> {
    groups(c.comp_of.iter().map(|(id, &label)| (id, label)))
}

/// Triangles `a < b < c` by id, each closing edge checked by lookup.
fn triangle_oracle(u: &UndirectedGraph) -> u64 {
    let mut count = 0;
    for a in u.node_ids() {
        let nbrs = u.nbrs(a);
        for (i, &b) in nbrs.iter().enumerate() {
            if b <= a {
                continue;
            }
            for &c in &nbrs[i + 1..] {
                if u.has_edge(b, c) {
                    count += 1;
                }
            }
        }
    }
    count
}

// ---- checks ----

fn sources(g: &DirectedGraph) -> Vec<NodeId> {
    g.node_ids().step_by(97).take(4).collect()
}

fn check_scores(g: &DirectedGraph, threads: usize) {
    for tolerance in [None, Some(1e-9)] {
        let cfg = config(threads, tolerance);
        assert_bits("pagerank", &pagerank(g, &cfg), &pagerank_oracle(g, &cfg));
    }
    let cfg = config(threads, None);
    let seeds = sources(g);
    assert_bits(
        "personalized pagerank",
        &personalized_pagerank(g, &seeds, &cfg),
        &ppr_oracle(g, &seeds, &cfg),
    );
    let got = hits(g, 12, threads);
    let want = hits_oracle(g, 12);
    let split = |v: &[(NodeId, HitsScores)], hub: bool| -> Vec<(NodeId, f64)> {
        v.iter()
            .map(|&(id, s)| (id, if hub { s.hub } else { s.authority }))
            .collect()
    };
    assert_bits("hits hubs", &split(&got, true), &split(&want, true));
    assert_bits(
        "hits authorities",
        &split(&got, false),
        &split(&want, false),
    );
    assert_bits(
        "eigenvector",
        &eigenvector_centrality(g, 15, 0.0, threads),
        &eigen_oracle(g, 15),
    );
}

fn check_traversals(g: &DirectedGraph, threads: usize) {
    for dir in [Direction::Out, Direction::In, Direction::Both] {
        for src in sources(g) {
            let (dist, parent) = bfs_oracle(g, slot(g, src), dir);
            for (alpha, beta) in [(15, 18), (0, 0), (u64::MAX, u64::MAX)] {
                let state = FrontierEngine::with_params(g, dir, threads, alpha, beta)
                    .run(src)
                    .expect("source is a node");
                assert_eq!(state.dist, dist, "bfs dist from {src} {dir:?}");
                assert_eq!(state.parent, parent, "bfs parent from {src} {dir:?}");
            }
            let sssp = sssp_unweighted(g, src, dir);
            let reached = dist.iter().filter(|&&d| d != UNSEEN).count();
            assert_eq!(sssp.len(), reached, "sssp reach from {src}");
            for (id, &d) in sssp.iter() {
                assert_eq!(d, dist[slot(g, id)], "sssp hops to {id}");
            }
        }
    }
    assert_eq!(
        kernel_groups(&weakly_connected_components(g)),
        oracle_groups(g, &wcc_oracle(g)),
        "wcc"
    );
    assert_eq!(
        kernel_groups(&strongly_connected_components(g)),
        oracle_groups(g, &scc_oracle(g)),
        "scc"
    );
}

#[test]
fn score_kernels_are_bit_identical_to_hash_lookup_loops() {
    for seed in [3, 41] {
        let g = test_graph(seed);
        for threads in THREADS {
            check_scores(&g, threads);
        }
    }
}

/// PageRank on a graph spanning several morsels, with dangling nodes in
/// each: the output is bitwise equal at every thread count (and to the
/// oracle).
#[test]
fn pagerank_is_bit_identical_at_every_thread_count() {
    let n = 150_000i64;
    let edges: Vec<(i64, i64)> = (0..n)
        .filter(|i| i % 3 != 0)
        .flat_map(|i| [(i, (i * 7 + 1) % n), (i, (i * 13 + 5) % n)])
        .collect();
    let g = ringo::convert::table_to_graph(&edges_to_table(&edges), "src", "dst").unwrap();
    assert!(g.n_slots() > 2 * morsel_rows(), "spans several morsels");
    let cfg = |threads| PageRankConfig {
        iterations: 10,
        ..config(threads, None)
    };
    let want = pagerank(&g, &cfg(1));
    assert_bits("pagerank vs oracle", &want, &pagerank_oracle(&g, &cfg(1)));
    for threads in THREADS {
        assert_bits(
            &format!("pagerank at {threads} threads"),
            &pagerank(&g, &cfg(threads)),
            &want,
        );
    }
}

#[test]
fn traversals_and_components_match_plain_array_oracles() {
    let g = test_graph(7);
    for threads in THREADS {
        check_traversals(&g, threads);
    }
}

#[test]
fn degree_ordered_triangles_match_brute_force() {
    for seed in [2, 19] {
        let g = test_graph(seed);
        let u = g.to_undirected();
        let want = triangle_oracle(&u);
        assert!(want > 0, "R-MAT graph closes triangles");
        for threads in THREADS {
            assert_eq!(count_triangles(&u, threads), want, "threads {threads}");
        }
    }
}

/// Same nodes and edges, built from scratch (different slots).
fn rebuilt(g: &DirectedGraph) -> DirectedGraph {
    let mut fresh = DirectedGraph::new();
    for id in g.node_ids() {
        fresh.add_node(id);
    }
    for (s, d) in g.edges() {
        fresh.add_edge(s, d);
    }
    fresh
}

fn by_id(v: Vec<(NodeId, f64)>) -> HashMap<NodeId, f64> {
    v.into_iter().collect()
}

#[test]
fn mutation_after_indexing_matches_a_fresh_graph() {
    type Edit = fn(&mut DirectedGraph, &[NodeId]);
    let edits: [(&str, Edit); 4] = [
        ("add_edge", |g, ids| {
            g.add_edge(ids[0], ids[5]);
            g.add_edge(ids[9], 1 << 40);
        }),
        ("del_edge", |g, ids| {
            let victim = ids.iter().find(|&&id| !g.out_nbrs(id).is_empty());
            let &src = victim.expect("some node has out-edges");
            let dst = g.out_nbrs(src)[0];
            assert!(g.del_edge(src, dst));
        }),
        ("del_node", |g, ids| {
            g.del_node(ids[1]);
        }),
        ("add_node", |g, _| {
            g.add_node(-7);
        }),
    ];
    for (name, edit) in edits {
        let mut g = test_graph(13);
        let ids: Vec<NodeId> = g.node_ids().collect();
        let stale = Arc::clone(g.topology());
        edit(&mut g, &ids);
        assert!(
            !Arc::ptr_eq(&stale, g.topology()),
            "{name} dropped the index"
        );
        check_scores(&g, 2);
        check_traversals(&g, 2);

        let fresh = rebuilt(&g);
        let cfg = config(2, None);
        let (a, b) = (by_id(pagerank(&g, &cfg)), by_id(pagerank(&fresh, &cfg)));
        assert_eq!(a.len(), b.len(), "{name}");
        for (id, x) in &a {
            assert!((x - b[id]).abs() < 1e-12, "{name}: pagerank of {id}");
        }
        for src in sources(&g) {
            let (da, db) = (
                sssp_unweighted(&g, src, Direction::Out),
                sssp_unweighted(&fresh, src, Direction::Out),
            );
            assert_eq!(da.len(), db.len(), "{name}: reach from {src}");
            for (id, d) in da.iter() {
                assert_eq!(Some(d), db.get(id), "{name}: hops to {id}");
            }
        }
        assert_eq!(
            kernel_groups(&weakly_connected_components(&g)),
            kernel_groups(&weakly_connected_components(&fresh)),
            "{name}: wcc"
        );
        assert_eq!(
            kernel_groups(&strongly_connected_components(&g)),
            kernel_groups(&strongly_connected_components(&fresh)),
            "{name}: scc"
        );
    }
}

#[test]
fn compacted_version_shares_the_index_and_the_answers() {
    let cat = Catalog::with_policy(GcPolicy::Manual);
    let mut g = test_graph(29);
    let ids: Vec<NodeId> = g.node_ids().collect();
    for &id in ids.iter().take(40) {
        if let Some(&dst) = g.out_nbrs(id).first() {
            g.del_edge(id, dst);
        }
    }
    cat.publish_graph("g", g);
    let current = || cat.get("g").and_then(|d| d.as_graph().cloned()).unwrap();
    let v1 = current();
    let (_, stats) = cat.compact_graph("g").expect("g is a graph");
    assert!(
        stats.reclaimed_bytes() > 0,
        "compaction had slabs to rewrite"
    );
    let v2 = current();
    assert!(!Arc::ptr_eq(&v1, &v2), "compaction published a new version");
    assert!(Arc::ptr_eq(v1.topology(), v2.topology()), "index shared");
    for threads in THREADS {
        let cfg = config(threads, None);
        assert_bits(
            "pagerank",
            &pagerank(v2.as_ref(), &cfg),
            &pagerank(v1.as_ref(), &cfg),
        );
    }
    for src in sources(&v1) {
        let (a, b) = (
            sssp_unweighted(v1.as_ref(), src, Direction::Both),
            sssp_unweighted(v2.as_ref(), src, Direction::Both),
        );
        assert_eq!(a.len(), b.len());
        for (id, d) in a.iter() {
            assert_eq!(Some(d), b.get(id));
        }
    }
    assert_eq!(
        kernel_groups(&strongly_connected_components(v1.as_ref())),
        kernel_groups(&strongly_connected_components(v2.as_ref())),
    );
    check_traversals(&v2, 2);
}

// ---- the kernels rerouted from per-edge id lookups onto the index ----

/// The undirected view of [`test_graph`], with every 13th node deleted
/// so its own slot space has vacancies too (self-loops carry over).
fn test_undirected(seed: u64) -> UndirectedGraph {
    let mut u = test_graph(seed).to_undirected();
    let ids: Vec<NodeId> = u.node_ids().collect();
    for &id in ids.iter().skip(5).step_by(13) {
        u.del_node(id);
    }
    assert!(u.n_slots() > u.node_count(), "deletions leave vacant slots");
    u
}

fn uslot(u: &UndirectedGraph, id: NodeId) -> usize {
    u.slot_of(id).expect("neighbor id is a node")
}

/// Core number per slot by naive peeling: repeatedly remove a node of
/// minimum remaining degree (self-loops count once, as in the kernel).
fn core_oracle(u: &UndirectedGraph) -> Vec<u32> {
    let n = u.n_slots();
    let mut deg: Vec<usize> = (0..n).map(|s| u.nbrs_of_slot(s).len()).collect();
    let mut left: Vec<usize> = (0..n).filter(|&s| u.slot_id(s).is_some()).collect();
    let mut core = vec![0u32; n];
    let mut k = 0;
    while let Some(i) = (0..left.len()).min_by_key(|&i| deg[left[i]]) {
        let v = left.swap_remove(i);
        k = k.max(deg[v]);
        core[v] = k as u32;
        for &id in u.nbrs_of_slot(v) {
            let w = uslot(u, id);
            if w != v && left.contains(&w) {
                deg[w] -= 1;
            }
        }
    }
    core
}

/// Preorder of a recursive DFS along out-edges in adjacency order.
fn dfs_oracle(g: &DirectedGraph, src: NodeId) -> Vec<NodeId> {
    fn visit(g: &DirectedGraph, s: usize, seen: &mut [bool], order: &mut Vec<NodeId>) {
        seen[s] = true;
        order.push(g.slot_id(s).unwrap());
        for &id in g.out_nbrs_of_slot(s) {
            let v = slot(g, id);
            if !seen[v] {
                visit(g, v, seen, order);
            }
        }
    }
    let mut order = Vec::new();
    visit(g, slot(g, src), &mut vec![false; g.n_slots()], &mut order);
    order
}

/// Level-synchronous Kahn with slot-order ties (the kernel's contract):
/// `None` when some node never reaches in-degree zero.
fn topo_oracle(g: &DirectedGraph) -> Option<Vec<NodeId>> {
    let live = live(g);
    let mut indeg: Vec<usize> = (0..g.n_slots())
        .map(|s| g.in_nbrs_of_slot(s).len())
        .collect();
    let mut level: Vec<usize> = (0..g.n_slots())
        .filter(|&s| live[s] && indeg[s] == 0)
        .collect();
    let mut order = Vec::new();
    while !level.is_empty() {
        order.extend(level.iter().map(|&s| g.slot_id(s).unwrap()));
        let mut next = Vec::new();
        for &s in &level {
            for &id in g.out_nbrs_of_slot(s) {
                let v = slot(g, id);
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    next.push(v);
                }
            }
        }
        next.sort_unstable();
        level = next;
    }
    (order.len() == g.node_count()).then_some(order)
}

/// Components of `u` without node `skip_node` and edge `skip_edge`.
fn components_without(
    u: &UndirectedGraph,
    skip_node: Option<NodeId>,
    skip_edge: Option<(NodeId, NodeId)>,
) -> usize {
    let mut up: Vec<usize> = (0..u.n_slots()).collect();
    fn find(up: &mut [usize], mut x: usize) -> usize {
        while up[x] != x {
            up[x] = up[up[x]];
            x = up[x];
        }
        x
    }
    for (a, b) in u.edges() {
        if skip_node.is_some_and(|x| x == a || x == b) || skip_edge == Some((a, b)) {
            continue;
        }
        let (ra, rb) = (find(&mut up, uslot(u, a)), find(&mut up, uslot(u, b)));
        up[ra.max(rb)] = ra.min(rb);
    }
    (0..u.n_slots())
        .filter(|&s| u.slot_id(s).is_some_and(|id| Some(id) != skip_node))
        .filter(|&s| find(&mut up, s) == s)
        .count()
}

/// Articulation points and bridges by deletion: a node or edge is one
/// when removing it leaves more components than before.
fn cut_oracle(u: &UndirectedGraph) -> (Vec<NodeId>, Vec<(NodeId, NodeId)>) {
    let base = components_without(u, None, None);
    let mut points: Vec<NodeId> = u
        .node_ids()
        .filter(|&id| components_without(u, Some(id), None) > base)
        .collect();
    points.sort_unstable();
    let mut bridges: Vec<(NodeId, NodeId)> = u
        .edges()
        .filter(|&(a, b)| a != b && components_without(u, None, Some((a, b))) > base)
        .map(|(a, b)| (a.min(b), a.max(b)))
        .collect();
    bridges.sort_unstable();
    (points, bridges)
}

/// Edge weights that are multiples of 0.5, so every path sum is exact
/// and any correct Dijkstra gives bit-identical distances.
fn weight(a: NodeId, b: NodeId) -> f64 {
    (a * 7 + b).rem_euclid(5) as f64 * 0.5
}

/// Array Dijkstra: settle the closest unsettled slot, O(V²).
fn dijkstra_oracle(g: &DirectedGraph, src: NodeId) -> HashMap<NodeId, f64> {
    let n = g.n_slots();
    let mut dist: Vec<Option<f64>> = vec![None; n];
    let mut done = vec![false; n];
    dist[slot(g, src)] = Some(0.0);
    while let Some(u) = (0..n)
        .filter(|&s| !done[s] && dist[s].is_some())
        .min_by(|&a, &b| dist[a].unwrap().total_cmp(&dist[b].unwrap()))
    {
        done[u] = true;
        let (uid, du) = (g.slot_id(u).unwrap(), dist[u].unwrap());
        for &v in g.out_nbrs_of_slot(u) {
            let (vs, cand) = (slot(g, v), du + weight(uid, v));
            if dist[vs].is_none_or(|d| cand < d) {
                dist[vs] = Some(cand);
            }
        }
    }
    (0..n)
        .filter_map(|s| Some((g.slot_id(s)?, dist[s]?)))
        .collect()
}

/// The xorshift64* generator label propagation draws from.
struct XorShift(u64);

impl XorShift {
    fn below(&mut self, n: usize) -> usize {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        (x.wrapping_mul(0x2545_f491_4f6c_dd1d) % n as u64) as usize
    }
}

/// Label propagation as it read neighbors by id before the index:
/// `(id, packed label)` in slot order, and the packed sizes.
fn label_propagation_oracle(
    u: &UndirectedGraph,
    max_iters: usize,
    seed: u64,
) -> (Vec<(NodeId, u32)>, Vec<usize>) {
    let n = u.n_slots();
    let mut label: Vec<u32> = (0..n as u32).collect();
    let live: Vec<usize> = (0..n).filter(|&s| u.slot_id(s).is_some()).collect();
    let mut rng = XorShift(seed | 1);
    let mut order = live.clone();
    let mut counts: HashMap<u32, usize> = HashMap::new();
    for _ in 0..max_iters {
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i + 1));
        }
        let mut changed = false;
        for &s in &order {
            counts.clear();
            for &id in u.nbrs_of_slot(s) {
                let ns = uslot(u, id);
                if ns != s {
                    *counts.entry(label[ns]).or_insert(0) += 1;
                }
            }
            let Some(&best) = counts.values().max() else {
                continue;
            };
            let mut tied: Vec<u32> = counts
                .iter()
                .filter(|(_, &c)| c == best)
                .map(|(&l, _)| l)
                .collect();
            let new = if tied.contains(&label[s]) {
                label[s]
            } else {
                tied.sort_unstable();
                tied[rng.below(tied.len())]
            };
            changed |= new != label[s];
            label[s] = new;
        }
        if !changed {
            break;
        }
    }
    let mut dense: HashMap<u32, u32> = HashMap::new();
    let mut sizes = Vec::new();
    let mut packed = Vec::new();
    for &s in &live {
        let next = dense.len() as u32;
        let c = *dense.entry(label[s]).or_insert(next);
        if c as usize == sizes.len() {
            sizes.push(0);
        }
        sizes[c as usize] += 1;
        packed.push((u.slot_id(s).unwrap(), c));
    }
    (packed, sizes)
}

/// The ANF sweep as it read out-neighbors by id before the index.
fn anf_oracle(g: &DirectedGraph, max_hops: usize, k: usize, seed: u64) -> Vec<f64> {
    let n = g.n_slots();
    let live = live(g);
    let mut cur = vec![0u64; n * k];
    let mut state = seed | 1;
    for s in (0..n).filter(|&s| live[s]) {
        for j in 0..k {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            cur[s * k + j] |= 1u64 << (state.trailing_zeros() as usize).min(62);
        }
    }
    let n_live = live.iter().filter(|&&l| l).count();
    let estimate = |bits: &[u64], s: usize| {
        let mean_b = bits[s * k..s * k + k]
            .iter()
            .map(|m| f64::from(m.trailing_ones()))
            .sum::<f64>()
            / k as f64;
        2f64.powf(mean_b) / 0.773_51
    };
    let mut curve = Vec::new();
    for _ in 0..max_hops {
        let mut next = cur.clone();
        for s in (0..n).filter(|&s| live[s]) {
            for &id in g.out_nbrs_of_slot(s) {
                let v = slot(g, id);
                for j in 0..k {
                    next[s * k + j] |= cur[v * k + j];
                }
            }
        }
        cur = next;
        let total: f64 = (0..n).filter(|&s| live[s]).map(|s| estimate(&cur, s)).sum();
        curve.push((total - n_live as f64).max(0.0));
    }
    curve
}

/// Degree assortativity as it read endpoint degrees by id before the
/// index.
fn assortativity_oracle(g: &DirectedGraph) -> f64 {
    let deg = |s: usize| (g.out_nbrs_of_slot(s).len() + g.in_nbrs_of_slot(s).len()) as f64;
    let mut n = 0f64;
    let (mut sx, mut sy, mut sxx, mut syy, mut sxy) = (0f64, 0f64, 0f64, 0f64, 0f64);
    for s in (0..g.n_slots()).filter(|&s| g.slot_id(s).is_some()) {
        let x = deg(s);
        for &v in g.out_nbrs_of_slot(s) {
            let y = deg(slot(g, v));
            n += 1.0;
            sx += x;
            sy += y;
            sxx += x * x;
            syy += y * y;
            sxy += x * y;
        }
    }
    let cov = sxy / n - (sx / n) * (sy / n);
    let vx = sxx / n - (sx / n) * (sx / n);
    let vy = syy / n - (sy / n) * (sy / n);
    cov / (vx * vy).sqrt()
}

/// Degree along `dir` per live slot, from the adjacency lists.
fn degree_oracle(g: &DirectedGraph, dir: Direction) -> Vec<(NodeId, usize)> {
    let (out, inn) = match dir {
        Direction::Out => (1, 0),
        Direction::In => (0, 1),
        Direction::Both => (1, 1),
    };
    (0..g.n_slots())
        .filter_map(|s| {
            let d = out * g.out_nbrs_of_slot(s).len() + inn * g.in_nbrs_of_slot(s).len();
            Some((g.slot_id(s)?, d))
        })
        .collect()
}

fn check_undirected_kernels(u: &UndirectedGraph) {
    let want = core_oracle(u);
    let cores = core_numbers(u);
    assert_eq!(cores.len(), u.node_count(), "core numbers cover the nodes");
    for s in (0..u.n_slots()).filter(|&s| u.slot_id(s).is_some()) {
        let id = u.slot_id(s).unwrap();
        assert_eq!(cores.get(id), Some(&want[s]), "core number of {id}");
    }
    let core3 = k_core(u, 3);
    let in3 = |id: NodeId| want[uslot(u, id)] >= 3;
    let mut nodes: Vec<NodeId> = core3.node_ids().collect();
    nodes.sort_unstable();
    let mut want_nodes: Vec<NodeId> = u.node_ids().filter(|&id| in3(id)).collect();
    want_nodes.sort_unstable();
    assert!(!want_nodes.is_empty(), "the test graph has a 3-core");
    assert_eq!(nodes, want_nodes, "3-core nodes");
    for &id in &nodes {
        let want_nbrs: Vec<NodeId> = u.nbrs(id).iter().copied().filter(|&n| in3(n)).collect();
        assert_eq!(core3.nbrs(id), want_nbrs, "3-core neighbors of {id}");
    }

    let cut = cut_structure(u);
    let (points, bridges) = cut_oracle(u);
    assert!(!bridges.is_empty(), "the test graph has bridges");
    assert_eq!(cut.articulation_points, points, "articulation points");
    assert_eq!(cut.bridges, bridges, "bridges");

    for seed in [1, 8] {
        let got = label_propagation(u, 10, seed);
        let (packed, sizes) = label_propagation_oracle(u, 10, seed);
        assert_eq!(got.sizes, sizes, "label propagation sizes, seed {seed}");
        for (id, c) in packed {
            assert_eq!(got.comp_of.get(id), Some(&c), "community of {id}");
        }
    }
}

fn check_directed_kernels(g: &DirectedGraph, threads: usize) {
    for src in sources(g) {
        assert_eq!(dfs_order(g, src), dfs_oracle(g, src), "dfs from {src}");
        let dist = sssp_dijkstra(g, src, weight);
        let want = dijkstra_oracle(g, src);
        assert_eq!(dist.len(), want.len(), "dijkstra reach from {src}");
        for (id, d) in dist.iter() {
            assert_eq!(d.to_bits(), want[&id].to_bits(), "dijkstra to {id}");
        }
    }
    assert_eq!(topological_sort(g), topo_oracle(g), "topological order");
    assert_eq!(
        kernel_groups(&weakly_connected_components_parallel(g, threads)),
        oracle_groups(g, &wcc_oracle(g)),
        "parallel wcc"
    );
    let got = approx_neighborhood_function(g, 5, 8, 17);
    let want = anf_oracle(g, 5, 8, 17);
    let got: Vec<u64> = got.iter().map(|x| x.to_bits()).collect();
    let want: Vec<u64> = want.iter().map(|x| x.to_bits()).collect();
    assert_eq!(got, want, "anf curve");
    assert_eq!(
        degree_assortativity(g).to_bits(),
        assortativity_oracle(g).to_bits(),
        "assortativity"
    );
    let n = g.node_count() as f64 - 1.0;
    for dir in [Direction::Out, Direction::In, Direction::Both] {
        let want = degree_oracle(g, dir);
        let got: Vec<(NodeId, f64)> = degree_centrality(g, dir);
        let scaled: Vec<(NodeId, f64)> = want.iter().map(|&(id, d)| (id, d as f64 / n)).collect();
        assert_bits("degree centrality", &got, &scaled);
        let mut hist: HashMap<usize, usize> = HashMap::new();
        for (_, d) in want {
            *hist.entry(d).or_default() += 1;
        }
        let mut hist: Vec<(usize, usize)> = hist.into_iter().collect();
        hist.sort_unstable();
        assert_eq!(degree_histogram(g, dir), hist, "degree histogram {dir:?}");
    }
}

/// [`test_graph`] without the edges that point to a smaller id: a DAG
/// on the same (vacancy-holding) slots.
fn test_dag(seed: u64) -> DirectedGraph {
    let mut g = test_graph(seed);
    let back: Vec<(NodeId, NodeId)> = g.edges().filter(|&(s, d)| s >= d).collect();
    for (s, d) in back {
        g.del_edge(s, d);
    }
    g
}

/// ANF, topological sort and the index build size their parallelism
/// from `RINGO_THREADS`, so each thread count runs the checks in a child
/// process: no test in this process sees the variable change.
#[test]
fn rerouted_kernels_match_id_lookup_oracles() {
    for threads in THREADS {
        let out = std::process::Command::new(std::env::current_exe().unwrap())
            .args(["--exact", "rerouted_kernels_at_ringo_threads", "--ignored"])
            .env("RINGO_THREADS", threads.to_string())
            .output()
            .expect("spawn child test process");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && stdout.contains("1 passed"),
            "RINGO_THREADS={threads}:\n{stdout}{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
#[ignore = "run by rerouted_kernels_match_id_lookup_oracles, once per thread count"]
fn rerouted_kernels_at_ringo_threads() {
    let threads = ringo::concurrent::num_threads();
    let g = test_graph(5);
    assert!(has_cycle(&g), "self-loops are cycles");
    check_directed_kernels(&g, threads);
    let dag = test_dag(5);
    assert!(!has_cycle(&dag), "no edge points back");
    check_directed_kernels(&dag, threads);
    check_undirected_kernels(&test_undirected(5));
}
