//! Dynamic graph maintenance — the design argument of paper §2.2.
//!
//! Ringo's node-hash-table representation pays a little on traversal to
//! make single-edge updates O(degree) instead of CSR's O(E). Kernels win
//! the traversal speed back by reading a read-only CSR of each graph
//! version (`Topology`), which every edit invalidates. This example
//! applies one stream of edge deletions two ways and times them:
//!
//! * edit the hash graph alone — O(degree) per deletion;
//! * edit it and re-index after every deletion — the O(E) a static CSR
//!   would pay per edit.
//!
//! It then checks that the rebuilt index, resolved back to ids, equals
//! the mutated graph's adjacency.
//!
//! Run with `cargo run --release --example dynamic_updates`.

use ringo::graph::{DirectedGraph, DirectedTopology};
use ringo::Ringo;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let _trace = ringo::trace::init_from_env();
    let ringo = Ringo::new();
    let edges_table = ringo.generate_lj_like(0.05, 99);
    let g = ringo.to_graph(&edges_table, "src", "dst")?;
    println!(
        "graph: {} nodes, {} edges (hash-table {} bytes, index {} bytes)",
        g.node_count(),
        g.edge_count(),
        g.mem_size(),
        g.topology().mem_size()
    );

    // Pick every 97th distinct edge as the deletion stream.
    let mut victims: Vec<(i64, i64)> = g.edges().step_by(97).collect();
    victims.truncate(200);
    println!("deleting {} edges, two ways...\n", victims.len());

    // Hash-table graph alone: O(degree) per deletion.
    let mut dynamic: DirectedGraph = g.clone();
    let t0 = Instant::now();
    for &(s, d) in &victims {
        assert!(dynamic.del_edge(s, d));
    }
    let dyn_time = t0.elapsed();
    println!(
        "node-hash-table graph:        {} deletions in {:.2?} ({:.1}us each)",
        victims.len(),
        dyn_time,
        dyn_time.as_micros() as f64 / victims.len() as f64
    );

    // Re-indexed after every deletion: O(E) per edit, as for a CSR.
    let mut indexed: DirectedGraph = g.clone();
    let t0 = Instant::now();
    for &(s, d) in &victims {
        assert!(indexed.del_edge(s, d));
        std::hint::black_box(indexed.topology());
    }
    let csr_time = t0.elapsed();
    println!(
        "graph + CSR index per edit:   {} deletions in {:.2?} ({:.1}us each)",
        victims.len(),
        csr_time,
        csr_time.as_micros() as f64 / victims.len() as f64
    );
    println!(
        "\nA read-only CSR is {:.0}x slower per edit — the trade the paper\n\
         makes deliberately: 'deleting a single edge only requires time\n\
         linear in the node degree'. Ringo indexes once per version instead.",
        csr_time.as_secs_f64() / dyn_time.as_secs_f64().max(1e-9)
    );

    // The rebuilt index, resolved back to ids, is the mutated adjacency.
    let topo = indexed.topology();
    assert_eq!(topo.edge_count(), dynamic.edge_count());
    let ids = |row: &[u32]| -> Vec<i64> {
        row.iter()
            .map(|&s| indexed.slot_id(s as usize).expect("row slot is live"))
            .collect()
    };
    for slot in 0..indexed.n_slots() {
        let Some(id) = indexed.slot_id(slot) else {
            continue;
        };
        assert_eq!(ids(topo.out_row(slot)), dynamic.out_nbrs(id), "out of {id}");
        assert_eq!(ids(topo.in_row(slot)), dynamic.in_nbrs(id), "in of {id}");
    }
    println!("rebuilt index verified equal to the mutated adjacency.");

    // Dynamic insertion works too, including brand-new nodes.
    let new_node = 1 << 40;
    dynamic.add_edge(new_node, victims[0].0);
    assert!(dynamic.has_edge(new_node, victims[0].0));
    println!("inserted a fresh node {new_node} with one edge — still consistent.");
    Ok(())
}
