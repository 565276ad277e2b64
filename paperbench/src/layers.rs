//! Per-crate split of a traced session, read from the flight recorder.
//!
//! The benchmark's own span around each verb is a root on the analyst's
//! (main) thread; the library's spans nest under it. A span's self time is
//! its duration minus the part of it that its child spans cover, so the
//! self times of one thread's span tree add up to the roots' durations.
//! Pool workers record their own roots (morsels); those count towards busy
//! shares and span counts, never towards the analyst's blocking time.

use crate::session::Session;
use ringo_core::trace::{self, EventKind};
use std::collections::{BTreeMap, HashMap};

/// Crates that record spans, each with its per-layer self-time metric.
/// (`ringo-graph` records none: its work shows inside `convert` and `core`.)
const CRATES: [(&str, &str); 5] = [
    ("table", "layer.table.self_s"),
    ("concurrent", "layer.concurrent.self_s"),
    ("convert", "layer.convert.self_s"),
    ("algo", "layer.algo.self_s"),
    ("core", "layer.core.self_s"),
];

/// The crate a span name is attributed to, by its first dotted component.
fn crate_of(name: &str) -> &'static str {
    match name.split('.').next().unwrap_or("") {
        "table" | "plan" => "table",
        "sort" | "pool" | "epoch" => "concurrent",
        "convert" => "convert",
        "algo" => "algo",
        "core" | "catalog" => "core",
        _ => "other",
    }
}

struct SpanRec {
    name: &'static str,
    id: u64,
    parent: u64,
    start: u64,
    end: u64,
    rows_in: u64,
    rows_out: u64,
}

impl SpanRec {
    fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Everything the recorder holds for the window, split by thread.
struct Drained {
    main: Vec<SpanRec>,
    main_self_ns: Vec<u64>,
    workers: Vec<SpanRec>,
    dropped: u64,
    counters: HashMap<&'static str, u64>,
}

fn drain() -> Drained {
    let mut main = Vec::new();
    let mut workers = Vec::new();
    let mut dropped = 0;
    for tl in trace::timelines_snapshot() {
        dropped += tl.dropped;
        let spans = tl
            .events
            .iter()
            .filter(|e| e.kind == EventKind::End)
            .map(|e| SpanRec {
                name: e.name,
                id: e.span_id,
                parent: e.parent_id,
                start: e.start_ns,
                end: e.t_ns,
                rows_in: e.rows_in,
                rows_out: e.rows_out,
            });
        if tl.thread_name == "main" {
            main.extend(spans);
        } else {
            workers.extend(spans);
        }
    }
    let main_self_ns = self_times(&main);
    let counters = trace::counters_snapshot()
        .into_iter()
        .map(|c| (c.name, c.value))
        .collect();
    Drained {
        main,
        main_self_ns,
        workers,
        dropped,
        counters,
    }
}

/// Self time of each span of one thread: duration minus the union of its
/// children's intervals.
fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur().saturating_sub(covered)
        })
        .collect()
}

impl Drained {
    fn self_s(&self, names: impl Fn(&str) -> bool) -> f64 {
        let ns: u64 = self
            .main
            .iter()
            .zip(&self.main_self_ns)
            .filter(|(s, _)| names(s.name))
            .map(|(_, &n)| n)
            .sum();
        ns as f64 * 1e-9
    }

    fn dur_s(&self, name: &str) -> f64 {
        let ns: u64 = self
            .main
            .iter()
            .filter(|s| s.name == name)
            .map(SpanRec::dur)
            .sum();
        ns as f64 * 1e-9
    }

    fn all(&self) -> impl Iterator<Item = &SpanRec> {
        self.main.iter().chain(&self.workers)
    }

    fn count(&self, name: &str) -> f64 {
        self.all().filter(|s| s.name == name).count() as f64
    }

    fn rows(&self, names: &[&str]) -> (f64, f64) {
        self.main
            .iter()
            .filter(|s| names.contains(&s.name))
            .fold((0.0, 0.0), |(i, o), s| {
                (i + s.rows_in as f64, o + s.rows_out as f64)
            })
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Drains the recorder after a traced session and returns its per-layer
/// figures, including `trace.events.dropped` and `trace.coverage`.
pub fn analyze(s: &Session, threads: usize) -> BTreeMap<&'static str, f64> {
    let d = drain();
    let wall = s.wall();
    let mut m = BTreeMap::new();

    // table
    let load_s = d.self_s(|n| n == "table.load");
    m.insert("table.load.self_s", load_s);
    let load_bytes = s.extra.get("file.bytes").copied().unwrap_or(0.0) * d.count("table.load");
    m.insert("table.load.bytes_per_s", ratio(load_bytes, load_s));
    let select_names = ["table.select", "table.select_in_place"];
    m.insert(
        "table.select.self_s",
        d.self_s(|n| select_names.contains(&n) || n == "plan.morsel.select"),
    );
    let (sel_in, sel_out) = d.rows(&select_names);
    m.insert("table.select.selectivity", ratio(sel_out, sel_in));
    m.insert(
        "table.join.self_s",
        d.self_s(|n| n == "table.join" || n == "plan.morsel.join"),
    );
    let (join_in, join_out) = d.rows(&["table.join"]);
    m.insert("table.join.out_per_in", ratio(join_out, join_in));
    m.insert("table.gather.count", d.count("table.gather"));
    m.insert("table.gather.self_s", d.self_s(|n| n == "table.gather"));
    let morsel_ns: u64 = d
        .all()
        .filter(|s| s.name.starts_with("plan.morsel."))
        .map(SpanRec::dur)
        .sum();
    let table_op_s: f64 = [
        "table.select",
        "table.select_in_place",
        "table.join",
        "table.group",
    ]
    .iter()
    .map(|n| d.dur_s(n))
    .sum();
    m.insert(
        "plan.morsel.busy_share",
        ratio(morsel_ns as f64 * 1e-9, threads as f64 * table_op_s),
    );

    // concurrent
    m.insert(
        "sort.radix.self_s",
        d.self_s(|n| n.starts_with("sort.radix.")),
    );
    m.insert("sort.radix.passes", d.counter("sort.radix.passes"));
    m.insert(
        "sort.radix.digits_skipped",
        d.counter("sort.radix.digits_skipped"),
    );
    m.insert("pool.jobs_dispatched", d.counter("pool.jobs_dispatched"));
    m.insert("pool.chunks_executed", d.counter("pool.chunks_executed"));
    m.insert(
        "pool.busy_share",
        ratio(d.counter("pool.busy_ns") * 1e-9, threads as f64 * wall),
    );

    // convert
    m.insert(
        "convert.fill.self_s",
        d.self_s(|n| n.starts_with("convert.fill.")),
    );
    m.insert(
        "convert.to_graph.install_s",
        d.self_s(|n| n == "convert.table_to_graph"),
    );
    m.insert(
        "convert.to_undirected.s",
        d.dur_s("convert.table_to_undirected"),
    );
    m.insert(
        "convert.to_table.self_s",
        d.self_s(|n| n == "convert.graph_to_edge_table"),
    );

    // graph
    m.insert("graph.compact.s", d.dur_s("core.compact_graph"));

    // algo
    let pr_s = d.self_s(|n| n == "algo.pagerank");
    m.insert("algo.pagerank.self_s", pr_s);
    let iters = ringo_core::PageRankConfig::default().iterations as f64;
    m.insert(
        "algo.pagerank.edge_visits_per_s",
        ratio(d.rows(&["algo.pagerank"]).0 * iters, pr_s),
    );
    m.insert("algo.triangles.self_s", d.self_s(|n| n == "algo.triangles"));
    m.insert("algo.bfs.self_s", d.self_s(|n| n.starts_with("algo.bfs")));
    m.insert("algo.bfs.topdown.count", d.count("algo.bfs.topdown"));
    m.insert("algo.bfs.bottomup.count", d.count("algo.bfs.bottomup"));
    m.insert("algo.bfs.switches", d.counter("algo.bfs.switches"));
    m.insert("algo.wcc.self_s", d.self_s(|n| n == "algo.wcc"));
    m.insert("algo.scc.self_s", d.self_s(|n| n == "algo.scc"));
    m.insert("algo.sssp.s", d.dur_s("algo.sssp"));
    m.insert("algo.kcore.s", d.dur_s("algo.kcore"));

    // core
    m.insert("core.facade.self_s", d.self_s(|n| n.starts_with("core.")));
    m.insert(
        "catalog.publish.self_s",
        d.self_s(|n| n == "catalog.publish"),
    );
    m.insert("catalog.gc.self_s", d.self_s(|n| n == "catalog.gc"));
    m.insert(
        "catalog.compact.self_s",
        d.self_s(|n| n == "catalog.compact"),
    );
    m.insert("catalog.snapshot", d.counter("catalog.snapshot"));
    m.insert("epoch.reclaimed", d.counter("epoch.reclaimed"));

    // by crate, and the recorder's own health
    let mut covered = 0.0;
    for (krate, metric) in CRATES {
        let t = d.self_s(|n| crate_of(n) == krate);
        covered += t;
        m.insert(metric, t);
    }
    covered += d.self_s(|n| crate_of(n) == "other");
    m.insert("trace.events.dropped", d.dropped as f64);
    m.insert("trace.coverage", ratio(covered, wall));
    m
}
