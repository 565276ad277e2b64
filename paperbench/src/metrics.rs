//! Metric names, units and how each is derived from sessions. The lists
//! below and `BENCHMARK.json` name the same metrics; the smoke test checks
//! that they agree.

use crate::session::Session;
use std::collections::BTreeMap;

/// Printed with `--trace 0`. Each is measured on every workload.
pub const END_TO_END: [(&str, &str); 5] = [
    ("session_s", "s"),
    ("setup_s", "s"),
    ("to_graph_edges_per_s", "1/s"),
    ("pagerank_s", "s"),
    ("peak_heap_ratio", "ratio"),
];

/// Printed with `--trace 1`. A metric a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 81] = [
    // Workload-specific end-to-end figures, from the untraced sessions.
    ("load_rows_per_s", "1/s"),
    ("select_rows_per_s", "1/s"),
    ("join_rows_per_s", "1/s"),
    ("to_table_edges_per_s", "1/s"),
    ("triangles_s", "s"),
    ("traversal_s", "s"),
    ("kcore_s", "s"),
    ("edit_to_answer_s", "s"),
    ("ops_failed", "ratio"),
    ("session.samples", "count"),
    ("session.median_s", "s"),
    ("session.tail_pct", "%"),
    ("session.tail_s", "s"),
    ("shape.triangles_over_pagerank", "ratio"),
    ("shape.export_over_build", "ratio"),
    // table
    ("table.load.self_s", "s"),
    ("table.load.bytes_per_s", "B/s"),
    ("table.select.self_s", "s"),
    ("table.select.selectivity", "ratio"),
    ("table.join.self_s", "s"),
    ("table.join.out_per_in", "ratio"),
    ("table.gather.count", "count"),
    ("table.gather.self_s", "s"),
    ("plan.morsel.busy_share", "ratio"),
    // concurrent
    ("sort.radix.self_s", "s"),
    ("sort.radix.passes", "count"),
    ("sort.radix.digits_skipped", "count"),
    ("pool.jobs_dispatched", "count"),
    ("pool.chunks_executed", "count"),
    ("pool.busy_share", "ratio"),
    // convert
    ("convert.fill.self_s", "s"),
    ("convert.to_graph.install_s", "s"),
    ("convert.to_undirected.s", "s"),
    ("convert.to_table.self_s", "s"),
    // graph
    ("graph.bytes_per_edge", "B"),
    ("graph.compact.s", "s"),
    // algo
    ("algo.pagerank.self_s", "s"),
    ("algo.pagerank.edge_visits_per_s", "1/s"),
    ("algo.triangles.self_s", "s"),
    ("algo.triangles.count", "count"),
    ("algo.bfs.self_s", "s"),
    ("algo.bfs.topdown.count", "count"),
    ("algo.bfs.bottomup.count", "count"),
    ("algo.bfs.switches", "count"),
    ("algo.wcc.self_s", "s"),
    ("algo.scc.self_s", "s"),
    ("algo.sssp.s", "s"),
    ("algo.kcore.s", "s"),
    // core
    ("core.facade.self_s", "s"),
    ("catalog.publish.self_s", "s"),
    ("catalog.gc.self_s", "s"),
    ("catalog.compact.self_s", "s"),
    ("catalog.snapshot", "count"),
    ("epoch.reclaimed", "count"),
    ("catalog.retired_at_end", "count"),
    // by crate
    ("layer.table.self_s", "s"),
    ("layer.concurrent.self_s", "s"),
    ("layer.convert.self_s", "s"),
    ("layer.algo.self_s", "s"),
    ("layer.core.self_s", "s"),
    // trace / mem
    ("trace.overhead", "ratio"),
    ("trace.events.dropped", "count"),
    ("trace.coverage", "ratio"),
    ("mem.peak_extra_bytes.to_graph", "B"),
    ("mem.peak_extra_bytes.pagerank", "B"),
    ("mem.peak_extra_bytes.personalized_pagerank", "B"),
    ("mem.peak_extra_bytes.count_triangles", "B"),
    ("mem.peak_extra_bytes.bfs", "B"),
    ("mem.peak_extra_bytes.sssp", "B"),
    ("mem.peak_extra_bytes.wcc", "B"),
    ("mem.peak_extra_bytes.scc", "B"),
    ("mem.peak_extra_bytes.k_core", "B"),
    ("mem.allocs.to_graph", "count"),
    ("mem.allocs.pagerank", "count"),
    ("mem.allocs.personalized_pagerank", "count"),
    ("mem.allocs.count_triangles", "count"),
    ("mem.allocs.bfs", "count"),
    ("mem.allocs.sssp", "count"),
    ("mem.allocs.wcc", "count"),
    ("mem.allocs.scc", "count"),
    ("mem.allocs.k_core", "count"),
];

/// Kernel verbs whose heap use is reported: (verb span, peak metric,
/// allocation-count metric).
const MEM_VERBS: [(&str, &str, &str); 9] = [
    (
        "core.to_graph",
        "mem.peak_extra_bytes.to_graph",
        "mem.allocs.to_graph",
    ),
    (
        "core.pagerank",
        "mem.peak_extra_bytes.pagerank",
        "mem.allocs.pagerank",
    ),
    (
        "algo.ppr",
        "mem.peak_extra_bytes.personalized_pagerank",
        "mem.allocs.personalized_pagerank",
    ),
    (
        "core.count_triangles",
        "mem.peak_extra_bytes.count_triangles",
        "mem.allocs.count_triangles",
    ),
    ("core.bfs", "mem.peak_extra_bytes.bfs", "mem.allocs.bfs"),
    ("algo.sssp", "mem.peak_extra_bytes.sssp", "mem.allocs.sssp"),
    ("core.wcc", "mem.peak_extra_bytes.wcc", "mem.allocs.wcc"),
    ("core.scc", "mem.peak_extra_bytes.scc", "mem.allocs.scc"),
    (
        "algo.kcore",
        "mem.peak_extra_bytes.k_core",
        "mem.allocs.k_core",
    ),
];

pub fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Per-session values of every figure, across a run's sessions.
#[derive(Default)]
pub struct Figures(BTreeMap<&'static str, Vec<f64>>);

impl Figures {
    pub fn add(&mut self, figures: BTreeMap<&'static str, f64>) {
        for (k, v) in figures {
            self.0.entry(k).or_default().push(v);
        }
    }

    pub fn sessions(&self) -> usize {
        self.0.get("session_s").map_or(0, Vec::len)
    }

    pub fn median(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|v| median(v))
    }

    /// The highest percentile with at least ten samples above it, and its
    /// value; `(0, 0)` with fewer than eleven samples.
    pub fn tail(&self, name: &str) -> (f64, f64) {
        let mut v = self.0.get(name).cloned().unwrap_or_default();
        v.sort_by(f64::total_cmp);
        if v.len() < 11 {
            return (0.0, 0.0);
        }
        let k = v.len() - 11;
        (100.0 * (k + 1) as f64 / v.len() as f64, v[k])
    }

    fn medians(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.0.iter().map(|(&k, v)| (k, median(v)))
    }

    /// Each figure at its uncontended decile: the lower decile of a time
    /// (`*_s`), the upper decile of a rate (`*_per_s`), the median of
    /// anything else. Other tenants of a shared host slow every verb down
    /// by up to 1.6x for tens of seconds at a time, and only ever add
    /// time; a run's median then follows how much of it such a phase
    /// covered, while its fast decile stays put.
    fn steady(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.0.iter().map(|(&k, v)| {
            let mut v = v.clone();
            v.sort_by(f64::total_cmp);
            let decile = (v.len() as f64 * 0.1).ceil().max(1.0) as usize - 1;
            let value = if k.ends_with("_per_s") {
                v[v.len() - 1 - decile]
            } else if k.ends_with("_s") {
                v[decile]
            } else {
                median(&v)
            };
            (k, value)
        })
    }
}

/// Items handled per second of wall time over the calls of `spans`.
fn rate(s: &Session, spans: &[&str]) -> Option<f64> {
    let (items, wall) = s
        .calls_of(spans)
        .fold((0.0, 0.0), |(i, w), c| (i + c.items, w + c.wall_s));
    (wall > 0.0).then(|| items / wall)
}

fn wall_of(s: &Session, spans: &[&str]) -> Option<f64> {
    let mut calls = s.calls_of(spans).peekable();
    calls.peek()?;
    Some(calls.map(|c| c.wall_s).sum())
}

/// Everything an untraced session measures.
pub fn session_figures(s: &Session) -> BTreeMap<&'static str, f64> {
    let mut f = BTreeMap::new();
    f.insert("session_s", s.wall());
    let rates = [
        ("to_graph_edges_per_s", &["core.to_graph"][..]),
        ("load_rows_per_s", &["table.load"]),
        (
            "select_rows_per_s",
            &["core.select", "core.select_in_place"],
        ),
        ("join_rows_per_s", &["core.join"]),
        ("to_table_edges_per_s", &["core.to_edge_table"]),
    ];
    for (name, spans) in rates {
        if let Some(r) = rate(s, spans) {
            f.insert(name, r);
        }
    }
    let walls = [
        ("triangles_s", &["core.count_triangles"][..]),
        (
            "traversal_s",
            &["core.bfs", "algo.sssp", "core.wcc", "core.scc"],
        ),
        ("kcore_s", &["algo.kcore"]),
    ];
    for (name, spans) in walls {
        if let Some(w) = wall_of(s, spans) {
            f.insert(name, w);
        }
    }
    let pagerank: Vec<_> = s.calls_of(&["core.pagerank"]).collect();
    if let Some(first) = pagerank.first() {
        let total: f64 = pagerank.iter().map(|c| c.wall_s).sum();
        f.insert("pagerank_s", total / pagerank.len() as f64);
        let bytes = s.extra.get("graph.bytes").copied().unwrap_or(0.0);
        if bytes > 0.0 {
            f.insert("peak_heap_ratio", (bytes + first.peak_extra_bytes) / bytes);
        }
    }
    if let (Some(b), Some(e)) = (s.extra.get("graph.bytes"), s.extra.get("graph.edges")) {
        f.insert("graph.bytes_per_edge", b / e);
    }
    for (span, peak, allocs) in MEM_VERBS {
        let one = [span];
        let calls: Vec<_> = s.calls_of(&one).collect();
        if !calls.is_empty() {
            f.insert(
                peak,
                calls.iter().map(|c| c.peak_extra_bytes).fold(0.0, f64::max),
            );
            f.insert(allocs, calls.iter().map(|c| c.allocs).sum());
        }
    }
    for name in [
        "edit_to_answer_s",
        "algo.triangles.count",
        "catalog.retired_at_end",
    ] {
        if let Some(&v) = s.extra.get(name) {
            f.insert(name, v);
        }
    }
    f
}

/// The `--trace 0` figures, over the run's sessions.
pub fn end_to_end(untraced: &Figures, setup_s: f64) -> BTreeMap<&'static str, f64> {
    let mut m: BTreeMap<_, _> = untraced.steady().collect();
    m.insert("setup_s", setup_s);
    m
}

/// The `--trace 1` figures: workload figures from the untraced sessions,
/// as `--trace 0` reports them; layer figures are medians over the traced
/// ones.
pub fn per_layer(
    untraced: &Figures,
    traced: &Figures,
    attempted: usize,
    failed: usize,
) -> BTreeMap<&'static str, f64> {
    let mut m: BTreeMap<_, _> = untraced.steady().collect();
    m.extend(traced.medians().filter(|&(k, _)| k != "session_s"));
    let dropped = traced.0.get("trace.events.dropped");
    m.insert(
        "trace.events.dropped",
        dropped.map_or(0.0, |v| v.iter().sum()),
    );
    let (plain, with_trace) = (untraced.median("session_s"), traced.median("session_s"));
    if let (Some(a), Some(b)) = (plain, with_trace) {
        m.insert("trace.overhead", b / a - 1.0);
    }
    m.insert("ops_failed", failed as f64 / attempted.max(1) as f64);
    m.insert("session.samples", untraced.sessions() as f64);
    m.insert("session.median_s", plain.unwrap_or(0.0));
    let (pct, value) = untraced.tail("session_s");
    m.insert("session.tail_pct", pct);
    m.insert("session.tail_s", value);
    let shapes = [
        ("shape.triangles_over_pagerank", "triangles_s", "pagerank_s"),
        (
            "shape.export_over_build",
            "to_table_edges_per_s",
            "to_graph_edges_per_s",
        ),
    ];
    for (name, num, den) in shapes {
        if let (Some(&x), Some(&y)) = (m.get(num), m.get(den)) {
            m.insert(name, x / y);
        }
    }
    m
}
