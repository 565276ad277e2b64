//! The three analyst sessions. Each builds its inputs from the seed (the
//! timed set-up), derives the expected answers with `oracle`, then runs
//! sessions that issue facade verbs one after another and check each answer.

use crate::oracle::{self, Csr};
use crate::session::Session;
use ringo_core::algo::sssp_unweighted;
use ringo_core::gen::stackoverflow::posts_schema;
use ringo_core::gen::StackOverflowConfig;
use ringo_core::{Direction, NodeId, Predicate, Ringo, Table, Value};
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;

/// One workload: inputs, expected answers and the session body.
pub trait Workload {
    /// Sizes, for the result record.
    fn scale(&self) -> String;
    /// Builds the inputs the analyst starts from. Timed as `setup_s`.
    fn setup(&mut self, ringo: &Ringo) -> Result<(), String>;
    /// Derives the expected answers from the inputs (untimed).
    fn expect(&mut self);
    /// One session; `None` when a verb returned `Err`.
    fn session(&mut self, s: &mut Session) -> Option<()>;
}

pub fn by_name(name: &str, seed: u64, scale: f64, work: PathBuf) -> Option<Box<dyn Workload>> {
    let sized = |n: f64| ((n * scale) as usize).max(64);
    Some(match name {
        "so_pipeline" => Box::new(SoPipeline {
            cfg: StackOverflowConfig {
                questions: sized(400_000.0),
                answers: sized(700_000.0),
                users: sized(100_000.0),
                seed,
                ..StackOverflowConfig::default()
            },
            path: work.join("posts.tsv"),
            posts: None,
            expected: None,
        }),
        "lj_kernels" => Box::new(LjKernels {
            scale: LJ_SCALE * scale,
            seed,
            edges: None,
            expected: None,
        }),
        "tw_edit_loop" => Box::new(TwEditLoop {
            scale: TW_SCALE * scale,
            seed,
            edges: None,
            ids: 0,
            rng: SplitMix(seed ^ 0x7477_6564_6974),
        }),
        _ => return None,
    })
}

/// LiveJournal-like scale: about 524k edge rows, so that a run holds
/// enough sessions for a steady median.
const LJ_SCALE: f64 = 0.5;
/// Twitter-like scale: about 1.05M edge rows, more skewed.
const TW_SCALE: f64 = 0.125;
/// BFS/SSSP sources per `lj_kernels` session (Table 6 averages 10).
const SOURCES: usize = 10;
/// Source ids whose out-edges one `tw_edit_loop` round drops.
const EDIT_DROP: usize = 8;
/// Edge rows one `tw_edit_loop` round appends.
const EDIT_PUSH: usize = 256;

/// SplitMix64: picks sources and edits from the seed.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn pagerank_sum_ok(s: &mut Session, what: &str, scores: &[(NodeId, f64)]) {
    let total: f64 = scores.iter().map(|(_, x)| x).sum();
    s.check(what, (total - 1.0).abs() <= 1e-9, || {
        format!("scores sum to {total:.15}")
    });
}

/// The `src`/`dst` rows of an edge table, as dense ids.
fn edge_pairs(t: &Table) -> (usize, Vec<(u32, u32)>) {
    let col = |name| t.int_col(name).expect("edge table");
    oracle::dense(col("src"), col("dst"))
}

/// Records the PageRank graph's size, for `peak_heap_ratio`.
fn note_graph(s: &mut Session, g: &ringo_core::DirectedGraph) {
    s.extra.insert("graph.bytes", g.mem_size() as f64);
    s.extra.insert("graph.edges", g.edge_count() as f64);
}

// ---------------------------------------------------------------------------

/// §4.1: load the posts, keep the Java ones, join questions to their
/// accepted answers, rank the asker→answerer graph.
struct SoPipeline {
    cfg: StackOverflowConfig,
    path: PathBuf,
    posts: Option<Table>,
    expected: Option<SoExpected>,
}

struct SoExpected {
    rows: u64,
    java: u64,
    questions: u64,
    answers: u64,
    joined: u64,
    edges: u64,
    nodes: u64,
    file_bytes: f64,
}

impl Workload for SoPipeline {
    fn scale(&self) -> String {
        format!(
            "questions={} answers={} users={}",
            self.cfg.questions, self.cfg.answers, self.cfg.users
        )
    }

    fn setup(&mut self, ringo: &Ringo) -> Result<(), String> {
        let posts = ringo.generate_stackoverflow(&self.cfg);
        ringo
            .save_table_tsv(&posts, &self.path)
            .map_err(|e| format!("writing {}: {e}", self.path.display()))?;
        self.posts = Some(posts);
        Ok(())
    }

    fn expect(&mut self) {
        let t = self.posts.take().expect("setup ran");
        let col = |name| t.int_col(name).expect("posts schema");
        let (post_id, user, accepted) = (col("PostId"), col("UserId"), col("AcceptedAnswerId"));
        let sym = |name| t.str_sym_col(name).expect("posts schema");
        let (kind, tag) = (sym("Type"), sym("Tag"));
        let java: Vec<bool> = tag.iter().map(|&x| t.str_value(x) == "java").collect();
        let question: Vec<bool> = kind.iter().map(|&x| t.str_value(x) == "question").collect();
        let answerer: HashMap<i64, i64> = (0..t.n_rows())
            .filter(|&r| java[r] && !question[r])
            .map(|r| (post_id[r], user[r]))
            .collect();
        let mut joined = 0;
        let mut edges = HashSet::new();
        for r in (0..t.n_rows()).filter(|&r| java[r] && question[r]) {
            if let Some(&a) = answerer.get(&accepted[r]) {
                joined += 1;
                edges.insert((user[r], a));
            }
        }
        let nodes: HashSet<i64> = edges.iter().flat_map(|&(a, b)| [a, b]).collect();
        let java_rows = java.iter().filter(|&&j| j).count() as u64;
        self.expected = Some(SoExpected {
            rows: t.n_rows() as u64,
            java: java_rows,
            questions: (0..t.n_rows()).filter(|&r| java[r] && question[r]).count() as u64,
            answers: answerer.len() as u64,
            joined,
            edges: edges.len() as u64,
            nodes: nodes.len() as u64,
            file_bytes: std::fs::metadata(&self.path).map_or(0.0, |m| m.len() as f64),
        });
    }

    fn session(&mut self, s: &mut Session) -> Option<()> {
        let e = self.expected.as_ref().expect("expect ran");
        let r = s.ringo;
        s.extra.insert("file.bytes", e.file_bytes);
        let schema = posts_schema();
        let posts = s.try_call("table.load", || r.load_table_tsv(&schema, &self.path))?;
        s.items(posts.n_rows());
        s.check_eq("posts loaded", posts.n_rows() as u64, e.rows);

        let java = s.try_call("core.select", || {
            r.select(&posts, &Predicate::str_eq("Tag", "java"))
        })?;
        s.items(posts.n_rows());
        s.check_eq("java posts", java.n_rows() as u64, e.java);
        drop(posts);
        let questions = s.try_call("core.select", || {
            r.select(&java, &Predicate::str_eq("Type", "question"))
        })?;
        s.items(java.n_rows());
        s.check_eq("java questions", questions.n_rows() as u64, e.questions);
        let answers = s.try_call("core.select", || {
            r.select(&java, &Predicate::str_eq("Type", "answer"))
        })?;
        s.items(java.n_rows());
        s.check_eq("java answers", answers.n_rows() as u64, e.answers);
        drop(java);

        let qa = s.try_call("core.join", || {
            r.join(&questions, &answers, "AcceptedAnswerId", "PostId")
        })?;
        s.items(questions.n_rows() + answers.n_rows());
        s.check_eq("question-answer join rows", qa.n_rows() as u64, e.joined);
        drop((questions, answers));

        let g = s.try_call("core.to_graph", || r.to_graph(&qa, "UserId", "UserId-1"))?;
        s.items(qa.n_rows());
        s.check_eq("expertise graph edges", g.edge_count() as u64, e.edges);
        s.check_eq("expertise graph nodes", g.node_count() as u64, e.nodes);
        drop(qa);

        let pr = s.call("core.pagerank", || r.pagerank(&g));
        s.items(g.edge_count());
        pagerank_sum_ok(s, "pagerank sums to 1", &pr);
        s.check_eq("pagerank scores", pr.len() as u64, e.nodes);
        note_graph(s, &g);

        let scores = s.call("core.table_from_scores", || {
            r.table_from_scores(&pr, "User", "Scr")
        });
        s.items(pr.len());
        s.check_eq("score table rows", scores.n_rows() as u64, e.nodes);
        Some(())
    }
}

// ---------------------------------------------------------------------------

/// Tables 3 and 6 on one graph version: build once, then run every kernel
/// on that version.
struct LjKernels {
    scale: f64,
    seed: u64,
    edges: Option<Table>,
    expected: Option<LjExpected>,
}

struct LjExpected {
    edges: u64,
    nodes: u64,
    triangles: u64,
    wcc: u64,
    scc: u64,
    kcore3: u64,
    /// `(source, nodes reached, farthest hop)`.
    sources: Vec<(NodeId, u64, u32)>,
}

impl Workload for LjKernels {
    fn scale(&self) -> String {
        format!("lj_like scale={} seed={}", self.scale, self.seed)
    }

    fn setup(&mut self, ringo: &Ringo) -> Result<(), String> {
        self.edges = Some(ringo.generate_lj_like(self.scale, self.seed));
        Ok(())
    }

    fn expect(&mut self) {
        let (n, pairs) = edge_pairs(self.edges.as_ref().expect("setup ran"));
        let out = Csr::new(n, pairs.iter().copied());
        let mut present = vec![false; n];
        let mut self_loop = vec![false; n];
        for &(a, b) in &pairs {
            present[a as usize] = true;
            present[b as usize] = true;
            if a == b {
                self_loop[a as usize] = true;
            }
        }
        let und = oracle::undirected(n, &pairs);
        let mut rng = SplitMix(self.seed ^ 0x736f_7572_6365);
        let mut sources = Vec::new();
        while sources.len() < SOURCES {
            let v = rng.below(n);
            if !out.row(v).is_empty() && !sources.iter().any(|&(s, _, _)| s == v as NodeId) {
                let (reached, far) = oracle::bfs_reach(&out, v);
                sources.push((v as NodeId, reached as u64, far));
            }
        }
        self.expected = Some(LjExpected {
            edges: out.edges() as u64,
            nodes: oracle::node_count(n, &pairs) as u64,
            triangles: oracle::triangles(&und),
            wcc: oracle::wcc_count(n, &pairs) as u64,
            scc: oracle::scc_count(&out, &present) as u64,
            kcore3: oracle::kcore_nodes(&und, &self_loop, &present, 3) as u64,
            sources,
        });
    }

    fn session(&mut self, s: &mut Session) -> Option<()> {
        let e = self.expected.as_ref().expect("expect ran");
        let t = self.edges.as_ref().expect("setup ran");
        let r = s.ringo;
        let g = s.try_call("core.to_graph", || r.to_graph(t, "src", "dst"))?;
        s.items(t.n_rows());
        s.check_eq("graph edges", g.edge_count() as u64, e.edges);
        s.check_eq("graph nodes", g.node_count() as u64, e.nodes);
        let u = s.try_call("core.to_undirected_graph", || {
            r.to_undirected_graph(t, "src", "dst")
        })?;
        s.items(t.n_rows());
        s.check_eq("undirected nodes", u.node_count() as u64, e.nodes);

        s.call("core.publish_graph", || r.publish_graph("lj", g));
        let snap = s.call("core.snapshot", || r.snapshot());
        let Some(g) = snap.graph("lj") else {
            s.check("snapshot resolves the published graph", false, String::new);
            return None;
        };
        let g: &ringo_core::DirectedGraph = g;

        let pr = s.call("core.pagerank", || r.pagerank(g));
        s.items(g.edge_count());
        pagerank_sum_ok(s, "pagerank sums to 1", &pr);
        s.check_eq("pagerank scores", pr.len() as u64, e.nodes);
        note_graph(s, g);
        let seeds: Vec<NodeId> = e.sources.iter().map(|&(v, _, _)| v).collect();
        let ppr = s.call("algo.ppr", || r.personalized_pagerank(g, &seeds));
        pagerank_sum_ok(s, "personalized pagerank sums to 1", &ppr);

        let tri = s.call("core.count_triangles", || r.count_triangles(&u));
        s.check_eq("triangles", tri, e.triangles);
        s.extra.insert("algo.triangles.count", tri as f64);

        for &(src, reached, far) in &e.sources {
            let d = s.call("core.bfs", || r.bfs(g, src, Direction::Out));
            s.check_eq("bfs reach", d.len() as u64, reached);
            let max = d.iter().map(|(_, &h)| h).max().unwrap_or(0);
            s.check_eq("bfs farthest hop", u64::from(max), u64::from(far));
        }
        for &(src, reached, far) in &e.sources {
            let d = s.call("algo.sssp", || sssp_unweighted(g, src, Direction::Out));
            s.check_eq("sssp reach", d.len() as u64, reached);
            let max = d.iter().map(|(_, &h)| h).max().unwrap_or(0);
            s.check_eq("sssp farthest hop", u64::from(max), u64::from(far));
        }
        let w = s.call("core.wcc", || r.wcc(g));
        s.check_eq("wcc components", w.n_components() as u64, e.wcc);
        let c = s.call("core.scc", || r.scc(g));
        s.check_eq("scc components", c.n_components() as u64, e.scc);
        let core = s.call("algo.kcore", || r.k_core(&u, 3));
        s.check_eq("3-core nodes", core.node_count() as u64, e.kcore3);

        let back = s.call("core.to_edge_table", || r.to_edge_table(g));
        s.items(back.n_rows());
        s.check_eq("edge table rows", back.n_rows() as u64, e.edges);
        Some(())
    }
}

// ---------------------------------------------------------------------------

/// Trial and error on the skewed graph: edit the edge table, publish the
/// rebuilt graph as a new version, answer on it, compact and collect.
struct TwEditLoop {
    scale: f64,
    seed: u64,
    edges: Option<Table>,
    /// Node ids are `0..ids`.
    ids: usize,
    rng: SplitMix,
}

impl Workload for TwEditLoop {
    fn scale(&self) -> String {
        format!(
            "tw_like scale={} seed={} edit: drop sources={EDIT_DROP} push rows={EDIT_PUSH}",
            self.scale, self.seed
        )
    }

    fn setup(&mut self, ringo: &Ringo) -> Result<(), String> {
        self.edges = Some(ringo.generate_tw_like(self.scale, self.seed));
        Ok(())
    }

    fn expect(&mut self) {
        // Answers change every round; they are derived per round from the
        // edited table. Here only the id range is fixed.
        self.ids = edge_pairs(self.edges.as_ref().expect("setup ran")).0;
    }

    fn session(&mut self, s: &mut Session) -> Option<()> {
        let r = s.ringo;
        let drop_ids: Vec<i64> = (0..EDIT_DROP)
            .map(|_| self.rng.below(self.ids) as i64)
            .collect();
        let push: Vec<(i64, i64)> = (0..EDIT_PUSH)
            .map(|_| {
                let a = self.rng.below(self.ids) as i64;
                (a, self.rng.below(self.ids) as i64)
            })
            .collect();
        let t = self.edges.as_mut().expect("setup ran");
        let rows = t.n_rows();
        let dropped = t
            .int_col("src")
            .expect("edge table")
            .iter()
            .filter(|x| drop_ids.contains(x))
            .count();

        let edit = s.mark();
        let keep = Predicate::int_in("src", drop_ids).not();
        let kept = s.try_call("core.select_in_place", || r.select_in_place(t, &keep))?;
        s.items(rows);
        s.check_eq("rows kept", kept as u64, (rows - dropped) as u64);
        s.try_call("table.push_row", || {
            push.iter()
                .try_for_each(|&(a, b)| t.push_row(&[Value::Int(a), Value::Int(b)]).map(drop))
        })?;
        s.items(push.len());
        s.check_eq(
            "rows after edit",
            t.n_rows() as u64,
            (kept + push.len()) as u64,
        );

        let t: &Table = t;
        let g = s.try_call("core.to_graph", || r.to_graph(t, "src", "dst"))?;
        s.items(t.n_rows());
        let (n, pairs) = edge_pairs(t);
        s.check_eq(
            "graph edges",
            g.edge_count() as u64,
            oracle::distinct_edges(&pairs) as u64,
        );
        let version = s.call("core.publish_graph", || r.publish_graph("tw", g));
        let snap = s.call("core.snapshot", || r.snapshot());
        let Some(g) = snap.graph("tw") else {
            s.check("snapshot resolves the published graph", false, String::new);
            return None;
        };
        let g: &ringo_core::DirectedGraph = g;
        let pr = s.call("core.pagerank", || r.pagerank(g));
        s.items(g.edge_count());
        s.extra.insert("edit_to_answer_s", s.wall_since(edit));
        pagerank_sum_ok(s, "pagerank sums to 1", &pr);
        note_graph(s, g);
        let w = s.call("core.wcc", || r.wcc(g));
        s.check_eq(
            "wcc components",
            w.n_components() as u64,
            oracle::wcc_count(n, &pairs) as u64,
        );
        drop(snap);

        let compacted = s.call("core.compact_graph", || r.compact_graph("tw"));
        s.check(
            "compaction publishes the next version",
            compacted.as_ref().is_some_and(|&(v, _)| v == version + 1),
            || format!("got {compacted:?} after version {version}"),
        );
        s.call("core.catalog_gc", || r.catalog_gc());
        let retired = r.catalog().retired_count();
        s.check_eq("catalog versions retired after gc", retired as u64, 0);
        s.extra.insert("catalog.retired_at_end", retired as f64);
        Some(())
    }
}
