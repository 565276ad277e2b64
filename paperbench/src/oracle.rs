//! Reference answers, computed from the generated inputs with plain code
//! that shares nothing with the library: dense arrays, sorts and queues.
//! Every node id the generators emit is a small non-negative integer, so
//! ids index arrays directly.

/// Sorted, deduplicated adjacency over dense ids `0..n`.
pub struct Csr {
    off: Vec<usize>,
    adj: Vec<u32>,
}

impl Csr {
    /// Builds from `(from, to)` pairs; duplicates collapse.
    pub fn new(n: usize, pairs: impl Iterator<Item = (u32, u32)> + Clone) -> Csr {
        let mut off = vec![0usize; n + 1];
        for (a, _) in pairs.clone() {
            off[a as usize + 1] += 1;
        }
        for i in 0..n {
            off[i + 1] += off[i];
        }
        let mut fill = off.clone();
        let mut adj = vec![0u32; off[n]];
        for (a, b) in pairs {
            adj[fill[a as usize]] = b;
            fill[a as usize] += 1;
        }
        // Sort and dedup each row, compacting in place.
        let mut new_off = vec![0usize; n + 1];
        let mut w = 0;
        for v in 0..n {
            let row = &mut adj[off[v]..off[v + 1]];
            row.sort_unstable();
            let mut last = None;
            for i in off[v]..off[v + 1] {
                let x = adj[i];
                if last != Some(x) {
                    adj[w] = x;
                    w += 1;
                    last = Some(x);
                }
            }
            new_off[v + 1] = w;
        }
        adj.truncate(w);
        Csr { off: new_off, adj }
    }

    pub fn n(&self) -> usize {
        self.off.len() - 1
    }

    pub fn row(&self, v: usize) -> &[u32] {
        &self.adj[self.off[v]..self.off[v + 1]]
    }

    pub fn edges(&self) -> usize {
        self.adj.len()
    }
}

/// Dense ids of an integer edge list, checked to be small and non-negative.
pub fn dense(src: &[i64], dst: &[i64]) -> (usize, Vec<(u32, u32)>) {
    let max = src.iter().chain(dst).copied().max().unwrap_or(-1);
    let min = src.iter().chain(dst).copied().min().unwrap_or(0);
    assert!(min >= 0 && max < u32::MAX as i64, "generator ids are dense");
    let pairs = src
        .iter()
        .zip(dst)
        .map(|(&s, &d)| (s as u32, d as u32))
        .collect();
    ((max + 1) as usize, pairs)
}

/// Nodes that appear in at least one edge.
pub fn node_count(n: usize, pairs: &[(u32, u32)]) -> usize {
    let mut seen = vec![false; n];
    for &(a, b) in pairs {
        seen[a as usize] = true;
        seen[b as usize] = true;
    }
    seen.iter().filter(|&&s| s).count()
}

/// Distinct directed edges (duplicate rows collapse, self-loops count).
pub fn distinct_edges(pairs: &[(u32, u32)]) -> usize {
    let mut keys: Vec<u64> = pairs
        .iter()
        .map(|&(a, b)| (u64::from(a) << 32) | u64::from(b))
        .collect();
    keys.sort_unstable();
    keys.dedup();
    keys.len()
}

/// Weakly connected components among the nodes that appear in an edge.
pub fn wcc_count(n: usize, pairs: &[(u32, u32)]) -> usize {
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(p: &mut [u32], mut x: u32) -> u32 {
        while p[x as usize] != x {
            let up = p[p[x as usize] as usize];
            p[x as usize] = up;
            x = up;
        }
        x
    }
    for &(a, b) in pairs {
        let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
        if ra != rb {
            parent[ra.max(rb) as usize] = ra.min(rb);
        }
    }
    let mut seen = vec![false; n];
    for &(a, b) in pairs {
        seen[a as usize] = true;
        seen[b as usize] = true;
    }
    (0..n)
        .filter(|&v| seen[v] && find(&mut parent, v as u32) == v as u32)
        .count()
}

/// Strongly connected components among the nodes that appear in an edge
/// (iterative Tarjan).
pub fn scc_count(out: &Csr, present: &[bool]) -> usize {
    const NONE: u32 = u32::MAX;
    let n = out.n();
    let mut index = vec![NONE; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut frames: Vec<(u32, usize)> = Vec::new();
    let mut next = 0u32;
    let mut count = 0;
    for root in 0..n {
        if !present[root] || index[root] != NONE {
            continue;
        }
        frames.push((root as u32, 0));
        index[root] = next;
        low[root] = next;
        next += 1;
        stack.push(root as u32);
        on_stack[root] = true;
        while let Some(&mut (v, ref mut child)) = frames.last_mut() {
            let row = out.row(v as usize);
            if *child < row.len() {
                let w = row[*child] as usize;
                *child += 1;
                if index[w] == NONE {
                    index[w] = next;
                    low[w] = next;
                    next += 1;
                    stack.push(w as u32);
                    on_stack[w] = true;
                    frames.push((w as u32, 0));
                } else if on_stack[w] {
                    low[v as usize] = low[v as usize].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&(p, _)) = frames.last() {
                    low[p as usize] = low[p as usize].min(low[v as usize]);
                }
                if low[v as usize] == index[v as usize] {
                    count += 1;
                    while let Some(w) = stack.pop() {
                        on_stack[w as usize] = false;
                        if w == v {
                            break;
                        }
                    }
                }
            }
        }
    }
    count
}

/// Nodes reached from `src` along out-edges (the source included) and the
/// largest hop distance.
pub fn bfs_reach(out: &Csr, src: usize) -> (usize, u32) {
    let mut dist = vec![u32::MAX; out.n()];
    let mut queue = vec![src as u32];
    dist[src] = 0;
    let mut head = 0;
    while head < queue.len() {
        let v = queue[head] as usize;
        head += 1;
        for &w in out.row(v) {
            if dist[w as usize] == u32::MAX {
                dist[w as usize] = dist[v] + 1;
                queue.push(w);
            }
        }
    }
    let far = queue.last().map_or(0, |&v| dist[v as usize]);
    (queue.len(), far)
}

/// Undirected view: both orientations of every non-loop edge.
pub fn undirected(n: usize, pairs: &[(u32, u32)]) -> Csr {
    Csr::new(
        n,
        pairs
            .iter()
            .filter(|(a, b)| a != b)
            .flat_map(|&(a, b)| [(a, b), (b, a)]),
    )
}

/// Triangles of the simple undirected graph (self-loops ignored), by the
/// degree-ordered forward algorithm.
pub fn triangles(und: &Csr) -> u64 {
    let n = und.n();
    let rank_less = |a: usize, b: usize| (und.row(a).len(), a) < (und.row(b).len(), b);
    let fwd = Csr::new(
        n,
        (0..n).flat_map(|a| {
            und.row(a)
                .iter()
                .map(move |&b| (a as u32, b))
                .filter(move |&(a, b)| rank_less(a as usize, b as usize))
        }),
    );
    let mut count = 0u64;
    for a in 0..n {
        let ra = fwd.row(a);
        for &b in ra {
            let rb = fwd.row(b as usize);
            let (mut i, mut j) = (0, 0);
            while i < ra.len() && j < rb.len() {
                match ra[i].cmp(&rb[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        count += 1;
                        i += 1;
                        j += 1;
                    }
                }
            }
        }
    }
    count
}

/// Nodes of the `k`-core: repeatedly peel nodes of degree below `k`. A
/// self-loop adds one to its node's degree, as in the library's undirected
/// graph.
pub fn kcore_nodes(und: &Csr, self_loop: &[bool], present: &[bool], k: u32) -> usize {
    let n = und.n();
    let mut deg: Vec<u32> = (0..n)
        .map(|v| und.row(v).len() as u32 + u32::from(self_loop[v]))
        .collect();
    let mut removed = vec![false; n];
    let mut queue: Vec<usize> = (0..n).filter(|&v| present[v] && deg[v] < k).collect();
    for &v in &queue {
        removed[v] = true;
    }
    while let Some(v) = queue.pop() {
        for &w in und.row(v) {
            let w = w as usize;
            if !removed[w] {
                deg[w] -= 1;
                if deg[w] < k {
                    removed[w] = true;
                    queue.push(w);
                }
            }
        }
    }
    (0..n).filter(|&v| present[v] && !removed[v]).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_graph_answers() {
        // Triangle 0-1-2, a tail 2->3, a duplicate row and a self-loop.
        let pairs = vec![(0, 1), (1, 2), (2, 0), (2, 3), (2, 3), (3, 3)];
        let n = 4;
        assert_eq!(distinct_edges(&pairs), 5);
        assert_eq!(wcc_count(n, &pairs), 1);
        let out = Csr::new(n, pairs.iter().copied());
        assert_eq!(scc_count(&out, &[true; 4]), 2);
        assert_eq!(bfs_reach(&out, 0), (4, 3));
        let und = undirected(n, &pairs);
        assert_eq!(triangles(&und), 1);
        let loops = [false, false, false, true];
        assert_eq!(kcore_nodes(&und, &loops, &[true; 4], 2), 4);
        assert_eq!(kcore_nodes(&und, &[false; 4], &[true; 4], 2), 3);
    }
}
