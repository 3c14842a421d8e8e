//! GRAIL: scalable reachability via randomized interval labelings.
//!
//! A from-scratch implementation of GRAIL (Yildirim, Chierichetti,
//! Zaki), one of the *Label+G* schemes in the paper's related work
//! (Section 7.1): "GRAIL uses a number of spanning trees to generate
//! vertex labels, but, if this ensemble of labels is not enough to decide
//! on the reachability, GRAIL uses depth-first search".
//!
//! Each of `k` randomized post-order traversals assigns every vertex the
//! interval `L_i(v) = [r_i(v), post_i(v)]`, where `r_i(v)` is the minimum
//! `r_i` over all of `v`'s out-neighbours (not just tree children), so the
//! interval of `v` *contains* the interval of every descendant. The
//! containment test is therefore an over-approximation: a non-contained
//! interval refutes reachability; full containment across all `k`
//! labelings falls back to a pruned DFS.

use crate::Reachability;
use gsr_graph::{DiGraph, VertexId};

/// Construction parameters for [`GrailIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrailParams {
    /// Number of randomized traversals (GRAIL's `k`; the paper's authors
    /// recommend 2-5).
    pub num_traversals: usize,
    /// Seed for the traversal randomization. Traversal `i` runs its own
    /// PRNG seeded by a splitmix64 mix of `(seed, i)`, so each traversal is
    /// independent of how (or on which thread) the others execute.
    pub seed: u64,
    /// Worker threads: `1` (default) builds traversals inline, `0` uses
    /// machine parallelism, `n > 1` exactly `n` threads. Labels are
    /// identical at any thread count because each traversal is seeded
    /// independently.
    pub threads: usize,
}

impl Default for GrailParams {
    fn default() -> Self {
        GrailParams { num_traversals: 3, seed: 0xC0FFEE, threads: 1 }
    }
}

/// The GRAIL reachability index.
///
/// ```
/// use gsr_graph::graph_from_edges;
/// use gsr_reach::grail::GrailIndex;
/// use gsr_reach::Reachability;
///
/// let g = graph_from_edges(4, &[(0, 1), (1, 2), (1, 3)]);
/// let idx = GrailIndex::build(&g);
/// assert!(idx.reaches(0, 3));
/// assert!(!idx.reaches(2, 3));
/// ```
#[derive(Debug, Clone)]
pub struct GrailIndex {
    g: DiGraph,
    /// `k` interval labelings, each `n` pairs `(r, post)`, flattened as
    /// `labels[i * n + v]`.
    labels: Vec<(u32, u32)>,
    k: usize,
}

/// A tiny splitmix64 PRNG (deterministic, dependency-free).
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

impl GrailIndex {
    /// Builds the index over a DAG with default parameters.
    pub fn build(g: &DiGraph) -> Self {
        Self::build_with(g, GrailParams::default())
    }

    /// Builds the index over a DAG. Each of the `k` traversals derives its
    /// own seed from `(params.seed, i)`, making traversals independent jobs
    /// that parallelize across `params.threads` without changing the output.
    pub fn build_with(g: &DiGraph, params: GrailParams) -> Self {
        let n = g.num_vertices();
        let k = params.num_traversals.max(1);

        let rows = gsr_graph::par::map_indexed(params.threads, k, |i| {
            let mut rng = SplitMix(traversal_seed(params.seed, i as u64));
            let post = randomized_post_order(g, &mut rng);
            // r_i(v) = min(post_i(v), min over out-neighbours r_i(u)),
            // computed in increasing post order: every edge of a DAG DFS
            // points to a smaller post, so out-neighbours are final.
            let mut order: Vec<VertexId> = (0..n as VertexId).collect();
            order.sort_unstable_by_key(|&v| post[v as usize]);
            let mut row = vec![(0u32, 0u32); n];
            for &v in &order {
                let mut r = post[v as usize];
                for &u in g.out_neighbors(v) {
                    if u != v {
                        r = r.min(row[u as usize].0);
                    }
                }
                row[v as usize] = (r, post[v as usize]);
            }
            row
        });
        let mut labels = Vec::with_capacity(k * n);
        for row in rows {
            labels.extend_from_slice(&row);
        }

        GrailIndex { g: g.clone(), labels, k }
    }

    /// Whether every labeling's interval of `from` contains `to`'s post.
    #[inline]
    fn all_contain(&self, from: usize, to: usize) -> bool {
        let n = self.g.num_vertices();
        (0..self.k).all(|i| {
            let (r, post) = self.labels[i * n + from];
            let (_, to_post) = self.labels[i * n + to];
            r <= to_post && to_post <= post
        })
    }

    /// Number of labels (one interval per vertex per traversal).
    pub fn num_labels(&self) -> usize {
        self.labels.len()
    }

    /// The raw `(r, post)` label matrix, `k * n` entries flattened row by
    /// row — exposed so determinism tests can compare builds structurally.
    pub fn labels(&self) -> &[(u32, u32)] {
        &self.labels
    }

}

/// Independent seed for traversal `i` (splitmix64 finalizer over the pair).
fn traversal_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(0x2545F4914F6CDD1D);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// One randomized global post-order over a DAG: DFS from the in-degree-0
/// roots (in random order), visiting each vertex's out-neighbours in a
/// random order; leftovers (cyclic inputs) are swept up afterwards.
fn randomized_post_order(g: &DiGraph, rng: &mut SplitMix) -> Vec<u32> {
    let n = g.num_vertices();
    let mut post = vec![0u32; n];
    let mut visited = vec![false; n];
    let mut counter = 0u32;
    // Frames: (vertex, shuffled adjacency, position).
    let mut frames: Vec<(VertexId, Vec<VertexId>, usize)> = Vec::new();

    let mut roots: Vec<VertexId> =
        (0..n as VertexId).filter(|&v| g.in_degree(v) == 0).collect();
    // Fisher-Yates shuffle of the root order.
    for i in (1..roots.len()).rev() {
        let j = rng.below(i + 1);
        roots.swap(i, j);
    }
    let extras: Vec<VertexId> = (0..n as VertexId).collect();

    for v in roots.into_iter().chain(extras) {
        if visited[v as usize] {
            continue;
        }
        visited[v as usize] = true;
        frames.push((v, shuffled_neighbors(g, v, rng), 0));
        while let Some((cur, adj, pos)) = frames.last_mut() {
            if *pos < adj.len() {
                let w = adj[*pos];
                *pos += 1;
                if !visited[w as usize] {
                    visited[w as usize] = true;
                    let adj_w = shuffled_neighbors(g, w, rng);
                    frames.push((w, adj_w, 0));
                }
            } else {
                counter += 1;
                post[*cur as usize] = counter;
                frames.pop();
            }
        }
    }
    post
}

fn shuffled_neighbors(g: &DiGraph, v: VertexId, rng: &mut SplitMix) -> Vec<VertexId> {
    let mut adj: Vec<VertexId> = g.out_neighbors(v).to_vec();
    for i in (1..adj.len()).rev() {
        let j = rng.below(i + 1);
        adj.swap(i, j);
    }
    adj
}

impl Reachability for GrailIndex {
    fn reaches(&self, from: VertexId, to: VertexId) -> bool {
        let (f, t) = (from as usize, to as usize);
        if f == t {
            return true;
        }
        if !self.all_contain(f, t) {
            return false; // some labeling refutes
        }
        // DFS fallback pruned by the same containment test, over this
        // thread's reusable traversal buffers.
        crate::scratch::with_traversal_scratch(|s| {
            s.begin(self.g.num_vertices());
            s.stack.push(from);
            s.mark(from);
            while let Some(v) = s.stack.pop() {
                for &w in self.g.out_neighbors(v) {
                    if w == to {
                        return true;
                    }
                    if !s.is_marked(w) && self.all_contain(w as usize, t) {
                        s.mark(w);
                        s.stack.push(w);
                    }
                }
            }
            false
        })
    }

    fn heap_bytes(&self) -> usize {
        self.g.heap_bytes() + self.labels.len() * 8
    }

    fn name(&self) -> &'static str {
        "GRAIL"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::reaches_bfs;
    use gsr_graph::graph_from_edges;

    fn check_all_pairs(g: &DiGraph) {
        let idx = GrailIndex::build(g);
        for u in g.vertices() {
            for v in g.vertices() {
                assert_eq!(
                    idx.reaches(u, v),
                    reaches_bfs(g, u, v),
                    "GRAIL wrong for ({u}, {v})"
                );
            }
        }
    }

    #[test]
    fn basic_shapes() {
        check_all_pairs(&graph_from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]));
        check_all_pairs(&graph_from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]));
        check_all_pairs(&graph_from_edges(
            9,
            &[(0, 1), (0, 2), (1, 3), (2, 3), (4, 5), (5, 6), (4, 6), (6, 1), (7, 8)],
        ));
        check_all_pairs(&graph_from_edges(4, &[]));
    }

    #[test]
    fn intervals_contain_descendants() {
        let g = graph_from_edges(7, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (5, 6), (5, 2)]);
        let idx = GrailIndex::build(&g);
        for u in g.vertices() {
            for v in g.vertices() {
                if reaches_bfs(&g, u, v) {
                    assert!(
                        idx.all_contain(u as usize, v as usize),
                        "descendant ({u}, {v}) must be contained in every labeling"
                    );
                }
            }
        }
    }

    #[test]
    fn single_traversal_still_exact() {
        let g = graph_from_edges(8, &[(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7), (0, 5)]);
        let idx = GrailIndex::build_with(
            &g,
            GrailParams { num_traversals: 1, seed: 5, ..GrailParams::default() },
        );
        for u in g.vertices() {
            for v in g.vertices() {
                assert_eq!(idx.reaches(u, v), reaches_bfs(&g, u, v));
            }
        }
        assert_eq!(idx.num_labels(), 8);
    }

    #[test]
    fn deterministic_under_seed() {
        let g = graph_from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5), (0, 4)]);
        let a = GrailIndex::build_with(
            &g,
            GrailParams { num_traversals: 2, seed: 9, ..GrailParams::default() },
        );
        let b = GrailIndex::build_with(
            &g,
            GrailParams { num_traversals: 2, seed: 9, ..GrailParams::default() },
        );
        assert_eq!(a.labels, b.labels);
    }

    #[test]
    fn parallel_build_matches_sequential_exactly() {
        let g = graph_from_edges(
            9,
            &[(0, 1), (0, 2), (1, 3), (2, 3), (4, 5), (5, 6), (4, 6), (6, 1), (7, 8)],
        );
        let seq = GrailIndex::build_with(
            &g,
            GrailParams { num_traversals: 4, seed: 77, threads: 1 },
        );
        for threads in [2, 4, 8] {
            let par = GrailIndex::build_with(
                &g,
                GrailParams { num_traversals: 4, seed: 77, threads },
            );
            assert_eq!(seq.labels, par.labels, "threads = {threads}");
        }
    }
}
