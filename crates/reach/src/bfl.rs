//! Bloom-Filter Labeling (BFL) for graph reachability.
//!
//! A from-scratch implementation of the scheme of Su, Zhu, Wei and Yu
//! ("Reachability querying: can it be even faster?"), which the paper picks
//! as the `GReach` back-end of its best spatial-first method, SpaReach-BFL,
//! "due to its promising results" (Section 7.1). BFL is a *Label+G* method:
//!
//! * a **positive cut** — every vertex carries the interval
//!   `[tree_min(v), post(v)]` of its DFS-subtree post-order numbers; if
//!   `post(to)` falls inside `from`'s interval, `from` reaches `to` through
//!   the spanning tree and the query answers TRUE immediately;
//! * two **negative cuts** — every vertex carries Bloom-filter summaries
//!   `L_out(v)` (hashes of all vertices reachable *from* `v`) and `L_in(v)`
//!   (hashes of all vertices that reach `v`). `from` reaches `to` only if
//!   `L_out(to) ⊆ L_out(from)` and `L_in(from) ⊆ L_in(to)`; a failed subset
//!   test proves non-reachability;
//! * a **guided DFS fallback** — when both cuts are inconclusive, the graph
//!   is traversed with the same cuts pruning every expansion, plus the
//!   DAG-DFS topological prune `post(w) < post(to) ⇒ w cannot reach to`.
//!
//! The input must be a DAG (condense SCCs first).

use crate::Reachability;
use gsr_graph::dfs::{SpanningForest, NO_PARENT};
use gsr_graph::{Col, ColumnList, Columns, DiGraph, Source, VertexId};

/// Construction parameters for [`BflIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BflParams {
    /// Bloom filter width in 64-bit words per vertex per direction.
    /// The paper's BFL uses a few hundred bits; 4 words = 256 bits.
    pub filter_words: usize,
    /// Seed for the per-vertex hash assignment.
    pub seed: u64,
}

impl Default for BflParams {
    fn default() -> Self {
        BflParams { filter_words: 4, seed: 0x9E3779B97F4A7C15 }
    }
}

/// The BFL reachability index.
///
/// ```
/// use gsr_graph::graph_from_edges;
/// use gsr_reach::bfl::BflIndex;
/// use gsr_reach::Reachability;
///
/// let g = graph_from_edges(4, &[(0, 1), (1, 2)]);
/// let idx = BflIndex::build(&g);
/// assert!(idx.reaches(0, 2));
/// assert!(!idx.reaches(0, 3));
/// ```
#[derive(Debug, Clone)]
pub struct BflIndex {
    g: DiGraph,
    /// 1-based DFS post-order.
    post: Col<u32>,
    /// Smallest post-order number in the DFS subtree of each vertex.
    tree_min: Col<u32>,
    /// Per-vertex out-filters, `filter_words` words each, concatenated.
    out_filters: Col<u64>,
    /// Per-vertex in-filters.
    in_filters: Col<u64>,
    words: usize,
}

impl BflIndex {
    /// Builds the index over a DAG with default parameters.
    pub fn build(g: &DiGraph) -> Self {
        Self::build_with(g, BflParams::default())
    }

    /// Builds the index over a DAG with explicit parameters.
    pub fn build_with(g: &DiGraph, params: BflParams) -> Self {
        let n = g.num_vertices();
        let words = params.filter_words.max(1);
        let forest = SpanningForest::of(g);

        // Subtree minimum post-order numbers: DFS subtrees occupy contiguous
        // post ranges, so tree_min(v) = post(v) - subtree_size(v) + 1.
        let mut subtree_size = vec![1u32; n];
        // Children finish before parents, so accumulate in post order.
        for p in 1..=n as u32 {
            let v = forest.post_to_vertex[(p - 1) as usize];
            let parent = forest.parent[v as usize];
            if parent != NO_PARENT {
                subtree_size[parent as usize] += subtree_size[v as usize];
            }
        }
        let tree_min: Vec<u32> = (0..n).map(|v| forest.post[v] - subtree_size[v] + 1).collect();

        // Per-vertex hash bit (a cheap splitmix over the id).
        let bits = words * 64;
        let hash_bit = |v: VertexId| -> (usize, u64) {
            let mut x = v as u64 ^ params.seed;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
            x ^= x >> 31;
            let bit = (x % bits as u64) as usize;
            (bit / 64, 1u64 << (bit % 64))
        };

        // L_out: processed in increasing post order, every out-neighbour is
        // final (DAG DFS property: all edges point to smaller posts).
        // L_in: processed in decreasing post order, every in-neighbour of a
        // vertex has a *larger* post and is final.
        let fwd: Vec<VertexId> =
            (1..=n as u32).map(|p| forest.post_to_vertex[(p - 1) as usize]).collect();
        let rev: Vec<VertexId> = fwd.iter().rev().copied().collect();
        let out_filters = fill_filters(n, words, &fwd, |v| g.out_neighbors(v), &hash_bit);
        let in_filters = fill_filters(n, words, &rev, |v| g.in_neighbors(v), &hash_bit);

        BflIndex {
            g: g.clone(),
            post: forest.post.into(),
            tree_min: tree_min.into(),
            out_filters: out_filters.into(),
            in_filters: in_filters.into(),
            words,
        }
    }

    #[inline]
    fn out_row(&self, v: usize) -> &[u64] {
        &self.out_filters[v * self.words..(v + 1) * self.words]
    }

    #[inline]
    fn in_row(&self, v: usize) -> &[u64] {
        &self.in_filters[v * self.words..(v + 1) * self.words]
    }

    /// Positive cut: `to` in the DFS subtree of `from`.
    #[inline]
    fn tree_contains(&self, from: usize, to_post: u32) -> bool {
        self.tree_min[from] <= to_post && to_post <= self.post[from]
    }

    /// Negative cuts; `true` means "possibly reachable".
    #[inline]
    fn filters_admit(&self, from: usize, to: usize) -> bool {
        subset(self.out_row(to), self.out_row(from)) && subset(self.in_row(from), self.in_row(to))
    }

    /// Number of vertices of the indexed DAG.
    pub fn num_vertices(&self) -> usize {
        self.g.num_vertices()
    }

    /// Checks columns that came from disk (the graph has checked itself):
    /// column lengths must be mutually consistent with the graph's vertex
    /// count and filter width, posts must be a 1-based permutation, and
    /// `tree_min(v) <= post(v)` must hold so the positive cut can never
    /// admit a nonsense range. Violations come back as `Err(String)` —
    /// never panics.
    fn validate(&self) -> Result<(), String> {
        let BflIndex { g, post, tree_min, out_filters, in_filters, words } = self;
        let n = g.num_vertices();
        if *words == 0 {
            return Err("bfl: zero filter words".into());
        }
        if post.len() != n || tree_min.len() != n {
            return Err(format!(
                "bfl: {n} vertices but {} posts / {} tree mins",
                post.len(),
                tree_min.len()
            ));
        }
        let expected = n.checked_mul(*words).ok_or("bfl: filter table size overflows")?;
        if out_filters.len() != expected || in_filters.len() != expected {
            return Err(format!(
                "bfl: expected {expected} filter words per direction, got {} out / {} in",
                out_filters.len(),
                in_filters.len()
            ));
        }
        let mut seen = vec![false; n];
        for (v, &p) in post.iter().enumerate() {
            if p == 0 || p as usize > n || seen[(p - 1) as usize] {
                return Err(format!("bfl: post({v}) = {p} is not a 1..={n} permutation"));
            }
            seen[(p - 1) as usize] = true;
            if tree_min[v] == 0 || tree_min[v] > p {
                return Err(format!(
                    "bfl: tree_min({v}) = {} outside 1..=post({v})={p}",
                    tree_min[v]
                ));
            }
        }
        Ok(())
    }
}

/// Section tags of the index's own columns; the DAG's are the graph's.
mod tag {
    pub(super) const POST: u16 = 0x70;
    pub(super) const TREE_MIN: u16 = 0x71;
    pub(super) const OUT_FILTERS: u16 = 0x72;
    pub(super) const IN_FILTERS: u16 = 0x73;
}

impl Columns for BflIndex {
    fn store<'a>(&'a self, out: &mut ColumnList<'a>) {
        self.g.store(out);
        out.meta.u64(self.words as u64);
        out.col(tag::POST, &self.post, true);
        out.col(tag::TREE_MIN, &self.tree_min, true);
        out.col(tag::OUT_FILTERS, &self.out_filters, true);
        out.col(tag::IN_FILTERS, &self.in_filters, true);
    }

    fn load<S: Source>(src: &mut S) -> Result<Self, String> {
        let index = BflIndex {
            g: DiGraph::load(src)?,
            words: src.usize()?,
            post: src.col(tag::POST, "bfl-post")?,
            tree_min: src.col(tag::TREE_MIN, "bfl-tree-min")?,
            out_filters: src.col(tag::OUT_FILTERS, "bfl-out-filters")?,
            in_filters: src.col(tag::IN_FILTERS, "bfl-in-filters")?,
        };
        index.validate()?;
        Ok(index)
    }
}

/// Filter pass: visits `order` front to back, OR-ing each vertex's own
/// hash bit with the (already final) filters of its `neighbors`.
fn fill_filters<'a, N>(
    n: usize,
    words: usize,
    order: &[VertexId],
    neighbors: N,
    hash_bit: &impl Fn(VertexId) -> (usize, u64),
) -> Vec<u64>
where
    N: Fn(VertexId) -> &'a [VertexId],
{
    let mut filters = vec![0u64; n * words];
    for &v in order {
        let v = v as usize;
        let (w, m) = hash_bit(v as VertexId);
        filters[v * words + w] |= m;
        for &u in neighbors(v as VertexId) {
            if u as usize == v {
                continue;
            }
            let (dst, src) = split_rows(&mut filters, v, u as usize, words);
            for (d, s) in dst.iter_mut().zip(src) {
                *d |= *s;
            }
        }
    }
    filters
}

/// `a ⊆ b` on bitset rows.
#[inline]
fn subset(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x & !y == 0)
}

/// Disjoint mutable/shared views of rows `v` and `u` of a filter table.
fn split_rows(table: &mut [u64], v: usize, u: usize, words: usize) -> (&mut [u64], &[u64]) {
    debug_assert_ne!(v, u);
    if v < u {
        let (lo, hi) = table.split_at_mut(u * words);
        (&mut lo[v * words..(v + 1) * words], &hi[..words])
    } else {
        let (lo, hi) = table.split_at_mut(v * words);
        (&mut hi[..words], &lo[u * words..(u + 1) * words])
    }
}

impl Reachability for BflIndex {
    fn reaches(&self, from: VertexId, to: VertexId) -> bool {
        let (f, t) = (from as usize, to as usize);
        if f == t {
            return true;
        }
        let to_post = self.post[t];
        if self.tree_contains(f, to_post) {
            return true;
        }
        // On a DFS forest of a DAG, every edge decreases the post number, so
        // reachability implies post(to) < post(from).
        if to_post >= self.post[f] {
            return false;
        }
        if !self.filters_admit(f, t) {
            return false;
        }
        // Guided DFS with the same cuts, over this thread's reusable
        // traversal buffers (zero allocations in steady state).
        crate::scratch::with_traversal_scratch(|s| {
            s.begin(self.g.num_vertices());
            s.stack.push(from);
            s.visited.mark(from);
            while let Some(v) = s.stack.pop() {
                for &w in self.g.out_neighbors(v) {
                    let wi = w as usize;
                    if w == to {
                        return true;
                    }
                    if s.visited.is_marked(w) || self.post[wi] < to_post {
                        continue;
                    }
                    if self.tree_contains(wi, to_post) {
                        return true;
                    }
                    s.visited.mark(w);
                    if self.filters_admit(wi, t) {
                        s.stack.push(w);
                    }
                }
            }
            false
        })
    }

    fn heap_bytes(&self) -> usize {
        ColumnList::of(self).counted_bytes()
    }

    fn name(&self) -> &'static str {
        "BFL"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::reaches_bfs;
    use gsr_graph::graph_from_edges;

    fn check_all_pairs(g: &DiGraph) {
        let idx = BflIndex::build(g);
        for u in g.vertices() {
            for v in g.vertices() {
                assert_eq!(idx.reaches(u, v), reaches_bfs(g, u, v), "BFL wrong for ({u}, {v})");
            }
        }
    }

    #[test]
    fn chain_and_diamond() {
        check_all_pairs(&graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]));
        check_all_pairs(&graph_from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]));
    }

    #[test]
    fn forest_with_cross_edges() {
        check_all_pairs(&graph_from_edges(
            9,
            &[(0, 1), (0, 2), (1, 3), (2, 3), (4, 5), (5, 6), (4, 6), (6, 1), (7, 8)],
        ));
    }

    #[test]
    fn tiny_filters_still_exact() {
        // One word of filter forces collisions; answers must stay exact
        // because the Bloom cut only ever proves *non*-reachability.
        let g = graph_from_edges(30, &(0..29).map(|i| (i, i + 1)).collect::<Vec<_>>());
        let idx = BflIndex::build_with(&g, BflParams { filter_words: 1, seed: 42 });
        for u in g.vertices() {
            for v in g.vertices() {
                assert_eq!(idx.reaches(u, v), u <= v);
            }
        }
    }

    #[test]
    fn subset_test() {
        assert!(subset(&[0b0101], &[0b1101]));
        assert!(!subset(&[0b0101], &[0b0001]));
        assert!(subset(&[0, 0], &[0, 0]));
    }

    #[test]
    fn isolated_vertices() {
        let g = graph_from_edges(3, &[]);
        let idx = BflIndex::build(&g);
        for u in g.vertices() {
            for v in g.vertices() {
                assert_eq!(idx.reaches(u, v), u == v);
            }
        }
    }

    #[test]
    fn heap_accounting_positive() {
        let g = graph_from_edges(10, &[(0, 1), (1, 2)]);
        let idx = BflIndex::build(&g);
        assert!(idx.heap_bytes() > 10 * 2 * 4 * 8, "filters dominate");
        assert_eq!(idx.name(), "BFL");
    }
}
