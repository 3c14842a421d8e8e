//! Interval-based reachability labeling for geosocial networks (Section 3).
//!
//! Every vertex `v` of a DAG receives a set of post-order intervals
//! `L(v)`; `v` reaches `u` iff some interval of `L(v)` contains `post(u)`
//! (Lemma 3.1 of the paper). The scheme is built over a DFS spanning
//! *forest* — geosocial networks have many "root" vertices with only
//! outgoing edges, unlike the hierarchies the original scheme of Agrawal et
//! al. targeted — and compressed by absorbing subsumed intervals and merging
//! adjacent ones.
//!
//! Two equivalent constructions are provided:
//!
//! * [`Builder::BottomUp`] (default): processes vertices by increasing
//!   post-order number. On a DFS forest of a DAG every edge `(v, u)`
//!   satisfies `post(u) < post(v)`, so all of `v`'s out-neighbours are
//!   final when `v` is processed and one union per vertex suffices.
//! * [`Builder::PaperFaithful`]: the literal Algorithm 1 — a priority queue
//!   ordered by (in-degree, post-order) drives a top-down pass over the
//!   spanning forest, labels are propagated to tree ancestors, and the
//!   non-tree edges are processed in increasing source post-order.
//!
//! Both produce the same compressed labeling (tested by equivalence
//! property tests); the bottom-up form is what the benchmarks build.

use crate::Reachability;
use gsr_graph::dfs::SpanningForest;
use gsr_graph::{Col, ColumnList, Columns, DiGraph, Source, VertexId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A closed interval `[lo, hi]` of 1-based post-order numbers.
///
/// `#[repr(C)]` is part of the snapshot contract: sections store label
/// columns as raw `lo, hi` u32 pairs and remap them zero-copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(C)]
pub struct Interval {
    /// Smallest post-order number covered.
    pub lo: u32,
    /// Largest post-order number covered.
    pub hi: u32,
}

// SAFETY: `Interval` is `#[repr(C)] { lo: u32, hi: u32 }` — no padding —
// and every bit pattern is a pair of valid u32s. The structural invariant
// `lo <= hi` is not bit validity; `IntervalLabeling`'s `Columns::load`
// checks it on every untrusted load.
#[allow(unsafe_code)]
unsafe impl gsr_graph::Pod for Interval {}

impl Interval {
    /// Creates an interval; panics in debug builds when inverted.
    #[inline]
    pub fn new(lo: u32, hi: u32) -> Self {
        debug_assert!(lo <= hi, "inverted interval [{lo}, {hi}]");
        Interval { lo, hi }
    }

    /// The singleton interval `[p, p]`.
    #[inline]
    fn point(p: u32) -> Self {
        Interval { lo: p, hi: p }
    }

    /// Whether `p` lies inside the interval.
    #[inline]
    fn contains(&self, p: u32) -> bool {
        self.lo <= p && p <= self.hi
    }

    /// Number of post-order numbers covered.
    #[inline]
    pub fn len(&self) -> u32 {
        self.hi - self.lo + 1
    }

    /// Intervals are never empty; provided for API completeness.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// Which construction algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Builder {
    /// One union per vertex in increasing post-order (default).
    #[default]
    BottomUp,
    /// The literal Algorithm 1 of the paper (priority queue + ancestor
    /// propagation). Slower; used for validation and for the label-count
    /// statistics of Table 6.
    PaperFaithful,
}

/// Construction options for [`IntervalLabeling`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuildOptions {
    /// Construction algorithm.
    pub builder: Builder,
    /// Whether to merge *adjacent* intervals (`[1,4] + [5,7] -> [1,7]`).
    /// Overlapping intervals are always coalesced so label sets stay
    /// disjoint and sorted; disabling this reproduces the "uncompressed"
    /// rows of Table 6.
    pub compress: bool,
    /// Worker threads for the bottom-up construction: `1` (default) runs
    /// the classic sequential loop, `0` uses the machine's available
    /// parallelism, `n > 1` uses exactly `n` threads. The parallel build is
    /// level-scheduled and produces labels **identical** to the sequential
    /// build at any thread count: a vertex's labels depend only on those of
    /// its out-neighbours, which all sit on lower levels.
    /// [`Builder::PaperFaithful`] is inherently sequential and ignores this.
    pub threads: usize,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions { builder: Builder::BottomUp, compress: true, threads: 1 }
    }
}

/// The interval-based labeling of a DAG.
///
/// ```
/// use gsr_graph::graph_from_edges;
/// use gsr_reach::interval::IntervalLabeling;
/// use gsr_reach::Reachability;
///
/// // A diamond: 0 -> {1, 2} -> 3.
/// let g = graph_from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
/// let labels = IntervalLabeling::build(&g);
/// assert!(labels.reaches(0, 3));
/// assert!(!labels.reaches(3, 0));
/// assert_eq!(labels.num_descendants(0), 4); // reflexive
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntervalLabeling {
    /// `post[v]`, 1-based.
    post: Col<u32>,
    /// `post_to_vertex[p - 1]` inverts `post`.
    post_to_vertex: Col<VertexId>,
    /// CSR offsets into `labels` (`labels[offsets[v]..offsets[v+1]]`).
    offsets: Col<u32>,
    /// All labels, sorted and disjoint per vertex.
    labels: Col<Interval>,
}

impl IntervalLabeling {
    /// Builds the labeling with default options (bottom-up, compressed).
    /// `g` must be a DAG.
    pub fn build(g: &DiGraph) -> Self {
        Self::build_with(g, BuildOptions::default())
    }

    /// Builds the labeling with explicit options. `g` must be a DAG;
    /// cyclic inputs produce an unspecified (but memory-safe) labeling.
    pub fn build_with(g: &DiGraph, options: BuildOptions) -> Self {
        let forest = SpanningForest::of(g);
        let threads = gsr_graph::par::effective_threads(options.threads);
        match options.builder {
            Builder::BottomUp if threads > 1 => {
                build_bottom_up_parallel(g, &forest, options.compress, threads)
            }
            Builder::BottomUp => build_bottom_up(g, &forest, options.compress),
            Builder::PaperFaithful => build_paper(g, &forest, options.compress),
        }
    }

    /// Number of vertices labeled.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.post.len()
    }

    /// The post-order number of `v` (1-based).
    #[inline]
    pub fn post(&self, v: VertexId) -> u32 {
        self.post[v as usize]
    }

    /// The vertex with post-order number `p`.
    #[inline]
    pub fn vertex_of_post(&self, p: u32) -> VertexId {
        self.post_to_vertex[(p - 1) as usize]
    }

    /// The label set `L(v)`: sorted, pairwise-disjoint intervals.
    #[inline]
    pub fn intervals(&self, v: VertexId) -> &[Interval] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.labels[lo..hi]
    }

    /// Total number of labels over all vertices — the statistic of Table 6.
    #[inline]
    pub fn num_labels(&self) -> usize {
        self.labels.len()
    }

    /// Whether some label of `v` contains post-order number `p`
    /// (galloping search over the disjoint sorted label set).
    #[inline]
    pub fn covers_post(&self, v: VertexId, p: u32) -> bool {
        gallop_covers(self.intervals(v), p)
    }

    /// Iterator over the descendants of `v` (including `v` itself), i.e.
    /// the set `D(v)` of Section 4.1, produced by expanding each label
    /// interval through the post-order permutation.
    pub fn descendants(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.intervals(v)
            .iter()
            .flat_map(move |iv| (iv.lo..=iv.hi).map(move |p| self.vertex_of_post(p)))
    }

    /// Number of descendants of `v` (including `v`), in `O(|L(v)|)`.
    pub fn num_descendants(&self, v: VertexId) -> usize {
        self.intervals(v).iter().map(|iv| iv.len() as usize).sum()
    }

    /// Heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        ColumnList::of(self).counted_bytes()
    }

    /// Checks columns that came from disk, re-validating every structural
    /// invariant the query path relies on: `post`/`post_to_vertex` must be
    /// mutually inverse 1-based permutations, `offsets` a well-formed CSR
    /// over `labels`, and every interval ordered with endpoints inside
    /// `1..=n`. Violations are reported as `Err(String)` — never panics.
    fn validate(&self) -> Result<(), String> {
        let IntervalLabeling { post, post_to_vertex, offsets, labels } = self;
        let n = post.len();
        if post_to_vertex.len() != n {
            return Err(format!(
                "interval labeling: {n} posts but {} inverse entries",
                post_to_vertex.len()
            ));
        }
        for (v, &p) in post.iter().enumerate() {
            if p == 0 || p as usize > n {
                return Err(format!("interval labeling: post({v}) = {p} outside 1..={n}"));
            }
            let back = post_to_vertex[(p - 1) as usize];
            if back as usize != v {
                return Err(format!(
                    "interval labeling: post_to_vertex[{}] = {back}, expected {v}",
                    p - 1
                ));
            }
        }
        if offsets.len() != n + 1 {
            return Err(format!(
                "interval labeling: {} offsets for {n} vertices, expected {}",
                offsets.len(),
                n + 1
            ));
        }
        if offsets.first() != Some(&0) || offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("interval labeling: label offsets not monotone from 0".into());
        }
        if offsets.last().copied().unwrap_or(0) as usize != labels.len() {
            return Err(format!(
                "interval labeling: offsets claim {} labels but {} present",
                offsets.last().copied().unwrap_or(0),
                labels.len()
            ));
        }
        for (v, w) in offsets.windows(2).enumerate() {
            let set = &labels[w[0] as usize..w[1] as usize];
            for iv in set {
                if iv.lo == 0 || iv.lo > iv.hi || iv.hi as usize > n {
                    return Err(format!(
                        "interval labeling: vertex {v} has malformed interval [{}, {}]",
                        iv.lo, iv.hi
                    ));
                }
            }
            if set.windows(2).any(|p| p[0].hi >= p[1].lo) {
                return Err(format!("interval labeling: vertex {v} labels not sorted+disjoint"));
            }
        }
        Ok(())
    }
}

/// Section tags.
mod tag {
    pub(super) const POST: u16 = 0x40;
    pub(super) const POST_TO_VERTEX: u16 = 0x41;
    pub(super) const OFFSETS: u16 = 0x42;
    pub(super) const INTERVALS: u16 = 0x43;
}

impl Columns for IntervalLabeling {
    fn store<'a>(&'a self, out: &mut ColumnList<'a>) {
        out.col(tag::POST, &self.post, true);
        out.col(tag::POST_TO_VERTEX, &self.post_to_vertex, true);
        out.col(tag::OFFSETS, &self.offsets, true);
        out.col(tag::INTERVALS, &self.labels, true);
    }

    fn load<S: Source>(src: &mut S) -> Result<Self, String> {
        let labeling = IntervalLabeling {
            post: src.col(tag::POST, "labeling-post")?,
            post_to_vertex: src.col(tag::POST_TO_VERTEX, "labeling-inverse")?,
            offsets: src.col(tag::OFFSETS, "labeling-offsets")?,
            labels: src.col(tag::INTERVALS, "labeling-intervals")?,
        };
        labeling.validate()?;
        Ok(labeling)
    }
}

impl Reachability for IntervalLabeling {
    fn reaches(&self, from: VertexId, to: VertexId) -> bool {
        self.covers_post(from, self.post(to))
    }

    fn heap_bytes(&self) -> usize {
        IntervalLabeling::heap_bytes(self)
    }

    fn name(&self) -> &'static str {
        "INT"
    }
}

/// Whether some interval of the sorted, pairwise-disjoint set `labels`
/// contains `p`, by galloping (exponential) search: double the probe stride
/// until an interval with `lo > p` is overshot, then binary-search the last
/// bracket. Labels skew heavily toward small sets where the answer sits in
/// the first few entries (Table 6 of the paper: the vast majority of
/// vertices carry one or two intervals after compression), so galloping
/// touches fewer cache lines than a full-width binary search while keeping
/// the `O(log |L|)` worst case.
#[inline]
pub fn gallop_covers(labels: &[Interval], p: u32) -> bool {
    let n = labels.len();
    if n == 0 || labels[0].lo > p {
        return false;
    }
    // Find an exponential bracket: labels[bound >> 1].lo <= p and either
    // bound >= n or labels[bound].lo > p.
    let mut bound = 1usize;
    while bound < n && labels[bound].lo <= p {
        bound <<= 1;
    }
    // Binary search in (lo, hi) for the last interval with .lo <= p;
    // invariant: labels[lo].lo <= p, and labels[hi] (if any) has .lo > p.
    let mut lo = bound >> 1;
    let mut hi = bound.min(n);
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if labels[mid].lo <= p {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    labels[lo].contains(p)
}

/// Reference implementation of [`gallop_covers`]: plain binary search for
/// the last interval with `lo <= p`.
#[inline]
pub fn binary_covers(labels: &[Interval], p: u32) -> bool {
    match labels.binary_search_by(|iv| iv.lo.cmp(&p)) {
        Ok(_) => true,
        Err(0) => false,
        Err(i) => labels[i - 1].contains(p),
    }
}

/// Coalesces a sorted interval list in place: overlapping intervals always
/// merge; adjacent intervals (`hi + 1 == lo`) merge only when
/// `merge_adjacent` is set. The input must be sorted by `lo`.
fn coalesce(intervals: &mut Vec<Interval>, merge_adjacent: bool) {
    debug_assert!(intervals.windows(2).all(|w| w[0].lo <= w[1].lo));
    let mut out = 0usize;
    for i in 0..intervals.len() {
        if out == 0 {
            intervals[0] = intervals[i];
            out = 1;
            continue;
        }
        let cur = intervals[out - 1];
        let next = intervals[i];
        let glue = if merge_adjacent { cur.hi.saturating_add(1) } else { cur.hi };
        if next.lo <= glue {
            intervals[out - 1].hi = cur.hi.max(next.hi);
        } else {
            intervals[out] = next;
            out += 1;
        }
    }
    intervals.truncate(out);
}

/// Merges sorted, disjoint `src` into sorted, disjoint `dst`.
fn union_into(
    dst: &mut Vec<Interval>,
    src: &[Interval],
    merge_adjacent: bool,
    scratch: &mut Vec<Interval>,
) {
    if src.is_empty() {
        return;
    }
    scratch.clear();
    scratch.reserve(dst.len() + src.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < dst.len() && j < src.len() {
        if dst[i].lo <= src[j].lo {
            scratch.push(dst[i]);
            i += 1;
        } else {
            scratch.push(src[j]);
            j += 1;
        }
    }
    scratch.extend_from_slice(&dst[i..]);
    scratch.extend_from_slice(&src[j..]);
    coalesce(scratch, merge_adjacent);
    std::mem::swap(dst, scratch);
}

/// Bottom-up construction: one union per vertex in increasing post-order.
///
/// Every vertex starts from its *tree-cover interval* `[index(v), post(v)]`
/// (the contiguous post-order range of its DFS subtree — the label of the
/// original scheme of Agrawal et al.), so the label count before
/// adjacency-merging stays proportional to the number of non-tree
/// reachability relations, matching how the paper's Table 6 counts
/// uncompressed labels.
fn build_bottom_up(g: &DiGraph, forest: &SpanningForest, compress: bool) -> IntervalLabeling {
    let n = g.num_vertices();
    let mut sets: Vec<Vec<Interval>> = vec![Vec::new(); n];
    let mut scratch: Vec<Interval> = Vec::new();
    let subtree_size = subtree_sizes(forest);

    for p in 1..=n as u32 {
        let v = forest.post_to_vertex[(p - 1) as usize];
        let index_v = p - subtree_size[v as usize] + 1;
        let mut own = vec![Interval::new(index_v, p)];
        for &u in g.out_neighbors(v) {
            if u == v {
                continue; // self-loops carry no extra reachability
            }
            // All out-neighbours have smaller posts on a DAG DFS forest,
            // so sets[u] is final here. Tree children are fully covered by
            // the tree interval; only their non-tree labels survive.
            let set = std::mem::take(&mut sets[u as usize]);
            union_into(&mut own, &set, compress, &mut scratch);
            sets[u as usize] = set;
        }
        sets[v as usize] = own;
    }

    finish(forest, sets)
}

/// `index(v)`: the smallest post-order number in `v`'s DFS subtree.
/// Subtrees occupy contiguous post ranges, so
/// `index(v) = post(v) - size(v) + 1`.
fn subtree_sizes(forest: &SpanningForest) -> Vec<u32> {
    let n = forest.post.len();
    let mut subtree_size = vec![1u32; n];
    for p in 1..=n as u32 {
        let v = forest.post_to_vertex[(p - 1) as usize];
        let parent = forest.parent[v as usize];
        if parent != gsr_graph::dfs::NO_PARENT {
            subtree_size[parent as usize] += subtree_size[v as usize];
        }
    }
    subtree_size
}

/// Level-scheduled parallel form of [`build_bottom_up`].
///
/// On a DAG DFS forest every out-neighbour of `v` has a smaller post-order
/// number, so `L(v)` is a **pure function** of the final label sets of its
/// out-neighbours — the sequential loop exploits this by processing posts
/// in increasing order. Here the same dependency structure is made
/// explicit: `depth(v) = 1 + max(depth(out-neighbours))` partitions the
/// vertices into levels whose members are mutually independent, each level
/// is computed by [`gsr_graph::par::map_indexed_with`] with results placed
/// by index, and levels run in increasing depth so all inputs are final.
/// Because each per-vertex computation is bit-identical to the sequential
/// one and no result depends on worker scheduling, the output labeling is
/// **identical** to the sequential build at any thread count.
fn build_bottom_up_parallel(
    g: &DiGraph,
    forest: &SpanningForest,
    compress: bool,
    threads: usize,
) -> IntervalLabeling {
    let n = g.num_vertices();
    let subtree_size = subtree_sizes(forest);

    // Increasing post order visits every out-neighbour before its sources.
    let levels = gsr_graph::topo::levels(n, &forest.post_to_vertex, |v| g.out_neighbors(v));

    let mut sets: Vec<Vec<Interval>> = vec![Vec::new(); n];
    for level in &levels {
        let results = gsr_graph::par::map_indexed_with(
            threads,
            level.len(),
            Vec::new,
            |scratch: &mut Vec<Interval>, i| {
                let v = level[i];
                let p = forest.post[v as usize];
                let index_v = p - subtree_size[v as usize] + 1;
                let mut own = vec![Interval::new(index_v, p)];
                for &u in g.out_neighbors(v) {
                    if u != v {
                        // Strictly smaller depth => finalized in an earlier
                        // level sweep.
                        union_into(&mut own, &sets[u as usize], compress, scratch);
                    }
                }
                own
            },
        );
        for (i, set) in results.into_iter().enumerate() {
            sets[level[i] as usize] = set;
        }
    }

    finish(forest, sets)
}

/// The literal Algorithm 1 of the paper.
fn build_paper(g: &DiGraph, forest: &SpanningForest, compress: bool) -> IntervalLabeling {
    let n = g.num_vertices();
    let mut sets: Vec<Vec<Interval>> =
        (0..n).map(|v| vec![Interval::point(forest.post[v])]).collect();
    let mut scratch: Vec<Interval> = Vec::new();

    // Lines 7-9: initialize the priority queue with the forest roots.
    // Priority: fewer incoming edges first, ties by post-order number.
    let mut queue: BinaryHeap<Reverse<(u32, u32, VertexId)>> = BinaryHeap::new();
    let mut queued = vec![false; n];
    for &r in &forest.roots {
        queue.push(Reverse((g.in_degree(r) as u32, forest.post[r as usize], r)));
        queued[r as usize] = true;
    }

    // Lines 10-18: traverse the spanning forest, propagating labels upward.
    while let Some(Reverse((_, _, v))) = queue.pop() {
        let children: Vec<VertexId> =
            g.out_neighbors(v).iter().copied().filter(|&u| forest.is_tree_edge(v, u)).collect();
        for u in children {
            // L(v) ∪= L(u)
            let child_set = std::mem::take(&mut sets[u as usize]);
            {
                let mut own = std::mem::take(&mut sets[v as usize]);
                union_into(&mut own, &child_set, compress, &mut scratch);
                sets[v as usize] = own;
            }
            sets[u as usize] = child_set;
            // L(w) ∪= L(v) for each tree ancestor w of v.
            let v_set = sets[v as usize].clone();
            for w in forest.ancestors(v) {
                let mut anc = std::mem::take(&mut sets[w as usize]);
                union_into(&mut anc, &v_set, compress, &mut scratch);
                sets[w as usize] = anc;
            }
            if !queued[u as usize] {
                queued[u as usize] = true;
                queue.push(Reverse((g.in_degree(u) as u32, forest.post[u as usize], u)));
            }
        }
    }

    // Lines 19-24: non-spanning edges by increasing source post-order.
    for (v, u) in forest.non_tree_edges_by_source_post(g) {
        if u == v {
            continue;
        }
        let target_set = std::mem::take(&mut sets[u as usize]);
        {
            let mut own = std::mem::take(&mut sets[v as usize]);
            union_into(&mut own, &target_set, compress, &mut scratch);
            sets[v as usize] = own;
        }
        sets[u as usize] = target_set;
        let v_set = sets[v as usize].clone();
        for w in forest.ancestors(v) {
            let mut anc = std::mem::take(&mut sets[w as usize]);
            union_into(&mut anc, &v_set, compress, &mut scratch);
            sets[w as usize] = anc;
        }
    }

    finish(forest, sets)
}

/// Flattens per-vertex sets into the CSR labeling.
fn finish(forest: &SpanningForest, sets: Vec<Vec<Interval>>) -> IntervalLabeling {
    let n = sets.len();
    let total: usize = sets.iter().map(Vec::len).sum();
    let mut offsets = Vec::with_capacity(n + 1);
    let mut labels = Vec::with_capacity(total);
    offsets.push(0u32);
    for set in &sets {
        labels.extend_from_slice(set);
        offsets.push(labels.len() as u32);
    }
    IntervalLabeling {
        post: forest.post.clone().into(),
        post_to_vertex: forest.post_to_vertex.clone().into(),
        offsets: offsets.into(),
        labels: labels.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsr_graph::graph_from_edges;

    /// The condensed running example of the paper (Figure 1 / Figure 3 /
    /// Table 1): vertices a..l mapped to ids 0..11.
    ///
    /// ```text
    /// a=0 b=1 c=2 d=3 e=4 f=5 g=6 h=7 i=8 j=9 k=10 l=11
    /// ```
    fn paper_graph() -> DiGraph {
        const A: u32 = 0;
        const B: u32 = 1;
        const C: u32 = 2;
        const D: u32 = 3;
        const E: u32 = 4;
        const F: u32 = 5;
        const G: u32 = 6;
        const H: u32 = 7;
        const I: u32 = 8;
        const J: u32 = 9;
        const K: u32 = 10;
        const L: u32 = 11;
        graph_from_edges(
            12,
            &[
                // Spanning tree of Figure 3, rooted at a:
                (A, B),
                (A, D),
                (A, J),
                (B, E),
                (B, L),
                (E, F),
                (J, G),
                (J, H),
                // Spanning tree rooted at c:
                (C, I),
                (C, K),
                // Non-spanning edges:
                (L, H),
                (B, D),
                (G, I),
                (I, F),
                (C, D),
            ],
        )
    }

    fn naive_reaches(g: &DiGraph, s: VertexId, t: VertexId) -> bool {
        let mut visited = vec![false; g.num_vertices()];
        let mut stack = vec![s];
        visited[s as usize] = true;
        while let Some(v) = stack.pop() {
            if v == t {
                return true;
            }
            for &w in g.out_neighbors(v) {
                if !visited[w as usize] {
                    visited[w as usize] = true;
                    stack.push(w);
                }
            }
        }
        false
    }

    fn assert_matches_bfs(g: &DiGraph, l: &IntervalLabeling) {
        for u in g.vertices() {
            for v in g.vertices() {
                assert_eq!(
                    l.reaches(u, v),
                    naive_reaches(g, u, v),
                    "labeling wrong for ({u}, {v})"
                );
            }
        }
    }

    #[test]
    fn coalesce_merges_overlaps_and_adjacency() {
        let mut v = vec![
            Interval::new(1, 4),
            Interval::new(2, 3),
            Interval::new(4, 5),
            Interval::new(7, 7),
            Interval::new(8, 9),
        ];
        let mut adjacent = v.clone();
        coalesce(&mut v, false);
        assert_eq!(v, vec![Interval::new(1, 5), Interval::new(7, 7), Interval::new(8, 9)]);
        coalesce(&mut adjacent, true);
        assert_eq!(adjacent, vec![Interval::new(1, 5), Interval::new(7, 9)]);
    }

    #[test]
    fn paper_example_bottom_up_is_correct() {
        let g = paper_graph();
        let l = IntervalLabeling::build(&g);
        assert_matches_bfs(&g, &l);
    }

    #[test]
    fn paper_example_paper_builder_is_correct() {
        let g = paper_graph();
        let l = IntervalLabeling::build_with(
            &g,
            BuildOptions {
                builder: Builder::PaperFaithful,
                compress: true,
                ..BuildOptions::default()
            },
        );
        assert_matches_bfs(&g, &l);
    }

    #[test]
    fn paper_example_reproduces_table_1_shape() {
        // With the same spanning forest as Figure 3, the compressed label of
        // the root a must be the single interval [1, 10] (Table 1, final
        // column) and c must have three labels.
        let g = paper_graph();
        let l = IntervalLabeling::build(&g);
        let a = 0u32;
        let c = 2u32;
        assert_eq!(l.num_descendants(a), 10, "a reaches 10 vertices incl. itself");
        assert_eq!(l.intervals(a).len(), 1, "L(a) compresses to one interval");
        assert_eq!(
            l.intervals(a)[0].len(),
            10,
            "L(a)'s single interval covers ten posts, as in Table 1"
        );
        assert_eq!(l.intervals(c).len(), 3, "L(c) = {{[1,1],[5,5],[10,12]}} shape");
        assert_eq!(l.num_descendants(c), 5, "c reaches f, d, i, k and itself");
    }

    #[test]
    fn parallel_build_matches_sequential_exactly() {
        let g = paper_graph();
        for compress in [true, false] {
            let seq = IntervalLabeling::build_with(
                &g,
                BuildOptions { compress, ..BuildOptions::default() },
            );
            for threads in [2, 3, 4, 8] {
                let par = IntervalLabeling::build_with(
                    &g,
                    BuildOptions { compress, threads, ..BuildOptions::default() },
                );
                assert_eq!(seq.offsets, par.offsets, "threads = {threads}");
                assert_eq!(seq.labels, par.labels, "threads = {threads}");
                assert_eq!(seq.post, par.post, "threads = {threads}");
            }
        }
    }

    #[test]
    fn builders_agree_on_compressed_labels() {
        let g = paper_graph();
        let bottom = IntervalLabeling::build(&g);
        let paper = IntervalLabeling::build_with(
            &g,
            BuildOptions {
                builder: Builder::PaperFaithful,
                compress: true,
                ..BuildOptions::default()
            },
        );
        for v in g.vertices() {
            assert_eq!(bottom.intervals(v), paper.intervals(v), "labels differ at {v}");
        }
    }

    #[test]
    fn uncompressed_has_at_least_as_many_labels() {
        let g = paper_graph();
        let compressed = IntervalLabeling::build(&g);
        let raw = IntervalLabeling::build_with(
            &g,
            BuildOptions { builder: Builder::BottomUp, compress: false, ..BuildOptions::default() },
        );
        assert!(raw.num_labels() >= compressed.num_labels());
        // Reachability answers are identical either way.
        for u in g.vertices() {
            for v in g.vertices() {
                assert_eq!(compressed.reaches(u, v), raw.reaches(u, v));
            }
        }
    }

    #[test]
    fn descendants_set_matches_lemma() {
        let g = paper_graph();
        let l = IntervalLabeling::build(&g);
        for v in g.vertices() {
            let mut d: Vec<VertexId> = l.descendants(v).collect();
            d.sort_unstable();
            let mut expected: Vec<VertexId> =
                g.vertices().filter(|&u| naive_reaches(&g, v, u)).collect();
            expected.sort_unstable();
            assert_eq!(d, expected, "D({v}) mismatch");
            assert_eq!(l.num_descendants(v), expected.len());
        }
    }

    #[test]
    fn covers_post_binary_search_edges() {
        let g = graph_from_edges(3, &[(0, 1), (0, 2)]);
        let l = IntervalLabeling::build(&g);
        // Vertex 0 reaches everything; posts are 1..=3.
        assert!(l.covers_post(0, 1));
        assert!(l.covers_post(0, 3));
        // A leaf covers only its own post.
        let leaf = 1u32;
        let p = l.post(leaf);
        assert!(l.covers_post(leaf, p));
        assert!(!l.covers_post(leaf, l.post(0)));
    }

    #[test]
    fn gallop_agrees_with_binary_on_edges() {
        // Hand-picked adversarial shapes; the randomised comparison lives in
        // the proptest suite (tests/props_compact.rs).
        let sets: &[&[Interval]] = &[
            &[],
            &[Interval::new(5, 5)],
            &[Interval::new(1, 3), Interval::new(5, 5), Interval::new(9, 20)],
            &[
                Interval::new(2, 2),
                Interval::new(4, 4),
                Interval::new(6, 6),
                Interval::new(8, 8),
                Interval::new(10, 10),
            ],
            &[Interval::new(1, u32::MAX)],
            &[Interval::new(u32::MAX, u32::MAX)],
        ];
        for labels in sets {
            for p in 0..=25u32 {
                assert_eq!(gallop_covers(labels, p), binary_covers(labels, p), "{labels:?} @ {p}");
            }
            for p in [u32::MAX - 1, u32::MAX] {
                assert_eq!(gallop_covers(labels, p), binary_covers(labels, p), "{labels:?} @ {p}");
            }
        }
    }

    #[test]
    fn parts_round_trip_and_validation() {
        use gsr_graph::columns::MemSource;
        let g = paper_graph();
        let l = IntervalLabeling::build(&g);
        let back: IntervalLabeling =
            MemSource::new(ColumnList::of(&l)).load().expect("valid columns must reassemble");
        assert_eq!(l, back);
        assert_eq!(l.heap_bytes(), back.heap_bytes());

        // Broken permutation.
        let mut bad = l.clone();
        let mut post = l.post.to_vec();
        post[0] = post[1];
        bad.post = post.into();
        assert!(bad.validate().is_err());
        // Out-of-range interval endpoint.
        let mut bad = l.clone();
        let mut labels = l.labels.to_vec();
        labels[0] = Interval { lo: 1, hi: u32::MAX };
        bad.labels = labels.into();
        assert!(bad.validate().is_err());
        // Truncated offsets.
        let mut bad = l.clone();
        bad.offsets = l.offsets[..l.offsets.len() - 1].to_vec().into();
        assert!(bad.validate().is_err());
    }

    #[test]
    fn empty_and_single_vertex() {
        let g0 = graph_from_edges(0, &[]);
        let l0 = IntervalLabeling::build(&g0);
        assert_eq!(l0.num_labels(), 0);

        let g1 = graph_from_edges(1, &[]);
        let l1 = IntervalLabeling::build(&g1);
        assert!(l1.reaches(0, 0));
        assert_eq!(l1.num_descendants(0), 1);
    }

    #[test]
    fn disconnected_components_do_not_reach_each_other() {
        let g = graph_from_edges(4, &[(0, 1), (2, 3)]);
        let l = IntervalLabeling::build(&g);
        assert!(l.reaches(0, 1));
        assert!(!l.reaches(0, 2));
        assert!(!l.reaches(0, 3));
        assert!(!l.reaches(2, 1));
    }

    #[test]
    fn reversed_labeling_answers_ancestor_queries() {
        // Building on the reversed graph turns reaches(u, v) into
        // "v reaches u in the original": the 3DReach-REV construction.
        let g = paper_graph();
        let rev = IntervalLabeling::build(&g.reversed());
        for u in g.vertices() {
            for v in g.vertices() {
                assert_eq!(rev.reaches(u, v), naive_reaches(&g, v, u));
            }
        }
    }
}
