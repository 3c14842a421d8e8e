//! DFS spanning forests with global post-order numbering.
//!
//! The interval-based labeling of Section 3 is built on a *spanning forest*
//! of the (DAG) input: geosocial networks have many vertices with only
//! outgoing edges, each of which roots a separate spanning tree (Section
//! 3.2). This module computes such a forest by depth-first search.
//!
//! Using a DFS forest (rather than an arbitrary spanning forest) matters for
//! the correctness of Algorithm 1: on a DAG, every non-tree edge `(v, u)` of
//! a DFS forest satisfies `post(u) < post(v)` (there are no back edges), so
//! processing non-tree edges by increasing source post-order guarantees the
//! target's labels are already final. See `gsr-reach::interval`.

use crate::{DiGraph, VertexId};

/// Sentinel for "no parent" in [`SpanningForest::parent`].
pub const NO_PARENT: VertexId = VertexId::MAX;

/// How the DFS chooses among candidate vertices — the knob behind the
/// paper's future-work question on "the role of optimal (e.g., shallow)
/// spanning forests in the construction of the interval-based labeling"
/// (Section 8). The strategy orders both the root sequence and each
/// vertex's out-neighbour visit order; different orders change which edges
/// become tree edges and therefore how many extra labels the non-tree
/// edges generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ForestStrategy {
    /// Ascending vertex id (CSR order) — the deterministic default.
    #[default]
    VertexOrder,
    /// Visit high-out-degree neighbours first: hubs become internal tree
    /// vertices, so their large descendant sets are covered by tree
    /// intervals instead of propagated labels.
    HighDegreeFirst,
    /// Visit low-out-degree neighbours first (the adversarial counterpart).
    LowDegreeFirst,
    /// A seeded pseudo-random order, for randomized ensembles.
    Random(u64),
}

/// A DFS spanning forest of a DAG with 1-based global post-order numbers.
///
/// ```
/// use gsr_graph::dfs::SpanningForest;
/// use gsr_graph::graph_from_edges;
///
/// let g = graph_from_edges(3, &[(0, 1), (0, 2)]);
/// let f = SpanningForest::of(&g);
/// assert_eq!(f.roots, vec![0]);
/// assert_eq!(f.post[0], 3, "the root finishes last");
/// ```
#[derive(Debug, Clone)]
pub struct SpanningForest {
    /// `post[v]` is the post-order number of `v`, in `1..=n`.
    pub post: Vec<u32>,
    /// `post_to_vertex[p - 1]` is the vertex with post-order number `p`.
    pub post_to_vertex: Vec<VertexId>,
    /// `parent[v]` is the tree parent of `v`, or [`NO_PARENT`] for roots.
    pub parent: Vec<VertexId>,
    /// The tree roots, in the order their trees were traversed.
    pub roots: Vec<VertexId>,
}

impl SpanningForest {
    /// Builds the DFS spanning forest of `g`.
    ///
    /// Trees are rooted at the vertices with in-degree zero (the paper's
    /// "vertices with only outgoing edges"), visited in ascending id order;
    /// any vertex still unvisited afterwards (possible only when `g` has a
    /// cycle, which the condensation rules out) roots an extra tree so the
    /// forest always spans all vertices.
    pub fn of(g: &DiGraph) -> SpanningForest {
        Self::of_with(g, ForestStrategy::VertexOrder)
    }

    /// Builds the DFS spanning forest with an explicit visit strategy.
    pub fn of_with(g: &DiGraph, strategy: ForestStrategy) -> SpanningForest {
        let n = g.num_vertices();
        let order = visit_order(g, strategy);
        let mut post = vec![0u32; n];
        let mut post_to_vertex = vec![0 as VertexId; n];
        let mut parent = vec![NO_PARENT; n];
        let mut roots = Vec::new();
        let mut visited = vec![false; n];
        let mut counter = 0u32;

        // Frames: (vertex, position in its out-neighbour list).
        let mut frames: Vec<(VertexId, usize)> = Vec::new();

        let run_tree = |root: VertexId,
                        visited: &mut Vec<bool>,
                        parent: &mut Vec<VertexId>,
                        post: &mut Vec<u32>,
                        post_to_vertex: &mut Vec<VertexId>,
                        counter: &mut u32,
                        frames: &mut Vec<(VertexId, usize)>| {
            visited[root as usize] = true;
            frames.push((root, 0));
            while let Some(&mut (v, ref mut pos)) = frames.last_mut() {
                let neighbors = order.neighbors(v);
                if *pos < neighbors.len() {
                    let w = neighbors[*pos];
                    *pos += 1;
                    if !visited[w as usize] {
                        visited[w as usize] = true;
                        parent[w as usize] = v;
                        frames.push((w, 0));
                    }
                } else {
                    frames.pop();
                    *counter += 1;
                    post[v as usize] = *counter;
                    post_to_vertex[(*counter - 1) as usize] = v;
                }
            }
        };

        for &v in &order.roots {
            if !visited[v as usize] {
                roots.push(v);
                run_tree(
                    v,
                    &mut visited,
                    &mut parent,
                    &mut post,
                    &mut post_to_vertex,
                    &mut counter,
                    &mut frames,
                );
            }
        }
        // Safety net for non-DAG inputs: cover any remaining vertices.
        for v in 0..n as VertexId {
            if !visited[v as usize] {
                roots.push(v);
                run_tree(
                    v,
                    &mut visited,
                    &mut parent,
                    &mut post,
                    &mut post_to_vertex,
                    &mut counter,
                    &mut frames,
                );
            }
        }

        SpanningForest { post, post_to_vertex, parent, roots }
    }

    /// Number of vertices spanned.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.post.len()
    }

    /// Whether edge `(u, v)` is a tree edge of this forest.
    #[inline]
    pub fn is_tree_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.parent[v as usize] == u
    }

    /// Iterator over the tree ancestors of `v` (excluding `v` itself),
    /// closest first.
    pub fn ancestors(&self, v: VertexId) -> Ancestors<'_> {
        Ancestors { parent: &self.parent, current: self.parent[v as usize] }
    }

    /// The non-tree edges of `g` with respect to this forest, sorted by the
    /// post-order number of their *source* vertex (ascending) — the
    /// processing order of Algorithm 1's final phase.
    pub fn non_tree_edges_by_source_post(&self, g: &DiGraph) -> Vec<(VertexId, VertexId)> {
        let mut edges: Vec<(VertexId, VertexId)> =
            g.edges().filter(|&(u, v)| !self.is_tree_edge(u, v)).collect();
        edges.sort_unstable_by_key(|&(u, _)| self.post[u as usize]);
        edges
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.post.len() * 4
            + self.post_to_vertex.len() * 4
            + self.parent.len() * 4
            + self.roots.len() * 4
    }
}

/// Precomputed visit orders for one DFS run.
struct VisitOrder<'a> {
    g: &'a DiGraph,
    /// Root visit sequence (in-degree-0 vertices, strategy-ordered).
    roots: Vec<VertexId>,
    /// Reordered adjacency, or `None` to use CSR order directly.
    adjacency: Option<(Vec<u32>, Vec<VertexId>)>,
}

impl VisitOrder<'_> {
    fn neighbors(&self, v: VertexId) -> &[VertexId] {
        match &self.adjacency {
            None => self.g.out_neighbors(v),
            Some((offsets, targets)) => {
                let lo = offsets[v as usize] as usize;
                let hi = offsets[v as usize + 1] as usize;
                &targets[lo..hi]
            }
        }
    }
}

fn visit_order(g: &DiGraph, strategy: ForestStrategy) -> VisitOrder<'_> {
    let n = g.num_vertices();
    let mut roots: Vec<VertexId> = (0..n as VertexId).filter(|&v| g.in_degree(v) == 0).collect();

    let adjacency = match strategy {
        ForestStrategy::VertexOrder => None,
        ForestStrategy::HighDegreeFirst | ForestStrategy::LowDegreeFirst => {
            let descending = strategy == ForestStrategy::HighDegreeFirst;
            let key = |v: VertexId| {
                let d = g.out_degree(v) as i64;
                if descending {
                    (-d, v)
                } else {
                    (d, v)
                }
            };
            roots.sort_unstable_by_key(|&v| key(v));
            let mut offsets = Vec::with_capacity(n + 1);
            let mut targets = Vec::with_capacity(g.num_edges());
            offsets.push(0u32);
            for v in 0..n as VertexId {
                let mut adj: Vec<VertexId> = g.out_neighbors(v).to_vec();
                adj.sort_unstable_by_key(|&w| key(w));
                targets.extend_from_slice(&adj);
                offsets.push(targets.len() as u32);
            }
            Some((offsets, targets))
        }
        ForestStrategy::Random(seed) => {
            let mut state = seed ^ 0x9E3779B97F4A7C15;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            for i in (1..roots.len()).rev() {
                let j = (next() % (i as u64 + 1)) as usize;
                roots.swap(i, j);
            }
            let mut offsets = Vec::with_capacity(n + 1);
            let mut targets = Vec::with_capacity(g.num_edges());
            offsets.push(0u32);
            for v in 0..n as VertexId {
                let mut adj: Vec<VertexId> = g.out_neighbors(v).to_vec();
                for i in (1..adj.len()).rev() {
                    let j = (next() % (i as u64 + 1)) as usize;
                    adj.swap(i, j);
                }
                targets.extend_from_slice(&adj);
                offsets.push(targets.len() as u32);
            }
            Some((offsets, targets))
        }
    };

    VisitOrder { g, roots, adjacency }
}

/// Iterator over tree ancestors; see [`SpanningForest::ancestors`].
pub struct Ancestors<'a> {
    parent: &'a [VertexId],
    current: VertexId,
}

impl Iterator for Ancestors<'_> {
    type Item = VertexId;

    fn next(&mut self) -> Option<VertexId> {
        if self.current == NO_PARENT {
            return None;
        }
        let v = self.current;
        self.current = self.parent[v as usize];
        Some(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;

    #[test]
    fn post_orders_are_a_permutation() {
        let g = graph_from_edges(6, &[(0, 1), (0, 2), (2, 3), (4, 5), (1, 3)]);
        let f = SpanningForest::of(&g);
        let mut posts: Vec<u32> = f.post.clone();
        posts.sort_unstable();
        assert_eq!(posts, (1..=6).collect::<Vec<_>>());
        for v in 0..6u32 {
            assert_eq!(f.post_to_vertex[(f.post[v as usize] - 1) as usize], v);
        }
    }

    #[test]
    fn parents_form_trees_rooted_at_sources() {
        let g = graph_from_edges(5, &[(0, 1), (0, 2), (1, 3), (2, 3), (4, 3)]);
        let f = SpanningForest::of(&g);
        assert_eq!(f.roots, vec![0, 4]);
        assert_eq!(f.parent[0], NO_PARENT);
        assert_eq!(f.parent[4], NO_PARENT);
        // Vertex 3 was discovered through exactly one of its in-edges.
        assert!([1u32, 2, 4].contains(&f.parent[3]));
    }

    #[test]
    fn dag_non_tree_edges_point_to_smaller_post() {
        // Non-tree edges of a DFS forest on a DAG always satisfy
        // post(target) < post(source): the property the labeling relies on.
        let g =
            graph_from_edges(7, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (1, 4), (5, 6), (5, 2)]);
        let f = SpanningForest::of(&g);
        for (u, v) in f.non_tree_edges_by_source_post(&g) {
            assert!(
                f.post[v as usize] < f.post[u as usize],
                "non-tree edge ({u},{v}) has post {} >= {}",
                f.post[v as usize],
                f.post[u as usize]
            );
        }
    }

    #[test]
    fn non_tree_edges_sorted_by_source_post() {
        let g =
            graph_from_edges(7, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (1, 4), (5, 6), (5, 2)]);
        let f = SpanningForest::of(&g);
        let e = f.non_tree_edges_by_source_post(&g);
        assert!(e.windows(2).all(|w| f.post[w[0].0 as usize] <= f.post[w[1].0 as usize]));
        // Tree + non-tree edges partition the edge set.
        let tree_count = g.edges().filter(|&(u, v)| f.is_tree_edge(u, v)).count();
        assert_eq!(tree_count + e.len(), g.num_edges());
    }

    #[test]
    fn ancestor_chain_walks_to_root() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let f = SpanningForest::of(&g);
        let chain: Vec<_> = f.ancestors(3).collect();
        assert_eq!(chain, vec![2, 1, 0]);
        assert_eq!(f.ancestors(0).count(), 0);
    }

    #[test]
    fn ancestors_have_larger_posts() {
        let g = graph_from_edges(6, &[(0, 1), (0, 2), (2, 3), (2, 4), (4, 5)]);
        let f = SpanningForest::of(&g);
        for v in 0..6u32 {
            for a in f.ancestors(v) {
                assert!(f.post[a as usize] > f.post[v as usize]);
            }
        }
    }

    #[test]
    fn strategies_produce_valid_forests() {
        let g = graph_from_edges(
            9,
            &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (1, 4), (5, 6), (5, 2), (7, 8)],
        );
        for strategy in [
            ForestStrategy::VertexOrder,
            ForestStrategy::HighDegreeFirst,
            ForestStrategy::LowDegreeFirst,
            ForestStrategy::Random(1),
            ForestStrategy::Random(99),
        ] {
            let f = SpanningForest::of_with(&g, strategy);
            let mut posts = f.post.clone();
            posts.sort_unstable();
            assert_eq!(posts, (1..=9).collect::<Vec<_>>(), "{strategy:?}");
            // Non-tree edges still point to smaller posts (DFS on a DAG).
            for (u, v) in f.non_tree_edges_by_source_post(&g) {
                assert!(f.post[v as usize] < f.post[u as usize], "{strategy:?}");
            }
            // Parents are real edges.
            for v in g.vertices() {
                let p = f.parent[v as usize];
                if p != NO_PARENT {
                    assert!(g.has_edge(p, v), "{strategy:?}: parent edge missing");
                }
            }
        }
    }

    #[test]
    fn high_degree_first_visits_hubs_early() {
        // 0 -> {1, 2}; 1 is a hub with many children, 2 is a leaf. Under
        // HighDegreeFirst, 1 must be visited before 2, making 2 finish
        // *after* the hub subtree.
        let g = graph_from_edges(7, &[(0, 1), (0, 2), (1, 3), (1, 4), (1, 5), (1, 6)]);
        let f = SpanningForest::of_with(&g, ForestStrategy::HighDegreeFirst);
        assert!(f.post[1] < f.post[2], "hub subtree finishes before the leaf");
        let f2 = SpanningForest::of_with(&g, ForestStrategy::LowDegreeFirst);
        assert!(f2.post[2] < f2.post[1], "leaf first under LowDegreeFirst");
    }

    #[test]
    fn random_strategy_is_seed_deterministic() {
        let g = graph_from_edges(8, &[(0, 1), (0, 2), (2, 3), (2, 4), (4, 5), (0, 6), (6, 7)]);
        let a = SpanningForest::of_with(&g, ForestStrategy::Random(42));
        let b = SpanningForest::of_with(&g, ForestStrategy::Random(42));
        assert_eq!(a.post, b.post);
    }

    #[test]
    fn covers_cyclic_leftovers() {
        // A pure cycle has no in-degree-0 vertex; the safety net must still
        // span it.
        let g = graph_from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let f = SpanningForest::of(&g);
        let mut posts = f.post.clone();
        posts.sort_unstable();
        assert_eq!(posts, vec![1, 2, 3]);
        assert_eq!(f.roots.len(), 1);
    }
}
