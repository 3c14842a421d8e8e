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
    /// "vertices with only outgoing edges"), visited in ascending id order,
    /// and each vertex's out-neighbours are visited in CSR order; any
    /// vertex still unvisited afterwards (possible only when `g` has a
    /// cycle, which the condensation rules out) roots an extra tree so the
    /// forest always spans all vertices.
    pub fn of(g: &DiGraph) -> SpanningForest {
        let n = g.num_vertices();
        let mut post = vec![0u32; n];
        let mut post_to_vertex = vec![0 as VertexId; n];
        let mut parent = vec![NO_PARENT; n];
        let mut roots = Vec::new();
        let mut visited = vec![false; n];
        let mut counter = 0u32;

        // Frames: (vertex, position in its out-neighbour list).
        let mut frames: Vec<(VertexId, usize)> = Vec::new();

        // The sources first; then, as a safety net for non-DAG inputs, any
        // vertex still unvisited.
        let sources = (0..n as VertexId).filter(|&v| g.in_degree(v) == 0);
        for root in sources.chain(0..n as VertexId) {
            if visited[root as usize] {
                continue;
            }
            roots.push(root);
            visited[root as usize] = true;
            frames.push((root, 0));
            while let Some(&mut (v, ref mut pos)) = frames.last_mut() {
                let neighbors = g.out_neighbors(v);
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
                    counter += 1;
                    post[v as usize] = counter;
                    post_to_vertex[(counter - 1) as usize] = v;
                }
            }
        }

        SpanningForest { post, post_to_vertex, parent, roots }
    }

    /// Whether edge `(u, v)` is a tree edge of this forest.
    #[inline]
    pub fn is_tree_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.parent[v as usize] == u
    }

    /// Iterator over the tree ancestors of `v` (excluding `v` itself),
    /// closest first.
    pub fn ancestors(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
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
}

/// Iterator over tree ancestors; see [`SpanningForest::ancestors`].
struct Ancestors<'a> {
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
