//! Incremental construction of [`DiGraph`]s.

use crate::csr::bucket;
use crate::{DiGraph, VertexId};

/// Collects edges and produces a deduplicated CSR [`DiGraph`].
///
/// ```
/// use gsr_graph::GraphBuilder;
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1);
/// b.add_edge(0, 1); // duplicates are removed
/// b.add_edge(1, 2);
/// let g = b.build();
/// assert_eq!(g.num_edges(), 2);
/// ```
#[derive(Debug, Default, Clone)]
pub struct GraphBuilder {
    num_vertices: usize,
    edges: Vec<(VertexId, VertexId)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `n` vertices (ids `0..n`).
    pub fn new(n: usize) -> Self {
        GraphBuilder { num_vertices: n, edges: Vec::new() }
    }

    /// Creates a builder with pre-allocated capacity for `m` edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        GraphBuilder { num_vertices: n, edges: Vec::with_capacity(m) }
    }

    /// Number of vertices the built graph will have.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Grows the vertex set so it includes id `v`.
    pub fn ensure_vertex(&mut self, v: VertexId) {
        self.num_vertices = self.num_vertices.max(v as usize + 1);
    }

    /// Adds the directed edge `(u, v)`, growing the vertex set as needed.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) {
        self.ensure_vertex(u);
        self.ensure_vertex(v);
        self.edges.push((u, v));
    }

    /// Adds both `(u, v)` and `(v, u)` — the symmetric friendship edges of
    /// the Gowalla/WeePlaces-style networks, whose bidirectional social core
    /// collapses into one giant SCC (Section 6.1 of the paper).
    pub fn add_undirected_edge(&mut self, u: VertexId, v: VertexId) {
        self.add_edge(u, v);
        self.add_edge(v, u);
    }

    /// Adds every edge of an iterator.
    pub fn extend_edges<I: IntoIterator<Item = (VertexId, VertexId)>>(&mut self, iter: I) {
        for (u, v) in iter {
            self.add_edge(u, v);
        }
    }

    /// Finalizes into a CSR graph: buckets the edges by source (a counting
    /// sort), then sorts each row and drops its duplicates in place.
    pub fn build(self) -> DiGraph {
        let GraphBuilder { num_vertices: n, edges } = self;
        let (mut offsets, mut targets) = bucket(n, edges.len(), edges.iter().copied());
        drop(edges);
        let (mut start, mut kept) = (0, 0);
        for u in 0..n {
            let end = offsets[u + 1] as usize;
            targets[start..end].sort_unstable();
            let row = kept;
            for k in start..end {
                let v = targets[k];
                if kept == row || targets[kept - 1] != v {
                    targets[kept] = v;
                    kept += 1;
                }
            }
            offsets[u + 1] = kept as u32;
            start = end;
        }
        targets.truncate(kept);
        targets.shrink_to_fit();
        DiGraph::from_forward_csr(offsets, targets)
    }
}

/// Convenience constructor: a graph over `n` vertices from an edge slice.
pub fn graph_from_edges(n: usize, edges: &[(VertexId, VertexId)]) -> DiGraph {
    let mut b = GraphBuilder::with_capacity(n, edges.len());
    b.extend_edges(edges.iter().copied());
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_and_auto_grow() {
        let mut b = GraphBuilder::new(0);
        b.add_edge(5, 2);
        b.add_edge(5, 2);
        b.add_edge(2, 5);
        let g = b.build();
        assert_eq!(g.num_vertices(), 6);
        assert_eq!(g.num_edges(), 2);
        assert!(g.has_edge(5, 2));
        assert!(g.has_edge(2, 5));
    }

    #[test]
    fn undirected_adds_both_directions() {
        let mut b = GraphBuilder::new(2);
        b.add_undirected_edge(0, 1);
        let g = b.build();
        assert!(g.has_edge(0, 1) && g.has_edge(1, 0));
    }

    #[test]
    fn from_edges_helper() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2), (0, 1)]);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn self_loops_are_kept() {
        let g = graph_from_edges(2, &[(0, 0), (0, 1)]);
        assert_eq!(g.num_edges(), 2);
        assert!(g.has_edge(0, 0));
    }
}
