//! Online graph traversal and small-graph transitive closures.
//!
//! These are the "no index" baselines: a `GReach` query by BFS costs
//! `O(|V| + |E|)` (Section 7.1), and the full transitive closure is the
//! ground truth the property tests compare every index against.

use crate::Reachability;
use gsr_graph::{DiGraph, VertexId};
use std::collections::VecDeque;

/// Answers one `GReach(from, to)` query by breadth-first search.
pub fn reaches_bfs(g: &DiGraph, from: VertexId, to: VertexId) -> bool {
    if from == to {
        return true;
    }
    let mut visited = vec![false; g.num_vertices()];
    let mut queue = VecDeque::new();
    visited[from as usize] = true;
    queue.push_back(from);
    while let Some(v) = queue.pop_front() {
        for &w in g.out_neighbors(v) {
            if w == to {
                return true;
            }
            if !visited[w as usize] {
                visited[w as usize] = true;
                queue.push_back(w);
            }
        }
    }
    false
}

/// The descendant set of `from` (including `from`) as a boolean vector.
fn descendants_bfs(g: &DiGraph, from: VertexId) -> Vec<bool> {
    let mut visited = vec![false; g.num_vertices()];
    let mut queue = VecDeque::new();
    visited[from as usize] = true;
    queue.push_back(from);
    while let Some(v) = queue.pop_front() {
        for &w in g.out_neighbors(v) {
            if !visited[w as usize] {
                visited[w as usize] = true;
                queue.push_back(w);
            }
        }
    }
    visited
}

/// The full transitive closure as a dense bit matrix. Quadratic memory —
/// only for tests and tiny graphs.
#[derive(Debug, Clone)]
pub struct TransitiveClosure {
    words_per_row: usize,
    bits: Vec<u64>,
}

impl TransitiveClosure {
    /// Computes the closure of `g` (reflexive) by repeated BFS.
    pub fn of(g: &DiGraph) -> Self {
        let n = g.num_vertices();
        let words_per_row = n.div_ceil(64);
        let mut bits = vec![0u64; n * words_per_row];
        for v in 0..n as VertexId {
            let desc = descendants_bfs(g, v);
            let row = &mut bits[v as usize * words_per_row..(v as usize + 1) * words_per_row];
            for (u, &reached) in desc.iter().enumerate() {
                if reached {
                    row[u / 64] |= 1u64 << (u % 64);
                }
            }
        }
        TransitiveClosure { words_per_row, bits }
    }
}

impl Reachability for TransitiveClosure {
    fn reaches(&self, from: VertexId, to: VertexId) -> bool {
        let word = self.bits[from as usize * self.words_per_row + to as usize / 64];
        word & (1u64 << (to % 64)) != 0
    }

    fn heap_bytes(&self) -> usize {
        self.bits.len() * 8
    }

    fn name(&self) -> &'static str {
        "TC"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsr_graph::graph_from_edges;

    /// Number of reachable pairs (including the `n` reflexive pairs).
    fn reachable_pairs(tc: &TransitiveClosure, g: &DiGraph) -> usize {
        g.vertices().map(|u| g.vertices().filter(|&v| tc.reaches(u, v)).count()).sum()
    }

    #[test]
    fn bfs_reaches_along_paths() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2)]);
        assert!(reaches_bfs(&g, 0, 2));
        assert!(reaches_bfs(&g, 0, 0), "reachability is reflexive");
        assert!(!reaches_bfs(&g, 2, 0));
        assert!(!reaches_bfs(&g, 0, 3));
    }

    #[test]
    fn descendants_include_self() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2)]);
        let d = descendants_bfs(&g, 1);
        assert_eq!(d, vec![false, true, true, false]);
    }

    #[test]
    fn closure_matches_bfs() {
        let g = graph_from_edges(6, &[(0, 1), (1, 2), (3, 1), (4, 5), (5, 4)]);
        let tc = TransitiveClosure::of(&g);
        for u in g.vertices() {
            for v in g.vertices() {
                assert_eq!(tc.reaches(u, v), reaches_bfs(&g, u, v));
            }
        }
        // Pairs: reflexive 6 + (0,1),(0,2),(1,2),(3,1),(3,2),(4,5),(5,4).
        assert_eq!(reachable_pairs(&tc, &g), 13);
    }

    #[test]
    fn closure_on_wide_graph_crosses_word_boundaries() {
        // 70 vertices forces two u64 words per row.
        let edges: Vec<(u32, u32)> = (0..69).map(|i| (i, i + 1)).collect();
        let g = graph_from_edges(70, &edges);
        let tc = TransitiveClosure::of(&g);
        assert!(tc.reaches(0, 69));
        assert!(!tc.reaches(69, 0));
        assert_eq!(reachable_pairs(&tc, &g), 70 * 71 / 2);
    }
}
