//! DAG reduction: transitive reduction and equivalence reduction.
//!
//! The paper's related work (Section 7.1) closes with "directed acyclic
//! graph reduction was further considered to accelerate reachability
//! queries. The idea is to reduce the size of the input graph by computing
//! its transitive reduction followed by the equivalence reduction." Both
//! reductions preserve the reachability relation while shrinking the input
//! every index is built on:
//!
//! * [`transitive_reduction`] deletes every edge implied by a longer path;
//! * [`equivalence_reduction`] merges vertices with identical
//!   in-neighbourhoods *and* out-neighbourhoods (they are reachability-
//!   equivalent up to themselves).

use crate::bitset::BitMatrix;
use crate::{DiGraph, GraphBuilder, VertexId};
use std::collections::HashMap;

/// Removes every edge `(u, v)` for which another path `u -> .. -> v` of
/// length ≥ 2 exists. The result is the unique minimal subgraph of a DAG
/// with the same reachability relation.
///
/// Runs in `O(|E| · |V| / 64)` using a bitset closure; intended for
/// condensation-sized inputs (up to a few hundred thousand vertices).
///
/// # Panics
/// Panics when `g` has a cycle (reduce the condensation instead).
pub fn transitive_reduction(g: &DiGraph) -> DiGraph {
    let order = crate::topo::topological_order(g).expect("transitive reduction needs a DAG");
    let n = g.num_vertices();

    // closure[v] = vertices reachable from v via paths of length >= 1.
    let mut closure = BitMatrix::new(n);
    for &v in order.iter().rev() {
        for &w in g.out_neighbors(v) {
            closure.set(v as usize, w as usize);
            closure.union_row(v as usize, w as usize);
        }
    }

    // Edge (u, v) is redundant iff some other out-neighbour w reaches v.
    let mut b = GraphBuilder::with_capacity(n, g.num_edges());
    for v in 0..n as VertexId {
        b.ensure_vertex(v);
    }
    for (u, v) in g.edges() {
        let implied =
            g.out_neighbors(u).iter().any(|&w| w != v && closure.get(w as usize, v as usize));
        if !implied {
            b.add_edge(u, v);
        }
    }
    b.build()
}

/// Merges vertices whose in-neighbour and out-neighbour sets are identical.
/// Such vertices reach exactly the same set of other vertices and are
/// reached by exactly the same set, so one representative suffices for any
/// reachability index; the mapping lets answers be projected back:
/// `reaches(u, v) = (u == v) || (rep[u] != rep[v] && reaches'(rep[u], rep[v]))`.
/// (On a DAG two distinct twins can never reach each other — a connecting
/// path would close a cycle through their shared neighbourhoods — which is
/// why the same-class case projects to `false`.)
///
/// Returns the reduced graph and `rep[v]`, the representative (new id) of
/// every original vertex.
pub fn equivalence_reduction(g: &DiGraph) -> (DiGraph, Vec<VertexId>) {
    let n = g.num_vertices();

    // Group by (out-neighbours, in-neighbours). Both slices are sorted by
    // CSR construction, so they hash consistently.
    let mut groups: HashMap<(&[VertexId], &[VertexId]), Vec<VertexId>> = HashMap::new();
    for v in 0..n as VertexId {
        groups.entry((g.out_neighbors(v), g.in_neighbors(v))).or_default().push(v);
    }

    // Representatives keep their relative order for determinism.
    let mut leaders: Vec<VertexId> = groups.values().map(|members| members[0]).collect();
    leaders.sort_unstable();
    let mut new_id = vec![0 as VertexId; n];
    let mut leader_index: HashMap<VertexId, VertexId> = HashMap::new();
    for (i, &l) in leaders.iter().enumerate() {
        leader_index.insert(l, i as VertexId);
    }
    for members in groups.values() {
        let leader = leader_index[&members[0]];
        for &m in members {
            new_id[m as usize] = leader;
        }
    }

    let mut b = GraphBuilder::with_capacity(leaders.len(), g.num_edges());
    for v in 0..leaders.len() as VertexId {
        b.ensure_vertex(v);
    }
    for (u, v) in g.edges() {
        let (nu, nv) = (new_id[u as usize], new_id[v as usize]);
        if nu != nv {
            b.add_edge(nu, nv);
        }
    }
    (b.build(), new_id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;

    fn reaches(g: &DiGraph, s: VertexId, t: VertexId) -> bool {
        if s == t {
            return true;
        }
        let mut visited = vec![false; g.num_vertices()];
        let mut stack = vec![s];
        visited[s as usize] = true;
        while let Some(v) = stack.pop() {
            for &w in g.out_neighbors(v) {
                if w == t {
                    return true;
                }
                if !visited[w as usize] {
                    visited[w as usize] = true;
                    stack.push(w);
                }
            }
        }
        false
    }

    #[test]
    fn diamond_with_shortcut() {
        // 0 -> {1, 2} -> 3 plus the redundant shortcut 0 -> 3.
        let g = graph_from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)]);
        let reduced = transitive_reduction(&g);
        assert_eq!(reduced.num_edges(), 4, "the shortcut goes away");
        assert!(!reduced.has_edge(0, 3));
        for u in g.vertices() {
            for v in g.vertices() {
                assert_eq!(reaches(&g, u, v), reaches(&reduced, u, v));
            }
        }
    }

    #[test]
    fn chain_of_shortcuts() {
        // Complete DAG over 6 vertices reduces to a simple chain.
        let mut edges = Vec::new();
        for u in 0..6u32 {
            for v in (u + 1)..6 {
                edges.push((u, v));
            }
        }
        let g = graph_from_edges(6, &edges);
        let reduced = transitive_reduction(&g);
        assert_eq!(reduced.num_edges(), 5);
    }

    #[test]
    fn equivalence_merges_twins() {
        // Vertices 1 and 2 have identical neighbourhoods ({0} in, {3} out).
        let g = graph_from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let (reduced, rep) = equivalence_reduction(&g);
        assert_eq!(reduced.num_vertices(), 3);
        assert_eq!(rep[1], rep[2], "twins share a representative");
        assert_ne!(rep[0], rep[3]);
        // Reachability is preserved through the projection rule.
        for u in g.vertices() {
            for v in g.vertices() {
                let projected = u == v
                    || (rep[u as usize] != rep[v as usize]
                        && reaches(&reduced, rep[u as usize], rep[v as usize]));
                assert_eq!(reaches(&g, u, v), projected, "({u}, {v})");
            }
        }
    }

    #[test]
    fn twins_never_reach_each_other_in_a_dag() {
        // The projection rule's justification, checked on random DAGs.
        let mut state = 31u64;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _case in 0..30 {
            let n = 4 + (rnd() % 16) as usize;
            let edges: Vec<(u32, u32)> = (0..(rnd() % 60) as usize)
                .filter_map(|_| {
                    let a = (rnd() % n as u64) as u32;
                    let b = (rnd() % n as u64) as u32;
                    (a != b).then(|| (a.min(b), a.max(b)))
                })
                .collect();
            let g = graph_from_edges(n, &edges);
            let (_, rep) = equivalence_reduction(&g);
            for u in g.vertices() {
                for v in g.vertices() {
                    if u != v && rep[u as usize] == rep[v as usize] {
                        assert!(!reaches(&g, u, v), "twins ({u}, {v}) must be unreachable");
                    }
                }
            }
        }
    }

    #[test]
    fn no_twins_means_no_change() {
        let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let (reduced, rep) = equivalence_reduction(&g);
        assert_eq!(reduced.num_vertices(), 4);
        let mut sorted = rep.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 4);
    }

    #[test]
    fn isolated_vertices_collapse_to_one() {
        let g = graph_from_edges(5, &[(0, 1)]);
        let (reduced, rep) = equivalence_reduction(&g);
        // Vertices 2, 3, 4 are all isolated (empty neighbourhoods).
        assert_eq!(rep[2], rep[3]);
        assert_eq!(rep[3], rep[4]);
        assert_eq!(reduced.num_vertices(), 3);
    }
}
