//! Topological ordering of DAGs (Kahn's algorithm).

use crate::{DiGraph, VertexId};
use std::collections::VecDeque;

/// Returns a topological order of `g` (`order[i]` comes before `order[j]`
/// whenever there is an edge `order[i] -> order[j]`), or `None` when `g`
/// contains a cycle.
pub fn topological_order(g: &DiGraph) -> Option<Vec<VertexId>> {
    let n = g.num_vertices();
    let mut in_deg: Vec<u32> = (0..n).map(|v| g.in_degree(v as VertexId) as u32).collect();
    let mut queue: VecDeque<VertexId> =
        (0..n as VertexId).filter(|&v| in_deg[v as usize] == 0).collect();
    let mut order = Vec::with_capacity(n);

    while let Some(v) = queue.pop_front() {
        order.push(v);
        for &w in g.out_neighbors(v) {
            in_deg[w as usize] -= 1;
            if in_deg[w as usize] == 0 {
                queue.push_back(w);
            }
        }
    }

    (order.len() == n).then_some(order)
}

/// Whether `g` is acyclic.
pub fn is_dag(g: &DiGraph) -> bool {
    topological_order(g).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;

    #[test]
    fn orders_a_diamond() {
        let g = graph_from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let order = topological_order(&g).unwrap();
        let pos = |v: u32| order.iter().position(|&x| x == v).unwrap();
        for (u, v) in g.edges() {
            assert!(pos(u) < pos(v), "edge ({u},{v}) violates topological order");
        }
    }

    #[test]
    fn detects_cycles() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        assert!(topological_order(&g).is_none());
        assert!(!is_dag(&g));
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let g = graph_from_edges(1, &[(0, 0)]);
        assert!(!is_dag(&g));
    }

    #[test]
    fn empty_and_edgeless() {
        assert_eq!(topological_order(&graph_from_edges(0, &[])), Some(vec![]));
        let g = graph_from_edges(3, &[]);
        assert_eq!(topological_order(&g).unwrap().len(), 3);
    }
}
