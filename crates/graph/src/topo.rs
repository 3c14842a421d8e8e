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

/// The vertices of a DAG in levels of mutually independent ones:
/// `depth(v) = 1 + max(depth(neighbours))` over `neighbors(v)` (a self-loop
/// ignored), and `levels[d]` lists the vertices of depth `d` in `order`.
/// `order` must list all `n` vertices, each after all of its neighbours, so
/// a level only reads levels below it: the schedule of the level-parallel
/// label and filter builds.
pub fn levels<'a>(
    n: usize,
    order: &[VertexId],
    neighbors: impl Fn(VertexId) -> &'a [VertexId],
) -> Vec<Vec<VertexId>> {
    let mut depth = vec![0u32; n];
    let mut max_depth = 0u32;
    for &v in order {
        let d = neighbors(v).iter().filter(|&&u| u != v).map(|&u| depth[u as usize] + 1).max();
        depth[v as usize] = d.unwrap_or(0);
        max_depth = max_depth.max(depth[v as usize]);
    }
    let mut levels: Vec<Vec<VertexId>> = vec![Vec::new(); max_depth as usize + 1];
    for &v in order {
        levels[depth[v as usize] as usize].push(v);
    }
    levels
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
    fn levels_follow_the_longest_path_below() {
        // 3 -> 1 -> 0, 3 -> 2 -> 0, 2 -> 2 and 4 alone.
        let g = graph_from_edges(5, &[(3, 1), (1, 0), (3, 2), (2, 0), (2, 2)]);
        let order = [0, 4, 1, 2, 3];
        assert_eq!(levels(5, &order, |v| g.out_neighbors(v)), [vec![0, 4], vec![1, 2], vec![3]]);
    }

    #[test]
    fn empty_and_edgeless() {
        assert_eq!(topological_order(&graph_from_edges(0, &[])), Some(vec![]));
        let g = graph_from_edges(3, &[]);
        assert_eq!(topological_order(&g).unwrap().len(), 3);
    }
}
