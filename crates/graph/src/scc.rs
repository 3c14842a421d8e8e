//! Strongly connected components and graph condensation.
//!
//! Graph-reachability indexes assume a DAG input; arbitrary graphs are first
//! condensed by collapsing every strongly connected component (SCC) into a
//! super-vertex (Section 5 of the paper). Every pair of vertices inside an
//! SCC reaches each other by definition, so reachability on the original
//! graph reduces to reachability between components on the condensation DAG.

use crate::{Col, DiGraph, GraphBuilder, VertexId};

/// Identifier of a strongly connected component (dense index).
pub type CompId = u32;

/// The result of running Tarjan's algorithm: the component id of every
/// vertex, with components numbered in *reverse topological order of
/// discovery* (Tarjan emits a component only after all components reachable
/// from it); we renumber so that ids are arbitrary but dense.
#[derive(Debug, Clone)]
struct SccResult {
    /// `comp_of[v]` is the component containing vertex `v`.
    comp_of: Vec<CompId>,
    /// Total number of components.
    num_components: usize,
}

/// Computes the strongly connected components of `g` using an iterative
/// Tarjan's algorithm (explicit stack; no recursion, so million-vertex
/// inputs cannot overflow the call stack).
fn tarjan_scc(g: &DiGraph) -> SccResult {
    let n = g.num_vertices();
    const UNVISITED: u32 = u32::MAX;

    let mut index = vec![UNVISITED; n]; // discovery index
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut comp_of = vec![0 as CompId; n];
    let mut stack: Vec<VertexId> = Vec::new();
    let mut next_index = 0u32;
    let mut num_components = 0usize;

    // Call-stack frames: (vertex, next-out-neighbour position).
    let mut frames: Vec<(VertexId, usize)> = Vec::new();

    for start in 0..n as VertexId {
        if index[start as usize] != UNVISITED {
            continue;
        }
        frames.push((start, 0));
        index[start as usize] = next_index;
        lowlink[start as usize] = next_index;
        next_index += 1;
        stack.push(start);
        on_stack[start as usize] = true;

        while let Some(&mut (v, ref mut pos)) = frames.last_mut() {
            let neighbors = g.out_neighbors(v);
            if *pos < neighbors.len() {
                let w = neighbors[*pos];
                *pos += 1;
                if index[w as usize] == UNVISITED {
                    index[w as usize] = next_index;
                    lowlink[w as usize] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w as usize] = true;
                    frames.push((w, 0));
                } else if on_stack[w as usize] {
                    lowlink[v as usize] = lowlink[v as usize].min(index[w as usize]);
                }
            } else {
                frames.pop();
                if let Some(&mut (parent, _)) = frames.last_mut() {
                    lowlink[parent as usize] = lowlink[parent as usize].min(lowlink[v as usize]);
                }
                if lowlink[v as usize] == index[v as usize] {
                    // v is the root of a component: pop down to it.
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w as usize] = false;
                        comp_of[w as usize] = num_components as CompId;
                        if w == v {
                            break;
                        }
                    }
                    num_components += 1;
                }
            }
        }
    }

    SccResult { comp_of, num_components }
}

/// The condensation of a directed graph: every SCC collapsed into one
/// super-vertex, yielding a DAG, together with the membership mapping.
///
/// ```
/// use gsr_graph::graph_from_edges;
/// use gsr_graph::scc::Condensation;
///
/// // 0 <-> 1 form a cycle; 2 hangs off it.
/// let g = graph_from_edges(3, &[(0, 1), (1, 0), (1, 2)]);
/// let c = Condensation::of(&g);
/// assert_eq!(c.num_components(), 2);
/// assert_eq!(c.comp(0), c.comp(1));
/// assert_eq!(c.members(c.comp(0)), &[0, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct Condensation {
    /// The condensation DAG over component ids.
    pub dag: DiGraph,
    /// `comp_of[v]` is the component of original vertex `v`. A [`Col`], so
    /// every index built over this condensation keeps a handle to this one
    /// buffer instead of a copy.
    pub comp_of: Col<CompId>,
    /// CSR member lists: members of component `c` are
    /// `member_data[member_offsets[c] .. member_offsets[c + 1]]`.
    member_offsets: Vec<u32>,
    member_data: Vec<VertexId>,
}

impl Condensation {
    /// Condenses `g` into its SCC DAG.
    pub fn of(g: &DiGraph) -> Condensation {
        let SccResult { comp_of, num_components } = tarjan_scc(g);

        // Member lists via counting sort on component id.
        let mut member_offsets = vec![0u32; num_components + 1];
        for &c in &comp_of {
            member_offsets[c as usize + 1] += 1;
        }
        for i in 0..num_components {
            member_offsets[i + 1] += member_offsets[i];
        }
        let mut cursor = member_offsets.clone();
        let mut member_data = vec![0 as VertexId; comp_of.len()];
        for (v, &c) in comp_of.iter().enumerate() {
            member_data[cursor[c as usize] as usize] = v as VertexId;
            cursor[c as usize] += 1;
        }

        // DAG edges: project each original edge; drop intra-component edges.
        let mut b = GraphBuilder::with_capacity(num_components, g.num_edges());
        for (u, v) in g.edges() {
            let (cu, cv) = (comp_of[u as usize], comp_of[v as usize]);
            if cu != cv {
                b.add_edge(cu, cv);
            }
        }
        let dag = b.build();

        Condensation { dag, comp_of: comp_of.into(), member_offsets, member_data }
    }

    /// Number of components.
    #[inline]
    pub fn num_components(&self) -> usize {
        self.member_offsets.len() - 1
    }

    /// Component of original vertex `v`.
    #[inline]
    pub fn comp(&self, v: VertexId) -> CompId {
        self.comp_of[v as usize]
    }

    /// The original vertices belonging to component `c`.
    #[inline]
    pub fn members(&self, c: CompId) -> &[VertexId] {
        let lo = self.member_offsets[c as usize] as usize;
        let hi = self.member_offsets[c as usize + 1] as usize;
        &self.member_data[lo..hi]
    }

    /// Size of the largest component — the "# vertices in largest SCC"
    /// column of Table 3 in the paper.
    pub fn largest_component_size(&self) -> usize {
        (0..self.num_components()).map(|c| self.members(c as CompId).len()).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;
    use crate::topo;

    #[test]
    fn dag_is_its_own_condensation() {
        let g = graph_from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let c = Condensation::of(&g);
        assert_eq!(c.num_components(), 4);
        assert_eq!(c.dag.num_edges(), 4);
        assert_eq!(c.largest_component_size(), 1);
    }

    #[test]
    fn simple_cycle_collapses() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let c = Condensation::of(&g);
        assert_eq!(c.num_components(), 1);
        assert_eq!(c.dag.num_edges(), 0);
        assert_eq!(c.members(0), &[0, 1, 2]);
    }

    #[test]
    fn mixed_graph() {
        // Two 2-cycles joined by a bridge, plus a tail vertex.
        let g = graph_from_edges(5, &[(0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (3, 4)]);
        let c = Condensation::of(&g);
        assert_eq!(c.num_components(), 3);
        assert_eq!(c.largest_component_size(), 2);
        // The two cycle components must be distinct and connected in order.
        let c0 = c.comp(0);
        let c2 = c.comp(2);
        let c4 = c.comp(4);
        assert_eq!(c.comp(1), c0);
        assert_eq!(c.comp(3), c2);
        assert_ne!(c0, c2);
        assert!(c.dag.has_edge(c0, c2));
        assert!(c.dag.has_edge(c2, c4));
    }

    #[test]
    fn condensation_is_acyclic() {
        // A denser graph with several overlapping cycles.
        let g = graph_from_edges(
            8,
            &[
                (0, 1),
                (1, 2),
                (2, 0), // triangle
                (2, 3),
                (3, 4),
                (4, 3), // 2-cycle
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 5), // triangle at the end
                (0, 5),
            ],
        );
        let c = Condensation::of(&g);
        assert!(topo::topological_order(&c.dag).is_some(), "condensation must be a DAG");
    }

    #[test]
    fn self_loop_is_singleton_component() {
        let g = graph_from_edges(2, &[(0, 0), (0, 1)]);
        let c = Condensation::of(&g);
        assert_eq!(c.num_components(), 2);
        // The self-loop projects away.
        assert_eq!(c.dag.num_edges(), 1);
    }

    #[test]
    fn members_partition_vertices() {
        let g = graph_from_edges(6, &[(0, 1), (1, 0), (2, 3), (3, 2), (1, 2), (4, 5)]);
        let c = Condensation::of(&g);
        let mut seen = [false; 6];
        for comp in 0..c.num_components() as CompId {
            for &v in c.members(comp) {
                assert!(!seen[v as usize], "vertex in two components");
                seen[v as usize] = true;
                assert_eq!(c.comp(v), comp);
            }
        }
        assert!(seen.iter().all(|&s| s));
    }
}
