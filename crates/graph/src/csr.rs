//! Compressed-sparse-row storage for directed graphs.

use crate::col::Col;
use crate::VertexId;

/// A directed graph stored in CSR form, with both forward (out-neighbour)
/// and reverse (in-neighbour) adjacency.
///
/// Vertices are dense `u32` indices. Parallel edges are removed at build
/// time; self-loops are kept (they are collapsed later by the SCC
/// condensation). The reverse adjacency doubles memory but is required by
/// the reversed interval labeling of 3DReach-REV and by in-degree priorities
/// in the labeling construction (Algorithm 1 of the paper).
/// All four arrays are [`Col`]s: owned after an in-process build, borrowed
/// zero-copy from the mapped file after a v3 snapshot load. Clones are O(1)
/// either way.
#[derive(Debug, Clone)]
pub struct DiGraph {
    /// Forward CSR offsets: edges of vertex `v` are
    /// `targets[offsets[v] .. offsets[v + 1]]`.
    out_offsets: Col<u32>,
    out_targets: Col<VertexId>,
    in_offsets: Col<u32>,
    in_sources: Col<VertexId>,
}

impl DiGraph {
    /// Builds a graph from `n` vertices and a sorted, deduplicated edge list.
    /// Callers normally go through [`crate::GraphBuilder`].
    pub(crate) fn from_sorted_edges(n: usize, edges: &[(VertexId, VertexId)]) -> Self {
        debug_assert!(edges.windows(2).all(|w| w[0] < w[1]), "edges must be sorted+dedup");
        let mut out_offsets = vec![0u32; n + 1];
        for &(u, _) in edges {
            out_offsets[u as usize + 1] += 1;
        }
        for i in 0..n {
            out_offsets[i + 1] += out_offsets[i];
        }
        let out_targets: Vec<VertexId> = edges.iter().map(|&(_, v)| v).collect();

        // Reverse adjacency via counting sort on targets.
        let mut in_offsets = vec![0u32; n + 1];
        for &(_, v) in edges {
            in_offsets[v as usize + 1] += 1;
        }
        for i in 0..n {
            in_offsets[i + 1] += in_offsets[i];
        }
        let mut cursor = in_offsets.clone();
        let mut in_sources = vec![0 as VertexId; edges.len()];
        for &(u, v) in edges {
            let slot = cursor[v as usize];
            in_sources[slot as usize] = u;
            cursor[v as usize] += 1;
        }

        DiGraph {
            out_offsets: out_offsets.into(),
            out_targets: out_targets.into(),
            in_offsets: in_offsets.into(),
            in_sources: in_sources.into(),
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.out_offsets.len() - 1
    }

    /// Number of (deduplicated) directed edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.out_targets.len()
    }

    /// Out-neighbours of `v`, sorted ascending.
    #[inline]
    pub fn out_neighbors(&self, v: VertexId) -> &[VertexId] {
        let lo = self.out_offsets[v as usize] as usize;
        let hi = self.out_offsets[v as usize + 1] as usize;
        &self.out_targets[lo..hi]
    }

    /// In-neighbours of `v` (sources of edges into `v`).
    #[inline]
    pub fn in_neighbors(&self, v: VertexId) -> &[VertexId] {
        let lo = self.in_offsets[v as usize] as usize;
        let hi = self.in_offsets[v as usize + 1] as usize;
        &self.in_sources[lo..hi]
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> usize {
        self.out_neighbors(v).len()
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> usize {
        self.in_neighbors(v).len()
    }

    /// Whether the (directed) edge `(u, v)` exists. `O(log out_degree(u))`.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.out_neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterator over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.num_vertices() as VertexId
    }

    /// Iterator over all edges `(u, v)` in source order.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.vertices()
            .flat_map(move |u| self.out_neighbors(u).iter().map(move |&v| (u, v)))
    }

    /// The graph with every edge reversed. Used to build the reversed
    /// interval labeling of 3DReach-REV (Section 4.2).
    pub fn reversed(&self) -> DiGraph {
        let mut rev: Vec<(VertexId, VertexId)> = self.edges().map(|(u, v)| (v, u)).collect();
        rev.sort_unstable();
        DiGraph::from_sorted_edges(self.num_vertices(), &rev)
    }

    /// Forward-CSR view of the graph, `(out_offsets, out_targets)`, for
    /// snapshot encoding. Together with the vertex count implied by
    /// `out_offsets.len() - 1` this fully determines the graph; the reverse
    /// adjacency ([`DiGraph::in_csr`]) is derived from it.
    pub fn out_csr(&self) -> (&[u32], &[VertexId]) {
        (&self.out_offsets, &self.out_targets)
    }

    /// Reverse-CSR view, `(in_offsets, in_sources)`. Derivable from the
    /// forward CSR, but snapshots persist it anyway so a load is a pure
    /// map with no O(V + E) rebuild allocations.
    pub fn in_csr(&self) -> (&[u32], &[VertexId]) {
        (&self.in_offsets, &self.in_sources)
    }

    /// Assembles a graph from all four CSR columns at once (the inverse of
    /// [`DiGraph::out_csr`] and [`DiGraph::in_csr`]) — the zero-copy load
    /// path, where the columns borrow from a mapped snapshot and must not
    /// be rebuilt or copied.
    ///
    /// The input is untrusted (it typically comes from disk): shape, bounds
    /// and per-vertex ordering of the forward CSR are validated, and the
    /// first defect is reported as an `Err(String)` for the caller to wrap
    /// in its own typed error.
    /// The reverse CSR is untrusted too; instead of rebuilding it (which
    /// would allocate `O(V + E)` and defeat the zero-copy load), the
    /// counting sort that *would* build it is replayed against the provided
    /// columns: every edge `(u, v)` must land on a slot whose stored source
    /// is `u`. A single pass with one `O(V)` cursor array proves the
    /// provided reverse adjacency is bit-identical to the rebuilt one.
    pub fn from_csr_cols(
        out_offsets: Col<u32>,
        out_targets: Col<VertexId>,
        in_offsets: Col<u32>,
        in_sources: Col<VertexId>,
    ) -> Result<Self, String> {
        Self::validate_forward_csr(&out_offsets, &out_targets)?;
        let n = out_offsets.len() - 1;
        let m = out_targets.len();
        if in_offsets.len() != n + 1 {
            return Err(format!(
                "csr: reverse offsets have {} entries, expected {}",
                in_offsets.len(),
                n + 1
            ));
        }
        if in_offsets[0] != 0 {
            return Err(format!("csr: reverse offsets[0] = {}, expected 0", in_offsets[0]));
        }
        if let Some(w) = in_offsets.windows(2).position(|w| w[0] > w[1]) {
            return Err(format!("csr: reverse offsets decrease at index {w}"));
        }
        if in_offsets[n] as usize != m || in_sources.len() != m {
            return Err(format!(
                "csr: reverse CSR claims {} edges ({} sources), forward has {m}",
                in_offsets[n],
                in_sources.len()
            ));
        }
        let mut cursor: Vec<u32> = in_offsets[..n].to_vec();
        for u in 0..n {
            let lo = out_offsets[u] as usize;
            let hi = out_offsets[u + 1] as usize;
            for &v in &out_targets[lo..hi] {
                let slot = cursor[v as usize];
                if slot >= in_offsets[v as usize + 1] || in_sources[slot as usize] != u as VertexId
                {
                    return Err(format!(
                        "csr: reverse adjacency does not correspond to forward edge \
                         ({u}, {v})"
                    ));
                }
                cursor[v as usize] = slot + 1;
            }
        }
        // Totals already match (both CSRs claim m edges and every replayed
        // slot stayed within its vertex's range), so cursor == in_offsets[1..]
        // here by construction.
        Ok(DiGraph { out_offsets, out_targets, in_offsets, in_sources })
    }

    /// Shape, bounds and per-vertex ordering checks on an untrusted
    /// forward CSR.
    fn validate_forward_csr(out_offsets: &[u32], out_targets: &[VertexId]) -> Result<(), String> {
        if out_offsets.is_empty() {
            return Err("csr: empty offset array".into());
        }
        if out_offsets.len() - 1 > crate::MAX_VERTICES {
            return Err(format!(
                "csr: {} vertices exceed the u32 id width (max {})",
                out_offsets.len() - 1,
                crate::MAX_VERTICES
            ));
        }
        if out_offsets[0] != 0 {
            return Err(format!("csr: offsets[0] = {}, expected 0", out_offsets[0]));
        }
        if let Some(w) = out_offsets.windows(2).position(|w| w[0] > w[1]) {
            return Err(format!("csr: offsets decrease at index {w}"));
        }
        let n = out_offsets.len() - 1;
        let m = out_offsets[n] as usize;
        if m != out_targets.len() {
            return Err(format!(
                "csr: offsets claim {m} edges but {} targets present",
                out_targets.len()
            ));
        }
        for (v, w) in out_offsets.windows(2).enumerate() {
            let list = &out_targets[w[0] as usize..w[1] as usize];
            if let Some(&t) = list.iter().find(|&&t| (t as usize) >= n) {
                return Err(format!("csr: vertex {v} has out-neighbour {t} >= {n} vertices"));
            }
            if list.windows(2).any(|p| p[0] >= p[1]) {
                return Err(format!("csr: out-neighbours of vertex {v} not sorted+dedup"));
            }
        }
        Ok(())
    }

    /// Approximate heap footprint in bytes, for the index-size accounting of
    /// Table 4 in the paper.
    pub fn heap_bytes(&self) -> usize {
        self.out_offsets.len() * 4
            + self.out_targets.len() * 4
            + self.in_offsets.len() * 4
            + self.in_sources.len() * 4
    }
}

#[cfg(test)]
mod tests {
    use crate::GraphBuilder;

    fn diamond() -> crate::DiGraph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(0, 2);
        b.add_edge(1, 3);
        b.add_edge(2, 3);
        b.build()
    }

    #[test]
    fn adjacency_round_trip() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.out_neighbors(0), &[1, 2]);
        assert_eq!(g.out_neighbors(3), &[] as &[u32]);
        assert_eq!(g.in_neighbors(3), &[1, 2]);
        assert_eq!(g.in_neighbors(0), &[] as &[u32]);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(3), 2);
    }

    #[test]
    fn has_edge_checks() {
        let g = diamond();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(2, 3));
        assert!(!g.has_edge(1, 0));
        assert!(!g.has_edge(0, 3));
    }

    #[test]
    fn edge_iterator_in_source_order() {
        let g = diamond();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
    }

    #[test]
    fn reversal_flips_every_edge() {
        let g = diamond();
        let r = g.reversed();
        assert_eq!(r.num_edges(), g.num_edges());
        for (u, v) in g.edges() {
            assert!(r.has_edge(v, u));
        }
        assert_eq!(r.out_neighbors(3), &[1, 2]);
    }

    fn cols(src: &[u32]) -> crate::Col<u32> {
        crate::Col::from(src.to_vec())
    }

    #[test]
    fn csr_parts_round_trip() {
        let g = diamond();
        let (oo, ot) = g.out_csr();
        let (io, is_) = g.in_csr();
        let h = crate::DiGraph::from_csr_cols(cols(oo), cols(ot), cols(io), cols(is_))
            .expect("valid csr must round-trip");
        assert_eq!(h.out_csr(), g.out_csr());
        assert_eq!(h.in_csr(), g.in_csr());
    }

    #[test]
    fn from_out_csr_rejects_malformed() {
        // A forward-CSR defect is reported before the reverse columns are
        // even looked at.
        let rejects = |out_offsets: &[u32], out_targets: &[u32]| {
            let err = crate::DiGraph::from_csr_cols(
                cols(out_offsets),
                cols(out_targets),
                cols(&[0]),
                cols(&[]),
            )
            .expect_err("malformed forward csr must be rejected");
            !err.contains("reverse")
        };
        // Offsets must start at zero.
        assert!(rejects(&[1, 1], &[]));
        // Offsets must be monotone.
        assert!(rejects(&[0, 2, 1], &[0, 0]));
        // Edge count must match target length.
        assert!(rejects(&[0, 2], &[0]));
        // Targets must be in range.
        assert!(rejects(&[0, 1], &[7]));
        // Adjacency lists must be sorted and deduplicated.
        assert!(rejects(&[0, 2], &[1, 0]));
        assert!(rejects(&[0, 2], &[1, 1]));
        // Empty offsets are rejected outright.
        assert!(rejects(&[], &[]));
    }

    #[test]
    fn from_csr_cols_round_trips_and_rejects_tampering() {
        let g = diamond();
        let (oo, ot) = g.out_csr();
        let (io, is_) = g.in_csr();
        let h = crate::DiGraph::from_csr_cols(cols(oo), cols(ot), cols(io), cols(is_))
            .expect("faithful columns must assemble");
        for v in g.vertices() {
            assert_eq!(g.out_neighbors(v), h.out_neighbors(v));
            assert_eq!(g.in_neighbors(v), h.in_neighbors(v));
        }

        // Reordering within one vertex's in-list breaks the counting-sort
        // correspondence even though the multiset of edges is unchanged.
        let mut shuffled = is_.to_vec();
        shuffled.swap(2, 3);
        assert!(
            crate::DiGraph::from_csr_cols(cols(oo), cols(ot), cols(io), cols(&shuffled)).is_err()
        );
        // Reverse shape defects are typed errors, not panics.
        assert!(crate::DiGraph::from_csr_cols(cols(oo), cols(ot), cols(&io[..3]), cols(is_))
            .is_err());
        let mut bad_counts = io.to_vec();
        bad_counts[4] = 3;
        assert!(
            crate::DiGraph::from_csr_cols(cols(oo), cols(ot), cols(&bad_counts), cols(is_))
                .is_err()
        );
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn isolated_vertices() {
        let g = GraphBuilder::new(3).build();
        assert_eq!(g.num_vertices(), 3);
        for v in g.vertices() {
            assert_eq!(g.out_degree(v), 0);
            assert_eq!(g.in_degree(v), 0);
        }
    }
}
