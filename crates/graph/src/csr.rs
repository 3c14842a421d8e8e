//! Compressed-sparse-row storage for directed graphs.

use crate::col::Col;
use crate::columns::{ColumnList, Columns, Source};
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
/// zero-copy from the mapped file after a snapshot load. Clones are O(1)
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
    /// The graph whose forward CSR is `out_offsets`/`out_targets` — every
    /// row sorted and deduplicated — with the reverse CSR it implies.
    /// Callers normally go through [`crate::GraphBuilder`].
    pub(crate) fn from_forward_csr(out_offsets: Vec<u32>, out_targets: Vec<VertexId>) -> Self {
        let n = out_offsets.len() - 1;
        let (oo, ot) = (&out_offsets, &out_targets);
        let flipped = (0..n).flat_map(|u| {
            ot[oo[u] as usize..oo[u + 1] as usize].iter().map(move |&v| (v, u as VertexId))
        });
        // Sources arrive in ascending order, so every in-list is sorted.
        let (in_offsets, in_sources) = bucket(n, ot.len(), flipped);
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
        self.vertices().flat_map(move |u| self.out_neighbors(u).iter().map(move |&v| (u, v)))
    }

    /// The graph with every edge reversed. Used to build the reversed
    /// interval labeling of 3DReach-REV (Section 4.2). The reverse CSR is
    /// already stored, and its rows are sorted, so it becomes the forward
    /// one and vice versa: O(1), sharing the four columns.
    pub fn reversed(&self) -> DiGraph {
        DiGraph {
            out_offsets: self.in_offsets.clone(),
            out_targets: self.in_sources.clone(),
            in_offsets: self.out_offsets.clone(),
            in_sources: self.out_targets.clone(),
        }
    }

    /// Checks columns that came from disk: shape, bounds and per-vertex
    /// ordering of the forward CSR, and that the reverse CSR is the one the
    /// forward CSR implies. The first defect is an `Err(String)`.
    ///
    /// The reverse CSR is not rebuilt for the comparison (that would
    /// allocate `O(V + E)` and defeat the zero-copy load): the counting
    /// sort that *would* build it is replayed against the provided columns —
    /// every edge `(u, v)` must land on a slot whose stored source is `u`.
    /// A single pass with one `O(V)` cursor array proves the provided
    /// reverse adjacency bit-identical to the rebuilt one.
    fn validate(&self) -> Result<(), String> {
        let DiGraph { out_offsets, out_targets, in_offsets, in_sources } = self;
        Self::validate_forward_csr(out_offsets, out_targets)?;
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
        Ok(())
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

    /// Heap footprint in bytes, for the index-size accounting of Table 4 in
    /// the paper.
    pub fn heap_bytes(&self) -> usize {
        ColumnList::of(self).counted_bytes()
    }
}

/// Counting sort of the `m` pairs `(row, x)` over rows `0..n`: the CSR
/// offsets and the `x`s, each row's in the order the pairs came in. The
/// offsets double as the fill cursors, so nothing but the result is
/// allocated.
pub(crate) fn bucket(
    n: usize,
    m: usize,
    pairs: impl Iterator<Item = (VertexId, VertexId)> + Clone,
) -> (Vec<u32>, Vec<VertexId>) {
    let mut offsets = vec![0u32; n + 1];
    for (row, _) in pairs.clone() {
        offsets[row as usize + 1] += 1;
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    // `offsets[row]` walks from the row's start to its end, which is the
    // next row's start: shifting the array up by one restores it.
    let mut xs = vec![0 as VertexId; m];
    for (row, x) in pairs {
        let slot = &mut offsets[row as usize];
        xs[*slot as usize] = x;
        *slot += 1;
    }
    offsets.copy_within(0..n, 1);
    offsets[0] = 0;
    (offsets, xs)
}

/// Section tags of the four CSR columns.
mod tag {
    pub const OUT_OFFSETS: u16 = 0x60;
    pub const OUT_TARGETS: u16 = 0x61;
    pub const IN_OFFSETS: u16 = 0x62;
    pub const IN_SOURCES: u16 = 0x63;
}

/// The reverse CSR is derivable from the forward one, but is a column all
/// the same, so that a load is a pure map with no `O(V + E)` rebuild.
impl Columns for DiGraph {
    fn store<'a>(&'a self, out: &mut ColumnList<'a>) {
        out.col(tag::OUT_OFFSETS, &self.out_offsets, true);
        out.col(tag::OUT_TARGETS, &self.out_targets, true);
        out.col(tag::IN_OFFSETS, &self.in_offsets, true);
        out.col(tag::IN_SOURCES, &self.in_sources, true);
    }

    fn load<S: Source>(src: &mut S) -> Result<Self, String> {
        let graph = DiGraph {
            out_offsets: src.col(tag::OUT_OFFSETS, "dag-out-offsets")?,
            out_targets: src.col(tag::OUT_TARGETS, "dag-out-targets")?,
            in_offsets: src.col(tag::IN_OFFSETS, "dag-in-offsets")?,
            in_sources: src.col(tag::IN_SOURCES, "dag-in-sources")?,
        };
        graph.validate()?;
        Ok(graph)
    }
}

#[cfg(test)]
mod tests {
    use crate::GraphBuilder;
    use proptest::prelude::*;

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

    /// The CSR the way it was built before the counting kernels: the pairs
    /// sorted and deduplicated, each row cut where the source changes.
    fn sorted_csr(n: usize, mut pairs: Vec<(u32, u32)>) -> (Vec<u32>, Vec<u32>) {
        pairs.sort_unstable();
        pairs.dedup();
        let offsets = (0..=n as u32).map(|u| pairs.partition_point(|&(s, _)| s < u) as u32);
        (offsets.collect(), pairs.iter().map(|&(_, v)| v).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// `GraphBuilder::build` ≡ sorting the pairs, and `reversed` ≡ the
        /// reverse built by sorting: over few vertices (so duplicates and
        /// self-loops are common), from the empty builder up, with a top
        /// vertex that only `ensure_vertex` adds.
        #[test]
        fn counting_kernels_match_sorting_the_pairs(
            n in 0usize..12,
            raw in prop::collection::vec((0u32..1000, 0u32..1000), 0..200),
            top in prop::option::of(0u32..20),
        ) {
            let pairs: Vec<(u32, u32)> = match n {
                0 => Vec::new(),
                n => raw.iter().map(|&(u, v)| (u % n as u32, v % n as u32)).collect(),
            };
            let mut b = GraphBuilder::new(n);
            b.extend_edges(pairs.iter().copied());
            if let Some(top) = top {
                b.ensure_vertex(top);
            }
            let n = b.num_vertices();
            let g = b.build();
            let cols = |g: &crate::DiGraph| {
                let c = |col: &crate::Col<u32>| col.to_vec();
                ((c(&g.out_offsets), c(&g.out_targets)), (c(&g.in_offsets), c(&g.in_sources)))
            };
            let (out, rev) = cols(&g);
            prop_assert_eq!(&out, &sorted_csr(n, pairs.clone()));
            let flipped = sorted_csr(n, pairs.iter().map(|&(u, v)| (v, u)).collect());
            prop_assert_eq!(&rev, &flipped);

            let r = g.reversed();
            prop_assert_eq!(cols(&r), (rev, out));
            let back = r.reversed();
            prop_assert_eq!(cols(&back), cols(&g));
            for (a, b) in [(&r.out_offsets, &g.in_offsets), (&r.out_targets, &g.in_sources),
                           (&r.in_offsets, &g.out_offsets), (&r.in_sources, &g.out_targets),
                           (&back.out_targets, &g.out_targets), (&back.in_sources, &g.in_sources)] {
                prop_assert!(crate::Col::ptr_eq(a, b), "reversed copied a column");
            }
        }
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

    /// A graph over copies of the given columns, unvalidated.
    fn raw(oo: &[u32], ot: &[u32], io: &[u32], is_: &[u32]) -> crate::DiGraph {
        let col = |xs: &[u32]| crate::Col::from(xs.to_vec());
        crate::DiGraph {
            out_offsets: col(oo),
            out_targets: col(ot),
            in_offsets: col(io),
            in_sources: col(is_),
        }
    }

    #[test]
    fn csr_parts_round_trip() {
        use crate::columns::{ColumnList, MemSource};
        let g = diamond();
        let h: crate::DiGraph =
            MemSource::new(ColumnList::of(&g)).load().expect("valid csr must round-trip");
        assert_eq!((&h.out_offsets, &h.out_targets), (&g.out_offsets, &g.out_targets));
        assert_eq!((&h.in_offsets, &h.in_sources), (&g.in_offsets, &g.in_sources));
        assert_eq!(h.heap_bytes(), g.heap_bytes());
        assert_eq!(g.heap_bytes(), (5 + 4 + 5 + 4) * 4);
    }

    #[test]
    fn from_out_csr_rejects_malformed() {
        // A forward-CSR defect is reported before the reverse columns are
        // even looked at.
        let rejects = |out_offsets: &[u32], out_targets: &[u32]| {
            let err = raw(out_offsets, out_targets, &[0], &[])
                .validate()
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
        let (oo, ot, io, is_) = (&g.out_offsets, &g.out_targets, &g.in_offsets, &g.in_sources);
        let h = raw(oo, ot, io, is_);
        h.validate().expect("faithful columns must assemble");
        for v in g.vertices() {
            assert_eq!(g.out_neighbors(v), h.out_neighbors(v));
            assert_eq!(g.in_neighbors(v), h.in_neighbors(v));
        }

        // Reordering within one vertex's in-list breaks the counting-sort
        // correspondence even though the multiset of edges is unchanged.
        let mut shuffled = is_.to_vec();
        shuffled.swap(2, 3);
        assert!(raw(oo, ot, io, &shuffled).validate().is_err());
        // Reverse shape defects are typed errors, not panics.
        assert!(raw(oo, ot, &io[..3], is_).validate().is_err());
        let mut bad_counts = io.to_vec();
        bad_counts[4] = 3;
        assert!(raw(oo, ot, &bad_counts, is_).validate().is_err());
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
