//! A const-generic static R-tree packed with STR bulk loading, stored as a
//! flat breadth-first structure-of-arrays arena.
//!
//! The tree indexes axis-aligned boxes ([`Aabb<N>`]) with an arbitrary
//! payload `T`. Points are degenerate boxes, so the same structure serves as
//! the paper's 2-D point R-tree (SpaReach), its 2-D rectangle R-tree (the
//! MBR-based SCC variants of Section 5), the 3-D point R-tree (3DReach) and
//! the 3-D segment/box R-tree (3DReach-REV).
//!
//! # Memory layout
//!
//! Nodes are numbered breadth-first from the root (id 0): all inner nodes
//! come before all leaves, parents before children, the children of any
//! node are consecutive ids and all leaves sit at one depth. Instead of
//! per-node allocations the tree keeps flat arrays:
//!
//! * `mbrs[id]` — every node's MBR, contiguous so a traversal that filters
//!   children scans coordinates cache-linearly;
//! * `child_start` — CSR offsets of the inner nodes' child lists. The
//!   lists themselves are not stored: under the breadth-first numbering
//!   the `k`-th child reference is node `k + 1`, so node `i`'s children
//!   are the ids `child_start[i] + 1 ..= child_start[i + 1]`;
//! * `entry_start` — CSR offsets of the leaves into the entry columns;
//! * entry coordinates in column-major order (one column per dimension and
//!   bound), with per-dimension *degenerate compression*: when every entry
//!   is flat in some dimension (points in any dimension, the x/y columns of
//!   3DReach-REV's vertical segments) the `hi` column is dropped and reads
//!   fall back to `lo` — bit-exact, since equality is tested on the raw
//!   `f64` bits;
//! * `values` — the payloads, parallel to the entry columns.
//!
//! A consequence of the numbering: **the entries below any node are one
//! contiguous index range** of the entry columns — the leaves of a subtree
//! are consecutive ids, found by walking its first- and last-child chains,
//! and consecutive leaves hold consecutive entries.
//!
//! # Packing
//!
//! A bulk load sorts integers, not entries. Each level of the tree is tiled
//! over a `u32` permutation of the items below it — the entries for the
//! leaves, the groups of the level below above them. STR sorts the
//! permutation by the box centre in dimension 0, cuts it into slabs
//! (`chunks_mut`), sorts each slab — a disjoint sub-slice — by the next
//! dimension, and so on; at the last dimension it records only where each
//! group of `max_entries` *ends*. A level is thus a tiled permutation plus
//! CSR cut offsets, the shape `entry_start` has at rest.
//!
//! A sort fills a scratch buffer with `(key, position, item)` triples and
//! sorts those unstably. `key` is an order-preserving `u64` image of the
//! centre (`-0.0` and `0.0` are one key; a NaN centre, from a box infinite
//! both ways in that dimension, sorts after every number), and `position`
//! — the item's place in the sub-slice — breaks ties, so the order is the
//! one a stable sort of the entries by centre gives. Because the slabs are
//! disjoint, the top-level slabs can go to scoped threads, each with its
//! own scratch, and the cuts come out the same at any thread count. One
//! top-down pass over the levels then numbers the nodes breadth-first, and
//! the columns are gathered from the input in breadth-first leaf order:
//! no entry is moved before that. Peak memory is the input, 20 bytes per
//! item of permutation and scratch, and the result.
//!
//! Slabs must be borrowed sub-slices, not owned `Vec`s split off a buffer:
//! splitting copies the whole remaining tail at every cut, and each
//! truncated head keeps the capacity it was cut from — `slabs × n / 2` live
//! items per level, O(n^1.5) bytes in 2-D, every one written once and
//! page-faulted, which dwarfs the sorting itself from ~10^5 entries up.
//!
//! # Traversal order
//!
//! A range scan ([`RTree::runs`]) pops nodes off a stack, pushes the
//! intersecting children of an inner node in list order and reports a
//! leaf's hits in forward order — unless the popped inner node's MBR lies
//! *inside* the window: then every entry below it qualifies, and the scan
//! emits the subtree's leaves from the last to the first, each as one run
//! of entry indices, without reading a coordinate. That is the order a
//! per-entry traversal visits them in, so candidates arrive exactly as
//! they did before the scan went run-at-a-time and `QueryCost` accounting
//! is unchanged. A popped leaf is tested a coordinate column at a time, and
//! only against the window bounds its MBR sticks out of (none, for a leaf
//! inside the window). Entry boxes must be proper (`lo <= hi`, no NaN) for
//! "inside the MBR" to imply "intersects the window"; [`Columns::load`]
//! checks it on untrusted columns.
//!
//! The tree is immutable once built.

use gsr_geo::Aabb;
use gsr_graph::{Col, ColumnList, Columns, HeapBytes, Pod, Source};
use std::borrow::BorrowMut;
use std::ops::Range;

/// Fan-out parameters of an [`RTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RTreeParams {
    /// Maximum entries per node (Guttman's `M`).
    pub max_entries: usize,
}

impl Default for RTreeParams {
    fn default() -> Self {
        RTreeParams { max_entries: 16 }
    }
}

impl RTreeParams {
    /// Creates parameters, clamping `max_entries` to at least 4.
    pub fn new(max_entries: usize) -> Self {
        RTreeParams { max_entries: max_entries.max(4) }
    }
}

/// Column-major entry coordinates with per-dimension degenerate
/// compression: dimension `d` keeps no `hi` column when every entry
/// satisfies `lo[d] == hi[d]` bit-exactly.
#[derive(Debug, Clone, PartialEq)]
struct EntryStore<const N: usize> {
    lo: [Col<f64>; N],
    hi: [Option<Col<f64>>; N],
}

impl<const N: usize> EntryStore<N> {
    /// The columns of `entries[order[0]], entries[order[1]], …`.
    fn gather<T>(entries: &[(Aabb<N>, T)], order: &[u32]) -> Self {
        let boxes = || order.iter().map(|&i| &entries[i as usize].0);
        let lo: [Col<f64>; N] =
            std::array::from_fn(|d| boxes().map(|b| b.min[d]).collect::<Vec<_>>().into());
        let hi: [Option<Col<f64>>; N] = std::array::from_fn(|d| {
            if boxes().all(|b| b.min[d].to_bits() == b.max[d].to_bits()) {
                None
            } else {
                Some(boxes().map(|b| b.max[d]).collect::<Vec<_>>().into())
            }
        });
        EntryStore { lo, hi }
    }

    /// Reconstructs entry `i`'s box, bit-identical to the one stored.
    #[inline]
    fn get(&self, i: usize) -> Aabb<N> {
        let min: [f64; N] = std::array::from_fn(|d| self.lo[d][i]);
        let max: [f64; N] = std::array::from_fn(|d| match &self.hi[d] {
            Some(col) => col[i],
            None => self.lo[d][i],
        });
        Aabb { min, max }
    }

    /// Which of `entries` (at most 64, all inside `mbr`) intersect `region`,
    /// as a bit per entry — the closed-interval test of
    /// [`Aabb::intersects`], evaluated a column at a time and only against
    /// the bounds of `region` that `mbr` sticks out of: a proper box inside
    /// `mbr` cannot fail the others. (`region` has no NaN bound here: a scan
    /// over such a window does not get past the root's `intersects`.)
    #[inline]
    fn hits(&self, entries: Range<usize>, region: &Aabb<N>, mbr: &Aabb<N>) -> u64 {
        fn mask(col: &[f64], test: impl Fn(f64) -> bool) -> u64 {
            col.iter().rev().fold(0, |m, &x| m << 1 | test(x) as u64)
        }
        let mut hits = u64::MAX >> (64 - entries.len());
        for d in 0..N {
            let lo = &self.lo[d][entries.clone()];
            if mbr.max[d] > region.max[d] {
                hits &= mask(lo, |x| x <= region.max[d]);
            }
            if mbr.min[d] < region.min[d] {
                let hi = self.hi[d].as_ref().map_or(lo, |col| &col[entries.clone()]);
                hits &= mask(hi, |x| region.min[d] <= x);
            }
        }
        hits
    }
}

/// An R-tree over `N`-dimensional boxes with payloads of type `T`.
///
/// ```
/// use gsr_geo::Aabb;
/// use gsr_index::RTree;
///
/// let entries: Vec<(Aabb<2>, u32)> = (0..100u32)
///     .map(|i| (Aabb::from_point([i as f64, (i * 7 % 100) as f64]), i))
///     .collect();
/// let t = RTree::bulk_load(entries);
/// let region = Aabb::new([0.0, 0.0], [10.0, 100.0]);
/// assert!(t.query_exists(&region));
/// assert_eq!(t.query(&region).count(), 11);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RTree<const N: usize, T> {
    params: RTreeParams,
    len: usize,
    num_inner: usize,
    mbrs: Col<Aabb<N>>,
    child_start: Col<u32>,
    entry_start: Col<u32>,
    entries: EntryStore<N>,
    values: Col<T>,
}

impl<const N: usize, T> Default for RTree<N, T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const N: usize, T> RTree<N, T> {
    /// An empty tree with default parameters.
    pub fn new() -> Self {
        Self::with_params(RTreeParams::default())
    }

    /// An empty tree with the given fan-out parameters: a single empty
    /// leaf root.
    pub fn with_params(params: RTreeParams) -> Self {
        RTree {
            params,
            len: 0,
            num_inner: 0,
            mbrs: vec![Aabb::empty()].into(),
            child_start: vec![0].into(),
            entry_start: vec![0, 0].into(),
            entries: EntryStore::gather::<T>(&[], &[]),
            values: Col::default(),
        }
    }

    /// Bulk-loads the tree with Sort-Tile-Recursive packing, which produces
    /// nearly fully packed nodes with little overlap — the standard loading
    /// strategy for static datasets such as the paper's networks. Entry
    /// boxes must be proper (`min <= max`, no NaN): range scans rely on it.
    pub fn bulk_load(entries: Vec<(Aabb<N>, T)>) -> Self
    where
        T: Copy + Sync,
    {
        Self::bulk_load_with_params(entries, RTreeParams::default())
    }

    /// [`RTree::bulk_load`] with explicit parameters.
    pub fn bulk_load_with_params(entries: Vec<(Aabb<N>, T)>, params: RTreeParams) -> Self
    where
        T: Copy + Sync,
    {
        Self::bulk_load_parallel(entries, params, 1)
    }

    /// [`RTree::bulk_load`] with explicit parameters and a thread count:
    /// the top-level STR slabs — disjoint sub-slices of one item
    /// permutation — are tiled concurrently and their group cuts
    /// concatenated in slab order, so the resulting tree is **identical** to
    /// the sequential bulk load at any thread count (`0` = machine
    /// parallelism, `1` = sequential). See *Packing* in the module docs.
    pub fn bulk_load_parallel(
        entries: Vec<(Aabb<N>, T)>,
        params: RTreeParams,
        threads: usize,
    ) -> Self
    where
        T: Copy + Sync,
    {
        if entries.is_empty() {
            return Self::with_params(params);
        }
        let threads = gsr_graph::par::effective_threads(threads);
        let cap = params.max_entries;

        // Tile upward until one root group remains: the entries for the
        // leaves, the groups of the level below above them.
        let mut levels = vec![Level::tile(&entries, |e| &e.0, cap, threads)];
        while levels[levels.len() - 1].mbrs.len() > 1 {
            let below = &levels[levels.len() - 1].mbrs;
            levels.push(Level::tile(&below[..], |b| b, cap, threads));
        }

        // Breadth-first numbering, root (the single top group) first: the
        // BFS order of each level is the concatenation of the child runs of
        // the level above in its own BFS order, so node ids, MBRs and the
        // child CSR (child reference `k` is node `k + 1`) fall out of one
        // top-down pass.
        let num_nodes: usize = levels.iter().map(|l| l.mbrs.len()).sum();
        let num_inner = num_nodes - levels[0].mbrs.len();
        let mut mbrs = Vec::with_capacity(num_nodes);
        let mut child_start = Vec::with_capacity(num_inner + 1);
        child_start.push(0u32);
        let mut order = vec![0u32];
        for level in levels[1..].iter().rev() {
            let mut below = Vec::with_capacity(level.items.len());
            let first_below = mbrs.len() + order.len(); // id of this level's first child
            for &g in &order {
                mbrs.push(level.mbrs[g as usize]);
                below.extend_from_slice(level.group(g));
                child_start.push((first_below - 1 + below.len()) as u32);
            }
            order = below;
        }

        // `order` is now the BFS order of the leaves; the entries are
        // gathered into the columns in the order of their leaves.
        let leaves = &levels[0];
        let mut entry_start = Vec::with_capacity(order.len() + 1);
        entry_start.push(0u32);
        let mut leaf_order = Vec::with_capacity(entries.len());
        for &g in &order {
            mbrs.push(leaves.mbrs[g as usize]);
            leaf_order.extend_from_slice(leaves.group(g));
            entry_start.push(leaf_order.len() as u32);
        }
        drop(levels);
        let values: Vec<T> = leaf_order.iter().map(|&i| entries[i as usize].1).collect();

        RTree {
            params,
            len: values.len(),
            num_inner,
            mbrs: mbrs.into(),
            child_start: child_start.into(),
            entry_start: entry_start.into(),
            entries: EntryStore::gather(&entries, &leaf_order),
            values: values.into(),
        }
    }

    /// Number of data entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The MBR of all entries ([`Aabb::empty`] when the tree is empty).
    #[inline]
    pub fn mbr(&self) -> Aabb<N> {
        self.mbrs[0]
    }

    /// Number of nodes in the arena.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.mbrs.len()
    }

    /// Number of inner (non-leaf) nodes; node ids `0..num_inner_nodes()`
    /// are inner, the rest are leaves.
    #[inline]
    pub fn num_inner_nodes(&self) -> usize {
        self.num_inner
    }

    /// Child ids of inner node `id` (child reference `k` is node `k + 1`).
    #[inline]
    fn child_ids(&self, id: usize) -> Range<usize> {
        self.child_start[id] as usize + 1..self.child_start[id + 1] as usize + 1
    }

    /// Entry index range of leaf number `l` (node id `num_inner + l`).
    #[inline]
    fn leaf_entries(&self, l: usize) -> Range<usize> {
        self.entry_start[l] as usize..self.entry_start[l + 1] as usize
    }

    /// Leaf numbers of the subtree below node `id`: both ends of the level
    /// move down one child chain each until they reach the leaf level.
    #[inline]
    fn leaf_span(&self, id: usize) -> Range<usize> {
        let (mut first, mut end) = (id, id + 1);
        while first < self.num_inner {
            first = self.child_start[first] as usize + 1;
            end = self.child_start[end] as usize + 1;
        }
        first - self.num_inner..end - self.num_inner
    }

    /// The range scan every other query is built on: the entries whose box
    /// intersects `region`, as **runs** of entry indices (into
    /// [`RTree::values`] / [`RTree::entry_box`]) in traversal order. A
    /// subtree inside the window is emitted leaf by leaf without testing an
    /// entry (see *Traversal order* in the module docs); runs are never
    /// empty.
    ///
    /// `stack` is the traversal stack, owned (`Vec::new()`) or borrowed: it
    /// is cleared on entry and keeps its capacity, so a caller lending the
    /// same buffer every time (a per-thread `QueryScratch`) allocates
    /// nothing per query in steady state.
    pub fn runs<S: BorrowMut<Vec<u32>>>(
        &self,
        region: &Aabb<N>,
        mut stack: S,
    ) -> Runs<'_, N, T, S> {
        stack.borrow_mut().clear();
        if self.mbrs[0].intersects(region) {
            stack.borrow_mut().push(0);
        }
        Runs { tree: self, region: *region, stack, span: 0..0, leaf: (0, 0..0), base: 0, hits: 0 }
    }

    /// Iterator over all entries whose box intersects `region`.
    pub fn query(&self, region: &Aabb<N>) -> Query<'_, N, T> {
        self.query_with(region, Vec::new())
    }

    /// [`RTree::query`] with the traversal stack of [`RTree::runs`]
    /// (usually a borrowed, reused `&mut Vec<u32>`); same results.
    pub fn query_with<S: BorrowMut<Vec<u32>>>(
        &self,
        region: &Aabb<N>,
        stack: S,
    ) -> Query<'_, N, T, S> {
        Query { runs: self.runs(region, stack), run: 0..0 }
    }

    /// Whether any entry intersects `region` (early-exit traversal). This is
    /// the access pattern of 3DReach: a `RangeReach` answer needs only the
    /// *existence* of a point inside the query cuboid, not the result set.
    pub fn query_exists(&self, region: &Aabb<N>) -> bool {
        self.runs(region, Vec::new()).next().is_some()
    }

    /// [`RTree::query_exists`] with a caller-provided stack buffer.
    pub fn query_exists_with(&self, region: &Aabb<N>, stack: &mut Vec<u32>) -> bool {
        self.runs(region, stack).next().is_some()
    }

    /// Number of entries intersecting `region`.
    pub fn count_in(&self, region: &Aabb<N>) -> usize {
        self.runs(region, Vec::new()).total()
    }

    /// Appends the payload of every entry intersecting `region` to `out`, in
    /// traversal order — one slice copy per run of [`RTree::runs`].
    pub fn collect_values<S: BorrowMut<Vec<u32>>>(
        &self,
        region: &Aabb<N>,
        stack: S,
        out: &mut Vec<T>,
    ) where
        T: Copy,
    {
        for run in self.runs(region, stack) {
            out.extend_from_slice(&self.values[run]);
        }
    }

    /// The payloads in storage order, indexed by the runs of [`RTree::runs`].
    #[inline]
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Entry `i`'s box, bit-identical to the one loaded.
    #[inline]
    pub fn entry_box(&self, i: usize) -> Aabb<N> {
        self.entries.get(i)
    }

    /// Iterator over all entries in storage (breadth-first leaf) order.
    pub fn iter(&self) -> impl Iterator<Item = (Aabb<N>, &T)> {
        (0..self.len).map(|i| (self.entries.get(i), &self.values[i]))
    }

    /// Height of the tree (1 for a single leaf root). Derived by walking
    /// the first-child chain — children always have larger ids, so the
    /// walk terminates.
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut id = 0usize;
        while id < self.num_inner {
            h += 1;
            id = self.child_ids(id).start;
        }
        h
    }

    /// The declaration behind [`Columns::store`] and [`RTree::heap_bytes`]:
    /// the fan-out, then the arena columns in file order.
    /// `values` declares the payloads, which are a column only where `T` has
    /// a byte image.
    fn declare<'a>(
        &'a self,
        out: &mut ColumnList<'a>,
        values: impl FnOnce(&mut ColumnList<'a>, &'a [T]),
    ) {
        out.meta.u64(self.params.max_entries as u64);
        out.col(tag::MBRS, &self.mbrs, true);
        out.col(tag::CHILD_START, &self.child_start, true);
        out.col(tag::ENTRY_START, &self.entry_start, true);
        values(out, &self.values);
        for d in 0..N {
            out.col(tag::ENTRY_LO + d as u16, &self.entries.lo[d], true);
            if let Some(hi) = &self.entries.hi[d] {
                out.col(tag::ENTRY_HI + d as u16, hi, true);
            }
        }
    }

    /// Heap footprint in bytes: MBR, adjacency and entry-column arrays plus
    /// payload storage. Used for the index-size accounting of Table 4.
    pub fn heap_bytes(&self) -> usize {
        let mut list = ColumnList::default();
        self.declare(&mut list, |list, values| list.extra += std::mem::size_of_val(values));
        list.counted_bytes()
    }

    /// The fan-out parameters the tree was built with.
    #[inline]
    pub fn params(&self) -> RTreeParams {
        self.params
    }

    /// What [`Columns::load`] demands of untrusted columns, on a tree whose
    /// offset arrays are non-empty: the arrays must describe a proper
    /// breadth-first tree — monotone CSR offsets, no childless inner node,
    /// one child reference per non-root node (so that reference `k` is node
    /// `k + 1`: each referenced exactly once, by a smaller id — no cycles),
    /// all leaves at one depth, coordinate
    /// columns parallel to the payloads, proper entry boxes (`lo <= hi`, no
    /// NaN), every inner node's MBR covering its children's and every
    /// leaf's MBR being exactly its entries' — so that no traversal can
    /// panic or loop, no MBR prunes an entry it should reach, every run the
    /// scan derives for a subtree inside the window is in bounds and holds
    /// only intersecting entries, and a file that lost an upper-bound
    /// column (which reads as "degenerate dimension") does not pass for a
    /// tree of points. Violations are reported as `Err(String)`; the checks
    /// are `O(nodes + entries)`.
    fn validate(&self) -> Result<(), String> {
        let RTree { num_inner, mbrs, child_start, entry_start, entries, .. } = self;
        let (num_inner, num_leaves) = (*num_inner, entry_start.len() - 1);
        let num_nodes = num_inner + num_leaves;
        if mbrs.len() != num_nodes {
            return Err(format!(
                "rtree: {} mbrs for {num_inner} inner + {num_leaves} leaf nodes",
                mbrs.len()
            ));
        }
        for (name, offsets, total) in
            [("child", &child_start[..], num_nodes - 1), ("entry", &entry_start[..], self.len)]
        {
            if offsets[0] != 0 || offsets.windows(2).any(|w| w[0] > w[1]) {
                return Err(format!("rtree: {name} offsets not monotone from 0"));
            }
            if offsets[offsets.len() - 1] as usize != total {
                return Err(format!(
                    "rtree: {name} offsets claim {} items but {total} present",
                    offsets[offsets.len() - 1]
                ));
            }
        }
        if child_start.windows(2).any(|w| w[0] == w[1]) {
            return Err("rtree: an inner node has no children".into());
        }
        // Level by level from the root: a level holding both inner nodes
        // and leaves would put leaves at two depths.
        let (mut first, mut end) = (0, 1);
        while first < num_inner {
            if end > num_inner {
                return Err("rtree: leaves at different depths".into());
            }
            (first, end) = (child_start[first] as usize + 1, child_start[end] as usize + 1);
        }
        for id in 0..num_inner {
            if let Some(c) = self.child_ids(id).find(|&c| !mbrs[id].contains(&mbrs[c])) {
                return Err(format!("rtree: node {id} mbr does not cover child {c}"));
            }
        }
        let mut columns = entries.lo.iter().chain(entries.hi.iter().flatten());
        if let Some(col) = columns.find(|col| col.len() != self.len) {
            return Err(format!(
                "rtree: a coordinate column has {} coords for {} entries",
                col.len(),
                self.len
            ));
        }
        let lo: [&[f64]; N] = std::array::from_fn(|d| &entries.lo[d][..]);
        let hi: [&[f64]; N] = std::array::from_fn(|d| entries.hi[d].as_deref().unwrap_or(lo[d]));
        for (l, mbr) in mbrs[num_inner..].iter().enumerate() {
            let run = self.leaf_entries(l);
            let proper_and_tight = (0..N).all(|d| {
                let bounds = lo[d][run.clone()].iter().zip(&hi[d][run.clone()]);
                let (ok, min, max) = bounds
                    .fold((true, f64::INFINITY, f64::NEG_INFINITY), |(ok, min, max), (lo, hi)| {
                        (ok & (lo <= hi), min.min(*lo), max.max(*hi))
                    });
                ok & (min == mbr.min[d]) & (max == mbr.max[d])
            });
            if !proper_and_tight {
                return Err(format!(
                    "rtree: leaf {l} holds an entry that is inverted, NaN or outside its mbr, \
                     or the mbr is not the entries' (a coordinate column is missing)"
                ));
            }
        }
        Ok(())
    }

    /// Checks structural invariants: everything [`Columns::load`] demands of
    /// loaded columns, plus fan-out bounds and tight inner MBRs. Intended
    /// for tests; panics with a description on violation.
    pub fn check_invariants(&self) {
        if let Err(violation) = self.validate() {
            panic!("{violation}");
        }
        for id in 0..self.mbrs.len() {
            let count = if id < self.num_inner {
                let tight = Aabb::mbr_of(self.child_ids(id).map(|c| self.mbrs[c]));
                assert_eq!(tight, Some(self.mbrs[id]), "node {id} mbr is not tight");
                self.child_ids(id).len()
            } else {
                self.leaf_entries(id - self.num_inner).len()
            };
            let max = self.params.max_entries;
            assert!(count <= max, "node {id} overflows: {count} > {max}");
            assert!(id == 0 || count >= 1, "empty non-root node {id}");
        }
    }
}

impl<const N: usize, T> HeapBytes for RTree<N, T> {
    fn heap_bytes(&self) -> usize {
        RTree::heap_bytes(self)
    }
}

/// Section tags. The per-dimension entry bounds add the dimension index to
/// the base tag; an absent `ENTRY_HI + d` marks dimension `d` degenerate.
mod tag {
    pub const MBRS: u16 = 0x20;
    pub const CHILD_START: u16 = 0x21;
    pub const ENTRY_START: u16 = 0x23;
    pub const VALUES: u16 = 0x24;
    pub const ENTRY_LO: u16 = 0x30;
    pub const ENTRY_HI: u16 = 0x38;
}

/// A saved tree reloads bit-identical: same arena layout, same traversal
/// order, same query costs. The columns of a loaded tree borrow from the
/// snapshot and are never copied.
impl<const N: usize, T: Pod> Columns for RTree<N, T> {
    fn store<'a>(&'a self, out: &mut ColumnList<'a>) {
        self.declare(out, |out, values| out.col(tag::VALUES, values, true));
    }

    fn load<S: Source>(src: &mut S) -> Result<Self, String> {
        let params = RTreeParams { max_entries: src.usize()? };
        let mbrs = src.col(tag::MBRS, "rtree-mbrs")?;
        let child_start: Col<u32> = src.col(tag::CHILD_START, "rtree-child-start")?;
        let entry_start: Col<u32> = src.col(tag::ENTRY_START, "rtree-entry-start")?;
        let values: Col<T> = src.col(tag::VALUES, "rtree-values")?;
        let mut lo = Vec::with_capacity(N);
        let mut hi = Vec::with_capacity(N);
        for d in 0..N as u16 {
            lo.push(src.col(tag::ENTRY_LO + d, "rtree-entry-lo")?);
            hi.push(src.col_opt(tag::ENTRY_HI + d, "rtree-entry-hi")?);
        }
        if child_start.is_empty() || entry_start.len() < 2 {
            return Err("rtree: empty CSR offset array, or no leaf nodes".into());
        }
        let tree = RTree {
            params,
            len: values.len(),
            num_inner: child_start.len() - 1,
            mbrs,
            child_start,
            entry_start,
            entries: EntryStore {
                lo: lo.try_into().unwrap_or_else(|_| unreachable!("lo has exactly N columns")),
                hi: hi.try_into().unwrap_or_else(|_| unreachable!("hi has exactly N columns")),
            },
            values,
        };
        tree.validate()?;
        Ok(tree)
    }
}

/// One level of a packing: the items below it — the entries at the leaf
/// level, the groups of the level below above it — in tiled order, cut into
/// groups of at most `cap`, and the MBR of every group.
struct Level<const N: usize> {
    items: Vec<u32>,
    /// CSR offsets: group `g` is `items[cuts[g]..cuts[g + 1]]`.
    cuts: Vec<u32>,
    mbrs: Vec<Aabb<N>>,
}

impl<const N: usize> Level<N> {
    /// Sort-Tile-Recursive partitioning of `boxes` (see *Packing* in the
    /// module docs). `threads > 1` tiles the top-level slabs concurrently;
    /// the level is the same at any count.
    fn tile<E: Sync>(
        boxes: &[E],
        bbox: impl Fn(&E) -> &Aabb<N> + Sync,
        cap: usize,
        threads: usize,
    ) -> Self {
        let mut items: Vec<u32> = (0..boxes.len() as u32).collect();
        let mut cuts = Vec::with_capacity(boxes.len() / cap + 2);
        cuts.push(0);
        let tiler = Tiler { boxes, bbox: &bbox, cap };
        tiler.tile(&mut items, &mut Vec::new(), 0, 0, threads, &mut cuts);
        let mbr = |w: &[u32]| {
            let group = items[w[0] as usize..w[1] as usize].iter();
            Aabb::mbr_of(group.map(|&i| *bbox(&boxes[i as usize]))).expect("non-empty group")
        };
        let mbrs = cuts.windows(2).map(mbr).collect();
        Level { items, cuts, mbrs }
    }

    /// The items of group `g`.
    #[inline]
    fn group(&self, g: u32) -> &[u32] {
        &self.items[self.cuts[g as usize] as usize..self.cuts[g as usize + 1] as usize]
    }
}

/// The STR recursion over a permutation of `boxes`.
struct Tiler<'a, E, F> {
    boxes: &'a [E],
    bbox: &'a F,
    cap: usize,
}

impl<const N: usize, E: Sync, F: Fn(&E) -> &Aabb<N> + Sync> Tiler<'_, E, F> {
    /// One level of the recursion over the sub-slice of the permutation
    /// that starts at offset `base`: sorts it by the centre of dimension
    /// `dim` (ties keep their order), cuts it into slabs and recurses on
    /// them with the next dimension. At the last dimension the slabs are
    /// `cap` long — the groups themselves — and the recursion only records
    /// where each ends. `keys` is sorting scratch.
    fn tile(
        &self,
        items: &mut [u32],
        keys: &mut Vec<(u64, u32, u32)>,
        dim: usize,
        base: usize,
        threads: usize,
        cuts: &mut Vec<u32>,
    ) {
        let cap = self.cap;
        if items.len() <= cap {
            if !items.is_empty() {
                cuts.push((base + items.len()) as u32);
            }
            return;
        }
        // (key, position, item): the position breaks ties, so an unstable
        // sort of distinct triples gives the stable order.
        let key = |i: u32| centre_key((self.bbox)(&self.boxes[i as usize]), dim);
        keys.clear();
        keys.extend(items.iter().zip(0..).map(|(&i, pos)| (key(i), pos, i)));
        keys.sort_unstable();
        for (item, &(_, _, i)) in items.iter_mut().zip(keys.iter()) {
            *item = i;
        }
        let per_slab = if dim + 1 == N {
            cap
        } else {
            // Number of slabs: ceil((P)^(1/(N-dim))) where P = pages needed.
            let pages = items.len().div_ceil(cap);
            let slabs = (pages as f64).powf(1.0 / (N - dim) as f64).ceil() as usize;
            items.len().div_ceil(slabs.max(1))
        };
        let slabs = items.chunks_mut(per_slab).enumerate();
        if threads <= 1 || dim + 1 == N {
            for (k, slab) in slabs {
                self.tile(slab, keys, dim + 1, base + k * per_slab, 1, cuts);
            }
        } else {
            let tiled = gsr_graph::par::map_consume(threads, slabs.collect(), |(k, slab)| {
                let mut cuts = Vec::new();
                self.tile(slab, &mut Vec::new(), dim + 1, base + k * per_slab, 1, &mut cuts);
                cuts
            });
            cuts.extend(tiled.into_iter().flatten());
        }
    }
}

/// The sort key of `b`'s centre in dimension `dim`: an order-preserving
/// `u64` image of the `f64`, so that keys compare as the centres do, with
/// `-0.0` and `0.0` one key. A NaN centre — a box infinite both ways in
/// `dim` — takes the largest key: such entries sort after all others, in
/// the order they came in.
#[inline]
fn centre_key<const N: usize>(b: &Aabb<N>, dim: usize) -> u64 {
    let x = b.center()[dim];
    if x.is_nan() {
        return u64::MAX;
    }
    let bits = (x + 0.0).to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// Run-at-a-time range scan over an [`RTree`]; see [`RTree::runs`].
pub struct Runs<'t, const N: usize, T, S> {
    tree: &'t RTree<N, T>,
    region: Aabb<N>,
    stack: S,
    /// Leaves of a subtree inside the window still to emit, last first.
    span: Range<usize>,
    /// A leaf straddling the window's edge and its entries still to test.
    leaf: (usize, Range<usize>),
    /// The tested entries `base + k` of that leaf: bit `k` is set for a hit
    /// not yet emitted.
    base: usize,
    hits: u64,
}

impl<const N: usize, T, S: BorrowMut<Vec<u32>>> Iterator for Runs<'_, N, T, S> {
    type Item = Range<usize>;

    #[inline]
    fn next(&mut self) -> Option<Range<usize>> {
        let tree = self.tree;
        loop {
            if self.hits != 0 {
                let skip = self.hits.trailing_zeros() as usize;
                let len = (self.hits >> skip).trailing_ones() as usize;
                self.hits &= !(u64::MAX >> (64 - len) << skip);
                return Some(self.base + skip..self.base + skip + len);
            }
            let (node, rest) = &mut self.leaf;
            if rest.start < rest.end {
                let chunk = rest.start..rest.end.min(rest.start + 64);
                rest.start = chunk.end;
                self.base = chunk.start;
                self.hits = tree.entries.hits(chunk, &self.region, &tree.mbrs[*node]);
                continue;
            }
            if let Some(l) = self.span.next_back() {
                let run = tree.leaf_entries(l);
                if run.is_empty() {
                    continue; // the empty root, or an empty leaf of a loaded tree
                }
                return Some(run);
            }
            let id = self.stack.borrow_mut().pop()? as usize;
            if id >= tree.num_inner {
                self.leaf = (id, tree.leaf_entries(id - tree.num_inner));
            } else if self.region.contains(&tree.mbrs[id]) {
                self.span = tree.leaf_span(id);
            } else {
                let stack = self.stack.borrow_mut();
                let kids = tree.child_ids(id);
                for (c, mbr) in kids.clone().zip(&tree.mbrs[kids]) {
                    if mbr.intersects(&self.region) {
                        stack.push(c as u32);
                    }
                }
            }
        }
    }
}

impl<const N: usize, T, S: BorrowMut<Vec<u32>>> Runs<'_, N, T, S> {
    /// Number of entries in the runs still to come. A subtree inside the
    /// window is counted from its entry offsets after its first run, without
    /// visiting the rest of its leaves.
    fn total(mut self) -> usize {
        let mut n = 0;
        while let Some(run) = self.next() {
            let rest = std::mem::take(&mut self.span);
            let offsets = &self.tree.entry_start;
            n += run.len() + (offsets[rest.end] - offsets[rest.start]) as usize;
        }
        n
    }
}

/// Range-query iterator over an [`RTree`] — [`Runs`] flattened into
/// `(box, payload)` pairs; see [`RTree::query`] and [`RTree::query_with`].
pub struct Query<'t, const N: usize, T, S = Vec<u32>> {
    runs: Runs<'t, N, T, S>,
    run: Range<usize>,
}

impl<'t, const N: usize, T, S: BorrowMut<Vec<u32>>> Iterator for Query<'t, N, T, S> {
    type Item = (Aabb<N>, &'t T);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(i) = self.run.next() {
                let tree = self.runs.tree;
                return Some((tree.entries.get(i), &tree.values[i]));
            }
            self.run = self.runs.next()?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(x: f64, y: f64) -> Aabb<2> {
        Aabb::from_point([x, y])
    }

    fn grid_points(n: usize) -> Vec<(Aabb<2>, usize)> {
        (0..n).map(|i| (pt((i % 32) as f64, (i / 32) as f64), i)).collect()
    }

    #[test]
    fn empty_tree_queries() {
        let t: RTree<2, u32> = RTree::new();
        assert!(t.is_empty());
        let all = Aabb::new([-1e9, -1e9], [1e9, 1e9]);
        assert_eq!(t.query(&all).count(), 0);
        assert!(!t.query_exists(&all));
        t.check_invariants();
    }

    #[test]
    fn bulk_load_finds_everything() {
        let t = RTree::bulk_load(grid_points(1000));
        assert_eq!(t.len(), 1000);
        t.check_invariants();
        let region = Aabb::new([10.0, 10.0], [12.0, 11.0]);
        let mut hits: Vec<usize> = t.query(&region).map(|(_, &i)| i).collect();
        hits.sort_unstable();
        // Points with x in 10..=12, y in 10..=11: i = y*32 + x.
        assert_eq!(hits, vec![330, 331, 332, 362, 363, 364]);
    }

    #[test]
    fn arena_is_breadth_first() {
        let t = RTree::bulk_load(grid_points(4096));
        assert!(t.height() >= 2);
        // Root is node 0; every child id exceeds its parent's; leaves
        // occupy the id range after the inner nodes.
        for id in 0..t.num_inner_nodes() {
            for c in t.child_ids(id) {
                assert!(c > id);
            }
        }
        assert_eq!(t.num_nodes() - t.num_inner_nodes(), t.entry_start.len() - 1);
    }

    #[test]
    fn degenerate_dimensions_are_compressed() {
        // Points: both dimensions flat — no hi columns at all.
        let t = RTree::bulk_load(grid_points(500));
        assert!(t.entries.hi.iter().all(Option::is_none));
        // Vertical 3-D segments: x/y flat, z extended.
        let segs: Vec<(Aabb<3>, u32)> = (0..200u32)
            .map(|i| {
                let x = (i % 10) as f64;
                let y = (i / 10) as f64;
                (Aabb::new([x, y, 0.0], [x, y, 1.0 + i as f64]), i)
            })
            .collect();
        let t3 = RTree::bulk_load(segs.clone());
        assert!(t3.entries.hi[0].is_none());
        assert!(t3.entries.hi[1].is_none());
        assert!(t3.entries.hi[2].is_some());
        // Reconstruction is bit-exact.
        let mut boxes: Vec<(Aabb<3>, u32)> = t3.iter().map(|(b, &v)| (b, v)).collect();
        boxes.sort_by_key(|&(_, v)| v);
        assert_eq!(boxes, segs);
    }

    #[test]
    fn negative_zero_is_not_conflated_with_zero() {
        // -0.0 == 0.0 numerically but differs bit-wise; a dimension mixing
        // them must keep its hi column so reconstruction is bit-faithful.
        let entries = vec![(Aabb::new([-0.0, 1.0], [0.0, 1.0]), 1u32)];
        let t = RTree::bulk_load(entries);
        assert!(t.entries.hi[0].is_some(), "[-0.0, 0.0] is not degenerate");
        assert!(t.entries.hi[1].is_none());
        let (b, _) = t.iter().next().unwrap();
        assert_eq!(b.min[0].to_bits(), (-0.0f64).to_bits());
        assert_eq!(b.max[0].to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn centre_keys_order_as_the_centres() {
        let key = |x: f64| centre_key(&Aabb::from_point([x]), 0);
        let ascending = [
            f64::NEG_INFINITY,
            -1e300,
            -1.0,
            -f64::MIN_POSITIVE,
            0.0,
            f64::MIN_POSITIVE,
            1.0,
            1e300,
            f64::INFINITY,
        ];
        assert!(ascending.windows(2).all(|w| key(w[0]) < key(w[1])));
        assert_eq!(key(-0.0), key(0.0));
        // A NaN centre, whatever its sign bit, sorts after every number.
        let nan = Aabb::new([f64::NEG_INFINITY], [f64::INFINITY]);
        assert_eq!(centre_key(&nan, 0), u64::MAX);
        assert_eq!(key(-f64::NAN), u64::MAX);
    }

    #[test]
    fn query_exists_early_exit_agrees_with_count() {
        let t = RTree::bulk_load(grid_points(500));
        for (lo, hi) in [([0.0, 0.0], [1.0, 1.0]), ([900.0, 900.0], [950.0, 950.0])] {
            let r = Aabb::new(lo, hi);
            assert_eq!(t.query_exists(&r), t.count_in(&r) > 0);
        }
    }

    #[test]
    fn query_with_matches_query_and_reuses_buffer() {
        let t = RTree::bulk_load(grid_points(500));
        let mut stack = Vec::new();
        for (lo, hi) in [
            ([0.0, 0.0], [1.0, 1.0]),
            ([3.0, 3.0], [12.0, 9.0]),
            ([900.0, 900.0], [950.0, 950.0]),
            ([-10.0, -10.0], [100.0, 100.0]),
        ] {
            let r = Aabb::new(lo, hi);
            let plain: Vec<usize> = t.query(&r).map(|(_, &v)| v).collect();
            let with: Vec<usize> = t.query_with(&r, &mut stack).map(|(_, &v)| v).collect();
            assert_eq!(plain, with, "query_with diverged on {r:?}");
            assert_eq!(t.query_exists(&r), t.query_exists_with(&r, &mut stack));
        }
        // The buffer is reusable: a second pass over the same windows must
        // not need to grow it.
        let cap = stack.capacity();
        let r = Aabb::new([-10.0, -10.0], [100.0, 100.0]);
        let _ = t.query_with(&r, &mut stack).count();
        assert_eq!(stack.capacity(), cap);
    }

    #[test]
    fn boxes_not_only_points() {
        let t = RTree::bulk_load(vec![
            (Aabb::new([0.0, 0.0], [10.0, 10.0]), "big"),
            (Aabb::new([20.0, 20.0], [21.0, 21.0]), "small"),
        ]);
        let probe = Aabb::new([5.0, 5.0], [6.0, 6.0]);
        let hits: Vec<&str> = t.query(&probe).map(|(_, &s)| s).collect();
        assert_eq!(hits, vec!["big"]);
    }

    #[test]
    fn three_dimensional_segments() {
        // Vertical segments as in 3DReach-REV: degenerate in x/y.
        let entries: Vec<(Aabb<3>, u32)> = (0..100u32)
            .map(|i| {
                let x = (i % 10) as f64;
                let y = (i / 10) as f64;
                (Aabb::new([x, y, 0.0], [x, y, i as f64]), i)
            })
            .collect();
        let t = RTree::bulk_load(entries);
        t.check_invariants();
        // A plane at z = 50 over the whole xy extent cuts segments with
        // i >= 50.
        let plane = Aabb::new([0.0, 0.0, 50.0], [10.0, 10.0, 50.0]);
        assert_eq!(t.count_in(&plane), 50);
    }

    #[test]
    fn duplicate_geometry_is_allowed() {
        let t = RTree::bulk_load((0..50u32).map(|i| (pt(1.0, 1.0), i)).collect());
        t.check_invariants();
        assert_eq!(t.count_in(&Aabb::from_point([1.0, 1.0])), 50);
    }

    #[test]
    fn iter_visits_all_entries() {
        let t = RTree::bulk_load(grid_points(333));
        let mut ids: Vec<usize> = t.iter().map(|(_, &i)| i).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..333).collect::<Vec<_>>());
    }

    #[test]
    fn custom_params_respected() {
        let params = RTreeParams::new(8);
        let t = RTree::bulk_load_with_params(grid_points(200), params);
        t.check_invariants();
        assert_eq!(t.len(), 200);
        assert_eq!(t.params(), params);
    }

    #[test]
    fn parallel_bulk_load_matches_sequential_exactly() {
        for n in [0usize, 5, 100, 3000] {
            let entries = grid_points(n);
            let seq = RTree::bulk_load(entries.clone());
            for threads in [2, 4, 8] {
                let par =
                    RTree::bulk_load_parallel(entries.clone(), RTreeParams::default(), threads);
                assert_eq!(seq, par, "n = {n}, threads = {threads}");
                par.check_invariants();
            }
        }
    }

    #[test]
    fn parallel_bulk_load_matches_sequential_in_3d() {
        let entries: Vec<(Aabb<3>, u32)> = (0..2000u32)
            .map(|i| {
                let x = (i % 13) as f64;
                let y = (i % 57) as f64;
                let z = (i % 101) as f64;
                (Aabb::new([x, y, 0.0], [x, y, z]), i)
            })
            .collect();
        let seq = RTree::bulk_load(entries.clone());
        let par = RTree::bulk_load_parallel(entries, RTreeParams::default(), 4);
        assert_eq!(seq, par);
    }

    /// `col` with `edit` applied to a copy of its elements.
    fn edited<T: Clone>(col: &Col<T>, edit: impl FnOnce(&mut Vec<T>)) -> Col<T> {
        let mut elements = col.to_vec();
        edit(&mut elements);
        elements.into()
    }

    #[test]
    fn snapshot_round_trip_exactly() {
        use gsr_graph::columns::MemSource;
        for n in [0usize, 1, 50, 2000] {
            let entries = grid_points(n).into_iter().map(|(b, i)| (b, i as u32)).collect();
            let t: RTree<2, u32> = RTree::bulk_load(entries);
            let back: RTree<2, u32> =
                MemSource::new(ColumnList::of(&t)).load().expect("valid columns rebuild");
            assert_eq!(t, back, "n = {n}");
            assert_eq!(t.heap_bytes(), back.heap_bytes());
            back.check_invariants();
        }
        // Segment trees (with live hi columns) round-trip too.
        let segs: Vec<(Aabb<3>, u32)> = (0..300u32)
            .map(|i| (Aabb::new([i as f64, 0.0, 0.0], [i as f64, 0.0, i as f64]), i))
            .collect();
        let t = RTree::bulk_load(segs);
        let back: RTree<3, u32> =
            MemSource::new(ColumnList::of(&t)).load().expect("valid columns rebuild");
        assert_eq!(t, back);
    }

    #[test]
    fn from_snapshot_rejects_malformed_arenas() {
        let t = RTree::bulk_load(grid_points(100));
        let good = || t.clone();
        assert!(good().validate().is_ok());

        // Child offsets that reference a node twice, or none at all: not one
        // reference per non-root node.
        let mut bad = good();
        bad.child_start = edited(&bad.child_start, |c| *c.last_mut().unwrap() += 1);
        assert!(bad.validate().unwrap_err().contains("child offsets claim"));
        // Non-monotone child offsets.
        let mut bad = good();
        bad.child_start = edited(&bad.child_start, |c| c[1] = u32::MAX);
        assert!(bad.validate().is_err());
        // Entry offsets disagreeing with the payload count.
        let mut bad = good();
        bad.values = edited(&bad.values, |v| v.truncate(v.len() - 1));
        bad.len -= 1;
        assert!(bad.validate().is_err());
        // A coordinate column of the wrong length.
        let mut bad = good();
        bad.entries.lo[0] = edited(&bad.entries.lo[0], |c| c.truncate(c.len() - 1));
        assert!(bad.validate().is_err());
        // Wrong mbr count.
        let mut bad = good();
        bad.mbrs = edited(&bad.mbrs, |m| m.truncate(m.len() - 1));
        assert!(bad.validate().is_err());
        // Multiple leaves without an inner root.
        let mut bad = good();
        (bad.child_start, bad.num_inner) = (vec![0].into(), 0);
        assert!(bad.validate().is_err());

        // The checks the run derivation of `runs` rests on. Leaves at two
        // depths: node 2 is a leaf below the root, nodes 3
        // and 4 are leaves below inner node 1.
        let coords = || Col::from(vec![2.0, 0.0, 1.0]);
        let two_depths = RTree {
            params: RTreeParams::default(),
            len: 3,
            num_inner: 2,
            mbrs: vec![
                Aabb::new([0.0, 0.0], [2.0, 2.0]),
                Aabb::new([0.0, 0.0], [1.0, 1.0]),
                pt(2.0, 2.0),
                pt(0.0, 0.0),
                pt(1.0, 1.0),
            ]
            .into(),
            child_start: vec![0, 2, 4].into(),
            entry_start: vec![0, 1, 2, 3].into(),
            entries: EntryStore { lo: [coords(), coords()], hi: [None, None] },
            values: vec![0usize, 1, 2].into(),
        };
        assert!(two_depths.validate().unwrap_err().contains("different depths"));
        // An inner MBR that does not cover a child's.
        let mut bad = good();
        bad.mbrs = edited(&bad.mbrs, |m| m[0].max[0] -= 1.0);
        assert!(bad.validate().unwrap_err().contains("does not cover child"));
        // A leaf MBR that does not cover one of its entries (it would prune,
        // or wave through, an entry it should have tested).
        let mut bad = good();
        bad.mbrs = edited(&bad.mbrs, |m| m.last_mut().unwrap().min[1] += 0.5);
        assert!(bad.validate().unwrap_err().contains("outside its mbr"));
        // An entry that is no proper box: NaN, or inverted in a live `hi`
        // column.
        let mut bad = good();
        bad.entries.lo[0] = edited(&bad.entries.lo[0], |c| c[0] = f64::NAN);
        assert!(bad.validate().unwrap_err().contains("NaN"));
        let mut bad = RTree::bulk_load(vec![(Aabb::new([0.0, 0.0], [2.0, 2.0]), 0usize)]);
        bad.entries.lo[0] = vec![1.5].into();
        bad.entries.hi[0] = Some(vec![0.5].into());
        assert!(bad.validate().unwrap_err().contains("inverted"));
        // A live `hi` column gone missing: the box would read as its lower
        // corner, a point its leaf's MBR is too large for.
        let mut bad = RTree::bulk_load(vec![(Aabb::new([0.0, 0.0], [2.0, 2.0]), 0usize)]);
        bad.entries.hi[0] = None;
        assert!(bad.validate().unwrap_err().contains("column is missing"));
    }

    #[test]
    fn heap_bytes_grows_with_entries() {
        let small = RTree::bulk_load(grid_points(10));
        let large = RTree::bulk_load(grid_points(10_000));
        assert!(large.heap_bytes() > small.heap_bytes());
    }

    #[test]
    fn soa_arena_is_smaller_than_pointer_nodes() {
        // The reconstruction formula of the old pointer-node layout (node
        // headers + per-entry (Aabb, T) tuples + child id lists) — the
        // baseline the compact layout was measured against.
        let t = RTree::bulk_load(grid_points(10_000));
        let node_header = std::mem::size_of::<Aabb<2>>() + 32;
        let legacy = t.num_nodes() * node_header
            + t.len() * std::mem::size_of::<(Aabb<2>, usize)>()
            + (t.num_nodes() - 1) * 4;
        assert!(
            t.heap_bytes() < legacy,
            "arena {} must undercut pointer layout {legacy}",
            t.heap_bytes()
        );
    }
}
