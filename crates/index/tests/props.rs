//! Property-based tests: the R-tree must agree with a linear scan, and the
//! grid must behave like a partition.

use gsr_geo::{Aabb, Point, Rect};
use gsr_graph::columns::MemSource;
use gsr_graph::{Col, ColumnList, Source};
use gsr_index::grid::HierarchicalGrid;
use gsr_index::{RTree, RTreeParams};
use proptest::prelude::*;

fn arb_box2() -> impl Strategy<Value = Aabb<2>> {
    ((-100.0..100.0f64, -100.0..100.0f64), (0.0..20.0f64, 0.0..20.0f64))
        .prop_map(|((x, y), (w, h))| Aabb::new([x, y], [x + w, y + h]))
}

fn arb_point3() -> impl Strategy<Value = Aabb<3>> {
    (-100.0..100.0f64, -100.0..100.0f64, 0.0..1000.0f64)
        .prop_map(|(x, y, z)| Aabb::from_point([x, y, z]))
}

fn linear_scan<const N: usize>(entries: &[(Aabb<N>, usize)], region: &Aabb<N>) -> Vec<usize> {
    let mut hits: Vec<usize> =
        entries.iter().filter(|(b, _)| b.intersects(region)).map(|&(_, i)| i).collect();
    hits.sort_unstable();
    hits
}

/// The R-tree's section tags (DESIGN.md, "Snapshot layout"): a box column
/// is `NODE` or `ENTRY`, plus `HI` for an upper bound, plus `U32` when its
/// values are stored as `u32`s, plus the dimension.
mod tag {
    pub(super) const CHILD_START: u16 = 0x21;
    pub(super) const ENTRY_START: u16 = 0x23;
    pub(super) const VALUES: u16 = 0x24;
    pub(super) const NODE: u16 = 0xC0;
    pub(super) const ENTRY: u16 = 0xD0;
    pub(super) const HI: u16 = 0x08;
    pub(super) const U32: u16 = 0x20;
}

/// Whether `x` is stored as a `u32`: it converts to one and back to the
/// same bits.
fn round_trips(x: f64) -> bool {
    x >= 0.0 && x <= u32::MAX as f64 && x.fract() == 0.0 && x.to_bits() != (-0.0f64).to_bits()
}

/// Box column `tag` of a declared tree, read back as `f64`s from whichever
/// storage it was written in; `None` when the tree has no such column.
fn bound_column(cols: &mut MemSource, tag: u16) -> Option<Vec<f64>> {
    let wide: Option<Col<f64>> = cols.col_opt(tag, "bound").unwrap();
    let narrow: Option<Col<u32>> = cols.col_opt(tag + tag::U32, "bound-u32").unwrap();
    match (wide, narrow) {
        (Some(col), None) => Some(col.to_vec()),
        (None, Some(col)) => Some(col.iter().map(|&x| f64::from(x)).collect()),
        (None, None) => None,
        (Some(_), Some(_)) => panic!("bound 0x{tag:02x} stored twice"),
    }
}

/// The boxes declared at `base`, read back as `(lo, hi)` per dimension; a
/// missing upper bound reads as the lower one.
fn box_columns<const N: usize>(cols: &mut MemSource, base: u16) -> [(Vec<f64>, Vec<f64>); N] {
    std::array::from_fn(|d| {
        let lo = bound_column(cols, base + d as u16).expect("a lower-bound column");
        let hi = bound_column(cols, base + tag::HI + d as u16).unwrap_or_else(|| lo.clone());
        (lo, hi)
    })
}

/// The payloads of the entries intersecting `region`, read from the runs.
fn hits_in<const N: usize>(tree: &RTree<N, usize>, region: &Aabb<N>) -> Vec<usize> {
    tree.runs(region, Vec::new()).flatten().map(|i| tree.values()[i]).collect()
}

/// The per-entry stack traversal that [`RTree::runs`] replaced, kept here as
/// the oracle: children pushed in list order, every leaf entry tested with
/// the closed-interval rule. Returns entry indices in visiting order.
fn per_entry_scan<const N: usize>(tree: &RTree<N, u32>, region: &Aabb<N>) -> Vec<usize> {
    let mut cols = MemSource::new(ColumnList::of(tree));
    let nodes: [(Vec<f64>, Vec<f64>); N] = box_columns(&mut cols, tag::NODE);
    let entries: [(Vec<f64>, Vec<f64>); N] = box_columns(&mut cols, tag::ENTRY);
    let child_start: Col<u32> = cols.col(tag::CHILD_START, "child-start").unwrap();
    let entry_start: Col<u32> = cols.col(tag::ENTRY_START, "entry-start").unwrap();
    let mbr = |id: usize| Aabb {
        min: std::array::from_fn(|d| nodes[d].0[id]),
        max: std::array::from_fn(|d| nodes[d].1[id]),
    };
    let num_inner = child_start.len() - 1;
    let mut out = Vec::new();
    let mut stack = Vec::new();
    if mbr(0).intersects(region) {
        stack.push(0u32);
    }
    while let Some(id) = stack.pop() {
        let id = id as usize;
        if id < num_inner {
            // Child reference `k` is node `k + 1`.
            for child in child_start[id] + 1..=child_start[id + 1] {
                if mbr(child as usize).intersects(region) {
                    stack.push(child);
                }
            }
        } else {
            let l = id - num_inner;
            for i in entry_start[l] as usize..entry_start[l + 1] as usize {
                let hit = (0..N).all(|d| {
                    let (lo, hi) = (entries[d].0[i], entries[d].1[i]);
                    lo <= region.max[d] && region.min[d] <= hi
                });
                if hit {
                    out.push(i);
                }
            }
        }
    }
    out
}

/// Tree sizes around the leaf capacity, then multi-level.
fn tree_size(kind: usize, n: usize) -> usize {
    [0, 1, 16, 17].get(kind).copied().unwrap_or(n)
}

/// Default fan-out, a deep narrow tree, and leaves wider than the 64-entry
/// chunks the scan tests a straddling leaf in.
fn fan_out(kind: usize) -> RTreeParams {
    [RTreeParams::default(), RTreeParams::new(4), RTreeParams::new(100)][kind]
}

/// A coordinate on a `grid`-step integer lattice around zero (small grids
/// force duplicates); zero comes out as `-0.0` for odd `raw`.
fn lattice(raw: u32, grid: u32) -> f64 {
    let c = (raw % grid) as f64 - (grid / 2) as f64;
    if c == 0.0 && raw % 2 == 1 {
        -0.0
    } else {
        c
    }
}

type Corners<const N: usize> = ([f64; N], [f64; N]);

fn arb_corners<const N: usize>() -> impl Strategy<Value = Vec<Corners<N>>> {
    prop::collection::vec(([(); N].map(|_| -35.0..35.0f64), [(); N].map(|_| -35.0..35.0f64)), 6)
}

/// The windows every generated tree is probed with: the random ones plus the
/// edge cases — zero-area, disjoint, covering the whole MBR, an edge bit-equal
/// to an entry coordinate, `-0.0`/`0.0` mixes, infinite bounds and NaN bounds
/// (which match nothing).
fn windows<const N: usize>(entries: &[(Aabb<N>, u32)], random: &[Corners<N>]) -> Vec<Aabb<N>> {
    let inf = f64::INFINITY;
    let mut out: Vec<Aabb<N>> = random
        .iter()
        .map(|(a, b)| {
            let min = std::array::from_fn(|d| a[d].min(b[d]));
            Aabb::new(min, std::array::from_fn(|d| a[d].max(b[d])))
        })
        .collect();
    out.push(Aabb::new([1e6; N], [2e6; N]));
    out.push(Aabb::new([-inf; N], [inf; N]));
    out.push(Aabb::new([-inf; N], [-0.0; N]));
    out.push(Aabb::new([0.0; N], [inf; N]));
    out.push(Aabb::new([-0.0; N], [0.0; N]));
    out.push(Aabb::from_point([0.0; N]));
    out.push(Aabb::from_point([-0.0; N]));
    out.push(Aabb { min: [f64::NAN; N], max: [f64::NAN; N] });
    out.push(Aabb { min: [-inf; N], max: std::array::from_fn(|d| [f64::NAN, inf][d.min(1)]) });
    if let Some(all) = Aabb::mbr_of(entries.iter().map(|(b, _)| *b)) {
        out.push(all);
        out.push(Aabb::new(all.min.map(|c| c - 1.0), all.max.map(|c| c + 1.0)));
        out.push(Aabb::new(all.min, all.min.map(|c| c + 3.0)));
    }
    for (b, _) in entries.iter().step_by(entries.len() / 6 + 1) {
        out.push(Aabb::from_point(b.min));
        out.push(Aabb::new(b.max, b.max.map(|c| c + 2.5))); // min edge == the entry's hi
        out.push(Aabb::new(b.min.map(|c| c - 2.5), b.min)); // max edge == the entry's lo
    }
    out
}

/// Runs ≡ per-entry scan, element for element, on every window; and the
/// lent-stack runs, `collect_values`, `count_in` and `query_exists*` agree
/// with the runs.
fn check_runs<const N: usize>(
    entries: Vec<(Aabb<N>, u32)>,
    params: RTreeParams,
    random: &[Corners<N>],
) -> Result<(), TestCaseError> {
    let windows = windows(&entries, random);
    let tree = RTree::bulk_load_with_params(entries, params);
    tree.check_invariants();
    let mut stack = Vec::new();
    for w in &windows {
        let expected = per_entry_scan(&tree, w);
        let runs: Vec<_> = tree.runs(w, Vec::new()).collect();
        prop_assert!(runs.iter().all(|r| !r.is_empty()), "empty run on {:?}", w);
        let got: Vec<usize> = runs.into_iter().flatten().collect();
        prop_assert_eq!(&got, &expected, "window {:?}", w);
        let lent: Vec<usize> = tree.runs(w, &mut stack).flatten().collect();
        prop_assert_eq!(&lent, &expected, "runs with a lent stack on {:?}", w);
        let mut values = Vec::new();
        tree.collect_values(w, &mut stack, &mut values);
        let payloads: Vec<u32> = expected.iter().map(|&i| tree.values()[i]).collect();
        prop_assert_eq!(&values, &payloads, "collect_values on {:?}", w);
        prop_assert_eq!(tree.count_in(w), expected.len(), "count_in on {:?}", w);
        prop_assert_eq!(tree.query_exists(w), !expected.is_empty(), "query_exists on {:?}", w);
        prop_assert_eq!(tree.query_exists_with(w, &mut stack), !expected.is_empty());
    }
    Ok(())
}

/// The owned-slab STR recursion the in-place packer replaced, kept here as
/// the oracle: every slab and every group is a `Vec` split off the front of
/// the (stably sorted) buffer.
fn split_off_tile<const N: usize, E>(
    mut entries: Vec<(Aabb<N>, E)>,
    cap: usize,
    dim: usize,
    out: &mut Vec<Vec<(Aabb<N>, E)>>,
) {
    if entries.len() <= cap {
        if !entries.is_empty() {
            out.push(entries);
        }
        return;
    }
    entries.sort_by(|a, b| {
        a.0.center()[dim].partial_cmp(&b.0.center()[dim]).unwrap_or(std::cmp::Ordering::Equal)
    });
    let per_slab = if dim + 1 == N {
        cap
    } else {
        let pages = entries.len().div_ceil(cap);
        let slabs = (pages as f64).powf(1.0 / (N - dim) as f64).ceil() as usize;
        entries.len().div_ceil(slabs.max(1))
    };
    while !entries.is_empty() {
        let rest = entries.split_off(entries.len().min(per_slab));
        let slab = std::mem::replace(&mut entries, rest);
        if dim + 1 == N {
            out.push(slab);
        } else {
            split_off_tile(slab, cap, dim + 1, out);
        }
    }
}

/// A tree's declared scalars and columns, tag by tag — `==` on it is
/// byte-equality of what a snapshot writes.
fn arena_words<const N: usize>(tree: &RTree<N, u32>) -> Vec<(u16, Vec<u8>)> {
    let list = ColumnList::of(tree);
    let cols = list.cols.iter().map(|c| (c.tag, c.bytes.to_vec())).collect::<Vec<_>>();
    std::iter::once((0, list.meta.into_bytes())).chain(cols).collect()
}

/// The tree the oracle's groups describe: leaves from `split_off_tile`,
/// upper levels from tiling `(group MBR, position)` pairs the same way, node
/// ids breadth-first from the single top group.
fn oracle_tree<const N: usize>(entries: Vec<(Aabb<N>, u32)>, params: RTreeParams) -> RTree<N, u32> {
    fn mbrs_of<const N: usize, E>(groups: &[Vec<(Aabb<N>, E)>]) -> Vec<Aabb<N>> {
        groups.iter().map(|g| Aabb::mbr_of(g.iter().map(|e| e.0)).expect("non-empty")).collect()
    }
    let cap = params.max_entries;
    let mut leaves = Vec::new();
    split_off_tile(entries, cap, 0, &mut leaves);
    // levels[l]: (MBR, positions of its children in level l - 1) per group.
    let mut levels: Vec<Vec<(Aabb<N>, Vec<u32>)>> = Vec::new();
    let mut below = mbrs_of(&leaves);
    while below.len() > 1 {
        let mut groups = Vec::new();
        split_off_tile(below.iter().copied().zip(0u32..).collect(), cap, 0, &mut groups);
        below = mbrs_of(&groups);
        let kids = groups.into_iter().map(|g| g.into_iter().map(|(_, pos)| pos).collect());
        levels.push(below.iter().copied().zip(kids).collect());
    }
    let (mut mbrs, mut child_start, mut order) = (Vec::new(), vec![0u32], vec![0u32]);
    for level in levels.iter().rev() {
        let mut next = Vec::new();
        for &g in &order {
            let (mbr, kids) = &level[g as usize];
            mbrs.push(*mbr);
            next.extend_from_slice(kids);
            child_start.push(child_start[child_start.len() - 1] + kids.len() as u32);
        }
        order = next;
    }
    let leaf_mbrs = mbrs_of(&leaves);
    let ordered: Vec<&(Aabb<N>, u32)> = order.iter().flat_map(|&g| &leaves[g as usize]).collect();
    let mut entry_start = vec![0u32];
    for &g in &order {
        mbrs.push(leaf_mbrs[g as usize]);
        entry_start.push(entry_start[entry_start.len() - 1] + leaves[g as usize].len() as u32);
    }
    let values: Vec<u32> = ordered.iter().map(|&&(_, v)| v).collect();
    let entry_boxes: Vec<Aabb<N>> = ordered.iter().map(|(b, _)| *b).collect();
    let (node_cols, entry_cols) = (BoxImage::of(&mbrs), BoxImage::of(&entry_boxes));
    let mut list = ColumnList::default();
    list.meta.u64(params.max_entries as u64);
    node_cols.declare(&mut list, tag::NODE);
    list.col(tag::CHILD_START, &child_start, true);
    list.col(tag::ENTRY_START, &entry_start, true);
    list.col(tag::VALUES, &values, true);
    entry_cols.declare(&mut list, tag::ENTRY);
    MemSource::new(list).load().expect("the oracle's arena is a valid tree")
}

/// The columns a tree writes for a list of boxes: per dimension the lower
/// bounds and, unless every box is flat there bit for bit, the upper
/// bounds; each as `u32`s when all its values round-trip, else as `f64`s.
struct BoxImage {
    /// `(tag offset, f64 column, u32 column)`: exactly one column is used.
    cols: Vec<(u16, Vec<f64>, Option<Vec<u32>>)>,
}

impl BoxImage {
    fn of<const N: usize>(boxes: &[Aabb<N>]) -> Self {
        let mut cols = Vec::new();
        let mut push = |offset: u16, values: Vec<f64>| {
            let narrow = values.iter().all(|&x| round_trips(x));
            let image = narrow.then(|| values.iter().map(|&x| x as u32).collect());
            cols.push((offset, values, image));
        };
        for d in 0..N {
            push(d as u16, boxes.iter().map(|b| b.min[d]).collect());
            if !boxes.iter().all(|b| b.min[d].to_bits() == b.max[d].to_bits()) {
                push(tag::HI + d as u16, boxes.iter().map(|b| b.max[d]).collect());
            }
        }
        BoxImage { cols }
    }

    fn declare<'a>(&'a self, list: &mut ColumnList<'a>, base: u16) {
        for (offset, wide, narrow) in &self.cols {
            match narrow {
                Some(narrow) => list.col(base + tag::U32 + offset, narrow, true),
                None => list.col(base + offset, wide, true),
            }
        }
    }
}

/// Tree sizes around one leaf, one slab and one level, then multi-level.
fn packed_size(kind: usize, n: usize) -> usize {
    [0, 1, 16, 17, 257, 4097].get(kind).copied().unwrap_or(n)
}

/// In-place packer ≡ split-off packer: the same groups in the same order at
/// every level — so the same arena, byte for byte.
fn check_packing<const N: usize>(
    entries: Vec<(Aabb<N>, u32)>,
    max_entries: usize,
) -> Result<(), TestCaseError> {
    let params = RTreeParams::new(max_entries);
    let oracle = if entries.is_empty() {
        RTree::with_params(params)
    } else {
        oracle_tree(entries.clone(), params)
    };
    let expected = arena_words(&oracle);
    let tree = RTree::bulk_load_with_params(entries, params);
    tree.check_invariants();
    let words = arena_words(&tree);
    let differs = words.iter().zip(&expected).position(|(a, b)| a != b);
    prop_assert!(
        words.len() == expected.len() && differs.is_none(),
        "M = {}: {} arena words for {}, first difference at {:?}",
        max_entries,
        words.len(),
        expected.len(),
        differs
    );
    prop_assert!(tree == oracle);
    Ok(())
}

/// Values at the edge of `f64 -> u32 -> f64`: the first three round-trip,
/// the rest do not.
const EDGES: [f64; 9] = [
    0.0,
    1.0,
    4_294_967_295.0, // u32::MAX
    -0.0,
    0.5,
    -1.0,
    4_294_967_296.0, // 2^32
    f64::INFINITY,
    f64::NEG_INFINITY,
];

/// One entry's raw coordinates: a lattice corner and an extent per
/// dimension.
type Raw<const N: usize> = ([u32; N], [u32; N]);

/// Entry boxes on a lattice: dimension `d` is flat when `flat[d]`, and in
/// quarter steps (mostly not integers) when `quarters[d]`, else in whole
/// non-negative steps (all round-trip). Each plant `(entry, dim, edge, hi)`
/// then sets one bound to an edge value, moving the other bound where the
/// box would invert.
fn planted<const N: usize>(
    raw: &[Raw<N>],
    flat: [bool; N],
    quarters: [bool; N],
    plants: &[(usize, usize, usize, bool)],
) -> Vec<(Aabb<N>, u32)> {
    let step = |d: usize, x: u32| if quarters[d] { x as f64 * 0.25 } else { x as f64 };
    let mut entries: Vec<(Aabb<N>, u32)> = (0..raw.len() as u32)
        .map(|i| {
            let (corner, extent) = raw[i as usize];
            let min = std::array::from_fn(|d| step(d, corner[d]));
            let max =
                std::array::from_fn(
                    |d| if flat[d] { min[d] } else { step(d, corner[d] + extent[d]) },
                );
            (Aabb::new(min, max), i)
        })
        .collect();
    for &(at, d, edge, hi) in plants {
        if entries.is_empty() {
            break;
        }
        let b = &mut entries[at % raw.len()].0;
        let (d, e) = (d % N, EDGES[edge % EDGES.len()]);
        if hi {
            (b.min[d], b.max[d]) = (b.min[d].min(e), e);
        } else {
            (b.min[d], b.max[d]) = (e, b.max[d].max(e));
        }
    }
    entries
}

/// Narrowing is exact: every entry box reads back bit for bit, every scan
/// answers as a brute-force scan of the input does, a snapshot round trip
/// gives the same tree, and each bound column — of the entries and of the
/// nodes — is stored as `u32`s exactly when all of its values round-trip.
fn check_narrowing<const N: usize>(
    entries: Vec<(Aabb<N>, u32)>,
    params: RTreeParams,
    random: &[Corners<N>],
) -> Result<(), TestCaseError> {
    let tree = RTree::bulk_load_with_params(entries.clone(), params);
    tree.check_invariants();
    for i in 0..tree.len() {
        let (got, want) = (tree.entry_box(i), entries[tree.values()[i] as usize].0);
        let bits = |b: Aabb<N>| (b.min.map(f64::to_bits), b.max.map(f64::to_bits));
        prop_assert_eq!(bits(got), bits(want), "entry {}", i);
    }
    let mut stack = Vec::new();
    for w in &windows(&entries, random) {
        let mut got: Vec<u32> =
            tree.runs(w, &mut stack).flatten().map(|i| tree.values()[i]).collect();
        got.sort_unstable();
        let want: Vec<u32> =
            entries.iter().filter(|(b, _)| b.intersects(w)).map(|&(_, v)| v).collect();
        prop_assert_eq!(&got, &want, "window {:?}", w);
        prop_assert_eq!(tree.query_exists(w), !want.is_empty(), "query_exists on {:?}", w);
    }
    let back: RTree<N, u32> = MemSource::new(ColumnList::of(&tree)).load().unwrap();
    prop_assert!(back == tree, "snapshot round trip");

    let list = ColumnList::of(&tree);
    let boxes = list.cols.iter().filter(|c| c.tag >= tag::NODE && c.tag < tag::NODE + 0x40);
    for col in boxes {
        let values: Vec<f64> = match col.elem {
            4 => col
                .bytes
                .chunks(4)
                .map(|b| u32::from_ne_bytes(b.try_into().unwrap()) as f64)
                .collect(),
            _ => col.bytes.chunks(8).map(|b| f64::from_ne_bytes(b.try_into().unwrap())).collect(),
        };
        let narrowed = col.tag & tag::U32 != 0;
        prop_assert_eq!(col.elem, if narrowed { 4 } else { 8 });
        prop_assert_eq!(narrowed, values.iter().all(|&x| round_trips(x)), "tag 0x{:02x}", col.tag);
    }
    // The entry columns narrow on what was loaded, not on what happens to
    // be stored: checked against the input too.
    let has = |tag: u16| list.cols.iter().any(|c| c.tag == tag);
    for d in 0..N {
        let lo = tag::ENTRY + d as u16;
        let narrow = entries.iter().all(|(b, _)| round_trips(b.min[d]));
        prop_assert!(has(if narrow { lo + tag::U32 } else { lo }), "entry lo {}", d);
        let hi = lo + tag::HI;
        if entries.iter().all(|(b, _)| b.min[d].to_bits() == b.max[d].to_bits()) {
            prop_assert!(!has(hi) && !has(hi + tag::U32), "flat dimension {} has a hi column", d);
        } else {
            let narrow = entries.iter().all(|(b, _)| round_trips(b.max[d]));
            prop_assert!(has(if narrow { hi + tag::U32 } else { hi }), "entry hi {}", d);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn narrowed_columns_are_exact_in_3d(
        raw in prop::collection::vec(([(); 3].map(|_| 0u32..40), [(); 3].map(|_| 0u32..3)), 0..300),
        dims in ([(); 3].map(|_| any::<bool>()), [(); 3].map(|_| any::<bool>())),
        plants in prop::collection::vec((0usize..300, 0usize..3, 0usize..9, any::<bool>()), 0..4),
        fan in 0usize..3,
        random in arb_corners::<3>(),
    ) {
        let entries = planted(&raw, dims.0, dims.1, &plants);
        check_narrowing(entries, fan_out(fan), &random)?;
    }

    #[test]
    fn narrowed_columns_are_exact_in_2d(
        raw in prop::collection::vec(([(); 2].map(|_| 0u32..40), [(); 2].map(|_| 0u32..3)), 0..300),
        dims in ([(); 2].map(|_| any::<bool>()), [(); 2].map(|_| any::<bool>())),
        plants in prop::collection::vec((0usize..300, 0usize..2, 0usize..9, any::<bool>()), 0..4),
        fan in 0usize..3,
        random in arb_corners::<2>(),
    ) {
        let entries = planted(&raw, dims.0, dims.1, &plants);
        check_narrowing(entries, fan_out(fan), &random)?;
    }

    #[test]
    fn runs_match_per_entry_scan_on_point_trees(
        raw in prop::collection::vec((0u32..4000, 0u32..4000), 700),
        shape in (0usize..7, 18usize..700, 1u32..60, 0usize..3),
        random in arb_corners::<2>(),
    ) {
        let (size, n, grid, fan) = shape;
        let entries = raw[..tree_size(size, n)]
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| (Aabb::from_point([lattice(x, grid), lattice(y, grid)]), i as u32))
            .collect();
        check_runs(entries, fan_out(fan), &random)?;
    }

    #[test]
    fn runs_match_per_entry_scan_on_box_trees(
        raw in prop::collection::vec((0u32..4000, 0u32..4000, 0u32..7, 0u32..7), 700),
        shape in (0usize..7, 18usize..700, 1u32..60, 0usize..3),
        random in arb_corners::<2>(),
    ) {
        let (size, n, grid, fan) = shape;
        let entries = raw[..tree_size(size, n)]
            .iter()
            .enumerate()
            .map(|(i, &(x, y, w, h))| {
                let (x, y) = (lattice(x, grid), lattice(y, grid));
                (Aabb::new([x, y], [x + w as f64, y + h as f64]), i as u32)
            })
            .collect();
        check_runs(entries, fan_out(fan), &random)?;
    }

    #[test]
    fn runs_match_per_entry_scan_on_3d_segment_trees(
        raw in prop::collection::vec((0u32..4000, 0u32..4000, 0u32..4000, 0u32..9), 700),
        shape in (0usize..7, 18usize..700, 1u32..60, 0usize..3),
        random in arb_corners::<3>(),
    ) {
        // 3DReach-REV's shape: flat in x and y (no `hi` columns there),
        // extended in z.
        let (size, n, grid, fan) = shape;
        let entries = raw[..tree_size(size, n)]
            .iter()
            .enumerate()
            .map(|(i, &(x, y, z, len))| {
                let (x, y, z) = (lattice(x, grid), lattice(y, grid), lattice(z, grid));
                (Aabb::new([x, y, z], [x, y, z + len as f64]), i as u32)
            })
            .collect();
        check_runs(entries, fan_out(fan), &random)?;
    }

    #[test]
    fn in_place_packer_matches_split_off_packer_on_points(
        raw in prop::collection::vec((0u32..4000, 0u32..4000), 4097),
        shape in (0usize..9, 18usize..4097, 1u32..60, 0usize..3),
    ) {
        let (size, n, grid, fan) = shape;
        let entries = raw[..packed_size(size, n)]
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| (Aabb::from_point([lattice(x, grid), lattice(y, grid)]), i as u32))
            .collect();
        check_packing(entries, [4, 16, 64][fan])?;
    }

    #[test]
    fn in_place_packer_matches_split_off_packer_on_boxes(
        raw in prop::collection::vec((0u32..4000, 0u32..4000, 0u32..7, 0u32..7), 4097),
        shape in (0usize..9, 18usize..4097, 1u32..60, 0usize..3),
    ) {
        // Equal centres from unequal boxes: [x - w, x + w] for every w.
        let (size, n, grid, fan) = shape;
        let entries = raw[..packed_size(size, n)]
            .iter()
            .enumerate()
            .map(|(i, &(x, y, w, h))| {
                let (x, y, w, h) = (lattice(x, grid), lattice(y, grid), w as f64, h as f64);
                (Aabb::new([x - w, y - h], [x + w, y + h]), i as u32)
            })
            .collect();
        check_packing(entries, [4, 16, 64][fan])?;
    }

    #[test]
    fn in_place_packer_matches_split_off_packer_on_3d_segments(
        raw in prop::collection::vec((0u32..4000, 0u32..4000, 0u32..4000, 0u32..9), 4097),
        shape in (0usize..9, 18usize..4097, 1u32..60, 0usize..3),
    ) {
        let (size, n, grid, fan) = shape;
        let entries = raw[..packed_size(size, n)]
            .iter()
            .enumerate()
            .map(|(i, &(x, y, z, len))| {
                let (x, y, z) = (lattice(x, grid), lattice(y, grid), lattice(z, grid));
                (Aabb::new([x, y, z], [x, y, z + len as f64]), i as u32)
            })
            .collect();
        check_packing(entries, [4, 16, 64][fan])?;
    }

    #[test]
    fn bulk_tree_matches_linear_scan(
        boxes in prop::collection::vec(arb_box2(), 0..300),
        region in arb_box2(),
    ) {
        let entries: Vec<(Aabb<2>, usize)> =
            boxes.into_iter().enumerate().map(|(i, b)| (b, i)).collect();
        let tree = RTree::bulk_load(entries.clone());
        tree.check_invariants();
        let mut hits: Vec<usize> = hits_in(&tree, &region);
        hits.sort_unstable();
        prop_assert_eq!(hits, linear_scan(&entries, &region));
    }

    #[test]
    fn entries_infinite_both_ways_match_linear_scan(
        boxes in prop::collection::vec(arb_box2(), 1..300),
        wide in prop::collection::vec((0usize..300, 0usize..2), 1..12),
        region in arb_box2(),
    ) {
        // A box spanning (-inf, inf) in dimension `d` has a NaN centre there:
        // the packer sorts it after every finite centre, in input order.
        let inf = f64::INFINITY;
        let mut entries: Vec<(Aabb<2>, usize)> =
            boxes.into_iter().enumerate().map(|(i, b)| (b, i)).collect();
        let len = entries.len();
        for &(at, d) in &wide {
            let b = &mut entries[at % len].0;
            (b.min[d], b.max[d]) = (-inf, inf);
        }
        let tree = RTree::bulk_load(entries.clone());
        tree.check_invariants();
        let everything = Aabb::new([-inf; 2], [inf; 2]);
        for w in [region, everything] {
            let mut hits: Vec<usize> = hits_in(&tree, &w);
            hits.sort_unstable();
            prop_assert_eq!(hits, linear_scan(&entries, &w));
        }
    }

    #[test]
    fn bulk_3d_point_tree_matches_linear_scan(
        pts in prop::collection::vec(arb_point3(), 1..200),
        region_lo in (-100.0..100.0f64, -100.0..100.0f64, 0.0..1000.0f64),
        extent in (0.0..100.0f64, 0.0..100.0f64, 0.0..500.0f64),
    ) {
        let entries: Vec<(Aabb<3>, usize)> =
            pts.into_iter().enumerate().map(|(i, b)| (b, i)).collect();
        let region = Aabb::new(
            [region_lo.0, region_lo.1, region_lo.2],
            [region_lo.0 + extent.0, region_lo.1 + extent.1, region_lo.2 + extent.2],
        );
        let tree = RTree::bulk_load(entries.clone());
        tree.check_invariants();
        let mut hits: Vec<usize> = hits_in(&tree, &region);
        hits.sort_unstable();
        let expected = linear_scan(&entries, &region);
        prop_assert_eq!(tree.query_exists(&region), !expected.is_empty());
        prop_assert_eq!(hits, expected);
    }

    #[test]
    fn grid_cells_tile_the_space(
        xs in prop::collection::vec((0.0..1.0f64, 0.0..1.0f64), 1..100),
        exp in 1u8..6,
    ) {
        let grid = HierarchicalGrid::new(Rect::new(0.0, 0.0, 1.0, 1.0), exp);
        for (x, y) in xs {
            let p = Point::new(x, y);
            let cell = grid.cell_of(&p);
            prop_assert!(grid.cell_rect(&cell).contains_point(&p));
            // The parent chain is nested.
            let mut cur = cell;
            let mut rect = grid.cell_rect(&cur);
            while cur.level + 1 < grid.num_levels() {
                cur = cur.parent();
                let parent_rect = grid.cell_rect(&cur);
                prop_assert!(parent_rect.contains_rect(&rect));
                rect = parent_rect;
            }
            prop_assert_eq!(rect, *grid.space());
        }
    }

    #[test]
    fn merge_preserves_coverage(
        xs in prop::collection::vec((0.0..1.0f64, 0.0..1.0f64), 1..60),
        exp in 2u8..6,
        merge_count in 1usize..4,
    ) {
        let grid = HierarchicalGrid::new(Rect::new(0.0, 0.0, 1.0, 1.0), exp);
        let cells: Vec<_> = xs.iter().map(|&(x, y)| grid.cell_of(&Point::new(x, y))).collect();
        let mut merged = cells.clone();
        grid.merge_cells(&mut merged, merge_count);
        // Every original point is still covered by some merged cell.
        for (x, y) in xs {
            let p = Point::new(x, y);
            prop_assert!(merged.iter().any(|c| grid.cell_rect(c).contains_point(&p)));
        }
        // No merged cell is covered by another merged cell.
        for (i, a) in merged.iter().enumerate() {
            for (j, b) in merged.iter().enumerate() {
                if i != j {
                    prop_assert!(
                        !grid.cell_rect(a).contains_rect(&grid.cell_rect(b))
                            || a.level == b.level
                    );
                }
            }
        }
    }
}
