//! 3DReach and 3DReach-REV: the three-dimensional transformation
//! (Section 4.2) — the paper's headline contribution.
//!
//! **3DReach** models every spatial vertex `u` as the 3-D point
//! `(u.point, post(u))` and rewrites `RangeReach(G, v, R)` as one 3-D range
//! query per label `[l, h] ∈ L(v)`: the cuboid with base `R` spanning
//! `[l, h]` in the third dimension. A point inside a cuboid certifies both
//! predicates at once — `u.point ∈ R` *and* `l ≤ post(u) ≤ h`, i.e.
//! `GReach(v, u)`.
//!
//! **3DReach-REV** instead builds the *reversed* labeling (run Algorithm 1
//! on the edge-reversed graph): each label of `L_rev(u)` covers the
//! reversed-post-order numbers of `u`'s ancestors, so a spatial vertex
//! becomes a set of *vertical line segments* and a query becomes a single
//! plane at `post_rev(v)`. One range query per query instead of `|L(v)|`,
//! at the cost of indexing segments instead of points.

use super::{check_comp_ids, check_csr, check_entry_mbrs, tag};
use crate::{PreparedNetwork, QueryCost, RangeReachIndex, SccSpatialPolicy};
use gsr_geo::{cuboid_from_rect, Aabb, Cuboid, Point, Rect};
use gsr_graph::scc::CompId;
use gsr_graph::{Col, ColumnList, Columns, Source, VertexId};
use gsr_index::RTree;
use gsr_reach::compact::CompactLabels;
use gsr_reach::interval::IntervalLabeling;
use std::sync::Arc;

/// Payload of a 3-D entry: which component it certifies, so MBR-policy
/// candidates can be refined against actual member points.
type Entry = CompId;

/// Shared plumbing of the two 3-D methods. Everything is immutable after
/// construction, so the heavy sections are shared on clone: the R-tree is
/// `Arc`-shared and the flat columns are [`Col`]s (O(1) clone whether they
/// own their buffer or borrow a mapped snapshot) — cloning an index, e.g.
/// fanning a snapshot-loaded index out to worker threads, never duplicates
/// the structures.
#[derive(Debug, Clone)]
struct ThreeDCommon {
    comp_of: Col<CompId>,
    tree: Arc<RTree<3, Entry>>,
    policy: SccSpatialPolicy,
    /// Member points per component for MBR refinement (CSR).
    member_offsets: Col<u32>,
    member_points: Col<Point>,
}

impl ThreeDCommon {
    /// The part of the index that does not depend on the tree entries.
    /// Only the `Mbr` policy refines candidates against member points, so
    /// only it keeps the member CSR; under `Replicate` the columns stay
    /// empty.
    fn build(
        prep: &PreparedNetwork,
        policy: SccSpatialPolicy,
        entries: Vec<(Cuboid, Entry)>,
    ) -> Self {
        let (member_offsets, member_points) = match policy {
            SccSpatialPolicy::Replicate => Default::default(),
            SccSpatialPolicy::Mbr => prep.member_csr(),
        };
        ThreeDCommon {
            comp_of: prep.comp_of(),
            tree: Arc::new(RTree::bulk_load(entries)),
            policy,
            member_offsets,
            member_points,
        }
    }

    fn member_points(&self, c: CompId) -> &[Point] {
        let lo = self.member_offsets[c as usize] as usize;
        let hi = self.member_offsets[c as usize + 1] as usize;
        &self.member_points[lo..hi]
    }

    /// Whether a candidate entry inside the query cuboid certifies the
    /// answer: point entries always do; MBR entries only after refinement.
    fn candidate_hits(
        &self,
        entry_box: &Cuboid,
        comp: CompId,
        region: &Rect,
        cost: &mut QueryCost,
    ) -> bool {
        cost.spatial_candidates += 1;
        match self.policy {
            SccSpatialPolicy::Replicate => true,
            SccSpatialPolicy::Mbr => {
                let mbr = Rect::new(
                    entry_box.min[0],
                    entry_box.min[1],
                    entry_box.max[0],
                    entry_box.max[1],
                );
                region.contains_rect(&mbr)
                    || self.member_points(comp).iter().any(|p| {
                        cost.containment_tests += 1;
                        region.contains_point(p)
                    })
            }
        }
    }

    /// Whether an entry of the tree inside `window` certifies the answer
    /// ([`ThreeDCommon::candidate_hits`]); stops at the first that does.
    fn any_hit(
        &self,
        window: &Cuboid,
        stack: &mut Vec<u32>,
        region: &Rect,
        cost: &mut QueryCost,
    ) -> bool {
        let tree = &self.tree;
        tree.runs(window, stack).any(|mut run| {
            run.any(|i| self.candidate_hits(&tree.entry_box(i), tree.values()[i], region, cost))
        })
    }

    /// Declares the policy scalar and `comp_of`: the head of both methods'
    /// files.
    fn store_head<'a>(&'a self, out: &mut ColumnList<'a>) {
        out.meta.u8(match self.policy {
            SccSpatialPolicy::Replicate => 0,
            SccSpatialPolicy::Mbr => 1,
        });
        out.col(tag::COMP_OF, &self.comp_of, true);
    }

    /// Declares the tree and the member CSR: the tail of both methods'
    /// files.
    fn store_tail<'a>(&'a self, out: &mut ColumnList<'a>) {
        self.tree.store(out);
        out.col(tag::MEMBER_OFFSETS, &self.member_offsets, true);
        out.col(tag::MEMBER_POINTS, &self.member_points, true);
    }

    /// Reads back what [`ThreeDCommon::store_head`] and
    /// [`ThreeDCommon::store_tail`] declared, for [`ThreeDCommon::validate`]
    /// to check once the method knows its component count.
    fn load<S: Source>(src: &mut S) -> Result<Self, String> {
        let policy = match src.u8()? {
            0 => SccSpatialPolicy::Replicate,
            1 => SccSpatialPolicy::Mbr,
            k => return Err(format!("unknown scc policy {k}")),
        };
        Ok(ThreeDCommon {
            comp_of: src.col(tag::COMP_OF, "comp-of")?,
            tree: Arc::new(RTree::load(src)?),
            policy,
            member_offsets: src.col(tag::MEMBER_OFFSETS, "member-offsets")?,
            member_points: src.col(tag::MEMBER_POINTS, "member-points")?,
        })
    }

    /// Checks loaded columns: every index a query dereferences — component
    /// ids in `comp_of` and in tree payloads, the member CSR — is
    /// bounds-checked against `ncomp` (the component count of the
    /// accompanying label structure) so queries cannot panic. `Replicate`
    /// never reads the member CSR, so there it may also be empty (what a
    /// build keeps); `Mbr` requires it, and every entry to span its
    /// component's member MBR.
    fn validate(&self, ncomp: usize) -> Result<(), String> {
        let unused = self.policy == SccSpatialPolicy::Replicate
            && self.member_offsets.is_empty()
            && self.member_points.is_empty();
        if !unused {
            check_csr("3dreach", "member", ncomp, &self.member_offsets, self.member_points.len())?;
        }
        check_comp_ids("3dreach", "comp_of", self.comp_of.iter().copied(), ncomp)?;
        check_comp_ids("3dreach", "tree", self.tree.values().iter().copied(), ncomp)?;
        if self.policy == SccSpatialPolicy::Mbr {
            check_entry_mbrs("3dreach", &self.tree, &self.member_offsets, &self.member_points)?;
        }
        Ok(())
    }
}

/// The forward 3DReach method: 3-D points, one cuboid query per label.
#[derive(Debug, Clone)]
pub struct ThreeDReach {
    common: ThreeDCommon,
    /// Delta-compressed forward labels: the query's per-label loop is a
    /// strictly sequential decode, so the random-access arrays of the full
    /// [`IntervalLabeling`] are never needed after construction.
    labels: Arc<CompactLabels>,
}

impl ThreeDReach {
    /// Builds the forward labeling and the 3-D R-tree of spatial entries.
    pub fn build(prep: &PreparedNetwork, policy: SccSpatialPolicy) -> Self {
        // The labeling is a function of the DAG alone: the tiles of a
        // shard set take the one their social side already holds.
        let forward = prep.forward_labels();
        let post = &forward.post;

        let entries: Vec<(Cuboid, Entry)> = match policy {
            SccSpatialPolicy::Replicate => {
                let spatial: Vec<(VertexId, Point)> = prep.network().spatial_vertices().collect();
                spatial
                    .iter()
                    .map(|&(v, p)| {
                        let comp = prep.comp(v);
                        let z = post[comp as usize] as f64;
                        (gsr_geo::point3(p, z), comp)
                    })
                    .collect()
            }
            SccSpatialPolicy::Mbr => (0..prep.num_components() as CompId)
                .filter_map(|c| {
                    let m = prep.comp_mbr(c)?;
                    let z = post[c as usize] as f64;
                    Some((Aabb::new([m.min_x, m.min_y, z], [m.max_x, m.max_y, z]), c))
                })
                .collect(),
        };

        ThreeDReach {
            common: ThreeDCommon::build(prep, policy, entries),
            labels: Arc::clone(&forward.labels),
        }
    }

    /// The compacted forward labels (for stats).
    pub fn labels(&self) -> &CompactLabels {
        &self.labels
    }
}

impl Columns for ThreeDReach {
    fn store<'a>(&'a self, out: &mut ColumnList<'a>) {
        self.common.store_head(out);
        // The scalars list the tree's parameters before the labels'
        // `max_post`; the file holds the label sections before the tree's.
        let mut labels = ColumnList::of(&*self.labels);
        out.cols.append(&mut labels.cols);
        self.common.store_tail(out);
        out.meta.append(labels.meta);
    }

    fn load<S: Source>(src: &mut S) -> Result<Self, String> {
        let common = ThreeDCommon::load(src)?;
        let labels = CompactLabels::load(src)?;
        common.validate(labels.num_vertices())?;
        Ok(ThreeDReach { common, labels: Arc::new(labels) })
    }
}

impl RangeReachIndex for ThreeDReach {
    fn num_vertices(&self) -> usize {
        self.common.comp_of.len()
    }

    fn query_with_cost_unchecked(&self, v: VertexId, region: &Rect) -> (bool, QueryCost) {
        let mut cost = QueryCost::default();
        let from = self.common.comp_of[v as usize];
        crate::scratch::with_scratch(|scratch| {
            // One rectangular cuboid per label of L(v) (Example 4.2); stop
            // at the first certified hit.
            for iv in self.labels.intervals(from) {
                cost.range_queries += 1;
                let cuboid = cuboid_from_rect(region, iv.lo as f64, iv.hi as f64);
                if self.common.any_hit(&cuboid, &mut scratch.stack, region, &mut cost) {
                    return (true, cost);
                }
            }
            (false, cost)
        })
    }

    fn index_bytes(&self) -> usize {
        ColumnList::of(self).counted_bytes()
    }

    fn columns(&self) -> Option<ColumnList<'_>> {
        Some(ColumnList::of(self))
    }

    fn name(&self) -> &'static str {
        "3DReach"
    }
}

/// The line-based 3DReach-REV variant: reversed labeling, vertical
/// segments, a single plane query per `RangeReach`.
///
/// The reversed labeling exists only during construction — its labels are
/// baked into the segment R-tree, so the index keeps just the
/// per-component plane heights (`rev_post`), 4 bytes per component.
#[derive(Debug, Clone)]
pub struct ThreeDReachRev {
    common: ThreeDCommon,
    /// `post_rev` of every component (the plane height of a query).
    rev_post: Col<u32>,
}

impl ThreeDReachRev {
    /// Builds the reversed labeling and the 3-D segment R-tree.
    pub fn build(prep: &PreparedNetwork, policy: SccSpatialPolicy) -> Self {
        let reversed_dag = prep.dag().reversed();
        let labeling = IntervalLabeling::build(&reversed_dag);
        let rev_post: Vec<u32> =
            (0..prep.num_components() as CompId).map(|c| labeling.post(c)).collect();

        // Every spatial vertex u contributes one vertical segment per label
        // of L_rev(comp(u)): the segment covers exactly the plane heights of
        // the vertices that can reach u. Under `Mbr` a spatial component
        // contributes one box per label over its MBR instead.
        let bases: Vec<(Rect, CompId)> = match policy {
            SccSpatialPolicy::Replicate => prep
                .network()
                .spatial_vertices()
                .map(|(v, p)| (Rect::from_point(p), prep.comp(v)))
                .collect(),
            SccSpatialPolicy::Mbr => (0..prep.num_components() as CompId)
                .filter_map(|c| Some((prep.comp_mbr(c)?, c)))
                .collect(),
        };
        // One pre-sized buffer for every segment (almost every base has a
        // single label: no `Vec` per vertex), in scan order.
        let count = bases.iter().map(|&(_, c)| labeling.intervals(c).len()).sum();
        let mut entries: Vec<(Cuboid, Entry)> = Vec::with_capacity(count);
        for (base, c) in &bases {
            let labels = labeling.intervals(*c).iter();
            entries
                .extend(labels.map(|iv| (cuboid_from_rect(base, iv.lo as f64, iv.hi as f64), *c)));
        }

        ThreeDReachRev {
            common: ThreeDCommon::build(prep, policy, entries),
            rev_post: rev_post.into(),
        }
    }
}

/// Section tag of the per-component plane heights.
const REV_POST: u16 = 0xA0;

/// REV's query only ever reads the plane height `post_rev(v)` of a
/// component — the full reversed labeling is construction scaffolding (its
/// labels are baked into the segment R-tree) and is not a column.
impl Columns for ThreeDReachRev {
    fn store<'a>(&'a self, out: &mut ColumnList<'a>) {
        self.common.store_head(out);
        out.col(REV_POST, &self.rev_post, true);
        self.common.store_tail(out);
    }

    fn load<S: Source>(src: &mut S) -> Result<Self, String> {
        let common = ThreeDCommon::load(src)?;
        let rev_post: Col<u32> = src.col(REV_POST, "rev-post")?;
        common.validate(rev_post.len())?;
        Ok(ThreeDReachRev { common, rev_post })
    }
}

impl RangeReachIndex for ThreeDReachRev {
    fn num_vertices(&self) -> usize {
        self.common.comp_of.len()
    }

    fn query_with_cost_unchecked(&self, v: VertexId, region: &Rect) -> (bool, QueryCost) {
        let mut cost = QueryCost { range_queries: 1, ..QueryCost::default() };
        let from = self.common.comp_of[v as usize];
        // A single plane parallel to the spatial dimensions, positioned at
        // post_rev(v) (Example 4.3): the answer is TRUE iff the plane cuts a
        // vertical segment whose base point lies inside R.
        let z = self.rev_post[from as usize] as f64;
        let plane = cuboid_from_rect(region, z, z);
        let answer = crate::scratch::with_scratch(|scratch| {
            self.common.any_hit(&plane, &mut scratch.stack, region, &mut cost)
        });
        (answer, cost)
    }

    fn index_bytes(&self) -> usize {
        ColumnList::of(self).counted_bytes()
    }

    fn columns(&self) -> Option<ColumnList<'_>> {
        Some(ColumnList::of(self))
    }

    fn name(&self) -> &'static str {
        "3DReach-REV"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_example;

    #[test]
    fn paper_examples_4_2_and_4_3() {
        let prep = paper_example::prepared();
        let r = paper_example::query_region();
        for policy in [SccSpatialPolicy::Replicate, SccSpatialPolicy::Mbr] {
            let fwd = ThreeDReach::build(&prep, policy);
            let rev = ThreeDReachRev::build(&prep, policy);
            assert!(fwd.query(paper_example::A, &r), "{policy:?}");
            assert!(!fwd.query(paper_example::C, &r), "{policy:?}");
            assert!(rev.query(paper_example::A, &r), "{policy:?}");
            assert!(!rev.query(paper_example::C, &r), "{policy:?}");
        }
    }

    #[test]
    fn forward_uses_one_cuboid_per_label_of_a() {
        // L(a) compresses to a single interval (Table 1), so the query for a
        // is one 3-D range query; c has three labels.
        let prep = paper_example::prepared();
        let fwd = ThreeDReach::build(&prep, SccSpatialPolicy::Replicate);
        assert_eq!(fwd.labels().num_intervals(prep.comp(paper_example::A)), 1);
        assert_eq!(fwd.labels().num_intervals(prep.comp(paper_example::C)), 3);
    }

    #[test]
    fn both_match_bfs_everywhere() {
        for prep in [paper_example::prepared(), paper_example::cyclic_prepared()] {
            for policy in [SccSpatialPolicy::Replicate, SccSpatialPolicy::Mbr] {
                let fwd = ThreeDReach::build(&prep, policy);
                let rev = ThreeDReachRev::build(&prep, policy);
                for v in prep.network().graph().vertices() {
                    for r in paper_example::probe_regions() {
                        let expected = prep.range_reach_bfs(v, &r);
                        assert_eq!(fwd.query(v, &r), expected, "3DReach v={v} r={r} {policy:?}");
                        assert_eq!(
                            rev.query(v, &r),
                            expected,
                            "3DReach-REV v={v} r={r} {policy:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn clone_shares_immutable_sections() {
        let prep = paper_example::prepared();
        let fwd = ThreeDReach::build(&prep, SccSpatialPolicy::Replicate);
        let fc = fwd.clone();
        assert!(Arc::ptr_eq(&fwd.common.tree, &fc.common.tree));
        assert!(Arc::ptr_eq(&fwd.labels, &fc.labels));
        assert!(Col::ptr_eq(&fwd.common.member_points, &fc.common.member_points));
        let rev = ThreeDReachRev::build(&prep, SccSpatialPolicy::Replicate);
        let rc = rev.clone();
        assert!(Arc::ptr_eq(&rev.common.tree, &rc.common.tree));
        assert!(Col::ptr_eq(&rev.rev_post, &rc.rev_post));
        // A clone answers exactly like the original.
        for v in prep.network().graph().vertices() {
            for r in paper_example::probe_regions() {
                assert_eq!(fwd.query(v, &r), fc.query(v, &r));
            }
        }
    }

    /// `Replicate` never refines against member points, so it keeps no
    /// member CSR — and loads columns with one or without; `Mbr` needs it.
    #[test]
    fn member_csr_is_kept_and_required_only_under_mbr() {
        use gsr_graph::columns::MemSource;
        let prep = paper_example::cyclic_prepared();
        let (offsets, points) = prep.member_csr();
        for policy in [SccSpatialPolicy::Replicate, SccSpatialPolicy::Mbr] {
            let built = ThreeDReach::build(&prep, policy);
            let rev = ThreeDReachRev::build(&prep, policy);
            let replicate = policy == SccSpatialPolicy::Replicate;
            for common in [&built.common, &rev.common] {
                let kept = (common.member_offsets.is_empty(), common.member_points.is_empty());
                assert_eq!(kept, (replicate, replicate));
            }
            let reload = |offsets: &[u32], points: &[Point]| -> Result<ThreeDReach, String> {
                let mut list = ColumnList::of(&built);
                list.cols.retain(|c| ![tag::MEMBER_OFFSETS, tag::MEMBER_POINTS].contains(&c.tag));
                list.col(tag::MEMBER_OFFSETS, offsets, true);
                list.col(tag::MEMBER_POINTS, points, true);
                MemSource::new(list).load()
            };
            let with_csr = reload(&offsets, &points).expect("a consistent CSR always loads");
            let csr_bytes = offsets.len() * 4 + points.len() * 16;
            let unbuilt = if replicate { csr_bytes } else { 0 };
            assert_eq!(with_csr.index_bytes(), built.index_bytes() + unbuilt);
            for v in prep.network().graph().vertices() {
                for r in paper_example::probe_regions() {
                    assert_eq!(with_csr.query_with_cost(v, &r), built.query_with_cost(v, &r));
                }
            }
            assert_eq!(reload(&[], &[]).is_ok(), replicate, "{policy:?}: empty CSR");
            assert!(reload(&offsets[1..], &points).is_err(), "{policy:?}: short offsets");
            assert!(reload(&offsets, &points[1..]).is_err(), "{policy:?}: missing point");
        }
    }

    #[test]
    fn rev_indexes_segments_not_points() {
        let prep = paper_example::prepared();
        let fwd = ThreeDReach::build(&prep, SccSpatialPolicy::Replicate);
        let rev = ThreeDReachRev::build(&prep, SccSpatialPolicy::Replicate);
        // Forward: one entry per spatial vertex. Reverse: one per (vertex,
        // reversed label) pair, which is at least as many.
        assert!(rev.index_bytes() >= fwd.index_bytes() / 2);
        assert_eq!(fwd.name(), "3DReach");
        assert_eq!(rev.name(), "3DReach-REV");
    }
}
