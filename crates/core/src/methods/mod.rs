//! The six `RangeReach` evaluation methods compared in the paper.

mod georeach;
mod socreach;
mod spareach;
mod table;
mod threed;

pub use georeach::{GeoReach, GeoReachParams};
pub use socreach::SocReach;
pub use spareach::{SpaReach, SpaReachBfl, SpaReachInt};
pub use table::{Method, SnapshotIndex};
pub use threed::{ThreeDReach, ThreeDReachRev};

use gsr_geo::{Aabb, Point, Rect};
use gsr_graph::scc::CompId;
use gsr_index::RTree;

/// Section tags of the columns several methods declare.
mod tag {
    pub(super) const COMP_OF: u16 = 0x10;
    pub(super) const MEMBER_OFFSETS: u16 = 0x11;
    pub(super) const MEMBER_POINTS: u16 = 0x12;
}

/// Checks a per-component CSR that came from disk: one range of the
/// `entries` per component, in order. `what` names it in the diagnostics.
fn check_csr(
    method: &str,
    what: &str,
    ncomp: usize,
    offsets: &[u32],
    entries: usize,
) -> Result<(), String> {
    if offsets.len() != ncomp + 1 {
        return Err(format!("{method}: {} {what} offsets for {ncomp} components", offsets.len()));
    }
    if offsets[0] != 0 || offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(format!("{method}: {what} offsets not monotone from 0"));
    }
    if offsets[ncomp] as usize != entries {
        return Err(format!(
            "{method}: {what} offsets claim {} entries but {entries} present",
            offsets[ncomp]
        ));
    }
    Ok(())
}

/// Checks that the component ids `holder` stores all lie below `ncomp`.
fn check_comp_ids(
    method: &str,
    holder: &str,
    mut ids: impl Iterator<Item = CompId>,
    ncomp: usize,
) -> Result<(), String> {
    match ids.find(|&c| c as usize >= ncomp) {
        Some(c) => Err(format!("{method}: {holder} references component {c} >= {ncomp}")),
        None => Ok(()),
    }
}

/// Checks that every entry of an MBR-policy tree spans, in its two spatial
/// dimensions, exactly the MBR of its component's member points, as the
/// build made it. A box read from disk can lose its upper-bound column and
/// read as its lower corner; the leaf boxes only notice when that entry set
/// the leaf's bound, and a window the true box meets would miss it. The
/// member CSR and the entries' component ids must have been checked.
fn check_entry_mbrs<const N: usize>(
    method: &str,
    tree: &RTree<N, CompId>,
    offsets: &[u32],
    points: &[Point],
) -> Result<(), String> {
    let mbrs: Vec<Option<Rect>> = offsets
        .windows(2)
        .map(|w| Rect::mbr_of(points[w[0] as usize..w[1] as usize].iter().copied()))
        .collect();
    let spans = |b: &Aabb<N>, m: &Rect| {
        [b.min[0], b.min[1], b.max[0], b.max[1]] == [m.min_x, m.min_y, m.max_x, m.max_y]
    };
    for (i, &c) in tree.values().iter().enumerate() {
        if !mbrs[c as usize].is_some_and(|m| spans(&tree.entry_box(i), &m)) {
            return Err(format!("{method}: tree entry {i} is not component {c}'s member mbr"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper_example;

    /// The methods that refine against member points hold the prepared
    /// network's member table by handle: one buffer for all of them. (The
    /// replicating 3-D trees refine nothing and declare the column empty.)
    #[test]
    fn methods_share_the_member_table() {
        let prep = paper_example::cyclic_prepared();
        let (_, points) = prep.member_csr();
        let mut holders = Vec::new();
        for m in Method::ALL {
            for &policy in m.policies() {
                let index = m.build(&prep, policy);
                let list = index.column_list();
                let member_points = list.cols.iter().find(|c| c.tag == tag::MEMBER_POINTS);
                if let Some(col) = member_points.filter(|c| !c.bytes.is_empty()) {
                    let shared = points.as_ptr().cast::<u8>();
                    assert_eq!(col.bytes.as_ptr(), shared, "{m:?} {policy:?}");
                    holders.push(format!("{}{}", m.name(), policy.suffix()));
                }
            }
        }
        let expected = [
            "SpaReach-BFL",
            "SpaReach-BFL (MBR)",
            "SpaReach-INT",
            "SpaReach-INT (MBR)",
            "GeoReach",
            "3DReach (MBR)",
            "3DReach-REV (MBR)",
        ];
        assert_eq!(holders, expected);
    }
}
