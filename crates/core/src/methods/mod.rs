//! The six `RangeReach` evaluation methods compared in the paper.

mod georeach;
mod nearest;
mod report;
mod socreach;
mod spareach;
mod threed;

pub use georeach::{GeoReach, GeoReachParams};
pub use nearest::NearestReach;
pub use report::{report_bfs, ThreeDReporter};
pub use socreach::{ScanMode, SocReach};
pub use spareach::{
    CandidateMode, SpaReach, SpaReachBfl, SpaReachFeline, SpaReachGrail, SpaReachInt, SpaReachPll,
    SpatialBackend,
};
pub use threed::{ThreeDReach, ThreeDReachRev};

use gsr_graph::scc::CompId;

/// Section tags of the columns several methods declare.
mod tag {
    pub const COMP_OF: u16 = 0x10;
    pub const MEMBER_OFFSETS: u16 = 0x11;
    pub const MEMBER_POINTS: u16 = 0x12;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{paper_example, RangeReachIndex, SccSpatialPolicy};

    /// The methods that refine against member points hold the prepared
    /// network's member table by handle: one buffer for all of them.
    #[test]
    fn methods_share_the_member_table() {
        let prep = paper_example::cyclic_prepared();
        let (_, points) = prep.member_csr();
        let mbr = SccSpatialPolicy::Mbr;
        let indexes: [Box<dyn RangeReachIndex>; 5] = [
            Box::new(SpaReachBfl::build(&prep, SccSpatialPolicy::Replicate)),
            Box::new(SpaReachInt::build(&prep, mbr)),
            Box::new(GeoReach::build(&prep)),
            Box::new(ThreeDReach::build(&prep, mbr)),
            Box::new(ThreeDReachRev::build(&prep, mbr)),
        ];
        for index in &indexes {
            let list = index.columns().expect("column-backed");
            let col = list.cols.iter().find(|c| c.tag == tag::MEMBER_POINTS).expect("declared");
            assert_eq!(col.bytes.as_ptr(), points.as_ptr().cast::<u8>(), "{}", index.name());
        }
    }
}
