//! The six `RangeReach` evaluation methods compared in the paper.

mod dynamic3d;
mod georeach;
mod nearest;
mod report;
mod socreach;
mod spareach;
mod threed;

pub use dynamic3d::{CycleError, DynamicThreeDReach};
pub use georeach::{GeoReach, GeoReachParams};
pub use nearest::NearestReach;
pub use report::{report_bfs, ThreeDReporter};
pub use socreach::{ScanMode, SocReach};
pub use spareach::{
    CandidateMode, SpaReach, SpaReachBfl, SpaReachFeline, SpaReachGrail, SpaReachInt, SpaReachPll,
    SpatialBackend,
};
pub use threed::{ThreeDReach, ThreeDReachRev};

use gsr_geo::Point;
use gsr_graph::scc::CompId;

/// Section tags of the columns several methods declare.
mod tag {
    pub const COMP_OF: u16 = 0x10;
    pub const MEMBER_OFFSETS: u16 = 0x11;
    pub const MEMBER_POINTS: u16 = 0x12;
}

/// Checks a member CSR that came from disk: one range of `points` per
/// component, in order.
fn check_member_csr(
    method: &str,
    ncomp: usize,
    offsets: &[u32],
    points: &[Point],
) -> Result<(), String> {
    if offsets.len() != ncomp + 1 {
        return Err(format!("{method}: {} member offsets for {ncomp} components", offsets.len()));
    }
    if offsets[0] != 0 || offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(format!("{method}: member offsets not monotone from 0"));
    }
    if offsets[ncomp] as usize != points.len() {
        return Err(format!(
            "{method}: member offsets claim {} points but {} present",
            offsets[ncomp],
            points.len()
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
