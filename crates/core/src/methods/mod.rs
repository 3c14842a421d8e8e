//! The six `RangeReach` evaluation methods compared in the paper.

mod dynamic3d;
mod georeach;
mod nearest;
mod report;
mod socreach;
mod spareach;
mod threed;

pub use dynamic3d::{CycleError, DynamicThreeDReach};
pub use georeach::{GeoReach, GeoReachParams, SpaInfoParts};
pub use nearest::NearestReach;
pub use report::{report_bfs, ThreeDReporter};
pub use socreach::{ScanMode, SocReach};
pub use spareach::{
    CandidateMode, SpaReach, SpaReachBfl, SpaReachFeline, SpaReachFilterParts, SpaReachGrail,
    SpaReachInt, SpaReachPll, SpatialBackend,
};
pub use threed::{ThreeDReach, ThreeDReachRev};
