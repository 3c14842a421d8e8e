//! Synthetic geosocial networks and query workloads.
//!
//! The paper evaluates on four real geosocial networks (Foursquare, Gowalla,
//! WeePlaces, Yelp — Table 3). Those datasets are not redistributable, so
//! this crate synthesizes scaled-down analogs that preserve the properties
//! the evaluation depends on (see DESIGN.md, "Data substitution"):
//!
//! * the **two SCC regimes** — symmetric friendships collapse all users
//!   into one giant SCC (Gowalla/WeePlaces), while directed follows with
//!   partial reciprocation yield many SCCs (Foursquare/Yelp);
//! * the **user/venue/edge ratios** of Table 3 at a configurable scale;
//! * a **clustered spatial distribution** of venues (Gaussian mixture over
//!   "cities") and Zipf-skewed user activity, so both degree buckets and
//!   spatial selectivities span the ranges the paper sweeps.
//!
//! [`workload`] generates the query sets of Section 6.1: query regions by
//! extent, query vertices by out-degree bucket, and regions by spatial
//! selectivity. [`io`] round-trips networks through a simple text format so
//! real datasets can be dropped in.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod faults;
pub mod io;
pub mod networks;
pub mod workload;

pub use networks::{check_scale, FriendshipStyle, NetworkSpec};
