//! Experiment drivers that regenerate every table and figure of the
//! paper's evaluation (Section 6) on the synthetic dataset analogs.
//!
//! The `repro` binary is the entry point:
//!
//! ```text
//! cargo run --release -p gsr-bench --bin repro -- all
//! cargo run --release -p gsr-bench --bin repro -- table4 --scale 1.0 --queries 1000
//! ```
//!
//! Each experiment prints the same rows/series the paper reports; see
//! EXPERIMENTS.md for the paper-vs-measured comparison. Serving, store,
//! shard and hot-path numbers are measured by `benchmark/`, not here.

// `deny` rather than `forbid`: the `alloc_track` module implements
// `GlobalAlloc`, which is unavoidably unsafe, behind a scoped allow.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc_track;
pub mod experiments;
pub mod harness;
pub mod table;

pub use alloc_track::allocation_count;
pub use harness::{Config, Dataset};
