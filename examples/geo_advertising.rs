//! Geo-advertising (second motivating application of the paper's
//! introduction): "RangeReach can help determine the best location to open
//! a shop or how to advertise an event based on users that have direct or
//! indirect previous activity in particular parts of a city".
//!
//! The example scans a grid of candidate shop locations over a
//! Foursquare-style network and, for each candidate cell, counts how many
//! influencer accounts can geosocially reach that cell — a batch of
//! `RangeReach` queries per cell. The two 3-D methods are compared on the
//! same batch.
//!
//! ```text
//! cargo run --release -p gsr-examples --bin geo_advertising
//! ```

use gsr_core::methods::{ThreeDReach, ThreeDReachRev};
use gsr_core::{PreparedNetwork, RangeReachIndex, SccSpatialPolicy};
use gsr_datagen::NetworkSpec;
use gsr_examples::print_network_summary;
use gsr_geo::Rect;
use std::time::Instant;

fn main() {
    let spec = NetworkSpec::foursquare(0.3);
    let prep = PreparedNetwork::new(spec.generate());
    print_network_summary("Follow network", &prep);

    let fwd = ThreeDReach::build(&prep, SccSpatialPolicy::Replicate);
    let rev = ThreeDReachRev::build(&prep, SccSpatialPolicy::Replicate);

    // The 25 highest-out-degree accounts are our "influencers".
    let g = prep.network().graph();
    let mut users: Vec<u32> = (0..spec.users as u32).collect();
    users.sort_by_key(|&u| std::cmp::Reverse(g.out_degree(u)));
    let influencers = &users[..25];

    // Candidate shop locations: a 6x6 grid of cells.
    let space = prep.space();
    let (cw, ch) = (space.width() / 6.0, space.height() / 6.0);

    for (name, index) in [("3DReach", &fwd as &dyn RangeReachIndex), ("3DReach-REV", &rev)] {
        let start = Instant::now();
        let mut best = (0usize, 0usize, 0usize);
        for row in 0..6 {
            for col in 0..6 {
                let cell = Rect::new(
                    space.min_x + col as f64 * cw,
                    space.min_y + row as f64 * ch,
                    space.min_x + (col + 1) as f64 * cw,
                    space.min_y + (row + 1) as f64 * ch,
                );
                let audience = influencers.iter().filter(|&&u| index.query(u, &cell)).count();
                if audience > best.0 {
                    best = (audience, col, row);
                }
            }
        }
        println!(
            "{name:<12}: best cell ({}, {}) reaches {}/25 influencers' activity \
             ({} queries in {:.1?})",
            best.1,
            best.2,
            best.0,
            36 * influencers.len(),
            start.elapsed()
        );
    }
}
