//! Points-of-Interest recommendation (first motivating application of the
//! paper's introduction): "users can query for restaurants in a particular
//! area of the city that their friends or friends of their friends have
//! visited in the past".
//!
//! The example generates a Gowalla-style network, picks a few users, and
//! asks for each city district whether the user's (transitive) social
//! circle has activity there — one `RangeReach` query per district, served
//! by the 3DReach index.
//!
//! ```text
//! cargo run --release -p gsr-examples --bin poi_recommendation
//! ```

use gsr_core::methods::ThreeDReach;
use gsr_core::{PreparedNetwork, RangeReachIndex, SccSpatialPolicy};
use gsr_datagen::NetworkSpec;
use gsr_examples::print_network_summary;
use gsr_geo::Rect;
use std::time::Instant;

fn main() {
    let spec = NetworkSpec::gowalla(0.3);
    let prep = PreparedNetwork::new(spec.generate());
    print_network_summary("Check-in network", &prep);

    let build_start = Instant::now();
    let index = ThreeDReach::build(&prep, SccSpatialPolicy::Replicate);
    println!(
        "3DReach index built in {:.1?} ({} KB)\n",
        build_start.elapsed(),
        index.index_bytes() / 1000
    );

    // Divide the city into a 4x4 grid of districts.
    let space = prep.space();
    let (dw, dh) = (space.width() / 4.0, space.height() / 4.0);
    let districts: Vec<(String, Rect)> = (0..16)
        .map(|i| {
            let (col, row) = (i % 4, i / 4);
            let rect = Rect::new(
                space.min_x + col as f64 * dw,
                space.min_y + row as f64 * dh,
                space.min_x + (col + 1) as f64 * dw,
                space.min_y + (row + 1) as f64 * dh,
            );
            (format!("district ({col},{row})"), rect)
        })
        .collect();

    // Recommend districts for three users of different connectivity.
    let g = prep.network().graph();
    let mut users: Vec<u32> = (0..spec.users as u32).collect();
    users.sort_by_key(|&u| std::cmp::Reverse(g.out_degree(u)));
    let picks = [users[0], users[users.len() / 2], users[users.len() - 1]];

    for user in picks {
        let start = Instant::now();
        let reachable: Vec<&str> = districts
            .iter()
            .filter(|(_, rect)| index.query(user, rect))
            .map(|(name, _)| name.as_str())
            .collect();
        println!(
            "user {user} (degree {}): social circle has activity in {}/16 districts ({:.1?})",
            g.out_degree(user),
            reachable.len(),
            start.elapsed()
        );
        if reachable.len() < 16 {
            println!("  reachable: {}", reachable.join(", "));
        }
    }
}
