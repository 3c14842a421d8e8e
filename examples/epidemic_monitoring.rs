//! Infectious-disease monitoring (third motivating application of the
//! paper's introduction): "RangeReach can assist on monitoring and
//! understanding how \[diseases\] spread in specific areas through human
//! interaction".
//!
//! A contact-tracing graph is modeled as a geosocial network: directed
//! contact edges between people, and check-in edges to geo-referenced
//! venues. Given a set of index cases, the example asks which quarantine
//! zones each case's (transitive) contact chain touches.
//!
//! ```text
//! cargo run --release -p gsr-examples --bin epidemic_monitoring
//! ```

use gsr_core::methods::ThreeDReach;
use gsr_core::{PreparedNetwork, RangeReachIndex, SccSpatialPolicy};
use gsr_datagen::NetworkSpec;
use gsr_examples::print_network_summary;
use gsr_geo::Rect;

fn main() {
    // A sparse directed contact network (Yelp-style analog: many small
    // SCCs — contact chains are mostly one-directional).
    let spec = NetworkSpec::yelp(0.15);
    let prep = PreparedNetwork::new(spec.generate());
    print_network_summary("Contact network", &prep);

    let index = ThreeDReach::build(&prep, SccSpatialPolicy::Replicate);

    // Quarantine zones: three rectangles around venue hot spots.
    let space = prep.space();
    let zones = [
        ("downtown", Rect::square(space.center(), space.width() * 0.15)),
        (
            "north-east",
            Rect::new(
                space.min_x + space.width() * 0.6,
                space.min_y + space.height() * 0.6,
                space.max_x,
                space.max_y,
            ),
        ),
        (
            "south-west",
            Rect::new(
                space.min_x,
                space.min_y,
                space.min_x + space.width() * 0.3,
                space.min_y + space.height() * 0.3,
            ),
        ),
    ];

    let index_cases: Vec<u32> = (0..5).map(|i| (i * 97) % spec.users as u32).collect();
    println!("\nZone exposure per index case (3DReach):");
    for &case in &index_cases {
        let exposed: Vec<&str> = zones
            .iter()
            .filter(|(_, zone)| index.query(case, zone))
            .map(|(name, _)| *name)
            .collect();
        println!(
            "  case {case}: {}",
            if exposed.is_empty() { "no zone exposure".to_string() } else { exposed.join(", ") }
        );
    }
}
