//! Shared helpers for the example binaries: small pretty-printing utilities
//! so each example can focus on the API it demonstrates.

use gsr_core::methods::SnapshotIndex;
use gsr_core::{PreparedNetwork, RangeReachIndex};
use gsr_geo::Rect;
use gsr_graph::VertexId;
use std::time::Instant;

/// Runs one query on every supplied method and prints a comparison line.
pub fn compare_methods(methods: &[SnapshotIndex], v: VertexId, region: &Rect) {
    for idx in methods {
        let start = Instant::now();
        let answer = idx.query(v, region);
        let took = start.elapsed();
        println!(
            "  {:<13} -> {:<5}  ({:>8.1?}, index {} KB)",
            idx.name(),
            answer,
            took,
            idx.index_bytes() / 1000,
        );
    }
}

/// Prints the Table 3-style summary of a prepared network.
pub fn print_network_summary(title: &str, prep: &PreparedNetwork) {
    let s = prep.stats();
    println!(
        "{title}: {} users, {} venues, {} edges, {} SCCs (largest {})",
        s.users, s.venues, s.edges, s.sccs, s.largest_scc
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsr_core::{GeosocialNetwork, Method, SccSpatialPolicy};
    use gsr_graph::GraphBuilder;

    #[test]
    fn helpers_do_not_panic() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1);
        let net = GeosocialNetwork::new(b.build(), vec![None, Some(gsr_geo::Point::new(1.0, 1.0))])
            .unwrap();
        let prep = PreparedNetwork::new(net);
        print_network_summary("toy", &prep);
        let methods = [Method::ThreeDReach.build(&prep, SccSpatialPolicy::Replicate, 1)];
        compare_methods(&methods, 0, &Rect::new(0.0, 0.0, 2.0, 2.0));
    }
}
