//! Quickstart: build the paper's running example (Figure 1), index it with
//! every RangeReach method, and evaluate the two queries of Example 2.3.
//!
//! ```text
//! cargo run --release -p gsr-examples --bin quickstart
//! ```

use gsr_core::methods::SocReach;
use gsr_core::{paper_example, Method, SccSpatialPolicy};
use gsr_examples::{compare_methods, print_network_summary};

fn main() {
    // The 12-vertex geosocial network of the paper's Figure 1: vertices
    // a..l, spatial vertices e, f, h, i, l, and the query region R that
    // contains the points of e and h.
    let prep = paper_example::prepared();
    print_network_summary("Paper running example", &prep);

    let methods = Method::ALL.map(|m| m.build(&prep, SccSpatialPolicy::Replicate));

    let region = paper_example::query_region();

    // Example 2.3: a reaches the spatial vertices e and h inside R.
    println!("\nRangeReach(G, a, R) — expected TRUE:");
    compare_methods(&methods, paper_example::A, &region);

    // Example 2.3: c only reaches f and i, both outside R.
    println!("\nRangeReach(G, c, R) — expected FALSE:");
    compare_methods(&methods, paper_example::C, &region);

    // The interval labels behind the answers (Table 1 of the paper).
    let soc = SocReach::build(&prep);
    println!("\nInterval labels over the condensation (cf. Table 1):");
    for v in ["a", "c"] {
        let id = if v == "a" { paper_example::A } else { paper_example::C };
        let comp = prep.comp(id);
        println!(
            "  L({v}) = {:?} ({} descendants)",
            soc.labels().intervals(comp).collect::<Vec<_>>(),
            soc.labels().num_descendants(comp),
        );
    }
}
