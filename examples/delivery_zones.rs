//! Delivery-zone coverage with *extended* geometries — the footnote-1
//! generalization of the paper: spatial vertices are rectangles, not
//! points.
//!
//! A restaurant group's couriers form a directed dispatch network (courier
//! -> courier handoffs), and each restaurant covers a rectangular delivery
//! zone. "Can dispatcher d serve an order at location X?" becomes a
//! RangeReach query whose spatial predicate is *intersection* with the
//! zones — answered by `RegionReach` through the same 3-D transformation.
//!
//! ```text
//! cargo run --release -p gsr-examples --bin delivery_zones
//! ```

use gsr_core::extensions::{RegionNetwork, RegionReach};
use gsr_geo::Rect;
use gsr_graph::GraphBuilder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let mut rng = StdRng::seed_from_u64(42);
    let dispatchers = 20u32;
    let couriers = 200u32;
    let restaurants = 300u32;
    let n = (dispatchers + couriers + restaurants) as usize;

    // Dispatchers hand off to couriers, couriers to each other, couriers
    // deliver for restaurants (courier -> restaurant edge).
    let mut b = GraphBuilder::new(n);
    for d in 0..dispatchers {
        for _ in 0..6 {
            b.add_edge(d, dispatchers + rng.gen_range(0..couriers));
        }
    }
    for _ in 0..400 {
        let a = dispatchers + rng.gen_range(0..couriers);
        let c = dispatchers + rng.gen_range(0..couriers);
        if a != c {
            b.add_edge(a, c);
        }
    }
    for r in 0..restaurants {
        for _ in 0..2 {
            let courier = dispatchers + rng.gen_range(0..couriers);
            b.add_edge(courier, dispatchers + couriers + r);
        }
    }

    // Restaurant delivery zones: rectangles of varying size over a 100x100
    // city.
    let mut zones: Vec<Option<Rect>> = vec![None; n];
    for r in 0..restaurants {
        let cx = rng.gen_range(5.0..95.0);
        let cy = rng.gen_range(5.0..95.0);
        let w = rng.gen_range(2.0..12.0);
        let h = rng.gen_range(2.0..12.0);
        zones[(dispatchers + couriers + r) as usize] =
            Some(Rect::new(cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0));
    }

    let net = RegionNetwork::new(b.build(), zones);
    let index = RegionReach::build(&net);

    println!("dispatch network: {dispatchers} dispatchers, {couriers} couriers, {restaurants} restaurants");

    // Can each dispatcher serve an order placed at the first restaurant's
    // address?
    let address = net.region(dispatchers + couriers).expect("restaurant 0 has a zone").center();
    let order = Rect::square(address, 6.0);
    let geometric: usize =
        (0..n as u32).filter(|&v| net.region(v).is_some_and(|z| z.intersects(&order))).count();
    let serving: Vec<u32> = (0..dispatchers).filter(|&d| index.query(d, &order)).collect();
    println!(
        "order at {address}: {geometric} zones overlap it; servable by {}/{} dispatchers",
        serving.len(),
        dispatchers
    );

    // Zone coverage report for the first dispatcher.
    let d0_zones = index.report(0, &Rect::new(0.0, 0.0, 100.0, 100.0));
    println!("dispatcher 0 can route to {} restaurant zones in total", d0_zones.len());
    let corner = Rect::new(0.0, 0.0, 15.0, 15.0);
    let corner_zones = index.report(0, &corner);
    println!(
        "  of those, {} have delivery zones overlapping the SW corner {corner}",
        corner_zones.len()
    );
}
