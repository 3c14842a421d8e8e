//! Property-based tests for the geometry primitives.

use gsr_geo::{Aabb, Point, Rect};
use proptest::prelude::*;

fn arb_point() -> impl Strategy<Value = Point> {
    (-1e3..1e3f64, -1e3..1e3f64).prop_map(|(x, y)| Point::new(x, y))
}

fn arb_rect() -> impl Strategy<Value = Rect> {
    (arb_point(), arb_point()).prop_map(|(a, b)| Rect::from_corners(a, b))
}

fn arb_aabb3() -> impl Strategy<Value = Aabb<3>> {
    (
        [-1e3..1e3f64, -1e3..1e3f64, -1e3..1e3f64],
        [-1e3..1e3f64, -1e3..1e3f64, -1e3..1e3f64],
    )
        .prop_map(|(a, b)| {
            let mut min = [0.0; 3];
            let mut max = [0.0; 3];
            for d in 0..3 {
                min[d] = a[d].min(b[d]);
                max[d] = a[d].max(b[d]);
            }
            Aabb::new(min, max)
        })
}

proptest! {
    #[test]
    fn rect_intersection_is_symmetric(a in arb_rect(), b in arb_rect()) {
        prop_assert_eq!(a.intersects(&b), b.intersects(&a));
        prop_assert_eq!(a.intersection(&b), b.intersection(&a));
    }

    #[test]
    fn rect_union_contains_both(a in arb_rect(), b in arb_rect()) {
        let u = a.union(&b);
        prop_assert!(u.contains_rect(&a));
        prop_assert!(u.contains_rect(&b));
    }

    #[test]
    fn rect_intersection_contained_in_both(a in arb_rect(), b in arb_rect()) {
        if let Some(i) = a.intersection(&b) {
            prop_assert!(a.contains_rect(&i));
            prop_assert!(b.contains_rect(&i));
        }
    }

    #[test]
    fn rect_containment_implies_intersection(a in arb_rect(), b in arb_rect()) {
        if a.contains_rect(&b) {
            prop_assert!(a.intersects(&b));
        }
    }

    #[test]
    fn mbr_contains_all_points(pts in prop::collection::vec(arb_point(), 1..50)) {
        let mbr = Rect::mbr_of(pts.iter().copied()).unwrap();
        for p in &pts {
            prop_assert!(mbr.contains_point(p));
        }
    }

    #[test]
    fn point_in_rect_iff_in_aabb(p in arb_point(), r in arb_rect()) {
        let b: Aabb<2> = r.into();
        prop_assert_eq!(r.contains_point(&p), b.contains_point(&[p.x, p.y]));
    }

    #[test]
    fn aabb_union_contains_both(a in arb_aabb3(), b in arb_aabb3()) {
        let u = a.union(&b);
        prop_assert!(u.contains(&a) && u.contains(&b));
    }

    #[test]
    fn aabb_containment_transitive(a in arb_aabb3(), b in arb_aabb3(), c in arb_aabb3()) {
        if a.contains(&b) && b.contains(&c) {
            prop_assert!(a.contains(&c));
        }
    }

    #[test]
    fn square_centered_on_center(c in arb_point(), side in 0.0..100.0f64) {
        let q = Rect::square(c, side);
        let center = q.center();
        prop_assert!((center.x - c.x).abs() < 1e-9);
        prop_assert!((center.y - c.y).abs() < 1e-9);
        prop_assert!((q.width() - side).abs() < 1e-9);
    }
}
