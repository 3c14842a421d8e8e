//! Property-based tests for the compact label machinery behind the
//! cache-optimized layouts: galloping containment must agree with binary
//! search and a linear scan on adversarial sorted interval arrays, and the
//! varint / delta-array / compact-label encodings must round-trip
//! losslessly.

use gsr_graph::columns::MemSource;
use gsr_graph::{graph_from_edges, ColumnList, DiGraph, VertexId};
use gsr_reach::compact::{read_varint, write_varint, CompactLabels, DeltaArray};
use gsr_reach::interval::{binary_covers, gallop_covers, Interval, IntervalLabeling};
use proptest::prelude::*;

fn arb_dag(max_n: usize, max_m: usize) -> impl Strategy<Value = DiGraph> {
    (2..max_n).prop_flat_map(move |n| {
        prop::collection::vec((0..n as VertexId, 0..n as VertexId), 0..max_m).prop_map(
            move |edges| {
                let dag_edges: Vec<_> = edges
                    .into_iter()
                    .filter(|&(u, v)| u != v)
                    .map(|(u, v)| if u < v { (u, v) } else { (v, u) })
                    .collect();
                graph_from_edges(n, &dag_edges)
            },
        )
    })
}

/// Sorted disjoint interval lists from (gap, length) runs. Gap 0 makes
/// adjacent-but-disjoint neighbours — the adversarial case for any
/// containment search that assumes compressed (non-adjacent) labels.
fn intervals_from_runs(runs: &[(u32, u32)]) -> Vec<Interval> {
    let mut labels = Vec::with_capacity(runs.len());
    let mut next = 1u32;
    for &(gap, len) in runs {
        let lo = next + gap;
        let hi = lo + len;
        labels.push(Interval { lo, hi });
        next = hi + 1;
    }
    labels
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gallop_and_binary_containment_agree_with_linear_scan(
        runs in prop::collection::vec((0u32..3, 0u32..40), 0..80),
        probes in prop::collection::vec(0u32..5000, 0..40),
    ) {
        let labels = intervals_from_runs(&runs);
        let linear = |p: u32| labels.iter().any(|l| l.lo <= p && p <= l.hi);
        // Random probes plus every boundary and off-by-one around it.
        let mut all = probes;
        all.push(0);
        for l in &labels {
            all.extend([l.lo.saturating_sub(1), l.lo, l.hi, l.hi + 1]);
        }
        for p in all {
            let expected = linear(p);
            prop_assert_eq!(gallop_covers(&labels, p), expected, "gallop at {}", p);
            prop_assert_eq!(binary_covers(&labels, p), expected, "binary at {}", p);
        }
    }

    #[test]
    fn varint_round_trips_any_u32(vals in prop::collection::vec(any::<u32>(), 0..100)) {
        let mut buf = Vec::new();
        for &v in &vals {
            write_varint(&mut buf, v);
        }
        let mut pos = 0usize;
        for &v in &vals {
            prop_assert_eq!(read_varint(&buf, &mut pos), Some(v));
        }
        prop_assert_eq!(pos, buf.len());
        prop_assert_eq!(read_varint(&buf, &mut pos), None, "read past the end");
    }

    #[test]
    fn delta_array_round_trips_adversarial_sorted_arrays(
        deltas in prop::collection::vec((0u8..4, 1u32..100_000), 0..200),
        start in 0usize..220,
    ) {
        // Runs of duplicates, tiny steps, and huge multi-byte-varint jumps.
        let mut values = Vec::with_capacity(deltas.len());
        let mut acc = 0u32;
        for (kind, raw) in deltas {
            let d = match kind {
                0 => 0,
                1 => raw % 4 + 1,
                2 => raw,
                _ => 1u32 << 24,
            };
            acc = acc.saturating_add(d);
            values.push(acc);
        }
        let arr = DeltaArray::from_sorted(&values).unwrap();
        prop_assert_eq!(arr.len(), values.len());
        prop_assert_eq!(arr.to_vec(), values.clone());
        for (i, &v) in values.iter().enumerate() {
            prop_assert_eq!(arr.get(i), v, "random access at {}", i);
        }
        let start = start.min(values.len());
        let tail: Vec<u32> = arr.iter_from(start).collect();
        prop_assert_eq!(&tail[..], &values[start..], "cursor from {}", start);
    }

    #[test]
    fn delta_array_rejects_any_decrease(
        values in prop::collection::vec(0u32..10_000, 2..60),
        at in 0usize..60,
    ) {
        let mut sorted = values;
        sorted.sort_unstable();
        let at = at % (sorted.len() - 1);
        // Force a strict decrease at `at`.
        sorted[at] = sorted[at + 1].saturating_add(1);
        let err = DeltaArray::from_sorted(&sorted).unwrap_err();
        prop_assert!(err.contains("decrease"), "diagnostic: {}", err);
    }

    #[test]
    fn compact_labels_match_the_full_labeling(g in arb_dag(35, 140)) {
        let full = IntervalLabeling::build(&g);
        let compact = CompactLabels::from_labeling(&full);
        let n = g.num_vertices() as u32;
        prop_assert_eq!(compact.max_post(), n);
        prop_assert_eq!(compact.num_labels(), full.num_labels());
        for v in g.vertices() {
            let decoded: Vec<Interval> = compact.intervals(v).collect();
            prop_assert_eq!(&decoded[..], full.intervals(v), "labels of {}", v);
            prop_assert_eq!(compact.num_intervals(v), full.intervals(v).len());
            prop_assert_eq!(compact.num_descendants(v), full.num_descendants(v));
            for p in 1..=n {
                prop_assert_eq!(
                    compact.covers_post(v, p),
                    gallop_covers(full.intervals(v), p),
                    "covers_post({}, {})", v, p
                );
            }
        }
    }

    #[test]
    fn compact_labels_parts_round_trip(g in arb_dag(30, 120)) {
        let compact = CompactLabels::from_labeling(&IntervalLabeling::build(&g));
        let back: CompactLabels = MemSource::new(ColumnList::of(&compact))
            .load()
            .expect("columns of a valid encoding must validate");
        prop_assert_eq!(back.max_post(), compact.max_post());
        prop_assert_eq!(back.num_labels(), compact.num_labels());
        for v in g.vertices() {
            prop_assert_eq!(
                back.intervals(v).collect::<Vec<_>>(),
                compact.intervals(v).collect::<Vec<_>>(),
                "vertex {}", v
            );
        }
    }
}
