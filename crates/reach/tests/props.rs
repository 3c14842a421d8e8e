//! Property-based tests: every reachability index must agree with the
//! transitive closure on random DAGs, and the two labeling constructions
//! must agree with each other.

use gsr_graph::dfs::ForestStrategy;
use gsr_graph::{graph_from_edges, DiGraph, VertexId};
use gsr_reach::bfl::{BflIndex, BflParams};
use gsr_reach::bfs::TransitiveClosure;
use gsr_reach::interval::{BuildOptions, Builder, IntervalLabeling};
use gsr_reach::Reachability;
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

fn assert_oracle_matches(g: &DiGraph, oracle: &dyn Reachability) -> Result<(), TestCaseError> {
    let tc = TransitiveClosure::of(g);
    for u in g.vertices() {
        for v in g.vertices() {
            prop_assert_eq!(
                oracle.reaches(u, v),
                tc.reaches(u, v),
                "{} wrong for ({}, {})",
                oracle.name(),
                u,
                v
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn interval_bottom_up_matches_closure(g in arb_dag(30, 120)) {
        let l = IntervalLabeling::build(&g);
        assert_oracle_matches(&g, &l)?;
    }

    #[test]
    fn interval_paper_matches_closure(g in arb_dag(22, 70)) {
        let l = IntervalLabeling::build_with(
            &g,
            BuildOptions { builder: Builder::PaperFaithful, compress: true, ..BuildOptions::default() },
        );
        assert_oracle_matches(&g, &l)?;
    }

    #[test]
    fn interval_uncompressed_matches_closure(g in arb_dag(25, 90)) {
        let l = IntervalLabeling::build_with(
            &g,
            BuildOptions { builder: Builder::BottomUp, compress: false, ..BuildOptions::default() },
        );
        assert_oracle_matches(&g, &l)?;
    }

    #[test]
    fn all_forest_strategies_yield_correct_labelings(g in arb_dag(25, 90)) {
        for forest in [
            ForestStrategy::VertexOrder,
            ForestStrategy::HighDegreeFirst,
            ForestStrategy::LowDegreeFirst,
            ForestStrategy::Random(3),
        ] {
            let l = IntervalLabeling::build_with(
                &g,
                BuildOptions { builder: Builder::BottomUp, compress: true, forest, ..BuildOptions::default() },
            );
            assert_oracle_matches(&g, &l)?;
        }
    }

    #[test]
    fn builders_produce_identical_compressed_labels(g in arb_dag(25, 90)) {
        let bottom = IntervalLabeling::build(&g);
        let paper = IntervalLabeling::build_with(
            &g,
            BuildOptions { builder: Builder::PaperFaithful, compress: true, ..BuildOptions::default() },
        );
        for v in g.vertices() {
            prop_assert_eq!(bottom.intervals(v), paper.intervals(v), "vertex {}", v);
        }
        prop_assert_eq!(bottom.num_labels(), paper.num_labels());
    }

    #[test]
    fn compression_never_increases_label_count(g in arb_dag(30, 120)) {
        let compressed = IntervalLabeling::build(&g);
        let raw = IntervalLabeling::build_with(
            &g,
            BuildOptions { builder: Builder::BottomUp, compress: false, ..BuildOptions::default() },
        );
        prop_assert!(compressed.num_labels() <= raw.num_labels());
    }

    #[test]
    fn descendant_counts_match_closure(g in arb_dag(30, 120)) {
        let l = IntervalLabeling::build(&g);
        let tc = TransitiveClosure::of(&g);
        for v in g.vertices() {
            let expected = g.vertices().filter(|&u| tc.reaches(v, u)).count();
            prop_assert_eq!(l.num_descendants(v), expected, "vertex {}", v);
            prop_assert_eq!(l.descendants(v).count(), expected);
        }
    }

    #[test]
    fn bfl_matches_closure(g in arb_dag(30, 120)) {
        let idx = BflIndex::build(&g);
        assert_oracle_matches(&g, &idx)?;
    }

    #[test]
    fn bfl_with_tiny_filters_matches_closure(g in arb_dag(25, 90)) {
        // Heavy Bloom collisions must only cost time, never correctness.
        let idx = BflIndex::build_with(&g, BflParams { filter_words: 1, seed: 7, ..BflParams::default() });
        assert_oracle_matches(&g, &idx)?;
    }

    #[test]
    fn all_reachability_indexes_agree(g in arb_dag(25, 90)) {
        let int = IntervalLabeling::build(&g);
        let bfl = BflIndex::build(&g);
        for u in g.vertices() {
            for v in g.vertices() {
                let expected = int.reaches(u, v);
                prop_assert_eq!(bfl.reaches(u, v), expected, "BFL vs INT at ({}, {})", u, v);
            }
        }
    }

    #[test]
    fn posts_form_permutation_and_reflexivity(g in arb_dag(40, 150)) {
        let l = IntervalLabeling::build(&g);
        let mut posts: Vec<u32> = g.vertices().map(|v| l.post(v)).collect();
        posts.sort_unstable();
        prop_assert_eq!(posts, (1..=g.num_vertices() as u32).collect::<Vec<_>>());
        for v in g.vertices() {
            prop_assert!(l.reaches(v, v), "reflexivity at {}", v);
            prop_assert_eq!(l.vertex_of_post(l.post(v)), v);
        }
    }

    #[test]
    fn labels_are_sorted_and_disjoint(g in arb_dag(40, 150)) {
        let l = IntervalLabeling::build(&g);
        for v in g.vertices() {
            let labels = l.intervals(v);
            for w in labels.windows(2) {
                // Strictly separated (compressed => non-adjacent too).
                prop_assert!(w[0].hi + 1 < w[1].lo, "labels of {} not compressed: {:?}", v, labels);
            }
        }
    }
}
