//! Property-based tests for the graph substrate, checked against naive
//! reference implementations.

use gsr_graph::dfs::SpanningForest;
use gsr_graph::scc::Condensation;
use gsr_graph::{graph_from_edges, topo, DiGraph, VertexId};
use proptest::prelude::*;

/// Random edge list over `n` vertices.
fn arb_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = DiGraph> {
    (2..max_n).prop_flat_map(move |n| {
        prop::collection::vec((0..n as VertexId, 0..n as VertexId), 0..max_m)
            .prop_map(move |edges| graph_from_edges(n, &edges))
    })
}

/// Random DAG: only edges `u -> v` with `u < v`.
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

/// Naive reachability: BFS from `s`.
fn naive_reaches(g: &DiGraph, s: VertexId, t: VertexId) -> bool {
    let mut visited = vec![false; g.num_vertices()];
    let mut stack = vec![s];
    visited[s as usize] = true;
    while let Some(v) = stack.pop() {
        if v == t {
            return true;
        }
        for &w in g.out_neighbors(v) {
            if !visited[w as usize] {
                visited[w as usize] = true;
                stack.push(w);
            }
        }
    }
    false
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn scc_matches_mutual_reachability(g in arb_graph(24, 60)) {
        let c = Condensation::of(&g);
        let n = g.num_vertices() as VertexId;
        for u in 0..n {
            for v in (u + 1)..n {
                let mutual = naive_reaches(&g, u, v) && naive_reaches(&g, v, u);
                prop_assert_eq!(
                    c.comp(u) == c.comp(v),
                    mutual,
                    "vertices {} and {} (mutual = {})", u, v, mutual
                );
            }
        }
    }

    #[test]
    fn condensation_dag_is_acyclic(g in arb_graph(40, 150)) {
        let c = Condensation::of(&g);
        prop_assert!(topo::is_dag(&c.dag));
    }

    #[test]
    fn condensation_preserves_reachability(g in arb_graph(18, 50)) {
        let c = Condensation::of(&g);
        let n = g.num_vertices() as VertexId;
        for u in 0..n {
            for v in 0..n {
                let orig = naive_reaches(&g, u, v);
                let cond = naive_reaches(&c.dag, c.comp(u), c.comp(v));
                prop_assert_eq!(orig, cond, "u={} v={}", u, v);
            }
        }
    }

    #[test]
    fn forest_posts_are_valid(g in arb_dag(40, 120)) {
        let f = SpanningForest::of(&g);
        // Post-orders form a permutation of 1..=n.
        let mut posts = f.post.clone();
        posts.sort_unstable();
        prop_assert_eq!(posts, (1..=g.num_vertices() as u32).collect::<Vec<_>>());
        // Tree ancestors always have larger post-order numbers.
        for v in g.vertices() {
            for a in f.ancestors(v) {
                prop_assert!(f.post[a as usize] > f.post[v as usize]);
            }
        }
    }

    #[test]
    fn dag_dfs_has_no_back_edges(g in arb_dag(40, 120)) {
        // On a DAG, every non-tree DFS edge points to a smaller post-order —
        // the invariant the interval labeling's final phase relies on.
        let f = SpanningForest::of(&g);
        for (u, v) in f.non_tree_edges_by_source_post(&g) {
            prop_assert!(f.post[v as usize] < f.post[u as usize]);
        }
    }

    #[test]
    fn tree_descendants_form_contiguous_post_ranges(g in arb_dag(30, 80)) {
        // The tree-descendant posts of v are exactly [index(v), post(v)]:
        // the "tree-cover" property of Agrawal et al.'s scheme.
        let f = SpanningForest::of(&g);
        let n = g.num_vertices();
        let mut descendant_posts: Vec<Vec<u32>> = vec![Vec::new(); n];
        for v in g.vertices() {
            descendant_posts[v as usize].push(f.post[v as usize]);
            for a in f.ancestors(v) {
                descendant_posts[a as usize].push(f.post[v as usize]);
            }
        }
        for (v, posts) in descendant_posts.iter_mut().enumerate() {
            posts.sort_unstable();
            let lo = posts[0];
            let hi = *posts.last().unwrap();
            prop_assert_eq!(hi, f.post[v]);
            prop_assert_eq!(posts.len() as u32, hi - lo + 1, "gap in tree interval of {}", v);
        }
    }

    #[test]
    fn topological_order_is_consistent(g in arb_dag(50, 200)) {
        let order = topo::topological_order(&g).expect("DAG must have a topo order");
        let mut pos = vec![0usize; g.num_vertices()];
        for (i, &v) in order.iter().enumerate() {
            pos[v as usize] = i;
        }
        for (u, v) in g.edges() {
            prop_assert!(pos[u as usize] < pos[v as usize]);
        }
    }

    #[test]
    fn reversal_is_involutive(g in arb_graph(30, 100)) {
        let r2 = g.reversed().reversed();
        prop_assert_eq!(g.num_edges(), r2.num_edges());
        for (u, v) in g.edges() {
            prop_assert!(r2.has_edge(u, v));
        }
    }
}
