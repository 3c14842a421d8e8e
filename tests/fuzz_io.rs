//! Failure-injection tests: the network loader must never panic, whatever
//! bytes it is fed, and must produce precise errors for malformed input.

use gsr_datagen::faults::{malformed_corpus, ExpectedFailure, FailingReader};
use gsr_datagen::io::{read_network, read_network_with, write_network, LoadError, LoadLimits};
use proptest::prelude::*;

/// A small id cap so fuzz inputs that happen to contain a large integer
/// cannot ask the loader for gigabytes of memory.
const FUZZ_LIMITS: LoadLimits = LoadLimits { max_vertices: 4096 };

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes: reading may fail, but never panics, and any
    /// successfully parsed network is internally consistent.
    #[test]
    fn loader_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..2048)) {
        match read_network_with(bytes.as_slice(), FUZZ_LIMITS) {
            Ok(net) => {
                prop_assert!(net.num_spatial() <= net.num_vertices());
                prop_assert!(net.num_vertices() <= FUZZ_LIMITS.max_vertices as usize);
            }
            Err(LoadError::Parse { line, .. }) => prop_assert!(line >= 1),
            Err(_) => {}
        }
    }

    /// Arbitrary *line-structured* text: closer to the real format, so the
    /// parser's token paths all get exercised.
    #[test]
    fn loader_survives_plausible_garbage(
        lines in prop::collection::vec("[VPE#]? ?[-0-9a-z.]{0,12} [-0-9.]{0,8} [-0-9.]{0,8}", 0..60),
    ) {
        let text = lines.join("\n");
        if let Ok(net) = read_network_with(text.as_bytes(), FUZZ_LIMITS) {
            prop_assert!(net.num_vertices() <= FUZZ_LIMITS.max_vertices as usize);
        }
    }

    /// The loader fed a reader that dies after a random byte budget must
    /// report `LoadError::Io`, never panic or fabricate a network.
    #[test]
    fn truncated_streams_surface_io_errors(budget in 0usize..256) {
        let text = "# net\nV 6\nP 2 1.0 2.0\nP 3 4.0 5.0\nE 0 1\nE 1 2\nE 4 5\nE 5 3\n";
        // Only budgets that cut the stream short can fault.
        let budget = budget % text.len();
        let reader = FailingReader::new(text.as_bytes(), budget);
        match read_network(reader) {
            Err(LoadError::Io(_)) => {}
            other => prop_assert!(false, "budget {}: expected Io, got ok={}", budget, other.is_ok()),
        }
    }

    /// Any network that passes validation round-trips bit-exactly.
    #[test]
    fn valid_networks_round_trip(
        n in 1usize..30,
        edges in prop::collection::vec((0u32..30, 0u32..30), 0..80),
        points in prop::collection::vec(
            prop::option::of((-1e5..1e5f64, -1e5..1e5f64)),
            0..30,
        ),
    ) {
        use gsr_core::GeosocialNetwork;
        use gsr_geo::Point;
        use gsr_graph::GraphBuilder;

        let mut b = GraphBuilder::new(n);
        for (u, v) in edges {
            b.add_edge(u % n as u32, v % n as u32);
        }
        let g = b.build();
        let mut pts: Vec<Option<Point>> =
            points.into_iter().map(|p| p.map(|(x, y)| Point::new(x, y))).collect();
        pts.resize(g.num_vertices(), None);
        let net = GeosocialNetwork::new(g, pts).unwrap();

        let mut buf = Vec::new();
        write_network(&net, &mut buf).unwrap();
        let loaded = read_network(buf.as_slice()).unwrap();
        prop_assert_eq!(loaded.num_vertices(), net.num_vertices());
        prop_assert_eq!(loaded.graph().num_edges(), net.graph().num_edges());
        for v in net.graph().vertices() {
            prop_assert_eq!(loaded.point(v), net.point(v));
            prop_assert_eq!(loaded.graph().out_neighbors(v), net.graph().out_neighbors(v));
        }
    }

    /// NaN and infinite coordinates are rejected at network construction,
    /// and the loader surfaces that as a Network error rather than panicking.
    #[test]
    fn non_finite_points_are_rejected(bad in "(nan|inf|-inf)") {
        let text = format!("V 1\nP 0 {bad} 1.0\n");
        match read_network(text.as_bytes()) {
            Err(LoadError::Network(_)) => {}
            other => prop_assert!(false, "expected Network error, got {:?}", other.is_ok()),
        }
    }
}

/// Every entry in the fault-injection corpus is rejected with the typed
/// error it declares — the contract the CI fault job enforces.
#[test]
fn malformed_corpus_is_rejected_with_declared_variants() {
    for case in malformed_corpus() {
        match (read_network(case.text.as_bytes()), case.expected) {
            (Err(LoadError::Parse { line, .. }), ExpectedFailure::Parse) => {
                assert!(line >= 1, "case {:?}", case.name);
            }
            (Err(LoadError::Network(_)), ExpectedFailure::Network) => {}
            (outcome, expected) => {
                panic!("case {:?}: expected {expected:?}, got ok={}", case.name, outcome.is_ok())
            }
        }
    }
}

/// Ids above the cap must be rejected instead of growing the network, and
/// duplicate `P` lines must not silently overwrite points.
#[test]
fn loader_hardening_rules_hold() {
    let over_cap = format!("E 0 {}\n", FUZZ_LIMITS.max_vertices);
    assert!(matches!(
        read_network_with(over_cap.as_bytes(), FUZZ_LIMITS),
        Err(LoadError::Parse { line: 1, .. })
    ));
    let at_cap = format!("E 0 {}\n", FUZZ_LIMITS.max_vertices - 1);
    let net = read_network_with(at_cap.as_bytes(), FUZZ_LIMITS).unwrap();
    assert_eq!(net.num_vertices(), FUZZ_LIMITS.max_vertices as usize);

    let dup = "V 4\nP 1 0 0\nP 1 9 9\n";
    assert!(matches!(read_network(dup.as_bytes()), Err(LoadError::Parse { line: 3, .. })));
}

/// A real generated network cut at every early byte position still maps
/// to `LoadError::Io` (no panics, no partial networks).
#[test]
fn generated_network_truncations_fail_cleanly() {
    let mut text = Vec::new();
    write_network(&gsr_datagen::NetworkSpec::foursquare(0.01).generate(), &mut text).unwrap();
    for budget in (0..text.len().min(400)).step_by(37) {
        let reader = FailingReader::new(text.as_slice(), budget);
        assert!(
            matches!(read_network(reader), Err(LoadError::Io(_))),
            "budget {budget} should surface Io"
        );
    }
}
