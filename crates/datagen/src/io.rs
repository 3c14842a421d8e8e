//! A simple text format for geosocial networks, so the synthetic analogs
//! can be swapped for real datasets (Foursquare/Gowalla/WeePlaces/Yelp
//! dumps) without code changes.
//!
//! ```text
//! # comments and blank lines are ignored
//! V <num_vertices>
//! P <vertex> <x> <y>     # one per spatial vertex
//! E <source> <target>    # one per directed edge
//! ```

use gsr_core::{GeosocialNetwork, NetworkError};
use gsr_geo::Point;
use gsr_graph::GraphBuilder;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Errors raised while reading a network file.
#[derive(Debug)]
pub enum LoadError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed line, with its 1-based number and content.
    Parse {
        /// 1-based line number.
        line: usize,
        /// The offending line.
        content: String,
        /// What was wrong with it.
        reason: String,
    },
    /// The parsed data failed network validation.
    Network(NetworkError),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "i/o error: {e}"),
            LoadError::Parse { line, content, reason } => {
                write!(f, "malformed line {line} ({reason}): {content:?}")
            }
            LoadError::Network(e) => write!(f, "invalid network: {e}"),
        }
    }
}

impl std::error::Error for LoadError {}

impl From<std::io::Error> for LoadError {
    fn from(e: std::io::Error) -> Self {
        LoadError::Io(e)
    }
}

/// Writes `net` in the text format.
pub fn write_network<W: Write>(net: &GeosocialNetwork, out: W) -> std::io::Result<()> {
    let mut w = BufWriter::new(out);
    writeln!(w, "# gsr geosocial network v1")?;
    writeln!(w, "V {}", net.num_vertices())?;
    for (v, p) in net.spatial_vertices() {
        writeln!(w, "P {} {} {}", v, p.x, p.y)?;
    }
    // `E` lines are most of the file: their digits go into one line buffer
    // by hand, the `E <source> ` prefix once per source.
    let graph = net.graph();
    let mut line = Vec::with_capacity(24);
    for u in graph.vertices() {
        line.clear();
        line.extend_from_slice(b"E ");
        push_decimal(&mut line, u);
        line.push(b' ');
        let prefix = line.len();
        for &v in graph.out_neighbors(u) {
            line.truncate(prefix);
            push_decimal(&mut line, v);
            line.push(b'\n');
            w.write_all(&line)?;
        }
    }
    w.flush()
}

/// Appends the decimal digits of `n`, as `{}` formats it.
fn push_decimal(out: &mut Vec<u8>, mut n: u32) {
    let mut digits = [0u8; 10];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[i..]);
}

/// Saves `net` to a file.
pub fn save_network(net: &GeosocialNetwork, path: &Path) -> std::io::Result<()> {
    write_network(net, std::fs::File::create(path)?)
}

/// Default hard cap on vertex ids when the file declares no `V` line:
/// 2^26 vertices (≈ 67 M), comfortably above the paper's largest dataset
/// yet small enough that a corrupt id cannot ask for terabytes of memory.
pub const DEFAULT_MAX_VERTICES: u32 = 1 << 26;

/// Limits applied while parsing a network file — the defense against a
/// corrupt or hostile input allocating unbounded memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadLimits {
    /// Hard cap on the declared vertex count and on every vertex id.
    /// When the file declares `V n`, ids must additionally be `< n`.
    pub max_vertices: u32,
}

impl Default for LoadLimits {
    fn default() -> Self {
        LoadLimits { max_vertices: DEFAULT_MAX_VERTICES }
    }
}

/// Reads a network from the text format with [`LoadLimits::default`].
pub fn read_network<R: Read>(input: R) -> Result<GeosocialNetwork, LoadError> {
    read_network_with(input, LoadLimits::default())
}

/// Parses one whitespace-separated field as a vertex id under `cap`.
fn parse_id(field: Option<&str>, cap: u32) -> Result<u32, String> {
    let s = field.ok_or_else(|| "missing vertex id".to_string())?;
    let n: u64 = s.parse().map_err(|_| format!("expected an integer id, got {s:?}"))?;
    if n >= cap as u64 {
        return Err(format!("vertex id {n} out of range (must be < {cap})"));
    }
    Ok(n as u32)
}

/// Parses one whitespace-separated field as a coordinate.
fn parse_coord(field: Option<&str>) -> Result<f64, String> {
    let s = field.ok_or_else(|| "missing coordinate".to_string())?;
    s.parse().map_err(|_| format!("expected a coordinate, got {s:?}"))
}

/// Reads a network from the text format under explicit [`LoadLimits`].
///
/// The parser is hardened against malformed input: every failure is a
/// typed [`LoadError`] carrying the 1-based line number — it never panics
/// and never allocates proportionally to a corrupt id. Rejected inputs
/// include ids at or above the cap (the declared `V` count when present,
/// [`LoadLimits::max_vertices`] otherwise), duplicate `V` lines,
/// duplicate `P` lines for the same vertex, unknown tags, trailing
/// fields, and a late `V` declaration smaller than an already-seen id.
/// Non-finite coordinates parse but fail network validation
/// ([`LoadError::Network`]).
pub fn read_network_with<R: Read>(
    input: R,
    limits: LoadLimits,
) -> Result<GeosocialNetwork, LoadError> {
    let reader = BufReader::new(input);
    let mut builder = GraphBuilder::new(0);
    let mut points: Vec<Option<Point>> = Vec::new();
    let mut declared: Option<u32> = None;
    let mut max_seen: Option<u32> = None;

    let malformed = |line: usize, content: &str, reason: String| LoadError::Parse {
        line,
        content: content.to_string(),
        reason,
    };

    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let lineno = idx + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let cap = declared.unwrap_or(limits.max_vertices);
        let mut fields = trimmed.split_whitespace();
        match fields.next() {
            Some("V") => {
                if declared.is_some() {
                    return Err(malformed(lineno, trimmed, "duplicate V line".to_string()));
                }
                let s = fields
                    .next()
                    .ok_or_else(|| malformed(lineno, trimmed, "missing vertex count".to_string()))?;
                let n: u64 = s.parse().map_err(|_| {
                    malformed(lineno, trimmed, format!("expected a vertex count, got {s:?}"))
                })?;
                if n > gsr_graph::MAX_VERTICES as u64 {
                    return Err(malformed(
                        lineno,
                        trimmed,
                        format!(
                            "declared vertex count {n} exceeds the u32 id width \
                             (max {} vertices); ids are never truncated",
                            gsr_graph::MAX_VERTICES
                        ),
                    ));
                }
                if n > limits.max_vertices as u64 {
                    return Err(malformed(
                        lineno,
                        trimmed,
                        format!(
                            "declared vertex count {n} exceeds the limit of {}",
                            limits.max_vertices
                        ),
                    ));
                }
                let n = n as u32;
                if let Some(m) = max_seen {
                    if m >= n {
                        return Err(malformed(
                            lineno,
                            trimmed,
                            format!("vertex id {m} already seen is out of range for V {n}"),
                        ));
                    }
                }
                declared = Some(n);
            }
            Some("P") => {
                let v = parse_id(fields.next(), cap)
                    .map_err(|reason| malformed(lineno, trimmed, reason))?;
                let x = parse_coord(fields.next())
                    .map_err(|reason| malformed(lineno, trimmed, reason))?;
                let y = parse_coord(fields.next())
                    .map_err(|reason| malformed(lineno, trimmed, reason))?;
                if points.len() <= v as usize {
                    points.resize(v as usize + 1, None);
                }
                if points[v as usize].is_some() {
                    return Err(malformed(
                        lineno,
                        trimmed,
                        format!("duplicate point for vertex {v}"),
                    ));
                }
                points[v as usize] = Some(Point::new(x, y));
                builder.ensure_vertex(v);
                max_seen = Some(max_seen.map_or(v, |m| m.max(v)));
            }
            Some("E") => {
                let u = parse_id(fields.next(), cap)
                    .map_err(|reason| malformed(lineno, trimmed, reason))?;
                let v = parse_id(fields.next(), cap)
                    .map_err(|reason| malformed(lineno, trimmed, reason))?;
                builder.add_edge(u, v);
                max_seen = Some(max_seen.map_or(u.max(v), |m| m.max(u).max(v)));
            }
            Some(tag) => {
                return Err(malformed(lineno, trimmed, format!("unknown tag {tag:?}")));
            }
            None => unreachable!("split_whitespace of a non-empty trimmed line yields a field"),
        }
        if let Some(extra) = fields.next() {
            return Err(malformed(lineno, trimmed, format!("trailing field {extra:?}")));
        }
    }

    let n = declared.unwrap_or(0) as usize;
    let n = n.max(builder.num_vertices()).max(points.len());
    for v in 0..n {
        builder.ensure_vertex(v as u32);
    }
    points.resize(n, None);
    GeosocialNetwork::new(builder.build(), points).map_err(LoadError::Network)
}

/// Loads a network from a file.
pub fn load_network(path: &Path) -> Result<GeosocialNetwork, LoadError> {
    read_network(std::fs::File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetworkSpec;

    #[test]
    fn round_trip_preserves_everything() {
        let net = NetworkSpec::weeplaces(0.05).generate();
        let mut buf = Vec::new();
        write_network(&net, &mut buf).unwrap();
        let loaded = read_network(buf.as_slice()).unwrap();

        assert_eq!(loaded.num_vertices(), net.num_vertices());
        assert_eq!(loaded.graph().num_edges(), net.graph().num_edges());
        assert_eq!(loaded.num_spatial(), net.num_spatial());
        for v in net.graph().vertices() {
            assert_eq!(loaded.point(v), net.point(v), "point of {v}");
            assert_eq!(loaded.graph().out_neighbors(v), net.graph().out_neighbors(v));
        }
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "# header\n\nV 3\nP 2 1.5 2.5\n  # indented comment\nE 0 1\nE 1 2\n";
        let net = read_network(text.as_bytes()).unwrap();
        assert_eq!(net.num_vertices(), 3);
        assert_eq!(net.graph().num_edges(), 2);
        assert_eq!(net.point(2), Some(Point::new(1.5, 2.5)));
    }

    #[test]
    fn malformed_lines_are_reported_with_position() {
        let text = "V 2\nE 0\n";
        match read_network(text.as_bytes()) {
            Err(LoadError::Parse { line: 2, .. }) => {}
            other => panic!("expected parse error on line 2, got {other:?}"),
        }
        let text2 = "X what\n";
        assert!(matches!(read_network(text2.as_bytes()), Err(LoadError::Parse { line: 1, .. })));
    }

    #[test]
    fn declared_count_caps_ids() {
        // V declares 1 vertex; ids 5 and 9 are out of range.
        let text = "V 1\nP 5 0 0\nE 0 9\n";
        assert!(matches!(read_network(text.as_bytes()), Err(LoadError::Parse { line: 2, .. })));
    }

    #[test]
    fn undeclared_count_grows_to_fit_ids() {
        // Without a V line, ids grow the network (up to the limit).
        let text = "P 5 0 0\nE 0 9\n";
        let net = read_network(text.as_bytes()).unwrap();
        assert_eq!(net.num_vertices(), 10);
        assert!(net.is_spatial(5));
    }

    #[test]
    fn late_v_line_must_cover_seen_ids() {
        let ok = "P 2 0 0\nV 3\n";
        assert_eq!(read_network(ok.as_bytes()).unwrap().num_vertices(), 3);
        let bad = "P 5 0 0\nV 3\n";
        assert!(matches!(read_network(bad.as_bytes()), Err(LoadError::Parse { line: 2, .. })));
    }

    #[test]
    fn custom_limits_cap_undeclared_ids() {
        let text = "E 0 1000\n";
        let tight = LoadLimits { max_vertices: 100 };
        assert!(matches!(
            read_network_with(text.as_bytes(), tight),
            Err(LoadError::Parse { line: 1, .. })
        ));
        assert!(read_network(text.as_bytes()).is_ok(), "default limit admits id 1000");
    }

    #[test]
    fn huge_declared_count_is_rejected_not_allocated() {
        let text = format!("V {}\n", u64::from(DEFAULT_MAX_VERTICES) + 1);
        assert!(matches!(read_network(text.as_bytes()), Err(LoadError::Parse { line: 1, .. })));
    }

    #[test]
    fn over_u32_declared_count_is_a_typed_id_width_error() {
        // A synthetic header declaring V = 2^32 must be rejected with a
        // typed error naming the u32 id width — never silently truncated
        // to 0 vertices. Even an explicitly permissive limit cannot widen
        // the id space past u32.
        for v in [1u64 << 32, (1u64 << 32) + 7, u64::MAX] {
            let text = format!("V {v}\n");
            let permissive = LoadLimits { max_vertices: u32::MAX };
            match read_network_with(text.as_bytes(), permissive) {
                Err(LoadError::Parse { line: 1, reason, .. }) => {
                    assert!(reason.contains("u32 id width"), "reason = {reason:?}");
                }
                other => panic!("expected typed id-width error for V {v}, got {other:?}"),
            }
        }
    }

    #[test]
    fn duplicate_v_and_p_lines_are_rejected() {
        let dup_v = "V 2\nV 3\n";
        assert!(matches!(read_network(dup_v.as_bytes()), Err(LoadError::Parse { line: 2, .. })));
        let dup_p = "V 3\nP 1 0 0\nP 1 2 2\n";
        assert!(matches!(read_network(dup_p.as_bytes()), Err(LoadError::Parse { line: 3, .. })));
    }

    #[test]
    fn trailing_fields_are_rejected() {
        let text = "V 2\nE 0 1 extra\n";
        assert!(matches!(read_network(text.as_bytes()), Err(LoadError::Parse { line: 2, .. })));
    }

    #[test]
    fn non_finite_coordinates_fail_validation() {
        let text = "V 2\nP 1 NaN 0\n";
        assert!(matches!(read_network(text.as_bytes()), Err(LoadError::Network(_))));
        let inf = "V 2\nP 1 inf 0\n";
        assert!(matches!(read_network(inf.as_bytes()), Err(LoadError::Network(_))));
    }

    #[test]
    fn parse_errors_carry_reasons() {
        let text = "V 1\nP 5 0 0\n";
        match read_network(text.as_bytes()) {
            Err(LoadError::Parse { line: 2, reason, .. }) => {
                assert!(reason.contains("out of range"), "reason = {reason:?}");
            }
            other => panic!("expected a parse error with reason, got {other:?}"),
        }
    }

    /// FNV-1a-64 of the text the benchmark fingerprints at `--smoke` scale.
    /// A change to the writer or the generator moves these.
    #[test]
    fn smoke_scale_text_is_pinned() {
        struct Fnv(u64);
        impl Write for Fnv {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                for &b in buf {
                    self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
                }
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        for (spec, want) in [
            (NetworkSpec::gowalla(0.5), 0xb4ad_9420_b1cb_1681),
            (NetworkSpec::foursquare(0.5), 0xf85d_dfc4_3417_eeec),
        ] {
            let mut h = Fnv(0xcbf2_9ce4_8422_2325);
            write_network(&spec.generate(), &mut h).unwrap();
            assert_eq!(h.0, want, "{}", spec.name);
        }
    }

    #[test]
    fn file_round_trip() {
        let scratch = crate::faults::ScratchDir::new("gsr_io_test").unwrap();
        let path = scratch.path().join("net.gsr");
        let net = NetworkSpec::yelp(0.01).generate();
        save_network(&net, &path).unwrap();
        let loaded = load_network(&path).unwrap();
        assert_eq!(loaded.num_vertices(), net.num_vertices());
        assert_eq!(loaded.graph().num_edges(), net.graph().num_edges());
    }
}
