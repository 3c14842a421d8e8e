//! The newline-delimited text protocol and its error-code mapping.
//!
//! Requests are single lines; replies are single lines. One request, one
//! reply, in order — clients may pipeline arbitrarily many requests
//! without waiting.
//!
//! ```text
//! REACH <v> <min_x> <min_y> <max_x> <max_y>   ->  TRUE | FALSE | ERR <code> <msg>
//! USE <dataset>                               ->  OK use <dataset> | ERR 2 unknown dataset (this connection switches index)
//! STATS                                       ->  STATS queries=N errors=N p50_us=N p99_us=N p999_us=N index_bytes=N ...
//! RESET                                       ->  OK reset      (zeroes counters, keeps the index)
//! RELOAD <path>                               ->  OK reload index_bytes=N | ERR <code> <msg> (old index keeps serving)
//! SHUTDOWN                                    ->  OK shutdown   (server stops accepting)
//! ```
//!
//! `ERR` codes mirror the CLI's exit-code mapping of the [`GsrError`]
//! taxonomy, so a service client and a shell script read the same numbers:
//! `1` internal, `2` protocol/malformed, `3` load, `4` invalid query
//! (vertex or rectangle), `5` budget exceeded, `6` cancelled. Code `7`
//! ([`BUSY_ERR`]) is service-level overload: the server sheds the
//! connection (`ERR 7 busy retry_ms=<hint>` on admission-control rejection,
//! `ERR 7 idle timeout ...` when a silent connection is reaped) and closes
//! it; the client should back off and reconnect.

use gsr_core::GsrError;
use gsr_geo::Rect;
use gsr_graph::VertexId;

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `REACH v min_x min_y max_x max_y` — one `RangeReach` query. The
    /// rectangle is *not* validated here; validation happens inside the
    /// batch executor so invalid regions surface as `ERR 4`, per query.
    Reach(VertexId, Rect),
    /// `USE <dataset>` — switch this connection's subsequent requests to
    /// the named dataset (one process can register several indexes; see
    /// the server's registry). Pipelined `REACH` lines before a `USE` are
    /// flushed against the previous dataset first.
    Use(String),
    /// `STATS` — report service counters.
    Stats,
    /// `RESET` — zero the service counters (queries, errors, latency
    /// histogram, cache hit/miss/eviction tallies). The loaded index and
    /// cached entries are untouched; a load driver resets between sweep
    /// steps so each step's `STATS` stands alone.
    Reset,
    /// `RELOAD <path>` — load and CRC-validate the snapshot at `path`,
    /// then atomically swap it in as the served index (result cache
    /// cleared; in-flight batches finish on the old index). On any load
    /// failure the old index keeps serving and the reply is a typed `ERR`.
    Reload(String),
    /// `SHUTDOWN` — stop the server gracefully.
    Shutdown,
}

/// The `ERR` code of a [`GsrError`], aligned with the CLI exit codes.
fn error_code(e: &GsrError) -> u8 {
    match e {
        GsrError::Internal(_) => 1,
        GsrError::Load(_) => 3,
        GsrError::InvalidVertex { .. } | GsrError::InvalidRect { .. } => 4,
        GsrError::Timeout { .. } => 5,
        GsrError::Cancelled => 6,
    }
}

/// Formats the `ERR` reply line for a query error.
pub fn error_reply(e: &GsrError) -> String {
    format!("ERR {} {e}", error_code(e))
}

/// Protocol-level error code for lines that never parse into a request.
pub const PROTOCOL_ERR: u8 = 2;

/// Service-level overload error code: the server refused or reaped the
/// connection (admission control, idle timeout). Not part of the
/// [`GsrError`] taxonomy — overload is a property of the service, not of
/// any one query.
pub const BUSY_ERR: u8 = 7;

/// The shed reply sent (best-effort) before closing a refused connection.
/// `retry_ms` is a backoff hint, not a promise of capacity.
pub fn busy_reply(retry_ms: u64) -> String {
    format!("ERR {BUSY_ERR} busy retry_ms={retry_ms}\n")
}

/// Parses one request line. `Ok(None)` for blank lines (ignored),
/// `Err(msg)` for malformed input — the message becomes an
/// `ERR 2 <msg>` reply.
pub fn parse_line(line: &str) -> Result<Option<Request>, String> {
    let line = line.trim_end_matches('\r');
    let mut tokens = line.split_whitespace();
    let Some(cmd) = tokens.next() else {
        return Ok(None);
    };
    if cmd.eq_ignore_ascii_case("REACH") {
        let mut field = |name: &str| {
            tokens.next().ok_or_else(|| {
                format!(
                    "REACH: missing <{name}> (usage: REACH <v> <min_x> <min_y> <max_x> <max_y>)"
                )
            })
        };
        let v = field("v")?;
        let v: VertexId = v
            .parse()
            .map_err(|_| format!("REACH: vertex id {v:?} is not a non-negative integer"))?;
        let mut coord = |name: &str| -> Result<f64, String> {
            let raw = tokens.next().ok_or_else(|| {
                format!(
                    "REACH: missing <{name}> (usage: REACH <v> <min_x> <min_y> <max_x> <max_y>)"
                )
            })?;
            raw.parse().map_err(|_| format!("REACH: coordinate {raw:?} is not a number"))
        };
        let min_x = coord("min_x")?;
        let min_y = coord("min_y")?;
        let max_x = coord("max_x")?;
        let max_y = coord("max_y")?;
        if let Some(extra) = tokens.next() {
            return Err(format!("REACH: unexpected trailing token {extra:?}"));
        }
        // Struct literal, not `Rect::new`: an inverted rectangle must reach
        // the validating query layer (-> `ERR 4`), not a debug assertion.
        Ok(Some(Request::Reach(v, Rect { min_x, min_y, max_x, max_y })))
    } else if cmd.eq_ignore_ascii_case("USE") {
        // The dataset name is everything after the verb (names with
        // spaces survive); whitespace-only means the argument is missing.
        let name = line.trim_start()[cmd.len()..].trim();
        if name.is_empty() {
            return Err("USE: missing <dataset> (usage: USE <dataset>)".into());
        }
        Ok(Some(Request::Use(name.to_string())))
    } else if cmd.eq_ignore_ascii_case("STATS") {
        if tokens.next().is_some() {
            return Err("STATS takes no arguments".into());
        }
        Ok(Some(Request::Stats))
    } else if cmd.eq_ignore_ascii_case("RESET") {
        if tokens.next().is_some() {
            return Err("RESET takes no arguments".into());
        }
        Ok(Some(Request::Reset))
    } else if cmd.eq_ignore_ascii_case("RELOAD") {
        // The path is everything after the verb, so snapshot paths with
        // spaces survive; whitespace-only means the argument is missing.
        let path = line.trim_start()[cmd.len()..].trim();
        if path.is_empty() {
            return Err("RELOAD: missing <path> (usage: RELOAD <snapshot-path>)".into());
        }
        Ok(Some(Request::Reload(path.to_string())))
    } else if cmd.eq_ignore_ascii_case("SHUTDOWN") {
        if tokens.next().is_some() {
            return Err("SHUTDOWN takes no arguments".into());
        }
        Ok(Some(Request::Shutdown))
    } else {
        Err(format!(
            "unknown command {cmd:?} (expected REACH, USE, STATS, RESET, RELOAD or SHUTDOWN)"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_well_formed_requests() {
        assert_eq!(
            parse_line("REACH 7 0.5 1 2.5 3"),
            Ok(Some(Request::Reach(7, Rect { min_x: 0.5, min_y: 1.0, max_x: 2.5, max_y: 3.0 })))
        );
        assert_eq!(parse_line("stats"), Ok(Some(Request::Stats)));
        assert_eq!(parse_line("reset"), Ok(Some(Request::Reset)));
        assert_eq!(
            parse_line("RELOAD /var/snapshots/weeplaces.gsr"),
            Ok(Some(Request::Reload("/var/snapshots/weeplaces.gsr".into())))
        );
        assert_eq!(
            parse_line("  reload my snapshots/with spaces.gsr \r"),
            Ok(Some(Request::Reload("my snapshots/with spaces.gsr".into())))
        );
        assert_eq!(parse_line("USE gowalla"), Ok(Some(Request::Use("gowalla".into()))));
        assert_eq!(
            parse_line("  use yelp scale 3 \r"),
            Ok(Some(Request::Use("yelp scale 3".into())))
        );
        assert_eq!(parse_line("SHUTDOWN\r"), Ok(Some(Request::Shutdown)));
        assert_eq!(parse_line(""), Ok(None));
        assert_eq!(parse_line("   "), Ok(None));
    }

    #[test]
    fn rejects_malformed_requests_with_diagnostics() {
        assert!(parse_line("REACH").unwrap_err().contains("missing <v>"));
        assert!(parse_line("REACH x 0 0 1 1").unwrap_err().contains("vertex id"));
        assert!(parse_line("REACH 3 0 0 1").unwrap_err().contains("missing <max_y>"));
        assert!(parse_line("REACH 3 0 0 one 1").unwrap_err().contains("not a number"));
        assert!(parse_line("REACH 3 0 0 1 1 9").unwrap_err().contains("trailing"));
        assert!(parse_line("FETCH 3").unwrap_err().contains("unknown command"));
        assert!(parse_line("STATS now").unwrap_err().contains("no arguments"));
        assert!(parse_line("RESET hard").unwrap_err().contains("no arguments"));
        assert!(parse_line("RELOAD").unwrap_err().contains("missing <path>"));
        assert!(parse_line("RELOAD   \r").unwrap_err().contains("missing <path>"));
        assert!(parse_line("USE").unwrap_err().contains("missing <dataset>"));
        assert!(parse_line("USE   \r").unwrap_err().contains("missing <dataset>"));
    }

    #[test]
    fn busy_reply_carries_the_overload_code_and_hint() {
        assert_eq!(busy_reply(100), "ERR 7 busy retry_ms=100\n");
        assert_eq!(BUSY_ERR, 7, "code 7 extends the CLI exit-code range, which ends at 6");
    }

    #[test]
    fn inverted_rectangles_parse_and_defer_validation() {
        // The parser must not judge geometry; `ERR 4` comes from the query
        // layer.
        let r = parse_line("REACH 0 5 5 1 1").unwrap();
        assert!(matches!(r, Some(Request::Reach(0, _))));
    }

    #[test]
    fn error_codes_mirror_cli_exit_codes() {
        assert_eq!(error_code(&GsrError::Internal("x".into())), 1);
        assert_eq!(error_code(&GsrError::Load("x".into())), 3);
        assert_eq!(error_code(&GsrError::InvalidVertex { vertex: 9, num_vertices: 4 }), 4);
        assert_eq!(error_code(&GsrError::InvalidRect { reason: "r".into() }), 4);
        assert_eq!(error_code(&GsrError::Timeout { budget_ms: 5 }), 5);
        assert_eq!(error_code(&GsrError::Cancelled), 6);
        assert!(error_reply(&GsrError::Cancelled).starts_with("ERR 6 "));
    }
}
