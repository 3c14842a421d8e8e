//! The error taxonomy of the fallible query layer.
//!
//! Every entry point that consumes untrusted input — query vertices and
//! regions from the network, files from disk, batches from a service
//! frontend — reports failures through [`GsrError`] instead of panicking.
//! The variants mirror the ways a production geosocial service can be fed
//! bad input or run out of patience:
//!
//! * [`GsrError::InvalidVertex`] / [`GsrError::InvalidRect`] — the query
//!   itself is malformed (out-of-range id, NaN or inverted rectangle);
//! * [`GsrError::Load`] — a dataset failed to parse or validate;
//! * [`GsrError::Timeout`] / [`GsrError::Cancelled`] — a batch exceeded
//!   its time budget or was cooperatively cancelled (see
//!   [`crate::BatchExecutor::run_bounded`]);
//! * [`GsrError::Internal`] — a query panicked; the panic is caught at the
//!   batch boundary and converted, so one poisoned query cannot take down
//!   its whole batch.

use gsr_geo::Rect;
use gsr_graph::VertexId;

/// Errors surfaced by the fallible query layer.
#[derive(Debug, Clone, PartialEq)]
pub enum GsrError {
    /// The query vertex id is not a vertex of the indexed network.
    InvalidVertex {
        /// The offending id.
        vertex: VertexId,
        /// Number of vertices of the indexed network (valid ids are
        /// `0..num_vertices`).
        num_vertices: usize,
    },
    /// The query rectangle is malformed (non-finite or inverted extrema).
    InvalidRect {
        /// Human-readable description including the offending coordinates.
        reason: String,
    },
    /// A dataset could not be loaded (I/O, parse or validation failure).
    Load(String),
    /// A batch exceeded its time budget; partial results are available.
    Timeout {
        /// The budget that was exceeded, in milliseconds.
        budget_ms: u64,
    },
    /// A batch was cooperatively cancelled; partial results are available.
    Cancelled,
    /// A query panicked; the payload message is preserved.
    Internal(String),
}

impl std::fmt::Display for GsrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GsrError::InvalidVertex { vertex, num_vertices } => {
                write!(f, "invalid query vertex {vertex}: network has {num_vertices} vertices")
            }
            GsrError::InvalidRect { reason } => write!(f, "invalid query rectangle: {reason}"),
            GsrError::Load(msg) => write!(f, "load error: {msg}"),
            GsrError::Timeout { budget_ms } => {
                write!(f, "time budget of {budget_ms} ms exceeded")
            }
            GsrError::Cancelled => write!(f, "cancelled"),
            GsrError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for GsrError {}

/// Validates a query vertex id against the indexed vertex count.
fn validate_vertex(num_vertices: usize, v: VertexId) -> Result<(), GsrError> {
    if (v as usize) < num_vertices {
        Ok(())
    } else {
        Err(GsrError::InvalidVertex { vertex: v, num_vertices })
    }
}

/// Validates a query rectangle: all four extrema must be finite and the
/// minima must not exceed the maxima. `Rect::new` only `debug_assert`s the
/// ordering, so release builds can be handed an inverted rectangle — this
/// is the checked boundary.
fn validate_rect(region: &Rect) -> Result<(), GsrError> {
    let coords = [region.min_x, region.min_y, region.max_x, region.max_y];
    if coords.iter().any(|c| !c.is_finite()) {
        return Err(GsrError::InvalidRect {
            reason: format!(
                "non-finite coordinate in [{}, {}] x [{}, {}]",
                region.min_x, region.max_x, region.min_y, region.max_y
            ),
        });
    }
    if region.min_x > region.max_x || region.min_y > region.max_y {
        return Err(GsrError::InvalidRect {
            reason: format!(
                "inverted extrema in [{}, {}] x [{}, {}]",
                region.min_x, region.max_x, region.min_y, region.max_y
            ),
        });
    }
    Ok(())
}

/// Validates a full `RangeReach` query (vertex + region).
pub(crate) fn validate_query(
    num_vertices: usize,
    v: VertexId,
    region: &Rect,
) -> Result<(), GsrError> {
    validate_vertex(num_vertices, v)?;
    validate_rect(region)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vertex_bounds() {
        assert!(validate_vertex(3, 2).is_ok());
        assert!(matches!(
            validate_vertex(3, 3),
            Err(GsrError::InvalidVertex { vertex: 3, num_vertices: 3 })
        ));
        assert!(validate_vertex(0, 0).is_err(), "empty network has no valid vertex");
    }

    #[test]
    fn rect_validation() {
        assert!(validate_rect(&Rect::new(0.0, 0.0, 1.0, 1.0)).is_ok());
        assert!(validate_rect(&Rect::new(1.0, 1.0, 1.0, 1.0)).is_ok(), "degenerate is fine");
        let nan = Rect { min_x: f64::NAN, min_y: 0.0, max_x: 1.0, max_y: 1.0 };
        assert!(matches!(validate_rect(&nan), Err(GsrError::InvalidRect { .. })));
        let inf = Rect { min_x: 0.0, min_y: 0.0, max_x: f64::INFINITY, max_y: 1.0 };
        assert!(matches!(validate_rect(&inf), Err(GsrError::InvalidRect { .. })));
        let inverted = Rect { min_x: 2.0, min_y: 0.0, max_x: 1.0, max_y: 1.0 };
        assert!(matches!(validate_rect(&inverted), Err(GsrError::InvalidRect { .. })));
    }

    #[test]
    fn display_messages_are_descriptive() {
        let e = GsrError::InvalidVertex { vertex: 9, num_vertices: 4 };
        assert!(e.to_string().contains("9"));
        assert!(e.to_string().contains("4"));
        assert!(GsrError::Timeout { budget_ms: 7 }.to_string().contains("7 ms"));
        assert_eq!(GsrError::Cancelled.to_string(), "cancelled");
    }
}
