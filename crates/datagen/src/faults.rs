//! Fault injection for the loader: a reader that fails mid-stream, a
//! writer that fails mid-save, a corpus of malformed network files, and
//! the hermetic [`ScratchDir`] the tests stage their files in.
//!
//! Robust loading is a testable property: every entry in
//! [`malformed_corpus`] must come back from [`crate::io::read_network`] as a
//! typed [`LoadError`](crate::io::LoadError) — never a panic, never a bogus
//! network — and [`FailingReader`] checks that I/O failures surfacing
//! mid-parse map to [`LoadError::Io`](crate::io::LoadError) at any cut point.
//! [`FailingWriter`] is the mirror image for persistence paths: a snapshot
//! save interrupted at a byte-exact position must surface a typed error
//! and leave any previously saved file intact. The corpus is used by the
//! integration suite.

use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Wraps a reader and injects an [`io::Error`] once `budget` bytes have
/// been served — simulating a connection dropped or a file truncated
/// mid-transfer at a byte-exact position.
///
/// End-of-input inside the budget is reported normally; the fault fires
/// only when the consumer asks for bytes *past* the budget.
#[derive(Debug)]
pub struct FailingReader<R> {
    inner: R,
    remaining: usize,
}

impl<R: Read> FailingReader<R> {
    /// Serves at most `budget` bytes from `inner`, then fails.
    pub fn new(inner: R, budget: usize) -> Self {
        FailingReader { inner, remaining: budget }
    }
}

impl<R: Read> Read for FailingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.remaining == 0 {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "injected i/o fault"));
        }
        let want = buf.len().min(self.remaining);
        let got = self.inner.read(&mut buf[..want])?;
        self.remaining -= got;
        Ok(got)
    }
}

/// Wraps a writer and injects an [`io::Error`] once `budget` bytes have
/// been accepted — simulating a disk filling up or a process killed
/// mid-save at a byte-exact position.
#[derive(Debug)]
pub struct FailingWriter<W> {
    inner: W,
    remaining: usize,
}

impl<W: Write> FailingWriter<W> {
    /// Accepts at most `budget` bytes into `inner`, then fails.
    pub fn new(inner: W, budget: usize) -> Self {
        FailingWriter { inner, remaining: budget }
    }

    /// The wrapped writer (to inspect what made it through).
    #[cfg(test)]
    fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for FailingWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.remaining == 0 {
            return Err(io::Error::new(io::ErrorKind::WriteZero, "injected i/o fault"));
        }
        let want = buf.len().min(self.remaining);
        let accepted = self.inner.write(&buf[..want])?;
        self.remaining -= accepted;
        Ok(accepted)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// A scratch directory under the system temp dir that is this caller's
/// alone: its name carries the process id plus a process-wide counter, so
/// concurrent users — two tests of one binary, two `cargo test` runs —
/// never share or delete each other's files. Removed on drop, whichever
/// way the caller ends.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates `<temp>/<prefix>_<pid>_<n>`; `prefix` only names the site
    /// for whoever inspects the temp dir.
    pub fn new(prefix: &str) -> io::Result<ScratchDir> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let name =
            format!("{prefix}_{}_{}", std::process::id(), NEXT.fetch_add(1, Ordering::Relaxed));
        let dir = std::env::temp_dir().join(name);
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Which [`LoadError`](crate::io::LoadError) variant a malformed input must
/// produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExpectedFailure {
    /// A structural error: `LoadError::Parse` with a line number.
    Parse,
    /// Parses structurally but fails network validation:
    /// `LoadError::Network`.
    Network,
}

/// One malformed input and the failure it must produce.
#[derive(Debug, Clone, Copy)]
pub struct MalformedCase {
    /// Short identifier, printed on failure.
    pub name: &'static str,
    /// The file content.
    pub text: &'static str,
    /// The required loader reaction.
    pub expected: ExpectedFailure,
}

/// The corpus of malformed network files. Every case must be rejected by
/// [`crate::io::read_network`] with the expected [`LoadError`](crate::io::LoadError)
/// variant; none may panic or load.
pub fn malformed_corpus() -> Vec<MalformedCase> {
    use ExpectedFailure::{Network, Parse};
    let case = |name, text, expected| MalformedCase { name, text, expected };
    vec![
        case("truncated-edge", "V 3\nE 0\n", Parse),
        case("truncated-point", "V 3\nP 1 2.0\n", Parse),
        case("duplicate-point", "V 3\nP 1 0 0\nP 1 1 1\n", Parse),
        case("edge-id-over-declared", "V 2\nE 0 5\n", Parse),
        case("point-id-over-declared", "V 2\nP 7 0 0\n", Parse),
        case("nan-coordinate", "V 2\nP 1 NaN 0\n", Network),
        case("inf-coordinate", "V 2\nP 1 inf 0\n", Network),
        case("edge-id-over-limit", "E 4000000000 0\n", Parse),
        case("declared-count-over-limit", "V 99999999999\n", Parse),
        case("non-numeric-count", "V lots\n", Parse),
        case("duplicate-v", "V 2\nV 2\n", Parse),
        case("late-v-underdeclared", "E 0 9\nV 3\n", Parse),
        case("unknown-tag", "Q 1 2\n", Parse),
        case("negative-id", "E -1 0\n", Parse),
        case("trailing-fields", "E 0 1 junk\n", Parse),
        case("non-numeric-coordinate", "V 2\nP 1 here there\n", Parse),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{read_network, write_network, LoadError};
    use crate::NetworkSpec;

    #[test]
    fn corpus_cases_are_rejected_with_the_expected_variant() {
        for case in malformed_corpus() {
            match (read_network(case.text.as_bytes()), case.expected) {
                (Err(LoadError::Parse { .. }), ExpectedFailure::Parse) => {}
                (Err(LoadError::Network(_)), ExpectedFailure::Network) => {}
                (outcome, expected) => panic!(
                    "case {:?}: expected {:?}, got {:?}",
                    case.name,
                    expected,
                    outcome.map(|n| n.num_vertices())
                ),
            }
        }
    }

    #[test]
    fn failing_reader_maps_to_io_error_at_any_cut_point() {
        let mut text = Vec::new();
        write_network(&NetworkSpec::weeplaces(0.02).generate(), &mut text).unwrap();
        // Cut the stream at a spread of byte positions, including ones
        // that land mid-line; the loader must report Io every time.
        for budget in [0, 1, 7, text.len() / 2, text.len() - 1] {
            let reader = FailingReader::new(text.as_slice(), budget);
            match read_network(reader) {
                Err(LoadError::Io(_)) => {}
                other => panic!(
                    "budget {budget}: expected Io, got {:?}",
                    other.map(|n| n.num_vertices())
                ),
            }
        }
    }

    #[test]
    fn failing_writer_fails_exactly_past_its_budget() {
        let mut w = FailingWriter::new(Vec::new(), 5);
        assert_eq!(w.write(b"abc").unwrap(), 3);
        assert_eq!(w.write(b"defg").unwrap(), 2, "clipped to the remaining budget");
        let e = w.write(b"h").unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::WriteZero);
        assert_eq!(w.into_inner(), b"abcde");

        // write_all surfaces the injected fault as an error, never a hang.
        let mut w = FailingWriter::new(Vec::new(), 4);
        assert!(w.write_all(b"0123456789").is_err());
    }

    #[test]
    fn failing_reader_with_full_budget_is_transparent() {
        let mut text = Vec::new();
        let net = NetworkSpec::weeplaces(0.02).generate();
        write_network(&net, &mut text).unwrap();
        // One spare byte so the final EOF probe stays inside the budget.
        let reader = FailingReader::new(text.as_slice(), text.len() + 1);
        let loaded = read_network(reader).unwrap();
        assert_eq!(loaded.num_vertices(), net.num_vertices());
        assert_eq!(loaded.graph().num_edges(), net.graph().num_edges());
    }
}
