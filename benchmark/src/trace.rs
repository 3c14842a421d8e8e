//! In-memory spans at the layer boundaries the benchmark itself crosses.
//!
//! Spans go into a buffer preallocated before any timing and are written to
//! `out/trace-<workload>.json` when the run ends. A layer's **self time** is
//! its span minus the part its children cover. With tracing off nothing is
//! recorded; the gap between a traced and an untraced pass is reported as
//! `trace.overhead_frac`. Spans inside `gsr serve` are a later change.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// "No parent" / "not recorded" span id.
pub const NONE: u32 = u32::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    /// Spans of one request share its id; 0 for spans outside any request.
    pub request_id: u64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    pub fn new(enabled: bool, capacity: usize) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::with_capacity(if enabled { capacity } else { 0 }),
            dropped: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span; a full buffer drops it (and says so in the
    /// file) rather than reallocating inside a timed loop.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u32,
        request_id: u64,
    ) -> u32 {
        if !self.enabled {
            return NONE;
        }
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return NONE;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request_id,
        });
        (self.spans.len() - 1) as u32
    }

    /// Opens a span whose end is set by [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: u32, request_id: u64) -> u32 {
        let now = Instant::now();
        self.record(name, now, now, parent, request_id)
    }

    pub fn close(&mut self, id: u32) {
        if id != NONE {
            self.spans[id as usize].end_ns = self.ns(Instant::now());
        }
    }

    /// Runs `f` as a child span of `parent` and returns its result with the
    /// elapsed time, which is measured whether or not tracing is on — set-up
    /// metrics come from the same clock readings as the set-up spans.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, start, end, parent, 0);
        (out, end - start)
    }

    /// Per span name: `(count, total ns, self ns)`, self being the total
    /// minus the time covered by direct children.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                child_ns[s.parent as usize] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut table: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let total = s.end_ns.saturating_sub(s.start_ns);
            let e = table.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total;
            e.2 += total.saturating_sub(child_ns[i]);
        }
        table
    }

    pub fn print_self_times(&self) {
        for (name, (count, total, own)) in self.self_times() {
            println!(
                "span {name} count={count} total_us={:.3} self_us={:.3} self_per_span_us={:.3}",
                total as f64 / 1e3,
                own as f64 / 1e3,
                own as f64 / 1e3 / count as f64
            );
        }
    }

    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{{\"dropped\": {}, \"spans\": [", self.dropped)?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NONE {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                w,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request_id\": {}}}{comma}",
                s.name, s.start_ns, s.end_ns, s.request_id
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let mut t = Tracer::new(true, 8);
        let t0 = t.origin;
        let at = |ns: u64| t0 + Duration::from_nanos(ns);
        let parent = t.record("request", at(0), at(100), NONE, 7);
        t.record("parse", at(10), at(30), parent, 7);
        t.record("query", at(30), at(90), parent, 7);
        let table = t.self_times();
        assert_eq!(table["request"], (1, 100, 20));
        assert_eq!(table["query"], (1, 60, 60));
    }

    #[test]
    fn a_disabled_tracer_records_nothing_but_still_times() {
        let mut t = Tracer::new(false, 8);
        let (v, d) = t.timed("x", NONE, || 5);
        assert_eq!(v, 5);
        assert!(d >= Duration::ZERO);
        assert!(t.self_times().is_empty());
    }
}
