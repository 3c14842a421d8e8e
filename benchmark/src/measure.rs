//! Sample collection and the statistics every reported number goes through.
//!
//! A timed phase is cut into slices ([`SLICES`] of them unless the workload
//! says otherwise). A reported rate or percentile is the **decile of the
//! per-slice values on the undisturbed side** (the ninth decile of rates, the
//! first of times): on a shared host a neighbour only ever slows a slice down,
//! so the slow slices measure the neighbours and the fast ones the program
//! (the README has the run-to-run spreads of both). The median, smallest and
//! largest slice value are printed beside it. Percentiles are exact (nearest
//! rank over raw nanosecond samples), never bucket edges.

use std::collections::BTreeMap;
use std::time::Duration;

/// Number of equal slices a timed phase is cut into.
pub const SLICES: usize = 30;

/// Nearest-rank percentile of an ascending slice; 0 when empty.
pub fn percentile(sorted: &[u32], q: f64) -> u32 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a set of values (mean of the middle two when even); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Quantile `q` of a set of values, interpolated between the two nearest
/// ranks; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (at - lo as f64)
}

/// Which side of a set of repeated measurements the host leaves undisturbed:
/// the low one for times, the high one for rates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Good {
    Low,
    High,
}

/// The value a set of repeated measurements reports: their decile on the
/// undisturbed side.
pub fn steady(values: &[f64], good: Good) -> f64 {
    quantile(
        values,
        match good {
            Good::Low => 0.1,
            Good::High => 0.9,
        },
    )
}

/// What a phase reports of its slice values: the decile on the undisturbed
/// side, with the median, min and max slice beside it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Spread {
    pub value: f64,
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

impl Spread {
    pub fn of(values: &[f64], good: Good) -> Spread {
        Spread {
            value: steady(values, good),
            median: median(values),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    /// The same spread in another unit.
    pub fn scaled(self, by: f64) -> Spread {
        Spread {
            value: self.value * by,
            median: self.median * by,
            min: self.min * by,
            max: self.max * by,
        }
    }
}

/// One slice of a phase: how long it ran, how many operations completed in
/// it, and — when the phase times its operations — their latencies in
/// nanoseconds (saturating at `u32::MAX` ≈ 4.3 s), ascending.
#[derive(Debug, Clone, Default)]
pub struct Slice {
    pub duration: Duration,
    pub completed: u64,
    pub latencies_ns: Vec<u32>,
}

impl Slice {
    /// A slice whose every completed operation was timed.
    pub fn timed(duration: Duration, mut latencies_ns: Vec<u32>) -> Slice {
        latencies_ns.sort_unstable();
        Slice {
            duration,
            completed: latencies_ns.len() as u64,
            latencies_ns,
        }
    }
}

/// How many of `count` samples, spread evenly over `rounds` rounds, fall into
/// `round`: the restarts and rebuilds a workload takes between its slices, so
/// that they see as much of the run's time as the slices do.
pub fn due(round: usize, rounds: usize, count: usize) -> usize {
    (round + 1) * count / rounds - round * count / rounds
}

/// Saturating nanoseconds of a duration, as stored in a [`Slice`].
pub fn ns32(d: Duration) -> u32 {
    d.as_nanos().min(u32::MAX as u128) as u32
}

/// A timed phase: its [`SLICES`] slices, which need not be contiguous in
/// time — the workloads interleave the slices of their phases, so that a
/// disturbance of a few seconds falls on one or two slices of every phase
/// rather than on every slice of one.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    pub slices: Vec<Slice>,
}

impl Phase {
    pub fn count(&self) -> usize {
        self.slices.iter().map(|s| s.completed as usize).sum()
    }

    /// Operations per second in each slice.
    pub fn slice_rates(&self) -> Vec<f64> {
        self.slices
            .iter()
            .map(|s| s.completed as f64 / s.duration.as_secs_f64())
            .collect()
    }

    /// Operations per second over the slices.
    pub fn rate(&self) -> Spread {
        Spread::of(&self.slice_rates(), Good::High)
    }

    /// A latency percentile in microseconds over the slices. Slices without
    /// samples are left out rather than counted as zero latency.
    pub fn quantile_us(&self, q: f64) -> Spread {
        let values: Vec<f64> = self
            .slices
            .iter()
            .filter(|s| !s.latencies_ns.is_empty())
            .map(|s| percentile(&s.latencies_ns, q) as f64 / 1000.0)
            .collect();
        if values.is_empty() {
            return Spread::default();
        }
        Spread::of(&values, Good::Low)
    }

    /// The smallest number of samples beyond percentile `q` in any slice with
    /// samples — a p99 is only a p99 with at least ten.
    pub fn samples_beyond(&self, q: f64) -> usize {
        self.slices
            .iter()
            .map(|s| s.latencies_ns.len())
            .filter(|&n| n > 0)
            .map(|n| n - ((q * n as f64).ceil() as usize).min(n))
            .min()
            .unwrap_or(0)
    }
}

/// FNV-1a, 64 bit, as an [`std::io::Write`] sink so `write_network` can
/// stream a network's text through it.
#[derive(Debug, Clone)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

impl std::io::Write for Fnv {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.update(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Every metric of one run, printed by name and unit as it is set, and
/// emitted as the result line at the end.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<String, f64>,
    /// Operations attempted and failed over all phases: the correctness gate.
    pub attempted: u64,
    pub failed: u64,
    /// Reasons the run is incorrect beyond failed operations (counter
    /// reconciliation, oracle disagreement).
    pub violations: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64, unit: &str) {
        println!("metric {name} {value} {unit}");
        self.values.insert(name.to_string(), value);
    }

    /// A phase's value with its spread and sample count printed beside it.
    pub fn set_spread(&mut self, name: &str, s: Spread, unit: &str, n: usize) {
        println!(
            "metric {name} {} {unit} median={} min={} max={} n={n}",
            s.value, s.median, s.min, s.max
        );
        self.values.insert(name.to_string(), s.value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    pub fn info(&self, key: &str, value: impl std::fmt::Display) {
        println!("info {key} {value}");
    }

    /// A phase's value that is no metric of the result line, with its spread.
    pub fn info_spread(&self, key: &str, s: Spread, n: usize) {
        println!(
            "info {key} {} median={} min={} max={} n={n}",
            s.value, s.median, s.min, s.max
        );
    }

    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn violation(&mut self, why: String) {
        println!("violation {why}");
        self.violations.push(why);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty() && self.attempted > 0
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn a_phase_reports_the_undisturbed_decile() {
        let slice = |ms: u64, lat: &[u32]| Slice::timed(Duration::from_millis(ms), lat.to_vec());
        let phase = Phase {
            slices: vec![
                slice(10, &[30, 10]),
                slice(10, &[20]),
                slice(10, &[]),
                slice(20, &[50, 50, 40, 60]),
            ],
        };
        assert_eq!(phase.count(), 7);
        assert_eq!(phase.slice_rates(), vec![200.0, 100.0, 0.0, 200.0]);
        // Slices hold {10,30} {20} {} {40,50,50,60}; the empty one is left out.
        let p50 = phase.quantile_us(0.5);
        assert_eq!((p50.min, p50.median, p50.max), (0.010, 0.020, 0.050));
        assert!((p50.value - 0.012).abs() < 1e-12);
        assert_eq!(phase.rate().value, 200.0);
        assert_eq!(phase.samples_beyond(0.5), 0);
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(quantile(&v, 0.5), median(&v));
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.75), 1.75);
        assert!((steady(&v, Good::Low) - 1.4).abs() < 1e-12);
        assert!((steady(&v, Good::High) - 4.6).abs() < 1e-12);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn due_spreads_samples_evenly() {
        for (rounds, count) in [(30, 10), (30, 25), (15, 25), (30, 3), (30, 0)] {
            let per_round: Vec<usize> = (0..rounds).map(|r| due(r, rounds, count)).collect();
            assert_eq!(per_round.iter().sum::<usize>(), count);
            let (min, max) = (per_round.iter().min(), per_round.iter().max());
            assert!(max.unwrap() - min.unwrap() <= 1, "{per_round:?}");
        }
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        let mut h = Fnv::default();
        h.update(b"a");
        assert_eq!(h.0, 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::default();
        h.update(b"foobar");
        assert_eq!(h.0, 0x8594_4171_f739_67e8);
    }
}
