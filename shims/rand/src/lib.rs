//! Offline drop-in subset of the `rand` 0.8 API.
//!
//! The build environment has no network access, so this tiny vendored crate
//! provides the slice of `rand` the workspace actually uses: [`SeedableRng`],
//! the [`Rng`] extension trait with `gen_range`/`gen_bool`/`gen`, and
//! [`rngs::StdRng`]/[`rngs::SmallRng`] backed by xoshiro256++ seeded through
//! splitmix64. Streams are deterministic per seed (they do not match the
//! upstream `rand` streams bit-for-bit, which nothing in this workspace
//! relies on).

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// Core random-number source: a stream of `u64`s.
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

/// A type that can be sampled uniformly from a range by an [`Rng`].
pub trait SampleUniform: Sized + Copy {
    /// Uniform sample from `[lo, hi)`; `hi` is exclusive unless
    /// `inclusive` is set.
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self, inclusive: bool) -> Self;
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range<R: RngCore + ?Sized>(
                rng: &mut R,
                lo: Self,
                hi: Self,
                inclusive: bool,
            ) -> Self {
                let lo_w = lo as i128;
                let hi_w = hi as i128;
                let span = (hi_w - lo_w + if inclusive { 1 } else { 0 }) as u128;
                assert!(span > 0, "cannot sample from empty range");
                // Multiply-shift bounded sampling (bias < 2^-64 per draw:
                // negligible for simulation workloads).
                let x = rng.next_u64() as u128;
                let v = (x * span) >> 64;
                (lo_w + v as i128) as $t
            }
        }
    )*};
}

impl_sample_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_sample_uniform_float {
    ($t:ty, $mantissa_bits:expr) => {
        impl SampleUniform for $t {
            fn sample_range<R: RngCore + ?Sized>(
                rng: &mut R,
                lo: Self,
                hi: Self,
                _inclusive: bool,
            ) -> Self {
                assert!(lo <= hi, "cannot sample from inverted range");
                let unit = (rng.next_u64() >> (64 - $mantissa_bits)) as $t
                    / (1u64 << $mantissa_bits) as $t;
                let v = lo + (hi - lo) * unit;
                // Guard against rounding up to the exclusive bound.
                if v >= hi && lo < hi {
                    lo
                } else {
                    v
                }
            }
        }
    };
}

impl_sample_uniform_float!(f64, 53);
impl_sample_uniform_float!(f32, 24);

/// A range argument accepted by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws a uniform sample from the range.
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_range(rng, self.start, self.end, false)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        T::sample_range(rng, lo, hi, true)
    }
}

/// Values producible by [`Rng::gen`].
pub trait Standard {
    /// Draws one value.
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Standard for bool {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Extension methods over any [`RngCore`], mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// Uniform sample from a range, e.g. `rng.gen_range(0..10)` or
    /// `rng.gen_range(0.0..=1.0)`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample(self)
    }

    /// `true` with probability `p` (clamped into `[0, 1]`).
    fn gen_bool(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }

    /// A random value of a supported type.
    fn gen<T: Standard>(&mut self) -> T {
        T::draw(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// A random generator seedable from fixed-width state.
pub trait SeedableRng: Sized {
    /// Raw seed type.
    type Seed: Default + AsMut<[u8]>;

    /// Constructs from a raw seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Constructs from a `u64` via splitmix64 expansion.
    fn seed_from_u64(state: u64) -> Self {
        let mut seed = Self::Seed::default();
        let mut sm = state;
        let mut next = move || {
            sm = sm.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        for chunk in seed.as_mut().chunks_mut(8) {
            let bytes = next().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

/// Deterministic generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++ — the shim's stand-in for `rand`'s `StdRng`.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl RngCore for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let result = self.s[0].wrapping_add(self.s[3]).rotate_left(23).wrapping_add(self.s[0]);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: Self::Seed) -> Self {
            let mut s = [0u64; 4];
            for (i, word) in s.iter_mut().enumerate() {
                let mut bytes = [0u8; 8];
                bytes.copy_from_slice(&seed[i * 8..(i + 1) * 8]);
                *word = u64::from_le_bytes(bytes);
            }
            // All-zero state would be a fixed point; nudge it.
            if s.iter().all(|&w| w == 0) {
                s[0] = 0x9E3779B97F4A7C15;
            }
            StdRng { s }
        }
    }

    /// Alias — the shim uses the same generator for small and standard RNGs.
    pub type SmallRng = StdRng;
}

/// Creates an RNG seeded from process entropy (address-space layout and
/// time); good enough for the non-reproducible convenience paths.
pub fn thread_rng() -> rngs::StdRng {
    use std::time::{SystemTime, UNIX_EPOCH};
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.subsec_nanos() as u64 ^ d.as_secs())
        .unwrap_or(0x5EED);
    rngs::StdRng::seed_from_u64(nanos)
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.gen_range(0..1000usize), b.gen_range(0..1000usize));
        }
        let mut c = StdRng::seed_from_u64(8);
        let differs =
            (0..100).any(|_| a.gen_range(0..1_000_000usize) != c.gen_range(0..1_000_000usize));
        assert!(differs, "different seeds must give different streams");
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..10_000 {
            let x = rng.gen_range(3..17usize);
            assert!((3..17).contains(&x));
            let y = rng.gen_range(0..=5u32);
            assert!(y <= 5);
            let f = rng.gen_range(-2.0..3.0f64);
            assert!((-2.0..3.0).contains(&f));
            let g = rng.gen_range(1.0..=1.0f64);
            assert!((1.0..=1.0).contains(&g));
        }
    }

    #[test]
    fn gen_bool_probabilities() {
        let mut rng = StdRng::seed_from_u64(11);
        assert!((0..100).all(|_| !rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
        let heads = (0..10_000).filter(|_| rng.gen_bool(0.5)).count();
        assert!((4_000..6_000).contains(&heads), "suspicious coin: {heads}");
    }

    #[test]
    fn singleton_integer_range() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10 {
            assert_eq!(rng.gen_range(4..=4usize), 4);
        }
    }
}
