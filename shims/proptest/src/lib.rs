//! Offline drop-in subset of the `proptest` API.
//!
//! The build environment has no network access, so this vendored crate
//! reimplements the slice of proptest the workspace uses: the [`Strategy`]
//! trait with `prop_map`/`prop_flat_map`, range/tuple/array/string
//! strategies, `prop::collection::vec`, `prop::option`, [`prelude::Just`],
//! `any::<T>()`, and the [`proptest!`]/[`prop_assert!`]/[`prop_assert_eq!`]
//! macros.
//!
//! Differences from upstream, by design:
//!
//! * **No shrinking.** A failing case reports its generated inputs and the
//!   case seed, but is not minimized.
//! * **Deterministic.** Case seeds derive from the test name and case index
//!   (overridable via `PROPTEST_SEED`), so every run explores the same
//!   inputs — CI failures always reproduce locally.
//! * The string strategy supports the regex subset the workspace uses:
//!   literals, `[...]` classes (ranges and literal chars), `(a|b|c)`
//!   alternation of literal branches, and postfix `?` / `{m,n}`.

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::Rng;
use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};

/// The RNG handed to strategies.
pub type TestRng = StdRng;

/// A generator of test values.
pub trait Strategy {
    /// The type of generated values.
    type Value: Debug;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O: Debug, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Generates a value, then generates from the strategy `f` builds
    /// from it.
    fn prop_flat_map<S: Strategy, F: Fn(Self::Value) -> S>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
    {
        FlatMap { inner: self, f }
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

/// See [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, O: Debug, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
#[derive(Debug, Clone)]
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;

    fn generate(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// A strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone + Debug>(pub T);

impl<T: Clone + Debug> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

macro_rules! impl_tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (S0.0)
    (S0.0, S1.1)
    (S0.0, S1.1, S2.2)
    (S0.0, S1.1, S2.2, S3.3)
    (S0.0, S1.1, S2.2, S3.3, S4.4)
    (S0.0, S1.1, S2.2, S3.3, S4.4, S5.5)
}

impl<S: Strategy, const N: usize> Strategy for [S; N] {
    type Value = [S::Value; N];

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        std::array::from_fn(|i| self[i].generate(rng))
    }
}

/// `&str` strategies generate strings matching a regex subset; see the
/// crate docs for the supported syntax.
impl Strategy for &str {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        string::generate_matching(self, rng)
    }
}

/// Types with a canonical "arbitrary" strategy.
pub trait Arbitrary: Sized + Debug {
    /// The strategy [`any`] returns.
    fn arbitrary() -> ArbitraryOf<Self>;
}

/// Strategy returned by [`any`].
pub struct ArbitraryOf<T> {
    gen: fn(&mut TestRng) -> T,
}

impl<T: Debug> Strategy for ArbitraryOf<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        (self.gen)(rng)
    }
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary() -> ArbitraryOf<Self> {
                ArbitraryOf { gen: |rng| rng.next_u64() as $t }
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary() -> ArbitraryOf<Self> {
        ArbitraryOf { gen: |rng| rng.next_u64() & 1 == 1 }
    }
}

impl Arbitrary for f64 {
    fn arbitrary() -> ArbitraryOf<Self> {
        // Finite, broadly ranged doubles.
        ArbitraryOf {
            gen: |rng| {
                let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                (unit - 0.5) * 2e9
            },
        }
    }
}

use rand::RngCore;

/// The canonical strategy for `T` — `any::<u64>()` etc.
pub fn any<T: Arbitrary>() -> ArbitraryOf<T> {
    T::arbitrary()
}

/// Collection and combinator strategies, mirroring `proptest::prop`.
pub mod prop {
    /// Re-export so `prop::collection::vec` resolves.
    pub mod collection {
        use super::super::{SizeRange, Strategy, TestRng};
        use rand::Rng;

        /// Strategy for `Vec<S::Value>` with a length drawn from `size`.
        pub struct VecStrategy<S> {
            element: S,
            size: SizeRange,
        }

        impl<S: Strategy> Strategy for VecStrategy<S> {
            type Value = Vec<S::Value>;

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let len = rng.gen_range(self.size.lo..=self.size.hi);
                (0..len).map(|_| self.element.generate(rng)).collect()
            }
        }

        /// `prop::collection::vec(element, 0..100)`.
        pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
            VecStrategy { element, size: size.into() }
        }
    }

    /// `Option` strategies, mirroring `proptest::option`.
    pub mod option {
        use super::super::{Strategy, TestRng};
        use rand::Rng;

        /// Strategy yielding `Some` with a fixed probability.
        pub struct OptionStrategy<S> {
            inner: S,
            some_probability: f64,
        }

        impl<S: Strategy> Strategy for OptionStrategy<S> {
            type Value = Option<S::Value>;

            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                rng.gen_bool(self.some_probability).then(|| self.inner.generate(rng))
            }
        }

        /// `Some` three times out of four (upstream's default weighting).
        pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
            OptionStrategy { inner, some_probability: 0.75 }
        }

        /// `Some` with probability `p`.
        pub fn weighted<S: Strategy>(p: f64, inner: S) -> OptionStrategy<S> {
            OptionStrategy { inner, some_probability: p.clamp(0.0, 1.0) }
        }
    }

    /// Sampling helpers (subset).
    pub mod sample {}
}

/// A length range for collection strategies.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    /// Smallest length, inclusive.
    pub lo: usize,
    /// Largest length, inclusive.
    pub hi: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { lo: n, hi: n }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange { lo: r.start, hi: r.end - 1 }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        SizeRange { lo: *r.start(), hi: *r.end() }
    }
}

mod string {
    //! Generation of strings matching a small regex subset.

    use super::TestRng;
    use rand::Rng;

    enum Atom {
        Literal(char),
        Class(Vec<(char, char)>),
        Alternation(Vec<String>),
    }

    struct Piece {
        atom: Atom,
        min: usize,
        max: usize,
    }

    fn parse(pattern: &str) -> Vec<Piece> {
        let chars: Vec<char> = pattern.chars().collect();
        let mut pieces: Vec<Piece> = Vec::new();
        let mut i = 0usize;
        while i < chars.len() {
            let atom = match chars[i] {
                '[' => {
                    let close = chars[i..]
                        .iter()
                        .position(|&c| c == ']')
                        .unwrap_or_else(|| panic!("unterminated class in {pattern:?}"))
                        + i;
                    let mut ranges = Vec::new();
                    let mut j = i + 1;
                    while j < close {
                        if j + 2 < close && chars[j + 1] == '-' {
                            ranges.push((chars[j], chars[j + 2]));
                            j += 3;
                        } else {
                            ranges.push((chars[j], chars[j]));
                            j += 1;
                        }
                    }
                    i = close + 1;
                    Atom::Class(ranges)
                }
                '(' => {
                    let close = chars[i..]
                        .iter()
                        .position(|&c| c == ')')
                        .unwrap_or_else(|| panic!("unterminated group in {pattern:?}"))
                        + i;
                    let body: String = chars[i + 1..close].iter().collect();
                    let branches = body.split('|').map(str::to_string).collect();
                    i = close + 1;
                    Atom::Alternation(branches)
                }
                '\\' => {
                    i += 1;
                    let c =
                        *chars.get(i).unwrap_or_else(|| panic!("dangling escape in {pattern:?}"));
                    i += 1;
                    Atom::Literal(c)
                }
                c => {
                    i += 1;
                    Atom::Literal(c)
                }
            };
            // Postfix repetition.
            let (min, max) = match chars.get(i) {
                Some('?') => {
                    i += 1;
                    (0, 1)
                }
                Some('{') => {
                    let close = chars[i..]
                        .iter()
                        .position(|&c| c == '}')
                        .unwrap_or_else(|| panic!("unterminated repeat in {pattern:?}"))
                        + i;
                    let body: String = chars[i + 1..close].iter().collect();
                    let (lo, hi) = match body.split_once(',') {
                        Some((lo, hi)) => (
                            lo.parse().expect("repeat lower bound"),
                            hi.parse().expect("repeat upper bound"),
                        ),
                        None => {
                            let n = body.parse().expect("repeat count");
                            (n, n)
                        }
                    };
                    i = close + 1;
                    (lo, hi)
                }
                _ => (1, 1),
            };
            pieces.push(Piece { atom, min, max });
        }
        pieces
    }

    pub fn generate_matching(pattern: &str, rng: &mut TestRng) -> String {
        let mut out = String::new();
        for piece in parse(pattern) {
            let reps = rng.gen_range(piece.min..=piece.max);
            for _ in 0..reps {
                match &piece.atom {
                    Atom::Literal(c) => out.push(*c),
                    Atom::Class(ranges) => {
                        let (lo, hi) = ranges[rng.gen_range(0..ranges.len())];
                        out.push(
                            char::from_u32(rng.gen_range(lo as u32..=hi as u32)).unwrap_or(lo),
                        );
                    }
                    Atom::Alternation(branches) => {
                        out.push_str(&branches[rng.gen_range(0..branches.len())]);
                    }
                }
            }
        }
        out
    }
}

/// Test-runner plumbing used by the [`proptest!`] macro expansion.
pub mod test_runner {
    use super::TestRng;
    use rand::SeedableRng;

    /// Why one generated case did not pass.
    #[derive(Debug, Clone)]
    pub enum TestCaseError {
        /// An assertion failed.
        Fail(String),
        /// The case asked to be discarded (unused by the shim, kept for
        /// API compatibility).
        Reject(String),
    }

    impl TestCaseError {
        /// An assertion failure with the given message.
        pub fn fail(reason: impl Into<String>) -> Self {
            TestCaseError::Fail(reason.into())
        }

        /// A discarded case.
        pub fn reject(reason: impl Into<String>) -> Self {
            TestCaseError::Reject(reason.into())
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                TestCaseError::Fail(r) => write!(f, "{r}"),
                TestCaseError::Reject(r) => write!(f, "rejected: {r}"),
            }
        }
    }

    /// Result type of one generated case.
    pub type TestCaseResult = Result<(), TestCaseError>;

    /// Runner configuration (`ProptestConfig` in the prelude).
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of generated cases per test.
        pub cases: u32,
    }

    impl Config {
        /// A configuration running `cases` generated inputs.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 64 }
        }
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        let mut h = 0xCBF29CE484222325u64;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001B3);
        }
        h
    }

    /// Runs `case` for every generated input; panics (failing the enclosing
    /// `#[test]`) on the first case that returns an error or panics.
    pub fn run<F>(test_name: &str, config: &Config, mut case: F)
    where
        F: FnMut(&mut TestRng) -> (String, TestCaseResult),
    {
        let base = match std::env::var("PROPTEST_SEED") {
            Ok(s) => s.parse::<u64>().unwrap_or_else(|_| fnv1a(s.as_bytes())),
            Err(_) => fnv1a(test_name.as_bytes()),
        };
        for index in 0..config.cases {
            let seed = base ^ (index as u64).wrapping_mul(0x9E3779B97F4A7C15);
            let mut rng = TestRng::seed_from_u64(seed);
            let (inputs, outcome) = case(&mut rng);
            match outcome {
                Ok(()) | Err(super::test_runner::TestCaseError::Reject(_)) => {}
                Err(TestCaseError::Fail(reason)) => panic!(
                    "proptest case {index} of {test_name} failed: {reason}\n\
                     inputs: {inputs}\n\
                     reproduce with PROPTEST_SEED={base}"
                ),
            }
        }
    }
}

/// Everything a proptest test module needs.
pub mod prelude {
    pub use crate::test_runner::{Config as ProptestConfig, TestCaseError, TestCaseResult};
    pub use crate::{any, prop, Arbitrary, Just, Strategy};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Defines property tests; see the crate docs for the supported subset.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { config = $config; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            config = $crate::test_runner::Config::default();
            $($rest)*
        }
    };
}

#[macro_export]
#[doc(hidden)]
macro_rules! __proptest_impl {
    (config = $config:expr; $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let __config = $config;
            $crate::test_runner::run(stringify!($name), &__config, |__rng| {
                $(let $arg = $crate::Strategy::generate(&($strat), __rng);)+
                let __inputs = {
                    let mut s = String::new();
                    $(
                        s.push_str(concat!(stringify!($arg), " = "));
                        s.push_str(&format!("{:?}, ", $arg));
                    )+
                    s
                };
                let __outcome: $crate::test_runner::TestCaseResult = (|| {
                    { $body }
                    Ok(())
                })();
                (__inputs, __outcome)
            });
        }
    )*};
}

/// `assert!` that reports through the proptest runner.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

/// `assert_eq!` that reports through the proptest runner.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{:?}` == `{:?}`",
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "assertion failed: `{:?}` == `{:?}`: {}",
            l,
            r,
            format!($($fmt)*)
        );
    }};
}

/// `assert_ne!` that reports through the proptest runner.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `{:?}` != `{:?}`",
            l,
            r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "assertion failed: `{:?}` != `{:?}`: {}",
            l,
            r,
            format!($($fmt)*)
        );
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use rand::SeedableRng;

    #[test]
    fn string_strategy_matches_patterns() {
        let mut rng = crate::TestRng::seed_from_u64(3);
        for _ in 0..200 {
            let s = crate::Strategy::generate(&"(nan|inf|-inf)", &mut rng);
            assert!(["nan", "inf", "-inf"].contains(&s.as_str()), "{s:?}");
            let t = crate::Strategy::generate(&"[a-c]{2,4}x?", &mut rng);
            assert!(t.len() >= 2 && t.len() <= 5, "{t:?}");
            assert!(t.trim_end_matches('x').chars().all(|c| ('a'..='c').contains(&c)));
        }
    }

    #[test]
    fn vec_strategy_respects_size() {
        let mut rng = crate::TestRng::seed_from_u64(9);
        for _ in 0..100 {
            let v = crate::Strategy::generate(&prop::collection::vec(0u32..5, 2..7), &mut rng);
            assert!((2..7).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 5));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn macro_generates_and_runs(x in 0usize..10, pair in (0..5u32, -1.0..1.0f64)) {
            prop_assert!(x < 10);
            prop_assert!(pair.0 < 5);
            prop_assert!((-1.0..1.0).contains(&pair.1));
        }

        #[test]
        fn flat_map_and_just_compose(v in (1usize..8).prop_flat_map(|n| {
            (Just(n), prop::collection::vec(0..n, 1..4))
        })) {
            let (n, xs) = v;
            prop_assert!(xs.iter().all(|&x| x < n));
        }
    }

    // The macro expands the inner function with its own #[test] attribute,
    // which is unnameable from the harness here — expected, we call it by
    // hand to check the failure path.
    #[allow(unnameable_test_items)]
    #[test]
    #[should_panic(expected = "proptest case")]
    fn failing_property_panics_with_inputs() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4))]
            #[test]
            fn always_fails(x in 0usize..10) {
                prop_assert!(x > 100, "x was {}", x);
            }
        }
        always_fails();
    }
}
