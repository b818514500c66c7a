//! Offline stand-in for the subset of `proptest` this workspace uses.
//!
//! The real `proptest` cannot be fetched in this build environment. This
//! shim keeps the same API shape — `proptest!`, strategies, `any`,
//! `prop::collection`, `prop::sample`, `prop_assert*`, `prop_assume!` —
//! but runs plain randomized testing without shrinking: each test gets a
//! deterministic seed derived from its module path and name, and each
//! case re-derives its RNG from `(seed, case index)`, so failures are
//! reproducible run-to-run.
//!
//! Set `PROPTEST_CASES` to override the per-test case count (useful to
//! shorten CI runs or deepen local soak tests).

#![forbid(unsafe_code)]

pub mod test_runner {
    //! Configuration and the deterministic test RNG.

    use std::hash::{Hash, Hasher};

    /// Subset of proptest's `Config`: only `cases` is consulted.
    #[derive(Clone, Debug)]
    pub struct Config {
        /// Number of random cases each test runs.
        pub cases: u32,
    }

    impl Config {
        /// A config running `cases` cases per test.
        #[must_use]
        pub fn with_cases(cases: u32) -> Config {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Config {
            Config { cases: 256 }
        }
    }

    /// Applies the `PROPTEST_CASES` environment override.
    #[must_use]
    pub fn resolve_cases(configured: u32) -> u32 {
        match std::env::var("PROPTEST_CASES") {
            Ok(v) => v.parse().unwrap_or(configured),
            Err(_) => configured,
        }
    }

    /// Deterministic base seed for a test, from its full path.
    #[must_use]
    pub fn seed_for_test(name: &str) -> u64 {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        name.hash(&mut hasher);
        hasher.finish()
    }

    /// SplitMix64 generator; cheap, deterministic, and good enough for
    /// test-case generation (no shrinking, no cryptography).
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// RNG for one `(test seed, case index)` pair.
        #[must_use]
        pub fn new(base: u64, case: u64) -> TestRng {
            TestRng {
                state: base ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            }
        }

        /// Next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, bound)`; `bound` must be nonzero.
        pub fn below(&mut self, bound: u64) -> u64 {
            assert!(bound > 0, "empty sampling bound");
            // Modulo bias is irrelevant at test-generation quality.
            self.next_u64() % bound
        }

        /// Uniform float in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }
}

pub mod strategy {
    //! The `Strategy` trait and combinators.

    use crate::test_runner::TestRng;

    /// A generator of random values (no shrinking in this shim).
    pub trait Strategy {
        /// Type of generated values.
        type Value;

        /// Draws one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<U, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> U,
        {
            Map { inner: self, f }
        }
    }

    impl<T> Strategy for Box<dyn Strategy<Value = T>> {
        type Value = T;

        fn sample(&self, rng: &mut TestRng) -> T {
            (**self).sample(rng)
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;

        fn sample(&self, rng: &mut TestRng) -> S::Value {
            (**self).sample(rng)
        }
    }

    /// Strategy yielding a constant value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn sample(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Result of [`Strategy::prop_map`].
    #[derive(Clone, Debug)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;

        fn sample(&self, rng: &mut TestRng) -> U {
            (self.f)(self.inner.sample(rng))
        }
    }

    /// Uniform choice among boxed alternatives (`prop_oneof!`).
    pub struct OneOf<T> {
        options: Vec<Box<dyn Strategy<Value = T>>>,
    }

    impl<T> OneOf<T> {
        /// Builds from a non-empty list of alternatives.
        #[must_use]
        pub fn new(options: Vec<Box<dyn Strategy<Value = T>>>) -> OneOf<T> {
            assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
            OneOf { options }
        }
    }

    impl<T> Strategy for OneOf<T> {
        type Value = T;

        fn sample(&self, rng: &mut TestRng) -> T {
            let idx = rng.below(self.options.len() as u64) as usize;
            self.options[idx].sample(rng)
        }
    }

    macro_rules! impl_int_range_strategy {
        ($($ty:ty),*) => {$(
            impl Strategy for core::ops::Range<$ty> {
                type Value = $ty;

                fn sample(&self, rng: &mut TestRng) -> $ty {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as u128) - (self.start as u128);
                    let off = rng.next_u64() as u128 % span;
                    (self.start as u128 + off) as $ty
                }
            }

            impl Strategy for core::ops::RangeInclusive<$ty> {
                type Value = $ty;

                fn sample(&self, rng: &mut TestRng) -> $ty {
                    assert!(self.start() <= self.end(), "empty range strategy");
                    let span = (*self.end() as u128) - (*self.start() as u128) + 1;
                    let off = rng.next_u64() as u128 % span;
                    (*self.start() as u128 + off) as $ty
                }
            }
        )*};
    }

    impl_int_range_strategy!(u8, u16, u32, u64, usize);

    impl Strategy for core::ops::Range<f64> {
        type Value = f64;

        fn sample(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + (self.end - self.start) * rng.unit_f64()
        }
    }

    impl Strategy for core::ops::RangeInclusive<f64> {
        type Value = f64;

        fn sample(&self, rng: &mut TestRng) -> f64 {
            self.start() + (self.end() - self.start()) * rng.unit_f64()
        }
    }

    macro_rules! impl_tuple_strategy {
        ($(($($s:ident . $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);

                fn sample(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.sample(rng),)+)
                }
            }
        )*};
    }

    impl_tuple_strategy! {
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
    }
}

pub mod arbitrary {
    //! `any::<T>()` for primitive types and small tuples.

    use std::marker::PhantomData;

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Types with a canonical full-range strategy.
    pub trait Arbitrary {
        /// Draws one arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! impl_arbitrary_int {
        ($($ty:ty),*) => {$(
            impl Arbitrary for $ty {
                fn arbitrary(rng: &mut TestRng) -> $ty {
                    rng.next_u64() as $ty
                }
            }
        )*};
    }

    impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! impl_arbitrary_tuple {
        ($(($($t:ident),+))*) => {$(
            impl<$($t: Arbitrary),+> Arbitrary for ($($t,)+) {
                fn arbitrary(rng: &mut TestRng) -> Self {
                    ($($t::arbitrary(rng),)+)
                }
            }
        )*};
    }

    impl_arbitrary_tuple! {
        (A, B)
        (A, B, C)
        (A, B, C, D)
    }

    /// Strategy for an arbitrary `T` (returned by [`any`]).
    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn sample(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The full-range strategy for `T`.
    #[must_use]
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod collection {
    //! Collection strategies: `vec` and `btree_set`.

    use std::collections::BTreeSet;

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Inclusive size bounds for generated collections.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> SizeRange {
            SizeRange { lo: n, hi: n }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> SizeRange {
            assert!(r.start < r.end, "empty collection size range");
            SizeRange {
                lo: r.start,
                hi: r.end - 1,
            }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> SizeRange {
            SizeRange {
                lo: *r.start(),
                hi: *r.end(),
            }
        }
    }

    impl SizeRange {
        fn sample(self, rng: &mut TestRng) -> usize {
            self.lo + rng.below((self.hi - self.lo + 1) as u64) as usize
        }
    }

    /// Strategy for `Vec<T>` (returned by [`vec()`]).
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = self.size.sample(rng);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// `Vec` strategy with the given element strategy and size bounds.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// Strategy for `BTreeSet<T>` (returned by [`btree_set`]).
    pub struct BTreeSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let target = self.size.sample(rng);
            let mut set = BTreeSet::new();
            // Duplicates shrink the achieved size; bound the retries so a
            // small element domain cannot loop forever.
            let mut attempts = 0usize;
            while set.len() < target && attempts < 20 * target + 100 {
                set.insert(self.element.sample(rng));
                attempts += 1;
            }
            set
        }
    }

    /// `BTreeSet` strategy with the given element strategy and size bounds.
    pub fn btree_set<S: Strategy>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        BTreeSetStrategy {
            element,
            size: size.into(),
        }
    }
}

pub mod sample {
    //! Sampling from explicit option lists.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy choosing uniformly from a fixed list (see [`select`]).
    #[derive(Clone, Debug)]
    pub struct Select<T: Clone> {
        options: Vec<T>,
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;

        fn sample(&self, rng: &mut TestRng) -> T {
            let idx = rng.below(self.options.len() as u64) as usize;
            self.options[idx].clone()
        }
    }

    /// Uniform choice among `options` (must be non-empty).
    #[must_use]
    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "select with no options");
        Select { options }
    }
}

pub mod prelude {
    //! Glob-import surface mirroring `proptest::prelude`.

    pub use crate as prop;
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest};
}

/// Defines property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` running `config.cases` random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::test_runner::Config::default()) $($rest)* }
    };
}

/// Internal expansion helper for [`proptest!`]; not public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr)
      $(
        $(#[$meta:meta])*
        fn $name:ident ( $($arg:pat in $strat:expr),* $(,)? ) $body:block
      )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::Config = $cfg;
                let cases = $crate::test_runner::resolve_cases(config.cases);
                let base = $crate::test_runner::seed_for_test(concat!(
                    module_path!(),
                    "::",
                    stringify!($name)
                ));
                for case in 0..u64::from(cases) {
                    let mut __proptest_rng = $crate::test_runner::TestRng::new(base, case);
                    $(
                        let $arg = $crate::strategy::Strategy::sample(
                            &($strat),
                            &mut __proptest_rng,
                        );
                    )*
                    // `None` means a `prop_assume!` rejected this case. The
                    // immediately-called closure exists so `prop_assume!` can
                    // `return` out of one case without ending the whole test.
                    #[allow(clippy::redundant_closure_call)]
                    let _: ::core::option::Option<()> = (|| {
                        $body
                        ::core::option::Option::Some(())
                    })();
                }
            }
        )*
    };
}

/// Asserts a condition inside a property test (panics on failure).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Asserts equality inside a property test (panics on failure).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Skips the current case when the assumption does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::core::option::Option::None;
        }
    };
}

/// Uniform choice among several strategies with a common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(::std::vec![
            $(
                ::std::boxed::Box::new($strat)
                    as ::std::boxed::Box<dyn $crate::strategy::Strategy<Value = _>>
            ),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = crate::test_runner::TestRng::new(1, 0);
        for _ in 0..1000 {
            let v = Strategy::sample(&(3u32..9), &mut rng);
            assert!((3..9).contains(&v));
            let w = Strategy::sample(&(1u32..=128), &mut rng);
            assert!((1..=128).contains(&w));
            let f = Strategy::sample(&(0.5f64..2.0), &mut rng);
            assert!((0.5..2.0).contains(&f));
        }
    }

    #[test]
    fn vec_strategy_respects_size_range() {
        let mut rng = crate::test_runner::TestRng::new(2, 0);
        for _ in 0..200 {
            let v = Strategy::sample(&prop::collection::vec(any::<u64>(), 2..5), &mut rng);
            assert!((2..5).contains(&v.len()));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn macro_compiles_and_runs(x in 0u32..10, flag in any::<bool>()) {
            prop_assume!(x < 9);
            prop_assert!(x < 9);
            prop_assert_eq!(u32::from(flag) * 2 % 2, 0);
        }

        #[test]
        fn oneof_and_maps(v in prop_oneof![Just(1u32), (2u32..4).prop_map(|x| x * 10)]) {
            prop_assert!(v == 1u32 || v == 20u32 || v == 30u32);
        }
    }

    #[test]
    fn same_test_name_gives_deterministic_cases() {
        let base = crate::test_runner::seed_for_test("a::b");
        let mut r1 = crate::test_runner::TestRng::new(base, 3);
        let mut r2 = crate::test_runner::TestRng::new(base, 3);
        assert_eq!(r1.next_u64(), r2.next_u64());
    }
}
