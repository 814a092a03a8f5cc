//! Minimal in-tree property-testing harness.
//!
//! The workspace's property tests were written against the `proptest`
//! crate, which cannot be fetched in this build environment (no registry
//! access). This path crate keeps those tests — and every assertion in
//! them — compiling and running by implementing the subset of the API
//! they use:
//!
//! * `proptest! { #![proptest_config(...)] #[test] fn name(x in strat, ...) { ... } }`
//! * integer and float [`std::ops::Range`] strategies
//! * `prop::collection::vec(strategy, size_range)`
//! * `any::<bool>()`
//! * `prop_assert!` / `prop_assert_eq!`
//!
//! Differences from the real crate: generation is deterministic per test
//! name (seeded by FNV-1a of the name, so runs are reproducible without a
//! persistence file) and there is no shrinking — a failure reports the
//! exact generated inputs instead.

use std::ops::Range;

/// A failed (or rejected) test case, carried by `Err` out of the test
/// body closure. Produced by `prop_assert!` / `prop_assert_eq!`.
#[derive(Debug, Clone)]
pub struct TestCaseError(pub String);

impl TestCaseError {
    /// A failure with the given explanation.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError(msg.into())
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Harness configuration: how many random cases each test runs.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of generated cases per test.
    pub cases: u32,
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 32 }
    }
}

/// Deterministic test-case RNG (SplitMix64 — same generator family the
/// simulator uses, re-implemented here to keep this crate dependency-free).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// An RNG seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        TestRng { state: seed }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, n)`; `n` must be non-zero.
    pub fn next_below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        // Multiply-shift; the tiny modulo bias is irrelevant for test
        // input generation.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// Something that can generate values of `Self::Value` from a [`TestRng`].
pub trait Strategy {
    /// The generated value type.
    type Value;
    /// Draw one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let span = (self.end - self.start) as u64;
                assert!(span > 0, "empty range strategy");
                self.start + rng.next_below(span) as $t
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize);

impl Strategy for Range<i64> {
    type Value = i64;
    fn generate(&self, rng: &mut TestRng) -> i64 {
        let span = self.end.wrapping_sub(self.start) as u64;
        assert!(span > 0, "empty range strategy");
        self.start.wrapping_add(rng.next_below(span) as i64)
    }
}

/// Types with a canonical "any value" strategy (see [`any`]).
pub trait Arbitrary: Sized {
    /// Draw an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for u8 {
    fn arbitrary(rng: &mut TestRng) -> u8 {
        rng.next_u64() as u8
    }
}

impl Arbitrary for u64 {
    fn arbitrary(rng: &mut TestRng) -> u64 {
        rng.next_u64()
    }
}

/// The strategy returned by [`any`].
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// `any::<T>()` — the arbitrary-value strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Strategy producing `Vec`s of `element` with a length drawn from
    /// `sizes`.
    pub struct VecStrategy<S> {
        element: S,
        sizes: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.sizes.end - self.sizes.start) as u64;
            assert!(span > 0, "empty size range");
            let n = self.sizes.start + rng.next_below(span) as usize;
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A vector strategy: each element from `element`, length in `sizes`.
    pub fn vec<S: Strategy>(element: S, sizes: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, sizes }
    }
}

fn fnv1a(name: &str) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in name.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100_0000_01B3);
    }
    h
}

/// Drive one property test: run `f` for the configured number of cases
/// (overridable via the `PROPTEST_CASES` env var), panicking with the
/// generated inputs on the first failure. Called by the `proptest!`
/// macro expansion, not directly.
pub fn run_proptest<F>(name: &str, config: ProptestConfig, mut f: F)
where
    F: FnMut(&mut TestRng) -> (String, Result<(), TestCaseError>),
{
    let cases = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(config.cases);
    let mut rng = TestRng::new(fnv1a(name));
    for case in 0..cases {
        let (inputs, result) = f(&mut rng);
        if let Err(e) = result {
            panic!(
                "property '{name}' failed at case {}/{cases}: {e}\n  inputs: {inputs}",
                case + 1
            );
        }
    }
}

/// Define property tests. Supports the standard shape, each `fn` under
/// `#[test]` in a test crate; this example calls its property itself:
///
/// ```
/// use proptest::prelude::*;
///
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(24))]
///     fn holds(x in 0.5f64..20.0, flag in any::<bool>()) {
///         prop_assert!(x > 0.0 || flag);
///     }
/// }
/// holds();
/// ```
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($config:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                $crate::run_proptest(
                    stringify!($name),
                    $config,
                    |__proptest_rng| {
                        $(let $arg = $crate::Strategy::generate(&($strat), __proptest_rng);)+
                        let __proptest_inputs = format!(
                            concat!($(stringify!($arg), " = {:?}; "),+),
                            $(&$arg),+
                        );
                        let __proptest_result: ::std::result::Result<(), $crate::TestCaseError> =
                            (|| {
                                $body
                                ::std::result::Result::Ok(())
                            })();
                        (__proptest_inputs, __proptest_result)
                    },
                );
            }
        )*
    };
    (
        $(
            $(#[$meta:meta])*
            fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
        )*
    ) => {
        $crate::proptest! {
            #![proptest_config(<$crate::ProptestConfig as ::std::default::Default>::default())]
            $( $(#[$meta])* fn $name( $($arg in $strat),+ ) $body )*
        }
    };
}

/// Assert a condition inside a `proptest!` body; on failure the case is
/// reported with its generated inputs.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} ({})",
                stringify!($cond),
                format!($($fmt)+)
            )));
        }
    };
}

/// Assert equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} == {} (left: {:?}, right: {:?})",
                stringify!($left),
                stringify!($right),
                __l,
                __r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} == {} (left: {:?}, right: {:?}) ({})",
                stringify!($left),
                stringify!($right),
                __l,
                __r,
                format!($($fmt)+)
            )));
        }
    }};
}

/// Everything the property-test files import.
pub mod prelude {
    pub use crate as prop;
    pub use crate::{any, prop_assert, prop_assert_eq, proptest};
    pub use crate::{Arbitrary, ProptestConfig, Strategy, TestCaseError};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::new(7);
        for _ in 0..500 {
            let f = (0.5f64..20.0).generate(&mut rng);
            assert!((0.5..20.0).contains(&f));
            let u = (5u64..120).generate(&mut rng);
            assert!((5..120).contains(&u));
            let b = (0u8..8).generate(&mut rng);
            assert!(b < 8);
        }
    }

    #[test]
    fn vec_strategy_respects_size_range() {
        let mut rng = TestRng::new(3);
        for _ in 0..200 {
            let v = collection::vec(0.0f64..10.0, 4..20).generate(&mut rng);
            assert!((4..20).contains(&v.len()));
            assert!(v.iter().all(|x| (0.0..10.0).contains(x)));
        }
    }

    #[test]
    fn deterministic_per_name() {
        let mut a = TestRng::new(fnv1a("some_test"));
        let mut b = TestRng::new(fnv1a("some_test"));
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = TestRng::new(fnv1a("other_test"));
        assert_ne!(a.next_u64(), c.next_u64());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn macro_round_trip(
            x in 1.0f64..2.0,
            n in 1u64..10,
            flag in any::<bool>(),
            v in prop::collection::vec(0u32..5, 1..4),
        ) {
            prop_assert!((1.0..2.0).contains(&x));
            prop_assert!(n >= 1, "n was {n}");
            prop_assert_eq!(flag, flag);
            prop_assert!(!v.is_empty());
            if n > 100 {
                return Ok(()); // exercise the early-return shape
            }
        }
    }

    #[test]
    #[should_panic(expected = "property 'always_fails' failed")]
    fn failure_reports_inputs() {
        run_proptest("always_fails", ProptestConfig::with_cases(5), |rng| {
            let x = (0u64..10).generate(rng);
            (format!("x = {x:?}"), Err(TestCaseError::fail("boom")))
        });
    }
}
