//! Offline stand-in for `proptest`, covering the subset the workspace's
//! property tests use.
//!
//! Differences from the real crate, by design:
//!
//! * **Naive shrinking.** A failing case reports its deterministic case
//!   index, the assertion message *and the generated input values*
//!   (`Debug`-formatted, so every strategy value type must implement
//!   `Debug` — all std and workspace types do); re-running the test
//!   replays the identical stream, so failures are reproducible without
//!   persistence files. When the input tuple implements
//!   [`shrink::NaiveShrink`] (std scalars, `Vec`s, sets, tuples of
//!   those), the runner additionally greedily re-runs the body on
//!   simpler inputs — drop-element and halve-scalar passes, bounded to
//!   [`shrink::MAX_SHRINK_EVALS`] evaluations — and appends the reduced
//!   case to the panic message. Real proptest shrinks through the
//!   strategy tree; the shim shrinks the values directly, which is
//!   weaker (a shrunk value may be outside the strategy's range) but
//!   needs no strategy plumbing, and the original failing input is
//!   always printed too.
//! * **Deterministic generation.** Case `i` of every test derives its RNG
//!   from `i` via SplitMix64, so CI and local runs see the same inputs.
//!
//! Supported surface: the [`proptest!`] macro (with
//! `#![proptest_config(...)]` and multiple `fn name(pat in strategy, ...)`
//! items), [`Strategy`] with `prop_map`/`prop_flat_map`, integer and float
//! range strategies, tuple strategies, [`collection::vec`] /
//! [`collection::btree_set`] with flexible size specs, [`bool::ANY`],
//! [`num::u8::ANY`], [`ProptestConfig::with_cases`], and the
//! `prop_assert*` macros returning [`TestCaseError`].

#![forbid(unsafe_code)]
// The `bool` and `num::u8` module names shadow primitive types on purpose:
// they mirror the real proptest's module layout.

use std::ops::{Range, RangeInclusive};

pub mod test_runner {
    //! Deterministic RNG used to drive generation.

    /// SplitMix64 generator; one instance per test case, seeded from the
    /// case index so every run replays identically.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Creates the RNG for a given test-case index.
        pub fn deterministic(case: u64) -> Self {
            // Offset so case 0 doesn't start from the all-zero state.
            TestRng { state: case.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03 }
        }

        /// Creates the RNG for a given test name and case index. Mixing in
        /// the name keeps different properties on independent streams —
        /// otherwise case `i` of every test would sample identical inputs.
        pub fn for_case(test_name: &str, case: u64) -> Self {
            // FNV-1a over the test name, folded into the case seed.
            let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
            for byte in test_name.bytes() {
                hash ^= byte as u64;
                hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
            }
            Self::deterministic(case ^ hash)
        }

        /// Next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform `usize` in `[lo, hi]`.
        pub fn usize_inclusive(&mut self, lo: usize, hi: usize) -> usize {
            debug_assert!(lo <= hi);
            let span = (hi - lo) as u64 + 1;
            lo + (self.next_u64() % span) as usize
        }

        /// Uniform `f64` in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }
}

use test_runner::TestRng;

/// Configuration accepted via `#![proptest_config(...)]`.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases to run per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

/// Failure of a single property case; produced by the `prop_assert*`
/// macros and an early `return Err(...)` from a test body.
#[derive(Debug, Clone)]
pub struct TestCaseError {
    message: String,
}

impl TestCaseError {
    /// Builds a failure with the given message.
    pub fn fail(message: impl Into<String>) -> Self {
        TestCaseError { message: message.into() }
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for TestCaseError {}

/// A generator of values of type `Value`.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { strategy: self, f }
    }

    /// Feeds generated values into `f`, which yields a dependent strategy.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { strategy: self, f }
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
    strategy: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;

    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.strategy.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
#[derive(Debug, Clone)]
pub struct FlatMap<S, F> {
    strategy: S,
    f: F,
}

impl<S, S2, F> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy,
    F: Fn(S::Value) -> S2,
{
    type Value = S2::Value;

    fn generate(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.strategy.generate(rng)).generate(rng)
    }
}

/// See [`prop_oneof!`]: picks uniformly among boxed alternatives.
pub struct Union<T> {
    options: Vec<Box<dyn Strategy<Value = T>>>,
}

impl<T> Union<T> {
    /// Builds the union; real proptest also supports weights, the shim
    /// covers the unweighted subset the tree uses.
    ///
    /// # Panics
    ///
    /// Panics on an empty alternative list.
    pub fn new(options: Vec<Box<dyn Strategy<Value = T>>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one alternative");
        Union { options }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;

    fn generate(&self, rng: &mut TestRng) -> T {
        let i = rng.usize_inclusive(0, self.options.len() - 1);
        self.options[i].generate(rng)
    }
}

/// Chooses uniformly among strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::Union::new(vec![
            $(Box::new($strategy) as Box<dyn $crate::Strategy<Value = _>>),+
        ])
    };
}

/// A strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                // Go through i128 so signed ranges with negative starts
                // neither underflow the span nor overflow the offset add.
                let span = (self.end as i128 - self.start as i128) as u128;
                (self.start as i128 + (rng.next_u64() as u128 % span) as i128) as $t
            }
        }

        impl Strategy for RangeInclusive<$t> {
            type Value = $t;

            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                (lo as i128 + (rng.next_u64() as u128 % span) as i128) as $t
            }
        }
    )*};
}

impl_int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;

    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

impl<A: Strategy> Strategy for (A,) {
    type Value = (A::Value,);

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (self.0.generate(rng),)
    }
}

impl<A: Strategy, B: Strategy> Strategy for (A, B) {
    type Value = (A::Value, B::Value);

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (self.0.generate(rng), self.1.generate(rng))
    }
}

impl<A: Strategy, B: Strategy, C: Strategy> Strategy for (A, B, C) {
    type Value = (A::Value, B::Value, C::Value);

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (self.0.generate(rng), self.1.generate(rng), self.2.generate(rng))
    }
}

impl<A: Strategy, B: Strategy, C: Strategy, D: Strategy> Strategy for (A, B, C, D) {
    type Value = (A::Value, B::Value, C::Value, D::Value);

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (self.0.generate(rng), self.1.generate(rng), self.2.generate(rng), self.3.generate(rng))
    }
}

pub mod collection {
    //! Collection strategies with flexible size specifications.

    use super::{Strategy, TestRng};
    use std::collections::BTreeSet;
    use std::ops::{Range, RangeInclusive};

    /// Inclusive size bounds for generated collections.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
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
            assert!(r.start() <= r.end(), "empty size range");
            SizeRange { lo: *r.start(), hi: *r.end() }
        }
    }

    /// Strategy producing `Vec`s of `element` with a size in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    /// Strategy producing `BTreeSet`s of `element` with *up to* the
    /// requested number of elements (duplicates collapse, as in real
    /// proptest).
    pub fn btree_set<S>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        BTreeSetStrategy { element, size: size.into() }
    }

    /// See [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.usize_inclusive(self.size.lo, self.size.hi);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// See [`btree_set`].
    #[derive(Debug, Clone)]
    pub struct BTreeSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S> Strategy for BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let len = rng.usize_inclusive(self.size.lo, self.size.hi);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod bool {
    //! Boolean strategies (`proptest::bool::ANY`).

    use super::{Strategy, TestRng};

    /// Strategy yielding uniform booleans.
    #[derive(Debug, Clone, Copy)]
    pub struct Any;

    /// Uniformly random `true`/`false`.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = core::primitive::bool;

        fn generate(&self, rng: &mut TestRng) -> core::primitive::bool {
            rng.next_u64() & 1 == 1
        }
    }
}

pub mod num {
    //! Numeric strategies (`proptest::num::u8::ANY`, ...).

    macro_rules! num_any_mod {
        ($($m:ident : $t:ty),*) => {$(
            pub mod $m {
                use crate::{Strategy, test_runner::TestRng};

                /// Strategy yielding uniform values over the full domain.
                #[derive(Debug, Clone, Copy)]
                pub struct Any;

                /// The full-domain uniform strategy.
                pub const ANY: Any = Any;

                impl Strategy for Any {
                    type Value = $t;

                    fn generate(&self, rng: &mut TestRng) -> $t {
                        rng.next_u64() as $t
                    }
                }
            }
        )*};
    }

    num_any_mod!(u8: core::primitive::u8, u16: core::primitive::u16, u32: core::primitive::u32, u64: core::primitive::u64, usize: core::primitive::usize);
}

pub mod shrink {
    //! Naive value-level shrinking for failing property cases.
    //!
    //! The runner cannot shrink through strategies (the shim's strategies
    //! are generate-only), so it shrinks the generated *values*: a
    //! [`NaiveShrink`] type proposes strictly-simpler candidates, and the
    //! runner greedily adopts any candidate that still fails the
    //! property, restarting its passes until no candidate fails or the
    //! evaluation budget runs out. Types without an impl — workspace
    //! graphs, schedules, behaviour enums — simply don't shrink: the
    //! [`ShrinkProbe`] dispatch makes that a silent no-op instead of a
    //! compile error, so the `proptest!` macro can probe every input
    //! tuple unconditionally.

    use std::collections::BTreeSet;

    /// Evaluation budget per failing case: the greedy loop re-runs the
    /// property body at most this many times while shrinking.
    pub const MAX_SHRINK_EVALS: usize = 256;

    /// At most this many drop-one-element candidates are proposed per
    /// collection, so huge collections don't eat the whole budget on one
    /// pass.
    const MAX_DROP_CANDIDATES: usize = 24;

    /// Proposes strictly-simpler candidate values, most aggressive first
    /// (the greedy runner adopts the first candidate that still fails).
    pub trait NaiveShrink: Clone {
        /// Candidate simplifications of `self`; empty when minimal.
        fn shrink_candidates(&self) -> Vec<Self>;
    }

    macro_rules! impl_unsigned_shrink {
        ($($t:ty),*) => {$(
            impl NaiveShrink for $t {
                fn shrink_candidates(&self) -> Vec<Self> {
                    let v = *self;
                    if v == 0 {
                        return Vec::new();
                    }
                    let mut out = vec![0, v / 2, v - 1];
                    out.dedup();
                    out.retain(|c| *c != v);
                    out
                }
            }
        )*};
    }

    impl_unsigned_shrink!(u8, u16, u32, u64, u128, usize);

    macro_rules! impl_signed_shrink {
        ($($t:ty),*) => {$(
            impl NaiveShrink for $t {
                fn shrink_candidates(&self) -> Vec<Self> {
                    let v = *self;
                    if v == 0 {
                        return Vec::new();
                    }
                    let mut out = vec![0, v / 2, v - v.signum()];
                    out.dedup();
                    out.retain(|c| *c != v);
                    out
                }
            }
        )*};
    }

    impl_signed_shrink!(i8, i16, i32, i64, i128, isize);

    impl NaiveShrink for f64 {
        fn shrink_candidates(&self) -> Vec<Self> {
            if *self == 0.0 || !self.is_finite() {
                return Vec::new();
            }
            vec![0.0, self / 2.0]
        }
    }

    impl NaiveShrink for bool {
        fn shrink_candidates(&self) -> Vec<Self> {
            if *self {
                vec![false]
            } else {
                Vec::new()
            }
        }
    }

    impl NaiveShrink for char {
        fn shrink_candidates(&self) -> Vec<Self> {
            if *self == 'a' {
                Vec::new()
            } else {
                vec!['a']
            }
        }
    }

    impl NaiveShrink for String {
        fn shrink_candidates(&self) -> Vec<Self> {
            let n = self.chars().count();
            if n == 0 {
                return Vec::new();
            }
            let mut out = vec![String::new()];
            if n >= 2 {
                out.push(self.chars().take(n / 2).collect());
                out.push(self.chars().skip(n / 2).collect());
            }
            out
        }
    }

    /// Drop-element passes only: element values are left alone, so the
    /// impl applies to vectors of *any* clonable element — including
    /// workspace types that don't shrink themselves.
    impl<T: Clone> NaiveShrink for Vec<T> {
        fn shrink_candidates(&self) -> Vec<Self> {
            let n = self.len();
            if n == 0 {
                return Vec::new();
            }
            let mut out = vec![Vec::new()];
            if n >= 2 {
                out.push(self[..n / 2].to_vec());
                out.push(self[n / 2..].to_vec());
            }
            for i in 0..n.min(MAX_DROP_CANDIDATES) {
                let mut dropped = self.clone();
                dropped.remove(i);
                out.push(dropped);
            }
            out
        }
    }

    impl<T: Clone + Ord> NaiveShrink for BTreeSet<T> {
        fn shrink_candidates(&self) -> Vec<Self> {
            if self.is_empty() {
                return Vec::new();
            }
            let mut out = vec![BTreeSet::new()];
            for drop in self.iter().take(MAX_DROP_CANDIDATES) {
                let mut smaller = self.clone();
                smaller.remove(drop);
                out.push(smaller);
            }
            out
        }
    }

    impl<T: NaiveShrink> NaiveShrink for Option<T> {
        fn shrink_candidates(&self) -> Vec<Self> {
            match self {
                None => Vec::new(),
                Some(v) => {
                    let mut out = vec![None];
                    out.extend(v.shrink_candidates().into_iter().map(Some));
                    out
                }
            }
        }
    }

    macro_rules! impl_tuple_shrink {
        ($(($($name:ident . $idx:tt),+))*) => {$(
            impl<$($name: NaiveShrink),+> NaiveShrink for ($($name,)+) {
                fn shrink_candidates(&self) -> Vec<Self> {
                    let mut out = Vec::new();
                    $(
                        for candidate in self.$idx.shrink_candidates() {
                            let mut next = self.clone();
                            next.$idx = candidate;
                            out.push(next);
                        }
                    )+
                    out
                }
            }
        )*};
    }

    impl_tuple_shrink! {
        (A.0)
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
        (A.0, B.1, C.2, D.3, E.4)
        (A.0, B.1, C.2, D.3, E.4, F.5)
    }

    /// Dispatch shim: `ShrinkProbe(&value).maybe_candidates()` resolves to
    /// the inherent method below when the value implements
    /// [`NaiveShrink`], and falls back to the [`NoShrink`] trait method
    /// (returning `None`) otherwise — inherent methods win over trait
    /// methods, and the fallback is reached by auto-ref. The `proptest!`
    /// macro can therefore probe any input type without bounds.
    pub struct ShrinkProbe<'a, T>(pub &'a T);

    impl<'a, T: NaiveShrink> ShrinkProbe<'a, T> {
        /// Candidates for a shrinkable value.
        pub fn maybe_candidates(&self) -> Option<Vec<T>> {
            Some(self.0.shrink_candidates())
        }

        /// Greedy shrink starting from the probed (failing) value: `check`
        /// returns `true` when a candidate *still fails* the property.
        /// Returns `Some((shrunk, passes, evals))`; `passes == 0` means
        /// the value was already minimal.
        pub fn shrink_with(&self, check: impl FnMut(T) -> bool) -> Option<(T, usize, usize)> {
            Some(shrink_failing(self.0.clone(), check))
        }
    }

    /// Fallback for values that don't implement [`NaiveShrink`].
    pub trait NoShrink<T> {
        /// Always `None`: the value cannot be shrunk.
        fn maybe_candidates(&self) -> Option<Vec<T>>;
        /// Always `None`: the value cannot be shrunk.
        fn shrink_with(&self, check: impl FnMut(T) -> bool) -> Option<(T, usize, usize)>;
    }

    impl<'a, T> NoShrink<T> for &ShrinkProbe<'a, T> {
        fn maybe_candidates(&self) -> Option<Vec<T>> {
            None
        }
        fn shrink_with(&self, _check: impl FnMut(T) -> bool) -> Option<(T, usize, usize)> {
            None
        }
    }

    /// The greedy shrink loop used by the `proptest!` runner: starting
    /// from a failing input, repeatedly adopt the first candidate that
    /// still fails (`check` returns `true` for *still failing*), until a
    /// whole pass produces no failing candidate or the evaluation budget
    /// is spent. The default panic hook is silenced for the duration so
    /// candidates that fail by panicking don't spray backtraces over the
    /// one report that matters. Returns `(shrunk, passes, evals)`;
    /// `passes == 0` means the input was already minimal.
    pub fn shrink_failing<T: NaiveShrink>(
        start: T,
        mut check: impl FnMut(T) -> bool,
    ) -> (T, usize, usize) {
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let mut current = start;
        let mut passes = 0;
        let mut evals = 0;
        'passes: while evals < MAX_SHRINK_EVALS {
            for candidate in current.shrink_candidates() {
                if evals >= MAX_SHRINK_EVALS {
                    break 'passes;
                }
                evals += 1;
                if check(candidate.clone()) {
                    current = candidate;
                    passes += 1;
                    continue 'passes;
                }
            }
            break;
        }
        std::panic::set_hook(prev_hook);
        (current, passes, evals)
    }
}

pub mod prelude {
    //! The glob import every property-test module uses.

    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest, Just,
        ProptestConfig, Strategy, TestCaseError, Union,
    };
}

/// Ties a property body's input type to its strategy's `Value` so the
/// closure parameter needs no written type annotation in the macro
/// expansion. Internal to [`proptest!`]; not part of the public API.
#[doc(hidden)]
pub fn __case_body<S, F>(_strategy: &S, body: F) -> F
where
    S: Strategy,
    F: Fn(S::Value) -> Result<(), TestCaseError>,
{
    body
}

/// Defines property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` running `cases` deterministic cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { config = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { config = $crate::ProptestConfig::default(); $($rest)* }
    };
}

/// Internal expansion helper for [`proptest!`]; not part of the public API.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = $cfg:expr; ) => {};
    (config = $cfg:expr;
     $(#[$meta:meta])*
     fn $name:ident( $($pat:pat in $strategy:expr),+ $(,)? ) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            let strategy = ( $($strategy,)+ );
            let __body = $crate::__case_body(&strategy, |( $($pat,)+ )| {
                $body ::std::result::Result::Ok(())
            });
            for case in 0..config.cases {
                let mut rng =
                    $crate::test_runner::TestRng::for_case(stringify!($name), case as u64);
                let outcome = __body($crate::Strategy::generate(&strategy, &mut rng));
                if let ::std::result::Result::Err(err) = outcome {
                    // Generation is deterministic, so the failing inputs can
                    // be regenerated here (the body consumed the originals)
                    // and the passing path pays nothing for the report.
                    let mut replay =
                        $crate::test_runner::TestRng::for_case(stringify!($name), case as u64);
                    let __inputs = $crate::Strategy::generate(&strategy, &mut replay);
                    let mut __msg = format!(
                        "property `{}` failed at deterministic case {}/{}: {}\n  inputs: {:?}",
                        stringify!($name), case, config.cases, err, __inputs
                    );
                    // Naive greedy shrink: a no-op (None) when the input
                    // tuple has no NaiveShrink impl. A candidate "still
                    // fails" when the body returns Err or panics.
                    let __shrunk = {
                        #[allow(unused_imports)]
                        use $crate::shrink::NoShrink as _;
                        (&$crate::shrink::ShrinkProbe(&__inputs)).shrink_with(|__cand| {
                            ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(
                                || __body(__cand),
                            ))
                            .map(|r| r.is_err())
                            .unwrap_or(true)
                        })
                    };
                    if let ::std::option::Option::Some((__reduced, __passes, __evals)) = __shrunk {
                        if __passes > 0 {
                            __msg.push_str(&format!(
                                "\n  shrunk ({} passes, {} evals): {:?}",
                                __passes, __evals, __reduced
                            ));
                        }
                    }
                    panic!("{}", __msg);
                }
            }
        }
        $crate::__proptest_impl! { config = $cfg; $($rest)* }
    };
}

/// Discards the current case when its inputs don't satisfy a precondition.
/// Unlike the real proptest (which resamples), the shim simply skips the
/// case — acceptable because preconditions in this workspace reject only a
/// small fraction of inputs.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Ok(());
        }
    };
}

/// Asserts a condition inside a property, failing the case (not panicking)
/// on violation.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        if !(left == right) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{}` == `{}`\n  left: {:?}\n right: {:?}",
                stringify!($left), stringify!($right), left, right
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        if !(left == right) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "{}\n  left: {:?}\n right: {:?}",
                format!($($fmt)+), left, right
            )));
        }
    }};
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        if left == right {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{}` != `{}`\n  both: {:?}",
                stringify!($left), stringify!($right), left
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        if left == right {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "{}\n  both: {:?}",
                format!($($fmt)+), left
            )));
        }
    }};
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_respect_bounds(x in 3usize..10, y in 0u16..=5) {
            prop_assert!((3..10).contains(&x));
            prop_assert!(y <= 5);
        }

        #[test]
        fn signed_ranges_cross_zero(x in -5i32..5, y in -3i64..=3, z in i8::MIN..=i8::MAX) {
            prop_assert!((-5..5).contains(&x));
            prop_assert!((-3..=3).contains(&y));
            let _ = z; // full-domain i8 must not overflow the span math
        }

        #[test]
        fn vec_sizes_respect_spec(v in crate::collection::vec(0u8..255, 2..6)) {
            prop_assert!((2..6).contains(&v.len()), "len {}", v.len());
        }

        #[test]
        fn flat_map_dependencies_hold(
            (n, v) in (1usize..5).prop_flat_map(|n| {
                crate::collection::vec(0usize..n, n).prop_map(move |v| (n, v))
            }),
        ) {
            prop_assert_eq!(v.len(), n);
            for x in v {
                prop_assert!(x < n);
            }
        }

        #[test]
        fn tuple_and_set_strategies_work(
            (a, s) in (0u64..100, crate::collection::btree_set(0usize..8, 0..=4)),
        ) {
            prop_assert!(a < 100);
            prop_assert!(s.len() <= 4);
            prop_assert_ne!(s.len(), 9);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let strategy = crate::collection::vec(0u64..1000, 3..9);
        let a: Vec<Vec<u64>> = (0..20)
            .map(|i| strategy.generate(&mut crate::test_runner::TestRng::deterministic(i)))
            .collect();
        let b: Vec<Vec<u64>> = (0..20)
            .map(|i| strategy.generate(&mut crate::test_runner::TestRng::deterministic(i)))
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn failing_case_reports_index_and_inputs() {
        // A property failing on every case must panic with the case index
        // AND the Debug rendering of the generated inputs — the original
        // values are always printed, with any shrunk reduction appended
        // after them, never replacing them.
        let result = std::panic::catch_unwind(|| {
            proptest! {
                #![proptest_config(ProptestConfig::with_cases(4))]
                #[allow(unused)]
                fn always_fails(x in 0usize..10, v in crate::collection::vec(0u8..3, 2..4)) {
                    prop_assert!(false, "x was {}", x);
                }
            }
            always_fails();
        });
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("deterministic case 0/4"), "got: {msg}");
        // The generated tuple is printed verbatim: `inputs: (<x>, [<v>...])`.
        let inputs = msg.split("inputs: ").nth(1).expect("inputs section present");
        assert!(inputs.starts_with('('), "got: {msg}");
        assert!(inputs.contains('['), "vector input rendered: {msg}");
        // And it names the actual failing value from the message.
        let x: usize = msg.split("x was ").nth(1).unwrap().lines().next().unwrap().parse().unwrap();
        assert!(inputs.contains(&format!("({x}, ")), "x value {x} appears in {inputs}");
        // This property fails for every input, so the naive shrinker must
        // reduce it all the way to the minimal tuple.
        assert!(msg.contains("shrunk ("), "shrink report appended: {msg}");
        assert!(msg.trim_end().ends_with("(0, [])"), "minimal case reached: {msg}");
    }

    #[test]
    fn shrink_candidates_simplify_values() {
        use crate::shrink::NaiveShrink;
        assert_eq!(8u64.shrink_candidates(), vec![0, 4, 7]);
        assert_eq!(1u64.shrink_candidates(), vec![0]);
        assert!(0u64.shrink_candidates().is_empty());
        assert_eq!((-4i32).shrink_candidates(), vec![0, -2, -3]);
        assert_eq!(true.shrink_candidates(), vec![false]);
        let v = vec![1u8, 2, 3];
        let candidates = v.shrink_candidates();
        assert!(candidates.contains(&vec![]), "empty pass");
        assert!(candidates.contains(&vec![1]), "first-half pass");
        assert!(candidates.contains(&vec![2, 3]), "second-half pass");
        assert!(candidates.contains(&vec![1, 3]), "drop-element pass");
        // Tuples shrink one component at a time.
        let t = (2u64, vec![5u8]);
        assert!(t.shrink_candidates().contains(&(1, vec![5u8])));
        assert!(t.shrink_candidates().contains(&(2, vec![])));
    }

    #[test]
    fn probe_is_a_no_op_for_unshrinkable_types() {
        // Workspace types (graphs, schedules) have no NaiveShrink impl;
        // the probe must silently decline rather than fail to compile.
        use crate::shrink::NoShrink as _;
        #[derive(Debug)]
        struct Opaque;
        assert!((&crate::shrink::ShrinkProbe(&Opaque)).maybe_candidates().is_none());
        assert!((&crate::shrink::ShrinkProbe(&Opaque)).shrink_with(|_| true).is_none());
        // And a tuple of std types resolves to the real shrinker.
        assert!((&crate::shrink::ShrinkProbe(&(3usize, vec![1u8]))).maybe_candidates().is_some());
    }

    #[test]
    fn scalar_failures_shrink_toward_the_boundary() {
        // Fails for every x in 7..1000; halving passes must land exactly on
        // the smallest failing value.
        let result = std::panic::catch_unwind(|| {
            proptest! {
                #![proptest_config(ProptestConfig::with_cases(1))]
                #[allow(unused)]
                fn too_big(x in 7usize..1000) {
                    prop_assert!(x < 7, "over the line");
                }
            }
            too_big();
        });
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.trim_end().ends_with("(7,)"), "boundary found: {msg}");
    }

    #[test]
    fn vector_failures_shrink_by_dropping_elements() {
        // Any non-empty vector fails (elements are >= 1), so the shrinker
        // must reach a single-element witness — and keep the original
        // inputs visible above the reduction.
        let result = std::panic::catch_unwind(|| {
            proptest! {
                #![proptest_config(ProptestConfig::with_cases(1))]
                #[allow(unused)]
                fn sum_not_zero(v in crate::collection::vec(1u64..100, 3..6)) {
                    prop_assert!(v.iter().sum::<u64>() == 0, "nonzero sum");
                }
            }
            sum_not_zero();
        });
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("inputs: ([") && msg.contains("shrunk ("), "got: {msg}");
        let reduced = msg.split("shrunk (").nth(1).unwrap().split("): ").nth(1).unwrap().trim();
        let witness: u64 = reduced
            .strip_prefix("([")
            .and_then(|r| r.strip_suffix("],)"))
            .unwrap_or_else(|| panic!("single-element witness, got {reduced}"))
            .parse()
            .unwrap();
        assert!(witness >= 1, "witness from the generated range");
    }
}
