//! # proptest (in-tree stand-in)
//!
//! A std-only, offline drop-in for the subset of the `proptest` crate used
//! by this workspace's test suites. The build environment has no registry
//! access, so the real crate cannot be fetched; this shim keeps the
//! property-test sources compiling and *running* unchanged.
//!
//! Differences from upstream, by design:
//!
//! * cases are generated from a deterministic [`rng::SplitMix64`] stream
//!   seeded from the test's module path and name, so every run explores the
//!   same inputs (failures reproduce immediately, no persistence files);
//! * there is no shrinking — the failing case's inputs are printed as-is;
//! * the regex string strategy supports exactly the `atom{lo,hi}` shapes
//!   (a dot or a character class) that the suites use.
//!
//! Supported surface: the [`proptest!`] macro (with an optional
//! `#![proptest_config(..)]` header), [`prelude`], [`Strategy`](strategy::Strategy) for integer
//! ranges, tuples, `&str` regexes and mapped/vector combinators,
//! `any::<T>()`, `prop::collection::vec`, `prop::char::any()`,
//! `prop::bool::ANY`, `prop_assert!` / `prop_assert_eq!` / `prop_assume!`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod rng;
pub mod strategy;

pub mod test_runner {
    //! Test-runner configuration (a tiny mirror of `proptest::test_runner`).

    /// Run configuration: how many random cases each property executes.
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of generated cases per property.
        pub cases: u32,
    }

    impl Config {
        /// Config running `cases` random cases.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 256 }
        }
    }
}

pub mod arbitrary {
    //! `any::<T>()` — canonical strategies for primitive types.

    use crate::rng::SplitMix64;
    use crate::strategy::Strategy;
    use std::marker::PhantomData;

    /// Types with a canonical generation strategy.
    pub trait Arbitrary: std::fmt::Debug {
        /// Generate one arbitrary value.
        fn arbitrary(rng: &mut SplitMix64) -> Self;
    }

    macro_rules! int_arbitrary {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut SplitMix64) -> Self {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut SplitMix64) -> Self {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for char {
        fn arbitrary(rng: &mut SplitMix64) -> Self {
            crate::char::sample(rng)
        }
    }

    /// Strategy wrapper returned by [`any`].
    #[derive(Debug, Clone, Copy)]
    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut SplitMix64) -> T {
            T::arbitrary(rng)
        }
    }

    /// The canonical strategy for `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod collection {
    //! Collection strategies (`vec`).

    use crate::rng::SplitMix64;
    use crate::strategy::Strategy;
    use std::ops::Range;

    /// Size bounds for generated collections.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            SizeRange { lo: r.start, hi: r.end.max(r.start + 1) }
        }
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    /// Strategy producing `Vec`s of `element` values.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut SplitMix64) -> Vec<S::Value> {
            let len = self.size.lo + (rng.next_u64() as usize) % (self.size.hi - self.size.lo);
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// A vector of values from `element`, with length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }
}

pub mod char {
    //! Character strategies.

    use crate::rng::SplitMix64;
    use crate::strategy::Strategy;

    pub(crate) fn sample(rng: &mut SplitMix64) -> char {
        // Bias towards ASCII (parsers mostly trip on structure, not
        // astral-plane code points), but keep full-range coverage.
        if !rng.next_u64().is_multiple_of(4) {
            (0x20 + (rng.next_u64() % 0x5f)) as u8 as char
        } else {
            loop {
                if let Some(c) = char::from_u32((rng.next_u64() % 0x11_0000) as u32) {
                    return c;
                }
            }
        }
    }

    /// Strategy over all `char`s.
    #[derive(Debug, Clone, Copy)]
    pub struct CharAny;

    impl Strategy for CharAny {
        type Value = char;
        fn generate(&self, rng: &mut SplitMix64) -> char {
            sample(rng)
        }
    }

    /// Any character.
    pub fn any() -> CharAny {
        CharAny
    }
}

pub mod bool {
    //! Boolean strategies.

    use crate::rng::SplitMix64;
    use crate::strategy::Strategy;

    /// Strategy over both booleans.
    #[derive(Debug, Clone, Copy)]
    pub struct BoolAny;

    impl Strategy for BoolAny {
        type Value = bool;
        fn generate(&self, rng: &mut SplitMix64) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    /// Either boolean, uniformly.
    pub const ANY: BoolAny = BoolAny;
}

pub mod string;

pub mod prelude {
    //! The usual `use proptest::prelude::*` surface.

    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};

    /// The `prop` namespace (`prop::collection::vec`, `prop::char::any`, …).
    pub mod prop {
        pub use crate::bool;
        pub use crate::char;
        pub use crate::collection;
    }
}

/// Define property tests.
///
/// Mirrors `proptest::proptest!`: an optional `#![proptest_config(expr)]`
/// header followed by `#[test] fn name(pat in strategy, …) { body }` items.
#[macro_export]
macro_rules! proptest {
    (@munch ($cfg:expr)) => {};
    (@munch ($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let cfg: $crate::test_runner::Config = $cfg.clone();
            let mut rng = $crate::rng::SplitMix64::from_name(concat!(
                module_path!(), "::", stringify!($name)
            ));
            for case in 0..cfg.cases {
                $(let $arg = $crate::strategy::Strategy::generate(&$strat, &mut rng);)*
                let guard = $crate::CaseGuard::new(case, {
                    let mut s = String::new();
                    $(s.push_str(&format!("  {} = {:?}\n", stringify!($arg), &$arg));)*
                    s
                });
                $body
                guard.disarm();
            }
        }
        $crate::proptest!(@munch ($cfg) $($rest)*);
    };
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@munch ($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@munch ($crate::test_runner::Config::default()) $($rest)*);
    };
}

/// Prints the failing case's inputs when a property body panics.
pub struct CaseGuard {
    case: u32,
    describe: Option<String>,
}

impl CaseGuard {
    /// Arm a guard for `case` with a description of its inputs.
    pub fn new(case: u32, describe: String) -> Self {
        CaseGuard { case, describe: Some(describe) }
    }

    /// The case completed: don't report anything.
    pub fn disarm(mut self) {
        self.describe = None;
    }
}

impl Drop for CaseGuard {
    fn drop(&mut self) {
        if let Some(describe) = &self.describe {
            eprintln!("proptest case {} failed with inputs:\n{}", self.case, describe);
        }
    }
}

/// Assert a condition inside a property, reporting the expression on failure.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*) };
}

/// Assert equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($l:expr, $r:expr) => { assert_eq!($l, $r) };
    ($l:expr, $r:expr, $($fmt:tt)*) => { assert_eq!($l, $r, $($fmt)*) };
}

/// Assert inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($l:expr, $r:expr) => { assert_ne!($l, $r) };
    ($l:expr, $r:expr, $($fmt:tt)*) => { assert_ne!($l, $r, $($fmt)*) };
}

/// Skip the current case when an assumption does not hold.
///
/// The shim cannot restart a case mid-body, so an unmet assumption simply
/// returns from the enclosing test function (coverage comes from the other
/// cases).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return;
        }
    };
}
