//! Offline shim for `proptest`: the subset this workspace's property
//! tests use, implemented without external dependencies.
//!
//! Differences from the real crate:
//!
//! * **No shrinking.** A failing case panics immediately with the
//!   generated inputs debug-printed; minimize by hand.
//! * **No regression-file replay.** `.proptest-regressions` seeds are
//!   opaque to this implementation; known regressions should be pinned
//!   as explicit `#[test]`s.
//! * **Deterministic seeding.** Case `i` of test `t` always sees the
//!   same inputs (seeded from the test path), so failures reproduce.
//!
//! Strategies are generation-only: a [`Strategy`] draws a value from a
//! [`TestRng`]. Regex-literal string strategies implement a small
//! pattern subset (classes, ranges, `{m,n}`/`*`/`+`/`?` quantifiers,
//! and `\PC` = any printable char, with non-ASCII chars — including
//! U+FFFC — in the pool on purpose).

use std::collections::BTreeSet;
use std::fmt;
use std::rc::Rc;

pub mod strategy {
    //! Re-exports mirroring the real crate's module layout.
    pub use crate::{BoxedStrategy, Just, Strategy};
}

pub mod test_runner {
    //! Re-exports mirroring the real crate's module layout.
    pub use crate::{TestCaseError, TestRng};
}

/// Everything a property test usually imports.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
        Arbitrary, BoxedStrategy, Just, ProptestConfig, Strategy, TestCaseError,
    };
}

// ---------------------------------------------------------------------
// RNG
// ---------------------------------------------------------------------

/// Deterministic SplitMix64 generator used by the test runner.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds from a test path and case index (stable across runs).
    pub fn for_case(test_path: &str, case: u64) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_path.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        TestRng {
            state: h ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        }
    }

    /// Next raw 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be nonzero.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform usize in `[lo, hi]`.
    pub fn size_in(&mut self, lo: usize, hi: usize) -> usize {
        if hi <= lo {
            return lo;
        }
        lo + self.below((hi - lo + 1) as u64) as usize
    }

    /// Uniform f64 in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

// ---------------------------------------------------------------------
// Errors and config
// ---------------------------------------------------------------------

/// Why a test case failed.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// `prop_assert!`-style failure.
    Fail(String),
    /// `prop_assume!` rejection (the case is skipped, not failed).
    Reject(String),
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TestCaseError::Fail(m) => write!(f, "{m}"),
            TestCaseError::Reject(m) => write!(f, "rejected: {m}"),
        }
    }
}

/// Runner configuration (`cases` is the only knob the shim honors).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases to run per property.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

// ---------------------------------------------------------------------
// Strategy core
// ---------------------------------------------------------------------

/// A generator of test values.
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
        Map { inner: self, f }
    }

    /// Generates with one strategy, then with a strategy derived from
    /// the first value.
    fn prop_flat_map<O, S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy<Value = O>,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }

    /// Keeps only values satisfying `pred` (resamples, up to a bound).
    fn prop_filter<F>(self, _whence: &'static str, pred: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter { inner: self, pred }
    }

    /// Builds recursive structures: `recurse` receives the strategy for
    /// the next-shallower level and returns the expanded strategy.
    /// Levels are expanded `depth` times (the shim ignores the size
    /// hints — recursion is bounded by construction).
    fn prop_recursive<R, F>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch_size: u32,
        recurse: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        R: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> R,
    {
        let mut level = self.boxed();
        for _ in 0..depth {
            level = recurse(level).boxed();
        }
        level
    }

    /// Type-erases the strategy (cheaply clonable).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Rc::new(self))
    }
}

/// A type-erased, clonable strategy.
pub struct BoxedStrategy<T>(Rc<dyn ErasedStrategy<T>>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(Rc::clone(&self.0))
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        self.0.erased_generate(rng)
    }
}

trait ErasedStrategy<T> {
    fn erased_generate(&self, rng: &mut TestRng) -> T;
}

impl<S: Strategy> ErasedStrategy<S::Value> for S {
    fn erased_generate(&self, rng: &mut TestRng) -> S::Value {
        self.generate(rng)
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_flat_map`].
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S, O, S2, F> Strategy for FlatMap<S, F>
where
    S: Strategy,
    S2: Strategy<Value = O>,
    F: Fn(S::Value) -> S2,
{
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// See [`Strategy::prop_filter`].
pub struct Filter<S, F> {
    inner: S,
    pred: F,
}

impl<S, F> Strategy for Filter<S, F>
where
    S: Strategy,
    F: Fn(&S::Value) -> bool,
{
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..1000 {
            let v = self.inner.generate(rng);
            if (self.pred)(&v) {
                return v;
            }
        }
        panic!("prop_filter rejected 1000 candidates in a row");
    }
}

/// Always generates a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

// ---------------------------------------------------------------------
// Primitive strategies
// ---------------------------------------------------------------------

macro_rules! impl_int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range strategy");
                let span = (hi as i128 - lo as i128 + 1) as u64;
                (lo as i128 + rng.below(span) as i128) as $t
            }
        }
    )*};
}

impl_int_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for std::ops::Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + (self.end - self.start) * rng.unit_f64()
    }
}

impl Strategy for std::ops::RangeInclusive<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        lo + (hi - lo) * rng.unit_f64()
    }
}

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.generate(rng),)+)
            }
        }
    };
}

impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, G);

/// Types with a canonical strategy (`any::<T>()`).
pub trait Arbitrary: Sized {
    /// The canonical strategy for the type.
    type Strategy: Strategy<Value = Self>;
    /// Builds the canonical strategy.
    fn arbitrary() -> Self::Strategy;
}

/// The canonical strategy for `T`.
pub fn any<T: Arbitrary>() -> T::Strategy {
    T::arbitrary()
}

/// Strategy for `bool` (fair coin).
#[derive(Debug, Clone, Copy)]
pub struct AnyBool;

impl Strategy for AnyBool {
    type Value = bool;
    fn generate(&self, rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for bool {
    type Strategy = AnyBool;
    fn arbitrary() -> AnyBool {
        AnyBool
    }
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            type Strategy = std::ops::RangeInclusive<$t>;
            fn arbitrary() -> Self::Strategy {
                <$t>::MIN..=<$t>::MAX
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, i8, i16, i32);

// ---------------------------------------------------------------------
// Weighted union (prop_oneof!)
// ---------------------------------------------------------------------

/// Weighted choice among boxed strategies of one value type.
pub struct Union<T> {
    arms: Vec<(u32, BoxedStrategy<T>)>,
    total: u64,
}

impl<T> Union<T> {
    /// Builds from `(weight, strategy)` arms; weights must sum > 0.
    pub fn new_weighted(arms: Vec<(u32, BoxedStrategy<T>)>) -> Self {
        let total: u64 = arms.iter().map(|&(w, _)| w as u64).sum();
        assert!(total > 0, "prop_oneof! needs positive total weight");
        Union { arms, total }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let mut pick = rng.below(self.total);
        for (w, s) in &self.arms {
            if pick < *w as u64 {
                return s.generate(rng);
            }
            pick -= *w as u64;
        }
        unreachable!("weights changed mid-generate");
    }
}

/// Weighted or unweighted choice among strategies with a common value
/// type (each arm is boxed).
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::Union::new_weighted(vec![
            $(($weight as u32, $crate::Strategy::boxed($strat)),)+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::Union::new_weighted(vec![
            $((1u32, $crate::Strategy::boxed($strat)),)+
        ])
    };
}

// ---------------------------------------------------------------------
// Collections / option
// ---------------------------------------------------------------------

/// Length specifiers for collection strategies.
pub trait SizeRange {
    /// Inclusive (lo, hi) bounds.
    fn bounds(&self) -> (usize, usize);
}

impl SizeRange for usize {
    fn bounds(&self) -> (usize, usize) {
        (*self, *self)
    }
}

impl SizeRange for std::ops::Range<usize> {
    fn bounds(&self) -> (usize, usize) {
        assert!(self.start < self.end, "empty size range");
        (self.start, self.end - 1)
    }
}

impl SizeRange for std::ops::RangeInclusive<usize> {
    fn bounds(&self) -> (usize, usize) {
        (*self.start(), *self.end())
    }
}

/// Collection strategies.
pub mod collection {
    use super::*;

    /// `Vec<T>` with a length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl SizeRange) -> VecStrategy<S> {
        let (lo, hi) = size.bounds();
        VecStrategy { element, lo, hi }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        lo: usize,
        hi: usize,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = rng.size_in(self.lo, self.hi);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// `BTreeSet<T>` with a size drawn from `size` (best-effort: fewer
    /// elements when the domain is too small for distinctness).
    pub fn btree_set<S>(element: S, size: impl SizeRange) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        let (lo, hi) = size.bounds();
        BTreeSetStrategy { element, lo, hi }
    }

    /// See [`btree_set`].
    pub struct BTreeSetStrategy<S> {
        element: S,
        lo: usize,
        hi: usize,
    }

    impl<S> Strategy for BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let n = rng.size_in(self.lo, self.hi);
            let mut out = BTreeSet::new();
            let mut attempts = 0;
            while out.len() < n && attempts < n * 20 + 20 {
                out.insert(self.element.generate(rng));
                attempts += 1;
            }
            out
        }
    }
}

/// Option strategies.
pub mod option {
    use super::*;

    /// `Option<T>`, `None` about a quarter of the time.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    /// See [`of`].
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.inner.generate(rng))
            }
        }
    }
}

// ---------------------------------------------------------------------
// Regex-literal string strategies
// ---------------------------------------------------------------------

/// One parsed pattern element: a char generator plus repetition bounds.
enum Piece {
    Class(Vec<(char, char)>),
    Printable,
    Literal(char),
}

struct Quantified {
    piece: Piece,
    lo: u32,
    hi: u32,
}

fn parse_pattern(pat: &str) -> Vec<Quantified> {
    let chars: Vec<char> = pat.chars().collect();
    let mut i = 0usize;
    let mut out = Vec::new();
    while i < chars.len() {
        let piece = match chars[i] {
            '[' => {
                let mut ranges = Vec::new();
                i += 1;
                while i < chars.len() && chars[i] != ']' {
                    let lo = if chars[i] == '\\' {
                        i += 1;
                        chars[i]
                    } else {
                        chars[i]
                    };
                    if i + 2 < chars.len() && chars[i + 1] == '-' && chars[i + 2] != ']' {
                        ranges.push((lo, chars[i + 2]));
                        i += 3;
                    } else {
                        ranges.push((lo, lo));
                        i += 1;
                    }
                }
                assert!(i < chars.len(), "unterminated char class in {pat:?}");
                i += 1; // ']'
                Piece::Class(ranges)
            }
            '\\' => {
                i += 1;
                let c = chars[i];
                i += 1;
                match c {
                    // \PC (and \pC): "not category Other" ⇒ any
                    // printable char, non-ASCII included.
                    'P' | 'p' => {
                        i += 1; // consume the category letter
                        Piece::Printable
                    }
                    'd' => Piece::Class(vec![('0', '9')]),
                    'w' => Piece::Class(vec![('a', 'z'), ('A', 'Z'), ('0', '9'), ('_', '_')]),
                    other => Piece::Literal(other),
                }
            }
            c => {
                i += 1;
                Piece::Literal(c)
            }
        };
        // Optional quantifier.
        let (lo, hi) = if i < chars.len() {
            match chars[i] {
                '{' => {
                    let close = chars[i..]
                        .iter()
                        .position(|&c| c == '}')
                        .expect("unterminated quantifier")
                        + i;
                    let body: String = chars[i + 1..close].iter().collect();
                    i = close + 1;
                    match body.split_once(',') {
                        Some((a, b)) => (
                            a.trim().parse().expect("bad quantifier"),
                            b.trim().parse().expect("bad quantifier"),
                        ),
                        None => {
                            let n: u32 = body.trim().parse().expect("bad quantifier");
                            (n, n)
                        }
                    }
                }
                '*' => {
                    i += 1;
                    (0, 8)
                }
                '+' => {
                    i += 1;
                    (1, 8)
                }
                '?' => {
                    i += 1;
                    (0, 1)
                }
                _ => (1, 1),
            }
        } else {
            (1, 1)
        };
        out.push(Quantified { piece, lo, hi });
    }
    out
}

/// Non-ASCII printable chars deliberately included in the `\PC` pool —
/// U+FFFC (the object replacement character) among them, because it has
/// bitten this codebase before.
const EXOTIC: &[char] = &[
    'é', 'ß', 'Ā', '中', 'Ω', '\u{FFFC}', '∑', '🙂', '\u{2028}', '\u{0301}', '¼', 'Ʒ',
];

fn gen_piece(piece: &Piece, rng: &mut TestRng) -> char {
    match piece {
        Piece::Literal(c) => *c,
        Piece::Class(ranges) => {
            let total: u64 = ranges
                .iter()
                .map(|&(a, b)| (b as u64).saturating_sub(a as u64) + 1)
                .sum();
            let mut pick = rng.below(total.max(1));
            for &(a, b) in ranges {
                let span = (b as u64) - (a as u64) + 1;
                if pick < span {
                    return char::from_u32(a as u32 + pick as u32).unwrap_or(a);
                }
                pick -= span;
            }
            ranges[0].0
        }
        Piece::Printable => {
            if rng.below(10) < 7 {
                // Printable ASCII.
                char::from_u32(0x20 + rng.below(0x5F) as u32).unwrap()
            } else {
                EXOTIC[rng.below(EXOTIC.len() as u64) as usize]
            }
        }
    }
}

impl Strategy for &'static str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let pieces = parse_pattern(self);
        let mut out = String::new();
        for q in &pieces {
            let n = rng.size_in(q.lo as usize, q.hi as usize);
            for _ in 0..n {
                out.push(gen_piece(&q.piece, rng));
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------

/// Property-style assertion: fails the case (with the generated inputs
/// reported) instead of panicking outright.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::TestCaseError::Fail(format!($($fmt)+)));
        }
    };
}

/// Property-style equality assertion.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, "assertion failed: {:?} == {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: {:?} == {:?}: {}", l, r, format!($($fmt)+)
        );
    }};
}

/// Property-style inequality assertion.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l != r, "assertion failed: {:?} != {:?}", l, r);
    }};
}

/// Skips the case when the assumption fails.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return Err($crate::TestCaseError::Reject(
                concat!("assumption failed: ", stringify!($cond)).to_string(),
            ));
        }
    };
}

/// Declares property tests. Mirrors the real macro's surface:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     #[test]
///     fn my_property(x in 0u32..100, v in collection::vec(0u8..4, 1..9)) {
///         prop_assert!(x < 100);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests!{ @cfg($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_tests!{ @cfg($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[macro_export]
macro_rules! __proptest_tests {
    (@cfg($cfg:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::ProptestConfig = $cfg;
            let __path = concat!(module_path!(), "::", stringify!($name));
            for __case in 0..__cfg.cases as u64 {
                let mut __rng = $crate::TestRng::for_case(__path, __case);
                let mut __inputs = String::new();
                $(
                    let __value = $crate::Strategy::generate(&($strat), &mut __rng);
                    __inputs.push_str(&format!(
                        concat!(stringify!($pat), " = {:?}; "),
                        &__value
                    ));
                    let $pat = __value;
                )+
                let __run = ::std::panic::catch_unwind(
                    ::std::panic::AssertUnwindSafe(
                        || -> ::std::result::Result<(), $crate::TestCaseError> {
                            { $body }
                            #[allow(unreachable_code)]
                            Ok(())
                        }
                    )
                );
                match __run {
                    Ok(Ok(())) => {}
                    Ok(Err($crate::TestCaseError::Reject(_))) => {}
                    Ok(Err($crate::TestCaseError::Fail(msg))) => {
                        panic!(
                            "proptest case {}/{} failed: {}\n  inputs: {}",
                            __case, __cfg.cases, msg, __inputs
                        );
                    }
                    Err(payload) => {
                        eprintln!(
                            "proptest case {}/{} panicked\n  inputs: {}",
                            __case, __cfg.cases, __inputs
                        );
                        ::std::panic::resume_unwind(payload);
                    }
                }
            }
        }
    )*};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn ranges_and_tuples_generate_in_bounds() {
        let mut rng = TestRng::for_case("t", 0);
        for _ in 0..200 {
            let v = (1u32..5, 0.0..1.0f64, 3usize..=3).generate(&mut rng);
            assert!((1..5).contains(&v.0));
            assert!((0.0..1.0).contains(&v.1));
            assert_eq!(v.2, 3);
        }
    }

    #[test]
    fn regex_subset_matches_shape() {
        let mut rng = TestRng::for_case("t", 1);
        for _ in 0..200 {
            let s = "[a-zA-Z][a-zA-Z0-9_]{0,8}".generate(&mut rng);
            assert!(!s.is_empty() && s.len() <= 9);
            assert!(s.chars().next().unwrap().is_ascii_alphabetic());
            assert!(s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'));
        }
    }

    #[test]
    fn printable_pool_reaches_exotic_chars() {
        let mut rng = TestRng::for_case("t", 2);
        let mut hit_fffc = false;
        for _ in 0..400 {
            let s = "\\PC{0,120}".generate(&mut rng);
            assert!(s.chars().count() <= 120);
            if s.contains('\u{FFFC}') {
                hit_fffc = true;
            }
        }
        assert!(hit_fffc, "U+FFFC must appear in the \\PC pool");
    }

    #[test]
    fn union_respects_weights_roughly() {
        let s = prop_oneof![9 => Just(1u32), 1 => Just(2u32)];
        let mut rng = TestRng::for_case("t", 3);
        let ones = (0..1000).filter(|_| s.generate(&mut rng) == 1).count();
        assert!(ones > 800, "weight-9 arm hit only {ones}/1000");
    }

    #[test]
    fn recursive_strategies_terminate() {
        #[derive(Debug, Clone, PartialEq)]
        enum Tree {
            Leaf(u32),
            Node(Vec<Tree>),
        }
        let leaf = (0u32..10).prop_map(Tree::Leaf).boxed();
        let tree = leaf.prop_recursive(3, 16, 3, |inner| {
            collection::vec(inner, 0..3).prop_map(Tree::Node)
        });
        let mut rng = TestRng::for_case("t", 4);
        for _ in 0..100 {
            let _ = tree.generate(&mut rng); // must not hang or overflow
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn the_macro_itself_works(x in 0u32..50, v in collection::vec(0u8..4, 0..5)) {
            prop_assert!(x < 50);
            prop_assert_eq!(v.len(), v.len());
        }
    }
}
