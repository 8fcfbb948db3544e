//! The property runner: cases, greedy shrinking, replayable seeds.
//!
//! [`Property::check`] draws `cases` inputs from a generator, each from
//! its own deterministically derived seed, and applies the property
//! closure. A property fails by returning `Err` (use the
//! [`prop_assert!`](crate::prop_assert) family) or by panicking — panics
//! are caught and treated as failures, so "this function is total"
//! properties need no special handling.
//!
//! On failure the runner greedily shrinks the input: it asks the
//! generator for smaller candidates, keeps the first one that still
//! fails, and repeats until no candidate fails or the step budget runs
//! out. The final report names the property, the case seed, the original
//! and shrunk inputs, and the exact `DIABLO_PROP_SEED=…` incantation
//! that replays the failure.
//!
//! Case seeds are fixed: case *k* (1-based, as the report numbers it)
//! is always `splitmix64(BASE_SEED + k - 1)`. A failing case's seed is
//! therefore its case, and a plain unseeded run replays it as long as
//! the property keeps at least *k* cases. A case that once killed a
//! mutant needs no replay line in CI; a comment at the property names
//! the case and the mutant. `DIABLO_PROP_SEED` is for replaying one
//! failure in isolation, or a seed from outside the case stream.

use std::panic::{catch_unwind, AssertUnwindSafe};

use diablo_sim::DetRng;

use crate::gen::Gen;

/// A property either holds (`Ok`) or fails with an explanation.
pub type PropResult = Result<(), String>;

/// Default number of cases per property.
pub const DEFAULT_CASES: u32 = 100;

/// Upper bound on greedy shrink steps.
const MAX_SHRINK_STEPS: u32 = 2_000;

/// Fixed base seed: properties are deterministic run-to-run; vary
/// `DIABLO_PROP_SEED` to explore other streams. Changing it (or
/// [`splitmix64`]) moves every recorded kill to another case.
const BASE_SEED: u64 = 0xD1AB_1005_EED0_0001;

/// SplitMix64 output function, used to spread case indices into
/// well-separated case seeds.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Parses `0x…` hex or decimal from an environment variable.
fn env_u64(name: &str) -> Option<u64> {
    let raw = std::env::var(name).ok()?;
    let raw = raw.trim();
    let parsed = if let Some(hex) = raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        raw.parse()
    };
    match parsed {
        Ok(v) => Some(v),
        Err(_) => panic!("{name} must be a u64 (decimal or 0x-hex), got {raw:?}"),
    }
}

/// A configured property, ready to check a generator against a closure.
pub struct Property {
    name: String,
    cases: u32,
}

impl Property {
    /// Starts a property with the default case count
    /// ([`DEFAULT_CASES`], overridable via `DIABLO_PROP_CASES`).
    pub fn new(name: &str) -> Self {
        Property {
            name: name.to_string(),
            cases: DEFAULT_CASES,
        }
    }

    /// Sets the number of cases (still overridden by
    /// `DIABLO_PROP_CASES` when that is set).
    pub fn cases(mut self, cases: u32) -> Self {
        self.cases = cases.max(1);
        self
    }

    /// Runs the property over `cases` generated inputs.
    ///
    /// # Panics
    ///
    /// Panics with a replayable report if any case fails.
    pub fn check<G, F>(self, gen: &G, prop: F)
    where
        G: Gen,
        F: Fn(&G::Value) -> PropResult,
    {
        // Replay mode: a single case from the exact seed given.
        if let Some(seed) = env_u64("DIABLO_PROP_SEED") {
            let value = gen.generate(&mut DetRng::new(seed));
            if let Err(cause) = run_one(&prop, &value) {
                self.fail(seed, 0, 1, value, gen, &prop, cause);
            }
            return;
        }
        let cases = env_u64("DIABLO_PROP_CASES")
            .map(|n| (n as u32).max(1))
            .unwrap_or(self.cases);
        for case in 0..cases {
            let seed = splitmix64(BASE_SEED.wrapping_add(case as u64));
            let value = gen.generate(&mut DetRng::new(seed));
            if let Err(cause) = run_one(&prop, &value) {
                self.fail(seed, case, cases, value, gen, &prop, cause);
            }
        }
    }

    /// Shrinks greedily and panics with the final report.
    fn fail<G, F>(
        &self,
        seed: u64,
        case: u32,
        cases: u32,
        original: G::Value,
        gen: &G,
        prop: &F,
        original_cause: String,
    ) -> !
    where
        G: Gen,
        F: Fn(&G::Value) -> PropResult,
    {
        let mut current = original.clone();
        let mut cause = original_cause.clone();
        let mut steps = 0u32;
        'outer: while steps < MAX_SHRINK_STEPS {
            for candidate in gen.shrink(&current) {
                steps += 1;
                if let Err(c) = run_one(prop, &candidate) {
                    current = candidate;
                    cause = c;
                    continue 'outer;
                }
                if steps >= MAX_SHRINK_STEPS {
                    break;
                }
            }
            break; // no candidate failed: fully shrunk
        }
        let shrunk = format!("{current:?}");
        let original = format!("{original:?}");
        let shrunk_line = if shrunk == original {
            String::new()
        } else {
            format!("  shrunk input:   {shrunk}\n")
        };
        panic!(
            "property '{name}' failed (case {case_no}/{cases})\n\
             \x20 replay with:    DIABLO_PROP_SEED={seed:#x} cargo test\n\
             \x20 original input: {original}\n\
             {shrunk_line}\
             \x20 cause:          {cause}",
            name = self.name,
            case_no = case + 1,
        );
    }
}

/// Runs one case, converting panics inside the property into `Err`.
fn run_one<T, F>(prop: &F, value: &T) -> PropResult
where
    F: Fn(&T) -> PropResult,
{
    match catch_unwind(AssertUnwindSafe(|| prop(value))) {
        Ok(result) => result,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "property panicked".to_string());
            Err(format!("panic: {msg}"))
        }
    }
}

/// Checks a property with the default configuration — shorthand for
/// [`Property::new`]`(name).check(gen, prop)`.
pub fn check<G, F>(name: &str, gen: &G, prop: F)
where
    G: Gen,
    F: Fn(&G::Value) -> PropResult,
{
    Property::new(name).check(gen, prop)
}

/// Fails the surrounding property unless the condition holds.
///
/// Expands to an early `return Err(…)`, so it can only be used inside a
/// closure returning [`PropResult`].
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return Err(format!("assertion failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!($($fmt)+));
        }
    };
}

/// Fails the surrounding property unless the two values are equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err(format!(
                "assertion failed: {} == {}\n    left: {:?}\n   right: {:?}",
                stringify!($left),
                stringify!($right),
                l,
                r
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err(format!(
                "{}\n    left: {:?}\n   right: {:?}",
                format!($($fmt)+),
                l,
                r
            ));
        }
    }};
}

/// Fails the surrounding property if the two values are equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if l == r {
            return Err(format!(
                "assertion failed: {} != {}\n    both: {:?}",
                stringify!($left),
                stringify!($right),
                l
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{i64s, u64s, vecs};

    #[test]
    fn passing_property_is_silent() {
        Property::new("tautology").cases(50).check(&u64s(0..=100), |v| {
            prop_assert!(*v <= 100);
            Ok(())
        });
    }

    #[test]
    fn failing_property_reports_replayable_shrunk_seed() {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            Property::new("deliberately_broken")
                .cases(200)
                .check(&i64s(0..=1_000_000), |v| {
                    prop_assert!(*v < 500, "value {v} reached the broken region");
                    Ok(())
                });
        }));
        let payload = outcome.expect_err("the property must fail");
        let msg = payload
            .downcast_ref::<String>()
            .expect("failure report is a String");
        assert!(
            msg.contains("DIABLO_PROP_SEED=0x"),
            "report lacks a replayable seed: {msg}"
        );
        assert!(msg.contains("deliberately_broken"), "report names the property");
        // Greedy shrinking must land exactly on the boundary value.
        assert!(
            msg.contains("shrunk input:   500"),
            "report lacks the minimal counterexample: {msg}"
        );
    }

    #[test]
    fn panicking_property_is_caught_and_shrunk() {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            Property::new("panics_on_long_vecs")
                .cases(100)
                .check(&vecs(u64s(0..=9), 0..=40), |v| {
                    assert!(v.len() < 10, "vector too long");
                    Ok(())
                });
        }));
        let payload = outcome.expect_err("the property must fail");
        let msg = payload.downcast_ref::<String>().unwrap();
        assert!(msg.contains("panic: vector too long"), "cause missing: {msg}");
        assert!(msg.contains("DIABLO_PROP_SEED"), "seed missing: {msg}");
    }

    #[test]
    fn case_seeds_are_the_ones_recorded_kills_name() {
        // Cases 1 and 2 of every property. The mutation kills recorded
        // at properties (and in EXPERIMENTS.md) name cases of this
        // stream; a new base seed or mixer would silently drop them.
        assert_eq!(splitmix64(BASE_SEED), 0xc9fe_069d_1f6e_f645);
        assert_eq!(splitmix64(BASE_SEED.wrapping_add(1)), 0x83ec_3fef_d347_df57);
    }

    #[test]
    fn replayed_seed_reproduces_the_same_input() {
        let g = vecs(i64s(-1000..=1000), 0..=20);
        let seed = splitmix64(BASE_SEED.wrapping_add(17));
        let a = g.generate(&mut DetRng::new(seed));
        let b = g.generate(&mut DetRng::new(seed));
        assert_eq!(a, b);
    }
}
