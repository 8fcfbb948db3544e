//! In-tree property-testing harness.
//!
//! The workspace builds hermetically — `cargo build --release --offline`
//! from a cold registry — so its test infrastructure cannot depend on
//! external crates. This crate supplies the substrates the
//! suite needs, built on the deterministic primitives of `diablo-sim`:
//!
//! - [`prop`]: a small property-testing harness. Generators ([`gen`])
//!   draw from [`diablo_sim::DetRng`], the runner executes a configurable
//!   number of cases, and on failure it greedily shrinks the input and
//!   prints a **replayable seed**: re-running the test with
//!   `DIABLO_PROP_SEED=<seed>` reproduces exactly the failing case.
//! - [`alloc`]: the counting global allocator of the allocation-budget
//!   tests — calls, bytes and peak live bytes of one call.
//!
//! # Writing a property
//!
//! ```
//! use diablo_testkit::gen::{f64s, vecs};
//! use diablo_testkit::{prop_assert, Property};
//!
//! Property::new("sum_is_finite").cases(64).check(
//!     &vecs(f64s(0.0..1_000.0), 0..=30),
//!     |xs| {
//!         let sum: f64 = xs.iter().sum();
//!         prop_assert!(sum.is_finite(), "sum overflowed: {sum}");
//!         Ok(())
//!     },
//! );
//! ```
//!
//! # Environment knobs
//!
//! | Variable | Effect |
//! |---|---|
//! | `DIABLO_PROP_CASES` | Overrides every property's case count. |
//! | `DIABLO_PROP_SEED` | Replays a single failing case (hex `0x…` or decimal). A case's seed is fixed by its number, so an unseeded run replays it too, and CI needs no replay line. |

#![warn(missing_docs)]

pub mod alloc;
pub mod gen;
pub mod prop;

pub use gen::{BoxedGen, Gen};
pub use prop::{check, Property, PropResult};
