//! In-tree property-testing and benchmarking harness.
//!
//! The workspace builds hermetically — `cargo build --release --offline`
//! from a cold registry — so its test and bench infrastructure cannot
//! depend on external crates. This crate supplies the substrates the
//! suite needs, built on the deterministic primitives of `diablo-sim`:
//!
//! - [`prop`]: a small property-testing harness. Generators ([`gen`])
//!   draw from [`diablo_sim::DetRng`], the runner executes a configurable
//!   number of cases, and on failure it greedily shrinks the input and
//!   prints a **replayable seed**: re-running the test with
//!   `DIABLO_PROP_SEED=<seed>` reproduces exactly the failing case.
//! - [`mod@bench`]: a statistics-reporting micro/macro-benchmark harness:
//!   warmup, N timed samples, their mean and p50/p99 (by
//!   [`diablo_sim::stats::Cdf`]), human-readable output plus optional
//!   `BENCH_<suite>.json` line output (set `DIABLO_BENCH_JSON`).
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
//! | `DIABLO_PROP_SEED` | Replays a single failing case (hex `0x…` or decimal). |
//! | `DIABLO_BENCH_SAMPLES` | Overrides the per-benchmark sample count. |
//! | `DIABLO_BENCH_FILTER` | Runs only benchmarks whose name contains the substring. |
//! | `DIABLO_BENCH_JSON` | Directory (or `1` for `.`) receiving `BENCH_<suite>.json`. |

#![warn(missing_docs)]

pub mod alloc;
pub mod bench;
pub mod gen;
pub mod prop;

pub use bench::{black_box, Bench};
pub use gen::{BoxedGen, Gen};
pub use prop::{check, Property, PropResult};
