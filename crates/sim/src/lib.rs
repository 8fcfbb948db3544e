//! Deterministic discrete-event simulation kernel for the Diablo benchmark
//! suite.
//!
//! This crate provides the time base, the event queue, a deterministic
//! pseudo-random number generator and streaming statistics used by every
//! other simulation crate in the workspace. It has no dependencies and is
//! fully deterministic: running the same simulation with the same seed
//! always produces bit-identical results, which is what makes the
//! paper-reproduction benches in `diablo-bench` stable across machines.

#![warn(missing_docs)]

pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;

pub use queue::{EventQueue, QueueBackend};
pub use rng::DetRng;
pub use stats::{Cdf, LogHistogram, TimeSeries};
pub use time::{SimDuration, SimTime};
