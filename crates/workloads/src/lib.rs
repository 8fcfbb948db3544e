//! Workload generation for the Diablo benchmark suite.
//!
//! Implements the realistic traces of the paper's Table 2 — NASDAQ GAFAM
//! stock bursts, the Dota 2 constant hammering, the FIFA '98 world-cup
//! final, the extrapolated Uber NYC demand and the extrapolated YouTube
//! upload rate — plus the synthetic constant-rate workloads of §6.2/§6.3.
//!
//! A [`Workload`] is a submission-rate curve held as its breakpoints; it
//! can be inspected (peak, mean, duration: the numbers printed in Table
//! 2) and expanded into exact per-tick transaction counts with
//! deterministic rounding, whose transactions [`spread`] places in time.

#![warn(missing_docs)]

pub mod synth;
pub mod traces;
pub mod workload;

pub use workload::{spread, Workload, TICK_MS};
