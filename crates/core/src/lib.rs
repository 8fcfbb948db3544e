//! The Diablo benchmark framework (the paper's §4), in Rust.
//!
//! Diablo evaluates blockchains with realistic decentralized
//! applications. The framework has two roles:
//!
//! - the **Primary** coordinates an experiment: it parses the benchmark
//!   configuration ([`spec`]), deploys resources, dispatches workload
//!   shares to the Secondaries, launches the run and aggregates the
//!   per-transaction results into JSON/CSV reports ([`output`]);
//! - the **Secondaries** presign and execute the workload against their
//!   collocated blockchain nodes, recording submission and decision
//!   times ([`secondary`]).
//!
//! Blockchains plug in through a four-function abstraction
//! ([`abstraction`]): `create_client`, `create_resource`, `encode` and
//! `trigger` — exactly the surface the paper asks a new blockchain to
//! implement. The six built-in adapters ([`adapters`]) bind those
//! functions to the simulated networks of `diablo-chains`.
//!
//! Two execution modes are provided: [`primary::run_local`] draws every
//! client's plan in-process as the run consumes it (the fast path used
//! by the benchmark harness), and [`wire`] implements the distributed
//! Primary/Secondary protocol over TCP, as deployed in the paper's
//! experiments.

#![warn(missing_docs)]

pub mod abstraction;
pub mod adapters;
pub mod analysis;
pub mod bytebuf;
pub mod json;
pub mod live;
pub mod livediff;
pub mod output;
pub mod primary;
pub mod report;
pub mod secondary;
pub mod setup;
pub mod spec;
pub mod tracediff;
pub mod wire;
pub mod yaml;

pub use abstraction::{
    ClientId, Connector, ConnectorError, Encoded, Interaction, InteractionEvent, ResourceSpec,
    SimConnector,
};
pub use bytebuf::{ByteBuf, ByteReader};
pub use live::run_live;
pub use livediff::LiveDiff;
pub use primary::{run_local, BenchmarkOptions};
pub use report::Report;
pub use setup::Setup;
pub use spec::{Behavior, BenchmarkSpec, InteractionSpec, SpecError, WorkloadGroup};

/// Default signing-account pool when a spec omits `!account` (the
/// paper's workloads submit from 2,000 different accounts, §5.2).
pub const DEFAULT_ACCOUNTS: u32 = 2_000;
