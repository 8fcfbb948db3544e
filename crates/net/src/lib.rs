//! Geo-distributed network model for the Diablo benchmark suite.
//!
//! Encodes the paper's Table 3: the ten AWS regions used in the
//! evaluation, the measured inter-region round-trip times and bandwidths,
//! the machine classes (c5.xlarge, c5.2xlarge, c5.9xlarge) and the five
//! deployment configurations (datacenter, testnet, devnet, community,
//! consortium). On top of the raw matrices it provides a message delay
//! model and an analytic quorum-latency model used by the consensus
//! simulations in `diablo-chains`.

#![warn(missing_docs)]

pub mod config;
pub mod dial;
pub mod machine;
pub mod matrix;
pub mod model;
pub mod quorum;
pub mod region;

pub use config::{DeploymentConfig, DeploymentKind, NodeSite};
pub use dial::{dial, DialError, DialErrorKind, DialPolicy};
pub use machine::{InstanceType, MachineSpec};
pub use matrix::{bandwidth_mbps, rtt_ms, INTRA_DC_BANDWIDTH_MBPS, INTRA_DC_RTT_MS};
pub use model::NetworkModel;
pub use quorum::QuorumModel;
pub use region::Region;
