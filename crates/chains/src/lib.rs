//! Simulated blockchains for the Diablo benchmark suite.
//!
//! Protocol-faithful models of the six blockchains the paper evaluates
//! (Table 4):
//!
//! | Chain     | Consensus            | VM     | Property      |
//! |-----------|----------------------|--------|---------------|
//! | Algorand  | BA★ (sortition)      | AVM    | probabilistic |
//! | Avalanche | metastable sampling  | geth   | probabilistic |
//! | Diem      | HotStuff             | MoveVM | deterministic |
//! | Ethereum  | Clique (PoA)         | geth   | eventual      |
//! | Quorum    | IBFT                 | geth   | deterministic |
//! | Solana    | PoH + TowerBFT       | eBPF   | eventual      |
//!
//! Each model reproduces the mechanisms the paper identifies as decisive
//! (§5.2, §6): mempool admission policy (Diem's 100-transaction
//! per-sender cap, bounded pools that drop, Quorum's never-drop queue),
//! block production cadence (Avalanche's throttled block period, Solana's
//! 400 ms PoH slots, Clique's minimum period), the London fee market that
//! leaves transactions underpriced under load (Ethereum, Avalanche),
//! confirmation depth (Solana's 30 confirmations), blockhash expiry
//! (Solana's 120 s recent-blockhash rule) and hard per-transaction
//! compute budgets (AVM, MoveVM, eBPF).
//!
//! Consensus vote traffic is folded into an analytic quorum-latency model
//! (`diablo_net::QuorumModel`); everything else — submission, admission,
//! block formation, execution, commit, confirmation — runs in
//! [`ChainSim`]'s loop over `diablo-sim`'s virtual time.

#![warn(missing_docs)]

pub mod chain;
pub mod chaos;
pub mod config;
pub mod exec;
pub mod experiment;
pub mod faults;
pub mod fees;
pub mod harness;
pub mod live;
pub mod mempool;
pub mod optimistic;
pub mod parallel;
pub mod params;
pub mod records;
pub mod sim;
pub mod tx;

pub use chain::Chain;
pub use config::{LiveConfig, RunConfig, RunOverlay};
pub use exec::{Concurrency, ExecMode, ExecutionEngine};
pub use optimistic::{OptimisticExecutor, OptimisticStats};
pub use parallel::{plan_stats, ParallelExecutor, PlanStats};
pub use faults::{FaultPlan, FaultPlanBuilder, FaultTimeline, RetryPolicy};
pub use fees::FeeMarket;
pub use harness::{ChainHarness, Plan, PlannedTx};
pub use live::LivePool;
pub use mempool::{AdmitError, Mempool, MempoolPolicy};
pub use diablo_store::{PruneMode, StorageConfig, StorageReport};
pub use params::{ChainParams, ConsensusKind, SigVerify};
pub use records::{rate_per_sec, RunResult, Tally, TxRecord, TxStatus};
pub use experiment::Experiment;
pub use sim::ChainSim;
pub use tx::{Payload, TxId, TxMeta};
