//! Gas-metered smart-contract virtual machine for the Diablo benchmark
//! suite.
//!
//! The paper runs its five DApps on four different execution engines
//! (Table 4): the go-ethereum EVM (Avalanche, Ethereum, Quorum), the
//! Algorand AVM executing TEAL, the Diem MoveVM, and Solana's eBPF
//! runtime. The decisive behavioural difference between them — the one
//! §6.4 and Figure 5 hinge on — is the *cost model*: geth has no hard
//! per-transaction compute cap (only the block gas limit applies), while
//! AVM, MoveVM and eBPF enforce a hard, non-negotiable per-transaction
//! budget that the computationally intensive Mobility DApp exceeds
//! ("budget exceeded").
//!
//! This crate implements one stack-based bytecode interpreter with four
//! pluggable cost schedules and budgets ([`VmFlavor`]). Contracts are
//! real programs (loops, Newton's integer square root, storage access);
//! gas exhaustion and budget violations arise from actually executing
//! them, not from table lookups.

#![warn(missing_docs)]

pub mod analyze;
pub mod error;
pub mod flavor;
pub mod gas;
mod hash;
pub mod interp;
pub mod mv;
pub mod op;
pub mod prepared;
pub mod program;
pub mod state;

pub use analyze::{basic_blocks, disassemble, rw_set, validate, RwSet, ValidateError};
pub use error::ExecError;
pub use flavor::VmFlavor;
pub use gas::GasSchedule;
pub use interp::{Interpreter, Receipt, TxContext, MAX_LOCALS, MAX_OPS, MAX_STACK};
pub use mv::{MvMemory, ReadSet, SpeculativeOverlay};
pub use op::Op;
pub use prepared::{prepare, CallOutcome, EntryId, Events, PreparedProgram, Scratch};
pub use program::{Asm, Label, Program};
pub use state::{ContractState, Overlay, OverlayDelta, StateAccess, StateLimits};

/// The machine word: all stack values, storage keys and storage values.
pub type Word = i64;
