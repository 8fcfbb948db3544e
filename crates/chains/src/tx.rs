//! Transactions as the chain simulator sees them.

use diablo_contracts::DApp;
use diablo_sim::SimTime;

/// Index of a transaction in the run's records (its place in the plan).
pub type TxId = u32;

/// Explicit function selection of an invocation, compact enough to
/// copy by the million: an entry index plus up to two literal integer
/// arguments (every DApp function of the paper takes at most two).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallSel {
    /// Entry index into `diablo_contracts::calls::entries(dapp)`.
    pub entry: u8,
    /// Literal arguments.
    pub args: [i32; 2],
    /// How many of `args` are used.
    pub argc: u8,
}

/// What a transaction does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Payload {
    /// A native coin transfer (the paper's `transfer_X` interaction).
    Transfer,
    /// A DApp invocation (the paper's `invoke_D_Xs` interaction).
    ///
    /// With `call: None` the sequence number selects the concrete call
    /// via `diablo_contracts::calls::call_for` (the default workload
    /// rotation); with `call: Some(sel)` the benchmark specification
    /// chose the function and arguments explicitly.
    Invoke {
        /// The invoked DApp.
        dapp: DApp,
        /// Per-workload sequence number.
        seq: u64,
        /// Explicit function selection, if the spec made one.
        call: Option<CallSel>,
    },
}

/// Everything the ledger needs to know about a pending transaction.
#[derive(Debug, Clone, Copy)]
pub struct TxMeta {
    /// Index of the transaction's record.
    pub id: TxId,
    /// Sending account (drives per-sender mempool caps).
    pub sender: u32,
    /// What the transaction does.
    pub payload: Payload,
    /// Submission instant at the collocated node.
    pub submitted: SimTime,
    /// Instant the transaction is visible to block proposers (submission
    /// plus gossip propagation).
    pub available: SimTime,
    /// Wire size in bytes (affects block size and propagation).
    pub wire_bytes: u32,
    /// The fee cap the client signed, expressed as a multiple (×1000) of
    /// the base fee at signing time. Only meaningful on chains with a
    /// London-style fee market.
    pub fee_cap_millis: u64,
}
