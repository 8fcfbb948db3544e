//! Append-only storage engine for the Diablo benchmark suite.
//!
//! Before this crate, every simulated chain kept all of its state in
//! resident `ContractState` maps and per-transaction record vectors —
//! which caps the paper's million-user scenarios on memory, and leaves
//! data-model cost invisible inside consensus cost (the separation
//! BLOCKBENCH argues for). `diablo-store` is the reth-shaped answer,
//! scaled to the simulator:
//!
//! - [`SegmentedLog`]: static-file-style append-only segments for block
//!   headers and receipts, pruned a whole segment at a time;
//! - [`FlatTable`]: a dense-id accounts table in fixed pages with a
//!   bounded hot set — cold pages freeze into varint-packed byte blobs
//!   (the in-memory stand-in for being on disk) and thaw on demand;
//! - [`trie`]: per-block Merkle state roots over sorted key/value pairs,
//!   so experiments can verify state integrity across executors, queue
//!   backends and prune modes — folded from scratch by [`trie::root`],
//!   kept up to date from write sets by [`MerkleTable`];
//! - [`PruneMode`]: full / distance(n) / before-block retention, the
//!   knob that bounds resident state so a million-account run no longer
//!   needs a million resident objects;
//! - [`StateStore`]: the staged commit driver gluing the above into the
//!   execute → merkleize → persist → prune pipeline `diablo-chains`
//!   runs per committed block.
//!
//! Everything here is deterministic and integer-only: the same run
//! produces byte-identical roots and reports at any worker count, on
//! either event-queue backend, under any prune mode.

#![warn(missing_docs)]

pub mod digest;
pub mod prune;
pub mod segment;
pub mod store;
pub mod table;
pub mod trie;

pub use digest::Digest;
pub use prune::PruneMode;
pub use segment::SegmentedLog;
pub use store::{
    state_root, BlockRoots, ReceiptRec, StateDelta, StateStore, StorageConfig, StorageReport,
};
pub use table::FlatTable;
pub use trie::MerkleTable;
