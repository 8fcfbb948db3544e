//! The staged commit driver: execute → merkleize → persist → prune.
//!
//! `diablo-chains` calls [`StateStore::commit_block`] once per
//! committed block, *after* executing it, with what the block wrote.
//! The store then runs three telemetry-spanned stages:
//!
//! 1. **merkleize** — write the block's [`StateDelta`] into the
//!    [`MerkleTable`] (which re-hashes only the paths the written keys
//!    sit on), hash the receipts, digest the touched-accounts delta,
//!    and chain everything into a running `block_root`. Roots are
//!    computed before anything is pruned, so they are identical under
//!    every [`PruneMode`].
//! 2. **persist** — append the block header and packed receipts to
//!    their [`SegmentedLog`]s and bump the touched accounts in the
//!    [`FlatTable`]. Contract storage needs no copy here: the table's
//!    sorted rows, updated in stage 1, are the persisted copy.
//! 3. **prune** — drop whole segments below the prune horizon and
//!    freeze the accounts table down to its hot-page cap.
//!
//! The store never sees the contract state itself, only write sets, so
//! it cannot be asked for the root of a state it has not been told
//! about; `diablo-chains` debug-asserts every block's root against
//! [`trie::root`] over the full state.
//!
//! Every stage is deterministic and integer-only; a run with the store
//! enabled reports byte-identical roots at any worker count, on either
//! event-queue backend, under any prune mode.

use diablo_telemetry::{counter, gauge, span};

use crate::digest::Digest;
use crate::prune::PruneMode;
use crate::segment::SegmentedLog;
use crate::table::FlatTable;
use crate::trie::{self, MerkleTable};

/// Bytes of one block header record: height, committed-at micros,
/// tx count, payload bytes, state root, receipts root.
pub const BLOCK_HEADER_BYTES: usize = 8 + 8 + 4 + 4 + 32 + 32;

/// Bytes of one packed receipt: id, gas, flags.
pub const RECEIPT_BYTES: usize = 4 + 8 + 1;

/// Domain tag of receipt digests.
const RECEIPT_TAG: u64 = 0x7263_7074; // "rcpt"
/// Domain tag of the blob-accounting digest folded into state roots.
const BLOB_TAG: u64 = 0x626c_6f62; // "blob"
/// Domain tag of the touched-accounts delta digest.
const TOUCH_TAG: u64 = 0x746f_7563_68; // "touch"

/// Storage engine configuration (the spec's `storage:` section).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageConfig {
    /// History retention policy.
    pub prune: PruneMode,
    /// Heights per static-file segment.
    pub segment_blocks: u64,
    /// Hot-page cap of the accounts table.
    pub hot_pages: usize,
}

impl Default for StorageConfig {
    fn default() -> StorageConfig {
        StorageConfig {
            prune: PruneMode::Full,
            segment_blocks: 64,
            hot_pages: 64,
        }
    }
}

/// What execution produced for one transaction, as the store sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReceiptRec {
    /// Dense workload id of the transaction's sender.
    pub id: u32,
    /// Whether the call committed.
    pub ok: bool,
    /// Gas consumed.
    pub gas: u64,
}

impl ReceiptRec {
    fn digest(&self) -> Digest {
        Digest::of_words(RECEIPT_TAG, &[u64::from(self.id), self.gas, u64::from(self.ok)])
    }

    fn pack(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.id.to_le_bytes());
        out.extend_from_slice(&self.gas.to_le_bytes());
        out.push(u8::from(self.ok));
    }
}

/// What one executed block did to the contract state.
#[derive(Debug, Clone, Copy)]
pub struct StateDelta<'a> {
    /// Every entry the block wrote, with its post-block value, strictly
    /// sorted by key (`ContractState::drain_writes`). The first delta
    /// a store sees must carry the whole pre-existing state as well.
    pub written: &'a [(i64, i64)],
    /// Total opaque payload bytes the state has absorbed.
    pub blob_bytes: u64,
    /// Number of opaque payloads the state has absorbed.
    pub blob_count: u64,
}

/// A block's state root: the Merkle root of the contract's entries
/// combined with a digest of its blob accounting.
pub fn state_root(entries_root: &Digest, blob_bytes: u64, blob_count: u64) -> Digest {
    let blobs = Digest::of_words(BLOB_TAG, &[blob_bytes, blob_count]);
    Digest::combine(entries_root, &blobs)
}

/// The roots [`StateStore::commit_block`] computes for one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockRoots {
    /// Merkle root of the post-block contract state.
    pub state_root: Digest,
    /// Merkle root of the block's receipts.
    pub receipts_root: Digest,
    /// Running chain root after this block.
    pub block_root: Digest,
}

/// End-of-run storage summary, embedded in the run report when the
/// store is enabled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorageReport {
    /// Prune mode, in [`PruneMode::parse`] grammar.
    pub mode: String,
    /// Final chain root, 64 hex chars.
    pub root_hex: String,
    /// Blocks committed through the store.
    pub blocks: u64,
    /// Receipts persisted.
    pub txs: u64,
    /// Block records still resident after pruning.
    pub resident_blocks: u64,
    /// Resident bytes across block/receipt segments and frozen pages.
    pub resident_bytes: u64,
    /// Block records dropped by pruning.
    pub pruned_blocks: u64,
    /// Hot pages in the accounts table.
    pub hot_pages: u64,
    /// Frozen pages in the accounts table.
    pub frozen_pages: u64,
    /// Entries in the contract storage table.
    pub storage_entries: u64,
}

/// The append-only state store: segments, tables, roots and pruning
/// behind one per-block entry point.
#[derive(Debug, Clone)]
pub struct StateStore {
    config: StorageConfig,
    blocks: SegmentedLog,
    receipts: SegmentedLog,
    accounts: FlatTable,
    /// The persisted copy of contract storage, kept sorted under its
    /// Merkle tree (the executors keep running on `ContractState`).
    storage: MerkleTable,
    chain_root: Digest,
    last_state_root: Digest,
    txs: u64,
}

impl StateStore {
    /// A fresh store under `config`.
    pub fn new(config: StorageConfig) -> StateStore {
        StateStore {
            config,
            blocks: SegmentedLog::new(config.segment_blocks),
            receipts: SegmentedLog::new(config.segment_blocks),
            accounts: FlatTable::new(),
            storage: MerkleTable::new(),
            chain_root: Digest::ZERO,
            last_state_root: trie::empty_root(),
            txs: 0,
        }
    }

    /// Commits one executed block through the merkleize → persist →
    /// prune stages.
    ///
    /// `state` is what the block wrote to the contract state (`None`
    /// for empty blocks and chains without a deployed contract — the
    /// previous state root carries over). `touched` lists
    /// `(sender_id, tx_count)` pairs of the block, sorted by id.
    /// Heights are sequential from 1.
    pub fn commit_block(
        &mut self,
        height: u64,
        committed_us: u64,
        block_bytes: u32,
        recs: &[ReceiptRec],
        state: Option<StateDelta<'_>>,
        touched: &[(u32, u32)],
    ) -> BlockRoots {
        debug_assert_eq!(height, self.blocks.next_height(), "blocks commit in order");
        debug_assert!(
            touched.windows(2).all(|w| w[0].0 < w[1].0),
            "touched accounts must be sorted by id"
        );

        // Stage 1: merkleize. Roots never look at pruned data — they
        // are a pure function of this block's execution output.
        let (state_root, receipts_root) = {
            span!("store.merkleize");
            let state_root = match state {
                Some(delta) => {
                    self.storage.apply(delta.written);
                    state_root(&self.storage.root(), delta.blob_bytes, delta.blob_count)
                }
                None => self.last_state_root,
            };
            let receipts_root =
                trie::root_of_digests(recs.iter().map(ReceiptRec::digest).collect());
            let mut flat = Vec::with_capacity(touched.len() * 2);
            for &(id, n) in touched {
                flat.push(u64::from(id));
                flat.push(u64::from(n));
            }
            let touched_digest = Digest::of_words(TOUCH_TAG, &flat);
            let content = Digest::combine(
                &Digest::combine(&state_root, &receipts_root),
                &touched_digest,
            );
            self.chain_root = Digest::combine(&self.chain_root, &content);
            self.last_state_root = state_root;
            (state_root, receipts_root)
        };

        // Stage 2: persist.
        {
            span!("store.persist");
            let mut header = Vec::with_capacity(BLOCK_HEADER_BYTES);
            header.extend_from_slice(&height.to_le_bytes());
            header.extend_from_slice(&committed_us.to_le_bytes());
            header.extend_from_slice(&(recs.len() as u32).to_le_bytes());
            header.extend_from_slice(&block_bytes.to_le_bytes());
            for lane in state_root.0 {
                header.extend_from_slice(&lane.to_le_bytes());
            }
            for lane in receipts_root.0 {
                header.extend_from_slice(&lane.to_le_bytes());
            }
            debug_assert_eq!(header.len(), BLOCK_HEADER_BYTES);
            self.blocks.append(&header);

            let mut packed = Vec::with_capacity(recs.len() * RECEIPT_BYTES);
            for rec in recs {
                rec.pack(&mut packed);
            }
            self.receipts.append(&packed);
            self.txs += recs.len() as u64;

            for &(id, n) in touched {
                self.accounts.increment(id, u64::from(n), height);
            }
        }

        // Stage 3: prune.
        {
            span!("store.prune");
            let horizon = self.config.prune.horizon(height);
            let dropped =
                self.blocks.prune_below(horizon) + self.receipts.prune_below(horizon);
            self.accounts.enforce_cap(self.config.hot_pages);
            counter!("store.pruned_segments", dropped);
        }

        counter!("store.blocks");
        counter!("store.txs", recs.len() as u64);
        gauge!("store.resident_bytes", self.resident_bytes() as i64);
        gauge!("store.hot_pages", self.accounts.hot_pages() as i64);

        BlockRoots {
            state_root,
            receipts_root,
            block_root: self.chain_root,
        }
    }

    /// Resident bytes across both segment logs and frozen table pages.
    pub fn resident_bytes(&self) -> u64 {
        self.blocks.resident_bytes() + self.receipts.resident_bytes() + self.accounts.frozen_bytes()
    }

    /// The running chain root.
    pub fn chain_root(&self) -> Digest {
        self.chain_root
    }

    /// State root of the most recently committed block.
    pub fn last_state_root(&self) -> Digest {
        self.last_state_root
    }

    /// The store's configuration.
    pub fn config(&self) -> &StorageConfig {
        &self.config
    }

    /// The block-header log.
    pub fn blocks(&self) -> &SegmentedLog {
        &self.blocks
    }

    /// The receipts log.
    pub fn receipts(&self) -> &SegmentedLog {
        &self.receipts
    }

    /// The flat accounts table.
    pub fn accounts(&self) -> &FlatTable {
        &self.accounts
    }

    /// The persisted contract-storage table.
    pub fn storage(&self) -> &MerkleTable {
        &self.storage
    }

    /// The end-of-run summary for the report.
    pub fn report(&self) -> StorageReport {
        StorageReport {
            mode: self.config.prune.to_string(),
            root_hex: self.chain_root.to_hex(),
            blocks: self.blocks.next_height() - 1,
            txs: self.txs,
            resident_blocks: self.blocks.resident_records(),
            resident_bytes: self.resident_bytes(),
            pruned_blocks: self.blocks.pruned_records(),
            hot_pages: self.accounts.hot_pages() as u64,
            frozen_pages: self.accounts.frozen_pages() as u64,
            storage_entries: self.storage.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diablo_vm::{ContractState, StateLimits};

    /// What block `h` writes to the evolving state: bumps a counter,
    /// overwrites one earlier key and adds two new ones — one below
    /// every existing key, one above — like a real block does through
    /// `ContractState::store`.
    fn execute_block(state: &mut ContractState, h: u64) {
        let lim = StateLimits::unbounded();
        let h = h as i64;
        state.store(0, h, &lim);
        state.store(100 + h / 2, -h, &lim);
        state.store(-h, h * 3, &lim);
        state.store(100 + h, h * 7, &lim);
        state.store_blob(h as u64 * 10, &lim);
    }

    fn delta_of<'a>(state: &ContractState, written: &'a [(i64, i64)]) -> StateDelta<'a> {
        StateDelta {
            written,
            blob_bytes: state.blob_bytes(),
            blob_count: state.blob_count(),
        }
    }

    /// Commits `blocks` blocks of one evolving state; returns the store
    /// and the final state.
    fn run_blocks(mode: PruneMode, blocks: u64) -> (StateStore, ContractState) {
        let mut store = StateStore::new(StorageConfig {
            prune: mode,
            segment_blocks: 4,
            hot_pages: 2,
        });
        let mut state = ContractState::new();
        state.store(-1_000, 1, &StateLimits::unbounded());
        state.track_writes();
        for h in 1..=blocks {
            execute_block(&mut state, h);
            let recs: Vec<ReceiptRec> = (0..3)
                .map(|i| ReceiptRec {
                    id: (h as u32 * 3 + i) % 11,
                    ok: i != 2,
                    gas: 21_000 + h * 10 + u64::from(i),
                })
                .collect();
            let touched: Vec<(u32, u32)> = {
                let mut t: Vec<u32> = recs.iter().map(|r| r.id).collect();
                t.sort_unstable();
                t.dedup();
                t.into_iter().map(|id| (id, 1)).collect()
            };
            let written = state.drain_writes();
            let roots = store.commit_block(
                h,
                h * 1_000,
                96,
                &recs,
                Some(delta_of(&state, &written)),
                &touched,
            );
            assert_eq!(roots.state_root, scratch_state_root(&state), "height {h}");
        }
        (store, state)
    }

    /// The state root folded from scratch, as the store computed it
    /// before it kept a table.
    fn scratch_state_root(state: &ContractState) -> Digest {
        state_root(
            &trie::root(&state.sorted_entries()),
            state.blob_bytes(),
            state.blob_count(),
        )
    }

    #[test]
    fn roots_are_identical_across_prune_modes() {
        let (full, _) = run_blocks(PruneMode::Full, 40);
        let (distance, _) = run_blocks(PruneMode::Distance(5), 40);
        let (before, _) = run_blocks(PruneMode::Before(30), 40);
        assert_eq!(full.chain_root(), distance.chain_root());
        assert_eq!(full.chain_root(), before.chain_root());
        assert_eq!(full.last_state_root(), distance.last_state_root());
        // But the pruned stores hold less.
        assert!(distance.report().resident_blocks < full.report().resident_blocks);
        assert!(distance.report().pruned_blocks > 0);
        assert_eq!(full.report().pruned_blocks, 0);
    }

    #[test]
    fn empty_blocks_carry_the_state_root_forward() {
        let mut store = StateStore::new(StorageConfig::default());
        let mut state = ContractState::new();
        state.track_writes();
        execute_block(&mut state, 1);
        let written = state.drain_writes();
        let r1 = store.commit_block(1, 10, 32, &[], Some(delta_of(&state, &written)), &[]);
        // An empty block with no state delta reuses the root.
        let r2 = store.commit_block(2, 20, 0, &[], None, &[]);
        assert_eq!(r1.state_root, r2.state_root);
        assert_ne!(r1.block_root, r2.block_root, "chain root still advances");
        // A block that executed but wrote nothing keeps it too.
        let r3 = store.commit_block(3, 30, 0, &[], Some(delta_of(&state, &[])), &[]);
        assert_eq!(r1.state_root, r3.state_root);
    }

    #[test]
    fn headers_and_receipts_round_trip() {
        let (store, _) = run_blocks(PruneMode::Full, 6);
        let header = store.blocks().get(3).expect("height 3 resident");
        assert_eq!(header.len(), BLOCK_HEADER_BYTES);
        assert_eq!(u64::from_le_bytes(header[0..8].try_into().unwrap()), 3);
        assert_eq!(u64::from_le_bytes(header[8..16].try_into().unwrap()), 3_000);
        assert_eq!(u32::from_le_bytes(header[16..20].try_into().unwrap()), 3);
        let receipts = store.receipts().get(3).expect("receipts resident");
        assert_eq!(receipts.len(), 3 * RECEIPT_BYTES);
        assert_eq!(
            u64::from_le_bytes(receipts[4..12].try_into().unwrap()),
            21_030
        );
    }

    #[test]
    fn report_counts_line_up() {
        let (store, state) = run_blocks(PruneMode::Distance(8), 20);
        let rep = store.report();
        assert_eq!(rep.mode, "distance=8");
        assert_eq!(rep.blocks, 20);
        assert_eq!(rep.txs, 60);
        assert_eq!(rep.root_hex.len(), 64);
        assert_eq!(rep.resident_blocks + rep.pruned_blocks, 20);
        assert!(rep.hot_pages <= 2);
        assert_eq!(rep.storage_entries, state.entry_count() as u64);
    }

    #[test]
    fn storage_table_matches_contract_state() {
        let (store, state) = run_blocks(PruneMode::Full, 9);
        assert_eq!(store.storage().entries(), state.sorted_entries());
        assert_eq!(store.storage().len(), state.entry_count());
        for (k, v) in state.sorted_entries() {
            assert_eq!(store.storage().load(k), v);
        }
        assert_eq!(store.storage().load(i64::MAX), 0, "absent keys read 0");
        assert_eq!(store.last_state_root(), scratch_state_root(&state));
    }
}
