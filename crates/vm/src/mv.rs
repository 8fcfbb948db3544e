//! Multi-version memory for optimistic (Block-STM-style) execution.
//!
//! The static parallel executor in `diablo-chains` only schedules
//! transactions whose storage footprint is known at deploy time; a
//! dynamic footprint (keys computed from arguments, like the gaming
//! DApp's per-player cells) forces it serial. The optimistic executor
//! removes that restriction by *speculating*: every transaction of a
//! block executes against a [`SpeculativeOverlay`] — a copy-on-write
//! view that resolves reads through a frozen [`MvMemory`] of the other
//! transactions' speculative writes — while recording the exact
//! `(key, value)` pairs it observed. A commit-order validation pass then
//! checks each recorded read against the committed state; a transaction
//! whose observed values all match is, by determinism of the
//! interpreter, bit-identical to a serial execution and can commit its
//! buffered delta as-is.
//!
//! The types here are deliberately execution-agnostic: `diablo-vm` owns
//! the view and the read-set capture (both sit under the [`StateAccess`]
//! trait the interpreter executes against), while the scheduling loop —
//! rounds, validation, re-execution — lives in
//! `diablo_chains::optimistic`. `docs/EXECUTION.md` specifies the full
//! protocol and its determinism argument.

use std::cell::RefCell;
use std::collections::hash_map::Entry;

use crate::hash::WordMap;
use crate::state::{ContractState, OverlayDelta, StateAccess, StateLimits};
use crate::Word;

/// Multi-version speculative memory: for every storage key, the ordered
/// speculative writes of a block's uncommitted transactions, keyed by
/// `(location, tx_index)`.
///
/// A reader at transaction index `i` resolves a key to the value written
/// by the *highest-indexed writer below `i`*, falling back to the
/// committed base state when no such writer exists — exactly the value a
/// serial execution would observe if every recorded speculation were
/// correct. The structure is immutable during a speculation round (the
/// executor rebuilds it between rounds from the surviving deltas), which
/// is what makes a round's outcome a pure function of `(state, txs)`
/// rather than of the worker schedule.
#[derive(Debug, Default)]
pub struct MvMemory {
    /// key → writes as `(tx_index, value)`, ascending by `tx_index`.
    versions: WordMap<Vec<(u32, Word)>>,
}

impl MvMemory {
    /// An empty view (every read falls through to the committed state).
    pub fn new() -> MvMemory {
        MvMemory::default()
    }

    /// Registers the speculative writes of transaction `tx`.
    ///
    /// Deltas must be inserted in ascending `tx` order so each key's
    /// version list stays sorted (the executor walks its transactions in
    /// canonical order, so this holds for free).
    pub fn insert_delta(&mut self, tx: u32, delta: &OverlayDelta) {
        for (key, value) in delta.entries() {
            let versions = self.versions.entry(key).or_default();
            debug_assert!(versions.last().is_none_or(|&(last, _)| last < tx));
            versions.push((tx, value));
        }
    }

    /// The value the highest-indexed writer *below* `reader` wrote to
    /// `key`, or `None` when no speculative write precedes the reader.
    pub fn read(&self, key: Word, reader: u32) -> Option<Word> {
        let versions = self.versions.get(&key)?;
        let idx = versions.partition_point(|&(tx, _)| tx < reader);
        idx.checked_sub(1).map(|i| versions[i].1)
    }

    /// Number of keys with at least one speculative write.
    pub fn len(&self) -> usize {
        self.versions.len()
    }

    /// Whether no speculative writes are registered.
    pub fn is_empty(&self) -> bool {
        self.versions.is_empty()
    }
}

/// The sorted external read-set one speculative execution observed:
/// every `(key, value)` the transaction loaded from *outside its own
/// writes*, deduplicated by key.
///
/// The interpreter is a deterministic function of its entry point, its
/// transaction context and the values its loads return — so if every
/// recorded value equals what the committed state holds when the
/// transaction's turn comes, the speculation's receipt, gas and writes
/// are bit-identical to a fresh serial execution and need not be
/// repeated. Validation is therefore value-based, not version-based: a
/// different transaction writing the *same* value back does not abort
/// the reader.
pub type ReadSet = Vec<(Word, Word)>;

/// A copy-on-write view for one speculative transaction execution.
///
/// Reads check the transaction's own buffered writes first, then resolve
/// through the frozen [`MvMemory`], then fall back to the committed
/// base; every external read is recorded once into the [`ReadSet`].
/// Writes land in a private buffer and never escape until the executor
/// commits the extracted [`OverlayDelta`].
///
/// The entry-count limit is enforced exactly like [`crate::Overlay`]:
/// against the committed base's entry count plus this view's newly
/// created keys, ignoring other in-flight speculations. That is exact
/// when no lower-indexed transaction is still uncommitted; in every
/// other case the executor distrusts limit-related outcomes and
/// re-executes serially (see `docs/EXECUTION.md`).
#[derive(Debug)]
pub struct SpeculativeOverlay<'a> {
    committed: &'a ContractState,
    mv: &'a MvMemory,
    tx_index: u32,
    writes: WordMap<Word>,
    /// First observed external value per key. Interior-mutable because
    /// [`StateAccess::load`] takes `&self`; the overlay itself is used
    /// by exactly one worker thread.
    reads: RefCell<WordMap<Word>>,
    /// Keys in `writes` absent from the committed base.
    new_keys: usize,
    blob_bytes: u64,
    blob_count: u64,
}

impl<'a> SpeculativeOverlay<'a> {
    /// A fresh view for the transaction at `tx_index`, reading through
    /// `mv` over `committed`.
    pub fn new(committed: &'a ContractState, mv: &'a MvMemory, tx_index: u32) -> Self {
        SpeculativeOverlay {
            committed,
            mv,
            tx_index,
            writes: WordMap::default(),
            reads: RefCell::default(),
            new_keys: 0,
            blob_bytes: 0,
            blob_count: 0,
        }
    }

    /// Detaches the recorded effects: the external read-set (sorted by
    /// key, for deterministic downstream iteration) and the buffered
    /// write delta.
    pub fn into_parts(self) -> (ReadSet, OverlayDelta) {
        let mut reads: ReadSet = self.reads.into_inner().into_iter().collect();
        reads.sort_unstable_by_key(|&(key, _)| key);
        let delta = OverlayDelta::from_parts(self.writes, self.blob_bytes, self.blob_count);
        (reads, delta)
    }
}

/// Resolves `key` outside a view's own writes and records the
/// observation: the first one per key stays in the read-set.
fn observe(
    mv: &MvMemory,
    committed: &ContractState,
    reads: &mut WordMap<Word>,
    key: Word,
    reader: u32,
) -> Word {
    let external = mv
        .read(key, reader)
        .unwrap_or_else(|| committed.load(key));
    reads.entry(key).or_insert(external);
    external
}

impl StateAccess for SpeculativeOverlay<'_> {
    fn load(&self, key: Word) -> Word {
        if let Some(&own) = self.writes.get(&key) {
            // Reading back an own write observes nothing external: the
            // value is a function of this very execution, so it needs no
            // validation.
            return own;
        }
        observe(self.mv, self.committed, &mut self.reads.borrow_mut(), key, self.tx_index)
    }

    fn replace(&mut self, key: Word, value: Word, limits: &StateLimits) -> Option<Word> {
        match self.writes.entry(key) {
            Entry::Occupied(mut slot) => Some(slot.insert(value)),
            Entry::Vacant(slot) => {
                // The old value is an external observation like any
                // load — a rollback writes it into the delta — so it is
                // recorded, and before the limit check, as the `load`
                // that used to precede every store recorded it.
                let old = observe(self.mv, self.committed, self.reads.get_mut(), key, self.tx_index);
                let is_new = !self.committed.contains_key(key);
                if is_new && self.committed.entry_count() + self.new_keys >= limits.max_entries {
                    return None;
                }
                slot.insert(value);
                if is_new {
                    self.new_keys += 1;
                }
                Some(old)
            }
        }
    }

    fn store_blob(&mut self, len: u64, limits: &StateLimits) -> bool {
        // `blob_fits` depends only on the payload length, never on
        // accumulated state, so the speculative outcome always equals
        // the serial one.
        if !limits.blob_fits(len) {
            return false;
        }
        self.blob_bytes = self.blob_bytes.saturating_add(len);
        self.blob_count += 1;
        true
    }

    fn unstore_blob(&mut self, len: u64) {
        self.blob_bytes = self.blob_bytes.saturating_sub(len);
        self.blob_count = self.blob_count.saturating_sub(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delta_of(pairs: &[(Word, Word)]) -> OverlayDelta {
        OverlayDelta::from_parts(pairs.iter().copied().collect(), 0, 0)
    }

    #[test]
    fn mv_reads_resolve_to_highest_writer_below() {
        let mut mv = MvMemory::new();
        mv.insert_delta(1, &delta_of(&[(10, 100)]));
        mv.insert_delta(3, &delta_of(&[(10, 300), (20, 23)]));
        mv.insert_delta(5, &delta_of(&[(10, 500)]));

        // Reader below every writer sees nothing.
        assert_eq!(mv.read(10, 0), None);
        assert_eq!(mv.read(10, 1), None);
        // Readers between writers see the closest one below.
        assert_eq!(mv.read(10, 2), Some(100));
        assert_eq!(mv.read(10, 3), Some(100));
        assert_eq!(mv.read(10, 4), Some(300));
        assert_eq!(mv.read(10, 9), Some(500));
        assert_eq!(mv.read(20, 9), Some(23));
        // Untouched keys fall through.
        assert_eq!(mv.read(99, 9), None);
        assert_eq!(mv.len(), 2);
    }

    #[test]
    fn speculative_overlay_records_external_reads_only() {
        let lim = StateLimits::unbounded();
        let mut committed = ContractState::new();
        committed.store(1, 10, &lim);
        let mut mv = MvMemory::new();
        mv.insert_delta(0, &delta_of(&[(2, 22)]));

        let mut view = SpeculativeOverlay::new(&committed, &mv, 1);
        // Committed read, speculative read, absent-key read.
        assert_eq!(view.load(1), 10);
        assert_eq!(view.load(2), 22);
        assert_eq!(view.load(3), 0);
        // A first write records the value it displaces (the interpreter
        // journals it, and a rollback would put it into the delta);
        // reading the own write back records nothing more.
        assert!(view.store(4, 44, &lim));
        assert_eq!(view.load(4), 44);
        // A key read before being written records its external value.
        assert!(view.store(1, 11, &lim));
        assert_eq!(view.load(1), 11);

        let (reads, delta) = view.into_parts();
        assert_eq!(reads, vec![(1, 10), (2, 22), (3, 0), (4, 0)]);
        let written: Vec<(Word, Word)> = {
            let mut v: Vec<_> = delta.entries().collect();
            v.sort_unstable();
            v
        };
        assert_eq!(written, vec![(1, 11), (4, 44)]);
    }

    #[test]
    fn speculative_overlay_enforces_entry_limit_against_committed() {
        let lim = StateLimits {
            max_blob_bytes: 128,
            max_entries: 2,
        };
        let mut committed = ContractState::new();
        committed.store(1, 1, &lim);
        let mv = MvMemory::new();
        let mut view = SpeculativeOverlay::new(&committed, &mv, 0);
        // One new key fits (committed holds 1 of 2 slots)...
        assert!(view.store(2, 2, &lim));
        // ...a second new key does not, exactly like the base.
        assert!(!view.store(3, 3, &lim));
        // Updates to existing keys are always allowed.
        assert!(view.store(1, 100, &lim));
        assert!(view.store(2, 200, &lim));
    }

    #[test]
    fn mv_values_do_not_count_toward_entry_limit() {
        // The limit basis is the committed state plus own new keys; a
        // speculative write by another transaction neither satisfies
        // `contains_key` nor raises the count. The executor compensates
        // at commit time (see entry-budget check in diablo-chains).
        let lim = StateLimits {
            max_blob_bytes: 128,
            max_entries: 1,
        };
        let committed = ContractState::new();
        let mut mv = MvMemory::new();
        mv.insert_delta(0, &delta_of(&[(7, 70)]));
        let mut view = SpeculativeOverlay::new(&committed, &mv, 1);
        assert_eq!(view.load(7), 70);
        // Key 7 exists only speculatively: storing it is a *new* key for
        // this view and takes the single slot.
        assert!(view.store(7, 71, &lim));
        assert!(!view.store(8, 80, &lim));
    }

    #[test]
    fn read_set_captures_value_at_first_observation() {
        let lim = StateLimits::unbounded();
        let mut committed = ContractState::new();
        committed.store(5, 50, &lim);
        let mv = MvMemory::new();
        let mut view = SpeculativeOverlay::new(&committed, &mv, 0);
        assert_eq!(view.load(5), 50);
        assert!(view.store(5, 51, &lim));
        // Later loads see the own write; the read-set keeps the
        // original external observation.
        assert_eq!(view.load(5), 51);
        let (reads, _) = view.into_parts();
        assert_eq!(reads, vec![(5, 50)]);
    }

    #[test]
    fn blob_accounting_is_additive() {
        let lim = StateLimits {
            max_blob_bytes: 128,
            max_entries: 64,
        };
        let committed = ContractState::new();
        let mv = MvMemory::new();
        let mut view = SpeculativeOverlay::new(&committed, &mv, 0);
        assert!(view.store_blob(128, &lim));
        assert!(!view.store_blob(129, &lim));
        view.unstore_blob(128);
        let (_, delta) = view.into_parts();
        assert!(delta.is_empty());
    }
}
