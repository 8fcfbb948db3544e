//! Persistent contract state.
//!
//! A contract owns a word-keyed word store plus an accounting of opaque
//! payload bytes (for the video-sharing DApp). Flavors impose
//! [`StateLimits`]; exceeding them is a deploy-time or run-time error —
//! which is how the paper's "we could not implement the video sharing
//! DApp in TEAL" manifests in this reproduction.
//!
//! Execution can target either the canonical [`ContractState`] or a
//! copy-on-write [`Overlay`] over it — the [`StateAccess`] trait is the
//! common surface. Overlays are how the parallel block executor in
//! `diablo-chains` isolates concurrently executing transactions: each
//! conflict-free group runs against its own overlay, and the resulting
//! [`OverlayDelta`]s are merged back into the base state afterwards.

use std::collections::hash_map::Entry;

use crate::hash::WordMap;
use crate::Word;

/// Per-flavor limits on contract state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateLimits {
    /// Largest single opaque payload (bytes) the state can absorb.
    pub max_blob_bytes: u64,
    /// Maximum number of key-value entries.
    pub max_entries: usize,
}

impl StateLimits {
    /// Limits that our DApps can never hit.
    pub const fn unbounded() -> StateLimits {
        StateLimits {
            max_blob_bytes: u64::MAX / 2,
            max_entries: usize::MAX / 2,
        }
    }

    /// Whether a blob of `len` bytes fits.
    pub const fn blob_fits(&self, len: u64) -> bool {
        len <= self.max_blob_bytes
    }
}

/// The common surface of executable state: the canonical
/// [`ContractState`] and the copy-on-write [`Overlay`] both implement
/// it, so the interpreter's prepared fast path can run against either.
pub trait StateAccess {
    /// Reads `key`, returning 0 when absent (EVM semantics).
    fn load(&self, key: Word) -> Word;

    /// Writes `key := value` and returns the value `key` read as before
    /// (0 when absent) — what the interpreter journals for rollback,
    /// found by the same probe that writes. Returns `None` (and leaves
    /// the state untouched) when the entry count limit would be
    /// exceeded.
    fn replace(&mut self, key: Word, value: Word, limits: &StateLimits) -> Option<Word>;

    /// [`StateAccess::replace`] for callers that do not need the old
    /// value: `false` when the store was refused.
    fn store(&mut self, key: Word, value: Word, limits: &StateLimits) -> bool {
        self.replace(key, value, limits).is_some()
    }

    /// Accounts for an opaque payload of `len` bytes. Returns `false`
    /// when the flavor's blob limit rejects it.
    fn store_blob(&mut self, len: u64, limits: &StateLimits) -> bool;

    /// Reverses one [`StateAccess::store_blob`] of `len` bytes
    /// (rollback support for the interpreter's journal).
    fn unstore_blob(&mut self, len: u64);
}

/// The persistent state of one deployed contract.
#[derive(Debug, Clone, Default)]
pub struct ContractState {
    entries: WordMap<Word>,
    blob_bytes: u64,
    blob_count: u64,
    /// Keys written since the last [`ContractState::drain_writes`]
    /// (duplicates included, in write order); `None` until
    /// [`ContractState::track_writes`] switches the log on.
    write_log: Option<Vec<Word>>,
}

/// Two states are equal when their contents are; the write log is
/// bookkeeping whose order depends on which executor produced the
/// state.
impl PartialEq for ContractState {
    fn eq(&self, other: &Self) -> bool {
        self.entries == other.entries
            && self.blob_bytes == other.blob_bytes
            && self.blob_count == other.blob_count
    }
}

impl Eq for ContractState {}

impl ContractState {
    /// Fresh, empty state.
    pub fn new() -> Self {
        ContractState::default()
    }

    /// Starts logging written keys for [`ContractState::drain_writes`].
    /// Every entry already present counts as written, so the first
    /// drain hands a consumer the whole state and later drains only
    /// what changed since.
    pub fn track_writes(&mut self) {
        self.write_log
            .get_or_insert_with(|| self.entries.keys().copied().collect());
    }

    /// The entries written since the last drain (or since
    /// [`ContractState::track_writes`]) with their current values,
    /// strictly sorted by key. A key counts as written whenever a
    /// `store` or `apply` succeeded on it — including the write-backs
    /// of a reverted call, which can leave an explicit 0 behind for a
    /// key the call first touched. Empty when tracking is off.
    pub fn drain_writes(&mut self) -> Vec<(Word, Word)> {
        let Some(log) = self.write_log.as_mut() else {
            return Vec::new();
        };
        log.sort_unstable();
        log.dedup();
        let written = log.iter().map(|&k| (k, self.entries[&k])).collect();
        log.clear();
        written
    }

    /// Reads `key`, returning 0 when absent (EVM semantics).
    pub fn load(&self, key: Word) -> Word {
        self.entries.get(&key).copied().unwrap_or(0)
    }

    /// Whether `key` holds an explicit entry (a stored 0 is
    /// distinguishable from an absent key, which also reads as 0).
    pub fn contains_key(&self, key: Word) -> bool {
        self.entries.contains_key(&key)
    }

    /// Writes `key := value`. Returns `false` (and leaves the state
    /// untouched) when the entry count limit would be exceeded.
    pub fn store(&mut self, key: Word, value: Word, limits: &StateLimits) -> bool {
        self.replace(key, value, limits).is_some()
    }

    /// Writes `key := value` and returns the value `key` read as before
    /// (0 when absent), or `None` (leaving the state untouched and the
    /// write log unchanged) when the entry count limit would be
    /// exceeded. One probe serves the limit check, the old value and
    /// the write.
    pub fn replace(&mut self, key: Word, value: Word, limits: &StateLimits) -> Option<Word> {
        let len = self.entries.len();
        let old = match self.entries.entry(key) {
            Entry::Occupied(mut slot) => slot.insert(value),
            Entry::Vacant(slot) => {
                if len >= limits.max_entries {
                    return None;
                }
                slot.insert(value);
                0
            }
        };
        if let Some(log) = &mut self.write_log {
            log.push(key);
        }
        Some(old)
    }

    /// Merges the effects of one committed [`Overlay`] into this state.
    ///
    /// The parallel executor guarantees deltas of one block touch
    /// disjoint keys, so the merge order between deltas is irrelevant;
    /// blob accounting is additive and commutes.
    pub fn apply(&mut self, delta: OverlayDelta) {
        if let Some(log) = &mut self.write_log {
            log.extend(delta.entries.keys());
        }
        for (key, value) in delta.entries {
            self.entries.insert(key, value);
        }
        self.blob_bytes = self.blob_bytes.saturating_add(delta.blob_bytes);
        self.blob_count = self.blob_count.saturating_add(delta.blob_count);
    }

    /// Accounts for an opaque payload of `len` bytes. Returns `false`
    /// when the flavor's blob limit rejects it.
    pub fn store_blob(&mut self, len: u64, limits: &StateLimits) -> bool {
        if !limits.blob_fits(len) {
            return false;
        }
        self.blob_bytes = self.blob_bytes.saturating_add(len);
        self.blob_count += 1;
        true
    }

    /// Reverses one [`ContractState::store_blob`] of `len` bytes
    /// (rollback support for the interpreter's journal).
    pub fn unstore_blob(&mut self, len: u64) {
        self.blob_bytes = self.blob_bytes.saturating_sub(len);
        self.blob_count = self.blob_count.saturating_sub(1);
    }

    /// Number of key-value entries.
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// The `(key, value)` entries sorted by key.
    ///
    /// `entries` is a `HashMap`, so its iteration order is
    /// nondeterministic; every serialization of a state — Merkle roots,
    /// JSON dumps, differential comparisons — must go through this
    /// helper so the output is stable by construction.
    pub fn sorted_entries(&self) -> Vec<(Word, Word)> {
        let mut pairs: Vec<(Word, Word)> = self.entries.iter().map(|(&k, &v)| (k, v)).collect();
        pairs.sort_unstable_by_key(|&(k, _)| k);
        pairs
    }

    /// Total opaque payload bytes absorbed.
    pub fn blob_bytes(&self) -> u64 {
        self.blob_bytes
    }

    /// Number of opaque payloads absorbed.
    pub fn blob_count(&self) -> u64 {
        self.blob_count
    }
}

impl StateAccess for ContractState {
    fn load(&self, key: Word) -> Word {
        ContractState::load(self, key)
    }

    fn replace(&mut self, key: Word, value: Word, limits: &StateLimits) -> Option<Word> {
        ContractState::replace(self, key, value, limits)
    }

    fn store_blob(&mut self, len: u64, limits: &StateLimits) -> bool {
        ContractState::store_blob(self, len, limits)
    }

    fn unstore_blob(&mut self, len: u64) {
        ContractState::unstore_blob(self, len)
    }
}

/// A copy-on-write view over a base [`ContractState`].
///
/// Reads fall through to the base; writes land in a private map. The
/// entry-count limit is enforced exactly against the base's entry count
/// plus this overlay's newly created keys — identical to executing the
/// same transactions directly against the base, as long as no *other*
/// overlay adds keys concurrently (the parallel executor falls back to
/// serial execution whenever a block could approach the entry limit).
#[derive(Debug)]
pub struct Overlay<'a> {
    base: &'a ContractState,
    entries: WordMap<Word>,
    /// Keys in `entries` that have no entry in `base`.
    new_keys: usize,
    blob_bytes: u64,
    blob_count: u64,
}

/// The owned effects of one [`Overlay`], detached from the base borrow
/// so they can cross a thread-scope boundary and be merged via
/// [`ContractState::apply`].
#[derive(Debug, Default)]
pub struct OverlayDelta {
    entries: WordMap<Word>,
    blob_bytes: u64,
    blob_count: u64,
}

impl OverlayDelta {
    /// Assembles a delta from raw parts (crate-internal: the
    /// speculative overlay in [`crate::mv`] builds its delta directly).
    pub(crate) fn from_parts(
        entries: WordMap<Word>,
        blob_bytes: u64,
        blob_count: u64,
    ) -> OverlayDelta {
        OverlayDelta {
            entries,
            blob_bytes,
            blob_count,
        }
    }

    /// Whether the overlay recorded no effects at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty() && self.blob_bytes == 0 && self.blob_count == 0
    }

    /// Number of keys the overlay wrote.
    pub fn written_keys(&self) -> usize {
        self.entries.len()
    }

    /// The written `(key, value)` pairs, in no particular order. The
    /// optimistic executor uses this to count the keys a commit would
    /// newly create when checking the entry-count budget.
    pub fn entries(&self) -> impl Iterator<Item = (Word, Word)> + '_ {
        self.entries.iter().map(|(&k, &v)| (k, v))
    }
}

impl<'a> Overlay<'a> {
    /// An empty overlay over `base`.
    pub fn new(base: &'a ContractState) -> Self {
        Overlay {
            base,
            entries: WordMap::default(),
            new_keys: 0,
            blob_bytes: 0,
            blob_count: 0,
        }
    }

    /// Detaches the recorded effects from the base borrow.
    pub fn into_delta(self) -> OverlayDelta {
        OverlayDelta {
            entries: self.entries,
            blob_bytes: self.blob_bytes,
            blob_count: self.blob_count,
        }
    }
}

impl StateAccess for Overlay<'_> {
    fn load(&self, key: Word) -> Word {
        match self.entries.get(&key) {
            Some(&v) => v,
            None => self.base.load(key),
        }
    }

    fn replace(&mut self, key: Word, value: Word, limits: &StateLimits) -> Option<Word> {
        match self.entries.entry(key) {
            Entry::Occupied(mut slot) => Some(slot.insert(value)),
            Entry::Vacant(slot) => {
                let in_base = self.base.entries.get(&key).copied();
                if in_base.is_none()
                    && self.base.entry_count() + self.new_keys >= limits.max_entries
                {
                    return None;
                }
                slot.insert(value);
                if in_base.is_none() {
                    self.new_keys += 1;
                }
                Some(in_base.unwrap_or(0))
            }
        }
    }

    fn store_blob(&mut self, len: u64, limits: &StateLimits) -> bool {
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

    #[test]
    fn absent_keys_read_zero() {
        let s = ContractState::new();
        assert_eq!(s.load(42), 0);
    }

    #[test]
    fn store_and_load_roundtrip() {
        let mut s = ContractState::new();
        let lim = StateLimits::unbounded();
        assert!(s.store(1, 10, &lim));
        assert!(s.store(2, -5, &lim));
        assert_eq!(s.load(1), 10);
        assert_eq!(s.load(2), -5);
        assert!(s.store(1, 11, &lim));
        assert_eq!(s.load(1), 11);
        assert_eq!(s.entry_count(), 2);
        // Keys 2^32 apart share their low 32 bits; each keeps its own
        // entry (`hash.rs` checks that they also keep their own bucket).
        for k in 0..1024 {
            assert!(s.store(k << 32, k, &lim));
        }
        assert!((0..1024).all(|k| s.load(k << 32) == k));
        assert_eq!(s.entry_count(), 2 + 1024);
    }

    #[test]
    fn entry_limit_rejects_new_keys_but_allows_updates() {
        let mut s = ContractState::new();
        let lim = StateLimits {
            max_blob_bytes: 128,
            max_entries: 2,
        };
        assert!(s.store(1, 1, &lim));
        assert!(s.store(2, 2, &lim));
        assert!(!s.store(3, 3, &lim));
        assert_eq!(s.load(3), 0);
        // Updating an existing key is still allowed.
        assert!(s.store(2, 20, &lim));
        assert_eq!(s.load(2), 20);
    }

    #[test]
    fn overlay_reads_through_and_shadows() {
        let mut base = ContractState::new();
        let lim = StateLimits::unbounded();
        base.store(1, 10, &lim);
        let mut ov = Overlay::new(&base);
        assert_eq!(StateAccess::load(&ov, 1), 10);
        assert_eq!(StateAccess::load(&ov, 2), 0);
        assert!(ov.store(1, 99, &lim));
        assert_eq!(StateAccess::load(&ov, 1), 99);
        // The base is untouched until the delta is applied.
        assert_eq!(base.load(1), 10);
    }

    #[test]
    fn overlay_apply_matches_direct_execution() {
        let lim = StateLimits::unbounded();
        let mut direct = ContractState::new();
        direct.store(1, 10, &lim);
        let mut via_overlay = direct.clone();

        direct.store(1, 11, &lim);
        direct.store(7, 70, &lim);
        direct.store_blob(64, &lim);

        let mut ov = Overlay::new(&via_overlay);
        ov.store(1, 11, &lim);
        ov.store(7, 70, &lim);
        StateAccess::store_blob(&mut ov, 64, &lim);
        let delta = ov.into_delta();
        via_overlay.apply(delta);

        assert_eq!(direct, via_overlay);
    }

    #[test]
    fn overlay_enforces_entry_limit_against_base() {
        let lim = StateLimits {
            max_blob_bytes: 128,
            max_entries: 2,
        };
        let mut base = ContractState::new();
        base.store(1, 1, &lim);
        let mut ov = Overlay::new(&base);
        // One new key fits (base has 1 of 2 slots used)...
        assert!(ov.store(2, 2, &lim));
        // ...a second does not, exactly like the base would reject it.
        assert!(!ov.store(3, 3, &lim));
        // Updating keys that already exist (in base or overlay) is fine.
        assert!(ov.store(1, 100, &lim));
        assert!(ov.store(2, 200, &lim));
    }

    /// Drives `state` through a fixed script of writes and checks each
    /// `replace` against a plain map seeded with `base`: the old value
    /// is what `load` saw just before, a new key past the limit is
    /// refused, and a refusal changes nothing.
    fn assert_replace_is_load_then_store<S: StateAccess>(
        mut state: S,
        base: &ContractState,
        limits: &StateLimits,
    ) {
        let mut model: std::collections::BTreeMap<Word, Word> =
            base.sorted_entries().into_iter().collect();
        let script = [(1, 11), (5, 50), (1, 12), (2, 7), (6, 0), (7, 70), (6, 61), (8, 80), (5, 0)];
        let mut refused = 0;
        for (key, value) in script {
            let before = state.load(key);
            assert_eq!(before, model.get(&key).copied().unwrap_or(0), "key {key}");
            let fits = model.contains_key(&key) || model.len() < limits.max_entries;
            assert_eq!(state.replace(key, value, limits), fits.then_some(before), "key {key}");
            if fits {
                model.insert(key, value);
            } else {
                refused += 1;
            }
            assert_eq!(state.load(key), model.get(&key).copied().unwrap_or(0), "key {key}");
        }
        assert_eq!(refused, 2, "the script must reach the entry limit");
    }

    #[test]
    fn replace_is_load_then_store_on_every_state() {
        let limits = StateLimits {
            max_blob_bytes: 0,
            max_entries: 4,
        };
        let mut base = ContractState::new();
        base.store(1, 10, &limits);
        base.store(2, 0, &limits); // an explicit 0 is an entry, not an absence
        assert_replace_is_load_then_store(base.clone(), &base, &limits);
        assert_replace_is_load_then_store(Overlay::new(&base), &base, &limits);
        let mv = crate::mv::MvMemory::new();
        let view = crate::mv::SpeculativeOverlay::new(&base, &mv, 0);
        assert_replace_is_load_then_store(view, &base, &limits);
    }

    #[test]
    fn write_log_drains_sorted_deduped_and_only_when_tracking() {
        let lim = StateLimits::unbounded();
        let mut s = ContractState::new();
        s.store(9, 90, &lim);
        assert!(s.drain_writes().is_empty(), "tracking is off by default");

        // Switching the log on counts what is already there as written.
        s.track_writes();
        s.store(-4, 1, &lim);
        s.store(7, 70, &lim);
        s.store(-4, 2, &lim);
        assert_eq!(s.drain_writes(), vec![(-4, 2), (7, 70), (9, 90)]);
        assert!(s.drain_writes().is_empty(), "a drain empties the log");

        // Overlay merges are logged like direct stores.
        let mut ov = Overlay::new(&s);
        ov.store(7, 71, &lim);
        ov.store(100, 5, &lim);
        let delta = ov.into_delta();
        s.apply(delta);
        assert_eq!(s.drain_writes(), vec![(7, 71), (100, 5)]);

        // A refused store writes nothing and logs nothing.
        let full = StateLimits {
            max_blob_bytes: 0,
            max_entries: s.entry_count(),
        };
        assert!(!s.store(555, 1, &full));
        assert!(s.drain_writes().is_empty());
    }

    #[test]
    fn equality_ignores_the_write_log() {
        let lim = StateLimits::unbounded();
        let mut a = ContractState::new();
        let mut b = ContractState::new();
        a.track_writes();
        a.store(1, 1, &lim);
        a.store(2, 2, &lim);
        b.store(2, 2, &lim);
        b.store(1, 1, &lim);
        assert_eq!(a, b);
        b.store(3, 0, &lim);
        assert_ne!(a, b, "an explicit 0 entry is still a difference");
    }

    #[test]
    fn blob_limit_enforced() {
        let mut s = ContractState::new();
        let avm = StateLimits {
            max_blob_bytes: 128,
            max_entries: 64,
        };
        assert!(s.store_blob(128, &avm));
        assert!(!s.store_blob(129, &avm));
        assert_eq!(s.blob_bytes(), 128);
        assert_eq!(s.blob_count(), 1);
    }
}
