//! Per-block Merkle state roots: a balanced binary trie over sorted
//! key/value pairs.
//!
//! The root commits to the exact entry set *and* its order, so two runs
//! agree on a root exactly when they agree on the state — the property
//! the differential suites lean on. Input pairs must be sorted by key
//! (use `ContractState::sorted_entries`); sortedness is what makes the
//! root independent of `HashMap` iteration order by construction.
//!
//! Shape: leaves are hashed `(key, value)` pairs; each level pairs
//! adjacent nodes left-to-right and promotes an odd trailing node, like
//! a classic block-transaction Merkle tree. No proofs are generated —
//! the simulator needs integrity checking, not light clients.
//!
//! Two things build that tree. [`root`] folds it from scratch, level by
//! level, keeping nothing: it is the definition, and what tests hold
//! everything else against. [`MerkleTable`] keeps the tree — the sorted
//! rows plus every interior level — and re-hashes only what a block's
//! write set moved, so the store's per-block cost follows the block,
//! not the state.

use crate::digest::Digest;

/// Domain tag of leaf digests.
const LEAF_TAG: u64 = 0x6c65_6166; // "leaf"
/// The root of an empty entry set.
const EMPTY_TAG: u64 = 0x656d_7074_79; // "empty"

/// Digest of one `(key, value)` leaf.
pub fn leaf(key: i64, value: i64) -> Digest {
    Digest::of_words(LEAF_TAG, &[key as u64, value as u64])
}

/// The root of an empty tree (distinct from any leaf or node).
pub fn empty_root() -> Digest {
    Digest::of_words(EMPTY_TAG, &[])
}

/// Folds a leaf level into its Merkle root.
pub fn root_of_digests(mut level: Vec<Digest>) -> Digest {
    if level.is_empty() {
        return empty_root();
    }
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        let mut it = level.chunks_exact(2);
        for pair in &mut it {
            next.push(Digest::combine(&pair[0], &pair[1]));
        }
        if let [odd] = it.remainder() {
            next.push(*odd);
        }
        level = next;
    }
    level[0]
}

/// The Merkle root of sorted `(key, value)` pairs.
///
/// # Panics
///
/// Debug-panics when `pairs` is not strictly sorted by key: an unsorted
/// input would tie the root to iteration order, the exact bug this
/// module exists to rule out.
pub fn root(pairs: &[(i64, i64)]) -> Digest {
    debug_assert!(
        pairs.windows(2).all(|w| w[0].0 < w[1].0),
        "merkle input must be strictly key-sorted"
    );
    root_of_digests(pairs.iter().map(|&(k, v)| leaf(k, v)).collect())
}

/// The sorted `(key, value)` rows of a contract's storage together with
/// the interior levels of the tree [`root`] folds over them.
///
/// The rows are the leaf level: a leaf digest is cheaper to recompute
/// than to keep (half a [`Digest::combine`], against 32 resident bytes
/// per entry). `levels[d]` holds the nodes `d + 1` steps above the
/// leaves; the last level is the root alone. Keys are only ever added
/// or overwritten, never removed — contract storage has no delete.
#[derive(Debug, Clone, Default)]
pub struct MerkleTable {
    rows: Vec<(i64, i64)>,
    levels: Vec<Vec<Digest>>,
}

impl MerkleTable {
    /// An empty table, whose root is [`empty_root`].
    pub fn new() -> MerkleTable {
        MerkleTable::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table holds no entry.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Reads `key`, returning 0 when absent (contract-storage
    /// semantics).
    pub fn load(&self, key: i64) -> i64 {
        match self.rows.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(i) => self.rows[i].1,
            Err(_) => 0,
        }
    }

    /// The entries, strictly sorted by key.
    pub fn entries(&self) -> &[(i64, i64)] {
        &self.rows
    }

    /// The Merkle root of the entries: always equal to
    /// [`root`]`(self.entries())`.
    pub fn root(&self) -> Digest {
        match (self.levels.last(), self.rows.first()) {
            (Some(top), _) => top[0],
            (None, Some(&(k, v))) => leaf(k, v),
            (None, None) => empty_root(),
        }
    }

    /// Writes `written` — strictly key-sorted `(key, value)` pairs —
    /// into the table and brings every level up to date.
    ///
    /// An overwritten key re-hashes its own path to the root. New keys
    /// are merged into the rows, which shifts every row behind the
    /// first of them, so each level is folded again from that row's
    /// ancestor to its right edge and left alone before it. Appending
    /// at the tail therefore costs the new rows plus one path; a key
    /// inserted at the very front costs the whole fold [`root`] would
    /// do, and nothing can cost more than that.
    ///
    /// # Panics
    ///
    /// Debug-panics when `written` is not strictly sorted by key.
    pub fn apply(&mut self, written: &[(i64, i64)]) {
        debug_assert!(
            written.windows(2).all(|w| w[0].0 < w[1].0),
            "merkle input must be strictly key-sorted"
        );
        // Overwrite in place what exists; what does not is an insert.
        let mut dirty: Vec<usize> = Vec::new();
        let mut inserts: Vec<(i64, i64)> = Vec::new();
        let mut seek = 0;
        for &(k, v) in written {
            match self.rows[seek..].binary_search_by_key(&k, |&(key, _)| key) {
                Ok(at) => {
                    seek += at;
                    if self.rows[seek].1 != v {
                        self.rows[seek].1 = v;
                        dirty.push(seek);
                    }
                }
                Err(at) => {
                    seek += at;
                    inserts.push((k, v));
                }
            }
        }
        // Merge the inserts from the back, so every row moves at most
        // once. `shifted` ends as the index of the first new row: rows
        // before it kept their index, rows from it on did not.
        let mut shifted = self.rows.len();
        if !inserts.is_empty() {
            let mut old = self.rows.len();
            let mut at = old + inserts.len();
            self.rows.resize(at, (0, 0));
            for &(k, v) in inserts.iter().rev() {
                while old > 0 && self.rows[old - 1].0 > k {
                    at -= 1;
                    old -= 1;
                    self.rows[at] = self.rows[old];
                }
                at -= 1;
                self.rows[at] = (k, v);
            }
            shifted = at;
            dirty.retain(|&i| i < shifted);
        } else if dirty.is_empty() {
            return;
        }
        self.refold(shifted, dirty);
    }

    /// Recomputes, level by level, the ancestors of the `dirty` leaves
    /// and every node at or right of the ancestor of leaf `shifted`.
    /// `dirty` is ascending and below `shifted`.
    fn refold(&mut self, mut shifted: usize, mut dirty: Vec<usize>) {
        let mut below_len = self.rows.len();
        let mut depth = 0;
        while below_len > 1 {
            if self.levels.len() == depth {
                self.levels.push(Vec::new());
            }
            let (below, level) = self.levels.split_at_mut(depth);
            let level = &mut level[0];
            let rows = &self.rows;
            let child = |i: usize| match below.last() {
                Some(nodes) => nodes[i],
                None => leaf(rows[i].0, rows[i].1),
            };
            // The pairing `root_of_digests` does: adjacent nodes
            // combine, an odd trailing node moves up as it is.
            let parent = |i: usize| {
                if 2 * i + 1 < below_len {
                    Digest::combine(&child(2 * i), &child(2 * i + 1))
                } else {
                    child(2 * i)
                }
            };
            // A level never shrinks and `shifted` never exceeds its
            // old length, so everything before `shifted` is a node
            // that existed and whose children, unless dirty, did not
            // change.
            shifted /= 2;
            debug_assert!(shifted <= level.len());
            for i in &mut dirty {
                *i /= 2;
            }
            dirty.dedup();
            dirty.retain(|&i| i < shifted);
            for &i in &dirty {
                level[i] = parent(i);
            }
            level.truncate(shifted);
            level.extend((shifted..below_len.div_ceil(2)).map(parent));
            below_len = level.len();
            depth += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_singleton_and_pair_roots_are_distinct() {
        let e = root(&[]);
        let one = root(&[(1, 10)]);
        let two = root(&[(1, 10), (2, 20)]);
        assert_eq!(e, empty_root());
        assert_ne!(e, one);
        assert_ne!(one, two);
        // A single leaf's root is the leaf itself.
        assert_eq!(one, leaf(1, 10));
    }

    #[test]
    fn root_commits_to_values_and_keys() {
        let base = root(&[(1, 10), (2, 20), (3, 30)]);
        assert_ne!(base, root(&[(1, 10), (2, 21), (3, 30)]));
        assert_ne!(base, root(&[(1, 10), (2, 20), (4, 30)]));
        assert_ne!(base, root(&[(1, 10), (2, 20)]));
    }

    #[test]
    fn odd_levels_fold_correctly() {
        // 5 leaves: level sizes 5 → 3 → 2 → 1; check against the
        // hand-folded tree.
        let pairs: Vec<(i64, i64)> = (0..5).map(|i| (i, i * 7)).collect();
        let l: Vec<Digest> = pairs.iter().map(|&(k, v)| leaf(k, v)).collect();
        let n01 = Digest::combine(&l[0], &l[1]);
        let n23 = Digest::combine(&l[2], &l[3]);
        let n0123 = Digest::combine(&n01, &n23);
        let expect = Digest::combine(&n0123, &l[4]);
        assert_eq!(root(&pairs), expect);
    }

    /// Applies `written` and holds rows and root against the oracle.
    fn apply_checked(table: &mut MerkleTable, model: &mut Vec<(i64, i64)>, written: &[(i64, i64)]) {
        for &(k, v) in written {
            match model.binary_search_by_key(&k, |&(key, _)| key) {
                Ok(i) => model[i].1 = v,
                Err(i) => model.insert(i, (k, v)),
            }
        }
        table.apply(written);
        assert_eq!(table.entries(), &model[..]);
        assert_eq!(
            table.root(),
            root(model),
            "{} rows after {written:?}",
            model.len()
        );
    }

    #[test]
    fn table_grows_one_row_at_a_time_through_every_boundary() {
        // Sizes 0 → 70 cross 1→2 and every 2^k → 2^k + 1 up to 64→65,
        // where a level appears or an odd node starts being promoted.
        // At the tail the refold is one path, at the front everything.
        for front in [false, true] {
            let mut table = MerkleTable::new();
            let mut model = Vec::new();
            assert_eq!(table.root(), empty_root());
            for i in 0..70i64 {
                let key = if front { -i } else { i };
                apply_checked(&mut table, &mut model, &[(key, i * 3)]);
            }
            assert_eq!(table.len(), 70);
        }
    }

    #[test]
    fn table_updates_inserts_and_empty_deltas() {
        let mut table = MerkleTable::new();
        let mut model = Vec::new();
        // Seeding an empty table is the full fold.
        let seed: Vec<(i64, i64)> = (0..37).map(|i| (i * 10, i)).collect();
        apply_checked(&mut table, &mut model, &seed);
        let seeded = table.root();
        // An empty delta and a same-value overwrite change nothing.
        apply_checked(&mut table, &mut model, &[]);
        apply_checked(&mut table, &mut model, &[(50, 5)]);
        assert_eq!(table.root(), seeded);
        // Overwrites alone: first, last (the promoted odd node) and two
        // siblings sharing a parent.
        apply_checked(
            &mut table,
            &mut model,
            &[(0, -1), (20, -2), (30, -3), (360, -4)],
        );
        assert_ne!(table.root(), seeded);
        // The same key again in the next block.
        apply_checked(&mut table, &mut model, &[(360, -5)]);
        // A middle insert with an overwrite on either side of it.
        apply_checked(&mut table, &mut model, &[(10, 7), (155, 8), (300, 9)]);
        // Front, middle and tail inserts in one block, negative keys.
        apply_checked(
            &mut table,
            &mut model,
            &[(-9, 1), (-3, 2), (201, 3), (999, 4), (1_000, 5)],
        );
        assert_eq!(table.load(155), 8);
        assert_eq!(table.load(156), 0);
        assert!(!table.is_empty());
    }

    #[test]
    #[should_panic(expected = "key-sorted")]
    #[cfg(debug_assertions)]
    fn unsorted_input_panics_in_debug() {
        let _ = root(&[(2, 1), (1, 1)]);
    }
}
