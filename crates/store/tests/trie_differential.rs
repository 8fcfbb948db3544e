//! Differential property test: [`MerkleTable`], fed one block's write
//! set at a time, always holds the root [`trie::root`] folds from
//! scratch over the same entries.
//!
//! Each case is a run of blocks; each block is a list of words decoded
//! into writes against the state the previous blocks left: tail
//! appends, front inserts (which drive keys negative), inserts and
//! overwrites in the middle, overwrites of existing keys only, and the
//! key the previous block wrote first. Blocks may be empty, the first
//! blocks grow the table one row at a time through every small size
//! (1→2, 2→3, 4→5, …), and a block's mode word makes whole blocks of
//! pure updates, pure appends and pure front inserts. After every
//! block the table must agree with the model on its rows and with the
//! oracle on its root.

use std::collections::BTreeMap;

use diablo_store::trie::{self, MerkleTable};
use diablo_testkit::gen::{u64s, vecs};
use diablo_testkit::{prop_assert_eq, Property};

/// Decodes one word into a write against `model`, the state before the
/// block; `mode` is the block's first word, `echo` the first key the
/// previous block wrote.
fn decode(op: u64, mode: u64, model: &BTreeMap<i64, i64>, echo: i64) -> (i64, i64) {
    let value = (op >> 20) as i64 % 2_001 - 1_000;
    let pick = (op >> 8) as usize % 4_096;
    let lo = model.keys().next().copied().unwrap_or(0);
    let hi = model.keys().next_back().copied().unwrap_or(0);
    let kind = match mode % 5 {
        1 => 6, // a block of overwrites
        2 => 0, // a block of tail appends
        3 => 3, // a block of front inserts
        _ => op % 10,
    };
    let key = match kind {
        0..=2 => hi + 1 + (pick % 3) as i64,
        3 => lo - 1 - (pick % 3) as i64,
        4 | 5 => lo + pick as i64 % (hi - lo + 1),
        6..=8 if !model.is_empty() => *model.keys().nth(pick % model.len()).expect("in range"),
        _ => echo,
    };
    (key, value)
}

#[test]
fn incremental_root_matches_the_from_scratch_fold() {
    Property::new("incremental_root_matches_the_from_scratch_fold")
        .cases(96)
        .check(
            &vecs(vecs(u64s(0..=u64::MAX), 0..=40), 1..=24),
            |blocks: &Vec<Vec<u64>>| {
                let mut model: BTreeMap<i64, i64> = BTreeMap::new();
                let mut table = MerkleTable::new();
                let mut echo = 0i64;
                for (height, block) in blocks.iter().enumerate() {
                    // The first blocks write one key each, so every
                    // case walks the table through sizes 0, 1, 2, 3, …
                    let ops = if height < 6 {
                        &block[..block.len().min(1)]
                    } else {
                        &block[..]
                    };
                    let mode = ops.first().copied().unwrap_or(0);
                    // Last write to a key wins, as in a real block.
                    let written: BTreeMap<i64, i64> = ops
                        .iter()
                        .map(|&op| decode(op, mode, &model, echo))
                        .collect();
                    let written: Vec<(i64, i64)> = written.into_iter().collect();
                    model.extend(written.iter().copied());
                    table.apply(&written);
                    echo = written.first().map_or(echo, |&(k, _)| k);

                    let entries: Vec<(i64, i64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
                    prop_assert_eq!(table.entries(), &entries[..], "rows after block {height}");
                    prop_assert_eq!(
                        table.root(),
                        trie::root(&entries),
                        "root after block {height}"
                    );
                }
                prop_assert_eq!(table.len(), model.len());
                for (&k, &v) in &model {
                    prop_assert_eq!(table.load(k), v);
                }
                Ok(())
            },
        );
}
