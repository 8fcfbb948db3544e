//! The hasher behind every [`Word`]-keyed map of this crate.
//!
//! A Gaming `update` probes contract state 40 times, and with the
//! standard library's SipHash those probes cost more than the 400
//! instructions around them. SipHash buys resistance to keys crafted to
//! collide; storage keys are computed by the in-tree contracts from
//! small call arguments, never read from outside the program, so here
//! it buys nothing. The seed is fixed because nothing observable may
//! depend on it anyway: iteration order never leaves this crate
//! unsorted (`sorted_entries`, `drain_writes` and `into_parts` sort).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::Word;

/// A `HashMap` keyed by storage key, hashed by [`WordHasher`].
pub(crate) type WordMap<V> = HashMap<Word, V, BuildHasherDefault<WordHasher>>;

/// The first multiplier of MurmurHash3's 64-bit finalizer (odd, so the
/// multiplication is a bijection).
const K: u64 = 0xFF51_AFD7_ED55_8CCD;

/// One multiplication and two folds per key. Bit `i` of a product
/// depends only on key bits `0..=i`, so the well-mixed bits are the high
/// ones, while the table indexes by the low ones: keys that differ only
/// above bit `k` (a stride of 2^k) would share every index bit below
/// it. Folding the high half down by 32 and again by 16 brings every
/// key bit into the low 16; the unit test below holds the result to the
/// spread of a random function on each key family the contracts use.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        // `Word` keys arrive through `write_i64`; this keeps any other
        // key type correct, if slow.
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u64(&mut self, n: u64) {
        let h = (self.0 ^ n).wrapping_mul(K);
        let h = h ^ (h >> 32);
        self.0 = h ^ (h >> 16);
    }

    fn write_i64(&mut self, n: i64) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::BuildHasher;

    /// Share of distinct values among the low 16 bits of the hashes of
    /// 65,536 keys — the bits a table of up to 65,536 buckets indexes
    /// by. A random function scores 63%.
    fn low16_spread(keys: impl Iterator<Item = Word>) -> f64 {
        let build = BuildHasherDefault::<WordHasher>::default();
        let mut n = 0usize;
        let distinct: HashSet<u16> = keys
            .inspect(|_| n += 1)
            .map(|k| build.hash_one(k) as u16)
            .collect();
        assert_eq!(n, 1 << 16, "each family is 65,536 keys");
        distinct.len() as f64 / n as f64
    }

    #[test]
    fn table_index_bits_spread_over_every_key_family_the_contracts_produce() {
        const N: Word = 1 << 16;
        let mut families: Vec<(String, Box<dyn Iterator<Item = Word>>)> = vec![
            ("sequential".into(), Box::new(0..N)),
            ("negatives".into(), Box::new((1..=N).map(|i| -i))),
            // Gaming's key_x/key_y: 2p and 2p + 1 per player.
            (
                "x/y pairs".into(),
                Box::new((0..N / 2).flat_map(|p| [2 * p, 2 * p + 1])),
            ),
            // VideoSharing's per-video owner keys above a base.
            ("per-video".into(), Box::new((0..N).map(|id| 1_000 + id))),
        ];
        for shift in 1..=32 {
            families.push((
                format!("stride 2^{shift}"),
                Box::new((0..N).map(move |i| i << shift)),
            ));
        }
        for (name, keys) in families {
            let spread = low16_spread(keys);
            assert!(spread >= 0.60, "{name}: only {spread:.3} distinct");
        }
    }

    #[test]
    fn byte_keys_hash_too() {
        let build = BuildHasherDefault::<WordHasher>::default();
        assert_ne!(build.hash_one("ab"), build.hash_one("ba"));
    }
}
