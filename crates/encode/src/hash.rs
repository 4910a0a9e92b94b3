//! The fixed-seed hasher behind the crate's id-keyed maps.
//!
//! Every map and set in this crate is keyed by dense ids (gates, signals,
//! symbols, terms) and offsets. `std`'s `RandomState` seeds SipHash per
//! process, so iteration orders, and with them the order in which
//! transitivity clauses reached the solver, changed from run to run, and
//! with them the loaded CNF size and the search trajectory. SipHash's
//! resistance to chosen keys buys nothing here and costs most of a lookup.
//!
//! [`FxHasher`] is FxHash's multiply-rotate with one addition: `finish`
//! folds the high half of the state into the low half. A multiply only
//! carries differences upwards, so without the fold two keys that differ
//! only in the high bits of a word (bound offsets `c` are `i64`s that
//! daemon clients choose) would land in the same bucket, which the table
//! indexes by the low bits.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// FxHash's odd multiplier (a 64-bit fraction of π).
const K: u64 = 0x517c_c1b7_2722_0a95;

/// Multiply-rotate hasher with a fixed seed and a folding `finish`.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.hash ^ (self.hash >> 32)
    }
}

/// A `HashMap` hashed by [`FxHasher`].
pub(crate) type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` hashed by [`FxHasher`].
pub(crate) type FxHashSet<K> = HashSet<K, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use std::hash::BuildHasher;

    use super::*;

    /// Bucket (low 12 bits) of each of 4,096 bound keys `(x, y, c)` whose
    /// offsets differ only above bit 32.
    fn buckets(hash: impl Fn(&(u32, u32, i64)) -> u64) -> usize {
        let buckets: HashSet<u64> = (0..4096i64)
            .map(|i| hash(&(3, 7, 5 + (i << 33))) & 0xfff)
            .collect();
        buckets.len()
    }

    #[test]
    fn high_offset_bits_spread_over_the_low_buckets() {
        let fx = BuildHasherDefault::<FxHasher>::default();
        let spread = buckets(|key| fx.hash_one(key));
        assert!(spread >= 2048, "4,096 keys fell into {spread} buckets");
        // Plain Fx, without the fold, sends them all to one bucket.
        let plain = buckets(|key| {
            let mut h = FxHasher::default();
            std::hash::Hash::hash(key, &mut h);
            h.hash
        });
        assert_eq!(plain, 1);
    }

    #[test]
    fn hashes_are_the_same_in_every_process() {
        // No per-process seed: a key's hash is a constant.
        let fx = BuildHasherDefault::<FxHasher>::default();
        assert_eq!(fx.hash_one((1u32, 2u32, -3i64)), 0x5f3b_5608_8e7e_bfb8);
    }
}
