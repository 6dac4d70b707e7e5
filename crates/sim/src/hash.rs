//! A small deterministic hasher for the simulator's internal keyed
//! caches.
//!
//! std's default `HashMap` hashes with a randomly seeded SipHash: safe
//! against keys crafted to collide, but several times the cost of one
//! multiply, and the engine probes its caches on every batch. Every
//! key the simulator hashes (request and server ids, model/config
//! tuples, interned names) is produced by the program itself, so the
//! flood protection buys nothing. [`FxHasher`] is the rustc "Fx"
//! construction: each word is folded in with a rotate, an xor and one
//! multiply. It is seedless, so a given key hashes to the same value on
//! every run and host: integers up to 64 bits are folded as one word
//! each and byte strings as little-endian words, whatever the host's
//! pointer width or byte order.
//!
//! Keep std's hasher for keys that come from outside the program, and
//! for maps that are iterated into output (iteration order follows the
//! hash).
//!
//! # Example
//!
//! ```
//! use infless_sim::FxHashMap;
//!
//! let mut m: FxHashMap<u64, &str> = FxHashMap::default();
//! m.insert(7, "seven");
//! assert_eq!(m[&7], "seven");
//! ```

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed through [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The rustc "Fx" word hasher: fast, seedless and deterministic, with
/// no protection against adversarial keys.
#[derive(Debug, Clone, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
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

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn write_isize(&mut self, i: isize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn fx<T: Hash>(key: &T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(key)
    }

    #[test]
    fn u64_hash_is_pinned() {
        // One fold from a zero state: the key times the seed.
        assert_eq!(fx(&0u64), 0);
        assert_eq!(fx(&1u64), SEED);
        assert_eq!(fx(&42u64), 0x5e77_c80c_6b95_bc72);
    }

    #[test]
    fn one_byte_difference_changes_the_hash() {
        for len in 1..=17usize {
            let base: Vec<u8> = (0..len as u8).map(|b| b.wrapping_mul(37)).collect();
            for pos in 0..len {
                let mut other = base.clone();
                other[pos] ^= 0x5a;
                let (mut a, mut b) = (FxHasher::default(), FxHasher::default());
                a.write(&base);
                b.write(&other);
                assert_ne!(a.finish(), b.finish(), "len {len}, byte {pos}");
            }
        }
    }
}
