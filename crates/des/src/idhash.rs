//! A hasher for tables keyed by dense integer ids.
//!
//! The engine's hot tables (pending event ids, in-flight flow ids) are
//! keyed by integers the simulator hands out itself, so they need no
//! defence against adversarial keys. One multiply per key replaces
//! SipHash's rounds. These tables are only looked up and counted, never
//! iterated into output, so their iteration order cannot reach a report.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative (Fibonacci) hashing of integer keys: an odd constant
/// near 2^64 / φ spreads consecutive ids over both the low bits that pick
/// a bucket and the high bits the table compares.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

const K: u64 = 0x9e37_79b9_7f4a_7c15;

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(K);
    }
}

/// A `HashMap` keyed by integer ids.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A `HashSet` of integer ids.
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn consecutive_ids_hash_apart() {
        let b = BuildHasherDefault::<IdHasher>::default();
        let hashes: IdSet<u64> = (0..1000u64).map(|i| b.hash_one(i)).collect();
        assert_eq!(hashes.len(), 1000);
        // The low bits that pick a bucket differ for neighbours.
        assert_ne!(b.hash_one(1u64) & 0xff, b.hash_one(2u64) & 0xff);
    }
}
