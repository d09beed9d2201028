//! A fast, deterministic hasher for keys the simulator allocates itself.
//!
//! The standard `HashMap` hashes with SipHash under a per-process random
//! key. That defends a map against keys chosen to collide, which only
//! matters for keys that come from outside the program. The simulator's
//! own maps are keyed by inode numbers, block indices, xids and op ids it
//! hands out itself, and they sit on the per-RPC path, where SipHash costs
//! more than the work the lookup guards.
//!
//! [`FxHasher`] is the multiply-rotate word hasher of the Firefox and rustc
//! code bases: each word is folded in as `(h.rotl(5) ^ word) * K`. Its
//! output depends on nothing but the key, so it needs no seed and no
//! setting. A map keyed by a peer-chosen value (an external client's xid)
//! must keep the standard hasher: a fixed hash lets the peer send keys
//! that share one probe chain.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed with [`FxHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` hashed with [`FxHasher`].
pub type FastSet<K> = HashSet<K, BuildHasherDefault<FxHasher>>;

/// The odd multiplier of FxHash (64-bit).
const K: u64 = 0x517c_c1b7_2722_0a95;

/// A deterministic multiply-rotate hasher for integer-like keys; see the
/// module docs for when it may be used.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// FNV-1a's offset basis: every fingerprint starts its fold here.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the FNV-1a hash `h`. Every FNV-1a fingerprint and
/// pin in the workspace folds through this one function; a word folds as
/// its eight little-endian bytes (`fnv1a(h, &x.to_le_bytes())`). Inline:
/// the fleet and simtest fold on their per-completion paths.
#[inline]
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(v)
    }

    #[test]
    fn hash_depends_only_on_the_key() {
        assert_eq!(hash_of(42u64), hash_of(42u64));
        assert_eq!(hash_of((3u64, 9u64)), hash_of((3u64, 9u64)));
        // A pinned value: the hash must not change between builds or runs.
        assert_eq!(hash_of(1u64), K);
        assert_ne!(hash_of((3u64, 9u64)), hash_of((9u64, 3u64)));
    }

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a(FNV_BASIS, b""), FNV_BASIS);
        assert_eq!(fnv1a(FNV_BASIS, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            fnv1a(fnv1a(FNV_BASIS, b"foo"), b"bar"),
            fnv1a(FNV_BASIS, b"foobar")
        );
    }
}
