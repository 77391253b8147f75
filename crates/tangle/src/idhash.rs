//! Keyed hashing for [`TxId`] keys: [`IdMap`] and [`IdSet`].
//!
//! A transaction id is a SHA-256 output, so its bytes are already
//! uniformly distributed and all a hash table needs from its hasher is a
//! cheap, keyed mix of those bytes into 64 bits. The weight walk hashes
//! every ancestor it visits twice (a seen-set insert and a frontier
//! lookup), so on a deep cone the hasher runs thousands of times per
//! attach. The standard library's SipHash-1-3 spends about 23 ns on a
//! 32-byte key; [`IdHasher`] about 3. It folds the id's four 64-bit
//! words, each whitened by its own secret key word, through two folded
//! multiplies (the 128-bit product's high half XOR its low half).
//!
//! The key is drawn once per process from
//! [`std::collections::hash_map::RandomState`]. Ids are hash outputs and
//! the key is secret, so a peer cannot grind ids that fall into one
//! bucket. Keys whose bytes a sender picks freely (the spent-token map)
//! stay on SipHash.
//!
//! The hasher is built for fixed-size keys: it does not mix in the input
//! length, so it is no general-purpose replacement for SipHash.

use crate::tx::TxId;
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// A `HashMap` keyed by transaction id, hashed with [`IdHasher`].
pub type IdMap<V> = HashMap<TxId, V, IdBuildHasher>;

/// A `HashSet` of transaction ids, hashed with [`IdHasher`].
pub type IdSet = HashSet<TxId, IdBuildHasher>;

/// The process-wide key: four words, one per word of a 32-byte id.
fn process_key() -> [u64; 4] {
    static KEY: OnceLock<[u64; 4]> = OnceLock::new();
    *KEY.get_or_init(|| {
        let state = RandomState::new();
        std::array::from_fn(|i| state.hash_one(i))
    })
}

/// Builds [`IdHasher`]s under the process-wide secret key.
#[derive(Clone, Copy)]
pub struct IdBuildHasher {
    key: [u64; 4],
}

impl Default for IdBuildHasher {
    fn default() -> Self {
        Self { key: process_key() }
    }
}

impl fmt::Debug for IdBuildHasher {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The key stays out of logs.
        f.debug_struct("IdBuildHasher").finish_non_exhaustive()
    }
}

impl BuildHasher for IdBuildHasher {
    type Hasher = IdHasher;

    #[inline]
    fn build_hasher(&self) -> IdHasher {
        IdHasher {
            key: self.key,
            acc: 0,
        }
    }
}

/// A keyed folded-multiply hasher for id keys (see the module docs).
#[derive(Clone, Copy)]
pub struct IdHasher {
    key: [u64; 4],
    acc: u64,
}

impl fmt::Debug for IdHasher {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IdHasher").finish_non_exhaustive()
    }
}

/// The 128-bit product of `a` and `b`, high half XOR low half.
#[inline]
fn folded_multiply(a: u64, b: u64) -> u64 {
    let p = u128::from(a) * u128::from(b);
    (p >> 64) as u64 ^ p as u64
}

impl Hasher for IdHasher {
    /// Folds `bytes` in 16-byte lanes (a short last lane is zero-padded):
    /// each lane's two words are XORed with two key words, alternating
    /// between the key's halves, and the running hash enters every
    /// product so the lanes chain. A 32-byte id takes two multiplies.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for (i, lane) in bytes.chunks(16).enumerate() {
            let mut buf = [0u8; 16];
            buf[..lane.len()].copy_from_slice(lane);
            let (lo, hi) = buf.split_at(8);
            let lo = u64::from_le_bytes(lo.try_into().expect("8-byte half"));
            let hi = u64::from_le_bytes(hi.try_into().expect("8-byte half"));
            let k = 2 * (i & 1);
            self.acc = folded_multiply(lo ^ self.key[k], hi ^ self.key[k + 1] ^ self.acc);
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_builder_in_a_process_shares_one_key() {
        let id = TxId([7; 32]);
        let a = IdBuildHasher::default();
        let b = IdBuildHasher::default();
        assert_eq!(a.hash_one(id), b.hash_one(id));
    }
}
