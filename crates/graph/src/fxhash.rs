//! A fast, deterministic hasher for simulation-internal maps.
//!
//! `std`'s default `SipHash` with per-process random keys costs real time in
//! the simulator's hot paths (routing tables, Adj-RIB-In maps) and
//! randomizes iteration order between processes.
//! This is the well-known `FxHash` multiply-mix scheme (rustc's internal
//! hasher): not DoS-resistant — irrelevant for a simulator hashing its own
//! dense ids — but several times faster on small keys and fully
//! deterministic.
//!
//! Iteration order of an `FxHashMap` is still arbitrary (it depends on
//! insertion history), so code must remain order-insensitive exactly as it
//! had to be under `SipHash`; determinism of *results* comes from that
//! order-insensitivity, not from the hasher.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The FxHash mixer: rotate, xor, multiply.
#[derive(Debug, Clone, Copy, Default)]
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
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Drop-in `HashMap` with the fast deterministic hasher.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// Drop-in `HashSet` with the fast deterministic hasher.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;

    #[test]
    fn map_works_with_node_ids() {
        let mut m: FxHashMap<NodeId, u32> = FxHashMap::default();
        for i in 0..1000 {
            m.insert(NodeId(i), i as u32);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&NodeId(371)), Some(&371));
        m.remove(&NodeId(371));
        assert_eq!(m.get(&NodeId(371)), None);
    }

    #[test]
    fn hashes_are_deterministic() {
        let h = |bytes: &[u8]| {
            let mut h = FxHasher::default();
            h.write(bytes);
            h.finish()
        };
        assert_eq!(h(b"disco"), h(b"disco"));
        assert_ne!(h(b"disco"), h(b"disc0"));
        // Multi-chunk input exercises the remainder path.
        assert_ne!(h(b"0123456789abcdef!"), h(b"0123456789abcdef?"));
    }

    #[test]
    fn set_works() {
        let mut s: FxHashSet<(u32, u32)> = FxHashSet::default();
        assert!(s.insert((1, 2)));
        assert!(!s.insert((1, 2)));
        assert!(s.contains(&(1, 2)));
    }
}
