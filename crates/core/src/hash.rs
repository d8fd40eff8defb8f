//! Hashing of flat names into the identifier ring (paper §4.4).
//!
//! The paper uses a "well-known hash function h(v) (e.g., SHA-2)" that maps
//! a node name to a roughly uniformly-distributed string of `Θ(log n)`
//! bits. The routing layer only needs uniformity and determinism, so this
//! reproduction uses a 64-bit splitmix-style mixer over the name bytes (see
//! README, "Substitutions"). Sixty-four bits are plenty: the
//! paper's constructions use the first `k ≈ log2(√n / log n)` bits for
//! sloppy grouping and the full value for ring ordering, and collisions at
//! `n ≤ 2^32` are negligible.
//!
//! Everything downstream of this module — sloppy groups, the Symphony
//! overlay, consistent hashing — treats [`NameHash`] values as positions on
//! a circular 64-bit identifier space.

use crate::name::FlatName;
use std::fmt;

/// One round of a 64-bit finalizer (splitmix64's output function).
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// A position on the 64-bit circular identifier space, `h(name)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NameHash(pub u64);

impl NameHash {
    /// The raw 64-bit value.
    #[inline]
    pub fn value(self) -> u64 {
        self.0
    }

    /// The first `k` bits (most significant), i.e. the sloppy-group prefix.
    #[inline]
    pub fn prefix(self, k: u32) -> u64 {
        if k == 0 {
            0
        } else if k >= 64 {
            self.0
        } else {
            self.0 >> (64 - k)
        }
    }

    /// Length of the common most-significant-bit prefix with `other`
    /// (0..=64). This is the "longest prefix match between h(w) and h(t)"
    /// used when a source looks for a vicinity member of the destination's
    /// sloppy group.
    #[inline]
    pub fn common_prefix_len(self, other: NameHash) -> u32 {
        (self.0 ^ other.0).leading_zeros()
    }

    /// Distance from `self` to `other` walking clockwise (increasing ids,
    /// wrapping at 2^64).
    #[inline]
    pub fn clockwise_distance(self, other: NameHash) -> u64 {
        other.0.wrapping_sub(self.0)
    }

    /// Circular distance (minimum of clockwise and counter-clockwise).
    #[inline]
    pub fn ring_distance(self, other: NameHash) -> u64 {
        let cw = self.clockwise_distance(other);
        cw.min(cw.wrapping_neg())
    }

    /// Whether `self` lies in the half-open clockwise arc `(from, to]`.
    /// Used for successor/ownership computations (consistent hashing,
    /// Symphony ring maintenance).
    pub fn in_arc(self, from: NameHash, to: NameHash) -> bool {
        if from == to {
            // Full circle.
            return true;
        }
        from.clockwise_distance(self) != 0
            && from.clockwise_distance(self) <= from.clockwise_distance(to)
    }
}

impl fmt::Debug for NameHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NameHash({:016x})", self.0)
    }
}

impl fmt::Display for NameHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// The globally agreed hash function `h(·)`, parameterised by a salt so
/// tests and multi-hash consistent hashing can derive independent functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NameHasher {
    salt: u64,
}

impl Default for NameHasher {
    fn default() -> Self {
        NameHasher::new(0)
    }
}

impl NameHasher {
    /// A hasher with the given salt. All nodes must agree on the salt; the
    /// simulators derive it from the experiment seed.
    pub fn new(salt: u64) -> Self {
        NameHasher {
            salt: mix64(salt ^ 0x5851f42d4c957f2d),
        }
    }

    /// Hash a flat name to its ring position.
    pub fn hash_name(&self, name: &FlatName) -> NameHash {
        self.hash_bytes(name.as_bytes())
    }

    /// Hash arbitrary bytes to a ring position.
    pub fn hash_bytes(&self, bytes: &[u8]) -> NameHash {
        let mut acc = self.salt ^ (bytes.len() as u64).wrapping_mul(0xff51afd7ed558ccd);
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            acc = mix64(acc ^ u64::from_le_bytes(word));
        }
        NameHash(mix64(acc))
    }

    /// Hash a 64-bit key (used by consistent hashing's virtual points).
    pub fn hash_u64(&self, key: u64) -> NameHash {
        NameHash(mix64(self.salt ^ mix64(key)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h() -> NameHasher {
        NameHasher::new(42)
    }

    #[test]
    fn hashing_deterministic_and_salt_dependent() {
        let n = FlatName::from("alice");
        assert_eq!(h().hash_name(&n), h().hash_name(&n));
        assert_ne!(
            NameHasher::new(1).hash_name(&n),
            NameHasher::new(2).hash_name(&n)
        );
    }

    #[test]
    fn different_names_hash_differently() {
        let a = h().hash_name(&FlatName::from("alice"));
        let b = h().hash_name(&FlatName::from("bob"));
        assert_ne!(a, b);
    }

    #[test]
    fn prefix_extraction() {
        let x = NameHash(0xF000_0000_0000_0000);
        assert_eq!(x.prefix(4), 0xF);
        assert_eq!(x.prefix(0), 0);
        assert_eq!(x.prefix(64), x.0);
        assert_eq!(x.prefix(80), x.0);
    }

    #[test]
    fn common_prefix_len() {
        let a = NameHash(0b1010 << 60);
        let b = NameHash(0b1011 << 60);
        assert_eq!(a.common_prefix_len(b), 3);
        assert_eq!(a.common_prefix_len(a), 64);
    }

    #[test]
    fn ring_distances() {
        let a = NameHash(10);
        let b = NameHash(20);
        assert_eq!(a.clockwise_distance(b), 10);
        assert_eq!(b.clockwise_distance(a), u64::MAX - 9);
        assert_eq!(a.ring_distance(b), 10);
        assert_eq!(b.ring_distance(a), 10);
        // Antipodal distance.
        let c = NameHash(10u64.wrapping_add(u64::MAX / 2 + 1));
        assert_eq!(a.ring_distance(c), u64::MAX / 2 + 1);
    }

    #[test]
    fn arcs() {
        let a = NameHash(100);
        let b = NameHash(200);
        assert!(NameHash(150).in_arc(a, b));
        assert!(NameHash(200).in_arc(a, b));
        assert!(!NameHash(100).in_arc(a, b));
        assert!(!NameHash(250).in_arc(a, b));
        // Wrapping arc.
        assert!(NameHash(50).in_arc(b, a));
        assert!(!NameHash(150).in_arc(b, a));
        // Degenerate full-circle arc.
        assert!(NameHash(7).in_arc(a, a));
    }

    #[test]
    fn hash_distribution_is_roughly_uniform() {
        // Bucket 4096 synthetic names into 16 buckets by top 4 bits; each
        // bucket should get 256 ± a generous tolerance.
        let hasher = h();
        let mut buckets = [0usize; 16];
        for i in 0..4096 {
            let v = hasher.hash_name(&FlatName::synthetic(i));
            buckets[v.prefix(4) as usize] += 1;
        }
        for (i, &c) in buckets.iter().enumerate() {
            assert!(
                c > 150 && c < 400,
                "bucket {i} badly unbalanced with {c} entries"
            );
        }
    }
}
