//! Sloppy groups (paper §4.4).
//!
//! Node `v` belongs to the sloppy group `G(v)` of all nodes `w` whose hash
//! `h(w)` shares its first `k = ⌊log2(√n / log n)⌋` bits with `h(v)`, where
//! each node computes `k` from its own estimate of `n`. Every node in
//! `G(v)` stores `v`'s address, so any source that finds *one* member of
//! `G(t)` in its vicinity can learn `t`'s address with a local query.
//!
//! Two properties make the grouping practical (and are tested here):
//!
//! 1. **Consistency** — the grouping only changes when `n` changes by a
//!    constant factor (because `k` is a floor of a logarithm), and
//! 2. **Split/merge locality** — when `k` does change by one, each group
//!    either splits in half or merges with its sibling, so nodes with
//!    slightly different estimates of `n` still agree on a common "core
//!    group" `G'(v)` (the group under the larger `k`).

use crate::config::DiscoConfig;
use crate::hash::{NameHash, NameHasher};
use crate::name::FlatName;
use disco_graph::NodeId;
use std::collections::HashMap;

/// A sloppy-group identifier: the first `bits` bits of the members' hashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupId {
    /// Prefix value (in the low bits of the word).
    pub prefix: u64,
    /// Number of significant bits.
    pub bits: u32,
}

impl GroupId {
    /// The group a hash belongs to when grouping on `bits` prefix bits.
    pub fn of(hash: NameHash, bits: u32) -> Self {
        GroupId {
            prefix: hash.prefix(bits),
            bits,
        }
    }

    /// Whether `hash` falls inside this group.
    pub fn contains(&self, hash: NameHash) -> bool {
        hash.prefix(self.bits) == self.prefix
    }

    /// The two halves this group splits into when the prefix grows by one
    /// bit.
    pub fn split(&self) -> (GroupId, GroupId) {
        let bits = self.bits + 1;
        (
            GroupId {
                prefix: self.prefix << 1,
                bits,
            },
            GroupId {
                prefix: (self.prefix << 1) | 1,
                bits,
            },
        )
    }

    /// The group this one merges into when the prefix shrinks by one bit.
    pub fn parent(&self) -> Option<GroupId> {
        if self.bits == 0 {
            None
        } else {
            Some(GroupId {
                prefix: self.prefix >> 1,
                bits: self.bits - 1,
            })
        }
    }
}

/// The sloppy grouping of a whole (simulated) network: every node's hash and
/// group, under per-node prefix lengths derived from per-node estimates of
/// `n`.
#[derive(Debug, Clone)]
pub struct SloppyGrouping {
    hasher: NameHasher,
    hashes: Vec<NameHash>,
    /// Per-node prefix length `k` (differs across nodes only when estimates
    /// of `n` differ).
    prefix_bits: Vec<u32>,
    /// Members of each group *as seen with prefix length k_max* (the "core
    /// groups" G'): map from GroupId at k_max to member list.
    core_groups: HashMap<GroupId, Vec<NodeId>>,
    k_max: u32,
}

impl SloppyGrouping {
    /// Build the grouping for `n` nodes named with [`FlatName::synthetic`]
    /// names, with node `v` using `estimate(v)` as its estimate of `n`.
    pub fn build(
        n: usize,
        cfg: &DiscoConfig,
        names: &[FlatName],
        estimate: impl Fn(NodeId) -> usize,
    ) -> Self {
        assert_eq!(names.len(), n);
        let hasher = NameHasher::new(cfg.seed ^ 0x510f);
        let hashes: Vec<NameHash> = names.iter().map(|nm| hasher.hash_name(nm)).collect();
        let prefix_bits: Vec<u32> = (0..n)
            .map(|v| cfg.group_prefix_bits(estimate(NodeId(v))))
            .collect();
        let k_max = prefix_bits.iter().copied().max().unwrap_or(0);
        let mut core_groups: HashMap<GroupId, Vec<NodeId>> = HashMap::new();
        for (v, &hash) in hashes.iter().enumerate() {
            let gid = GroupId::of(hash, k_max);
            core_groups.entry(gid).or_default().push(NodeId(v));
        }
        for members in core_groups.values_mut() {
            members.sort();
        }
        SloppyGrouping {
            hasher,
            hashes,
            prefix_bits,
            core_groups,
            k_max,
        }
    }

    /// The hash function all nodes agree on.
    pub fn hasher(&self) -> &NameHasher {
        &self.hasher
    }

    /// `h(v)` for node `v`.
    pub fn hash_of(&self, v: NodeId) -> NameHash {
        self.hashes[v.0]
    }

    /// The prefix length node `v` uses (derived from its estimate of `n`).
    pub fn prefix_bits_of(&self, v: NodeId) -> u32 {
        self.prefix_bits[v.0]
    }

    /// The maximum prefix length in use (defines the core groups).
    pub fn k_max(&self) -> u32 {
        self.k_max
    }

    /// The group id node `v` believes it belongs to.
    pub fn group_of(&self, v: NodeId) -> GroupId {
        GroupId::of(self.hashes[v.0], self.prefix_bits[v.0])
    }

    /// Whether node `v` considers node `w` a member of its own sloppy group
    /// (using `v`'s prefix length) — the membership test used when deciding
    /// whose addresses to store and to whom to forward announcements.
    pub fn considers_member(&self, v: NodeId, w: NodeId) -> bool {
        self.group_of(v).contains(self.hashes[w.0])
    }

    /// The *core group* `G'(v)`: the members everyone agrees are grouped
    /// with `v` (grouping at the largest prefix length in use). Sorted by
    /// node id.
    pub fn core_group(&self, v: NodeId) -> &[NodeId] {
        let gid = GroupId::of(self.hashes[v.0], self.k_max);
        self.core_groups
            .get(&gid)
            .map(|m| m.as_slice())
            .unwrap_or(&[])
    }

    /// All nodes `w` (including `v` itself) that *v considers* members of
    /// its group. `O(n)` scan — used by tests and the static simulator's
    /// state accounting.
    pub fn perceived_group(&self, v: NodeId) -> Vec<NodeId> {
        let gid = self.group_of(v);
        (0..self.hashes.len())
            .filter(|&w| gid.contains(self.hashes[w]))
            .map(NodeId)
            .collect()
    }

    /// Iterate over all core groups.
    pub fn core_groups(&self) -> impl Iterator<Item = (&GroupId, &Vec<NodeId>)> {
        self.core_groups.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(n: usize) -> Vec<FlatName> {
        (0..n).map(FlatName::synthetic).collect()
    }

    #[test]
    fn group_id_split_and_parent() {
        let g = GroupId {
            prefix: 0b10,
            bits: 2,
        };
        let (a, b) = g.split();
        assert_eq!(
            a,
            GroupId {
                prefix: 0b100,
                bits: 3
            }
        );
        assert_eq!(
            b,
            GroupId {
                prefix: 0b101,
                bits: 3
            }
        );
        assert_eq!(a.parent(), Some(g));
        assert_eq!(b.parent(), Some(g));
        assert_eq!(GroupId { prefix: 0, bits: 0 }.parent(), None);
    }

    #[test]
    fn grouping_partitions_all_nodes() {
        let n = 2048;
        let cfg = DiscoConfig::seeded(3);
        let g = SloppyGrouping::build(n, &cfg, &names(n), |_| n);
        let total: usize = g.core_groups().map(|(_, m)| m.len()).sum();
        assert_eq!(total, n);
        // With a uniform estimate, perceived group == core group.
        for v in [0usize, 77, 2047] {
            assert_eq!(
                g.perceived_group(NodeId(v)),
                g.core_group(NodeId(v)).to_vec()
            );
        }
    }

    #[test]
    fn group_sizes_are_theta_sqrt_n_log_n() {
        let n = 4096;
        let cfg = DiscoConfig::seeded(1);
        let g = SloppyGrouping::build(n, &cfg, &names(n), |_| n);
        let k = cfg.group_prefix_bits(n);
        assert_eq!(g.k_max(), k);
        let expected = n as f64 / 2f64.powi(k as i32);
        for (_, members) in g.core_groups() {
            let len = members.len() as f64;
            assert!(
                len > expected * 0.5 && len < expected * 1.6,
                "group size {len}, expected ≈ {expected}"
            );
        }
    }

    #[test]
    fn membership_contains_self_and_is_symmetric_with_equal_estimates() {
        let n = 1024;
        let cfg = DiscoConfig::seeded(5);
        let g = SloppyGrouping::build(n, &cfg, &names(n), |_| n);
        for v in 0..64 {
            assert!(g.considers_member(NodeId(v), NodeId(v)));
        }
        for v in 0..32 {
            for w in 0..32 {
                assert_eq!(
                    g.considers_member(NodeId(v), NodeId(w)),
                    g.considers_member(NodeId(w), NodeId(v))
                );
            }
        }
    }

    #[test]
    fn estimates_within_factor_two_differ_by_at_most_one_bit() {
        let n = 8192;
        let cfg = DiscoConfig::seeded(9);
        // Half the nodes underestimate by 40%, half overestimate by 60%.
        let est = |v: NodeId| {
            if v.0.is_multiple_of(2) {
                (n as f64 * 0.6) as usize
            } else {
                (n as f64 * 1.6) as usize
            }
        };
        let g = SloppyGrouping::build(n, &cfg, &names(n), est);
        let bits: Vec<u32> = (0..n).map(|v| g.prefix_bits_of(NodeId(v))).collect();
        let min = *bits.iter().min().unwrap();
        let max = *bits.iter().max().unwrap();
        assert!(max - min <= 1, "prefix bits spread {min}..{max}");
    }

    #[test]
    fn core_group_is_subset_of_every_members_perceived_group() {
        // The dissemination argument requires: every member of G'(v) agrees
        // that all of G'(v) is in its group.
        let n = 2048;
        let cfg = DiscoConfig::seeded(21);
        let est = |v: NodeId| if v.0.is_multiple_of(3) { n / 2 + 1 } else { n };
        let g = SloppyGrouping::build(n, &cfg, &names(n), est);
        for probe in [0usize, 100, 555, 2000] {
            let core = g.core_group(NodeId(probe));
            for &m in core {
                for &x in core {
                    assert!(
                        g.considers_member(m, x),
                        "core member {m} does not consider {x} grouped"
                    );
                }
            }
        }
    }
}
