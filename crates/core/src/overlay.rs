//! The address-dissemination overlay (paper §4.4).
//!
//! Each node `v` maintains a small set of overlay neighbors `N(v)`:
//!
//! * its **successor** and **predecessor** in the circular ordering of all
//!   nodes by hash value `h(·)` (like a DHT ring), and
//! * a small constant number of long-distance **fingers**, chosen à la
//!   Symphony: a target hash value `a` is drawn from the part of the hash
//!   space covered by `v`'s sloppy group, with probability inversely
//!   proportional to its distance from `h(v)`; the finger is the node whose
//!   hash is closest to `a` (found through the landmark resolution database
//!   in the distributed protocol).
//!
//! Counting incoming and outgoing connections, the average overlay degree is
//! ≈ 4 with one finger and ≈ 8 with three — constant, which is what keeps
//! the per-announcement message cost low.

use crate::config::DiscoConfig;
use crate::sloppy_group::SloppyGrouping;
use disco_graph::NodeId;
use disco_sim::rng::rng_for;
use rand::Rng;
use std::collections::BTreeMap;

/// RNG stream id for finger selection.
const FINGER_STREAM: u64 = 0x22;

/// The overlay links of one node.
#[derive(Debug, Clone)]
pub struct OverlayLinks {
    /// Next node clockwise on the hash ring.
    pub successor: NodeId,
    /// Previous node clockwise on the hash ring.
    pub predecessor: NodeId,
    /// Outgoing long-distance fingers (within the node's sloppy group).
    pub fingers: Vec<NodeId>,
}

/// The whole overlay network: per-node links plus the undirected adjacency
/// used by the dissemination protocol.
#[derive(Debug, Clone)]
pub struct Overlay {
    links: Vec<OverlayLinks>,
    /// Undirected adjacency: all nodes this node maintains a connection
    /// with, counting both directions (successor/predecessor/fingers in
    /// either direction). Sorted, deduplicated.
    adjacency: Vec<Vec<NodeId>>,
}

impl Overlay {
    /// Build the overlay for the given sloppy grouping with
    /// `cfg.fingers` outgoing fingers per node.
    pub fn build(grouping: &SloppyGrouping, cfg: &DiscoConfig) -> Self {
        let n = grouping_len(grouping);
        assert!(n >= 2, "overlay needs at least 2 nodes");

        // Ring order: nodes sorted by hash value.
        let mut by_hash: Vec<(u64, NodeId)> = (0..n)
            .map(|v| (grouping.hash_of(NodeId(v)).value(), NodeId(v)))
            .collect();
        by_hash.sort();
        let mut ring_pos = vec![0usize; n];
        for (pos, &(_, v)) in by_hash.iter().enumerate() {
            ring_pos[v.0] = pos;
        }

        // Sorted map from hash to node for closest-hash finger lookup.
        let hash_index: BTreeMap<u64, NodeId> = by_hash.iter().copied().collect();

        let mut links = Vec::with_capacity(n);
        for (v, &pos) in ring_pos.iter().enumerate() {
            let successor = by_hash[(pos + 1) % n].1;
            let predecessor = by_hash[(pos + n - 1) % n].1;
            let fingers = select_fingers(NodeId(v), grouping, cfg, &hash_index);
            links.push(OverlayLinks {
                successor,
                predecessor,
                fingers,
            });
        }

        // Undirected adjacency.
        let mut adjacency: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for (v, l) in links.iter().enumerate() {
            let mut add = |a: usize, b: NodeId| {
                if a != b.0 {
                    adjacency[a].push(b);
                    adjacency[b.0].push(NodeId(a));
                }
            };
            add(v, l.successor);
            add(v, l.predecessor);
            for &f in &l.fingers {
                add(v, f);
            }
        }
        for list in &mut adjacency {
            list.sort();
            list.dedup();
        }

        Overlay { links, adjacency }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.links.len()
    }

    /// The directed links of node `v`.
    pub fn links(&self, v: NodeId) -> &OverlayLinks {
        &self.links[v.0]
    }

    /// All overlay neighbors of `v` (connections in either direction).
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.adjacency[v.0]
    }

    /// Overlay degree of `v` counting connections in both directions —
    /// the paper's `|N(v)| ≈ 4 or 8`.
    pub fn degree(&self, v: NodeId) -> usize {
        self.adjacency[v.0].len()
    }

    /// Mean overlay degree.
    pub fn mean_degree(&self) -> f64 {
        let total: usize = (0..self.node_count()).map(|v| self.degree(NodeId(v))).sum();
        total as f64 / self.node_count() as f64
    }

    /// All undirected overlay edges (u < v).
    pub fn edges(&self) -> Vec<(NodeId, NodeId)> {
        let mut out = Vec::new();
        for v in 0..self.node_count() {
            for &w in &self.adjacency[v] {
                if v < w.0 {
                    out.push((NodeId(v), w));
                }
            }
        }
        out
    }
}

fn grouping_len(grouping: &SloppyGrouping) -> usize {
    // SloppyGrouping does not expose n directly; recover it from the core
    // group partition.
    grouping.core_groups().map(|(_, m)| m.len()).sum()
}

/// Select `cfg.fingers` outgoing fingers for `v`, Symphony-style: target
/// positions drawn within the hash-space arc of `v`'s sloppy group, with
/// density ∝ 1/distance from `h(v)`; the finger is the node whose hash is
/// closest to the target.
fn select_fingers(
    v: NodeId,
    grouping: &SloppyGrouping,
    cfg: &DiscoConfig,
    hash_index: &BTreeMap<u64, NodeId>,
) -> Vec<NodeId> {
    if cfg.fingers == 0 {
        return Vec::new();
    }
    let gid = grouping.group_of(v);
    let bits = gid.bits;
    let arc_size: u128 = if bits == 0 {
        1u128 << 64
    } else {
        1u128 << (64 - bits)
    };
    let arc_lo: u64 = if bits == 0 {
        0
    } else {
        gid.prefix << (64 - bits)
    };
    let h_v = grouping.hash_of(v).value();

    let mut rng = rng_for(cfg.seed, FINGER_STREAM, v.0 as u64);
    let mut fingers = Vec::with_capacity(cfg.fingers);
    let mut attempts = 0;
    while fingers.len() < cfg.fingers && attempts < cfg.fingers * 20 {
        attempts += 1;
        // Log-uniform distance in [1, arc_size): P(d) ∝ 1/d.
        let u: f64 = rng.gen();
        let d = ((arc_size as f64).ln() * u).exp() as u128;
        let d = d.clamp(1, arc_size.saturating_sub(1).max(1));
        let sign_up: bool = rng.gen();
        // Target position, reflected back into the group's arc.
        let offset = (h_v as u128).saturating_sub(arc_lo as u128);
        let new_offset = if sign_up {
            (offset + d) % arc_size
        } else {
            (offset + arc_size - (d % arc_size)) % arc_size
        };
        let target = arc_lo.wrapping_add(new_offset as u64);

        let candidate = closest_by_hash(hash_index, target);
        if candidate != v && !fingers.contains(&candidate) {
            fingers.push(candidate);
        }
    }
    fingers
}

/// The node whose hash value is closest to `target` on the circular 64-bit
/// space.
fn closest_by_hash(hash_index: &BTreeMap<u64, NodeId>, target: u64) -> NodeId {
    let above = hash_index
        .range(target..)
        .next()
        .or_else(|| hash_index.iter().next());
    let below = hash_index
        .range(..=target)
        .next_back()
        .or_else(|| hash_index.iter().next_back());
    match (above, below) {
        (Some((&ha, &na)), Some((&hb, &nb))) => {
            let da = ha.wrapping_sub(target).min(target.wrapping_sub(ha));
            let db = hb.wrapping_sub(target).min(target.wrapping_sub(hb));
            if da <= db {
                na
            } else {
                nb
            }
        }
        (Some((_, &na)), None) => na,
        (None, Some((_, &nb))) => nb,
        (None, None) => unreachable!("hash index is never empty"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::FlatName;

    fn grouping(n: usize, seed: u64) -> SloppyGrouping {
        let names: Vec<FlatName> = (0..n).map(FlatName::synthetic).collect();
        SloppyGrouping::build(n, &DiscoConfig::seeded(seed), &names, |_| n)
    }

    #[test]
    fn ring_links_form_a_single_cycle() {
        let n = 256;
        let g = grouping(n, 3);
        let overlay = Overlay::build(&g, &DiscoConfig::seeded(3));
        // Follow successors: must visit every node exactly once.
        let mut seen = vec![false; n];
        let mut cur = NodeId(0);
        for _ in 0..n {
            assert!(!seen[cur.0], "ring revisited {cur} early");
            seen[cur.0] = true;
            cur = overlay.links(cur).successor;
        }
        assert_eq!(cur, NodeId(0));
        assert!(seen.iter().all(|&s| s));
        // Successor/predecessor are inverses.
        for v in 0..n {
            let s = overlay.links(NodeId(v)).successor;
            assert_eq!(overlay.links(s).predecessor, NodeId(v));
        }
    }

    #[test]
    fn mean_degree_matches_paper_estimate() {
        let n = 2048;
        let g = grouping(n, 5);
        let one = Overlay::build(&g, &DiscoConfig::seeded(5).with_fingers(1));
        let three = Overlay::build(&g, &DiscoConfig::seeded(5).with_fingers(3));
        // Paper: |N(v)| ≈ 4 (1 finger) or ≈ 8 (3 fingers), counting both
        // directions. Ring links contribute 2, each finger ~2 (out + in).
        assert!(
            (one.mean_degree() - 4.0).abs() < 1.0,
            "1-finger mean degree {}",
            one.mean_degree()
        );
        assert!(
            (three.mean_degree() - 8.0).abs() < 1.6,
            "3-finger mean degree {}",
            three.mean_degree()
        );
    }

    #[test]
    fn fingers_stay_inside_the_nodes_group() {
        let n = 2048;
        let g = grouping(n, 7);
        let overlay = Overlay::build(&g, &DiscoConfig::seeded(7).with_fingers(3));
        let mut outside = 0usize;
        let mut total = 0usize;
        for v in 0..n {
            for &f in &overlay.links(NodeId(v)).fingers {
                total += 1;
                if !g.considers_member(NodeId(v), f) {
                    outside += 1;
                }
            }
        }
        // Targets are drawn inside the group arc; only boundary rounding can
        // land a finger just outside. That should be rare.
        assert!(total > 0);
        assert!(
            (outside as f64) < 0.05 * total as f64,
            "{outside}/{total} fingers outside their group"
        );
    }

    #[test]
    fn adjacency_is_symmetric() {
        let n = 512;
        let g = grouping(n, 9);
        let overlay = Overlay::build(&g, &DiscoConfig::seeded(9).with_fingers(2));
        for v in 0..n {
            for &w in overlay.neighbors(NodeId(v)) {
                assert!(
                    overlay.neighbors(w).contains(&NodeId(v)),
                    "asymmetric adjacency {v} -> {w}"
                );
            }
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let n = 256;
        let g = grouping(n, 11);
        let a = Overlay::build(&g, &DiscoConfig::seeded(11));
        let b = Overlay::build(&g, &DiscoConfig::seeded(11));
        for v in 0..n {
            assert_eq!(a.links(NodeId(v)).fingers, b.links(NodeId(v)).fingers);
        }
    }

    #[test]
    fn edges_are_unique_pairs() {
        let n = 300;
        let g = grouping(n, 13);
        let overlay = Overlay::build(&g, &DiscoConfig::seeded(13));
        let edges = overlay.edges();
        let mut set = std::collections::HashSet::new();
        for &(u, v) in &edges {
            assert!(u < v);
            assert!(set.insert((u, v)), "duplicate edge ({u},{v})");
        }
    }
}
