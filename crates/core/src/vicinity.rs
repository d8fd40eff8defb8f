//! Vicinities (paper §4.2).
//!
//! The vicinity `V(v)` of a node `v` is the set of the `Θ(√(n log n))`
//! nodes closest to `v` (ties broken deterministically by node id). Knowing
//! shortest paths to the whole vicinity is what lets a source route well to
//! nearby destinations, and — together with the sloppy groups — what
//! guarantees that a source finds a member of any destination's group
//! within its own vicinity.
//!
//! Unlike S4's *clusters* (all nodes closer to `v` than to their own
//! landmark), a vicinity has a hard size cap, which is exactly why Disco's
//! per-node state is bounded on every topology (see the S4 comparison in
//! §4.2 and the adversarial tree test in `disco-baselines`).
//!
//! This module computes vicinities for the static simulator. The
//! distributed path-vector acceptance rule that converges to the same sets
//! lives in [`crate::path_vector`].

use crate::config::DiscoConfig;
use disco_graph::{search, Graph, NodeId, Stop, Weight};
use std::collections::HashMap;

/// The vicinity of one node: its `k` closest nodes with their distances,
/// in settling (non-decreasing distance) order.
#[derive(Debug, Clone)]
pub struct Vicinity {
    owner: NodeId,
    /// Members in non-decreasing distance order (the owner itself is first,
    /// at distance 0).
    ordered: Vec<(NodeId, Weight)>,
    /// Same content as a map for O(1) membership tests.
    by_node: HashMap<NodeId, Weight>,
}

impl Vicinity {
    /// Compute the vicinity of `owner` containing the `size` closest nodes
    /// (including `owner` itself).
    pub fn compute(g: &Graph, owner: NodeId, size: usize) -> Self {
        let tree = search(g, &[owner], Stop::Settled(size));
        let ordered: Vec<(NodeId, Weight)> = tree
            .settled_order()
            .iter()
            .map(|&v| (v, tree.distance(v).unwrap()))
            .collect();
        let by_node = ordered.iter().copied().collect();
        Vicinity {
            owner,
            ordered,
            by_node,
        }
    }

    /// The node this vicinity belongs to.
    pub fn owner(&self) -> NodeId {
        self.owner
    }

    /// Number of members (including the owner).
    pub fn len(&self) -> usize {
        self.ordered.len()
    }

    /// Whether the vicinity is empty (never true for a computed vicinity).
    pub fn is_empty(&self) -> bool {
        self.ordered.is_empty()
    }

    /// Whether `v` is a member.
    pub fn contains(&self, v: NodeId) -> bool {
        self.by_node.contains_key(&v)
    }

    /// Distance from the owner to member `v`, if `v` is a member.
    pub fn distance(&self, v: NodeId) -> Option<Weight> {
        self.by_node.get(&v).copied()
    }

    /// Members in non-decreasing distance order.
    pub fn members(&self) -> impl Iterator<Item = (NodeId, Weight)> + '_ {
        self.ordered.iter().copied()
    }

    /// The vicinity radius: distance to the farthest member. The paper's
    /// control-plane optimisation has a node advertise this radius so
    /// neighbors can suppress useless announcements.
    pub fn radius(&self) -> Weight {
        self.ordered.last().map(|&(_, d)| d).unwrap_or(0.0)
    }
}

/// Compute vicinities for every node, using a per-node vicinity size taken
/// from the node's (possibly erroneous) estimate of `n`: one truncated
/// Dijkstra per node, fanned over one worker per CPU. The vicinities are
/// independent, so the result is the same for any CPU count.
///
/// Returns a vector indexed by node id.
pub fn all_vicinities(
    g: &Graph,
    cfg: &DiscoConfig,
    estimate: impl Fn(NodeId) -> usize + Sync,
) -> Vec<Vicinity> {
    // 64 nodes per chunk: coarse enough that taking a chunk is noise,
    // fine enough that a large graph spreads evenly over the workers.
    crate::map_per_cpu(g.node_count(), 64, |v| {
        let v = NodeId(v);
        Vicinity::compute(g, v, cfg.vicinity_size(estimate(v)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use disco_graph::generators;

    #[test]
    fn vicinity_has_requested_size_and_owner_first() {
        let g = generators::gnm_connected(256, 1024, 1);
        let v = Vicinity::compute(&g, NodeId(10), 30);
        assert_eq!(v.len(), 30);
        assert_eq!(v.members().next().unwrap(), (NodeId(10), 0.0));
        assert!(v.contains(NodeId(10)));
        assert_eq!(v.owner(), NodeId(10));
        assert!(!v.is_empty());
    }

    #[test]
    fn members_sorted_by_distance_and_radius_is_max() {
        let g = generators::geometric_connected(200, 8.0, 2);
        let v = Vicinity::compute(&g, NodeId(0), 25);
        let dists: Vec<f64> = v.members().map(|(_, d)| d).collect();
        for w in dists.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
        assert!((v.radius() - dists.last().unwrap()).abs() < 1e-12);
    }

    #[test]
    fn vicinity_members_are_the_k_closest() {
        // Check against a full Dijkstra: every non-member must be at least
        // as far as the vicinity radius.
        let g = generators::gnm_connected(128, 512, 5);
        let k = 20;
        let v = Vicinity::compute(&g, NodeId(3), k);
        let full = disco_graph::dijkstra(&g, NodeId(3));
        for node in g.nodes() {
            if !v.contains(node) {
                assert!(full.distance(node).unwrap() >= v.radius() - 1e-12);
            }
        }
    }

    #[test]
    fn vicinity_capped_by_component_size() {
        let g = generators::line(5);
        let v = Vicinity::compute(&g, NodeId(0), 100);
        assert_eq!(v.len(), 5);
    }

    #[test]
    fn all_vicinities_cover_every_node() {
        let g = generators::gnm_connected(200, 800, 7);
        let cfg = DiscoConfig::seeded(7);
        let vs = all_vicinities(&g, &cfg, |_| 200);
        assert_eq!(vs.len(), 200);
        let expected = cfg.vicinity_size(200);
        assert!(vs.iter().all(|v| v.len() == expected));
        for (i, v) in vs.iter().enumerate() {
            assert_eq!(v.owner(), NodeId(i));
        }
    }

    #[test]
    fn membership_is_not_symmetric_in_general() {
        // The paper stresses that s ∈ V(t) does not imply t ∈ V(s). Build a
        // graph where that is observable: a hub with many leaves plus a long
        // tail; with small vicinities the tail node sees the hub but not
        // vice versa.
        let g = generators::star(50);
        let tail = Vicinity::compute(&g, NodeId(1), 3);
        let hub = Vicinity::compute(&g, NodeId(0), 3);
        assert!(tail.contains(NodeId(0)));
        // The hub's 3-vicinity holds itself + two lowest-id leaves; node 49
        // is not among them, yet node 49's vicinity holds the hub.
        assert!(!hub.contains(NodeId(49)));
        let far = Vicinity::compute(&g, NodeId(49), 3);
        assert!(far.contains(NodeId(0)));
    }
}
