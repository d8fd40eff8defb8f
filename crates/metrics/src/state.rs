//! Per-node routing-state measurement (paper §5.2 "State", Fig. 2, Fig. 4/5
//! left, Fig. 7, Fig. 9 right).
//!
//! "We measure data plane state for the protocols. This includes everything
//! necessary to forward a packet after the protocol has converged:
//! forwarding entries for landmarks and vicinities, name resolution entries
//! on the landmark database, forwarding label mappings for our compact
//! source route format in NDDisco, and the address mappings for Disco."
//!
//! Entries are counted per node for each protocol; Table 7's byte figures
//! additionally weight each entry with its wire size under IPv4-sized or
//! IPv6-sized node identifiers plus the (exact, per-address) compact
//! explicit-route bytes.

use crate::cdf::Cdf;
use disco_baselines::S4State;
use disco_core::address::IdentifierSize;
use disco_core::static_state::DiscoState;
use disco_graph::{Graph, NodeId};

/// Per-node entry counts for one protocol, plus derived statistics.
#[derive(Debug, Clone)]
pub struct StateReport {
    /// Entry count per measured node.
    pub entries: Vec<usize>,
}

impl StateReport {
    /// `entries(v)` for each of `nodes` (all nodes or a sample) — the one
    /// per-node state measurement, with the protocol as the closure.
    pub fn per_node(nodes: &[NodeId], entries: impl Fn(NodeId) -> usize) -> Self {
        StateReport {
            entries: nodes.iter().map(|&v| entries(v)).collect(),
        }
    }

    /// Mean entries per node.
    pub fn mean(&self) -> f64 {
        if self.entries.is_empty() {
            0.0
        } else {
            self.entries.iter().sum::<usize>() as f64 / self.entries.len() as f64
        }
    }

    /// Maximum entries at any node.
    pub fn max(&self) -> usize {
        self.entries.iter().copied().max().unwrap_or(0)
    }

    /// CDF over nodes.
    pub fn cdf(&self) -> Cdf {
        Cdf::from_counts(self.entries.iter().copied())
    }
}

/// Byte-accounted state (the paper's Fig. 7 table): per measured node, the
/// size of its routing state in bytes given the identifier size.
///
/// Per-entry costs:
/// * landmark / vicinity / cluster entry: one node identifier,
/// * compact-label mapping: 1 byte,
/// * name-resolution / directory / sloppy-group address entry: two node
///   identifiers (name + landmark) plus that node's exact compact
///   explicit-route bytes.
#[derive(Debug, Clone)]
pub struct ByteReport {
    /// Bytes of state per measured node.
    pub bytes: Vec<f64>,
}

impl ByteReport {
    /// Mean bytes per node.
    pub fn mean(&self) -> f64 {
        if self.bytes.is_empty() {
            0.0
        } else {
            self.bytes.iter().sum::<f64>() / self.bytes.len() as f64
        }
    }

    /// Maximum bytes at any node.
    pub fn max(&self) -> f64 {
        self.bytes.iter().copied().fold(0.0, f64::max)
    }
}

/// Byte-accounted Disco / NDDisco state.
pub fn disco_bytes(
    graph: &Graph,
    state: &DiscoState,
    nodes: &[NodeId],
    id_size: IdentifierSize,
    name_independent: bool,
) -> ByteReport {
    let id = id_size.bytes() as f64;
    let bytes = nodes
        .iter()
        .map(|&v| {
            let b = state.state_breakdown(graph, v);
            let mut total =
                (b.landmark_entries + b.vicinity_entries) as f64 * id + b.label_entries as f64;
            // Resolution entries stored at landmarks: exact per-address cost.
            if state.is_landmark(v) {
                for (w, addr) in state.addresses().iter().enumerate() {
                    if state
                        .resolution_ring()
                        .owner_of_name(state.name_of(NodeId(w)))
                        == v
                    {
                        total += 2.0 * id + addr.route_bytes(graph) as f64;
                    }
                }
            }
            if name_independent {
                // Sloppy-group address store.
                for &w in &state.grouping().perceived_group(v) {
                    if w != v && state.grouping().considers_member(w, v) {
                        total += 2.0 * id + state.address_of(w).route_bytes(graph) as f64;
                    }
                }
                total += b.overlay_entries as f64 * (2.0 * id);
            }
            total
        })
        .collect();
    ByteReport { bytes }
}

/// Byte-accounted S4 state.
pub fn s4_bytes(s4: &S4State, nodes: &[NodeId], id_size: IdentifierSize) -> ByteReport {
    let id = id_size.bytes() as f64;
    let bytes = nodes
        .iter()
        .map(|&v| {
            let mut total = (s4.landmarks().len() + s4.cluster(v).len()) as f64 * id;
            if s4.is_landmark(v) {
                // Directory entries: name + landmark identifier each; S4
                // stores no explicit routes, so no route bytes.
                total += s4.directory_entries_at(v) as f64 * 2.0 * id;
            }
            total
        })
        .collect();
    ByteReport { bytes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disco_baselines::ShortestPathState;
    use disco_core::config::DiscoConfig;
    use disco_graph::generators;

    fn disco(g: &Graph, d: &DiscoState, nodes: &[NodeId]) -> StateReport {
        StateReport::per_node(nodes, |v| d.state_breakdown(g, v).disco_total())
    }

    fn nddisco(g: &Graph, d: &DiscoState, nodes: &[NodeId]) -> StateReport {
        StateReport::per_node(nodes, |v| d.state_breakdown(g, v).nddisco_total())
    }

    fn setup(n: usize, seed: u64) -> (Graph, DiscoState, S4State) {
        let g = generators::gnm_average_degree(n, 8.0, seed);
        let cfg = DiscoConfig::seeded(seed);
        let d = DiscoState::build(&g, &cfg);
        let s = S4State::build(&g, &cfg);
        (g, d, s)
    }

    #[test]
    fn disco_state_is_balanced_and_bounded() {
        let (g, d, _) = setup(256, 1);
        let nodes: Vec<NodeId> = g.nodes().collect();
        let disco = disco(&g, &d, &nodes);
        let nd = nddisco(&g, &d, &nodes);
        assert_eq!(disco.entries.len(), 256);
        // NDDisco ≤ Disco everywhere.
        for (a, b) in nd.entries.iter().zip(&disco.entries) {
            assert!(a <= b);
        }
        // Balance: max within a small factor of the mean.
        assert!((disco.max() as f64) < 3.0 * disco.mean());
    }

    #[test]
    fn path_vector_dwarfs_disco_at_scale() {
        let (g, d, _) = setup(512, 2);
        let nodes: Vec<NodeId> = g.nodes().collect();
        let pv_state = ShortestPathState::build(&g);
        let pv = StateReport::per_node(&nodes, |v| pv_state.state_entries(v));
        let disco = disco(&g, &d, &nodes);
        assert_eq!(pv.mean(), 511.0);
        assert!(disco.mean() < pv.mean());
    }

    #[test]
    fn s4_state_is_more_unbalanced_than_nddisco_on_powerlaw() {
        // The defining observation of Fig. 2: NDDisco's state distribution
        // is tight (hard vicinity cap) while S4's has a heavy tail on
        // Internet-like topologies. At the full 16k/192k scale S4's worst
        // node dwarfs NDDisco's; at unit-test scale we assert the
        // imbalance ordering (max/mean ratio), which is already visible.
        let n = 2048;
        let g = generators::internet_router_like(n, 7);
        let cfg = DiscoConfig::seeded(7);
        let d = DiscoState::build(&g, &cfg);
        let s = S4State::build(&g, &cfg);
        let nodes: Vec<NodeId> = g.nodes().collect();
        let nd = nddisco(&g, &d, &nodes);
        let s4r = StateReport::per_node(&nodes, |v| s.state_entries(v));
        let nd_imbalance = nd.max() as f64 / nd.mean();
        let s4_imbalance = s4r.max() as f64 / s4r.mean();
        assert!(
            s4_imbalance > nd_imbalance,
            "S4 imbalance {s4_imbalance:.2} vs NDDisco {nd_imbalance:.2}"
        );
        // On the adversarial tree the effect is extreme even at small n
        // (covered in disco-baselines::s4 tests as well).
        let tree = generators::s4_adversarial_tree(32);
        let s_tree = S4State::build(&tree, &cfg);
        let d_tree = DiscoState::build(&tree, &cfg);
        let tree_nodes: Vec<NodeId> = tree.nodes().collect();
        let s4_tree = StateReport::per_node(&tree_nodes, |v| s_tree.state_entries(v));
        let nd_tree = nddisco(&tree, &d_tree, &tree_nodes);
        assert!(s4_tree.max() > 2 * nd_tree.max());
    }

    #[test]
    fn byte_reports_scale_with_identifier_size() {
        let (g, d, s) = setup(200, 3);
        let nodes: Vec<NodeId> = g.nodes().collect();
        let v4 = disco_bytes(&g, &d, &nodes, IdentifierSize::V4, true);
        let v6 = disco_bytes(&g, &d, &nodes, IdentifierSize::V6, true);
        assert!(v6.mean() > v4.mean() * 2.0);
        assert!(v6.max() >= v6.mean());
        let s4b = s4_bytes(&s, &nodes, IdentifierSize::V4);
        assert!(s4b.mean() > 0.0);
        let nd = disco_bytes(&g, &d, &nodes, IdentifierSize::V4, false);
        assert!(nd.mean() < v4.mean());
    }

    #[test]
    fn cdf_over_nodes_has_all_samples() {
        let (g, d, _) = setup(128, 4);
        let nodes: Vec<NodeId> = g.nodes().collect();
        let rep = disco(&g, &d, &nodes);
        assert_eq!(rep.cdf().len(), 128);
        assert!(rep.cdf().max() >= rep.cdf().mean());
    }
}
