//! Congestion measurement (paper §5.2 "Congestion", Fig. 4/5 right,
//! Fig. 10).
//!
//! "To compute congestion, we have each node route to a random destination
//! and count the number of times each edge is used." The result is a CDF
//! over edges of the number of paths crossing each edge; compact routing
//! could in principle concentrate load near landmarks, and the experiment
//! shows it mostly does not.

use crate::cdf::Cdf;
use disco_graph::{Graph, NodeId};

/// Per-edge usage counts for one protocol's routes.
#[derive(Debug, Clone)]
pub struct CongestionReport {
    /// Number of paths using each edge, indexed by `EdgeId`.
    pub edge_usage: Vec<u64>,
}

impl CongestionReport {
    /// CDF over edges of the usage counts.
    pub fn cdf(&self) -> Cdf {
        Cdf::from_counts(self.edge_usage.iter().map(|&u| u as usize))
    }

    /// The most used edge.
    pub fn max(&self) -> u64 {
        self.edge_usage.iter().copied().max().unwrap_or(0)
    }

    /// Mean usage over edges.
    pub fn mean(&self) -> f64 {
        if self.edge_usage.is_empty() {
            0.0
        } else {
            self.edge_usage.iter().sum::<u64>() as f64 / self.edge_usage.len() as f64
        }
    }

    /// Fraction of edges used more than `threshold` times.
    pub fn fraction_above(&self, threshold: u64) -> f64 {
        if self.edge_usage.is_empty() {
            return 0.0;
        }
        self.edge_usage.iter().filter(|&&u| u > threshold).count() as f64
            / self.edge_usage.len() as f64
    }
}

/// Accumulate edge usage over the route `route_nodes(s, t)` of every pair
/// — the one congestion measurement, with the protocol as the closure.
pub fn measure<F>(graph: &Graph, pairs: &[(NodeId, NodeId)], mut route_nodes: F) -> CongestionReport
where
    F: FnMut(NodeId, NodeId) -> Vec<NodeId>,
{
    // Sized by edge *slots*: after runtime edge removals, live edge ids
    // can exceed the live-edge count.
    let mut edge_usage = vec![0u64; graph.edge_slots()];
    for &(s, t) in pairs {
        let nodes = route_nodes(s, t);
        for w in nodes.windows(2) {
            let edge = graph
                .find_edge(w[0], w[1])
                .unwrap_or_else(|| panic!("route uses non-edge {}-{}", w[0], w[1]));
            edge_usage[edge.index()] += 1;
        }
    }
    CongestionReport { edge_usage }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::one_destination_per_node;
    use disco_baselines::{S4Router, S4State, ShortestPathRouter, VrrRouter, VrrState};
    use disco_core::config::DiscoConfig;
    use disco_core::routing::DiscoRouter;
    use disco_core::static_state::DiscoState;
    use disco_graph::generators;

    #[test]
    fn total_usage_equals_total_hops() {
        let g = generators::gnm_average_degree(128, 8.0, 1);
        let router = ShortestPathRouter::new(&g);
        let pairs = one_destination_per_node(128, 1);
        let rep = measure(&g, &pairs, |s, t| router.route(s, t).nodes().to_vec());
        let total_usage: u64 = rep.edge_usage.iter().sum();
        let total_hops: usize = pairs
            .iter()
            .map(|&(s, t)| router.route(s, t).hop_count())
            .sum();
        assert_eq!(total_usage as usize, total_hops);
        assert!(rep.max() >= 1);
        assert!(rep.mean() > 0.0);
    }

    #[test]
    fn compact_schemes_stay_close_to_shortest_path_congestion() {
        let n = 256;
        let g = generators::gnm_average_degree(n, 8.0, 3);
        let cfg = DiscoConfig::seeded(3);
        let disco_state = DiscoState::build(&g, &cfg);
        let disco_router = DiscoRouter::new(&g, &disco_state);
        let sp_router = ShortestPathRouter::new(&g);
        let pairs = one_destination_per_node(n, 3);
        let disco = measure(&g, &pairs, |s, t| {
            disco_router.route_later_packet(s, t).nodes
        });
        let sp = measure(&g, &pairs, |s, t| sp_router.route(s, t).nodes().to_vec());
        // Disco's later-packet routes are at most 3x longer, so aggregate load is bounded
        // by a small factor of shortest-path load.
        let disco_total: u64 = disco.edge_usage.iter().sum();
        let sp_total: u64 = sp.edge_usage.iter().sum();
        assert!(disco_total as f64 <= 3.5 * sp_total as f64);
        assert!(disco.fraction_above(0) > 0.1);
    }

    #[test]
    fn vrr_congestion_is_heavier() {
        let n = 256;
        let g = generators::gnm_average_degree(n, 8.0, 5);
        let cfg = DiscoConfig::seeded(5);
        let vrr_state = VrrState::build(&g, &cfg);
        let s4_state = S4State::build(&g, &cfg);
        let vrr_router = VrrRouter::new(&g, &vrr_state);
        let s4_router = S4Router::new(&g, &s4_state);
        let pairs = one_destination_per_node(n, 5);
        let vrr = measure(&g, &pairs, |s, t| vrr_router.route(s, t).0);
        let s4 = measure(&g, &pairs, |s, t| s4_router.route_later_packet(s, t).0);
        // VRR's longer, identifier-chasing routes put more total load on
        // the network than S4's (Figs. 4–5 right).
        let vrr_total: u64 = vrr.edge_usage.iter().sum();
        let s4_total: u64 = s4.edge_usage.iter().sum();
        assert!(
            vrr_total > s4_total,
            "VRR total load {vrr_total} should exceed S4 {s4_total}"
        );
        assert!(vrr.max() >= s4.max() / 4);
    }
}
