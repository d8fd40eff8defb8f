//! Shortest-path / path-vector routing baseline.
//!
//! Classic routing protocols (link state, distance vector, path vector)
//! give optimal routes but require `Θ(n)` routing-table entries per node and
//! at least as much communication to build them (paper §1). This module
//! provides the converged view of such a protocol — the yardstick against
//! which the compact schemes' state, congestion (Figs. 4, 5, 10) and
//! messaging (Fig. 8) are compared. The distributed message exchange itself
//! is `disco_core::path_vector` with [`TableLimit::Unlimited`]
//! (re-exported here for convenience).

pub use disco_core::path_vector::TableLimit;
use disco_graph::{Graph, NodeId, Path, TreeCache, Weight};

/// Converged shortest-path routing state (conceptually, every node's full
/// routing table; materialised lazily per source).
#[derive(Debug, Clone, Default)]
pub struct ShortestPathState {
    n: usize,
}

impl ShortestPathState {
    /// "Build" the converged state (records only the network size; tables
    /// are derived on demand).
    pub fn build(graph: &Graph) -> Self {
        ShortestPathState {
            n: graph.node_count(),
        }
    }

    /// Routing-table entries per node: one per destination.
    pub fn state_entries(&self, _v: NodeId) -> usize {
        self.n.saturating_sub(1)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }
}

/// Router producing true shortest paths (stretch 1 by construction).
pub struct ShortestPathRouter<'a> {
    trees: TreeCache<'a>,
}

impl<'a> ShortestPathRouter<'a> {
    /// A router over `graph`.
    pub fn new(graph: &'a Graph) -> Self {
        ShortestPathRouter {
            trees: TreeCache::full(graph),
        }
    }

    /// Shortest-path distance between two nodes.
    pub fn distance(&self, s: NodeId, t: NodeId) -> Weight {
        self.trees.distance(s, t).expect("connected graph")
    }

    /// The route taken: the shortest path itself.
    pub fn route(&self, s: NodeId, t: NodeId) -> Path {
        self.trees.path(s, t).expect("connected graph")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disco_graph::generators;

    #[test]
    fn state_is_n_minus_one_entries() {
        let g = generators::gnm_connected(100, 400, 1);
        let st = ShortestPathState::build(&g);
        assert_eq!(st.node_count(), 100);
        assert_eq!(st.state_entries(NodeId(5)), 99);
    }

    #[test]
    fn routes_are_shortest() {
        let g = generators::geometric_connected(200, 8.0, 2);
        let router = ShortestPathRouter::new(&g);
        for s in (0..200).step_by(29) {
            for t in (0..200).step_by(37) {
                let p = router.route(NodeId(s), NodeId(t));
                assert_eq!(p.source(), NodeId(s));
                assert_eq!(p.destination(), NodeId(t));
                assert!((p.length(&g) - router.distance(NodeId(s), NodeId(t))).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn distance_is_symmetric() {
        let g = generators::gnm_connected(80, 320, 3);
        let router = ShortestPathRouter::new(&g);
        for s in (0..80).step_by(9) {
            for t in (0..80).step_by(11) {
                assert!(
                    (router.distance(NodeId(s), NodeId(t)) - router.distance(NodeId(t), NodeId(s)))
                        .abs()
                        < 1e-9
                );
            }
        }
    }
}
