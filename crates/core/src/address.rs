//! Node addresses (paper §4.2).
//!
//! The address of node `v` is the identifier of its closest landmark `ℓ_v`
//! paired with the information needed to forward along `ℓ_v ; v` — an
//! explicit route of compact per-hop labels ([`crate::label`]). Addresses
//! are location-*dependent*, but they are used only internally by the
//! protocol and are dynamically updated as the topology changes; the
//! externally visible identifier of a node remains its flat name.

use crate::label::ExplicitRoute;
use disco_graph::{Graph, NodeId, Path};

/// How many bytes a node identifier occupies on the wire when computing
/// address / routing-table sizes. The paper's Table 7 reports both an
/// IPv4-sized (4-byte) and an IPv6-sized (16-byte) identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdentifierSize {
    /// 4-byte identifiers (IPv4-sized).
    V4,
    /// 16-byte identifiers (IPv6-sized).
    V6,
}

impl IdentifierSize {
    /// Bytes per node identifier.
    pub fn bytes(self) -> usize {
        match self {
            IdentifierSize::V4 => 4,
            IdentifierSize::V6 => 16,
        }
    }
}

/// The routing address of a node: its closest landmark plus the explicit
/// route from that landmark to the node.
#[derive(Debug, Clone, PartialEq)]
pub struct Address {
    /// The node this address belongs to.
    pub node: NodeId,
    /// The node's closest landmark `ℓ_v`.
    pub landmark: NodeId,
    /// Distance `d(ℓ_v, v)` along the embedded route.
    pub landmark_distance: f64,
    /// Explicit route `ℓ_v ; v` as compact per-hop labels.
    pub route: ExplicitRoute,
}

impl Address {
    /// Build the address of `node` given the shortest path from its closest
    /// landmark (`path` must run landmark → node).
    pub fn from_landmark_path(g: &Graph, node: NodeId, path: &Path) -> Self {
        assert_eq!(
            path.destination(),
            node,
            "address path must end at the node"
        );
        Address {
            node,
            landmark: path.source(),
            landmark_distance: path.length(g),
            route: ExplicitRoute::from_path(g, path),
        }
    }

    /// Address of a landmark itself: the empty route.
    pub fn landmark_self(node: NodeId) -> Self {
        Address {
            node,
            landmark: node,
            landmark_distance: 0.0,
            route: ExplicitRoute::empty(node),
        }
    }

    /// The explicit route expanded back to a node path (landmark → node).
    pub fn route_path(&self, g: &Graph) -> Option<Path> {
        self.route.to_path(g)
    }

    /// Size of the address in bytes: one node identifier for the landmark
    /// plus the compact explicit route. This is the quantity the paper
    /// measures in §4.2 (mean 2.93 B for the route part on the router-level
    /// map) and uses in Table 7's byte accounting.
    pub fn size_bytes(&self, g: &Graph, id_size: IdentifierSize) -> usize {
        id_size.bytes() + self.route.encoded_bytes(g)
    }

    /// Size of only the explicit-route part in bytes.
    pub fn route_bytes(&self, g: &Graph) -> usize {
        self.route.encoded_bytes(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disco_graph::{generators, shortest_path};

    #[test]
    fn identifier_sizes() {
        assert_eq!(IdentifierSize::V4.bytes(), 4);
        assert_eq!(IdentifierSize::V6.bytes(), 16);
    }

    #[test]
    fn address_from_path_roundtrips() {
        let g = generators::gnm_connected(100, 400, 3);
        let landmark = NodeId(7);
        let spt = shortest_path::dijkstra(&g, landmark);
        let node = NodeId(42);
        let path = spt.path_to(node).unwrap();
        let addr = Address::from_landmark_path(&g, node, &path);
        assert_eq!(addr.landmark, landmark);
        assert_eq!(addr.node, node);
        assert!((addr.landmark_distance - path.length(&g)).abs() < 1e-9);
        assert_eq!(addr.route_path(&g).unwrap(), path);
        assert!(addr.size_bytes(&g, IdentifierSize::V4) >= 4);
        assert_eq!(
            addr.size_bytes(&g, IdentifierSize::V6) - addr.size_bytes(&g, IdentifierSize::V4),
            12
        );
    }

    #[test]
    fn landmark_self_address_is_empty() {
        let g = generators::ring(8);
        let addr = Address::landmark_self(NodeId(3));
        assert_eq!(addr.landmark, NodeId(3));
        assert_eq!(addr.landmark_distance, 0.0);
        assert_eq!(addr.route_bytes(&g), 0);
        assert_eq!(addr.size_bytes(&g, IdentifierSize::V4), 4);
    }

    #[test]
    #[should_panic]
    fn address_path_must_end_at_node() {
        let g = generators::ring(8);
        let spt = shortest_path::dijkstra(&g, NodeId(0));
        let path = spt.path_to(NodeId(3)).unwrap();
        // Claiming this is the address of node 5 is a bug.
        let _ = Address::from_landmark_path(&g, NodeId(5), &path);
    }
}
