//! Compact undirected weighted graph representation.
//!
//! The graph is stored as a flat adjacency list (CSR-like, but kept as
//! per-node `Vec`s for simplicity of incremental construction through
//! [`crate::GraphBuilder`]). Node identifiers are dense `usize` indices
//! wrapped in [`NodeId`]; the paper's *flat names* are a separate concept
//! layered on top by `disco-core` — a graph node never needs to know its
//! name.

use std::fmt;

/// Link weight (latency / cost). The paper uses unweighted Internet maps
/// (weight 1.0 per hop) and Euclidean latencies on geometric random graphs.
pub type Weight = f64;

/// Dense node identifier, `0..n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl NodeId {
    /// Underlying index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(v: usize) -> Self {
        NodeId(v)
    }
}

/// Dense edge identifier, `0..m`. Each undirected edge has a single id shared
/// by both endpoints; this is what congestion accounting keys on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub usize);

impl EdgeId {
    /// Underlying index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// One directed half of an undirected edge as seen from a node's adjacency
/// list.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// The node at the other end of the edge.
    pub node: NodeId,
    /// The undirected edge identifier.
    pub edge: EdgeId,
    /// Link weight.
    pub weight: Weight,
}

/// An undirected edge record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// One endpoint (the smaller index by construction in the builder).
    pub u: NodeId,
    /// The other endpoint.
    pub v: NodeId,
    /// Link weight.
    pub weight: Weight,
}

impl Edge {
    /// Given one endpoint, return the other. Panics if `x` is not an
    /// endpoint of this edge.
    pub fn other(&self, x: NodeId) -> NodeId {
        if x == self.u {
            self.v
        } else if x == self.v {
            self.u
        } else {
            panic!("node {x} is not an endpoint of edge {self:?}");
        }
    }
}

/// An undirected weighted graph with dense node ids.
///
/// Invariants maintained by [`crate::GraphBuilder`] and the mutation API:
/// * no self loops,
/// * no parallel edges,
/// * every weight is finite and strictly positive.
///
/// The graph is mutable at runtime to support dynamic-network simulation
/// (`disco-sim` topology events, `disco-dynamics` churn schedules): nodes
/// can be appended and edges inserted or removed. Removing an edge retires
/// its [`EdgeId`] permanently — ids are never reused, so congestion counters
/// and traces keyed by edge id stay unambiguous across topology changes.
/// A node is never deleted from the id space; "leaving" the network means
/// losing all incident edges (see [`Graph::detach_node`]).
#[derive(Debug, Clone)]
pub struct Graph {
    adjacency: Vec<Vec<Neighbor>>,
    edges: Vec<Edge>,
    /// Liveness per edge slot; `false` marks a removed (retired) edge.
    edge_live: Vec<bool>,
    dead_edges: usize,
}

impl Graph {
    /// Construct directly from parts. Intended for use by the builder; most
    /// callers should use [`crate::GraphBuilder`] or a generator.
    pub(crate) fn from_parts(adjacency: Vec<Vec<Neighbor>>, edges: Vec<Edge>) -> Self {
        let edge_live = vec![true; edges.len()];
        Graph {
            adjacency,
            edges,
            edge_live,
            dead_edges: 0,
        }
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of live undirected edges `m`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len() - self.dead_edges
    }

    /// Number of edge-id slots ever allocated (`max(EdgeId) + 1`). Arrays
    /// indexed by [`EdgeId`] must be sized by this, not [`Graph::edge_count`],
    /// once edges have been removed.
    #[inline]
    pub fn edge_slots(&self) -> usize {
        self.edges.len()
    }

    /// Iterator over all node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count()).map(NodeId)
    }

    /// Iterator over all live undirected edges.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &Edge)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.edge_live[i])
            .map(|(i, e)| (EdgeId(i), e))
    }

    /// Edge record by id. Retired edges keep their record (endpoints and
    /// weight at removal time); check [`Graph::edge_is_live`] when it matters.
    #[inline]
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.0]
    }

    /// Whether the edge slot `id` is currently part of the graph.
    #[inline]
    pub fn edge_is_live(&self, id: EdgeId) -> bool {
        self.edge_live[id.0]
    }

    /// Append a new isolated node, returning its id.
    pub fn add_node(&mut self) -> NodeId {
        self.adjacency.push(Vec::new());
        NodeId(self.adjacency.len() - 1)
    }

    /// Insert an undirected edge `{u, v}` with the given weight.
    ///
    /// Returns the new edge's id, or `None` if the edge is a self loop or
    /// already exists. Panics if an endpoint is out of range or the weight
    /// is not finite and positive — same contract as
    /// [`crate::GraphBuilder::add_edge`].
    pub fn insert_edge(&mut self, u: NodeId, v: NodeId, weight: Weight) -> Option<EdgeId> {
        let n = self.node_count();
        assert!(
            u.0 < n && v.0 < n,
            "edge endpoint out of range: {u} or {v} >= {n}"
        );
        assert!(
            weight.is_finite() && weight > 0.0,
            "edge weight must be finite and positive, got {weight}"
        );
        if u == v || self.has_edge(u, v) {
            return None;
        }
        let (a, b) = if u.0 <= v.0 { (u, v) } else { (v, u) };
        let id = EdgeId(self.edges.len());
        self.edges.push(Edge { u: a, v: b, weight });
        self.edge_live.push(true);
        for (from, to) in [(a, b), (b, a)] {
            let list = &mut self.adjacency[from.0];
            // Keep adjacency sorted by neighbor id (the builder's invariant,
            // which explicit-route interface indices depend on).
            let pos = list.partition_point(|nb| nb.node.0 < to.0);
            list.insert(
                pos,
                Neighbor {
                    node: to,
                    edge: id,
                    weight,
                },
            );
        }
        Some(id)
    }

    /// Remove the undirected edge `{u, v}`, retiring its id. Returns the
    /// retired id, or `None` if no such edge exists.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        let id = self.find_edge(u, v)?;
        for x in [u, v] {
            self.adjacency[x.0].retain(|nb| nb.edge != id);
        }
        self.edge_live[id.0] = false;
        self.dead_edges += 1;
        Some(id)
    }

    /// Remove every edge incident to `v` (a node leaving the network),
    /// returning its former neighbors with the lost link weights.
    pub fn detach_node(&mut self, v: NodeId) -> Vec<(NodeId, Weight)> {
        let former: Vec<(NodeId, Weight)> = self.adjacency[v.0]
            .iter()
            .map(|nb| (nb.node, nb.weight))
            .collect();
        for &(peer, _) in &former {
            self.remove_edge(v, peer);
        }
        former
    }

    /// Neighbors of `v` (the node's adjacency list).
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[Neighbor] {
        &self.adjacency[v.0]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.adjacency[v.0].len()
    }

    /// Whether an edge between `u` and `v` exists; linear in `min(deg)`.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.adjacency[a.0].iter().any(|nb| nb.node == b)
    }

    /// Find the undirected edge id between `u` and `v`, if any.
    pub fn find_edge(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        self.adjacency[u.0]
            .iter()
            .find(|nb| nb.node == v)
            .map(|nb| nb.edge)
    }

    /// Weight of the edge between `u` and `v`, if any.
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<Weight> {
        self.adjacency[u.0]
            .iter()
            .find(|nb| nb.node == v)
            .map(|nb| nb.weight)
    }

    /// Maximum degree over all nodes (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.adjacency.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Average degree `2m / n` (0 for the empty graph).
    pub fn average_degree(&self) -> f64 {
        if self.node_count() == 0 {
            0.0
        } else {
            2.0 * self.edge_count() as f64 / self.node_count() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn triangle() -> Graph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 1.0);
        b.add_edge(NodeId(1), NodeId(2), 2.0);
        b.add_edge(NodeId(2), NodeId(0), 3.0);
        b.build()
    }

    #[test]
    fn counts() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.max_degree(), 2);
        assert!((g.average_degree() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn adjacency_is_symmetric() {
        let g = triangle();
        for (_, e) in g.edges() {
            assert!(g.has_edge(e.u, e.v));
            assert!(g.has_edge(e.v, e.u));
        }
    }

    #[test]
    fn edge_lookup_and_weight() {
        let g = triangle();
        assert_eq!(g.edge_weight(NodeId(1), NodeId(2)), Some(2.0));
        assert_eq!(g.edge_weight(NodeId(2), NodeId(1)), Some(2.0));
        assert_eq!(g.edge_weight(NodeId(0), NodeId(0)), None);
        let id = g.find_edge(NodeId(0), NodeId(2)).unwrap();
        assert_eq!(g.edge(id).weight, 3.0);
    }

    #[test]
    fn edge_other_endpoint() {
        let g = triangle();
        let (_, e) = g.edges().next().unwrap();
        assert_eq!(e.other(e.u), e.v);
        assert_eq!(e.other(e.v), e.u);
    }

    #[test]
    #[should_panic]
    fn edge_other_panics_for_non_endpoint() {
        let e = Edge {
            u: NodeId(0),
            v: NodeId(1),
            weight: 1.0,
        };
        let _ = e.other(NodeId(5));
    }

    #[test]
    fn display_formats() {
        assert_eq!(NodeId(7).to_string(), "n7");
        assert_eq!(EdgeId(3).to_string(), "e3");
    }

    #[test]
    fn insert_edge_keeps_adjacency_sorted() {
        let mut g = triangle();
        let d = g.add_node();
        assert_eq!(d, NodeId(3));
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.degree(d), 0);
        let id = g.insert_edge(d, NodeId(0), 2.5).unwrap();
        assert!(g.edge_is_live(id));
        assert_eq!(g.edge_weight(NodeId(0), d), Some(2.5));
        let ids: Vec<usize> = g.neighbors(NodeId(0)).iter().map(|nb| nb.node.0).collect();
        assert_eq!(ids, vec![1, 2, 3]);
        // Self loops and duplicates are rejected without panicking.
        assert_eq!(g.insert_edge(d, d, 1.0), None);
        assert_eq!(g.insert_edge(NodeId(0), d, 9.0), None);
        assert_eq!(g.edge_weight(NodeId(0), d), Some(2.5));
    }

    #[test]
    fn remove_edge_retires_id() {
        let mut g = triangle();
        let id = g.find_edge(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(g.remove_edge(NodeId(1), NodeId(0)), Some(id));
        assert!(!g.edge_is_live(id));
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.edge_slots(), 3);
        assert!(!g.has_edge(NodeId(0), NodeId(1)));
        assert_eq!(g.remove_edge(NodeId(0), NodeId(1)), None);
        assert!(g.edges().all(|(eid, _)| eid != id));
        // Re-inserting the same endpoints allocates a fresh id.
        let id2 = g.insert_edge(NodeId(0), NodeId(1), 4.0).unwrap();
        assert_ne!(id, id2);
        assert_eq!(g.edge_weight(NodeId(0), NodeId(1)), Some(4.0));
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.edge_slots(), 4);
    }

    #[test]
    fn detach_node_drops_all_links() {
        let mut g = triangle();
        let former = g.detach_node(NodeId(2));
        assert_eq!(former, vec![(NodeId(0), 3.0), (NodeId(1), 2.0)]);
        assert_eq!(g.degree(NodeId(2)), 0);
        assert_eq!(g.edge_count(), 1);
        assert!(g.has_edge(NodeId(0), NodeId(1)));
        assert!(g.detach_node(NodeId(2)).is_empty());
    }
}
