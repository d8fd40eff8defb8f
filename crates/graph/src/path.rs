//! Paths through a graph and their lengths.

use crate::graph::{Graph, NodeId, Weight};

/// A walk through the graph given as the sequence of visited nodes
/// (`source` first, `destination` last). A single-node path represents a
/// node routing to itself and has length 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Path {
    nodes: Vec<NodeId>,
}

impl Path {
    /// Create a path from the node sequence. Panics if empty.
    pub fn new(nodes: Vec<NodeId>) -> Self {
        assert!(!nodes.is_empty(), "a path must contain at least one node");
        Path { nodes }
    }

    /// The trivial path containing a single node.
    pub fn trivial(v: NodeId) -> Self {
        Path { nodes: vec![v] }
    }

    /// First node of the path.
    pub fn source(&self) -> NodeId {
        *self.nodes.first().unwrap()
    }

    /// Last node of the path.
    pub fn destination(&self) -> NodeId {
        *self.nodes.last().unwrap()
    }

    /// The node sequence.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Number of hops (edges) in the path.
    pub fn hop_count(&self) -> usize {
        self.nodes.len() - 1
    }

    /// Whether every consecutive pair of nodes is connected by an edge in
    /// `g`. Used by tests and the simulators' sanity checks.
    pub fn is_valid(&self, g: &Graph) -> bool {
        self.nodes.windows(2).all(|w| g.has_edge(w[0], w[1]))
    }

    /// Total weight of the path in `g`. Panics if the path is not valid.
    pub fn length(&self, g: &Graph) -> Weight {
        self.nodes
            .windows(2)
            .map(|w| {
                g.edge_weight(w[0], w[1])
                    .unwrap_or_else(|| panic!("path uses non-existent edge {}-{}", w[0], w[1]))
            })
            .sum()
    }

    /// Concatenate `self` with `other`; `other` must start where `self`
    /// ends. The joint node is not duplicated.
    pub fn concat(&self, other: &Path) -> Path {
        assert_eq!(
            self.destination(),
            other.source(),
            "cannot concatenate paths: {} != {}",
            self.destination(),
            other.source()
        );
        let mut nodes = self.nodes.clone();
        nodes.extend_from_slice(&other.nodes[1..]);
        Path { nodes }
    }

    /// The reversed path (destination becomes source). Valid because the
    /// graphs in this reproduction are undirected.
    pub fn reversed(&self) -> Path {
        let mut nodes = self.nodes.clone();
        nodes.reverse();
        Path { nodes }
    }

    /// Sub-path from the first occurrence of `from` to the first occurrence
    /// of `to` at or after it, if both appear in that order.
    pub fn subpath(&self, from: NodeId, to: NodeId) -> Option<Path> {
        let i = self.nodes.iter().position(|&x| x == from)?;
        let j = self.nodes[i..].iter().position(|&x| x == to)? + i;
        Some(Path {
            nodes: self.nodes[i..=j].to_vec(),
        })
    }

    /// Iterator over the (undirected) edges of the path as node pairs.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes.windows(2).map(|w| (w[0], w[1]))
    }

    /// Whether the path visits any node more than once.
    pub fn has_loop(&self) -> bool {
        let mut seen = std::collections::HashSet::with_capacity(self.nodes.len());
        self.nodes.iter().any(|v| !seen.insert(*v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn line4() -> Graph {
        // 0 -1- 1 -2- 2 -3- 3
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId(0), NodeId(1), 1.0);
        b.add_edge(NodeId(1), NodeId(2), 2.0);
        b.add_edge(NodeId(2), NodeId(3), 3.0);
        b.build()
    }

    #[test]
    fn length_and_hops() {
        let g = line4();
        let p = Path::new(vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
        assert_eq!(p.hop_count(), 3);
        assert!((p.length(&g) - 6.0).abs() < 1e-12);
        assert!(p.is_valid(&g));
    }

    #[test]
    fn trivial_path() {
        let g = line4();
        let p = Path::trivial(NodeId(2));
        assert_eq!(p.hop_count(), 0);
        assert_eq!(p.length(&g), 0.0);
        assert_eq!(p.source(), p.destination());
        assert!(p.is_valid(&g));
    }

    #[test]
    fn invalid_path_detected() {
        let g = line4();
        let p = Path::new(vec![NodeId(0), NodeId(3)]);
        assert!(!p.is_valid(&g));
    }

    #[test]
    fn concat_joins_at_shared_node() {
        let a = Path::new(vec![NodeId(0), NodeId(1), NodeId(2)]);
        let b = Path::new(vec![NodeId(2), NodeId(3)]);
        let c = a.concat(&b);
        assert_eq!(c.nodes(), &[NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    #[should_panic]
    fn concat_requires_shared_node() {
        let a = Path::new(vec![NodeId(0), NodeId(1)]);
        let b = Path::new(vec![NodeId(2), NodeId(3)]);
        let _ = a.concat(&b);
    }

    #[test]
    fn reversed() {
        let p = Path::new(vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(p.reversed().nodes(), &[NodeId(2), NodeId(1), NodeId(0)]);
    }

    #[test]
    fn subpath() {
        let p = Path::new(vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
        let s = p.subpath(NodeId(1), NodeId(3)).unwrap();
        assert_eq!(s.nodes(), &[NodeId(1), NodeId(2), NodeId(3)]);
        assert!(p.subpath(NodeId(3), NodeId(1)).is_none());
    }

    #[test]
    fn loop_detection() {
        let p = Path::new(vec![NodeId(0), NodeId(1), NodeId(0)]);
        assert!(p.has_loop());
        let q = Path::new(vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert!(!q.has_loop());
    }
}
