//! Connectivity of a graph, as the generators and experiments check it.

use crate::graph::{Graph, NodeId};
use std::collections::VecDeque;

/// Whether the graph is connected (the empty graph counts as connected).
pub fn is_connected(g: &Graph) -> bool {
    connected_components(g).len() <= 1
}

/// Connected components as lists of node ids; each list is sorted, and the
/// components are returned in order of their smallest node id.
pub fn connected_components(g: &Graph) -> Vec<Vec<NodeId>> {
    let n = g.node_count();
    let mut comp = vec![usize::MAX; n];
    let mut out: Vec<Vec<NodeId>> = Vec::new();
    for start in 0..n {
        if comp[start] != usize::MAX {
            continue;
        }
        let c = out.len();
        let mut members = Vec::new();
        let mut queue = VecDeque::new();
        queue.push_back(NodeId(start));
        comp[start] = c;
        while let Some(v) = queue.pop_front() {
            members.push(v);
            for nb in g.neighbors(v) {
                if comp[nb.node.0] == usize::MAX {
                    comp[nb.node.0] = c;
                    queue.push_back(nb.node);
                }
            }
        }
        members.sort();
        out.push(members);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::GraphBuilder;

    #[test]
    fn components_of_disconnected_graph() {
        let mut b = GraphBuilder::new(5);
        b.add_unit_edge(NodeId(0), NodeId(1));
        b.add_unit_edge(NodeId(2), NodeId(3));
        let g = b.build();
        let comps = connected_components(&g);
        assert_eq!(comps.len(), 3);
        assert_eq!(comps[0], vec![NodeId(0), NodeId(1)]);
        assert_eq!(comps[1], vec![NodeId(2), NodeId(3)]);
        assert_eq!(comps[2], vec![NodeId(4)]);
        assert!(!is_connected(&g));
    }

    #[test]
    fn connected_graph_has_one_component() {
        let g = generators::ring(20);
        assert!(is_connected(&g));
        assert_eq!(connected_components(&g).len(), 1);
    }
}
