//! Shortest paths: one search routine.
//!
//! [`search`] is Dijkstra from one or more sources. A [`Stop`] rule says
//! how far it goes:
//!
//! * [`Stop::All`] settles everything reachable: landmark trees (the
//!   `ℓ ; v` legs of routes and addresses), each node's closest landmark
//!   (one search from every landmark at once) and ground-truth distances
//!   for stretch;
//! * [`Stop::Settled`]`(k)` stops after the `k` closest nodes: the paper's
//!   vicinity `V(v)`, the `Θ(√(n log n))` nodes closest to `v`;
//! * [`Stop::Below`]`(b)` settles the nodes at distance strictly below `b`:
//!   S4's cluster balls.
//!
//! Ties are broken by node id so that vicinity membership, closest-landmark
//! assignment and every reconstructed path are deterministic:
//!
//! * nodes settle in (distance, node id) order, so a truncated search's
//!   settle order is a prefix of the full one;
//! * among equal-length ways to reach a node, the one from the lower
//!   source id wins, then the one through the lower parent id.
//!
//! [`dijkstra`] is the single-source full search. [`TreeCache`] keeps one
//! tree per source for routers that ask many questions of the same source.

use crate::fxhash::FxHashMap;
use crate::graph::{Graph, NodeId, Weight};
use crate::path::Path;
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Where a [`search`] stops.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stop {
    /// Settle every node reachable from the sources.
    All,
    /// Stop once this many nodes (sources included) are settled; at least
    /// one is.
    Settled(usize),
    /// Settle only the nodes at distance strictly below the bound.
    Below(Weight),
}

/// Queue entry, ordered as a min-heap on (distance, node id).
#[derive(Debug, Clone, Copy, PartialEq)]
struct QueueEntry {
    dist: Weight,
    node: NodeId,
}

impl Eq for QueueEntry {}

impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.0.cmp(&self.node.0))
    }
}

impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// `parent` of a source.
const NO_PARENT: u32 = u32::MAX;

/// A node's best way in so far: distance, the source it comes from and the
/// node it comes through. Final once `done`.
#[derive(Debug, Clone, Copy)]
struct Label {
    dist: Weight,
    source: u32,
    parent: u32,
    done: bool,
}

/// The result of a [`search`]: for every settled node, its distance from
/// the closest source, that source, and its predecessor on the way, in
/// space proportional to the nodes the search touched.
#[derive(Debug, Clone)]
pub struct ShortestPathTree {
    /// Settled and frontier nodes; only `done` labels are visible.
    labels: FxHashMap<NodeId, Label>,
    /// Nodes in the order they were settled.
    settled: Vec<NodeId>,
}

impl ShortestPathTree {
    fn label(&self, v: NodeId) -> Option<&Label> {
        self.labels.get(&v).filter(|l| l.done)
    }

    /// Distance from the closest source to `v`, if `v` was settled.
    pub fn distance(&self, v: NodeId) -> Option<Weight> {
        self.label(v).map(|l| l.dist)
    }

    /// The source `v` was reached from: the closest one, the lowest id
    /// among equally close ones.
    pub fn source_of(&self, v: NodeId) -> Option<NodeId> {
        self.label(v).map(|l| NodeId(l.source as usize))
    }

    /// Predecessor of `v` on its shortest path (`None` for a source).
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        self.label(v)
            .filter(|l| l.parent != NO_PARENT)
            .map(|l| NodeId(l.parent as usize))
    }

    /// Settled nodes in settle order: (distance, node id).
    pub fn settled_order(&self) -> &[NodeId] {
        &self.settled
    }

    /// The shortest path from `v`'s source to `v`, if `v` was settled.
    pub fn path_to(&self, v: NodeId) -> Option<Path> {
        self.label(v)?;
        let mut nodes = vec![v];
        let mut cur = v;
        while let Some(p) = self.parent(cur) {
            nodes.push(p);
            cur = p;
        }
        nodes.reverse();
        Some(Path::new(nodes))
    }
}

/// Dijkstra from every node of `sources` at once, up to `stop`. See the
/// module documentation for the settle order and the tie rules.
pub fn search(g: &Graph, sources: &[NodeId], stop: Stop) -> ShortestPathTree {
    let (limit, bound) = match stop {
        Stop::All => (usize::MAX, Weight::INFINITY),
        Stop::Settled(k) => (k.max(1), Weight::INFINITY),
        Stop::Below(b) => (usize::MAX, b),
    };
    let mut labels: FxHashMap<NodeId, Label> = FxHashMap::default();
    let mut settled = Vec::new();
    let mut heap = BinaryHeap::new();
    for &s in sources {
        let label = Label {
            dist: 0.0,
            source: s.0 as u32,
            parent: NO_PARENT,
            done: false,
        };
        labels.insert(s, label);
        heap.push(QueueEntry { dist: 0.0, node: s });
    }
    while let Some(QueueEntry { dist: d, node: v }) = heap.pop() {
        if d >= bound {
            break;
        }
        let label = labels.get_mut(&v).expect("queued nodes are labelled");
        if label.done {
            continue;
        }
        label.done = true;
        let source = label.source;
        settled.push(v);
        if settled.len() >= limit {
            break;
        }
        for nb in g.neighbors(v) {
            let nd = d + nb.weight;
            if nd >= bound {
                continue;
            }
            let offer = Label {
                dist: nd,
                source,
                parent: v.0 as u32,
                done: false,
            };
            let better = match labels.get(&nb.node) {
                None => true,
                Some(old) => {
                    !old.done
                        && (nd < old.dist
                            || (nd == old.dist
                                && (source, offer.parent) < (old.source, old.parent)))
                }
            };
            if better {
                labels.insert(nb.node, offer);
                heap.push(QueueEntry {
                    dist: nd,
                    node: nb.node,
                });
            }
        }
    }
    ShortestPathTree { labels, settled }
}

/// Full single-source shortest paths from `source`.
pub fn dijkstra(g: &Graph, source: NodeId) -> ShortestPathTree {
    search(g, &[source], Stop::All)
}

/// Shortest-path trees searched on first use and kept per source: the
/// cache behind every static router's ground truth and local legs.
pub struct TreeCache<'g> {
    graph: &'g Graph,
    /// The stop rule of the search from each source.
    stop: Box<dyn Fn(NodeId) -> Stop + 'g>,
    trees: RefCell<FxHashMap<NodeId, ShortestPathTree>>,
}

impl<'g> TreeCache<'g> {
    /// A cache whose tree from `s` is searched up to `stop(s)`.
    pub fn new(graph: &'g Graph, stop: impl Fn(NodeId) -> Stop + 'g) -> Self {
        TreeCache {
            graph,
            stop: Box::new(stop),
            trees: RefCell::new(FxHashMap::default()),
        }
    }

    /// A cache of full trees.
    pub fn full(graph: &'g Graph) -> Self {
        Self::new(graph, |_| Stop::All)
    }

    fn with<R>(&self, s: NodeId, f: impl FnOnce(&ShortestPathTree) -> R) -> R {
        let mut trees = self.trees.borrow_mut();
        let tree = trees
            .entry(s)
            .or_insert_with(|| search(self.graph, &[s], (self.stop)(s)));
        f(tree)
    }

    /// `d(s, t)`, if the tree from `s` settles `t`.
    pub fn distance(&self, s: NodeId, t: NodeId) -> Option<Weight> {
        if s == t {
            return Some(0.0);
        }
        self.with(s, |tree| tree.distance(t))
    }

    /// The shortest path `s ; t`, if the tree from `s` settles `t`.
    pub fn path(&self, s: NodeId, t: NodeId) -> Option<Path> {
        if s == t {
            return Some(Path::trivial(s));
        }
        self.with(s, |tree| tree.path_to(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::GraphBuilder;

    /// 0 -1- 1 -1- 2 -1- 3 and a shortcut 0 -2.5- 3
    fn diamond() -> Graph {
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId(0), NodeId(1), 1.0);
        b.add_edge(NodeId(1), NodeId(2), 1.0);
        b.add_edge(NodeId(2), NodeId(3), 1.0);
        b.add_edge(NodeId(0), NodeId(3), 2.5);
        b.build()
    }

    #[test]
    fn dijkstra_basic_distances() {
        let g = diamond();
        let t = dijkstra(&g, NodeId(0));
        assert_eq!(t.distance(NodeId(0)), Some(0.0));
        assert_eq!(t.distance(NodeId(1)), Some(1.0));
        assert_eq!(t.distance(NodeId(2)), Some(2.0));
        assert_eq!(t.distance(NodeId(3)), Some(2.5));
    }

    #[test]
    fn dijkstra_path_reconstruction() {
        let g = diamond();
        let t = dijkstra(&g, NodeId(0));
        let p = t.path_to(NodeId(2)).unwrap();
        assert_eq!(p.nodes(), &[NodeId(0), NodeId(1), NodeId(2)]);
        assert!(p.is_valid(&g));
        assert!((p.length(&g) - 2.0).abs() < 1e-12);
        // Direct heavier edge is the shortest way to 3.
        let p3 = t.path_to(NodeId(3)).unwrap();
        assert_eq!(p3.nodes(), &[NodeId(0), NodeId(3)]);
    }

    #[test]
    fn dijkstra_unreachable() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 1.0);
        let g = b.build();
        let t = dijkstra(&g, NodeId(0));
        assert!(t.distance(NodeId(2)).is_none());
        assert!(t.path_to(NodeId(2)).is_none());
        assert_eq!(t.settled_order().len(), 2);
    }

    #[test]
    fn k_nearest_settles_exactly_k() {
        let g = generators::gnm_connected(64, 256, 7);
        let k = 10;
        let t = search(&g, &[NodeId(0)], Stop::Settled(k));
        assert_eq!(t.settled_order().len(), k);
        assert_eq!(t.settled_order()[0], NodeId(0));
        // Settled order must be non-decreasing in distance.
        let dists: Vec<f64> = t
            .settled_order()
            .iter()
            .map(|&v| t.distance(v).unwrap())
            .collect();
        for w in dists.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
    }

    #[test]
    fn k_nearest_matches_full_dijkstra_prefix() {
        let g = generators::geometric_connected(128, 8.0, 3);
        let full = dijkstra(&g, NodeId(5));
        let trunc = search(&g, &[NodeId(5)], Stop::Settled(20));
        assert_eq!(trunc.settled_order(), &full.settled_order()[..20]);
        for &v in trunc.settled_order() {
            assert_eq!(trunc.distance(v), full.distance(v));
        }
    }

    #[test]
    fn multi_source_assigns_closest() {
        let g = diamond();
        let res = search(&g, &[NodeId(0), NodeId(3)], Stop::All);
        assert_eq!(res.source_of(NodeId(1)), Some(NodeId(0)));
        assert_eq!(res.source_of(NodeId(2)), Some(NodeId(3)));
        assert_eq!(res.distance(NodeId(2)), Some(1.0));
        assert_eq!(res.settled_order().len(), 4);
    }

    #[test]
    fn bounded_search_zero_bound_is_empty() {
        let g = generators::ring(10);
        let t = search(&g, &[NodeId(0)], Stop::Below(0.0));
        assert!(t.settled_order().is_empty());
        assert!(t.distance(NodeId(0)).is_none());
    }

    #[test]
    fn tree_cache_answers_from_one_tree_per_source() {
        let g = diamond();
        let full = TreeCache::full(&g);
        assert_eq!(full.distance(NodeId(0), NodeId(3)), Some(2.5));
        assert_eq!(full.distance(NodeId(2), NodeId(2)), Some(0.0));
        assert_eq!(
            full.path(NodeId(0), NodeId(2)).unwrap().nodes(),
            &[NodeId(0), NodeId(1), NodeId(2)]
        );
        let near = TreeCache::new(&g, |_| Stop::Settled(2));
        assert_eq!(near.distance(NodeId(0), NodeId(1)), Some(1.0));
        assert_eq!(near.distance(NodeId(0), NodeId(2)), None);
        assert!(near.path(NodeId(0), NodeId(3)).is_none());
    }
}
