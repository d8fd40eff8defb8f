//! S4: Small State and Small Stretch routing (Mao et al., NSDI 2007),
//! as evaluated by the Disco paper (§4.2 "Comparison with S4", §5).
//!
//! S4 is a distributed adaptation of the Thorup–Zwick *cluster* scheme:
//!
//! * landmarks are selected uniformly at random (same rule as Disco), and
//!   the landmark trees are Disco's own [`LandmarkForest`] build,
//! * every node `v` knows shortest paths to all landmarks and to its
//!   **cluster** `C(v) = { w : d(v, w) < d(w, ℓ_w) }` — all nodes closer to
//!   `v` than to their own closest landmark,
//! * the address of `w` is its closest landmark `ℓ_w`; a consistent-hashing
//!   *location directory* over the landmarks maps flat names to addresses,
//! * **later packets**: if `t ∈ C(s)` (or `t` is a landmark) route
//!   directly, otherwise route `s ; ℓ_t ; t` — worst-case stretch 3,
//!   because `t ∉ C(s)` implies `d(t, ℓ_t) ≤ d(s, t)`,
//! * **first packet**: `s` does not know `ℓ_t`, so the packet detours via
//!   the directory landmark that owns `h(t)` — with *no* bound on stretch,
//! * "To-Destination" shortcutting: any node on the way that has `t` in its
//!   cluster routes directly to it.
//!
//! The crucial difference from Disco: clusters have no size cap, so a node
//! that is "central" (close to many nodes that are far from their own
//! landmarks) accumulates `Θ(n)` entries — the paper's footnote-6 tree and
//! its Fig. 2 Internet topologies both show this, and both are reproduced
//! in this crate's tests and in `paper fig02_state_cdf` / `paper fig07_state_bytes`.

use disco_core::config::DiscoConfig;
use disco_core::hash::NameHasher;
use disco_core::landmark::{self, LandmarkForest};
use disco_core::name::FlatName;
use disco_graph::{search, Graph, NodeId, Path, Stop, TreeCache, Weight};
use std::collections::HashMap;

/// Post-convergence S4 state for an entire network.
#[derive(Debug, Clone)]
pub struct S4State {
    /// Landmarks, closest landmarks and the landmark trees.
    forest: LandmarkForest,
    /// Cluster of each node: destination → distance.
    clusters: Vec<HashMap<NodeId, Weight>>,
    /// Directory owner (by consistent hashing over landmark ids) per node.
    directory_owner: Vec<NodeId>,
    names: Vec<FlatName>,
}

impl S4State {
    /// Build converged S4 state. Uses the same landmark election as Disco
    /// (so comparisons share the landmark set) and synthetic flat names.
    pub fn build(graph: &Graph, cfg: &DiscoConfig) -> Self {
        let n = graph.node_count();
        assert!(n >= 2);
        let names: Vec<FlatName> = (0..n).map(FlatName::synthetic).collect();
        let forest = LandmarkForest::build(graph, landmark::select_landmarks(n, cfg));

        // Clusters: for every w, all nodes strictly closer to w than w's own
        // landmark get w in their cluster. One bounded search per node.
        let mut clusters: Vec<HashMap<NodeId, Weight>> = vec![HashMap::new(); n];
        for w in graph.nodes() {
            let bound = forest.closest_distance(w);
            if bound <= 0.0 {
                continue; // w is a landmark; nobody clusters it
            }
            let ball = search(graph, &[w], Stop::Below(bound));
            for &v in ball.settled_order() {
                if v != w {
                    clusters[v.0].insert(w, ball.distance(v).unwrap());
                }
            }
        }

        // Location directory: consistent hashing of names onto landmarks.
        let hasher = NameHasher::new(cfg.seed ^ 0x54);
        let mut directory_owner = vec![NodeId(0); n];
        for v in graph.nodes() {
            let h = hasher.hash_name(&names[v.0]);
            let owner = forest
                .landmarks()
                .iter()
                .min_by_key(|&&lm| h.clockwise_distance(hasher.hash_u64(lm.0 as u64)))
                .copied()
                .unwrap();
            directory_owner[v.0] = owner;
        }

        S4State {
            forest,
            clusters,
            directory_owner,
            names,
        }
    }

    /// The landmarks, each node's closest one and the landmark trees.
    pub fn forest(&self) -> &LandmarkForest {
        &self.forest
    }

    /// The landmark set.
    pub fn landmarks(&self) -> &[NodeId] {
        self.forest.landmarks()
    }

    /// Whether `v` is a landmark.
    pub fn is_landmark(&self, v: NodeId) -> bool {
        self.forest.is_landmark(v)
    }

    /// `v`'s cluster (destination → distance).
    pub fn cluster(&self, v: NodeId) -> &HashMap<NodeId, Weight> {
        &self.clusters[v.0]
    }

    /// Flat name of `v`.
    pub fn name_of(&self, v: NodeId) -> &FlatName {
        &self.names[v.0]
    }

    /// The directory landmark that stores `v`'s location.
    pub fn directory_owner(&self, v: NodeId) -> NodeId {
        self.directory_owner[v.0]
    }

    /// Number of directory entries stored at landmark `lm`.
    pub fn directory_entries_at(&self, lm: NodeId) -> usize {
        self.directory_owner.iter().filter(|&&o| o == lm).count()
    }

    /// Data-plane routing-table entries at node `v`: landmark routes,
    /// cluster routes and (for landmarks) the directory shard.
    pub fn state_entries(&self, v: NodeId) -> usize {
        let mut total = self.landmarks().len() + self.clusters[v.0].len();
        if self.is_landmark(v) {
            total += self.directory_entries_at(v);
        }
        total
    }
}

/// Router over converged S4 state.
pub struct S4Router<'a> {
    graph: &'a Graph,
    state: &'a S4State,
    /// Full trees per source: cluster paths and ground truth.
    trees: TreeCache<'a>,
}

impl<'a> S4Router<'a> {
    /// Create a router over `graph` and converged `state`.
    pub fn new(graph: &'a Graph, state: &'a S4State) -> Self {
        S4Router {
            graph,
            state,
            trees: TreeCache::full(graph),
        }
    }

    /// The converged state.
    pub fn state(&self) -> &S4State {
        self.state
    }

    /// Ground-truth shortest distance.
    pub fn true_distance(&self, s: NodeId, t: NodeId) -> Weight {
        self.trees.distance(s, t).expect("connected graph")
    }

    fn shortest_path(&self, s: NodeId, t: NodeId) -> Path {
        self.trees.path(s, t).expect("connected graph")
    }

    /// Apply S4's To-Destination shortcutting to a node sequence.
    fn shortcut_to_destination(&self, nodes: Vec<NodeId>) -> Vec<NodeId> {
        let t = *nodes.last().unwrap();
        for (i, &u) in nodes.iter().enumerate() {
            if u == t {
                return nodes[..=i].to_vec();
            }
            if self.state.cluster(u).contains_key(&t) || self.state.is_landmark(t) {
                let tail = self.shortest_path(u, t);
                let mut out = nodes[..i].to_vec();
                out.extend_from_slice(tail.nodes());
                return out;
            }
        }
        nodes
    }

    fn finish(&self, nodes: Vec<NodeId>) -> (Vec<NodeId>, Weight) {
        let nodes = self.shortcut_to_destination(nodes);
        let len = if nodes.len() < 2 {
            0.0
        } else {
            Path::new(nodes.clone()).length(self.graph)
        };
        (nodes, len)
    }

    /// Later-packet route (the sender has cached `ℓ_t`): worst-case
    /// stretch 3. Returns (node sequence, length).
    pub fn route_later_packet(&self, s: NodeId, t: NodeId) -> (Vec<NodeId>, Weight) {
        if s == t {
            return (vec![s], 0.0);
        }
        if self.state.is_landmark(t) || self.state.cluster(s).contains_key(&t) {
            let p = self.shortest_path(s, t);
            let len = p.length(self.graph);
            return (p.nodes().to_vec(), len);
        }
        let forest = self.state.forest();
        let lm = forest.closest(t);
        let to_lm = forest.path_up(s, lm);
        let tail = forest.path(lm, t);
        let mut nodes = to_lm.nodes().to_vec();
        nodes.extend_from_slice(&tail.nodes()[1..]);
        self.finish(nodes)
    }

    /// First-packet route: the packet detours via the directory landmark
    /// that stores `t`'s location, so stretch is unbounded. Returns
    /// (node sequence, length).
    pub fn route_first_packet(&self, s: NodeId, t: NodeId) -> (Vec<NodeId>, Weight) {
        if s == t {
            return (vec![s], 0.0);
        }
        if self.state.is_landmark(t) || self.state.cluster(s).contains_key(&t) {
            return self.route_later_packet(s, t);
        }
        let forest = self.state.forest();
        let dir = self.state.directory_owner(t);
        let lm = forest.closest(t);
        let to_dir = forest.path_up(s, dir);
        // Directory landmark forwards toward ℓ_t, then ℓ_t delivers.
        let dir_to_lm = forest.path_up(dir, lm);
        let tail = forest.path(lm, t);
        let mut nodes = to_dir.nodes().to_vec();
        nodes.extend_from_slice(&dir_to_lm.nodes()[1..]);
        nodes.extend_from_slice(&tail.nodes()[1..]);
        self.finish(nodes)
    }

    /// First-packet stretch for a pair.
    pub fn first_packet_stretch(&self, s: NodeId, t: NodeId) -> f64 {
        let d = self.true_distance(s, t);
        let (_, len) = self.route_first_packet(s, t);
        if d <= 0.0 {
            1.0
        } else {
            len / d
        }
    }

    /// Later-packet stretch for a pair.
    pub fn later_packet_stretch(&self, s: NodeId, t: NodeId) -> f64 {
        let d = self.true_distance(s, t);
        let (_, len) = self.route_later_packet(s, t);
        if d <= 0.0 {
            1.0
        } else {
            len / d
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disco_graph::{dijkstra, generators};

    fn setup(n: usize, seed: u64) -> (Graph, S4State) {
        let g = generators::gnm_average_degree(n, 8.0, seed);
        let st = S4State::build(&g, &DiscoConfig::seeded(seed));
        (g, st)
    }

    #[test]
    fn cluster_definition_holds() {
        let (g, st) = setup(128, 1);
        // Spot-check: w ∈ C(v) iff d(v,w) < d(w, ℓ_w).
        for v in g.nodes().step_by(11) {
            let tree = dijkstra(&g, v);
            for w in g.nodes() {
                if w == v {
                    continue;
                }
                let expected = tree.distance(w).unwrap() < st.forest().closest_distance(w) - 1e-12;
                assert_eq!(st.cluster(v).contains_key(&w), expected, "v={v} w={w}");
            }
        }
    }

    #[test]
    fn later_packet_stretch_at_most_3() {
        let (g, st) = setup(256, 2);
        let router = S4Router::new(&g, &st);
        for s in (0..256).step_by(17) {
            for t in (0..256).step_by(23) {
                if s == t {
                    continue;
                }
                let stretch = router.later_packet_stretch(NodeId(s), NodeId(t));
                assert!(stretch <= 3.0 + 1e-9, "stretch {stretch} for {s}->{t}");
            }
        }
    }

    #[test]
    fn first_packet_can_exceed_later_packet_stretch() {
        let (g, st) = setup(256, 3);
        let router = S4Router::new(&g, &st);
        let mut any_worse = false;
        let mut max_first: f64 = 0.0;
        for s in (0..256).step_by(7) {
            for t in (0..256).step_by(13) {
                if s == t {
                    continue;
                }
                let f = router.first_packet_stretch(NodeId(s), NodeId(t));
                let l = router.later_packet_stretch(NodeId(s), NodeId(t));
                assert!(f >= 1.0 - 1e-9 && l >= 1.0 - 1e-9);
                max_first = max_first.max(f);
                if f > l + 1e-9 {
                    any_worse = true;
                }
            }
        }
        assert!(
            any_worse,
            "the directory detour should hurt some first packets"
        );
        assert!(max_first > 1.5, "max first-packet stretch {max_first}");
    }

    #[test]
    fn routes_are_valid_and_end_at_destination() {
        let (g, st) = setup(200, 4);
        let router = S4Router::new(&g, &st);
        for s in (0..200).step_by(31) {
            for t in (0..200).step_by(41) {
                for (nodes, len) in [
                    router.route_first_packet(NodeId(s), NodeId(t)),
                    router.route_later_packet(NodeId(s), NodeId(t)),
                ] {
                    assert_eq!(nodes.first(), Some(&NodeId(s)));
                    assert_eq!(nodes.last(), Some(&NodeId(t)));
                    for w in nodes.windows(2) {
                        assert!(g.has_edge(w[0], w[1]));
                    }
                    assert!(len >= router.true_distance(NodeId(s), NodeId(t)) - 1e-9);
                }
            }
        }
    }

    #[test]
    fn adversarial_tree_explodes_root_cluster() {
        // The paper's footnote-6 construction: S4's root cluster grows to
        // Θ(n) while Disco's vicinity stays at O(√(n log n)).
        let branch = 24; // n = 1 + 24 + 576 = 601
        let g = generators::s4_adversarial_tree(branch);
        let cfg = DiscoConfig::seeded(5);
        let s4 = S4State::build(&g, &cfg);
        let disco = disco_core::static_state::DiscoState::build(&g, &cfg);
        let n = g.node_count();

        let s4_root_entries = s4.state_entries(NodeId(0));
        let breakdown = disco.state_breakdown(&g, NodeId(0));
        // The S4 root stores a constant fraction of all grandchildren.
        assert!(
            s4_root_entries > n / 3,
            "S4 root has only {s4_root_entries} entries for n={n}"
        );
        // Disco's root stays within a small multiple of √(n log n).
        let bound = 8.0 * ((n as f64) * (n as f64).ln()).sqrt();
        assert!(
            (breakdown.disco_total() as f64) < bound,
            "Disco root has {} entries (bound {bound:.0})",
            breakdown.disco_total()
        );
        // Fair (name-dependent vs name-dependent) comparison: the S4 root
        // holds several times NDDisco's bounded state.
        assert!(
            s4_root_entries > 2 * breakdown.nddisco_total(),
            "S4 root {s4_root_entries} vs NDDisco root {}",
            breakdown.nddisco_total()
        );
    }

    #[test]
    fn s4_and_disco_hold_equal_landmark_forests() {
        // One landmark election and one forest build: S4 and Disco route
        // over the same trees when every node estimates n exactly.
        for seed in [1, 2] {
            let g = generators::gnm_average_degree(200, 8.0, seed);
            let cfg = DiscoConfig::seeded(seed);
            let s4 = S4State::build(&g, &cfg);
            let disco = disco_core::static_state::DiscoState::build(&g, &cfg);
            assert!(!s4.landmarks().is_empty());
            assert_eq!(s4.forest(), disco.forest());
        }
    }

    #[test]
    fn directory_covers_every_node() {
        let (_, st) = setup(150, 6);
        let total: usize = st
            .landmarks()
            .iter()
            .map(|&lm| st.directory_entries_at(lm))
            .sum();
        assert_eq!(total, 150);
    }

    #[test]
    fn state_entries_count_components() {
        let (_, st) = setup(128, 7);
        for v in (0..128).step_by(13).map(NodeId) {
            let entries = st.state_entries(v);
            assert!(entries >= st.landmarks().len());
            if !st.is_landmark(v) {
                assert_eq!(entries, st.landmarks().len() + st.cluster(v).len());
            }
        }
    }
}
