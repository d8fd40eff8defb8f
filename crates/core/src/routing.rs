//! Route construction: NDDisco and Disco packet routing with shortcutting
//! (paper §4.2 "Routing", §4.4 "Routing", §4.2 "Shortcutting heuristics").
//!
//! [`DiscoRouter`] computes the route a packet takes over the converged
//! state of [`crate::static_state::DiscoState`]:
//!
//! * **NDDisco, first packet** (destination's address known): direct if the
//!   destination is a landmark or in the source's vicinity, otherwise
//!   `s ; ℓ_t ; t` — worst-case stretch 5.
//! * **NDDisco / Disco, later packets**: after the handshake the
//!   destination reports the shortest path if `s ∈ V(t)`; otherwise the
//!   landmark route is kept — worst-case stretch 3.
//! * **Disco, first packet** (only the flat name known): direct if
//!   possible; if the source already stores the destination's address
//!   (same sloppy group) route as NDDisco; otherwise forward toward the
//!   vicinity member `w` with the longest hash-prefix match to `h(t)`, who
//!   knows the address: `s ; w ; ℓ_t ; t` — worst-case stretch 7
//!   (Theorem 1). If no vicinity member of the destination's group exists
//!   (a with-high-probability failure), the landmark name-resolution
//!   database is used as a fallback, exactly as §4.4 prescribes.
//!
//! All routes then pass through a [`ShortcutMode`]: the `*_with` methods
//! take one, the others apply "No Path Knowledge", the paper's mode for
//! the core protocol (§5.1).
//!
//! The landmark legs come from the state's
//! [`LandmarkForest`](crate::landmark::LandmarkForest); the vicinity legs
//! and the ground truth come from per-source [`TreeCache`]s, so evaluating
//! many destinations from the same source (as the experiments do) is
//! cheap.

use crate::shortcut::ShortcutMode;
use crate::static_state::DiscoState;
use disco_graph::{Graph, NodeId, Path, Stop, TreeCache, Weight};

/// The shortcutting heuristic of the methods that take no mode.
const SHORTCUT: ShortcutMode = ShortcutMode::NoPathKnowledge;

/// How a route was obtained; reported so experiments can break results down
/// by case.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RouteCategory {
    /// Source and destination are the same node.
    SelfRoute,
    /// Destination was a landmark or inside the source's vicinity.
    Direct,
    /// Destination's shortest path was obtained from the handshake
    /// (`s ∈ V(t)`), so the route is optimal.
    Handshake,
    /// Routed via the destination's closest landmark (`s ; ℓ_t ; t`).
    ViaLandmark,
    /// Routed via a sloppy-group proxy in the source's vicinity
    /// (`s ; w ; ℓ_t ; t`).
    ViaGroupProxy,
    /// The w.h.p. guarantee failed and the landmark resolution database was
    /// used as a fallback.
    Fallback,
}

/// The outcome of routing one packet.
#[derive(Debug, Clone)]
pub struct RouteOutcome {
    /// Full node sequence from source to destination.
    pub nodes: Vec<NodeId>,
    /// Total length (sum of link weights).
    pub length: Weight,
    /// How the route was obtained.
    pub category: RouteCategory,
}

impl RouteOutcome {
    fn from_nodes(graph: &Graph, nodes: Vec<NodeId>, category: RouteCategory) -> Self {
        let length = if nodes.len() < 2 {
            0.0
        } else {
            Path::new(nodes.clone()).length(graph)
        };
        RouteOutcome {
            nodes,
            length,
            category,
        }
    }

    /// Stretch relative to the shortest-path distance. A zero shortest
    /// distance (self route) has stretch 1 by convention.
    pub fn stretch(&self, shortest: Weight) -> f64 {
        if shortest <= 0.0 {
            1.0
        } else {
            self.length / shortest
        }
    }

    /// Number of hops.
    pub fn hop_count(&self) -> usize {
        self.nodes.len().saturating_sub(1)
    }

    /// The edges traversed, as node pairs (used by congestion accounting).
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes.windows(2).map(|w| (w[0], w[1]))
    }
}

/// Router over converged Disco state. See the module documentation.
pub struct DiscoRouter<'a> {
    graph: &'a Graph,
    state: &'a DiscoState,
    /// One vicinity-sized tree per source: the legs inside `V(s)`.
    vicinity_trees: TreeCache<'a>,
    /// Full trees per source: ground-truth distances for stretch.
    full_trees: TreeCache<'a>,
}

/// NDDisco shares all routing machinery with Disco; the name-dependent
/// entry points are the `nddisco_*` methods of [`DiscoRouter`].
pub type NdDiscoRouter<'a> = DiscoRouter<'a>;

impl<'a> DiscoRouter<'a> {
    /// A router over `graph` and its converged `state`.
    pub fn new(graph: &'a Graph, state: &'a DiscoState) -> Self {
        DiscoRouter {
            graph,
            state,
            vicinity_trees: TreeCache::new(graph, move |s| Stop::Settled(state.vicinity(s).len())),
            full_trees: TreeCache::full(graph),
        }
    }

    /// The underlying converged state.
    pub fn state(&self) -> &DiscoState {
        self.state
    }

    /// The graph being routed over.
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    // ------------------------------------------------------------------
    // Ground truth
    // ------------------------------------------------------------------

    /// True shortest-path distance (ground truth for stretch).
    pub fn true_distance(&self, s: NodeId, t: NodeId) -> Weight {
        self.full_trees
            .distance(s, t)
            .unwrap_or_else(|| panic!("{t} unreachable from {s}"))
    }

    /// True shortest path (used by the path-vector baseline and congestion
    /// accounting).
    pub fn shortest_path(&self, s: NodeId, t: NodeId) -> Path {
        self.full_trees.path(s, t).expect("graph must be connected")
    }

    // ------------------------------------------------------------------
    // Legs
    // ------------------------------------------------------------------

    /// Path from `s` to a member `w` of `V(s)`; panics if `w ∉ V(s)`.
    pub fn vicinity_path(&self, s: NodeId, w: NodeId) -> Path {
        self.vicinity_trees
            .path(s, w)
            .unwrap_or_else(|| panic!("{w} is not in the vicinity of {s}"))
    }

    /// Path from `t`'s closest landmark to `t` (the explicit route in `t`'s
    /// address).
    fn address_leg(&self, t: NodeId) -> Path {
        self.state
            .address_of(t)
            .route_path(self.graph)
            .expect("address route must expand over the construction graph")
    }

    // ------------------------------------------------------------------
    // Route assembly
    // ------------------------------------------------------------------

    fn concat_nodes(legs: &[&Path]) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = Vec::new();
        for leg in legs {
            if nodes.is_empty() {
                nodes.extend_from_slice(leg.nodes());
            } else {
                assert_eq!(*nodes.last().unwrap(), leg.source(), "legs must chain");
                nodes.extend_from_slice(&leg.nodes()[1..]);
            }
        }
        nodes
    }

    /// The name-dependent landmark route `s ; ℓ_t ; t` with no
    /// shortcutting applied.
    fn landmark_route_nodes(&self, s: NodeId, t: NodeId) -> Vec<NodeId> {
        let lm = self.state.closest_landmark(t);
        let to_lm = self.state.forest().path_up(s, lm);
        let addr = self.address_leg(t);
        Self::concat_nodes(&[&to_lm, &addr])
    }

    /// The name-independent first-packet route `s ; w ; ℓ_t ; t` with no
    /// shortcutting applied.
    fn proxy_route_nodes(&self, s: NodeId, w: NodeId, t: NodeId) -> Vec<NodeId> {
        let to_w = self.vicinity_path(s, w);
        let lm = self.state.closest_landmark(t);
        let to_lm = self.state.forest().path_up(w, lm);
        let addr = self.address_leg(t);
        Self::concat_nodes(&[&to_w, &to_lm, &addr])
    }

    // ------------------------------------------------------------------
    // Shortcutting
    // ------------------------------------------------------------------

    fn route_length(&self, nodes: &[NodeId]) -> Weight {
        if nodes.len() < 2 {
            0.0
        } else {
            nodes
                .windows(2)
                .map(|w| {
                    self.graph
                        .edge_weight(w[0], w[1])
                        .unwrap_or_else(|| panic!("route uses non-edge {}-{}", w[0], w[1]))
                })
                .sum()
        }
    }

    fn vicinity_distance(&self, u: NodeId, x: NodeId) -> Option<Weight> {
        self.state.vicinity(u).distance(x)
    }

    /// "To-Destination" shortcutting: the first node along the route that
    /// has the destination in its vicinity routes directly to it.
    fn apply_to_destination(&self, nodes: Vec<NodeId>) -> Vec<NodeId> {
        let t = *nodes.last().unwrap();
        for (i, &u) in nodes.iter().enumerate() {
            if u == t {
                return nodes[..=i].to_vec();
            }
            if self.vicinity_distance(u, t).is_some() {
                let tail = self.vicinity_path(u, t);
                let mut out = nodes[..i].to_vec();
                out.extend_from_slice(tail.nodes());
                return out;
            }
        }
        nodes
    }

    /// "Up-Down Stream" shortcutting: every node along the route may splice
    /// in a vicinity route to any later node of the route if that is
    /// shorter than the route segment between them.
    fn apply_up_down_stream(&self, mut nodes: Vec<NodeId>) -> Vec<NodeId> {
        let mut i = 0usize;
        while i + 2 <= nodes.len() {
            let u = nodes[i];
            // Cumulative length from position i onward.
            let mut seg_len = vec![0.0; nodes.len() - i];
            for j in (i + 1)..nodes.len() {
                seg_len[j - i] = seg_len[j - i - 1]
                    + self
                        .graph
                        .edge_weight(nodes[j - 1], nodes[j])
                        .expect("route edge");
            }
            // Best splice: maximise savings over all later nodes reachable
            // through u's vicinity.
            let mut best: Option<(usize, Weight)> = None; // (j, savings)
            for j in (i + 2)..nodes.len() {
                if let Some(d) = self.vicinity_distance(u, nodes[j]) {
                    let savings = seg_len[j - i] - d;
                    if savings > 1e-12 {
                        match best {
                            Some((_, s)) if s >= savings => {}
                            _ => best = Some((j, savings)),
                        }
                    }
                }
            }
            if let Some((j, _)) = best {
                let splice = self.vicinity_path(u, nodes[j]);
                let mut out = nodes[..i].to_vec();
                out.extend_from_slice(splice.nodes());
                out.extend_from_slice(&nodes[j + 1..]);
                nodes = out;
            }
            i += 1;
        }
        nodes
    }

    /// Apply the forward-direction part of a shortcut mode to a base route.
    fn apply_forward(&self, mode: ShortcutMode, nodes: Vec<NodeId>) -> Vec<NodeId> {
        if mode.uses_up_down_stream() {
            self.apply_up_down_stream(nodes)
        } else if mode.uses_to_destination() {
            self.apply_to_destination(nodes)
        } else {
            nodes
        }
    }

    /// Finish a non-direct route: apply the configured shortcutting to the
    /// forward base route and, if the mode calls for it, also to the reverse
    /// base route, returning the shorter.
    fn finish(
        &self,
        mode: ShortcutMode,
        forward_base: Vec<NodeId>,
        reverse_base: Option<Vec<NodeId>>,
        category: RouteCategory,
    ) -> RouteOutcome {
        let forward = self.apply_forward(mode, forward_base);
        let forward_len = self.route_length(&forward);
        let mut best = (forward, forward_len);
        if mode.uses_reverse() {
            if let Some(rev) = reverse_base {
                let shortened = self.apply_forward(mode, rev);
                let len = self.route_length(&shortened);
                if len < best.1 {
                    let mut nodes = shortened;
                    nodes.reverse();
                    best = (nodes, len);
                }
            }
        }
        RouteOutcome {
            nodes: best.0,
            length: best.1,
            category,
        }
    }

    // ------------------------------------------------------------------
    // Direct cases shared by all protocols
    // ------------------------------------------------------------------

    /// If the destination is the source itself, a landmark, or in the
    /// source's vicinity, the route is direct (shortest).
    fn try_direct(&self, s: NodeId, t: NodeId) -> Option<RouteOutcome> {
        if s == t {
            return Some(RouteOutcome {
                nodes: vec![s],
                length: 0.0,
                category: RouteCategory::SelfRoute,
            });
        }
        if self.state.is_landmark(t) {
            let path = self.state.forest().path_up(s, t);
            return Some(RouteOutcome::from_nodes(
                self.graph,
                path.nodes().to_vec(),
                RouteCategory::Direct,
            ));
        }
        if self.state.vicinity(s).contains(t) {
            let path = self.vicinity_path(s, t);
            return Some(RouteOutcome::from_nodes(
                self.graph,
                path.nodes().to_vec(),
                RouteCategory::Direct,
            ));
        }
        None
    }

    // ------------------------------------------------------------------
    // NDDisco (name-dependent; the sender knows the destination's address)
    // ------------------------------------------------------------------

    /// NDDisco first packet with No-Path-Knowledge shortcutting
    /// (worst-case stretch 5).
    pub fn nddisco_first_packet(&self, s: NodeId, t: NodeId) -> RouteOutcome {
        self.nddisco_first_packet_with(s, t, SHORTCUT)
    }

    /// NDDisco first packet with an explicit shortcut mode.
    pub fn nddisco_first_packet_with(
        &self,
        s: NodeId,
        t: NodeId,
        mode: ShortcutMode,
    ) -> RouteOutcome {
        if let Some(direct) = self.try_direct(s, t) {
            return direct;
        }
        let forward = self.landmark_route_nodes(s, t);
        let reverse = if mode.uses_reverse() {
            Some(self.landmark_route_nodes(t, s))
        } else {
            None
        };
        self.finish(mode, forward, reverse, RouteCategory::ViaLandmark)
    }

    /// NDDisco later packets (after the handshake; worst-case stretch 3).
    pub fn nddisco_later_packet(&self, s: NodeId, t: NodeId) -> RouteOutcome {
        self.nddisco_later_packet_with(s, t, SHORTCUT)
    }

    /// NDDisco later packets with an explicit shortcut mode.
    pub fn nddisco_later_packet_with(
        &self,
        s: NodeId,
        t: NodeId,
        mode: ShortcutMode,
    ) -> RouteOutcome {
        if let Some(direct) = self.try_direct(s, t) {
            return direct;
        }
        // Handshake: if s ∈ V(t), the destination reports the shortest path.
        if self.state.vicinity(t).contains(s) {
            let path = self.vicinity_path(t, s).reversed();
            return RouteOutcome::from_nodes(
                self.graph,
                path.nodes().to_vec(),
                RouteCategory::Handshake,
            );
        }
        let forward = self.landmark_route_nodes(s, t);
        let reverse = if mode.uses_reverse() {
            Some(self.landmark_route_nodes(t, s))
        } else {
            None
        };
        self.finish(mode, forward, reverse, RouteCategory::ViaLandmark)
    }

    // ------------------------------------------------------------------
    // Disco (name-independent; the sender knows only the flat name)
    // ------------------------------------------------------------------

    /// Disco first packet with No-Path-Knowledge shortcutting (worst-case
    /// stretch 7, Theorem 1).
    pub fn route_first_packet(&self, s: NodeId, t: NodeId) -> RouteOutcome {
        self.route_first_packet_with(s, t, SHORTCUT)
    }

    /// Disco first packet with an explicit shortcut mode.
    pub fn route_first_packet_with(
        &self,
        s: NodeId,
        t: NodeId,
        mode: ShortcutMode,
    ) -> RouteOutcome {
        if let Some(direct) = self.try_direct(s, t) {
            return direct;
        }
        // The source already stores the destination's address (same sloppy
        // group): route exactly as NDDisco.
        if self.state.knows_address(s, t) {
            return self.nddisco_first_packet_with(s, t, mode);
        }
        // Find the vicinity member with the longest hash prefix match.
        let proxy = self.state.best_group_proxy(s, t);
        if let Some(w) = proxy {
            if self.state.knows_address(w, t) {
                let forward = self.proxy_route_nodes(s, w, t);
                let reverse = if mode.uses_reverse() {
                    self.state
                        .best_group_proxy(t, s)
                        .filter(|&w2| self.state.knows_address(w2, s))
                        .map(|w2| self.proxy_route_nodes(t, w2, s))
                } else {
                    None
                };
                return self.finish(mode, forward, reverse, RouteCategory::ViaGroupProxy);
            }
        }
        // w.h.p. failure: fall back to the landmark resolution database
        // (§4.3 / §4.4): route to the landmark owning h(t), which knows the
        // address, then onward to t.
        let owner = self
            .state
            .resolution_ring()
            .owner_of_name(self.state.name_of(t));
        let to_owner = self.state.forest().path_up(s, owner);
        let lm = self.state.closest_landmark(t);
        let owner_to_lm = self.state.forest().path_up(owner, lm);
        let addr = self.address_leg(t);
        let forward = Self::concat_nodes(&[&to_owner, &owner_to_lm, &addr]);
        self.finish(mode, forward, None, RouteCategory::Fallback)
    }

    /// Disco later packets: identical to NDDisco later packets, since the
    /// source learned the destination's address from the first exchange.
    pub fn route_later_packet(&self, s: NodeId, t: NodeId) -> RouteOutcome {
        self.nddisco_later_packet(s, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DiscoConfig;
    use disco_graph::generators;

    fn setup(n: usize, seed: u64) -> (Graph, DiscoState) {
        let g = generators::gnm_average_degree(n, 8.0, seed);
        let st = DiscoState::build(&g, &DiscoConfig::seeded(seed));
        (g, st)
    }

    fn sample_pairs(n: usize, count: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
        use rand::Rng;
        let mut rng = disco_sim::rng::rng_for(seed, 0x77, 0);
        (0..count)
            .map(|_| {
                let s = rng.gen_range(0..n);
                let mut t = rng.gen_range(0..n);
                while t == s {
                    t = rng.gen_range(0..n);
                }
                (NodeId(s), NodeId(t))
            })
            .collect()
    }

    #[test]
    fn routes_are_valid_walks_ending_at_destination() {
        let (g, st) = setup(256, 1);
        let router = DiscoRouter::new(&g, &st);
        for (s, t) in sample_pairs(256, 60, 1) {
            for out in [
                router.route_first_packet(s, t),
                router.route_later_packet(s, t),
                router.nddisco_first_packet(s, t),
                router.nddisco_later_packet(s, t),
            ] {
                assert_eq!(*out.nodes.first().unwrap(), s);
                assert_eq!(*out.nodes.last().unwrap(), t);
                // Every consecutive pair is an edge.
                for w in out.nodes.windows(2) {
                    assert!(g.has_edge(w[0], w[1]), "invalid hop {}-{}", w[0], w[1]);
                }
                assert!(out.length >= router.true_distance(s, t) - 1e-9);
            }
        }
    }

    #[test]
    fn self_route_has_zero_length() {
        let (g, st) = setup(64, 2);
        let router = DiscoRouter::new(&g, &st);
        let out = router.route_first_packet(NodeId(5), NodeId(5));
        assert_eq!(out.category, RouteCategory::SelfRoute);
        assert_eq!(out.length, 0.0);
        assert_eq!(out.hop_count(), 0);
        assert!((out.stretch(0.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn first_packet_stretch_obeys_theorem_1() {
        // On a random graph with default constants the w.h.p. precondition
        // (a landmark in every vicinity, a group member in every vicinity)
        // holds, so the worst-case stretch bounds must hold exactly.
        let (g, st) = setup(512, 3);
        let router = DiscoRouter::new(&g, &st);
        for (s, t) in sample_pairs(512, 120, 3) {
            let d = router.true_distance(s, t);
            let first = router.route_first_packet(s, t);
            assert!(
                first.stretch(d) <= 7.0 + 1e-9,
                "first-packet stretch {} for {s}->{t}",
                first.stretch(d)
            );
            let later = router.route_later_packet(s, t);
            assert!(
                later.stretch(d) <= 3.0 + 1e-9,
                "later-packet stretch {} for {s}->{t}",
                later.stretch(d)
            );
        }
    }

    #[test]
    fn nddisco_first_packet_stretch_at_most_5() {
        let (g, st) = setup(512, 4);
        let router = DiscoRouter::new(&g, &st);
        for (s, t) in sample_pairs(512, 120, 4) {
            let d = router.true_distance(s, t);
            let out = router.nddisco_first_packet(s, t);
            assert!(
                out.stretch(d) <= 5.0 + 1e-9,
                "NDDisco first-packet stretch {}",
                out.stretch(d)
            );
        }
    }

    #[test]
    fn later_packets_never_longer_than_unshortcut_first() {
        let (g, st) = setup(256, 5);
        let router = DiscoRouter::new(&g, &st);
        for (s, t) in sample_pairs(256, 60, 5) {
            let first = router.route_first_packet_with(s, t, ShortcutMode::None);
            let later = router.nddisco_later_packet_with(s, t, ShortcutMode::None);
            assert!(later.length <= first.length + 1e-9);
        }
    }

    #[test]
    fn shortcutting_never_hurts() {
        let (g, st) = setup(256, 6);
        let router = DiscoRouter::new(&g, &st);
        for (s, t) in sample_pairs(256, 50, 6) {
            let none = router.route_first_packet_with(s, t, ShortcutMode::None);
            let to_dest = router.route_first_packet_with(s, t, ShortcutMode::ToDestination);
            let npk = router.route_first_packet_with(s, t, ShortcutMode::NoPathKnowledge);
            let uds = router.route_first_packet_with(s, t, ShortcutMode::UpDownStream);
            let pk = router.route_first_packet_with(s, t, ShortcutMode::PathKnowledge);
            assert!(to_dest.length <= none.length + 1e-9);
            assert!(npk.length <= to_dest.length + 1e-9);
            assert!(uds.length <= to_dest.length + 1e-9);
            assert!(pk.length <= uds.length + 1e-9);
        }
    }

    #[test]
    fn direct_and_handshake_routes_are_shortest() {
        let (g, st) = setup(256, 7);
        let router = DiscoRouter::new(&g, &st);
        let mut checked_direct = 0;
        let mut checked_handshake = 0;
        for (s, t) in sample_pairs(256, 150, 7) {
            let later = router.route_later_packet(s, t);
            let d = router.true_distance(s, t);
            match later.category {
                RouteCategory::Direct | RouteCategory::Handshake | RouteCategory::SelfRoute => {
                    assert!((later.length - d).abs() < 1e-9);
                    if later.category == RouteCategory::Direct {
                        checked_direct += 1;
                    } else {
                        checked_handshake += 1;
                    }
                }
                _ => {}
            }
        }
        // On a 256-node graph vicinities are large, so many pairs are direct.
        assert!(checked_direct + checked_handshake > 0);
    }

    #[test]
    fn routing_to_landmark_is_shortest() {
        let (g, st) = setup(256, 8);
        let router = DiscoRouter::new(&g, &st);
        let lm = st.landmarks()[st.landmarks().len() / 2];
        for s in (0..256).step_by(37).map(NodeId) {
            if s == lm {
                continue;
            }
            let out = router.route_first_packet(s, lm);
            assert_eq!(out.category, RouteCategory::Direct);
            assert!((out.length - router.true_distance(s, lm)).abs() < 1e-9);
        }
    }

    #[test]
    fn geometric_graph_stretch_bounds_hold_with_latencies() {
        let g = generators::geometric_connected(400, 8.0, 11);
        let st = DiscoState::build(&g, &DiscoConfig::seeded(11));
        let router = DiscoRouter::new(&g, &st);
        for (s, t) in sample_pairs(400, 80, 11) {
            let d = router.true_distance(s, t);
            let first = router.route_first_packet(s, t);
            let later = router.route_later_packet(s, t);
            assert!(
                first.stretch(d) <= 7.0 + 1e-9,
                "stretch {}",
                first.stretch(d)
            );
            assert!(
                later.stretch(d) <= 3.0 + 1e-9,
                "stretch {}",
                later.stretch(d)
            );
        }
    }

    #[test]
    fn route_categories_cover_expected_cases() {
        let (g, st) = setup(400, 12);
        let router = DiscoRouter::new(&g, &st);
        let mut seen = std::collections::HashSet::new();
        for (s, t) in sample_pairs(400, 300, 12) {
            seen.insert(router.route_first_packet(s, t).category);
        }
        // At minimum the direct and one of the indirect categories occur.
        assert!(seen.contains(&RouteCategory::Direct));
        assert!(
            seen.contains(&RouteCategory::ViaGroupProxy)
                || seen.contains(&RouteCategory::ViaLandmark)
        );
    }
}
