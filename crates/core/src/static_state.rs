//! The static simulator: Disco's post-convergence state (paper §5.1).
//!
//! For topologies too large to run the full discrete-event protocol, the
//! paper uses "a static simulator which calculates the post-convergence
//! state of the network". [`DiscoState::build`] is that simulator: given a
//! graph and a configuration it directly computes, for every node,
//!
//! * whether it is a landmark and which landmark is closest (the
//!   [`LandmarkForest`], with one shortest-path tree per landmark),
//! * its address (closest landmark + explicit route),
//! * its vicinity (the `Θ(√(n log n))` closest nodes),
//! * its sloppy group and overlay links,
//! * the landmark-resolution database shard it stores (if it is a landmark).
//!
//! The state produced here is what the paper's §5.2 measures ("State"), and
//! what [`crate::routing::DiscoRouter`] routes over. The accuracy of this
//! shortcut relative to the event-driven protocol is itself one of the
//! paper's reported experiments (§5.2 "Accuracy of static simulation"),
//! reproduced by `paper exp_static_accuracy`.

use crate::address::Address;
use crate::config::DiscoConfig;
use crate::estimate_n::NEstimates;
use crate::landmark::{self, LandmarkForest};
use crate::name::FlatName;
use crate::overlay::Overlay;
use crate::resolution::{ResolutionDatabase, ResolutionRing};
use crate::sloppy_group::SloppyGrouping;
use crate::vicinity::{self, Vicinity};
use disco_graph::{Graph, NodeId, Weight};

/// Post-convergence Disco state for an entire network.
#[derive(Debug, Clone)]
pub struct DiscoState {
    cfg: DiscoConfig,
    n: usize,
    /// Flat name of each node.
    names: Vec<FlatName>,
    /// Per-node estimates of `n` (exact unless the config injects error).
    estimates: NEstimates,
    /// Landmarks, closest landmarks and the landmark trees.
    forest: LandmarkForest,
    /// Address of each node (closest landmark + explicit route).
    addresses: Vec<Address>,
    /// Vicinity of each node.
    vicinities: Vec<Vicinity>,
    /// Sloppy grouping of all nodes.
    grouping: SloppyGrouping,
    /// The address-dissemination overlay.
    overlay: Overlay,
    /// Consistent-hashing ring over the landmarks.
    resolution_ring: ResolutionRing,
    /// The converged name-resolution database.
    resolution_db: ResolutionDatabase,
}

impl DiscoState {
    /// Build the converged state over `graph` with synthetic flat names
    /// (`FlatName::synthetic(i)` for node `i`).
    ///
    /// The expensive, embarrassingly parallel stages — one shortest-path
    /// tree per landmark and one truncated tree per node's vicinity — run
    /// on one worker per CPU. Every worker writes its own index-addressed
    /// slot, so the state is the same for any CPU count.
    pub fn build(graph: &Graph, cfg: &DiscoConfig) -> Self {
        let names: Vec<FlatName> = (0..graph.node_count()).map(FlatName::synthetic).collect();
        Self::build_with_names(graph, cfg, names)
    }

    /// [`Self::build`] under the name the repository benchmark's probes
    /// call; `threads` is ignored (the build always uses one worker per
    /// CPU).
    pub fn build_parallel(graph: &Graph, cfg: &DiscoConfig, _threads: usize) -> Self {
        Self::build(graph, cfg)
    }

    /// Build the converged state with caller-supplied flat names (one per
    /// node, same order as node ids), on one worker per CPU like
    /// [`Self::build`].
    pub fn build_with_names(graph: &Graph, cfg: &DiscoConfig, names: Vec<FlatName>) -> Self {
        let n = graph.node_count();
        assert!(n >= 2, "Disco needs at least two nodes");
        assert_eq!(names.len(), n, "one name per node required");

        // Per-node estimates of n (optionally with injected error, §5.2).
        let estimates = if cfg.n_estimate_error > 0.0 {
            NEstimates::with_error(n, cfg.n_estimate_error, cfg.seed ^ 0xee)
        } else {
            NEstimates::exact(n)
        };

        // Landmark election and the landmark trees (§4.2).
        let forest = LandmarkForest::build(
            graph,
            landmark::select_landmarks_with_estimates(n, cfg, |v| estimates.of(v)),
        );

        // Addresses: explicit route from the closest landmark to the node.
        let addresses: Vec<Address> = graph
            .nodes()
            .map(|v| {
                let lm = forest.closest(v);
                if lm == v {
                    Address::landmark_self(v)
                } else {
                    Address::from_landmark_path(graph, v, &forest.path(lm, v))
                }
            })
            .collect();

        // Vicinities (§4.2): the Θ(√(n log n)) closest nodes.
        let vicinities = vicinity::all_vicinities(graph, cfg, |v| estimates.of(v));

        // Sloppy groups and overlay (§4.4).
        let grouping = SloppyGrouping::build(n, cfg, &names, |v| estimates.of(v));
        let overlay = Overlay::build(&grouping, cfg);

        // Name resolution database over the landmarks (§4.3).
        let resolution_ring = ResolutionRing::new(forest.landmarks(), cfg);
        let resolution_db = ResolutionDatabase::build(&resolution_ring, &names, &addresses);

        DiscoState {
            cfg: cfg.clone(),
            n,
            names,
            estimates,
            forest,
            addresses,
            vicinities,
            grouping,
            overlay,
            resolution_ring,
            resolution_db,
        }
    }

    /// The configuration the state was built with.
    pub fn config(&self) -> &DiscoConfig {
        &self.cfg
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// The flat name of node `v`.
    pub fn name_of(&self, v: NodeId) -> &FlatName {
        &self.names[v.0]
    }

    /// All flat names, indexed by node id.
    pub fn names(&self) -> &[FlatName] {
        &self.names
    }

    /// Per-node estimates of `n` used during construction.
    pub fn estimates(&self) -> &NEstimates {
        &self.estimates
    }

    /// The landmarks, each node's closest one and the landmark trees.
    pub fn forest(&self) -> &LandmarkForest {
        &self.forest
    }

    /// The landmark set, sorted by node id.
    pub fn landmarks(&self) -> &[NodeId] {
        self.forest.landmarks()
    }

    /// Whether `v` is a landmark.
    pub fn is_landmark(&self, v: NodeId) -> bool {
        self.forest.is_landmark(v)
    }

    /// The closest landmark `ℓ_v` of node `v`.
    pub fn closest_landmark(&self, v: NodeId) -> NodeId {
        self.forest.closest(v)
    }

    /// Distance `d(v, ℓ_v)`.
    pub fn closest_landmark_distance(&self, v: NodeId) -> Weight {
        self.forest.closest_distance(v)
    }

    /// The address of node `v`.
    pub fn address_of(&self, v: NodeId) -> &Address {
        &self.addresses[v.0]
    }

    /// All addresses, indexed by node id.
    pub fn addresses(&self) -> &[Address] {
        &self.addresses
    }

    /// The vicinity of node `v`.
    pub fn vicinity(&self, v: NodeId) -> &Vicinity {
        &self.vicinities[v.0]
    }

    /// The sloppy grouping.
    pub fn grouping(&self) -> &SloppyGrouping {
        &self.grouping
    }

    /// The dissemination overlay.
    pub fn overlay(&self) -> &Overlay {
        &self.overlay
    }

    /// The consistent-hashing ring over the landmarks.
    pub fn resolution_ring(&self) -> &ResolutionRing {
        &self.resolution_ring
    }

    /// The converged name-resolution database.
    pub fn resolution_db(&self) -> &ResolutionDatabase {
        &self.resolution_db
    }

    /// Whether node `s` stores node `t`'s address through the sloppy-group
    /// dissemination, i.e. whether `t` considers `s` a member of `G(t)`.
    pub fn knows_address(&self, s: NodeId, t: NodeId) -> bool {
        s == t || self.grouping.considers_member(t, s)
    }

    /// The member of `V(s)` with the longest hash-prefix match against
    /// `h(t)` — the node the first packet of a flow is sent toward when the
    /// source knows neither a direct route nor the destination's address.
    /// Ties are broken toward the closer node, then the lower id.
    pub fn best_group_proxy(&self, s: NodeId, t: NodeId) -> Option<NodeId> {
        let target = self.grouping.hash_of(t);
        let mut best: Option<(u32, Weight, NodeId)> = None;
        for (w, d) in self.vicinity(s).members() {
            if w == s {
                continue;
            }
            let plen = self.grouping.hash_of(w).common_prefix_len(target);
            let candidate = (plen, d, w);
            best = Some(match best {
                None => candidate,
                Some(cur) => {
                    // Longer prefix wins; then smaller distance; then id.
                    if candidate.0 > cur.0
                        || (candidate.0 == cur.0 && candidate.1 < cur.1)
                        || (candidate.0 == cur.0 && candidate.1 == cur.1 && candidate.2 < cur.2)
                    {
                        candidate
                    } else {
                        cur
                    }
                }
            });
        }
        best.map(|(_, _, w)| w)
    }

    /// Per-node count of routing-table entries in the data plane, broken
    /// down by component. See [`StateBreakdown`].
    pub fn state_breakdown(&self, graph: &Graph, v: NodeId) -> StateBreakdown {
        let landmark_entries = self.landmarks().len();
        let vicinity_entries = self.vicinity(v).len().saturating_sub(1);
        // Forwarding-label mappings: one per neighbor that is actually used
        // as a next hop toward a landmark or vicinity member; bounded by
        // both the degree and the number of destinations (Theorem 2).
        let label_entries = graph.degree(v).min(landmark_entries + vicinity_entries);
        let resolution_entries = if self.is_landmark(v) {
            self.resolution_db.entries_at(v)
        } else {
            0
        };
        let group_address_entries = self
            .grouping
            .perceived_group(v)
            .iter()
            .filter(|&&w| w != v && self.grouping.considers_member(w, v))
            .count();
        let overlay_entries = self.overlay.degree(v);
        StateBreakdown {
            landmark_entries,
            vicinity_entries,
            label_entries,
            resolution_entries,
            group_address_entries,
            overlay_entries,
        }
    }
}

/// Breakdown of one node's data-plane routing state into the components of
/// Theorem 2's accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StateBreakdown {
    /// Routes to all landmarks.
    pub landmark_entries: usize,
    /// Routes to the vicinity (excluding the node itself).
    pub vicinity_entries: usize,
    /// Compact forwarding-label → interface mappings.
    pub label_entries: usize,
    /// Name-resolution entries stored (landmarks only).
    pub resolution_entries: usize,
    /// Addresses stored on behalf of the sloppy group (Disco only).
    pub group_address_entries: usize,
    /// Overlay neighbor entries (Disco only).
    pub overlay_entries: usize,
}

impl StateBreakdown {
    /// Total entries for the name-dependent protocol (NDDisco): landmarks,
    /// vicinity, labels and the resolution shard.
    pub fn nddisco_total(&self) -> usize {
        self.landmark_entries + self.vicinity_entries + self.label_entries + self.resolution_entries
    }

    /// Total entries for full Disco: NDDisco plus the sloppy-group address
    /// store and the overlay links.
    pub fn disco_total(&self) -> usize {
        self.nddisco_total() + self.group_address_entries + self.overlay_entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disco_graph::{dijkstra, generators};

    fn small_state(seed: u64) -> (Graph, DiscoState) {
        let g = generators::gnm_average_degree(256, 8.0, seed);
        let cfg = DiscoConfig::seeded(seed);
        let st = DiscoState::build(&g, &cfg);
        (g, st)
    }

    #[test]
    fn landmarks_and_closest_assignments_are_consistent() {
        let (g, st) = small_state(1);
        assert!(!st.landmarks().is_empty());
        for v in g.nodes() {
            let lm = st.closest_landmark(v);
            assert!(st.is_landmark(lm));
            // The recorded distance matches the landmark tree distance.
            let d = st.closest_landmark_distance(v);
            assert!((st.forest().distance(lm, v) - d).abs() < 1e-9);
            // No other landmark is strictly closer.
            for &other in st.landmarks() {
                assert!(st.forest().distance(other, v) + 1e-9 >= d);
            }
        }
    }

    #[test]
    fn addresses_embed_valid_landmark_routes() {
        let (g, st) = small_state(2);
        for v in g.nodes() {
            let addr = st.address_of(v);
            assert_eq!(addr.node, v);
            assert_eq!(addr.landmark, st.closest_landmark(v));
            let path = addr.route_path(&g).unwrap();
            assert_eq!(path.source(), addr.landmark);
            assert_eq!(path.destination(), v);
            assert!(path.is_valid(&g));
            assert!((path.length(&g) - st.closest_landmark_distance(v)).abs() < 1e-9);
        }
    }

    #[test]
    fn landmark_paths_are_shortest() {
        let (g, st) = small_state(3);
        let lm = st.landmarks()[0];
        let tree = dijkstra(&g, lm);
        for v in g.nodes().step_by(17) {
            let p = st.forest().path(lm, v);
            assert!((p.length(&g) - tree.distance(v).unwrap()).abs() < 1e-9);
            assert_eq!(p.source(), lm);
            assert_eq!(p.destination(), v);
        }
    }

    #[test]
    fn every_vicinity_contains_a_landmark_whp() {
        // The stretch guarantee needs ℓ within each vicinity w.h.p.; on a
        // 256-node random graph with default constants this should hold for
        // every node.
        let (g, st) = small_state(4);
        for v in g.nodes() {
            let has_landmark = st.vicinity(v).members().any(|(w, _)| st.is_landmark(w));
            assert!(has_landmark, "vicinity of {v} contains no landmark");
        }
    }

    #[test]
    fn vicinity_group_intersection_exists_for_sampled_pairs() {
        // The name-independent routing step requires V(s) ∩ G(t) ≠ ∅ w.h.p.
        let (_, st) = small_state(5);
        let n = st.node_count();
        for s in (0..n).step_by(13) {
            for t in (0..n).step_by(29) {
                if s == t {
                    continue;
                }
                let w = st.best_group_proxy(NodeId(s), NodeId(t));
                assert!(w.is_some());
            }
        }
    }

    #[test]
    fn state_breakdown_totals_are_bounded() {
        let (g, st) = small_state(6);
        let n = st.node_count() as f64;
        let bound = 12.0 * (n * n.ln()).sqrt(); // generous Θ(√(n log n)) bound
        for v in g.nodes() {
            let b = st.state_breakdown(&g, v);
            assert!(b.vicinity_entries > 0);
            assert!(b.landmark_entries == st.landmarks().len());
            assert!(
                (b.disco_total() as f64) < bound,
                "node {v} has {} entries (bound {bound})",
                b.disco_total()
            );
            assert!(b.nddisco_total() <= b.disco_total());
        }
    }

    #[test]
    fn knows_address_reflects_group_membership() {
        let (_, st) = small_state(7);
        let n = st.node_count();
        for t in (0..n).step_by(11) {
            let t = NodeId(t);
            assert!(st.knows_address(t, t));
            for &m in st.grouping().core_group(t) {
                assert!(st.knows_address(m, t));
            }
        }
    }

    #[test]
    fn build_with_custom_names() {
        let g = generators::ring(16);
        let names: Vec<FlatName> = (0..16)
            .map(|i| FlatName::from_str_name(&format!("host{i}.example")))
            .collect();
        let st = DiscoState::build_with_names(&g, &DiscoConfig::seeded(1), names.clone());
        assert_eq!(st.name_of(NodeId(3)), &names[3]);
        assert_eq!(st.names().len(), 16);
    }

    #[test]
    fn parallel_build_matches_sequential() {
        let g = generators::gnm_average_degree(192, 8.0, 42);
        let cfg = DiscoConfig::seeded(42);
        let a = DiscoState::build(&g, &cfg);
        let b = DiscoState::build_parallel(&g, &cfg, 3);
        assert_eq!(a.forest, b.forest);
        for v in g.nodes() {
            assert_eq!(
                a.vicinity(v).members().collect::<Vec<_>>(),
                b.vicinity(v).members().collect::<Vec<_>>(),
                "vicinity of {v} differs"
            );
            assert_eq!(
                a.address_of(v).route_path(&g).unwrap().nodes(),
                b.address_of(v).route_path(&g).unwrap().nodes(),
                "address of {v} differs"
            );
        }
        // Whatever thread count the benchmark's name is given, the state
        // is the one `build` makes.
        let c = DiscoState::build_parallel(&g, &cfg, 0);
        assert_eq!(a.forest, c.forest);
    }

    #[test]
    #[should_panic]
    fn build_rejects_wrong_name_count() {
        let g = generators::ring(8);
        let names: Vec<FlatName> = (0..4).map(FlatName::synthetic).collect();
        let _ = DiscoState::build_with_names(&g, &DiscoConfig::seeded(1), names);
    }
}
