//! Experiment runners: one function per figure/table of the paper's
//! evaluation (§5). The `paper` binary of `disco-bench` calls these with
//! paper-scale parameters; the tests here and the workspace integration
//! tests run the same functions at smaller sizes, so the figure pipeline
//! itself is under test. README's "Reproducing the paper" lists the
//! figures.
//!
//! The static-simulator figures read from an [`Instance`]: one topology
//! built once with every protocol's converged state, so a figure with
//! several panels (Figs. 4, 5 and 9) builds each state once.

use crate::congestion::{self, CongestionReport};
use crate::sampling::{one_destination_per_node, sample_nodes, sample_pairs_grouped};
use crate::state::{self, ByteReport, StateReport};
use crate::stretch::{self, StretchReport};
use crate::topology::Topology;
use disco_baselines::{
    S4Router, S4State, ShortestPathRouter, ShortestPathState, VrrRouter, VrrState,
};
use disco_core::address::IdentifierSize;
use disco_core::config::DiscoConfig;
use disco_core::dissemination;
use disco_core::estimate_n::NEstimates;
use disco_core::overlay::Overlay;
use disco_core::path_vector::{PathVectorNode, TableLimit};
use disco_core::protocol::DiscoProtocol;
use disco_core::routing::DiscoRouter;
use disco_core::shortcut::ShortcutMode;
use disco_core::sloppy_group::SloppyGrouping;
use disco_core::static_state::DiscoState;
use disco_core::{landmark, FlatName};
use disco_graph::{Graph, NodeId};
use disco_sim::Engine;

/// Common experiment parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentParams {
    /// Number of nodes in the topology.
    pub nodes: usize,
    /// Experiment seed (topology, protocol randomness and sampling all
    /// derive from it).
    pub seed: u64,
    /// How many nodes to sample for state measurements (`usize::MAX` = all).
    pub state_samples: usize,
    /// How many distinct sources to sample for stretch.
    pub stretch_sources: usize,
    /// How many destinations per sampled source.
    pub stretch_dests_per_source: usize,
}

impl ExperimentParams {
    /// Reasonable defaults for an `n`-node run: all nodes for state, about
    /// 2,000 pairs (50 sources × 40 destinations) for stretch.
    pub fn for_nodes(nodes: usize, seed: u64) -> Self {
        ExperimentParams {
            nodes,
            seed,
            state_samples: usize::MAX,
            stretch_sources: 50,
            stretch_dests_per_source: 40,
        }
        .clamped()
    }

    /// The stretch sample cut to what `nodes` nodes hold: at most n/2
    /// sources with n/4 destinations each, and at least one of each.
    pub fn clamped(self) -> Self {
        ExperimentParams {
            stretch_sources: self.stretch_sources.min(self.nodes / 2).max(1),
            stretch_dests_per_source: self.stretch_dests_per_source.min(self.nodes / 4).max(1),
            ..self
        }
    }

    /// The sampled stretch pairs, grouped by source.
    fn stretch_pairs(&self) -> Vec<(NodeId, NodeId)> {
        sample_pairs_grouped(
            self.nodes,
            self.stretch_sources,
            self.stretch_dests_per_source,
            self.seed,
        )
    }
}

/// One topology instance of `(topology, params)` with the converged
/// static state of every protocol the figures compare. Build it once and
/// read any number of measurements from it.
pub struct Instance {
    /// The topology family.
    pub topology: Topology,
    /// The parameters it was built and is sampled with.
    pub params: ExperimentParams,
    /// The topology.
    pub graph: Graph,
    /// Disco's configuration (seeded from `params.seed`).
    pub cfg: DiscoConfig,
    /// Disco's converged state (ND-Disco is read from the same state).
    pub disco: DiscoState,
    /// S4's converged state.
    pub s4: S4State,
    /// VRR's converged state, on the small-topology figures only
    /// (Figs. 4 and 5). An instance with VRR also measures path-vector
    /// state, whose all-pairs tables likewise fit only small topologies.
    pub vrr: Option<VrrState>,
}

impl Instance {
    /// Build the topology and the Disco and S4 states.
    pub fn build(topology: Topology, params: &ExperimentParams) -> Self {
        let graph = topology.build(params.nodes, params.seed);
        let cfg = DiscoConfig::seeded(params.seed);
        Instance {
            disco: DiscoState::build(&graph, &cfg),
            s4: S4State::build(&graph, &cfg),
            vrr: None,
            topology,
            params: params.clone(),
            graph,
            cfg,
        }
    }

    /// The same instance with VRR's state built too.
    pub fn with_vrr(mut self) -> Self {
        self.vrr = Some(VrrState::build(&self.graph, &self.cfg));
        self
    }
}

// ---------------------------------------------------------------------
// Figures 2, 4-left, 5-left, 9-right: state
// ---------------------------------------------------------------------

/// Per-protocol state reports for one topology instance.
#[derive(Debug, Clone)]
pub struct StateComparison {
    /// The topology family measured.
    pub topology: Topology,
    /// Number of nodes.
    pub nodes: usize,
    /// Full Disco.
    pub disco: StateReport,
    /// Name-dependent NDDisco.
    pub nddisco: StateReport,
    /// S4.
    pub s4: StateReport,
    /// VRR (only on an instance with VRR).
    pub vrr: Option<StateReport>,
    /// Shortest-path routing (only on an instance with VRR).
    pub path_vector: Option<StateReport>,
}

/// The state comparison of Fig. 2 (Disco / NDDisco / S4), or of
/// Fig. 4/5-left (plus VRR and path-vector) on an instance with VRR.
pub fn state_comparison(inst: &Instance) -> StateComparison {
    let Instance { graph, params, .. } = inst;
    let nodes = sample_nodes(params.nodes, params.state_samples, params.seed);
    let breakdown = |v| inst.disco.state_breakdown(graph, v);
    let vrr = inst.vrr.as_ref();
    StateComparison {
        topology: inst.topology,
        nodes: params.nodes,
        disco: StateReport::per_node(&nodes, |v| breakdown(v).disco_total()),
        nddisco: StateReport::per_node(&nodes, |v| breakdown(v).nddisco_total()),
        s4: StateReport::per_node(&nodes, |v| inst.s4.state_entries(v)),
        vrr: vrr.map(|vrr| StateReport::per_node(&nodes, |v| vrr.state_entries(v))),
        path_vector: vrr.is_some().then(|| {
            let pv = ShortestPathState::build(graph);
            StateReport::per_node(&nodes, |w| pv.state_entries(w))
        }),
    }
}

// ---------------------------------------------------------------------
// Figures 3, 4-middle, 5-middle: stretch
// ---------------------------------------------------------------------

/// Per-protocol stretch reports for one topology instance.
#[derive(Debug, Clone)]
pub struct StretchComparison {
    /// The topology family measured.
    pub topology: Topology,
    /// Number of nodes.
    pub nodes: usize,
    /// Disco (first + later packets).
    pub disco: StretchReport,
    /// S4 (first + later packets).
    pub s4: StretchReport,
    /// VRR (only on an instance with VRR; same samples for first/later).
    pub vrr: Option<StretchReport>,
}

/// The stretch comparison of Fig. 3 (Disco vs S4), or of Fig. 4/5-middle
/// (plus VRR) on an instance with VRR.
pub fn stretch_comparison(inst: &Instance) -> StretchComparison {
    let graph = &inst.graph;
    let pairs = inst.params.stretch_pairs();
    let vrr = inst.vrr.as_ref().map(|v| {
        let router = || VrrRouter::new(graph, v);
        stretch::sample(&pairs, router, |r, s, t| {
            let x = r.stretch(s, t);
            (x, x)
        })
    });
    let disco_router = || DiscoRouter::new(graph, &inst.disco);
    let s4_router = || S4Router::new(graph, &inst.s4);
    StretchComparison {
        topology: inst.topology,
        nodes: inst.params.nodes,
        disco: stretch::sample(&pairs, disco_router, |r, s, t| {
            let d = r.true_distance(s, t);
            let first = r.route_first_packet(s, t).stretch(d);
            (first, r.route_later_packet(s, t).stretch(d))
        }),
        s4: stretch::sample(&pairs, s4_router, |r, s, t| {
            (r.first_packet_stretch(s, t), r.later_packet_stretch(s, t))
        }),
        vrr,
    }
}

// ---------------------------------------------------------------------
// Figure 6: shortcutting heuristics
// ---------------------------------------------------------------------

/// Mean first-packet stretch per shortcutting heuristic on one topology.
#[derive(Debug, Clone)]
pub struct ShortcutRow {
    /// The topology measured.
    pub topology: Topology,
    /// `(mode, mean stretch)` in the order of the paper's Fig. 6.
    pub means: Vec<(ShortcutMode, f64)>,
}

/// The Fig. 6 shortcutting sweep on one topology instance.
pub fn shortcut_sweep(inst: &Instance) -> ShortcutRow {
    let pairs = inst.params.stretch_pairs();
    let router = || DiscoRouter::new(&inst.graph, &inst.disco);
    let means = ShortcutMode::ALL
        .iter()
        .map(|&mode| {
            let first = stretch::sample(&pairs, router, |r, s, t| {
                let d = r.true_distance(s, t);
                let x = r.route_first_packet_with(s, t, mode).stretch(d);
                (x, x)
            });
            (mode, first.mean_first())
        })
        .collect();
    ShortcutRow {
        topology: inst.topology,
        means,
    }
}

// ---------------------------------------------------------------------
// Figure 7: state in bytes
// ---------------------------------------------------------------------

/// One row of the Fig. 7 table.
#[derive(Debug, Clone)]
pub struct ByteRow {
    /// Protocol label.
    pub protocol: &'static str,
    /// Mean entries per node.
    pub mean_entries: f64,
    /// Maximum entries at any node.
    pub max_entries: f64,
    /// Mean kilobytes with IPv4-sized identifiers.
    pub mean_kb_v4: f64,
    /// Max kilobytes with IPv4-sized identifiers.
    pub max_kb_v4: f64,
    /// Mean kilobytes with IPv6-sized identifiers.
    pub mean_kb_v6: f64,
    /// Max kilobytes with IPv6-sized identifiers.
    pub max_kb_v6: f64,
}

/// The Fig. 7 byte-accounting table on one topology instance (the paper
/// uses the router-level Internet map).
pub fn state_bytes_table(inst: &Instance) -> Vec<ByteRow> {
    let Instance {
        graph,
        params,
        disco,
        s4,
        ..
    } = inst;
    let nodes = sample_nodes(params.nodes, params.state_samples, params.seed);

    let kb = |b: f64| b / 1024.0;
    let row = |protocol, entries: StateReport, bytes: &dyn Fn(IdentifierSize) -> ByteReport| {
        let (v4, v6) = (bytes(IdentifierSize::V4), bytes(IdentifierSize::V6));
        ByteRow {
            protocol,
            mean_entries: entries.mean(),
            max_entries: entries.max() as f64,
            mean_kb_v4: kb(v4.mean()),
            max_kb_v4: kb(v4.max()),
            mean_kb_v6: kb(v6.mean()),
            max_kb_v6: kb(v6.max()),
        }
    };
    let breakdown = |v: NodeId| disco.state_breakdown(graph, v);
    vec![
        row(
            "S4",
            StateReport::per_node(&nodes, |v| s4.state_entries(v)),
            &|id| state::s4_bytes(s4, &nodes, id),
        ),
        row(
            "ND-Disco",
            StateReport::per_node(&nodes, |v| breakdown(v).nddisco_total()),
            &|id| state::disco_bytes(graph, disco, &nodes, id, false),
        ),
        row(
            "Disco",
            StateReport::per_node(&nodes, |v| breakdown(v).disco_total()),
            &|id| state::disco_bytes(graph, disco, &nodes, id, true),
        ),
    ]
}

// ---------------------------------------------------------------------
// Figure 8: control messaging until convergence
// ---------------------------------------------------------------------

/// Mean messages per node until convergence for each protocol at one
/// network size.
#[derive(Debug, Clone)]
pub struct MessagingPoint {
    /// Number of nodes.
    pub nodes: usize,
    /// Full path-vector routing.
    pub path_vector: f64,
    /// S4 (cluster-rule path vector).
    pub s4: f64,
    /// NDDisco (vicinity-capped path vector).
    pub nddisco: f64,
    /// Disco with one dissemination finger.
    pub disco_1_finger: f64,
    /// Disco with three dissemination fingers.
    pub disco_3_finger: f64,
}

/// Run the Fig. 8 messaging experiment at one size on a `G(n, m)` graph.
pub fn messaging_point(n: usize, seed: u64) -> MessagingPoint {
    let graph = Topology::Gnm.build(n, seed);
    let cfg = DiscoConfig::seeded(seed);
    let landmarks = landmark::select_landmarks(n, &cfg);
    let lm_set: std::collections::HashSet<NodeId> = landmarks.iter().copied().collect();
    let vicinity = cfg.vicinity_size(n);

    let run_pv = |limit: TableLimit| -> f64 {
        let mut engine = Engine::new(&graph, |v| {
            PathVectorNode::new(v, lm_set.contains(&v), limit)
        });
        let report = engine.run();
        assert!(report.converged, "path vector variant did not converge");
        report.stats.mean_sent_per_node()
    };
    let run_disco = |fingers: usize| -> f64 {
        // Fig. 8 counts the routing protocol's own messages with `n`
        // known a priori (the paper's setting); live n-estimation — on by
        // default since it became the protocol's normal mode — would add
        // synopsis-gossip traffic the figure does not measure.
        let cfg = DiscoConfig::seeded(seed)
            .with_fingers(fingers)
            .with_dynamic_n_estimation(false);
        let mut engine = Engine::new(&graph, DiscoProtocol::network(n, &cfg));
        let report = engine.run();
        assert!(report.converged, "Disco did not converge");
        report.stats.mean_sent_per_node()
    };

    MessagingPoint {
        nodes: n,
        path_vector: run_pv(TableLimit::Unlimited),
        s4: run_pv(TableLimit::Cluster),
        nddisco: run_pv(TableLimit::VicinityCap { size: vicinity }),
        disco_1_finger: run_disco(1),
        disco_3_finger: run_disco(3),
    }
}

// ---------------------------------------------------------------------
// Figure 9: scaling with n
// ---------------------------------------------------------------------

/// Mean stretch and mean state at one network size (geometric graphs).
#[derive(Debug, Clone)]
pub struct ScalingPoint {
    /// Number of nodes.
    pub nodes: usize,
    /// Mean Disco first-packet stretch.
    pub disco_first: f64,
    /// Mean Disco later-packet stretch.
    pub disco_later: f64,
    /// Mean S4 first-packet stretch.
    pub s4_first: f64,
    /// Mean S4 later-packet stretch.
    pub s4_later: f64,
    /// Mean Disco state (entries per node).
    pub disco_state: f64,
    /// Mean NDDisco state.
    pub nddisco_state: f64,
    /// Mean S4 state.
    pub s4_state: f64,
}

/// Run the Fig. 9 scaling experiment at one size: state and stretch on
/// one geometric instance of `params.nodes` nodes.
pub fn scaling_point(params: &ExperimentParams) -> ScalingPoint {
    let inst = Instance::build(Topology::Geometric, params);
    let st = state_comparison(&inst);
    let sr = stretch_comparison(&inst);
    ScalingPoint {
        nodes: params.nodes,
        disco_first: sr.disco.mean_first(),
        disco_later: sr.disco.mean_later(),
        s4_first: sr.s4.mean_first(),
        s4_later: sr.s4.mean_later(),
        disco_state: st.disco.mean(),
        nddisco_state: st.nddisco.mean(),
        s4_state: st.s4.mean(),
    }
}

// ---------------------------------------------------------------------
// Figures 4/5-right, 10: congestion
// ---------------------------------------------------------------------

/// Per-protocol congestion reports for one topology instance.
#[derive(Debug, Clone)]
pub struct CongestionComparison {
    /// The topology measured.
    pub topology: Topology,
    /// Number of nodes.
    pub nodes: usize,
    /// Disco's later-packet routes.
    pub disco: CongestionReport,
    /// Shortest-path routing.
    pub path_vector: CongestionReport,
    /// S4's later-packet routes.
    pub s4: CongestionReport,
    /// VRR's greedy routes (only on an instance with VRR).
    pub vrr: Option<CongestionReport>,
}

/// The congestion comparison (Fig. 4/5 right on an instance with VRR,
/// Fig. 10 without) on one topology instance.
pub fn congestion_comparison(inst: &Instance) -> CongestionComparison {
    let graph = &inst.graph;
    let pairs = one_destination_per_node(inst.params.nodes, inst.params.seed);
    let disco_router = DiscoRouter::new(graph, &inst.disco);
    let s4_router = S4Router::new(graph, &inst.s4);
    let sp_router = ShortestPathRouter::new(graph);
    let vrr = inst.vrr.as_ref().map(|v| {
        let router = VrrRouter::new(graph, v);
        congestion::measure(graph, &pairs, |s, t| router.route(s, t).0)
    });
    CongestionComparison {
        topology: inst.topology,
        nodes: inst.params.nodes,
        disco: congestion::measure(graph, &pairs, |s, t| {
            disco_router.route_later_packet(s, t).nodes
        }),
        path_vector: congestion::measure(graph, &pairs, |s, t| {
            sp_router.route(s, t).nodes().to_vec()
        }),
        s4: congestion::measure(graph, &pairs, |s, t| s4_router.route_later_packet(s, t).0),
        vrr,
    }
}

// ---------------------------------------------------------------------
// §4.2: address size experiment
// ---------------------------------------------------------------------

/// Statistics of the compact explicit-route encoding (paper §4.2: mean
/// 2.93 B, 95th percentile 5 B, max 10.6 B on the router-level map).
#[derive(Debug, Clone)]
pub struct AddressSizeStats {
    /// Mean route size in bytes.
    pub mean_bytes: f64,
    /// 95th percentile.
    pub p95_bytes: f64,
    /// Maximum.
    pub max_bytes: f64,
    /// Mean total address size (landmark id + route) with IPv4 ids.
    pub mean_address_bytes_v4: f64,
}

/// Measure explicit-route sizes on one topology instance.
pub fn address_size_experiment(inst: &Instance) -> AddressSizeStats {
    let graph = &inst.graph;
    let sizes: Vec<f64> = graph
        .nodes()
        .map(|v| inst.disco.address_of(v).route_bytes(graph) as f64)
        .collect();
    let cdf = crate::cdf::Cdf::new(sizes);
    AddressSizeStats {
        mean_bytes: cdf.mean(),
        p95_bytes: cdf.percentile(0.95),
        max_bytes: cdf.max(),
        mean_address_bytes_v4: cdf.mean() + 4.0,
    }
}

// ---------------------------------------------------------------------
// §5.2: error in estimating n
// ---------------------------------------------------------------------

/// Outcome of one estimation-error run.
#[derive(Debug, Clone)]
pub struct EstimationErrorOutcome {
    /// Injected relative error.
    pub error: f64,
    /// Number of sampled (source, destination) pairs whose first packet had
    /// to fall back to the landmark resolution database (i.e. no member of
    /// the destination's group was found in the source's vicinity).
    pub fallback_pairs: usize,
    /// Total sampled pairs.
    pub total_pairs: usize,
    /// Mean first-packet stretch.
    pub mean_first_stretch: f64,
}

/// Run the §5.2 robustness experiment: inject up to `error` relative error
/// into every node's estimate of `n` and measure reachability (fallbacks)
/// and stretch.
pub fn estimation_error_experiment(
    params: &ExperimentParams,
    error: f64,
) -> EstimationErrorOutcome {
    let graph = Topology::Gnm.build(params.nodes, params.seed);
    let cfg = DiscoConfig::seeded(params.seed).with_n_estimate_error(error);
    let state = DiscoState::build(&graph, &cfg);
    let router = DiscoRouter::new(&graph, &state);
    let pairs = params.stretch_pairs();
    let mut fallbacks = 0usize;
    let mut stretches = Vec::with_capacity(pairs.len());
    for &(s, t) in &pairs {
        let out = router.route_first_packet(s, t);
        if out.category == disco_core::routing::RouteCategory::Fallback {
            fallbacks += 1;
        }
        stretches.push(out.stretch(router.true_distance(s, t)));
    }
    EstimationErrorOutcome {
        error,
        fallback_pairs: fallbacks,
        total_pairs: pairs.len(),
        mean_first_stretch: crate::cdf::Cdf::new(stretches).mean(),
    }
}

// ---------------------------------------------------------------------
// §5.2: accuracy of the static simulation
// ---------------------------------------------------------------------

/// Comparison of later-packet stretch measured over the static simulator's
/// state vs the discrete-event protocol's converged state.
#[derive(Debug, Clone)]
pub struct StaticAccuracyOutcome {
    /// Mean later-packet stretch over the static state.
    pub static_mean_stretch: f64,
    /// Mean later-packet stretch over the event-driven converged tables.
    pub event_mean_stretch: f64,
    /// Relative difference |static − event| / event.
    pub relative_difference: f64,
}

/// Run the static-vs-event-driven accuracy check on a `G(n, m)` graph.
pub fn static_accuracy_experiment(params: &ExperimentParams) -> StaticAccuracyOutcome {
    let graph = Topology::Gnm.build(params.nodes, params.seed);
    let cfg = DiscoConfig::seeded(params.seed);
    let n = params.nodes;

    // Static side.
    let state = DiscoState::build(&graph, &cfg);
    let pairs = params.stretch_pairs();
    let router = || DiscoRouter::new(&graph, &state);
    let static_mean = stretch::sample(&pairs, router, |r, s, t| {
        let x = r.route_later_packet(s, t).stretch(r.true_distance(s, t));
        (x, x)
    })
    .mean_later();

    // Event-driven side: run the bounded path-vector protocol to
    // convergence and route over its converged tables.
    let landmarks = landmark::select_landmarks(n, &cfg);
    let lm_set: std::collections::HashSet<NodeId> = landmarks.iter().copied().collect();
    let vicinity = cfg.vicinity_size(n);
    let mut engine = Engine::new(&graph, |v| {
        PathVectorNode::new(
            v,
            lm_set.contains(&v),
            TableLimit::VicinityCap { size: vicinity },
        )
    });
    let report = engine.run();
    assert!(report.converged);
    let nodes = engine.nodes();

    let sp = ShortestPathRouter::new(&graph);
    let mut stretches = Vec::with_capacity(pairs.len());
    for &(s, t) in &pairs {
        let d = sp.distance(s, t);
        let len = event_later_packet_length(&graph, nodes, s, t);
        stretches.push(if d <= 0.0 { 1.0 } else { len / d });
    }
    let event_mean = crate::cdf::Cdf::new(stretches).mean();

    StaticAccuracyOutcome {
        static_mean_stretch: static_mean,
        event_mean_stretch: event_mean,
        relative_difference: (static_mean - event_mean).abs() / event_mean.max(1e-12),
    }
}

/// Later-packet route length using the distributed protocol's converged
/// tables (handshake included), mirroring `DiscoRouter::route_later_packet`.
fn event_later_packet_length(graph: &Graph, nodes: &[PathVectorNode], s: NodeId, t: NodeId) -> f64 {
    let path_len = |path: &[NodeId]| -> f64 {
        path.windows(2)
            .map(|w| graph.edge_weight(w[0], w[1]).expect("table path edge"))
            .sum()
    };
    if s == t {
        return 0.0;
    }
    // Direct: t in s's table (vicinity member or landmark).
    if let Some(e) = nodes[s.0].route(t) {
        return e.dist;
    }
    // Handshake: s in t's table.
    if let Some(e) = nodes[t.0].route(s) {
        return e.dist;
    }
    // Landmark route: s → ℓ_t → t, where ℓ_t is t's closest landmark and
    // the last leg is the reverse of t's route to ℓ_t.
    let (lm, _) = nodes[t.0]
        .landmark_entries()
        .next()
        .expect("every node learns the landmarks");
    let lm_entry = nodes[t.0].route(lm).expect("a listed landmark");
    let s_to_lm = nodes[s.0]
        .route(lm)
        .expect("every node learns routes to all landmarks");
    // Apply To-Destination shortcutting along the concatenated path, exactly
    // as the protocol would.
    let mut full: Vec<NodeId> = s_to_lm.path.to_vec();
    let mut tail: Vec<NodeId> = lm_entry.path.to_vec();
    tail.reverse(); // t→ℓ_t becomes ℓ_t→t
    full.extend_from_slice(&tail[1..]);
    // To-Destination shortcut: first node on the path with t in its table.
    for (i, &u) in full.iter().enumerate() {
        if u == t {
            return path_len(&full[..=i]);
        }
        if let Some(e) = nodes[u.0].route(t) {
            return path_len(&full[..=i]) + e.dist;
        }
    }
    path_len(&full)
}

// ---------------------------------------------------------------------
// §4.4: overlay dissemination hop counts
// ---------------------------------------------------------------------

/// Dissemination statistics for one finger count.
#[derive(Debug, Clone)]
pub struct OverlayHopOutcome {
    /// Number of fingers per node.
    pub fingers: usize,
    /// Mean overlay hops for an announcement to reach a group member.
    pub mean_hops: f64,
    /// Maximum overlay hops observed.
    pub max_hops: u32,
    /// Mean overlay messages per announcement.
    pub mean_messages: f64,
    /// Fraction of (origin, core-group member) pairs reached.
    pub coverage: f64,
}

/// Run the §4.4 overlay experiment (paper: 1 finger → mean 5.77 / max 24;
/// 3 fingers → mean 3.04 / max 16 on a 1,024-node G(n,m) graph).
pub fn overlay_hops_experiment(params: &ExperimentParams, fingers: usize) -> OverlayHopOutcome {
    let n = params.nodes;
    let cfg = DiscoConfig::seeded(params.seed).with_fingers(fingers);
    let names: Vec<FlatName> = (0..n).map(FlatName::synthetic).collect();
    let estimates = NEstimates::exact(n);
    let grouping = SloppyGrouping::build(n, &cfg, &names, |v| estimates.of(v));
    let overlay = Overlay::build(&grouping, &cfg);
    let origins = sample_nodes(n, 256.min(n), params.seed);
    let stats = dissemination::disseminate_many(&overlay, &grouping, &origins);
    OverlayHopOutcome {
        fingers,
        mean_hops: stats.mean_hops,
        max_hops: stats.max_hops,
        mean_messages: stats.mean_messages,
        coverage: stats.coverage,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_params(n: usize, seed: u64) -> ExperimentParams {
        ExperimentParams {
            nodes: n,
            seed,
            state_samples: usize::MAX,
            stretch_sources: 8,
            stretch_dests_per_source: 6,
        }
    }

    #[test]
    fn state_comparison_smoke() {
        let params = small_params(200, 1);
        let cmp = state_comparison(&Instance::build(Topology::Gnm, &params).with_vrr());
        assert_eq!(cmp.disco.entries.len(), 200);
        assert!(cmp.nddisco.mean() <= cmp.disco.mean());
        assert!(cmp.vrr.is_some());
        assert_eq!(cmp.path_vector.unwrap().mean(), 199.0);
    }

    #[test]
    fn stretch_comparison_smoke() {
        let params = small_params(200, 2);
        let cmp = stretch_comparison(&Instance::build(Topology::Geometric, &params));
        assert!(cmp.disco.mean_first() >= 1.0);
        assert!(cmp.disco.max_later() <= 3.0 + 1e-9);
        assert!(cmp.s4.max_later() <= 3.0 + 1e-9);
    }

    #[test]
    fn shortcut_sweep_has_all_modes_in_order() {
        let params = small_params(150, 3);
        let row = shortcut_sweep(&Instance::build(Topology::Gnm, &params));
        assert_eq!(row.means.len(), 6);
        assert_eq!(row.means[0].0, ShortcutMode::None);
        // No-shortcut is the upper bound of the column.
        let base = row.means[0].1;
        for &(_, m) in &row.means[1..] {
            assert!(m <= base + 1e-9);
        }
    }

    #[test]
    fn byte_table_has_three_rows() {
        let params = small_params(150, 4);
        let rows = state_bytes_table(&Instance::build(Topology::RouterLevel, &params));
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert!(row.mean_kb_v6 > row.mean_kb_v4);
            assert!(row.max_entries >= row.mean_entries);
        }
    }

    #[test]
    fn messaging_point_orders_protocols() {
        let p = messaging_point(96, 5);
        assert!(
            p.path_vector > p.nddisco,
            "pv {} nd {}",
            p.path_vector,
            p.nddisco
        );
        assert!(p.disco_1_finger > p.nddisco);
        assert!(p.disco_3_finger >= p.disco_1_finger);
        assert!(p.s4 > 0.0);
    }

    #[test]
    fn scaling_point_smoke() {
        let p = scaling_point(&ExperimentParams::for_nodes(200, 6));
        assert!(p.disco_later <= p.disco_first + 1e-9);
        assert!(p.disco_state >= p.nddisco_state);
        assert!(p.s4_state > 0.0);
    }

    #[test]
    fn congestion_comparison_smoke() {
        let params = small_params(150, 7);
        let cmp = congestion_comparison(&Instance::build(Topology::Gnm, &params).with_vrr());
        assert_eq!(cmp.disco.edge_usage.len(), cmp.path_vector.edge_usage.len());
        assert!(cmp.vrr.is_some());
        let disco_total: u64 = cmp.disco.edge_usage.iter().sum();
        let sp_total: u64 = cmp.path_vector.edge_usage.iter().sum();
        assert!(disco_total >= sp_total);
    }

    #[test]
    fn address_sizes_are_small() {
        let params = small_params(400, 8);
        let stats = address_size_experiment(&Instance::build(Topology::RouterLevel, &params));
        assert!(stats.mean_bytes < 6.0, "mean {}", stats.mean_bytes);
        assert!(stats.max_bytes < 20.0);
        assert!(stats.p95_bytes >= stats.mean_bytes);
        assert!(stats.mean_address_bytes_v4 > stats.mean_bytes);
    }

    #[test]
    fn estimation_error_keeps_reachability() {
        let params = small_params(256, 9);
        let exact = estimation_error_experiment(&params, 0.0);
        let noisy = estimation_error_experiment(&params, 0.4);
        assert_eq!(exact.fallback_pairs, 0);
        // With 40% error the fallback count stays tiny and stretch barely
        // moves (paper: +0.6% mean stretch).
        assert!(noisy.fallback_pairs * 20 <= noisy.total_pairs);
        assert!(noisy.mean_first_stretch < exact.mean_first_stretch * 1.5);
    }

    #[test]
    fn static_accuracy_is_close() {
        // More sampled pairs than the other smoke tests: the 5% agreement
        // tolerance is tight enough that 8×6 pairs is dominated by sampling
        // noise rather than the static/event gap being measured.
        let params = ExperimentParams {
            stretch_sources: 12,
            stretch_dests_per_source: 12,
            ..small_params(200, 10)
        };
        let out = static_accuracy_experiment(&params);
        assert!(
            out.relative_difference < 0.05,
            "static {} vs event {}",
            out.static_mean_stretch,
            out.event_mean_stretch
        );
    }

    #[test]
    fn overlay_hops_improve_with_fingers() {
        let params = small_params(512, 11);
        let one = overlay_hops_experiment(&params, 1);
        let three = overlay_hops_experiment(&params, 3);
        assert!(one.coverage > 0.999);
        assert!(three.coverage > 0.999);
        assert!(three.mean_hops < one.mean_hops);
    }
}
