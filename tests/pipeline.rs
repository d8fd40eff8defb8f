//! End-to-end integration tests across all workspace crates: the figure
//! pipelines at reduced scale, the distributed protocols against the static
//! simulator, and the public facade re-exports.

use disco::core::prelude::*;
use disco::graph::NodeId;
use disco::metrics::experiment::{self, ExperimentParams, Instance};
use disco::metrics::Topology;

fn params(n: usize, seed: u64) -> ExperimentParams {
    ExperimentParams {
        nodes: n,
        seed,
        state_samples: usize::MAX,
        stretch_sources: 8,
        stretch_dests_per_source: 6,
    }
}

#[test]
fn facade_reexports_are_usable() {
    let g = disco::graph::generators::ring(32);
    let state = DiscoState::build(&g, &DiscoConfig::seeded(1));
    let router = DiscoRouter::new(&g, &state);
    let out = router.route_first_packet(NodeId(0), NodeId(16));
    assert_eq!(*out.nodes.last().unwrap(), NodeId(16));
    assert!(out.length >= 16.0 - 1e-9);
}

#[test]
fn fig2_and_fig3_pipelines_run_on_all_topologies() {
    for topo in Topology::ALL {
        let inst = Instance::build(topo, &params(220, 3));
        let st = experiment::state_comparison(&inst);
        assert_eq!(st.disco.entries.len(), 220);
        assert!(st.nddisco.mean() <= st.disco.mean());
        let sr = experiment::stretch_comparison(&inst);
        assert!(sr.disco.mean_first() >= 1.0 - 1e-9);
        assert!(sr.disco.max_later() <= 3.0 + 1e-9, "{topo}");
    }
}

#[test]
fn fig4_style_pipeline_includes_vrr_and_path_vector() {
    let inst = Instance::build(Topology::Gnm, &params(200, 5)).with_vrr();
    let st = experiment::state_comparison(&inst);
    let vrr = st.vrr.expect("VRR included");
    let pv = st.path_vector.expect("path vector included");
    assert_eq!(pv.mean(), 199.0);
    // VRR's state distribution is heavily unbalanced (no bound on per-node
    // state), unlike Disco's capped vicinities.
    let mut vrr_entries = vrr.entries.clone();
    vrr_entries.sort_unstable();
    let vrr_median = vrr_entries[vrr_entries.len() / 2];
    assert!(
        vrr.max() >= 2 * vrr_median,
        "VRR max {} median {}",
        vrr.max(),
        vrr_median
    );
    assert!((st.disco.max() as f64) < 2.0 * st.disco.mean());

    let cg = experiment::congestion_comparison(&inst);
    assert!(cg.vrr.is_some());
    let disco_total: u64 = cg.disco.edge_usage.iter().sum();
    let sp_total: u64 = cg.path_vector.edge_usage.iter().sum();
    assert!(disco_total >= sp_total);
}

#[test]
fn fig6_ordering_matches_paper() {
    // The paper's Fig. 6: every shortcutting heuristic improves on "No
    // Shortcutting", and "Using Path Knowledge" is the best (lowest mean).
    let inst = Instance::build(Topology::Geometric, &params(250, 7));
    let row = experiment::shortcut_sweep(&inst);
    let base = row.means[0].1;
    let best = row.means.last().unwrap().1;
    for &(_, m) in &row.means {
        assert!(m <= base + 1e-9);
        assert!(m >= 1.0 - 1e-9);
    }
    assert!(
        best <= row.means[3].1 + 1e-9,
        "Path Knowledge must be at least as good as No Path Knowledge"
    );
}

#[test]
fn fig8_messaging_ordering() {
    let point = experiment::messaging_point(128, 11);
    // Paper Fig. 8 ordering: path vector >> Disco-3 ≥ Disco-1 > NDDisco,
    // and NDDisco within a small factor of S4.
    assert!(point.path_vector > point.disco_3_finger);
    assert!(point.disco_3_finger >= point.disco_1_finger);
    assert!(point.disco_1_finger > point.nddisco);
    assert!(point.nddisco > 0.0 && point.s4 > 0.0);
}

#[test]
fn fig9_state_grows_sublinearly() {
    let small = experiment::scaling_point(&ExperimentParams::for_nodes(256, 13));
    let large = experiment::scaling_point(&ExperimentParams::for_nodes(1024, 13));
    // A 4x increase in n should grow Disco state by roughly 2x (√n), far
    // less than 4x; allow slack for the log factor and constants.
    let growth = large.disco_state / small.disco_state;
    assert!(growth > 1.4 && growth < 3.2, "state growth {growth}");
    // Stretch stays low and roughly flat.
    assert!(large.disco_later < 1.6);
    assert!(large.disco_first >= large.disco_later - 1e-9);
}

#[test]
fn estimation_error_and_static_accuracy_experiments() {
    let p = params(220, 17);
    let exact = experiment::estimation_error_experiment(&p, 0.0);
    assert_eq!(exact.fallback_pairs, 0);
    let noisy = experiment::estimation_error_experiment(&p, 0.6);
    assert!(noisy.mean_first_stretch >= 1.0 - 1e-9);

    let acc = experiment::static_accuracy_experiment(&p);
    // The paper reports <1% difference at 1,024 nodes; at this small test
    // size sampling noise dominates, so allow a wider band.
    assert!(
        acc.relative_difference < 0.10,
        "static {} vs event {}",
        acc.static_mean_stretch,
        acc.event_mean_stretch
    );
}

#[test]
fn address_size_experiment_matches_paper_scale() {
    let inst = Instance::build(Topology::RouterLevel, &params(2000, 19));
    let stats = experiment::address_size_experiment(&inst);
    // Paper (router-level Internet): mean 2.93 B, p95 5 B, max 10.6 B. Our
    // synthetic graph is smaller so routes are a little shorter; assert the
    // same order of magnitude and orderings.
    assert!(stats.mean_bytes > 0.3 && stats.mean_bytes < 6.0);
    assert!(stats.p95_bytes <= 10.0);
    assert!(stats.max_bytes <= 24.0);
    assert!(stats.mean_bytes <= stats.p95_bytes && stats.p95_bytes <= stats.max_bytes);
}

#[test]
fn overlay_dissemination_covers_groups_at_scale() {
    let p = params(1024, 23);
    let one = experiment::overlay_hops_experiment(&p, 1);
    let three = experiment::overlay_hops_experiment(&p, 3);
    assert!(one.coverage > 0.999 && three.coverage > 0.999);
    assert!(three.mean_hops < one.mean_hops);
    assert!(one.max_hops >= three.max_hops);
}
