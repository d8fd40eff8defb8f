//! Internet-like comparison: Disco vs NDDisco vs S4 on a synthetic
//! router-level topology (the scenario behind the paper's Fig. 2/3/7).
//!
//! Run with: `cargo run --release --example internet_scale_comparison -- 4096`
//! (the optional argument is the node count; default 2048).

use disco::baselines::{S4Router, S4State};
use disco::core::prelude::*;
use disco::graph::generators;
use disco::metrics::{experiment::ExperimentParams, state::StateReport, stretch};

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(2048);
    let seed = 5;
    let graph = generators::internet_router_like(n, seed);
    println!(
        "router-level-like topology: {} nodes, {} links, max degree {}",
        graph.node_count(),
        graph.edge_count(),
        graph.max_degree()
    );

    let cfg = DiscoConfig::seeded(seed);
    let disco_state = DiscoState::build(&graph, &cfg);
    let s4_state = S4State::build(&graph, &cfg);

    // State comparison (Fig. 2 flavour).
    let nodes: Vec<_> = graph.nodes().collect();
    let breakdown = |v| disco_state.state_breakdown(&graph, v);
    let disco = StateReport::per_node(&nodes, |v| breakdown(v).disco_total());
    let nddisco = StateReport::per_node(&nodes, |v| breakdown(v).nddisco_total());
    let s4 = StateReport::per_node(&nodes, |v| s4_state.state_entries(v));
    println!("\nstate (entries per node):      mean      max");
    for (name, r) in [("Disco", disco), ("ND-Disco", nddisco), ("S4", s4)] {
        println!("  {name:<24} {:>8.1} {:>8}", r.mean(), r.max());
    }

    // Stretch comparison (Fig. 3 flavour).
    let params = ExperimentParams::for_nodes(n, seed);
    let pairs = disco::metrics::sample_pairs(
        n,
        params.stretch_sources * params.stretch_dests_per_source,
        seed,
    );
    let disco_router = || DiscoRouter::new(&graph, &disco_state);
    let d = stretch::sample(&pairs, disco_router, |r, s, t| {
        let dist = r.true_distance(s, t);
        let first = r.route_first_packet(s, t).stretch(dist);
        (first, r.route_later_packet(s, t).stretch(dist))
    });
    let s4_router = || S4Router::new(&graph, &s4_state);
    let s = stretch::sample(&pairs, s4_router, |r, s, t| {
        (r.first_packet_stretch(s, t), r.later_packet_stretch(s, t))
    });
    println!("\nstretch (mean / max):");
    for (name, r) in [("Disco", &d), ("S4", &s)] {
        let (first, later) = (format!("{name} first"), format!("{name} later"));
        println!("  {first:<14}{:.3} / {:.3}", r.mean_first(), r.max_first());
        println!("  {later:<14}{:.3} / {:.3}", r.mean_later(), r.max_later());
    }
}
