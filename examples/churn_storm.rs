//! A churn storm, survived live: where `flat_name_mobility` rebuilds the
//! whole world for every move (the static-simulator trick), this example
//! drives the *running* distributed protocol through the same kind of
//! upheaval with a `disco-dynamics` schedule — a flash crowd of new nodes,
//! rolling link failures, Poisson node churn and one highly mobile node
//! hopping across the network — and probes route availability while the
//! storm is in progress.
//!
//! The storm is a pure function of the seed: run it twice and every number
//! is identical.
//!
//! Run with: `cargo run --release --example churn_storm`

use disco::core::config::DiscoConfig;
use disco::core::landmark::select_landmarks;
use disco::core::protocol::{DiscoProtocol, PhaseTimers};
use disco::dynamics::models::{FlashCrowd, LinkFailures, PoissonChurn, Waypoints};
use disco::dynamics::probe::{disco_probe, sample_live_pairs};
use disco::graph::{generators, NodeId};
use disco::sim::ShardedEngine;
use std::collections::HashSet;

fn main() {
    let seed = 11;
    let n = 300;
    let graph = generators::gnm_average_degree(n, 8.0, seed);
    let cfg = DiscoConfig::seeded(seed);
    // Size estimates anticipate the flash crowd; landmark election uses the
    // initial population.
    let landmarks = select_landmarks(n, &cfg);
    let lm_set: HashSet<NodeId> = landmarks.iter().copied().collect();

    let mut engine = ShardedEngine::new(&graph, 1, seed, move |v| {
        DiscoProtocol::new(v, lm_set.contains(&v), n, &cfg, PhaseTimers::default())
    });
    let report = engine.run();
    assert!(report.converged);
    println!(
        "converged: {} nodes, {} landmarks, {:.0} control msgs/node",
        n,
        landmarks.len(),
        report.stats.mean_sent_per_node()
    );

    // The storm: four models compiled into one deterministic schedule.
    let horizon = 1200.0;
    let storm = FlashCrowd {
        arrivals: 24,
        at: 50.0,
        spread: 200.0,
        attach_links: 3,
        link_weight: 1.0,
    }
    .compile(&graph, seed)
    .merge(
        LinkFailures {
            mtbf: 4000.0,
            mttr: 60.0,
            horizon,
        }
        .compile(&graph, seed),
    )
    .merge(
        PoissonChurn {
            leave_rate_per_node: 0.0003,
            mean_downtime: 120.0,
            horizon,
            ..PoissonChurn::default()
        }
        .compile(&graph, seed),
    )
    .merge(
        // One frantic device: joins as a brand-new node (after the flash
        // crowd ids) and re-attaches somewhere else every 150 time units,
        // keeping its flat name the whole way.
        Waypoints {
            node: NodeId(n + 24),
            moves: 7,
            start: 100.0,
            period: 150.0,
            attach_links: 2,
            link_weight: 1.0,
        }
        .compile(&graph, seed),
    );
    println!(
        "storm: {} topology events over {horizon} time units",
        storm.len()
    );

    let start = engine.now();
    storm.apply_to(&mut engine);

    println!(
        "\n{:>8} {:>6} {:>10} {:>10} {:>13}",
        "time", "live", "routable", "delivered", "mean_stretch"
    );
    for i in 1..=6 {
        let t = start + horizon * i as f64 / 6.0;
        engine.run_to(t);
        let pairs = sample_live_pairs(&engine, 96, seed ^ i as u64);
        let p = disco_probe(&mut engine, &pairs);
        println!(
            "{:>8.0} {:>6} {:>10} {:>10} {:>13.3}",
            t - start,
            engine.active_count(),
            p.routable,
            p.delivered,
            p.mean_stretch()
        );
    }

    let quiesced = engine.run_until(|_| false);
    let pairs = sample_live_pairs(&engine, 96, seed ^ 0xdead);
    let p = disco_probe(&mut engine, &pairs);
    println!(
        "\nafter the storm (quiesced: {quiesced}): {} live nodes, availability {:.4}, mean stretch {:.3}",
        engine.active_count(),
        p.availability(),
        p.mean_stretch()
    );

    // The mobile node kept its identity through every re-attachment.
    let mobile = NodeId(n + 24);
    let (hash, landmark) = engine.visit(engine.owner_of(mobile), move |e| {
        let node = &e.nodes()[mobile.0];
        (node.my_hash(), node.my_address().map(|a| a.landmark))
    });
    println!("mobile node {mobile} still answers to hash {hash} at landmark {landmark:?}");
    println!(
        "storm cost: {} in-flight messages lost, {} topology events applied",
        engine.messages_dropped(),
        engine.topology_events()
    );
}
