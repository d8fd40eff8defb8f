//! Determinism at any shard count, on the real protocol: the full Disco
//! control plane booted and churned on `ShardedEngine` at K = 1, 2 and 3
//! must deliver and drop the same messages, count the same per-node
//! statistics, end at the same simulated time and answer the same
//! availability probe. Every cross-shard message shape (single sends,
//! batched table dumps, floods) and `DiscoProtocol`'s wire form ride this
//! run.

use disco::core::config::DiscoConfig;
use disco::core::protocol::DiscoProtocol;
use disco::dynamics::probe::{disco_probe, sample_live_pairs, ProbeReport};
use disco::graph::{generators, NodeId};
use disco::sim::{MessageStats, ShardedEngine, TopologyEvent};

/// What a run must reproduce at every shard count.
#[derive(Debug, PartialEq)]
struct Outcome {
    delivered: u64,
    dropped: u64,
    topology_events: u64,
    end_time_bits: u64,
    stats: MessageStats,
    probe: ProbeReport,
}

fn run(shards: usize) -> Outcome {
    let (n, seed) = (96, 5);
    let graph = generators::gnm_average_degree(n, 8.0, seed);
    let cfg = DiscoConfig::seeded(seed).with_dynamic_n_estimation(false);
    let mut engine = ShardedEngine::new(&graph, shards, seed, DiscoProtocol::network(n, &cfg));
    // While the boot floods are in flight: a link failure, a departure,
    // and the departed node rejoining over links lighter than any in the
    // graph (the lookahead shrinks mid-run).
    let (a, b) = (NodeId(0), graph.neighbors(NodeId(0))[0].node);
    let leaver = NodeId(n / 2);
    engine.run_to(1.0);
    engine.schedule_topology(2.5, TopologyEvent::LinkDown { u: a, v: b });
    engine.schedule_topology(4.0, TopologyEvent::NodeLeave { node: leaver });
    engine.schedule_topology(
        40.0,
        TopologyEvent::NodeJoin {
            node: leaver,
            links: vec![(NodeId(1), 0.5), (NodeId(2), 0.75)],
        },
    );
    assert_eq!(engine.lookahead(), 0.5);
    assert!(engine.run_until(|_| false), "boot and repair must quiesce");

    let pairs = sample_live_pairs(&engine, 64, seed);
    let probe = disco_probe(&mut engine, &pairs);
    let report = engine.report(true);
    Outcome {
        delivered: report.messages_delivered,
        dropped: report.messages_dropped,
        topology_events: report.topology_events,
        end_time_bits: report.end_time.to_bits(),
        stats: report.stats,
        probe,
    }
}

#[test]
fn disco_churn_is_identical_at_one_two_and_three_shards() {
    let one = run(1);
    assert_eq!(one.topology_events, 3);
    assert!(one.dropped > 0, "the churn must lose messages in flight");
    assert_eq!(one.probe.pairs, 64);
    assert_eq!(
        one.probe.availability(),
        1.0,
        "every pair routes after repair"
    );
    for shards in [2, 3] {
        assert_eq!(run(shards), one, "shards={shards} diverged from one shard");
    }
}
