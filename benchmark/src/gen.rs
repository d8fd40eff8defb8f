//! Workload generators. `--seed` feeds the traffic generators here (probe
//! pairs, flows) and nothing else: the program under test receives what
//! they generate, never the seed that made it. The event script is drawn
//! from the network's own fixed seed (see [`Net`]).

use crate::net::{Net, NETWORK_SEED};
use disco_graph::{Graph, NodeId};
use disco_sim::rng::rng_for;
use disco_sim::TopologyEvent;
use rand::Rng;

/// RNG stream ids (distinct from the protocol's own streams).
const SCRIPT_STREAM: u64 = 0xb0;
const FLOW_STREAM: u64 = 0xb1;
const PROBE_STREAM: u64 = 0xb2;

/// Kind of one scripted topology event, for per-kind reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    LinkDown,
    LinkUp,
    NodeLeave,
    NodeJoin,
    LandmarkLeave,
    /// Restores the landmark after a departure; applied but not timed.
    LandmarkJoin,
}

impl Kind {
    /// The four ordinary kinds, in the order one script cycle plays them.
    pub const ORDINARY: [Kind; 4] = [
        Kind::LinkDown,
        Kind::LinkUp,
        Kind::NodeLeave,
        Kind::NodeJoin,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::LinkDown => "link_down",
            Kind::LinkUp => "link_up",
            Kind::NodeLeave => "node_leave",
            Kind::NodeJoin => "node_join",
            Kind::LandmarkLeave => "lm_leave",
            Kind::LandmarkJoin => "lm_join",
        }
    }

    pub fn is_ordinary(self) -> bool {
        Kind::ORDINARY.contains(&self)
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct ScriptEvent {
    pub kind: Kind,
    pub event: TopologyEvent,
}

fn links_of(graph: &Graph, v: NodeId) -> Vec<(NodeId, f64)> {
    graph
        .neighbors(v)
        .iter()
        .map(|nb| (nb.node, nb.weight))
        .collect()
}

/// `ordinary` events cycling link-down → link-up (same link) → node-leave
/// → node-join (same node, same links), then `lm_departures` landmark
/// departures, each followed by its rejoin. Every cycle ends on the
/// original topology, so one event's repair never overlaps the next
/// event's outage. An ordinary event never takes a node's last link or a
/// landmark away, so every live pair stays routable and no probe can fail
/// for lack of a path.
///
/// Like the network, the script is the same for every `--seed`: which
/// events it holds moves its latency percentiles by 10–20 %.
pub fn repair_script(net: &Net, ordinary: usize, lm_departures: usize) -> Vec<ScriptEvent> {
    let g = &net.graph;
    let mut rng = rng_for(NETWORK_SEED, SCRIPT_STREAM, 0);
    let edges: Vec<(NodeId, NodeId, f64)> = g
        .edges()
        .map(|(_, e)| (e.u, e.v, e.weight))
        .filter(|&(u, v, _)| g.degree(u) >= 2 && g.degree(v) >= 2)
        .collect();
    let nodes: Vec<NodeId> = g
        .nodes()
        .filter(|v| !net.lm_set.contains(v))
        .filter(|&v| g.neighbors(v).iter().all(|nb| g.degree(nb.node) >= 2))
        .collect();
    assert!(
        !edges.is_empty() && !nodes.is_empty(),
        "topology too small for a repair script"
    );
    let mut script = Vec::with_capacity(ordinary + 2 * lm_departures);
    'cycles: loop {
        let (u, v, weight) = edges[rng.gen_range(0..edges.len())];
        let node = nodes[rng.gen_range(0..nodes.len())];
        let cycle = [
            (Kind::LinkDown, TopologyEvent::LinkDown { u, v }),
            (Kind::LinkUp, TopologyEvent::LinkUp { u, v, weight }),
            (Kind::NodeLeave, TopologyEvent::NodeLeave { node }),
            (
                Kind::NodeJoin,
                TopologyEvent::NodeJoin {
                    node,
                    links: links_of(g, node),
                },
            ),
        ];
        for (kind, event) in cycle {
            if script.len() == ordinary {
                break 'cycles;
            }
            script.push(ScriptEvent { kind, event });
        }
    }
    // An odd `ordinary` would leave a link or node down: round the cut to
    // the end of a down/up pair.
    if script.len() % 2 == 1 {
        script.pop();
    }
    for _ in 0..lm_departures {
        let node = net.landmarks[rng.gen_range(0..net.landmarks.len())];
        script.push(ScriptEvent {
            kind: Kind::LandmarkLeave,
            event: TopologyEvent::NodeLeave { node },
        });
        script.push(ScriptEvent {
            kind: Kind::LandmarkJoin,
            event: TopologyEvent::NodeJoin {
                node,
                links: links_of(g, node),
            },
        });
    }
    script
}

/// One batch of `count` flows over `live`: sources uniform, destinations
/// alternating Zipf(1)-by-rank (rank = position in `live`) and uniform,
/// as `exp_forward` samples them. Deterministic in `(seed, batch)`.
pub fn flows(live: &[NodeId], count: usize, seed: u64, batch: u64) -> Vec<(NodeId, NodeId)> {
    assert!(live.len() >= 2, "flows need two live nodes");
    let mut rng = rng_for(seed, FLOW_STREAM, batch);
    let mut cdf = Vec::with_capacity(live.len());
    let mut acc = 0.0f64;
    for rank in 0..live.len() {
        acc += 1.0 / (rank + 1) as f64;
        cdf.push(acc);
    }
    (0..count)
        .map(|i| {
            let s = live[rng.gen_range(0..live.len())];
            let t = loop {
                let t = if i % 2 == 0 {
                    let x = rng.gen::<f64>() * acc;
                    live[cdf.partition_point(|&c| c < x).min(live.len() - 1)]
                } else {
                    live[rng.gen_range(0..live.len())]
                };
                if t != s {
                    break t;
                }
            };
            (s, t)
        })
        .collect()
}

/// The `count` uniform probe pairs walked after repair event `event`.
pub fn probes(live: &[NodeId], count: usize, seed: u64, event: u64) -> Vec<(NodeId, NodeId)> {
    assert!(live.len() >= 2, "probes need two live nodes");
    let mut rng = rng_for(seed, PROBE_STREAM, event);
    (0..count)
        .map(|_| {
            let s = live[rng.gen_range(0..live.len())];
            let t = loop {
                let t = live[rng.gen_range(0..live.len())];
                if t != s {
                    break t;
                }
            };
            (s, t)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_traffic_other_seed_other_traffic() {
        let (a, b) = (Net::generate(96), Net::generate(96));
        assert_eq!(repair_script(&a, 40, 2), repair_script(&b, 40, 2));
        assert_ne!(repair_script(&a, 40, 2), repair_script(&a, 44, 2));
        let live: Vec<NodeId> = a.graph.nodes().collect();
        assert_eq!(flows(&live, 500, 1, 3), flows(&live, 500, 1, 3));
        assert_ne!(flows(&live, 500, 1, 3), flows(&live, 500, 2, 3));
        assert_ne!(flows(&live, 500, 1, 3), flows(&live, 500, 1, 4));
        assert_eq!(probes(&live, 64, 1, 9), probes(&live, 64, 1, 9));
        assert_ne!(probes(&live, 64, 1, 9), probes(&live, 64, 2, 9));
        assert!(flows(&live, 500, 1, 0).iter().all(|(s, t)| s != t));
    }

    /// Ordinary departures spare landmarks, and nothing stays down from
    /// one event to the next: every down is undone by the very next event.
    #[test]
    fn script_spares_landmarks_and_restores_every_outage() {
        for n in [96, 128, 256] {
            let net = Net::generate(n);
            // 41 is cut back to 40 so the script cannot end on an outage.
            let script = repair_script(&net, 41, 2);
            assert_eq!(script.len(), 40 + 4);
            for pair in script.chunks(2) {
                match (&pair[0].event, &pair[1].event) {
                    (
                        TopologyEvent::LinkDown { u, v },
                        TopologyEvent::LinkUp {
                            u: u2,
                            v: v2,
                            weight,
                        },
                    ) => {
                        assert_eq!((u, v), (u2, v2));
                        assert_eq!(net.graph.edge_weight(*u, *v), Some(*weight));
                    }
                    (
                        TopologyEvent::NodeLeave { node },
                        TopologyEvent::NodeJoin { node: back, links },
                    ) => {
                        assert_eq!(node, back);
                        assert_eq!(links, &links_of(&net.graph, *node));
                        let lm = net.lm_set.contains(node);
                        assert_eq!(lm, pair[0].kind == Kind::LandmarkLeave);
                        assert_eq!(lm, pair[1].kind == Kind::LandmarkJoin);
                        assert_eq!(!lm, pair[0].kind == Kind::NodeLeave);
                    }
                    other => panic!("unpaired events {other:?}"),
                }
            }
            let ordinary = script.iter().filter(|e| e.kind.is_ordinary()).count();
            assert_eq!(ordinary, 40);
        }
    }
}
