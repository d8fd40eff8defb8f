//! Flood groups are built once per adjacency change and reused by every
//! later flood. After each kind of topology event — `LinkUp`, `LinkDown`,
//! `NodeLeave`, `NodeJoin` — a flood sent by any node reaches exactly that
//! node's current neighbors, none of them twice and no copy lost to a
//! link that is gone: for the nodes the event touched and for their
//! neighbors alike, on the sequential engine and on one and two shards.

use disco_graph::{Graph, GraphBuilder, NodeId};
use disco_sim::{Context, Engine, Protocol, ShardProtocol, ShardedEngine, TopologyEvent};
use std::collections::BTreeSet;

/// When the topology event applies: after the boot floods settled.
const EVENT_AT: f64 = 5.0;
/// When every node floods again: after the event.
const FLOOD_AT: f64 = 10.0;

/// Floods round 0 on start (which builds every node's flood groups) and
/// round 1 at [`FLOOD_AT`]; logs every `(sender, round)` it hears.
#[derive(Default)]
struct Echo {
    heard: Vec<(NodeId, u32)>,
}

#[derive(Clone)]
struct Round(u32);

impl Protocol for Echo {
    type Message = Round;

    fn on_start(&mut self, ctx: &mut Context<'_, Round>) {
        ctx.broadcast(Round(0));
        ctx.set_timer(FLOOD_AT - ctx.now(), 1);
    }

    fn on_message(&mut self, from: NodeId, msg: Round, _ctx: &mut Context<'_, Round>) {
        self.heard.push((from, msg.0));
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_, Round>) {
        ctx.broadcast(Round(token as u32));
    }
}

impl ShardProtocol for Echo {
    type Wire = Round;
    fn to_wire(msg: Round) -> Round {
        msg
    }
    fn from_wire(wire: Round) -> Round {
        wire
    }
}

/// An 8-node ring with two chords, links of weight 1 and 2 alternating so
/// a node's flood splits into groups by arrival instant.
fn ring() -> Graph {
    let mut b = GraphBuilder::new(8);
    for i in 0..8 {
        let w = if i % 2 == 0 { 1.0 } else { 2.0 };
        b.add_edge(NodeId(i), NodeId((i + 1) % 8), w);
    }
    b.add_edge(NodeId(1), NodeId(5), 1.0);
    b.add_edge(NodeId(2), NodeId(6), 2.0);
    b.build()
}

/// Each event with the nodes whose adjacency it changes.
fn events() -> Vec<(TopologyEvent, Vec<usize>)> {
    vec![
        (
            TopologyEvent::LinkUp {
                u: NodeId(0),
                v: NodeId(4),
                weight: 1.5,
            },
            vec![0, 4],
        ),
        (
            TopologyEvent::LinkDown {
                u: NodeId(1),
                v: NodeId(2),
            },
            vec![1, 2],
        ),
        (
            TopologyEvent::NodeLeave { node: NodeId(5) },
            vec![5, 4, 6, 1],
        ),
        (
            TopologyEvent::NodeJoin {
                node: NodeId(8),
                links: vec![(NodeId(0), 1.0), (NodeId(3), 2.0)],
            },
            vec![8, 0, 3],
        ),
    ]
}

/// The round-1 receivers of every active sender, from each receiver's
/// log, must be exactly the sender's neighbors in `graph` — checked for
/// every active node, so for each touched node and for a neighbor of one
/// that the event did not touch.
fn check(
    graph: &Graph,
    active: &[NodeId],
    logs: &[(NodeId, Vec<(NodeId, u32)>)],
    touched: &[usize],
) {
    let untouched_neighbor = touched
        .iter()
        .flat_map(|&t| graph.neighbors(NodeId(t)))
        .any(|nb| !touched.contains(&nb.node.0));
    assert!(untouched_neighbor, "the event touches every neighbor");
    for &sender in active {
        let mut reached = Vec::new();
        for (receiver, heard) in logs {
            let copies = heard.iter().filter(|&&h| h == (sender, 1)).count();
            reached.extend(std::iter::repeat_n(*receiver, copies));
        }
        let want: Vec<NodeId> = graph.neighbors(sender).iter().map(|nb| nb.node).collect();
        let got: BTreeSet<NodeId> = reached.iter().copied().collect();
        assert_eq!(reached.len(), got.len(), "{sender}: a neighbor heard twice");
        assert_eq!(
            got,
            want.iter().copied().collect::<BTreeSet<_>>(),
            "{sender}: flood targets after the event (touched {touched:?})"
        );
    }
}

#[test]
fn floods_after_each_topology_event_reach_exactly_the_current_neighbors() {
    let g = ring();
    for (event, touched) in events() {
        let mut seq = Engine::new(&g, |_| Echo::default());
        seq.schedule_topology(EVENT_AT, event.clone());
        seq.run_to(FLOOD_AT - 1.0);
        let dropped = seq.messages_dropped();
        assert!(seq.run().converged);
        assert_eq!(seq.messages_dropped(), dropped, "a flood copy was lost");
        let active: Vec<NodeId> = seq.active_nodes().collect();
        let seq_logs: Vec<_> = active
            .iter()
            .map(|&v| (v, seq.nodes()[v.0].heard.clone()))
            .collect();
        check(seq.graph(), &active, &seq_logs, &touched);

        for shards in [1, 2] {
            let mut sh = ShardedEngine::new(&g, shards, 3, |_| Echo::default());
            sh.schedule_topology(EVENT_AT, event.clone());
            sh.run_to(FLOOD_AT - 1.0);
            let dropped = sh.messages_dropped();
            assert!(sh.run().converged);
            assert_eq!(
                sh.messages_dropped(),
                dropped,
                "K={shards}: a copy was lost"
            );
            let items = active.iter().map(|&v| (v, ())).collect();
            let heard = sh.gather(items, |e, v, ()| e.nodes()[v.0].heard.clone());
            let logs: Vec<_> = active.iter().copied().zip(heard).collect();
            check(sh.graph(), &active, &logs, &touched);
            assert_eq!(logs, seq_logs, "K={shards} differs from the sequential run");
        }
    }
}
