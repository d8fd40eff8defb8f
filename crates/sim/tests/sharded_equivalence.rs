//! The sharded engine's contract, property-tested: for ANY churn schedule
//! and ANY shard count, the parallel run is *byte-identical* to the
//! sequential engine — per-node upcall logs (times captured as f64 bit
//! patterns), `MessageStats`, delivered/dropped counts, topology events
//! and the simulation end time. Conservative lookahead plus logical event
//! keys make worker interleaving unobservable; this test is the lock on
//! that argument.

use disco_graph::{generators, Graph, NodeId};
use disco_sim::rng::rng_for;
use disco_sim::{
    Context, Engine, Partition, Protocol, ShardProtocol, ShardedEngine, TopologyEvent,
};
use proptest::prelude::*;
use rand::Rng;

/// A deliberately chatty protocol: floods on start, re-floods on receipt
/// (bounded by hop count), fires cascading timers, and reacts to link
/// flaps — so logs cover every upcall kind the engine dispatches.
#[derive(Default)]
struct Chatter {
    /// Every upcall, logged as `(time bits, peer, tag)` — exact f64 bit
    /// patterns, so "equal" means byte-identical schedules.
    log: Vec<LogEntry>,
}

/// `(time bits, peer, tag)` — one logged upcall.
type LogEntry = (u64, usize, u32);

#[derive(Clone)]
struct Hello(u32);

impl Protocol for Chatter {
    type Message = Hello;

    fn on_start(&mut self, ctx: &mut Context<'_, Hello>) {
        ctx.set_timer(0.5 + (ctx.node_id().0 % 3) as f64 * 0.75, 0);
        ctx.broadcast(Hello(0));
    }

    fn on_message(&mut self, from: NodeId, msg: Hello, ctx: &mut Context<'_, Hello>) {
        self.log.push((ctx.now().to_bits(), from.0, msg.0));
        if msg.0 < 2 {
            ctx.broadcast(Hello(msg.0 + 1));
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_, Hello>) {
        self.log
            .push((ctx.now().to_bits(), usize::MAX, token as u32));
        if token < 2 {
            ctx.set_timer(1.25, token + 1);
            ctx.broadcast(Hello(2));
        }
    }

    fn on_neighbor_up(&mut self, peer: NodeId, ctx: &mut Context<'_, Hello>) {
        self.log.push((ctx.now().to_bits(), peer.0, 1000));
        ctx.send(peer, Hello(2));
    }

    fn on_neighbor_down(&mut self, peer: NodeId, ctx: &mut Context<'_, Hello>) {
        self.log.push((ctx.now().to_bits(), peer.0, 1001));
        ctx.broadcast(Hello(2));
    }
}

impl ShardProtocol for Chatter {
    type Wire = Hello;
    fn to_wire(msg: Hello) -> Hello {
        msg
    }
    fn from_wire(wire: Hello) -> Hello {
        wire
    }
}

/// Weights a rejoining node's links draw from: two of them lighter than
/// every link of the generated graph (1.0), so rejoins lower the sharded
/// engine's lookahead while it runs.
const JOIN_WEIGHTS: [f64; 4] = [0.25, 0.5, 1.0, 1.5];

/// A random-but-valid churn schedule, in time order: leaves keep a quorum
/// alive, joins resurrect departed nodes with fresh links to live peers.
fn random_schedule(n: usize, events: usize, seed: u64) -> Vec<(f64, TopologyEvent)> {
    let mut rng = rng_for(seed, 0x5eed, 1);
    let mut alive: Vec<bool> = vec![true; n];
    let mut departed: Vec<usize> = Vec::new();
    let mut schedule = Vec::with_capacity(events);
    let mut t = 0.0f64;
    for _ in 0..events {
        t += 0.25 + rng.gen_range(0..32u32) as f64 / 16.0;
        let alive_count = alive.iter().filter(|&&a| a).count();
        let rejoin = !departed.is_empty() && (alive_count <= n / 2 || rng.gen_range(0..3u32) == 0);
        if rejoin {
            let node = departed.swap_remove(rng.gen_range(0..departed.len()));
            let peers: Vec<usize> = (0..n).filter(|&v| alive[v]).collect();
            let a = peers[rng.gen_range(0..peers.len())];
            let b = peers[rng.gen_range(0..peers.len())];
            let mut weight = || JOIN_WEIGHTS[rng.gen_range(0..JOIN_WEIGHTS.len())];
            let mut links = vec![(NodeId(a), weight())];
            if b != a {
                links.push((NodeId(b), weight()));
            }
            alive[node] = true;
            schedule.push((
                t,
                TopologyEvent::NodeJoin {
                    node: NodeId(node),
                    links,
                },
            ));
        } else {
            let live: Vec<usize> = (0..n).filter(|&v| alive[v]).collect();
            let node = live[rng.gen_range(0..live.len())];
            alive[node] = false;
            departed.push(node);
            schedule.push((t, TopologyEvent::NodeLeave { node: NodeId(node) }));
        }
    }
    schedule
}

/// A flood-only protocol on unit weights: every node floods on start and
/// re-floods what it hears for two more hops, with no timers — so the
/// whole run marches in lockstep at multiples of one hop latency, and
/// *every* cross-shard arrival lands on exactly the tick its receiver's
/// barrier peek just looked at.
#[derive(Default)]
struct Lockstep {
    log: Vec<LogEntry>,
}

impl Protocol for Lockstep {
    type Message = Hello;

    fn on_start(&mut self, ctx: &mut Context<'_, Hello>) {
        ctx.broadcast(Hello(0));
    }

    fn on_message(&mut self, from: NodeId, msg: Hello, ctx: &mut Context<'_, Hello>) {
        self.log.push((ctx.now().to_bits(), from.0, msg.0));
        if msg.0 < 2 {
            ctx.broadcast(Hello(msg.0 + 1));
        }
    }
}

impl ShardProtocol for Lockstep {
    type Wire = Hello;
    fn to_wire(msg: Hello) -> Hello {
        msg
    }
    fn from_wire(wire: Hello) -> Hello {
        wire
    }
}

/// A protocol whose instances expose their upcall log.
trait Logged: ShardProtocol + Default + 'static {
    fn log(&self) -> &Vec<LogEntry>;
}

impl Logged for Chatter {
    fn log(&self) -> &Vec<LogEntry> {
        &self.log
    }
}

impl Logged for Lockstep {
    fn log(&self) -> &Vec<LogEntry> {
        &self.log
    }
}

/// The weights of the links `ev` brings up.
fn link_weights(ev: &TopologyEvent) -> Vec<f64> {
    match ev {
        TopologyEvent::LinkUp { weight, .. } => vec![*weight],
        TopologyEvent::NodeJoin { links, .. } => links.iter().map(|&(_, w)| w).collect(),
        _ => Vec::new(),
    }
}

/// Run `schedule` (in time order) on the sequential engine and at every
/// count in `shard_counts`, requiring byte-identical reports and per-node
/// logs. Events before `cut` are scheduled before the run starts; the rest
/// after `run_to(cut)`, into the running engine. Every sharded engine's
/// lookahead must end at the lightest link of the graph or the schedule;
/// that value is returned.
fn assert_sharded_matches_sequential<P: Logged>(
    g: &Graph,
    schedule: &[(f64, TopologyEvent)],
    cut: f64,
    shard_counts: &[usize],
    seed: u64,
) -> f64 {
    let (before, after) = schedule.split_at(schedule.partition_point(|(at, _)| *at < cut));
    let mut seq = Engine::new(g, |_| P::default());
    for (at, ev) in before {
        seq.schedule_topology(*at, ev.clone());
    }
    seq.run_to(cut);
    for (at, ev) in after {
        seq.schedule_topology(*at, ev.clone());
    }
    let seq_report = seq.run();
    let n = seq.nodes().len();
    let seq_logs: Vec<Vec<LogEntry>> = seq.nodes().iter().map(|c| c.log().clone()).collect();
    let lightest = g
        .edges()
        .map(|(_, e)| e.weight)
        .chain(schedule.iter().flat_map(|(_, ev)| link_weights(ev)))
        .fold(f64::INFINITY, f64::min);

    for &shards in shard_counts {
        let mut sh = ShardedEngine::new(g, shards, seed, |_| P::default());
        for (at, ev) in before {
            sh.schedule_topology(*at, ev.clone());
        }
        sh.run_to(cut);
        for (at, ev) in after {
            sh.schedule_topology(*at, ev.clone());
        }
        prop_assert_eq!(sh.lookahead(), lightest, "lookahead at shards={}", shards);
        let report = sh.run();

        prop_assert_eq!(
            report.messages_delivered,
            seq_report.messages_delivered,
            "delivered diverged at shards={}",
            shards
        );
        prop_assert_eq!(
            report.messages_dropped,
            seq_report.messages_dropped,
            "drops diverged at shards={}",
            shards
        );
        prop_assert_eq!(report.topology_events, seq_report.topology_events);
        prop_assert_eq!(
            &report.stats,
            &seq_report.stats,
            "MessageStats diverged at shards={}",
            shards
        );
        prop_assert_eq!(
            report.end_time.to_bits(),
            seq_report.end_time.to_bits(),
            "end time diverged at shards={}",
            shards
        );

        // Per-node upcall logs, collected from each owner shard.
        let mut sh_logs: Vec<Option<Vec<LogEntry>>> = vec![None; n];
        for shard in 0..shards {
            let owned: Vec<usize> = (0..n)
                .filter(|&v| sh.owner_of(NodeId(v)) == shard)
                .collect();
            let rows: Vec<(usize, Vec<LogEntry>)> = sh.visit(shard, move |e| {
                let nodes = e.nodes();
                owned
                    .into_iter()
                    .map(|v| (v, nodes[v].log().clone()))
                    .collect()
            });
            for (v, log) in rows {
                sh_logs[v] = Some(log);
            }
        }
        for (v, log) in sh_logs.into_iter().enumerate() {
            let log = log.expect("every node has exactly one owner shard");
            prop_assert_eq!(
                &log,
                &seq_logs[v],
                "node {} upcall log diverged at shards={}",
                v,
                shards
            );
        }
    }
    lightest
}

/// The barrier's worst case for the queue: a lockstep flood, where each
/// window's arrivals all share the tick the receiving shard runs next.
#[test]
fn lockstep_flood_is_byte_identical_to_sequential() {
    let g = generators::gnm_connected(64, 256, 0x10c);
    assert!(g.edges().all(|(_, e)| e.weight == 1.0));
    assert_sharded_matches_sequential::<Lockstep>(&g, &[], 0.0, &[1, 2, 3], 7);
}

/// Links lighter than every link of the initial graph, scheduled into a
/// running engine: a link-up of weight 0.25 and a new node joining over a
/// 0.5 link, each across the two shards. The lookahead shrinks to 0.25 and
/// the run still equals the sequential one.
#[test]
fn light_links_scheduled_mid_run_lower_the_lookahead() {
    let g = generators::gnm_connected(32, 96, 0x116);
    let u = NodeId(0);
    let v = g.nodes().find(|&w| w != u && !g.has_edge(u, w)).unwrap();
    let joiner = NodeId(g.node_count());
    let seed = (0..)
        .find(|&s| {
            let p = Partition::new(s, 2);
            p.shard_of(u) != p.shard_of(v) && p.shard_of(joiner) != p.shard_of(u)
        })
        .expect("some seed splits both light links across the shards");
    let schedule = [
        (2.5, TopologyEvent::LinkUp { u, v, weight: 0.25 }),
        (
            3.0,
            TopologyEvent::NodeJoin {
                node: joiner,
                links: vec![(u, 0.5), (NodeId(2), 1.0)],
            },
        ),
    ];
    let lookahead = assert_sharded_matches_sequential::<Chatter>(&g, &schedule, 2.0, &[2], seed);
    assert_eq!(lookahead, 0.25);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, max_shrink_iters: 0 })]

    /// Sequential vs sharded at shard counts 1, 2, 3 and 8, on a fresh
    /// random churn schedule per case whose second half is scheduled into
    /// the running engines.
    fn sharded_is_byte_identical_to_sequential(
        seed in 0u64..100_000,
        events in 4usize..12,
    ) {
        let n = 32;
        let g = generators::gnm_connected(n, 96, seed ^ 0xface);
        let schedule = random_schedule(n, events, seed);
        let cut = schedule[schedule.len() / 2].0;
        assert_sharded_matches_sequential::<Chatter>(&g, &schedule, cut, &[1, 2, 3, 8], seed);
    }
}

/// `gather` evaluates each item on its node's owner (the only engine where
/// the node has logged upcalls), returns rows in input order whatever the
/// owner order, and visits each owning shard exactly once: the calls of
/// one shard form one contiguous run.
#[test]
fn gather_routes_to_owners_and_keeps_input_order() {
    use std::sync::{Arc, Mutex};
    let g = generators::ring(24);
    // Ids in an order that hops between owners at every shard count.
    let ids: Vec<NodeId> = (0..24).map(|i| NodeId((i * 7) % 24)).collect();
    for shards in [1, 2, 3] {
        let mut sh = ShardedEngine::new(&g, shards, 5, |_| Lockstep::default());
        assert!(sh.run().converged);
        let calls = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&calls);
        let items = ids.iter().map(|&v| (v, v.0 * 10)).collect();
        let rows = sh.gather(items, move |e, v, tag| {
            log.lock().unwrap().push(v);
            (v, tag, !e.nodes()[v.0].log.is_empty())
        });
        let expect: Vec<_> = ids.iter().map(|&v| (v, v.0 * 10, true)).collect();
        assert_eq!(rows, expect, "shards={shards}");
        let mut runs: Vec<usize> = calls
            .lock()
            .unwrap()
            .iter()
            .map(|&v| sh.owner_of(v))
            .collect();
        runs.dedup();
        let mut owners = runs.clone();
        owners.sort_unstable();
        owners.dedup();
        assert_eq!(
            runs.len(),
            owners.len(),
            "a shard was visited twice: {runs:?}"
        );
        assert_eq!(owners.len(), shards, "every shard owns some of the ids");
    }
}
