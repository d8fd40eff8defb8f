//! Run-vs-singleton message-plane equivalence.
//!
//! The engine's runs — consecutive `Action::Send`s over one link → one
//! `EventKind::Deliver`, consecutive `Action::Flood`s → one
//! `EventKind::DeliverFlood` per flood group, popped receiver-major — must
//! be *observationally identical* to sending every message to every
//! neighbor as its own queue entry: same per-node receive logs (times,
//! senders, payloads, order), same `MessageStats` (per-message send/receive
//! counts and byte totals), same in-flight loss accounting — including a
//! run whose link dies between send and delivery losing every message in
//! it, one drop per message — and the same end time, under churn. The only
//! permitted difference is the number of queue pops (`events_processed`):
//! a run is one entry (per flood group).
//!
//! The property drives a gossiping protocol through random topologies with
//! three link weights (so a node's floods split into several groups,
//! arriving at different instants) and seeded churn — once recording
//! fan-out as runs of floods and dumps as runs of sends, once as
//! per-message sends — and compares the full observable trace. The
//! reference records a zero-delay no-op timer after each send: a timer
//! ends a run, so each of its messages is its own queue entry. Each upcall
//! floods runs of one to four messages, with a unicast send splitting two
//! runs and a dump in the same upcall. The run scenario runs again on the
//! sharded engine at one and two shards against the same reference.
//!
//! The engine hands a receiver its whole run in one `Protocol::on_run`
//! upcall, borrowed. Each run scenario runs twice: with the default
//! `on_run`, which clones every message into `on_message`, and with
//! `RunReader`, which reads the run in place — and both must equal the
//! per-message reference, links dying with runs in flight included (node
//! 0's first link dies under its first runs; node 7's, under a run of
//! four, comes back before they land).

use disco_graph::{generators, Graph, GraphBuilder, NodeId};
use disco_sim::rng::rng_for;
use disco_sim::{
    Context, Engine, Protocol, RunReport, ShardProtocol, ShardedEngine, TopologyEvent,
};
use proptest::prelude::*;
use rand::Rng;

/// `(hops-to-live, tag)` — hops drive a bounded re-flood cascade so the
/// two runs stay busy while churn events land.
type Msg = (u8, u32);

/// One receive-log entry: `(arrival time bits, sender, hops, tag)`.
type LogEntry = (u64, NodeId, u8, u32);

struct Blaster {
    batched: bool,
    log: Vec<LogEntry>,
}

/// A [`Blaster`] that overrides `on_run`: every message of a run is read
/// where it lies, by reference, with no clone.
struct RunReader(Blaster);

/// A protocol whose receive log the comparison reads.
trait Logged: ShardProtocol<Message = Msg> + Send + 'static {
    fn log(&self) -> &[LogEntry];
}

impl Logged for Blaster {
    fn log(&self) -> &[LogEntry] {
        &self.log
    }
}

impl Logged for RunReader {
    fn log(&self) -> &[LogEntry] {
        &self.0.log
    }
}

impl Blaster {
    /// Flood a run of messages (one flood action each, back to back).
    fn fan_out(&self, run: &[(Msg, usize)], ctx: &mut Context<'_, Msg>) {
        for &(msg, size) in run {
            if self.batched {
                ctx.flood_sized(msg, size);
            } else {
                // Clone-and-send per neighbor, in adjacency order.
                for nb in ctx.neighbors() {
                    Self::send_alone(nb, msg, size, ctx);
                }
            }
        }
    }

    /// Send a dump of messages to `peer`: back to back, or one queue entry
    /// each.
    fn dump_to(&self, peer: NodeId, msgs: Vec<(Msg, usize)>, ctx: &mut Context<'_, Msg>) {
        for (m, s) in msgs {
            if self.batched {
                ctx.send_sized(peer, m, s);
            } else {
                Self::send_alone(peer, m, s, ctx);
            }
        }
    }

    /// A send that no later send joins: the no-op timer after it ends the
    /// run.
    fn send_alone(to: NodeId, msg: Msg, size: usize, ctx: &mut Context<'_, Msg>) {
        ctx.send_sized(to, msg, size);
        ctx.set_timer(0.0, 0);
    }
}

/// A run of `len` floods: the first carries `hops` on, the rest are
/// terminal; every message has its own tag and size.
fn run_of(len: u32, hops: u8, tag: u32) -> Vec<(Msg, usize)> {
    (0..len)
        .map(|i| {
            let hops = if i == 0 { hops } else { 0 };
            ((hops, tag.wrapping_add(i * 0x101)), 20 + i as usize)
        })
        .collect()
}

impl Protocol for Blaster {
    type Message = Msg;

    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        let me = ctx.node_id();
        if !me.0.is_multiple_of(7) {
            return;
        }
        let Some(&peer) = ctx.neighbors().first() else {
            return;
        };
        // A table-dump-like run of individually-sized messages to the
        // first neighbor…
        let dump: Vec<(Msg, usize)> = (0..12u32)
            .map(|i| ((0u8, 1000 + i), 10 + i as usize))
            .collect();
        self.dump_to(peer, dump, ctx);
        // …then a run seeding the cascade, a unicast to the same neighbor
        // that ends it, and a second run.
        let tag = me.0 as u32;
        self.fan_out(&run_of(1 + tag % 4, 2, tag), ctx);
        ctx.send_sized(peer, (0, tag ^ 0xdead), 9);
        self.fan_out(&run_of(1 + (tag / 4) % 2, 0, tag ^ 0xbeef), ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: Msg, ctx: &mut Context<'_, Msg>) {
        self.receive(from, &msg, ctx);
    }
}

impl Blaster {
    /// One received message: log it and carry the cascade on.
    fn receive(&mut self, from: NodeId, &(hops, tag): &Msg, ctx: &mut Context<'_, Msg>) {
        self.log.push((ctx.now().to_bits(), from, hops, tag));
        if hops == 0 {
            return;
        }
        // A run of one to four floods carrying the cascade on with one hop
        // less, a unicast back to the sender (the link exists right now:
        // delivery just validated it, and the sender is a flood target of
        // the same arrival instant) that splits it from a second run, and
        // a small dump answered to the sender.
        let next = tag.wrapping_mul(31).wrapping_add(7);
        self.fan_out(&run_of(1 + next % 4, hops - 1, next), ctx);
        ctx.send_sized(from, (0, next ^ 0xdead), 9);
        self.fan_out(&run_of(1 + (next / 4) % 2, 0, next ^ 0xbeef), ctx);
        let reply: Vec<(Msg, usize)> = (0..3u32).map(|i| ((0u8, tag ^ i), 5)).collect();
        self.dump_to(from, reply, ctx);
    }
}

impl Protocol for RunReader {
    type Message = Msg;

    fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
        self.0.on_start(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: Msg, ctx: &mut Context<'_, Msg>) {
        self.0.receive(from, &msg, ctx);
    }

    fn on_run(&mut self, from: NodeId, run: &[(Msg, usize)], ctx: &mut Context<'_, Msg>) {
        for (msg, _) in run {
            self.0.receive(from, msg, ctx);
        }
    }
}

impl ShardProtocol for Blaster {
    type Wire = Msg;
    fn to_wire(msg: Msg) -> Msg {
        msg
    }
    fn from_wire(wire: Msg) -> Msg {
        wire
    }
}

impl ShardProtocol for RunReader {
    type Wire = Msg;
    fn to_wire(msg: Msg) -> Msg {
        msg
    }
    fn from_wire(wire: Msg) -> Msg {
        wire
    }
}

/// `gnm_connected(n, m, seed)` with each link's weight drawn from three
/// values, so most nodes have links of several weights.
fn weighted(n: usize, m: usize, seed: u64) -> Graph {
    let g = generators::gnm_connected(n, m, seed);
    let mut rng = rng_for(seed, 0x3e16, 0);
    let mut b = GraphBuilder::new(n);
    for (_, e) in g.edges() {
        b.add_edge(e.u, e.v, [1.0, 1.5, 2.0][rng.gen_range(0..3usize)]);
    }
    b.build()
}

/// Seeded churn aimed at in-flight messages: cut the dump sender's first
/// link mid-flight (per-message loss inside a run), bounce another link
/// down and up before delivery (edge-id mismatch), then random link cuts
/// and node departures through the cascade.
fn churn_events(g: &Graph, seed: u64) -> Vec<(f64, TopologyEvent)> {
    let mut ev = Vec::new();
    // Node 0 dumped a 12-message run to its first neighbor at t=0; the
    // delivery is at 1.01 or later (weight + processing delay). Cutting
    // the link at 0.5 loses the whole run in flight.
    let nb0 = g.neighbors(NodeId(0))[0].node;
    ev.push((
        0.5,
        TopologyEvent::LinkDown {
            u: NodeId(0),
            v: nb0,
        },
    ));
    // Node 7's first link dies and comes back before delivery: the fresh
    // edge id must not resurrect the in-flight messages.
    if g.node_count() > 7 {
        let nb7 = g.neighbors(NodeId(7))[0].node;
        ev.push((
            0.3,
            TopologyEvent::LinkDown {
                u: NodeId(7),
                v: nb7,
            },
        ));
        ev.push((
            0.6,
            TopologyEvent::LinkUp {
                u: NodeId(7),
                v: nb7,
                weight: 1.0,
            },
        ));
    }
    let mut rng = rng_for(seed, 0xba7c, 0);
    for k in 0..6u64 {
        let t = 0.2 + rng.gen::<f64>() * 6.0;
        let v = NodeId(rng.gen_range(0..g.node_count()));
        if k % 3 == 2 {
            ev.push((t, TopologyEvent::NodeLeave { node: v }));
        } else if g.degree(v) > 0 {
            let peer = g.neighbors(v)[rng.gen_range(0..g.degree(v))].node;
            ev.push((t, TopologyEvent::LinkDown { u: v, v: peer }));
        }
    }
    ev
}

fn graph_for(seed: u64) -> Graph {
    let n = 24 + (seed as usize % 17);
    weighted(n, n * 3, seed)
}

fn blaster(batched: bool) -> impl Fn(NodeId) -> Blaster + Send + Clone + 'static {
    move |_| Blaster {
        batched,
        log: Vec::new(),
    }
}

fn run_reader(v: NodeId) -> RunReader {
    RunReader(blaster(true)(v))
}

type Observed = (RunReport, Vec<Vec<LogEntry>>);

fn run<P: Logged>(seed: u64, factory: impl Fn(NodeId) -> P) -> Observed {
    let g = graph_for(seed);
    let mut engine = Engine::new(&g, factory);
    for (t, ev) in churn_events(&g, seed) {
        engine.schedule_topology(t, ev);
    }
    let report = engine.run();
    let logs = engine.nodes().iter().map(|b| b.log().to_vec()).collect();
    (report, logs)
}

/// The run scenario on the sharded engine at `shards` workers.
fn run_sharded<P: Logged>(
    seed: u64,
    shards: usize,
    factory: impl Fn(NodeId) -> P + Send + Clone + 'static,
) -> Observed {
    let g = graph_for(seed);
    let mut engine = ShardedEngine::new(&g, shards, seed, factory);
    for (t, ev) in churn_events(&g, seed) {
        engine.schedule_topology(t, ev);
    }
    let report = engine.run();
    let ids = (0..g.node_count()).map(|v| (NodeId(v), ())).collect();
    let logs = engine.gather(ids, |e, v, ()| e.nodes()[v.0].log().to_vec());
    (report, logs)
}

/// Every observable of `got` equals the reference run's; only the number
/// of queue pops may differ.
fn assert_observably_equal(reference: &Observed, got: &Observed, leg: &str) {
    let ((single, single_logs), (batched, batched_logs)) = (reference, got);
    for (v, (want, have)) in single_logs.iter().zip(batched_logs).enumerate() {
        prop_assert_eq!(want, have, "{}: node {} receive log diverged", leg, v);
    }
    prop_assert_eq!(
        &single.stats,
        &batched.stats,
        "{}: MessageStats diverged",
        leg
    );
    prop_assert_eq!(single.messages_dropped, batched.messages_dropped, "{}", leg);
    prop_assert_eq!(
        single.messages_delivered,
        batched.messages_delivered,
        "{}",
        leg
    );
    prop_assert_eq!(single.topology_events, batched.topology_events, "{}", leg);
    prop_assert_eq!(
        single.end_time.to_bits(),
        batched.end_time.to_bits(),
        "{}: end time diverged",
        leg
    );
    prop_assert!(batched.converged, "{}: did not converge", leg);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Same seed, runs vs singleton fan-out: every observable of the
    /// run must match — only the queue-pop count may differ — whether the
    /// receiver takes a run through the default `on_run` or reads it in
    /// place.
    #[test]
    fn batched_run_is_observationally_identical(seed in 0u64..10_000) {
        let single = run(seed, blaster(false));
        let batched = run(seed, blaster(true));
        assert_observably_equal(&single, &batched, "sequential");
        assert_observably_equal(&single, &run(seed, run_reader), "sequential, by reference");
        prop_assert!(single.0.converged);
        // The 12-message dump was cut mid-flight: per-message loss inside
        // the run, so both sides drop at least those 12.
        prop_assert!(batched.0.messages_dropped >= 12, "expected in-flight run loss");
        // Runs must actually reduce queue entries.
        prop_assert!(
            batched.0.events_processed < single.0.events_processed,
            "run side popped {} events vs {} — nothing ran together",
            batched.0.events_processed,
            single.0.events_processed
        );
    }

    /// The run scenario on the sharded engine, at two shards (flood
    /// groups split by receiving shard, crossing the barrier in wire form)
    /// and at one, equals the same singleton reference — through the
    /// default `on_run` and read in place.
    #[test]
    fn sharded_batched_run_is_observationally_identical(seed in 0u64..10_000) {
        let single = run(seed, blaster(false));
        for shards in [2, 1] {
            let sharded = run_sharded(seed, shards, blaster(true));
            assert_observably_equal(&single, &sharded, &format!("shards={shards}"));
            let by_ref = run_sharded(seed, shards, run_reader);
            assert_observably_equal(&single, &by_ref, &format!("shards={shards}, by reference"));
        }
    }
}
