//! Micro-probes: single layers timed from outside, in isolation. They run
//! only in the traced pass, after the workload, so the untraced runs stay
//! short; each workload runs the probes of the layers it leans on.

use crate::net::{BootStats, Net, NETWORK_SEED};
use crate::plane::{Plane, Tables};
use crate::workloads::{Sizes, Workload};
use disco_core::path_vector::{Announcement, PathVectorNode, TableLimit};
use disco_core::protocol::{DiscoMsg, DiscoProtocol};
use disco_core::rib::{Candidate, RibStore};
use disco_core::routing::DiscoRouter;
use disco_core::static_state::DiscoState;
use disco_dynamics::forward::FlowAddress;
use disco_graph::{InternedPath, NodeId};
use disco_sim::event::EventKind;
use disco_sim::rng::rng_for;
use disco_sim::{Context, Engine, EventQueue, Protocol, ShardProtocol, ShardedEngine, TimerWheel};
use rand::Rng;
use std::hint::black_box;
use std::time::Instant;

const PROBE_STREAM: u64 = 0xb3;
type Values = Vec<(&'static str, f64)>;

fn ns_per(t0: Instant, ops: usize) -> f64 {
    t0.elapsed().as_nanos() as f64 / ops as f64
}

/// The probes of `workload`'s layers.
pub fn run(workload: Workload, seed: u64, sizes: &Sizes, queue_depth: usize) -> Values {
    let mut out = Values::new();
    match workload {
        Workload::Boot => {
            let net = Net::generate(sizes.n);
            out.extend(arena(seed));
            out.extend(wheel(seed, queue_depth));
            out.extend(rib(seed));
            out.extend(dispatch(&net));
            out.extend(bare_path_vector(&net));
            out.extend(static_state(&net));
        }
        Workload::Repair => {
            out.extend(arena(seed));
            out.extend(rib(seed));
        }
        // `forward` probes need its tables; it calls `lookup` itself.
        Workload::Forward => {}
        Workload::Shard2 => out.extend(wire(seed)),
    }
    out
}

/// 1 M `InternedPath::prepend` on length-4..8 paths, then the drop.
fn arena(seed: u64) -> Values {
    const BASES: usize = 10_000;
    const OPS: usize = 1_000_000;
    let mut rng = rng_for(seed, PROBE_STREAM, 1);
    let bases: Vec<InternedPath> = (0..BASES)
        .map(|_| {
            let len = rng.gen_range(4..=8usize);
            let nodes: Vec<NodeId> = (0..len).map(|_| NodeId(rng.gen_range(0..4096))).collect();
            InternedPath::from_slice(&nodes)
        })
        .collect();
    let heads: Vec<NodeId> = (0..OPS)
        .map(|_| NodeId(rng.gen_range(4096..8192)))
        .collect();
    let mut held = Vec::with_capacity(OPS);
    let t0 = Instant::now();
    for (i, &head) in heads.iter().enumerate() {
        held.push(bases[i % BASES].prepend(head));
    }
    let prepend = ns_per(t0, OPS);
    let t0 = Instant::now();
    drop(black_box(held));
    let release = ns_per(t0, OPS);
    vec![
        ("graph.arena.prepend_ns", prepend),
        ("graph.arena.release_ns", release),
    ]
}

/// `TimerWheel` hold model at `depth` pending events: pop a chunk, push
/// it back a little later, so each side is timed at about that depth.
fn wheel(seed: u64, depth: usize) -> Values {
    const CHUNK: usize = 10_000;
    const ROUNDS: usize = 50;
    let depth = depth.max(2 * CHUNK);
    let mut rng = rng_for(seed, PROBE_STREAM, 2);
    let timer = |i: usize| EventKind::<()>::Timer {
        node: NodeId(i % 2048),
        token: i as u64,
        epoch: 0,
    };
    let mut q: TimerWheel<()> = TimerWheel::new();
    for i in 0..depth {
        let _ = q.push(rng.gen::<f64>() * 4.0, i as u64, timer(i));
    }
    let (mut push_ns, mut pop_ns) = (0.0, 0.0);
    let mut key = depth as u64;
    for _ in 0..ROUNDS {
        let mut now = 0.0;
        let t0 = Instant::now();
        for _ in 0..CHUNK {
            let (_, ev) = q.pop().expect("queue holds `depth` events");
            now = ev.time;
        }
        pop_ns += ns_per(t0, CHUNK);
        let delays: Vec<f64> = (0..CHUNK).map(|_| 1.0 + rng.gen::<f64>() * 3.0).collect();
        let t0 = Instant::now();
        for (i, d) in delays.iter().enumerate() {
            key += 1;
            let _ = q.push(now + d, key, timer(i));
        }
        push_ns += ns_per(t0, CHUNK);
    }
    let ids: Vec<_> = (0..CHUNK)
        .map(|i| q.push(1e6 + i as f64, u64::MAX - i as u64, timer(i)))
        .collect();
    let t0 = Instant::now();
    for id in ids {
        black_box(q.cancel(id));
    }
    let cancel = ns_per(t0, CHUNK);
    vec![
        ("sim.event.push_ns", push_ns / ROUNDS as f64),
        ("sim.event.pop_ns", pop_ns / ROUNDS as f64),
        ("sim.event.cancel_ns", cancel),
    ]
}

/// A degree-8 × 1 k-destination candidate stream replayed into a
/// `RibStore`: insert everything, select per destination, withdraw half
/// one by one, lose the remaining neighbors whole.
fn rib(seed: u64) -> Values {
    const DEGREE: usize = 8;
    const DESTS: usize = 1000;
    const ROUNDS: usize = 40;
    let mut rng = rng_for(seed, PROBE_STREAM, 3);
    let me = NodeId(0);
    let stream: Vec<(NodeId, NodeId, Candidate)> = (1..=DEGREE)
        .flat_map(|nbr| (0..DESTS).map(move |d| (NodeId(nbr), NodeId(100 + d))))
        .map(|(nbr, dest)| {
            let mut nodes = vec![me, nbr];
            for _ in 0..rng.gen_range(0..4usize) {
                nodes.push(NodeId(rng.gen_range(2000..4000)));
            }
            nodes.push(dest);
            let cand = Candidate {
                dist: (nodes.len() - 1) as f64,
                path: InternedPath::from_slice(&nodes),
                dest_is_landmark: dest.0 % 16 == 0,
                dest_landmark_dist: 2.0,
            };
            (nbr, dest, cand)
        })
        .collect();
    let (mut insert, mut select, mut remove, mut drop_nbr) = (0.0, 0.0, 0.0, 0.0);
    for _ in 0..ROUNDS {
        let mut store = RibStore::new();
        let t0 = Instant::now();
        for (nbr, dest, cand) in &stream {
            black_box(store.insert(*nbr, *dest, cand));
        }
        insert += ns_per(t0, stream.len());
        let t0 = Instant::now();
        for d in 0..DESTS {
            black_box(store.select_best(NodeId(100 + d)));
        }
        select += ns_per(t0, DESTS);
        let half = stream.len() / 2;
        let t0 = Instant::now();
        for (nbr, dest, _) in &stream[..half] {
            black_box(store.remove(*nbr, *dest));
        }
        remove += ns_per(t0, half);
        let t0 = Instant::now();
        for nbr in DEGREE / 2 + 1..=DEGREE {
            black_box(store.remove_neighbor(NodeId(nbr)));
        }
        drop_nbr += ns_per(t0, DEGREE / 2) / 1e3;
    }
    let r = ROUNDS as f64;
    vec![
        ("core.rib.insert_ns", insert / r),
        ("core.rib.select_best_ns", select / r),
        ("core.rib.remove_ns", remove / r),
        ("core.rib.remove_neighbor_us", drop_nbr / r),
    ]
}

/// Boot-shaped announcements through the shard-crossing wire form.
fn wire(seed: u64) -> Values {
    const OPS: usize = 200_000;
    let mut rng = rng_for(seed, PROBE_STREAM, 4);
    let msgs: Vec<DiscoMsg> = (0..OPS)
        .map(|_| {
            let len = rng.gen_range(2..=6usize);
            let nodes: Vec<NodeId> = (0..len).map(|_| NodeId(rng.gen_range(0..1024))).collect();
            DiscoMsg::Route(Announcement {
                dest: nodes[len - 1],
                dist: (len - 1) as f64,
                path: InternedPath::from_slice(&nodes),
                dest_is_landmark: false,
                dest_landmark_dist: 2.0,
                withdrawn: false,
                refresh: false,
            })
        })
        .collect();
    let t0 = Instant::now();
    let wires: Vec<_> = msgs.into_iter().map(DiscoProtocol::to_wire).collect();
    let to_wire = ns_per(t0, OPS);
    let t0 = Instant::now();
    let back: Vec<DiscoMsg> = wires.into_iter().map(DiscoProtocol::from_wire).collect();
    let from_wire = ns_per(t0, OPS);
    black_box(back);
    vec![
        ("core.wire.to_wire_ns", to_wire),
        ("core.wire.from_wire_ns", from_wire),
    ]
}

/// A protocol that only floods: what an engine event costs when the
/// protocol does nothing with it.
struct Flooder;

impl Protocol for Flooder {
    type Message = u8;

    fn on_start(&mut self, ctx: &mut Context<'_, u8>) {
        ctx.flood_sized(2, 8);
    }

    fn on_message(&mut self, _from: NodeId, ttl: u8, ctx: &mut Context<'_, u8>) {
        if ttl > 0 {
            ctx.flood_sized(ttl - 1, 8);
        }
    }
}

fn dispatch(net: &Net) -> Values {
    let mut engine = Engine::new(&net.graph, |_| Flooder);
    let t0 = Instant::now();
    engine.start();
    engine.run_until(|_| false);
    let ns = ns_per(t0, engine.events_processed() as usize);
    vec![("sim.engine.dispatch_ns", ns)]
}

/// The path-vector layer alone (no Disco overlay) to quiescence.
fn bare_path_vector(net: &Net) -> Values {
    let limit = TableLimit::VicinityCap {
        size: net.cfg.vicinity_size(net.n),
    };
    let mut engine = Engine::new(&net.graph, |v| {
        PathVectorNode::new(v, net.lm_set.contains(&v), limit)
    });
    let t0 = Instant::now();
    engine.start();
    engine.run_until(|_| false);
    vec![("core.path_vector.boot_s", t0.elapsed().as_secs_f64())]
}

/// The static simulator's build and its routing, which the figure bins
/// (not these workloads) run on.
fn static_state(net: &Net) -> Values {
    const PAIRS: usize = 10_000;
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let t0 = Instant::now();
    let state = DiscoState::build(&net.graph, &net.cfg);
    let build_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    black_box(DiscoState::build_parallel(&net.graph, &net.cfg, threads));
    let build_par_s = t0.elapsed().as_secs_f64();

    let router = DiscoRouter::new(&net.graph, &state);
    let mut rng = rng_for(NETWORK_SEED, PROBE_STREAM, 5);
    // Few sources, so the router's per-source tree cache is warm for
    // most pairs and the routing itself is what is timed.
    let pairs: Vec<(NodeId, NodeId)> = (0..PAIRS)
        .map(|i| {
            let s = NodeId(i % 64);
            let t = NodeId(rng.gen_range(64..net.n));
            (s, t)
        })
        .collect();
    let t0 = Instant::now();
    for &(s, t) in &pairs {
        black_box(router.nddisco_first_packet(s, t));
    }
    let first = ns_per(t0, PAIRS) / 1e3;
    let t0 = Instant::now();
    for &(s, t) in &pairs {
        black_box(router.nddisco_later_packet(s, t));
    }
    let later = ns_per(t0, PAIRS) / 1e3;
    vec![
        ("core.static_state.build_s", build_s),
        ("core.static_state.build_par_s", build_par_s),
        ("core.routing.first_packet_us", first),
        ("core.routing.later_packet_us", later),
    ]
}

/// K=1 sharded boot rate over the sequential reference's: guards the
/// inline single-shard path.
pub fn k1_ratio(net: &Net, seq: &BootStats) -> f64 {
    let mut engine: ShardedEngine<DiscoProtocol> =
        ShardedEngine::new(&net.graph, 1, NETWORK_SEED, net.factory());
    let t0 = Instant::now();
    engine.start();
    engine.run_until(|_| false);
    let secs = t0.elapsed().as_secs_f64();
    let rate = engine.messages_delivered() as f64 / secs;
    engine.finish();
    rate / seq.anns_per_s()
}

/// Tight loops on `ForwardingTable::lookup` across every table, resident
/// keys and absent ones apart.
pub fn lookup(tables: &Tables, seed: u64) -> Values {
    const OPS: usize = 1_000_000;
    let n = tables.len();
    let mut rng = rng_for(seed, PROBE_STREAM, 6);
    let mut hits = Vec::with_capacity(OPS);
    let mut misses = Vec::with_capacity(OPS);
    while hits.len() < OPS || misses.len() < OPS {
        let v = NodeId(rng.gen_range(0..n));
        let Some(table) = tables.table(v) else {
            continue;
        };
        if hits.len() < OPS && !table.is_empty() {
            let k = table.keys()[rng.gen_range(0..table.len())];
            hits.push((v, NodeId(k as usize)));
        }
        let d = NodeId(rng.gen_range(0..n));
        if misses.len() < OPS && table.lookup(d).is_none() {
            misses.push((v, d));
        }
    }
    let time = |probes: &[(NodeId, NodeId)]| {
        let t0 = Instant::now();
        for &(v, d) in probes {
            black_box(tables.table(v).expect("published").lookup(d));
        }
        ns_per(t0, probes.len())
    };
    vec![
        ("core.forward.lookup_hit_ns", time(&hits)),
        ("core.forward.lookup_miss_ns", time(&misses)),
    ]
}

/// Mean ns per walk of `flows` replayed with plain lookups and no clock:
/// the same forwarding decisions `PacketWalker::walk` makes, minus its
/// two `Instant::now()` per probe.
pub fn direct_walk_ns<P: Plane>(
    plane: &P,
    tables: &Tables,
    addrs: &[Option<FlowAddress>],
    flows: &[(NodeId, NodeId)],
) -> f64 {
    let graph = plane.graph();
    let t0 = Instant::now();
    let mut delivered = 0u64;
    for &(src, dst) in flows {
        let addr = addrs[dst.0].as_ref();
        let mut cur = src;
        for _ in 0..128 {
            let Some(tab) = tables.table(cur) else { break };
            let next = match (tab.lookup(dst), addr) {
                (Some(h), _) => h,
                (None, Some(addr)) => match addr.path.iter().position(|&p| p == cur) {
                    Some(i) if i + 1 < addr.path.len() => addr.path[i + 1],
                    _ => match tab
                        .lookup(addr.landmark)
                        .or_else(|| tab.fallback().map(|(_, hop)| hop))
                    {
                        Some(h) => h,
                        None => break,
                    },
                },
                (None, None) => break,
            };
            if !plane.is_active(next) || graph.edge_weight(cur, next).is_none() {
                break;
            }
            cur = next;
            if cur == dst {
                delivered += 1;
                break;
            }
        }
    }
    black_box(delivered);
    ns_per(t0, flows.len())
}
