//! Criterion benches: the data-plane layer on a booted n=512 network —
//! compiling a node's forwarding table from its RIB, from scratch (what a
//! first publish costs, per table) and as a republish with nothing to
//! patch (the floor under every republish: revision check, ring check,
//! fallback), probing the compiled tables, resident keys and
//! absent ones apart (per lookup), and the serving loop itself:
//! `PacketWalker::walk` over `exp_forward`'s flow mix, per walk and per
//! probe — a probe inside a walk waits for the previous hop's answer, so
//! it costs more than the isolated probes beside it.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use disco_bench::forward::{sample_flows, TTL};
use disco_core::config::DiscoConfig;
use disco_core::forward::ForwardingTable;
use disco_core::landmark::{landmark_set, select_landmarks};
use disco_core::protocol::{DiscoProtocol, PhaseTimers};
use disco_dynamics::forward::{FlowAddress, PacketWalker};
use disco_graph::{generators, NodeId};
use disco_sim::Engine;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn forward(c: &mut Criterion) {
    let (n, seed) = (512, 3);
    let graph = generators::gnm_average_degree(n, 8.0, seed);
    // Static `n`, as `exp_forward`: the estimation gossip multiplies the
    // boot and leaves the data plane measured here as it is.
    let dcfg = DiscoConfig::seeded(seed).with_dynamic_n_estimation(false);
    let lm_set = landmark_set(&select_landmarks(n, &dcfg));
    let mut engine = Engine::new(&graph, |v| {
        DiscoProtocol::new(v, lm_set.contains(&v), n, &dcfg, PhaseTimers::default())
    });
    assert!(engine.run().converged, "the boot must quiesce");
    let nodes = engine.nodes();
    let mut tables: Vec<ForwardingTable> =
        (0..n).map(|v| ForwardingTable::new(NodeId(v))).collect();
    // Every buffer starts at the largest table's size, so no compile
    // below pays for growing one.
    let largest = nodes.iter().max_by_key(|node| node.pv.selected_count());
    let largest = largest.expect("n > 0");
    for table in &mut tables {
        largest.compile_forwarding_into(table);
    }

    let mut group = c.benchmark_group("forward_512");
    group.throughput(Throughput::Elements(n as u64));
    // One iteration compiles every node's table into the buffer its
    // neighbor in id order filled last: another node's epoch, which a
    // compile cannot patch.
    group.bench_function("compile_cold", |b| {
        b.iter(|| {
            tables.rotate_left(1);
            for (node, table) in nodes.iter().zip(&mut tables) {
                node.compile_forwarding_into(table);
            }
        })
    });
    // ... and into the buffer that holds its own epoch, at a revision that
    // has not moved: a replay of no rows.
    group.bench_function("republish_unchanged", |b| {
        b.iter(|| {
            for (node, table) in nodes.iter().zip(&mut tables) {
                node.compile_forwarding_into(table);
            }
        })
    });

    // Every (table, destination) pair, split by residency and shuffled so
    // consecutive probes land in different tables.
    let (mut hits, mut misses): (Vec<_>, Vec<_>) = (0..n)
        .flat_map(|v| (0..n).map(move |d| (v, NodeId(d))))
        .partition(|&(v, d)| tables[v].lookup(d).is_some());
    let mut rng = StdRng::seed_from_u64(seed);
    hits.shuffle(&mut rng);
    misses.shuffle(&mut rng);
    for (name, probes) in [("lookup_hit", &hits), ("lookup_miss", &misses)] {
        group.throughput(Throughput::Elements(probes.len() as u64));
        group.bench_function(name, |b| {
            b.iter(|| {
                for &(v, d) in probes {
                    black_box(tables[v].lookup(d));
                }
            })
        });
    }

    // The serving loop: 64 Ki flows drawn as `exp_forward` draws them
    // (every node live), addresses resolved once. One loop reported
    // twice — per walk, and per probe in the walk's dependent chain.
    let live: Vec<NodeId> = (0..n).map(NodeId).collect();
    let flows = sample_flows(&live, 1 << 16, seed, 0);
    let addrs: Vec<Option<FlowAddress>> = nodes
        .iter()
        .map(|node| node.my_address().map(|a| a.detach()))
        .collect();
    let walker = PacketWalker {
        graph: engine.graph(),
        is_active: |v: NodeId| engine.is_active(v),
        table_of: |v: NodeId| Some(&tables[v.0]),
        ttl: TTL,
    };
    let walk_all = || {
        let mut probes = 0u64;
        for &(s, t) in &flows {
            black_box(walker.walk(s, t, addrs[t.0].as_ref(), |_| probes += 1));
        }
        probes
    };
    for (name, elements) in [("walk", flows.len() as u64), ("walk_probes", walk_all())] {
        group.throughput(Throughput::Elements(elements));
        group.bench_function(name, |b| b.iter(walk_all));
    }
    group.finish();
}

criterion_group!(benches, forward);
criterion_main!(benches);
