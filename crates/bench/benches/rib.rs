//! Criterion benches: the control-plane layer. A static-n, n=512
//! `DiscoProtocol` boot to quiescence, timed per delivered announcement —
//! every one runs absorb, select and the vicinity cap's admission through
//! the ordered mirrors — and the `RibStore` beneath it on a synthetic
//! degree-8 neighbor set: `insert` per candidate, `select_best` per
//! destination and `remove_neighbor` per dropped neighbor.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use disco_core::config::DiscoConfig;
use disco_core::protocol::DiscoProtocol;
use disco_core::rib::{Candidate, RibStore};
use disco_graph::{generators, InternedPath, NodeId};
use disco_sim::Engine;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn boot(c: &mut Criterion) {
    let (n, seed) = (512, 3);
    let graph = generators::gnm_average_degree(n, 8.0, seed);
    let dcfg = DiscoConfig::seeded(seed).with_dynamic_n_estimation(false);
    let run = || {
        let mut engine = Engine::new(&graph, DiscoProtocol::network(n, &dcfg));
        let report = engine.run();
        assert!(report.converged, "the boot must quiesce");
        report.messages_delivered
    };
    let mut group = c.benchmark_group("boot_512");
    group.throughput(Throughput::Elements(run()));
    group.bench_function("boot_per_announcement", |b| b.iter(run));
    group.finish();
}

fn rib(c: &mut Criterion) {
    const DEGREE: usize = 8;
    const DESTS: usize = 1000;
    let mut rng = StdRng::seed_from_u64(3);
    let me = NodeId(0);
    // Every neighbor announces every destination over a path of 1–4
    // hops through random filler nodes.
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
    let filled = || {
        let mut store = RibStore::new();
        for (nbr, dest, cand) in &stream {
            store.insert(*nbr, *dest, cand);
        }
        store
    };

    let mut group = c.benchmark_group("rib_degree8");
    group.throughput(Throughput::Elements(stream.len() as u64));
    group.bench_function("insert", |b| b.iter(filled));
    group.throughput(Throughput::Elements(DESTS as u64));
    group.bench_function("select_best", |b| {
        let select_all = |mut store: RibStore| {
            for d in 0..DESTS {
                black_box(store.select_best(NodeId(100 + d)));
            }
            store
        };
        b.iter_batched(filled, select_all, BatchSize::LargeInput)
    });
    group.throughput(Throughput::Elements(DEGREE as u64));
    group.bench_function("remove_neighbor", |b| {
        let drop_all = |mut store: RibStore| {
            for nbr in 1..=DEGREE {
                black_box(store.remove_neighbor(NodeId(nbr)));
            }
            store
        };
        b.iter_batched(filled, drop_all, BatchSize::LargeInput)
    });
    group.finish();
}

criterion_group!(benches, boot, rib);
criterion_main!(benches);
