//! Criterion benches wrapping the figure pipelines at reduced scale, so
//! `cargo bench` exercises every experiment end to end (the full-scale
//! regeneration is done by the `paper` binary; see README, "Substitutions",
//! on scale). Each iteration builds its instance, as a figure does.

use criterion::{criterion_group, criterion_main, Criterion};
use disco_metrics::experiment::{
    address_size_experiment, congestion_comparison, messaging_point, scaling_point, shortcut_sweep,
    state_bytes_table, state_comparison, static_accuracy_experiment, stretch_comparison,
    ExperimentParams, Instance,
};
use disco_metrics::Topology;

fn small_params(n: usize) -> ExperimentParams {
    ExperimentParams {
        nodes: n,
        seed: 7,
        state_samples: usize::MAX,
        stretch_sources: 10,
        stretch_dests_per_source: 8,
    }
}

fn instance(topology: Topology, n: usize) -> Instance {
    Instance::build(topology, &small_params(n))
}

fn figure_pipelines(c: &mut Criterion) {
    let mut group = c.benchmark_group("figure_pipelines_small");
    group.sample_size(10);
    group.bench_function("fig02_state", |b| {
        b.iter(|| state_comparison(&instance(Topology::RouterLevel, 512)))
    });
    group.bench_function("fig03_stretch", |b| {
        b.iter(|| stretch_comparison(&instance(Topology::Geometric, 512)))
    });
    group.bench_function("fig04_with_vrr", |b| {
        b.iter(|| state_comparison(&instance(Topology::Gnm, 256).with_vrr()))
    });
    group.bench_function("fig06_shortcutting", |b| {
        b.iter(|| shortcut_sweep(&instance(Topology::Gnm, 256)))
    });
    group.bench_function("fig07_bytes", |b| {
        b.iter(|| state_bytes_table(&instance(Topology::RouterLevel, 256)))
    });
    group.bench_function("fig08_messaging", |b| b.iter(|| messaging_point(128, 7)));
    group.bench_function("fig09_scaling_point", |b| {
        b.iter(|| scaling_point(&ExperimentParams::for_nodes(512, 7)))
    });
    group.bench_function("fig10_congestion", |b| {
        b.iter(|| congestion_comparison(&instance(Topology::AsLevel, 512)))
    });
    group.bench_function("exp_address_size", |b| {
        b.iter(|| address_size_experiment(&instance(Topology::RouterLevel, 1024)))
    });
    group.bench_function("exp_static_accuracy", |b| {
        b.iter(|| static_accuracy_experiment(&small_params(256)))
    });
    group.finish();
}

criterion_group!(benches, figure_pipelines);
criterion_main!(benches);
