//! Criterion benches wrapping the figure pipelines at reduced scale, so
//! `cargo bench` exercises every experiment end to end (the full-scale
//! regeneration is done by the `fig*` binaries; see README, "Substitutions",
//! on scale).

use criterion::{criterion_group, criterion_main, Criterion};
use disco_metrics::experiment::{
    address_size_experiment, congestion_comparison, messaging_point, scaling_point, shortcut_sweep,
    state_bytes_table, state_comparison, static_accuracy_experiment, stretch_comparison,
    ExperimentParams,
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

fn figure_pipelines(c: &mut Criterion) {
    let mut group = c.benchmark_group("figure_pipelines_small");
    group.sample_size(10);
    group.bench_function("fig02_state", |b| {
        b.iter(|| state_comparison(Topology::RouterLevel, &small_params(512), false))
    });
    group.bench_function("fig03_stretch", |b| {
        b.iter(|| stretch_comparison(Topology::Geometric, &small_params(512), false))
    });
    group.bench_function("fig04_with_vrr", |b| {
        b.iter(|| state_comparison(Topology::Gnm, &small_params(256), true))
    });
    group.bench_function("fig06_shortcutting", |b| {
        b.iter(|| shortcut_sweep(Topology::Gnm, &small_params(256)))
    });
    group.bench_function("fig07_bytes", |b| {
        b.iter(|| state_bytes_table(Topology::RouterLevel, &small_params(256)))
    });
    group.bench_function("fig08_messaging", |b| b.iter(|| messaging_point(128, 7)));
    group.bench_function("fig09_scaling_point", |b| b.iter(|| scaling_point(512, 7)));
    group.bench_function("fig10_congestion", |b| {
        b.iter(|| congestion_comparison(Topology::AsLevel, &small_params(512), false))
    });
    group.bench_function("exp_address_size", |b| {
        b.iter(|| address_size_experiment(Topology::RouterLevel, &small_params(1024)))
    });
    group.bench_function("exp_static_accuracy", |b| {
        b.iter(|| static_accuracy_experiment(&small_params(256)))
    });
    group.finish();
}

criterion_group!(benches, figure_pipelines);
criterion_main!(benches);
