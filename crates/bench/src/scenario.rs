//! The boot and the churn window the dynamic drivers share: `exp_churn`
//! and `exp_memory` run [`network`] then [`ChurnWindow::run`];
//! `exp_scale` and `exp_forward` boot under [`BOOT_CHURN`]'s schedule and
//! measure on their own clocks.

use disco_core::config::DiscoConfig;
use disco_core::protocol::DiscoProtocol;
use disco_dynamics::models::PoissonChurn;
use disco_dynamics::probe::{disco_probe, sample_live_pairs};
use disco_dynamics::Schedule;
use disco_graph::{Graph, PathArena};
use disco_metrics::Topology;
use disco_sim::{Phase, Recorder, ShardedEngine};

/// The `n`-node `G(n, m)` graph (average degree 8) of `seed` and a
/// not-yet-started engine of [`DiscoProtocol::network`] nodes over it on
/// `shards` shards, shard `i` reporting into `recorders(i)`. Shard 0's
/// recorder times the Build span and opens the Boot span; every shard's
/// arena peak is reset, so arena gauges read the run alone.
pub fn network<R: Recorder + Send + 'static>(
    n: usize,
    seed: u64,
    cfg: &DiscoConfig,
    shards: usize,
    mut recorders: impl FnMut(usize) -> R,
) -> (Graph, ShardedEngine<DiscoProtocol, R>) {
    let mut rec0 = recorders(0);
    rec0.phase_begin(Phase::Build, 0.0);
    let graph = Topology::Gnm.build(n, seed);
    let nodes = DiscoProtocol::network(n, cfg);
    rec0.phase_end(Phase::Build, 0.0);
    rec0.phase_begin(Phase::Boot, 0.0);

    let mut rec0 = Some(rec0);
    let mut engine = ShardedEngine::with_recorder(&graph, shards, seed, nodes, |me| {
        rec0.take().unwrap_or_else(|| recorders(me))
    });
    for shard in 0..engine.shards() {
        engine.visit(shard, |_| PathArena::reset_peak());
    }
    (graph, engine)
}

/// The churn `exp_scale` and `exp_forward` boot under (they set their
/// own probes).
pub const BOOT_CHURN: ChurnWindow = ChurnWindow {
    leave_rate_per_node: 0.0002,
    mean_downtime: 150.0,
    horizon: 300.0,
    probes: 0,
    pairs_per_probe: 0,
};

/// A seeded Poisson churn window and its availability probes.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnWindow {
    /// Per-node leave rate during the window.
    pub leave_rate_per_node: f64,
    /// Mean downtime before rejoin.
    pub mean_downtime: f64,
    /// Length of the window (simulation time).
    pub horizon: f64,
    /// Availability probes spread evenly over the window.
    pub probes: usize,
    /// Sampled (source, destination) pairs per probe.
    pub pairs_per_probe: usize,
}

/// One availability probe.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnProbe {
    /// Probe time, relative to the start of the window.
    pub time: f64,
    /// Live-node count at probe time.
    pub live: usize,
    /// Routable (connected) sampled pairs.
    pub routable: usize,
    /// Delivered pairs.
    pub delivered: usize,
    /// Mean first-packet stretch over delivered pairs.
    pub mean_stretch: f64,
}

/// What [`ChurnWindow::run`] observed.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowOutcome {
    /// The in-window probes, then the one after the drain.
    pub timeline: Vec<ChurnProbe>,
    /// Delivered over routable pairs, summed over the in-window probes.
    pub availability: f64,
    /// The same ratio for the probe after the drain.
    pub final_availability: f64,
    /// Whether the network quiesced after the window.
    pub quiesced: bool,
}

impl ChurnWindow {
    /// The window's churn schedule over `graph`, relative to its start.
    pub fn schedule(&self, graph: &Graph, seed: u64) -> Schedule {
        PoissonChurn::new(self.leave_rate_per_node, self.mean_downtime, self.horizon)
            .compile(graph, seed)
    }

    /// Run the window on a booted engine from now: apply the schedule,
    /// probe at `horizon · i / probes` for `i = 1..=probes` (pairs sampled
    /// with seed `seed ^ i`), drain to quiescence and probe once more. Ends
    /// the Boot span and marks the Churn and Drain spans.
    pub fn run<R: Recorder + Send + 'static>(
        &self,
        engine: &mut ShardedEngine<DiscoProtocol, R>,
        graph: &Graph,
        seed: u64,
    ) -> WindowOutcome {
        let start = engine.now();
        self.schedule(graph, seed).apply_to(engine);
        engine.mark(move |r| {
            r.phase_end(Phase::Boot, start);
            r.phase_begin(Phase::Churn, start);
        });
        let mut timeline = Vec::with_capacity(self.probes + 1);
        for i in 1..=self.probes {
            engine.run_to(start + self.horizon * i as f64 / self.probes as f64);
            timeline.push(self.probe(engine, seed ^ i as u64, start));
        }
        let (routable, delivered) = timeline
            .iter()
            .fold((0, 0), |(r, d), p| (r + p.routable, d + p.delivered));
        let churn_end = engine.now();
        engine.mark(move |r| {
            r.phase_end(Phase::Churn, churn_end);
            r.phase_begin(Phase::Drain, churn_end);
        });

        let quiesced = engine.run_until(|_| false);
        let last = self.probe(engine, seed ^ 0xf17a1, start);
        let final_availability = ratio(last.delivered, last.routable);
        timeline.push(last);
        let end = engine.now();
        engine.mark(move |r| r.phase_end(Phase::Drain, end));
        WindowOutcome {
            timeline,
            availability: ratio(delivered, routable),
            final_availability,
            quiesced,
        }
    }

    fn probe<R: Recorder + Send + 'static>(
        &self,
        engine: &mut ShardedEngine<DiscoProtocol, R>,
        seed: u64,
        start: f64,
    ) -> ChurnProbe {
        let pairs = sample_live_pairs(engine, self.pairs_per_probe, seed);
        let p = disco_probe(engine, &pairs);
        ChurnProbe {
            time: p.time - start,
            live: engine.active_count(),
            routable: p.routable,
            delivered: p.delivered,
            mean_stretch: p.mean_stretch(),
        }
    }
}

/// Delivered over routable pairs; 1 when nothing was routable.
fn ratio(delivered: usize, routable: usize) -> f64 {
    if routable == 0 {
        1.0
    } else {
        delivered as f64 / routable as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disco_sim::NoopRecorder;

    fn window_at(shards: usize) -> WindowOutcome {
        let (n, seed) = (96, 5);
        let cfg = DiscoConfig::seeded(seed).with_dynamic_n_estimation(false);
        let (graph, mut engine) = network(n, seed, &cfg, shards, |_| NoopRecorder);
        assert!(engine.run().converged, "the boot must quiesce");
        let window = ChurnWindow {
            leave_rate_per_node: 0.001,
            mean_downtime: 60.0,
            horizon: 300.0,
            probes: 3,
            pairs_per_probe: 48,
        };
        window.run(&mut engine, &graph, seed)
    }

    /// One row per in-window probe plus the final one; the availability
    /// averages the in-window rows only; and the shard count changes
    /// nothing.
    #[test]
    fn window_probes_then_drains_at_any_shard_count() {
        let one = window_at(1);
        assert_eq!(one.timeline.len(), 3 + 1);
        let (routable, delivered) = one.timeline[..3]
            .iter()
            .fold((0, 0), |(r, d), p| (r + p.routable, d + p.delivered));
        assert!(routable > 0);
        assert_eq!(one.availability, delivered as f64 / routable as f64);
        assert!(one.quiesced);
        assert_eq!(window_at(2), one);
    }
}
