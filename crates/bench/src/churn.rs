//! The steady-state churn experiment behind `exp_churn`.
//!
//! Extends the paper's Fig. 8 methodology (messages until convergence on a
//! static graph) to dynamics: run the full distributed Disco protocol to
//! convergence on [`scenario::network`]'s boot, run a seeded Poisson
//! [`ChurnWindow`] and measure route availability, stretch-under-churn and
//! repair traffic at its fixed probe times. Every number is a pure
//! function of `(nodes, seed)`, so the summary is byte-identical across
//! runs — the property the determinism test locks in.

use crate::scenario::{self, ChurnWindow, WindowOutcome};
use disco_core::config::DiscoConfig;
use disco_sim::MergeRecorder;
use std::fmt::Write as _;

/// Parameters of one churn run.
#[derive(Debug, Clone)]
pub struct ChurnParams {
    /// Network size.
    pub nodes: usize,
    /// Experiment seed.
    pub seed: u64,
    /// The churn window and its probes.
    pub window: ChurnWindow,
    /// Run the path-vector layer with forgetful eviction
    /// (`DiscoConfig::forgetful_dynamic`): bounded per-destination
    /// candidate sets plus route-refresh re-solicitation.
    pub forgetful: bool,
    /// Pin every node to its construction-time estimate of `n` instead of
    /// the default live synopsis-diffusion gossip
    /// (`DiscoConfig::dynamic_n_estimation`) — the `--static-n` escape
    /// hatch.
    pub static_n: bool,
}

impl ChurnParams {
    /// Paper-appropriate defaults at the given size.
    pub fn sized(nodes: usize, seed: u64) -> Self {
        ChurnParams {
            nodes,
            seed,
            window: ChurnWindow {
                leave_rate_per_node: 0.0002,
                mean_downtime: 150.0,
                horizon: 2000.0,
                probes: 8,
                pairs_per_probe: 128,
            },
            forgetful: false,
            static_n: false,
        }
    }

    /// Builder-style: toggle forgetful eviction in the path-vector RIB.
    pub fn with_forgetful(mut self, forgetful: bool) -> Self {
        self.forgetful = forgetful;
        self
    }

    /// Builder-style: pin nodes to their construction-time estimate of `n`
    /// (disables the synopsis-diffusion gossip).
    pub fn with_static_n(mut self, static_n: bool) -> Self {
        self.static_n = static_n;
        self
    }
}

/// Aggregate outcome of the churn experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnOutcome {
    /// The window's probes, availability and quiescence.
    pub window: WindowOutcome,
    /// Topology events applied.
    pub topology_events: u64,
    /// Messages lost to failed links / departed nodes.
    pub messages_dropped: u64,
    /// Control messages per node spent on initial convergence.
    pub convergence_msgs_per_node: f64,
    /// Control messages per node spent on repair during the churn window
    /// (the Fig. 8 quantity, extended to steady-state churn).
    pub repair_msgs_per_node: f64,
    /// Messages delivered to `on_message` upcalls (batch members counted
    /// individually).
    pub messages_delivered: u64,
    /// Epoch-dead timers that slipped past eager cancellation (0 when the
    /// engine's eager timer reclamation is airtight).
    pub stale_timer_pops: u64,
    /// Live event-queue entries at the end of the run (0 once quiesced).
    pub queue_live: usize,
    /// Cancelled-but-unreclaimed queue residue at the end of the run.
    pub queue_dead: usize,
    /// Total control bytes sent.
    pub bytes_sent: u64,
    /// Total control bytes received (differs from sent by exactly the
    /// bytes lost in flight).
    pub bytes_received: u64,
}

impl ChurnOutcome {
    /// Render the deterministic summary printed by `exp_churn`.
    pub fn summary(&self, params: &ChurnParams) -> String {
        let mut out = String::new();
        // Markers are appended only when their knob is on, so
        // default-config output stays byte-identical to the golden.
        let forgetful = if params.forgetful {
            " forgetful=on"
        } else {
            ""
        };
        let static_n = if params.static_n { " static_n=on" } else { "" };
        let _ = writeln!(
            out,
            "exp_churn: n={} seed={} leave_rate={} mean_downtime={} horizon={}{}{}",
            params.nodes,
            params.seed,
            params.window.leave_rate_per_node,
            params.window.mean_downtime,
            params.window.horizon,
            forgetful,
            static_n
        );
        let _ = writeln!(
            out,
            "{:>10} {:>6} {:>9} {:>10} {:>13}",
            "time", "live", "routable", "delivered", "mean_stretch"
        );
        for p in &self.window.timeline {
            let _ = writeln!(
                out,
                "{:>10.1} {:>6} {:>9} {:>10} {:>13.4}",
                p.time, p.live, p.routable, p.delivered, p.mean_stretch
            );
        }
        let _ = writeln!(
            out,
            "availability under churn: {:.4}   after repair: {:.4}",
            self.window.availability, self.window.final_availability
        );
        let _ = writeln!(
            out,
            "topology events: {}   in-flight messages lost: {}",
            self.topology_events, self.messages_dropped
        );
        let _ = writeln!(
            out,
            "control msgs/node: {:.1} (convergence) + {:.1} (repair)   quiesced: {}",
            self.convergence_msgs_per_node, self.repair_msgs_per_node, self.window.quiesced
        );
        let _ = writeln!(
            out,
            "engine gauges: delivered={} stale_timer_pops={} queue={} live / {} dead",
            self.messages_delivered, self.stale_timer_pops, self.queue_live, self.queue_dead
        );
        let _ = writeln!(
            out,
            "bytes: sent={} received={} lost_in_flight={}",
            self.bytes_sent,
            self.bytes_received,
            self.bytes_sent - self.bytes_received
        );
        out
    }
}

/// Run the churn experiment on `shards` shards, shard `i` reporting into
/// `recorders(i)`; returns the outcome together with the merged recorder
/// (counters, phase spans, repair-latency windows, the flight ring).
///
/// The outcome — and so the summary — is the same whatever the shard
/// count and whatever recorder is attached: every shard count executes
/// the same logical event schedule, the probes read protocol state on the
/// shards that own it in the same candidate order, and recorders only
/// observe (with `|_| NoopRecorder` the engine monomorphizes to the
/// uninstrumented hot path). The golden tests lock the first, the
/// observer-effect tests the second.
pub fn churn_experiment<R: MergeRecorder + Send + 'static>(
    params: &ChurnParams,
    shards: usize,
    recorders: impl FnMut(usize) -> R,
) -> (ChurnOutcome, R) {
    let (n, seed) = (params.nodes, params.seed);
    let cfg = DiscoConfig::seeded(seed)
        .with_forgetful_dynamic(params.forgetful)
        .with_dynamic_n_estimation(!params.static_n);
    let (graph, mut engine) = scenario::network(n, seed, &cfg, shards, recorders);
    let report = engine.run();
    assert!(report.converged, "initial convergence failed");
    let convergence_msgs = report.stats.total_sent();
    let window = params.window.run(&mut engine, &graph, seed);

    let (queue_live, queue_dead) = engine.queue_stats();
    let stats = engine.merged_stats();
    let outcome = ChurnOutcome {
        window,
        topology_events: engine.topology_events(),
        messages_dropped: engine.messages_dropped(),
        convergence_msgs_per_node: convergence_msgs as f64 / n as f64,
        repair_msgs_per_node: (stats.total_sent() - convergence_msgs) as f64 / n as f64,
        messages_delivered: engine.messages_delivered(),
        stale_timer_pops: engine.stale_timer_pops(),
        queue_live,
        queue_dead,
        bytes_sent: stats.total_bytes(),
        bytes_received: stats.total_bytes_received(),
    };
    (outcome, engine.finish().recorder)
}

#[cfg(test)]
mod tests {
    use super::*;
    use disco_sim::NoopRecorder;

    /// The PR's acceptance run, at reduced scale so the suite stays fast:
    /// deterministic summary, ≥ 90% availability under churn, full
    /// availability after repair, bounded repair traffic. The full 512-node
    /// run is `churn_512_acceptance` (ignored by default; run with
    /// `cargo test -p disco-bench -- --ignored`) and the `exp_churn` binary.
    #[test]
    fn churn_small_acceptance() {
        let params = ChurnParams::sized(192, 7);
        let a = churn_experiment(&params, 1, |_| NoopRecorder).0;
        let b = churn_experiment(&params, 1, |_| NoopRecorder).0;
        assert_eq!(
            a.summary(&params),
            b.summary(&params),
            "same seed must reproduce a byte-identical summary"
        );
        let w = &a.window;
        assert!(w.quiesced, "churn repair must reach quiescence");
        assert!(
            w.availability >= 0.90,
            "availability under churn {:.4} < 0.90",
            w.availability
        );
        assert!(
            w.final_availability >= 0.99,
            "post-repair availability {:.4} < 0.99",
            w.final_availability
        );
        assert!(a.topology_events > 20, "expected real churn");
        assert!(
            a.repair_msgs_per_node < 50.0 * a.convergence_msgs_per_node,
            "repair traffic unbounded: {} msgs/node vs convergence {}",
            a.repair_msgs_per_node,
            a.convergence_msgs_per_node
        );
    }

    #[test]
    #[ignore = "full-scale acceptance run (~release-mode minutes in debug); exp_churn runs the same thing"]
    fn churn_512_acceptance() {
        let params = ChurnParams::sized(512, 1);
        let a = churn_experiment(&params, 1, |_| NoopRecorder).0;
        let b = churn_experiment(&params, 1, |_| NoopRecorder).0;
        assert_eq!(a.summary(&params), b.summary(&params));
        let w = &a.window;
        assert!(w.quiesced);
        assert!(w.availability >= 0.90, "availability {:.4}", w.availability);
    }
}
