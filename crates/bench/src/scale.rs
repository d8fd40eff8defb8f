//! The `exp_scale` workload: hot-path throughput and memory gauges at one
//! network size.
//!
//! The measured leg is the distributed Disco protocol booting *under* a
//! Poisson churn schedule, capped at a fixed budget of **delivered
//! announcements** so the cost of a measurement is independent of `n` —
//! what varies with `n` is the per-message cost (routing-table size,
//! candidate-set size, queue residency), which is exactly what the
//! announcements/sec number tracks. The budget counts protocol messages
//! delivered to `on_message`, not queue pops: since the batched message
//! plane packs a whole table dump into one queue entry, events/sec could
//! be "improved" arbitrarily by packing more work per event, while a
//! delivered announcement means the same protocol work in every
//! configuration. The static-build timing exercises
//! `DiscoState::build_parallel` with the `threads` knob.

use crate::cli::write_trace;
use disco_core::config::DiscoConfig;
use disco_core::landmark::{landmark_set, select_landmarks};
use disco_core::protocol::{DiscoProtocol, PhaseTimers};
use disco_core::static_state::DiscoState;
use disco_dynamics::models::PoissonChurn;
use disco_graph::{generators, PathArena};
use disco_sim::{NoopRecorder, Phase, ShardedEngine};
use disco_telemetry::{FullRecorder, MergeRecorder};
use std::time::Instant;

/// Parameters of one `exp_scale` leg.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// Network size.
    pub n: usize,
    /// Experiment seed.
    pub seed: u64,
    /// Delivered-announcement budget for the throughput leg (the run stops
    /// once this many messages reached `on_message`, or at quiescence).
    pub announcement_budget: u64,
    /// Worker threads for the static build (0 = one per CPU).
    pub build_threads: usize,
    /// Export the throughput leg as a Chrome `trace_event` timeline to this
    /// path (runs the full telemetry recorder on every shard, merged; the
    /// timeline carries a work/ingest/wait counter track per shard).
    /// `None` = no-op recorder, the measured configuration.
    pub trace: Option<String>,
    /// Engine shards the throughput leg runs on (one worker thread each).
    /// Delivered announcements, topology events and the simulation end
    /// time are identical for every shard count; wall-clock scales with
    /// cores.
    pub shards: usize,
}

/// Measurements of one `exp_scale` leg.
#[derive(Debug, Clone)]
pub struct ScaleResult {
    /// Network size.
    pub n: usize,
    /// Landmarks elected at this size.
    pub landmarks: usize,
    /// Wall time of `DiscoState::build_parallel`.
    pub build_secs: f64,
    /// Engine events (queue pops) processed in the throughput leg.
    pub events: u64,
    /// Announcements delivered to `on_message` upcalls (batch members
    /// counted individually).
    pub announcements: u64,
    /// Wall time of the throughput leg.
    pub engine_secs: f64,
    /// Queue pops per second (a batch counts once — see
    /// [`ScaleResult::announcements_per_sec`] for the headline number).
    pub events_per_sec: f64,
    /// The headline number: delivered announcements per second.
    pub announcements_per_sec: f64,
    /// Peak live path-arena cells during the run (allocation gauge — the
    /// RSS proxy for routing state).
    pub peak_arena_cells: usize,
    /// Live path-arena cells at the end of the run (gauged while the
    /// engine still holds its routing state).
    pub live_arena_cells: usize,
    /// Arena capacity cells released by the end-of-run compaction: the sum
    /// of every shard's [`PathArena::shrink`] after its engine is dropped
    /// in `ShardedEngine::finish` (without which worker threads would exit
    /// still pinning `live ≈ peak` capacity — the shards-2/4 leak this
    /// column was added to witness).
    pub arena_reclaimed_cells: usize,
    /// Topology events applied within the budget.
    pub topology_events: u64,
    /// Engine shards the leg ran on.
    pub shards: usize,
    /// Simulation time when the run stopped — deterministic in
    /// `(n, seed, budget)` and identical across shard counts (the budget
    /// check fires at K-invariant window barriers, so the run overshoots
    /// the budget by up to one window's deliveries), which is the smoke
    /// gate's cross-shard determinism check.
    pub sim_end: f64,
}

impl ScaleResult {
    /// One JSON object literal (hand-rolled; the serde stand-in does not
    /// serialize), stamped with the core count of the machine rendering it
    /// — a sharded rate means nothing without it.
    pub fn to_json(&self) -> String {
        let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
        format!(
            "{{ \"n\": {}, \"landmarks\": {}, \"build_secs\": {:.3}, \
             \"events\": {}, \"announcements\": {}, \"engine_secs\": {:.3}, \
             \"events_per_sec\": {:.0}, \"announcements_per_sec\": {:.0}, \
             \"peak_arena_cells\": {}, \"live_arena_cells\": {}, \
             \"arena_reclaimed_cells\": {}, \
             \"topology_events\": {}, \"shards\": {}, \"nproc\": {nproc}, \
             \"sim_end\": {:.6} }}",
            self.n,
            self.landmarks,
            self.build_secs,
            self.events,
            self.announcements,
            self.engine_secs,
            self.events_per_sec,
            self.announcements_per_sec,
            self.peak_arena_cells,
            self.live_arena_cells,
            self.arena_reclaimed_cells,
            self.topology_events,
            self.shards,
            self.sim_end
        )
    }
}

/// Run one leg: static parallel build, then the budgeted churn throughput
/// measurement. Deterministic in `(n, seed)` up to wall-clock numbers.
pub fn run_one(cfg: &ScaleConfig) -> ScaleResult {
    match &cfg.trace {
        // Traced leg: the throughput numbers include the recorders'
        // overhead — the gate always runs untraced.
        Some(path) => {
            let (result, rec) = run_with(cfg, |_| FullRecorder::new());
            write_trace(path, &rec);
            result
        }
        None => run_with(cfg, |_| NoopRecorder).0,
    }
}

fn run_with<R: MergeRecorder + Send + 'static>(
    cfg: &ScaleConfig,
    recorders: impl FnMut(usize) -> R,
) -> (ScaleResult, R) {
    let graph = generators::gnm_average_degree(cfg.n, 8.0, cfg.seed);
    let dcfg = DiscoConfig::seeded(cfg.seed);

    let t0 = Instant::now();
    let st = DiscoState::build_parallel(&graph, &dcfg, cfg.build_threads);
    let build_secs = t0.elapsed().as_secs_f64();
    let landmarks_built = st.landmarks().len();
    drop(st);

    let landmarks = select_landmarks(cfg.n, &dcfg);
    let lm_set = landmark_set(&landmarks);
    let model = PoissonChurn {
        leave_rate_per_node: 0.0002,
        mean_downtime: 150.0,
        horizon: 300.0,
        ..PoissonChurn::default()
    };
    let schedule = model.compile(&graph, cfg.seed);

    let n = cfg.n;
    let mut engine = ShardedEngine::with_recorder(
        &graph,
        cfg.shards,
        cfg.seed,
        move |v| DiscoProtocol::new(v, lm_set.contains(&v), n, &dcfg, PhaseTimers::default()),
        recorders,
    );
    for shard in 0..engine.shards() {
        engine.visit(shard, |_| PathArena::reset_peak());
    }
    schedule.apply_to(&mut engine);
    engine.mark(|r| {
        r.phase_begin(Phase::Build, 0.0);
        r.phase_end(Phase::Build, 0.0); // static build happened above
        r.phase_begin(Phase::Churn, 0.0);
    });
    let budget = cfg.announcement_budget;
    let t1 = Instant::now();
    engine.start();
    engine.run_until(|e| e.messages_delivered() >= budget);
    let engine_secs = t1.elapsed().as_secs_f64();
    // Path arenas are thread-local: each shard gauges its own; the sum
    // is the whole run's routing-state footprint.
    let (mut peak, mut live) = (0usize, 0usize);
    for shard in 0..engine.shards() {
        let st = engine.visit(shard, |_| PathArena::stats());
        peak += st.peak_live_cells;
        live += st.live_cells;
    }
    let events = engine.events_processed();
    let announcements = engine.messages_delivered();
    let topology_events = engine.topology_events();
    let sim_end = engine.now();
    // Shut the shards down properly: each drops its engine and compacts
    // its thread-local arena (`finish` also closes the open churn span).
    let summary = engine.finish();
    let result = ScaleResult {
        n: cfg.n,
        landmarks: landmarks_built,
        build_secs,
        events,
        announcements,
        engine_secs,
        events_per_sec: events as f64 / engine_secs.max(1e-9),
        announcements_per_sec: announcements as f64 / engine_secs.max(1e-9),
        peak_arena_cells: peak,
        live_arena_cells: live,
        arena_reclaimed_cells: summary.arena_reclaimed_cells,
        topology_events,
        shards: cfg.shards,
        sim_end,
    };
    (result, summary.recorder)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny smoke of the scale leg itself: it runs, counts announcements
    /// against the budget, and reports non-trivial arena usage.
    #[test]
    fn scale_leg_runs_within_budget() {
        let r = run_one(&ScaleConfig {
            n: 128,
            seed: 3,
            announcement_budget: 50_000,
            build_threads: 2,
            trace: None,
            shards: 1,
        });
        assert_eq!(r.n, 128);
        assert!(r.landmarks > 0);
        assert!(
            r.announcements >= 50_000,
            "budget not reached: {}",
            r.announcements
        );
        assert!(r.events > 0 && r.events < r.announcements + 50_000);
        assert!(r.peak_arena_cells > 0);
        assert!(r.build_secs >= 0.0 && r.engine_secs > 0.0);
        let j = r.to_json();
        assert!(j.contains("\"announcements_per_sec\""));
    }

    /// The leg's budget stop is shard-count-invariant: delivered
    /// announcements, topology events and the simulation end time agree
    /// across shard counts (the `--shards K --smoke` gate's contract).
    #[test]
    fn sharded_legs_agree_across_shard_counts() {
        let mk = |shards| ScaleConfig {
            n: 96,
            seed: 5,
            announcement_budget: 40_000,
            build_threads: 1,
            trace: None,
            shards,
        };
        let a = run_one(&mk(1));
        let b = run_one(&mk(2));
        assert_eq!(a.announcements, b.announcements);
        assert_eq!(a.topology_events, b.topology_events);
        assert_eq!(a.sim_end, b.sim_end);
        assert!(a.announcements >= 40_000);
        // The shards' end-of-run compaction released the churn peak: the
        // run's live cells were freed by the engine drop, and shrink gave
        // the capacity back instead of leaving `live ≈ peak` pinned.
        assert!(
            a.arena_reclaimed_cells >= a.live_arena_cells / 2,
            "shard arenas not compacted: reclaimed {} of {} live",
            a.arena_reclaimed_cells,
            a.live_arena_cells
        );
        assert!(b.arena_reclaimed_cells >= b.live_arena_cells / 2);
    }
}
