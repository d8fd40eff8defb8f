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

use disco_core::config::DiscoConfig;
use disco_core::landmark::{landmark_set, select_landmarks};
use disco_core::protocol::{DiscoProtocol, PhaseTimers};
use disco_core::static_state::DiscoState;
use disco_dynamics::models::PoissonChurn;
use disco_dynamics::Schedule;
use disco_graph::{generators, Graph, NodeId, PathArena};
use disco_sim::{
    BinaryHeapQueue, Engine, EventQueue, NoopRecorder, Phase, Protocol, Recorder, ShardedEngine,
    TimerWheel,
};
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
    /// Use the legacy `BinaryHeap` event queue instead of the timer wheel
    /// (for queue-only comparisons).
    pub heap_queue: bool,
    /// Export the throughput leg as a Chrome `trace_event` timeline to this
    /// path (runs the full telemetry recorder; `None` = no-op recorder,
    /// the measured configuration).
    pub trace: Option<String>,
    /// Run the throughput leg on the sharded engine with this many worker
    /// shards (0 = the sequential engine). Delivered announcements,
    /// topology events and the simulation end time are identical for every
    /// shard count; wall-clock scales with cores. Incompatible with
    /// `heap_queue` and `trace` (the sharded engine runs the wheel queue
    /// untraced).
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
    /// Arena capacity cells released by the end-of-run compaction: on a
    /// sharded leg, the sum of every worker's [`PathArena::shrink`] after
    /// its engine is dropped in `ShardedEngine::finish` (without which the
    /// workers would exit still pinning `live ≈ peak` capacity — the
    /// shards-2/4 leak this column was added to witness); on a sequential
    /// leg, the main thread's shrink after the engine drops.
    pub arena_reclaimed_cells: usize,
    /// Topology events applied within the budget.
    pub topology_events: u64,
    /// Worker shards the leg ran on (0 = sequential engine).
    pub shards: usize,
    /// Simulation time when the run stopped — deterministic in
    /// `(n, seed, budget)`. Identical across all sharded shard counts
    /// (the budget check fires at K-invariant window barriers), which is
    /// the smoke gate's cross-shard determinism check; the sequential
    /// engine checks the budget per event and so stops slightly earlier.
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

/// Pre-refactor measurements `(n, events_per_sec, build_secs)` of the exact
/// same workload (seed 1, 3M-event budget) on the commit before the
/// timer-wheel + interned-path + incremental-selection refactor: BinaryHeap
/// event queue, `Vec<NodeId>` paths, O(table) cap scans. Every delivery was
/// a single event there, so events/sec *is* its announcements/sec.
pub const BASELINE_RESULTS: &[(usize, f64, f64)] =
    &[(1024, 306_468.0, 0.140), (4096, 127_948.0, 1.285)];

/// Provenance note stored next to [`BASELINE_RESULTS`] in the JSON report.
pub const BASELINE_NOTE: &str =
    "pre-refactor hot path (BinaryHeap queue, Vec<NodeId> paths, rescan selection) at seed 1, 3M-event budget";

/// Per-size `(n, events_per_sec)` of the recording made just before the
/// batched message plane landed (PR 4 sweep: per-message deliveries, so
/// every delivered announcement was one event and events/sec bounds its
/// announcements/sec from above). The batched plane's acceptance bar is
/// ≥1.5× the n=4096 number in *delivered announcements* per second.
pub const PRE_BATCH_RESULTS: &[(usize, f64)] =
    &[(1024, 988_069.0), (4096, 548_582.0), (16384, 438_285.0)];

/// Provenance note for [`PRE_BATCH_RESULTS`].
pub const PRE_BATCH_NOTE: &str =
    "pre-batching message plane (per-message wheel entries, O(degree) send resolution) at seed 1, 3M-event budget";

/// Run one leg: static parallel build, then the budgeted churn throughput
/// measurement. Deterministic in `(n, seed)` up to wall-clock numbers.
pub fn run_one(cfg: &ScaleConfig) -> ScaleResult {
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

    PathArena::reset_peak();
    let factory = |v: NodeId| {
        DiscoProtocol::new(v, lm_set.contains(&v), cfg.n, &dcfg, PhaseTimers::default())
    };

    fn drive<P: Protocol, Q: EventQueue<P::Message>, R: Recorder>(
        engine: &mut Engine<'_, P, Q, R>,
        budget: u64,
    ) -> (u64, u64, f64, u64, f64) {
        let t1 = Instant::now();
        engine.start();
        engine.run_until(|e| e.messages_delivered() >= budget);
        let secs = t1.elapsed().as_secs_f64();
        (
            engine.events_processed(),
            engine.messages_delivered(),
            secs,
            engine.topology_events(),
            engine.now(),
        )
    }

    if cfg.shards > 0 {
        assert!(!cfg.heap_queue, "--shards runs the wheel queue");
        let n = cfg.n;
        let factory_cfg = dcfg.clone();
        let factory = move |v: NodeId| {
            DiscoProtocol::new(
                v,
                lm_set.contains(&v),
                n,
                &factory_cfg,
                PhaseTimers::default(),
            )
        };
        let built = (landmarks_built, build_secs);
        return match &cfg.trace {
            // Traced leg: one full recorder per shard, merged at finish —
            // the timeline gains a work/ingest/wait counter track per shard.
            Some(path) => {
                let (result, rec) = run_sharded(cfg, built, &graph, &schedule, factory, |_| {
                    FullRecorder::new()
                });
                write_trace(path, &rec);
                result
            }
            None => run_sharded(cfg, built, &graph, &schedule, factory, |_| NoopRecorder).0,
        };
    }

    let (events, announcements, engine_secs, topology_events, sim_end) = if let Some(path) =
        &cfg.trace
    {
        // Traced leg: full recorder, wheel queue. The throughput numbers of
        // a traced run include the recorder's overhead — the gate always
        // runs untraced (NoopRecorder, below).
        let mut rec = FullRecorder::new();
        rec.phase_begin(Phase::Build, 0.0);
        rec.phase_end(Phase::Build, 0.0); // static build happened above
        let mut engine = Engine::with_recorder(&graph, factory, TimerWheel::new(), rec);
        schedule.apply_to(&mut engine);
        engine.recorder_mut().phase_begin(Phase::Churn, 0.0);
        let out = drive(&mut engine, cfg.announcement_budget);
        let end = engine.now();
        engine.recorder_mut().phase_end(Phase::Churn, end);
        engine.recorder_mut().finish(end);
        write_trace(path, &engine.into_recorder());
        out
    } else if cfg.heap_queue {
        let mut engine = Engine::with_queue(&graph, factory, BinaryHeapQueue::new());
        schedule.apply_to(&mut engine);
        drive(&mut engine, cfg.announcement_budget)
    } else {
        let mut engine = Engine::with_recorder(&graph, factory, TimerWheel::new(), NoopRecorder);
        schedule.apply_to(&mut engine);
        drive(&mut engine, cfg.announcement_budget)
    };
    let arena = PathArena::stats();
    let arena_reclaimed_cells = PathArena::shrink();

    ScaleResult {
        n: cfg.n,
        landmarks: landmarks_built,
        build_secs,
        events,
        announcements,
        engine_secs,
        events_per_sec: events as f64 / engine_secs.max(1e-9),
        announcements_per_sec: announcements as f64 / engine_secs.max(1e-9),
        peak_arena_cells: arena.peak_live_cells,
        live_arena_cells: arena.live_cells,
        arena_reclaimed_cells,
        topology_events,
        shards: 0,
        sim_end,
    }
}

fn write_trace(path: &str, rec: &FullRecorder) {
    let json = rec.chrome_trace_json();
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    eprintln!("trace written to {path} ({} bytes)", json.len());
}

/// The budgeted throughput leg on the sharded engine, after a static build
/// that gave `(landmarks, build_secs)`; returns the merged recorder
/// alongside.
fn run_sharded<R: MergeRecorder + Send + 'static>(
    cfg: &ScaleConfig,
    (landmarks, build_secs): (usize, f64),
    graph: &Graph,
    schedule: &Schedule,
    factory: impl Fn(NodeId) -> DiscoProtocol + Send + Clone + 'static,
    recorders: impl FnMut(usize) -> R,
) -> (ScaleResult, R) {
    let mut engine = ShardedEngine::with_recorder(graph, cfg.shards, cfg.seed, factory, recorders);
    schedule
        .apply_to_sharded(&mut engine)
        .expect("churn re-adds only links of the original graph");
    let budget = cfg.announcement_budget;
    let t1 = Instant::now();
    engine.start();
    engine.run_until(|e| e.messages_delivered() >= budget);
    let engine_secs = t1.elapsed().as_secs_f64();
    // Path arenas are thread-local: each worker gauges its own; the sum
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
    // Shut the workers down properly: each drops its engine and
    // compacts its thread-local arena, so the run does not exit with
    // `live ≈ peak` capacity pinned per worker.
    let summary = engine.finish();
    let result = ScaleResult {
        n: cfg.n,
        landmarks,
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
            heap_queue: false,
            trace: None,
            shards: 0,
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

    /// The heap-queue leg must process the identical event stream (same
    /// event and announcement counts for the same budget — determinism
    /// across queues).
    #[test]
    fn heap_and_wheel_legs_agree_on_event_count() {
        let mk = |heap| ScaleConfig {
            n: 96,
            seed: 5,
            announcement_budget: 40_000,
            build_threads: 1,
            heap_queue: heap,
            trace: None,
            shards: 0,
        };
        let a = run_one(&mk(false));
        let b = run_one(&mk(true));
        assert_eq!(a.events, b.events);
        assert_eq!(a.announcements, b.announcements);
        assert_eq!(a.topology_events, b.topology_events);
    }

    /// The sharded leg's budget stop is shard-count-invariant: delivered
    /// announcements, topology events and the simulation end time agree
    /// across shard counts (the `--shards K --smoke` gate's contract).
    #[test]
    fn sharded_legs_agree_across_shard_counts() {
        let mk = |shards| ScaleConfig {
            n: 96,
            seed: 5,
            announcement_budget: 40_000,
            build_threads: 1,
            heap_queue: false,
            trace: None,
            shards,
        };
        let a = run_one(&mk(1));
        let b = run_one(&mk(2));
        assert_eq!(a.announcements, b.announcements);
        assert_eq!(a.topology_events, b.topology_events);
        assert_eq!(a.sim_end, b.sim_end);
        assert!(a.announcements >= 40_000);
        // The workers' end-of-run compaction released the churn peak: the
        // run's live cells were freed by the engine drop, and shrink gave
        // the capacity back instead of leaving `live ≈ peak` pinned.
        assert!(
            a.arena_reclaimed_cells >= a.live_arena_cells / 2,
            "worker arenas not compacted: reclaimed {} of {} live",
            a.arena_reclaimed_cells,
            a.live_arena_cells
        );
        assert!(b.arena_reclaimed_cells >= b.live_arena_cells / 2);
    }
}
