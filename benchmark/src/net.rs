//! What every workload shares: the generated network, the protocol
//! configuration the issue pins, the traced-run recorder, and the
//! boot-to-quiescence step.

use disco_core::config::DiscoConfig;
use disco_core::landmark::{landmark_set, select_landmarks};
use disco_core::protocol::{DiscoMsg, DiscoProtocol, PhaseTimers};
use disco_graph::{generators, FxHashSet, Graph, NodeId, PathArena};
use disco_sim::{Engine, MergeRecorder, MessageClass, Recorder, TimerWheel};
use disco_telemetry::FullRecorder;
use std::time::Instant;

/// Average degree of every benchmark topology (the paper's G(n, m)).
pub const AVG_DEGREE: f64 = 8.0;

/// The sequential engine every workload but `shard2` drives.
pub type SeqEngine<R> = Engine<'static, DiscoProtocol, TimerWheel<DiscoMsg>, R>;

/// Seed of the one network (per n) every run uses.
pub const NETWORK_SEED: u64 = 1;

/// The network of a run: the G(n, m) topology, the protocol configuration
/// and the landmark draw, all from [`NETWORK_SEED`]. `--seed` does not
/// reach it: it draws the traffic (probe pairs, flows), and a driver that
/// takes the benchmark's noise from runs on ten different seeds would
/// otherwise take the spread *between networks* for noise — 9 % on
/// `state_per_node`, 13–26 % on `repair_msgs_per_event`, 19 % on
/// `lm_leave_s` across topologies drawn per seed, and still 26–31 % on a
/// 60-event tail's `repair_ms_p90` across mere relabellings of one
/// topology (README, "Seeds").
pub struct Net {
    pub n: usize,
    pub graph: Graph,
    pub cfg: DiscoConfig,
    pub landmarks: Vec<NodeId>,
    pub lm_set: FxHashSet<NodeId>,
    /// Host milliseconds `gnm_average_degree` took.
    pub gnm_ms: f64,
}

impl Net {
    pub fn generate(n: usize) -> Net {
        let t0 = Instant::now();
        let graph = generators::gnm_average_degree(n, AVG_DEGREE, NETWORK_SEED);
        let gnm_ms = t0.elapsed().as_secs_f64() * 1e3;
        // Static n on purpose: with the synopsis gossip on, an n=1024 boot
        // does not quiesce within ten minutes on the reference box, so no
        // to-quiescence workload is affordable with it (see README).
        let cfg = DiscoConfig::seeded(NETWORK_SEED).with_dynamic_n_estimation(false);
        let landmarks = select_landmarks(n, &cfg);
        Net {
            n,
            graph,
            cfg,
            lm_set: landmark_set(&landmarks),
            landmarks,
            gnm_ms,
        }
    }

    /// Node factory for either engine (owned, so it can move to shard
    /// workers and outlive this `Net`).
    pub fn factory(&self) -> impl Fn(NodeId) -> DiscoProtocol + Clone + Send + 'static {
        let (n, cfg, lm_set) = (self.n, self.cfg.clone(), self.lm_set.clone());
        move |v| DiscoProtocol::new(v, lm_set.contains(&v), n, &cfg, PhaseTimers::default())
    }

    /// √(n ln n): the paper's per-node state scale.
    pub fn state_scale(&self) -> f64 {
        let n = self.n as f64;
        (n * n.ln()).sqrt()
    }
}

/// The traced run's recorder: the stock [`FullRecorder`] plus a count of
/// `selection_changed` calls, which it folds into a latency probe and
/// does not expose as a number.
#[derive(Debug, Clone, Default)]
pub struct Tap {
    pub full: FullRecorder,
    pub selection_changes: u64,
}

impl Recorder for Tap {
    fn message_sent(&mut self, now: f64, class: MessageClass, count: u64, bytes: u64) {
        self.full.message_sent(now, class, count, bytes);
    }
    fn message_delivered(&mut self, now: f64, class: MessageClass, from: u32, to: u32) {
        self.full.message_delivered(now, class, from, to);
    }
    fn message_dropped(&mut self, now: f64, class: MessageClass, count: u64) {
        self.full.message_dropped(now, class, count);
    }
    fn event_done(&mut self, class: MessageClass, wall_nanos: u64) {
        self.full.event_done(class, wall_nanos);
    }
    fn topology_changed(&mut self, now: f64, kind: &'static str, node: u32) {
        self.full.topology_changed(now, kind, node);
    }
    fn selection_changed(&mut self, now: f64, node: u32) {
        self.selection_changes += 1;
        self.full.selection_changed(now, node);
    }
    fn finish(&mut self, now: f64) {
        self.full.finish(now);
    }
}

impl MergeRecorder for Tap {
    fn absorb(&mut self, other: Self) {
        self.selection_changes += other.selection_changes;
        self.full.absorb(other.full);
    }
}

/// The engine classes the per-layer table reports busy time for.
pub const BUSY_CLASSES: [MessageClass; 6] = [
    MessageClass::Flood,
    MessageClass::Batch,
    MessageClass::Deliver,
    MessageClass::Withdraw,
    MessageClass::Timer,
    MessageClass::Topology,
];

impl Tap {
    /// Summed `event_done` nanoseconds over every class.
    pub fn busy_ns(&self) -> u64 {
        MessageClass::ALL
            .iter()
            .map(|&c| self.full.registry.latency(c).sum())
            .sum()
    }
}

/// Counters of one boot to quiescence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BootStats {
    pub secs: f64,
    pub quiesced: bool,
    pub delivered: u64,
    pub events: u64,
    pub sim_end: f64,
    /// Largest live queue depth seen (sampled by traced boots only; 0
    /// otherwise).
    pub queue_peak: usize,
}

impl BootStats {
    pub fn anns_per_s(&self) -> f64 {
        self.delivered as f64 / self.secs
    }
}

/// A fresh sequential engine over `net`, not yet started.
pub fn seq_engine<R: Recorder>(net: &Net, recorder: R) -> SeqEngine<R> {
    Engine::with_recorder(&net.graph, net.factory(), TimerWheel::new(), recorder)
}

/// `start()` + run to quiescence, timed. With `sample_queue` the queue
/// depth is read after every event (the engine exposes no peak gauge of
/// its own); the untraced boot runs the plain loop.
pub fn boot<R: Recorder>(engine: &mut SeqEngine<R>, sample_queue: bool) -> BootStats {
    let t0 = Instant::now();
    engine.start();
    let mut queue_peak = 0;
    let quiesced = if sample_queue {
        engine.run_until(|e| {
            queue_peak = queue_peak.max(e.queue_stats().0);
            false
        })
    } else {
        engine.run_until(|_| false)
    };
    BootStats {
        secs: t0.elapsed().as_secs_f64(),
        quiesced,
        delivered: engine.messages_delivered(),
        events: engine.events_processed(),
        sim_end: engine.now(),
        queue_peak,
    }
}

/// Give freed path-arena capacity back and restart its peak gauge, so the
/// next rep (or workload phase) starts from the same allocator state.
pub fn reset_arena() {
    PathArena::shrink();
    PathArena::reset_peak();
}
