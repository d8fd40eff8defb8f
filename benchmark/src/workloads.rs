//! The four workloads. Each is set-up → timed region → a short
//! repair-and-serve tail on the network it built, so every workload can
//! report every end-to-end metric from work it really did; what differs
//! is which stage is the timed region and at what size (README).

use crate::gen::{self, Kind, ScriptEvent};
use crate::json::Json;
use crate::metrics;
use crate::net::{
    boot, reset_arena, seq_engine, BootStats, Net, SeqEngine, Tap, BUSY_CLASSES, NETWORK_SEED,
};
use crate::plane::{apply_event, walk, Chain, EventSample, Fnv, Plane, Tables, WalkStats};
use crate::probes;
use crate::spans::Spans;
use crate::stats::{median, percentile, summarize};
use disco_core::protocol::DiscoProtocol;
use disco_graph::{NodeId, PathArena};
use disco_sim::{
    MergeRecorder, MessageClass, NoopRecorder, Recorder, ShardedEngine, TopologyEvent,
};
use disco_telemetry::ChromeTrace;
use std::time::Instant;

/// `--seconds` from which a run has the issue's full sizes (5 boot reps,
/// 400 events + 2 landmark departures, 10 batches).
pub const FULL_SECONDS: u64 = 32;
/// Shards of the `shard2` workload.
const SHARDS: usize = 2;
/// Set-up is repeated (and its median reported) until it has run this
/// often or used this much time, whichever comes first.
const SETUP_REPS: usize = 5;
const SETUP_BUDGET_S: f64 = 1.5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Boot,
    Repair,
    Forward,
    Shard2,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Boot,
        Workload::Repair,
        Workload::Forward,
        Workload::Shard2,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Boot => "boot",
            Workload::Repair => "repair",
            Workload::Forward => "forward",
            Workload::Shard2 => "shard2",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Why the workload exists, in one line (`BENCHMARK.json` carries it).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Boot => {
                "Insert-heavy control plane at n=2048: fresh sequential boots to quiescence; flood \
                 replication, RibStore insert/select, arena intern and wheel push/pop do the work, \
                 the data plane none."
            }
            Workload::Repair => {
                "The chain one event at a time at n=1024: link and node down/up events and a \
                 landmark departure, each to quiescence, republish and 256 served probes; \
                 withdraw/reselect/release, not insert."
            }
            Workload::Forward => {
                "Data plane only: batches of 1M Zipf+uniform walks over 15 MB of compiled tables at \
                 n=2048 with the control plane idle, so a control-plane change must leave \
                 lookups_per_s unmoved."
            }
            Workload::Shard2 => {
                "The only workload where sim::sharded and core::wire do the work: an n=1024 boot to \
                 quiescence on ShardedEngine with K=2, checked bit for bit against its sequential \
                 reference."
            }
        }
    }

    /// Busy threads of the timed region (the coordinator of `shard2` is
    /// parked at the barrier while its two workers run).
    pub fn threads(self) -> usize {
        match self {
            Workload::Shard2 => SHARDS,
            _ => 1,
        }
    }
}

/// How much work one run does. Sizes are a function of `--seconds` alone
/// (never of a clock), so the same arguments always do the same work and
/// the simulated metrics repeat exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct Sizes {
    pub n: usize,
    /// `boot`: fresh-engine boots in the timed region.
    pub boot_reps: usize,
    /// `repair`: ordinary events and landmark departures in the script.
    pub events: usize,
    pub lm_departures: usize,
    /// `forward`: timed batches and walks per batch.
    pub batches: usize,
    pub batch_walks: usize,
    /// Other workloads: ordinary events and served walks of the tail.
    pub tail_events: usize,
    pub serve_walks: usize,
    /// Probe walks after each event.
    pub probes: usize,
    pub setup_reps: usize,
}

impl Sizes {
    /// Sizes for a run meant to measure about `seconds` on the reference
    /// box; [`FULL_SECONDS`] and up gives the issue's full sizes.
    pub fn new(workload: Workload, seconds: u64, smoke: bool) -> Sizes {
        let s = seconds.max(1) as f64;
        let big = matches!(workload, Workload::Boot | Workload::Forward);
        if smoke {
            return Sizes {
                n: if big { 128 } else { 96 },
                boot_reps: 2,
                events: 16,
                lm_departures: 1,
                batches: 2,
                batch_walks: 10_000,
                tail_events: 8,
                serve_walks: 10_000,
                probes: 64,
                setup_reps: 2,
            };
        }
        Sizes {
            n: if big { 2048 } else { 1024 },
            boot_reps: ((s / 7.0).round() as usize).clamp(1, 5),
            events: ((s * 12.5) as usize).clamp(100, 400) / 4 * 4,
            // One departure costs as much as 1,500 ordinary events: only
            // the full-size suite can afford any.
            lm_departures: if seconds >= FULL_SECONDS { 2 } else { 0 },
            batches: ((s / 2.5).round() as usize).clamp(2, 10),
            batch_walks: 1_000_000,
            tail_events: 60,
            serve_walks: 200_000,
            probes: 256,
            setup_reps: SETUP_REPS,
        }
    }

    /// The reduced untraced pass a traced run makes first, to have a wall
    /// time to take the tracing overhead against.
    fn overhead_base(&self) -> Sizes {
        Sizes {
            // Two, so that its last rep runs on a warm heap like the
            // traced pass's does.
            boot_reps: 2,
            lm_departures: 0,
            batches: 0,
            tail_events: 0,
            serve_walks: 0,
            setup_reps: 1,
            ..self.clone()
        }
    }

    pub fn describe(&self, workload: Workload) -> Vec<(&'static str, u64)> {
        let mut out = vec![("n", self.n as u64), ("probes", self.probes as u64)];
        match workload {
            Workload::Boot => out.push(("boot_reps", self.boot_reps as u64)),
            Workload::Repair => {
                out.push(("events", self.events as u64));
                out.push(("lm_departures", self.lm_departures as u64));
            }
            Workload::Forward => {
                out.push(("batches", self.batches as u64));
                out.push(("batch_walks", self.batch_walks as u64));
            }
            Workload::Shard2 => out.push(("shards", SHARDS as u64)),
        }
        if workload != Workload::Repair {
            out.push(("tail_events", self.tail_events as u64));
        }
        if workload != Workload::Forward {
            out.push(("serve_walks", self.serve_walks as u64));
        }
        out
    }
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub values: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    /// One line per correctness failure.
    pub reasons: Vec<String>,
    /// Fold of every deterministic output of the run.
    pub digest: u64,
    /// Host seconds of the work the tracing overhead is taken over.
    unit_s: f64,
    /// Chrome trace of a traced run.
    pub trace: Option<String>,
}

impl Outcome {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(metrics::find(name).is_some(), "unlisted metric {name}");
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| *n == name).map(|v| v.1)
    }

    /// One attempted operation that either held or failed.
    fn check(&mut self, ok: bool, reason: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.reasons.push(reason());
        }
    }

    fn count_walks(&mut self, w: &WalkStats, what: &str) {
        self.attempted += w.walks;
        if w.failed > 0 {
            self.failed += w.failed;
            self.reasons.push(format!(
                "{} of {} {what} walks between routable pairs not delivered",
                w.failed, w.walks
            ));
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Untraced or traced: the recorder type the engines are built over.
pub trait Mode {
    type Rec: Recorder + MergeRecorder + Default + Send + 'static;
    const TRACED: bool;
    fn tap(rec: &Self::Rec) -> Option<&Tap>;
}

pub struct Untraced;
pub struct Traced;

impl Mode for Untraced {
    type Rec = NoopRecorder;
    const TRACED: bool = false;
    fn tap(_: &NoopRecorder) -> Option<&Tap> {
        None
    }
}

impl Mode for Traced {
    type Rec = Tap;
    const TRACED: bool = true;
    fn tap(rec: &Tap) -> Option<&Tap> {
        Some(rec)
    }
}

/// One pass of one workload: its inputs, its spans, what it measured.
struct Run<'a> {
    seed: u64,
    sizes: &'a Sizes,
    spans: &'a mut Spans,
    out: Outcome,
}

/// Run `workload`. A traced run first makes a reduced untraced pass (the
/// base of `telemetry.full.overhead.*`), then the traced pass, then the
/// micro-probes of the layers that workload leans on.
pub fn run(workload: Workload, seed: u64, sizes: &Sizes, traced: bool) -> Outcome {
    if !traced {
        return run_pass::<Untraced>(workload, seed, sizes, &mut Spans::new(false));
    }
    let overhead = match workload {
        Workload::Boot => Some("telemetry.full.overhead.boot"),
        Workload::Repair => Some("telemetry.full.overhead.repair"),
        Workload::Shard2 => Some("telemetry.full.overhead.shard2"),
        // No recorder sits on the data plane: nothing to take it over.
        Workload::Forward => None,
    };
    let base = overhead.map(|name| {
        let base = run_pass::<Untraced>(
            workload,
            seed,
            &sizes.overhead_base(),
            &mut Spans::new(false),
        );
        reset_arena();
        (name, base)
    });
    let mut spans = Spans::new(true);
    let mut out = run_pass::<Traced>(workload, seed, sizes, &mut spans);
    if let Some((name, base)) = base {
        out.set(name, out.unit_s / base.unit_s);
        // The process's high-water mark is only clean the first time.
        if let Some(ratio) = base.get("sim.sharded.rss_ratio") {
            out.set("sim.sharded.rss_ratio", ratio);
        }
    }
    reset_arena();
    let probe = spans.open("probes", None, 0);
    let queue_depth = out.get("sim.event.queue_peak").unwrap_or(0.0) as usize;
    for (name, value) in probes::run(workload, seed, sizes, queue_depth) {
        out.set(name, value);
    }
    spans.close(probe);
    let mut trace = ChromeTrace::new();
    trace.thread_name(1, workload.name());
    spans.export(&mut trace, 1);
    let self_s = Json::obj(
        spans
            .self_seconds_by_name()
            .into_iter()
            .map(|(n, s)| (n, Json::Num(s))),
    );
    out.trace = Some(trace.into_json(&[("self_seconds_by_span", self_s.compact())]));
    out
}

fn run_pass<M: Mode>(workload: Workload, seed: u64, sizes: &Sizes, spans: &mut Spans) -> Outcome {
    let mut run = Run {
        seed,
        sizes,
        spans,
        out: Outcome::default(),
    };
    match workload {
        Workload::Boot => run_boot::<M>(&mut run),
        Workload::Repair => run_repair::<M>(&mut run),
        Workload::Forward => run_forward::<M>(&mut run),
        Workload::Shard2 => run_shard2::<M>(&mut run),
    }
    let mut out = run.out;
    out.set("peak_rss_mb", vm_hwm_mb());
    out.set(
        "failed_share",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    out
}

/// `VmHWM` of this process in MB (0 where `/proc` is missing).
pub fn vm_hwm_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run `build` up to `sizes.setup_reps` times within the set-up budget;
/// keeps the last build and reports the median seconds one build took.
fn repeat_setup<S>(run: &mut Run<'_>, mut build: impl FnMut(&Sizes) -> S) -> S {
    let span = run.spans.open("setup", None, 0);
    let started = Instant::now();
    let mut secs = Vec::new();
    let built = loop {
        let t0 = Instant::now();
        let built = build(run.sizes);
        secs.push(t0.elapsed().as_secs_f64());
        if secs.len() >= run.sizes.setup_reps || started.elapsed().as_secs_f64() >= SETUP_BUDGET_S {
            break built;
        }
        drop(built);
        reset_arena();
    };
    run.spans.close(span);
    run.out.set("setup_s", median(&secs));
    built
}

/// A network booted to quiescence on the sequential engine with every
/// table compiled: the set-up of `repair` and `forward`, and the
/// sequential reference of `shard2`.
struct Converged<R: Recorder> {
    net: Net,
    engine: SeqEngine<R>,
    tables: Tables,
    boot: BootStats,
}

fn converge<R: Recorder + Default>(n: usize) -> Converged<R> {
    let net = Net::generate(n);
    let mut engine = seq_engine(&net, R::default());
    let boot = boot(&mut engine, false);
    let mut tables = Tables::new(n);
    engine.republish(&mut tables, &mut Spans::new(false), None, 0, false);
    Converged {
        net,
        engine,
        tables,
        boot,
    }
}

fn live_nodes<P: Plane>(plane: &P) -> Vec<NodeId> {
    (0..plane.graph().node_count())
        .map(NodeId)
        .filter(|&v| plane.is_active(v))
        .collect()
}

fn digest<P: Plane>(plane: &P, tables: &Tables) -> u64 {
    let mut h = Fnv::default();
    h.u64(plane.delivered());
    h.u64(plane.dropped());
    h.u64(plane.topology_events());
    h.u64(plane.now().to_bits());
    tables.fold_into(&mut h);
    h.0
}

/// What a boot to quiescence leaves behind: the simulated metrics and the
/// exact counts of the layers under it. `delivered` and `events` are the
/// boot's own (the plane may have run on since).
fn report_boot<P: Plane>(out: &mut Outcome, plane: &mut P, net: &Net, delivered: u64, events: u64) {
    let live = live_nodes(plane).len() as f64;
    let cand_per_node = plane.candidates() as f64 / live;
    out.set("ctrl_msgs_per_node", delivered as f64 / net.n as f64);
    out.set("state_per_node", cand_per_node / net.state_scale());
    out.set("core.rib.cand_per_node", cand_per_node);
    out.set("graph.generators.gnm_ms", net.gnm_ms);
    out.set("sim.engine.events", events as f64);
    out.set(
        "sim.engine.anns_per_event",
        delivered as f64 / events as f64,
    );
}

fn report_arena(out: &mut Outcome) {
    let arena = PathArena::stats();
    out.set("graph.arena.peak_cells", arena.peak_live_cells as f64);
    out.set("graph.arena.live_cells", arena.live_cells as f64);
}

/// Per-class `event_done` sums and counts of a traced engine, as a
/// snapshot that can be subtracted from a later one.
#[derive(Debug, Clone, Copy, Default)]
struct Busy {
    ns: [u64; BUSY_CLASSES.len()],
    count: [u64; BUSY_CLASSES.len()],
    total_ns: u64,
    selection_changes: u64,
}

impl Busy {
    fn of(tap: Option<&Tap>) -> Busy {
        let Some(tap) = tap else {
            return Busy::default();
        };
        let mut b = Busy {
            total_ns: tap.busy_ns(),
            selection_changes: tap.selection_changes,
            ..Busy::default()
        };
        for (i, &class) in BUSY_CLASSES.iter().enumerate() {
            let lat = tap.full.registry.latency(class);
            b.ns[i] = lat.sum();
            b.count[i] = lat.count();
        }
        b
    }

    fn since(mut self, earlier: Busy) -> Busy {
        for i in 0..BUSY_CLASSES.len() {
            self.ns[i] -= earlier.ns[i];
            self.count[i] -= earlier.count[i];
        }
        self.total_ns -= earlier.total_ns;
        self.selection_changes -= earlier.selection_changes;
        self
    }

    /// Report the split of `wall_s` host seconds spent inside the engine.
    fn report(&self, out: &mut Outcome, wall_s: f64) {
        let listed = |what: &str, class: MessageClass| {
            let name = format!("sim.engine.{what}.{}", class.name());
            metrics::find(&name).expect("a row per busy class").name
        };
        for (i, &class) in BUSY_CLASSES.iter().enumerate() {
            out.set(listed("busy_ns", class), self.ns[i] as f64);
            out.set(listed("count", class), self.count[i] as f64);
        }
        out.set(
            "sim.engine.self_share",
            1.0 - self.total_ns as f64 * 1e-9 / wall_s,
        );
        out.set(
            "core.protocol.selection_changes",
            self.selection_changes as f64,
        );
    }
}

/// The active set once `event` has been applied, so an event's probe
/// pairs can be drawn before its clock starts.
fn live_after<P: Plane>(plane: &P, event: &TopologyEvent) -> Vec<NodeId> {
    let mut live = live_nodes(plane);
    match event {
        TopologyEvent::NodeLeave { node } => live.retain(|v| v != node),
        TopologyEvent::NodeJoin { node, .. } if !live.contains(node) => {
            live.push(*node);
            live.sort_unstable();
        }
        _ => {}
    }
    live
}

/// Scripted events through the chain, and the metrics taken over them.
#[derive(Default)]
struct Events {
    /// One sample per script event, in script order.
    samples: Vec<EventSample>,
    /// Times the script has been played so far.
    plays: usize,
}

impl Events {
    /// Play `script` through the chain once. Every script is played
    /// [`PLAYS`] times in a run, as far apart in time as the workload
    /// allows (landmark events only the first time: a departure costs as
    /// much as 1,500 ordinary events). An event's host times are its
    /// fastest play's — interference on a shared box only ever slows a
    /// play, and comes in stretches of seconds that would otherwise own
    /// the percentiles of a short script — while its simulated counts are
    /// the first play's.
    fn play<P: Chain>(
        &mut self,
        run: &mut Run<'_>,
        plane: &mut P,
        tables: &mut Tables,
        script: &[ScriptEvent],
    ) {
        let span = run.spans.open("script", None, self.plays as u64);
        for (i, ev) in script.iter().enumerate() {
            if self.plays > 0 && !ev.kind.is_ordinary() {
                continue;
            }
            // The rejoin after a landmark departure only restores the
            // topology: applied through the same chain, but not probed and
            // kept out of every statistic.
            let probes = if ev.kind == Kind::LandmarkJoin {
                0
            } else {
                run.sizes.probes
            };
            let pairs = gen::probes(&live_after(plane, &ev.event), probes, run.seed, i as u64);
            let group = (self.plays * script.len() + i) as u64;
            let sample = apply_event(plane, tables, run.spans, ev, group, &pairs);
            run.out.check(sample.quiesced, || {
                format!("no quiescence after event {i} ({})", ev.kind.name())
            });
            run.out.count_walks(&sample.walks, "probe");
            if self.plays == 0 {
                self.samples.push(sample);
            } else {
                self.samples[i].keep_faster(sample);
            }
        }
        self.plays += 1;
        run.spans.close(span);
    }

    fn of(&self, pick: impl Fn(Kind) -> bool) -> Vec<&EventSample> {
        self.samples.iter().filter(|s| pick(s.kind)).collect()
    }

    /// Host seconds the ordinary events took, end to end.
    fn ordinary_s(&self) -> f64 {
        self.of(Kind::is_ordinary)
            .iter()
            .map(|s| s.total_ms)
            .sum::<f64>()
            / 1e3
    }

    /// `(announcements, control seconds)` over every timed event,
    /// landmark departures included.
    fn control_work(&self) -> (f64, f64) {
        self.of(|k| k != Kind::LandmarkJoin)
            .iter()
            .fold((0.0, 0.0), |(a, c), s| {
                (a + s.anns as f64, c + s.ctrl_ms / 1e3)
            })
    }

    fn report(&self, out: &mut Outcome, traced: bool) {
        let ordinary = self.of(Kind::is_ordinary);
        if ordinary.is_empty() {
            return;
        }
        let col = |f: fn(&EventSample) -> f64| ordinary.iter().map(|s| f(s)).collect::<Vec<_>>();
        let total = col(|s| s.total_ms);
        let summary = summarize(&total);
        out.set("repair_ms_p50", summary.p50);
        out.set("repair_ms_p90", percentile(&total, 90.0));
        out.set("repair_ms_n", summary.n as f64);
        if let Some((pct, value)) = summary.tail {
            out.set("repair_ms_tail_pct", pct);
            out.set("repair_ms_tail", value);
        }
        let anns: f64 = ordinary.iter().map(|s| s.anns as f64).sum();
        out.set("repair_msgs_per_event", anns / ordinary.len() as f64);
        out.set("repair_sim_p50", median(&col(|s| s.sim)));
        out.set("repair.ctrl_ms_p50", median(&col(|s| s.ctrl_ms)));
        out.set("repair.compile_ms_p50", median(&col(|s| s.compile_ms)));
        out.set("repair.walk_ms_p50", median(&col(|s| s.walk_ms)));
        for (kind, name) in [
            (Kind::LinkDown, "repair.ms_p50.link_down"),
            (Kind::LinkUp, "repair.ms_p50.link_up"),
            (Kind::NodeLeave, "repair.ms_p50.node_leave"),
            (Kind::NodeJoin, "repair.ms_p50.node_join"),
        ] {
            let of_kind: Vec<f64> = self.of(|k| k == kind).iter().map(|s| s.total_ms).collect();
            if !of_kind.is_empty() {
                out.set(name, median(&of_kind));
            }
        }
        let departures = self.of(|k| k == Kind::LandmarkLeave);
        if !departures.is_empty() {
            let mean_s =
                departures.iter().map(|s| s.total_ms).sum::<f64>() / 1e3 / departures.len() as f64;
            out.set("lm_leave_s", mean_s);
            out.set("repair.lm_leave_s", mean_s);
        }
        let tables: u64 = ordinary.iter().map(|s| s.republished.tables).sum();
        out.set(
            "core.forward.republish_per_event",
            tables as f64 / ordinary.len() as f64,
        );
        if tables > 0 && traced {
            let changed: u64 = ordinary.iter().map(|s| s.republished.changed).sum();
            out.set(
                "core.forward.republish_changed_share",
                changed as f64 / tables as f64,
            );
        }
        let compile_ms: f64 = ordinary.iter().map(|s| s.compile_ms).sum();
        let (compiled, entries) = ordinary
            .iter()
            .fold((0, 0), |(t, e), s| (t + s.compiled.0, e + s.compiled.1));
        if compiled > 0 {
            out.set(
                "core.forward.compile_us",
                compile_ms * 1e3 / compiled as f64,
            );
            out.set(
                "core.forward.compile_ns_per_entry",
                compile_ms * 1e6 / entries.max(1) as f64,
            );
        }
        let (anns, ctrl_s) = self.control_work();
        out.set("core.protocol.repair_anns_per_s", anns / ctrl_s);
    }

    /// Probe walks of every event, summed.
    fn probe_walks(&self) -> WalkStats {
        let mut all = WalkStats::default();
        for s in &self.samples {
            all.absorb(&s.walks);
        }
        all
    }
}

/// Times every ordinary event of a script is played in a run.
const PLAYS: usize = 2;

/// Batches the tail's served walks are split into (the rate reported is
/// the median over them).
const SERVE_BATCHES: usize = 5;

/// What a run of served batches measured.
struct Served {
    /// `lookups_per_s` of each batch.
    rates: Vec<f64>,
    all: WalkStats,
    /// Mean ns/walk of every 256-walk slice (traced runs).
    slices: Vec<f64>,
}

/// Serve `batches` batches of `walks` flows over the live nodes: the
/// delivery check and hop stretch every workload ends with, and
/// `forward`'s timed region. Addresses are resolved once and each batch's
/// flows are drawn before its clock starts; the first batch also checks
/// hop stretch over its first 4096 flows.
fn serve<P: Chain>(
    run: &mut Run<'_>,
    plane: &mut P,
    tables: &Tables,
    batches: usize,
    walks: usize,
) -> Served {
    let live = live_nodes(plane);
    let addrs = plane.addresses(&live);
    let mut served = Served {
        rates: Vec::new(),
        all: WalkStats::default(),
        slices: Vec::new(),
    };
    for batch in 0..batches as u64 {
        let flows = gen::flows(&live, walks, run.seed, batch);
        let span = run.spans.open("batch", None, batch);
        let stats = walk(
            plane,
            tables,
            &addrs,
            &flows,
            batch == 0,
            run.spans.enabled(),
        );
        run.spans.close(span);
        served.rates.push(stats.lookups_per_s());
        served.slices.extend_from_slice(&stats.slice_ns);
        served.all.absorb(&stats);
    }
    let w = &served.all;
    run.out.count_walks(w, "served");
    run.out.set("stretch_mean", w.stretch());
    run.out.set(
        "dynamics.forward.lookups_per_walk",
        w.lookups as f64 / w.walks as f64,
    );
    run.out.set(
        "dynamics.forward.hops_per_walk",
        w.hops as f64 / w.delivered.max(1) as f64,
    );
    served
}

/// The tail's served walks, in [`SERVE_BATCHES`] batches.
fn serve_tail<P: Chain>(run: &mut Run<'_>, plane: &mut P, tables: &Tables) -> Option<Served> {
    let walks = run.sizes.serve_walks / SERVE_BATCHES;
    (walks > 0).then(|| serve(run, plane, tables, SERVE_BATCHES, walks))
}

/// What ends `boot`, `forward` and `shard2` once their tail script has
/// had its plays: the event metrics, then — unless the workload already
/// served its batches — the served walks, then the digest.
fn finish_tail<P: Chain>(
    run: &mut Run<'_>,
    plane: &mut P,
    tables: &Tables,
    events: &Events,
    already_served: bool,
) {
    events.report(&mut run.out, run.spans.enabled());
    if !already_served {
        if let Some(served) = serve_tail(run, plane, tables) {
            run.out.set("lookups_per_s", median(&served.rates));
        }
    }
    run.out.digest = digest(plane, tables);
}

/// A plane's tables compiled from scratch.
fn compile_all<P: Plane>(run: &mut Run<'_>, plane: &mut P, n: usize) -> Tables {
    let mut tables = Tables::new(n);
    let span = run.spans.open("compile_all", None, 0);
    plane.republish(&mut tables, run.spans, span.id(), 0, false);
    run.spans.close(span);
    tables
}

fn run_boot<M: Mode>(run: &mut Run<'_>) {
    // Set-up is everything before `start()`: topology, landmarks, the
    // tail's script, and building the engine with its n protocol nodes.
    let (net, script, first_engine) = repeat_setup(run, |sizes| {
        let net = Net::generate(sizes.n);
        let script = gen::repair_script(&net, sizes.tail_events, 0);
        let engine = seq_engine(&net, M::Rec::default());
        (net, script, engine)
    });

    // The tail script gets its plays after the last reps, one per rep (a
    // fresh boot apart, on identical networks); a lone rep gets them all.
    let reps_total = run.sizes.boot_reps;
    let spread_over = PLAYS.min(reps_total);
    let plays_after = |rep: usize| match reps_total - 1 - rep {
        0 => PLAYS - (spread_over - 1),
        back if back < spread_over => 1,
        _ => 0,
    };
    let mut reps: Vec<BootStats> = Vec::new();
    let mut candidates: Vec<u64> = Vec::new();
    let mut events = Events::default();
    let mut engine = first_engine;
    let mut tables = Tables::new(0);
    for rep in 0..reps_total {
        if rep > 0 {
            drop(engine);
            tables = Tables::new(0);
            reset_arena();
            engine = seq_engine(&net, M::Rec::default());
        }
        let span = run.spans.open("boot_rep", None, rep as u64);
        let stats = boot(&mut engine, M::TRACED);
        run.spans.close(span);
        run.out
            .check(stats.quiesced, || format!("boot rep {rep} did not quiesce"));
        candidates.push(engine.candidates());
        reps.push(stats);
        if rep + 1 == reps_total {
            run.out.unit_s = stats.secs;
            report_boot(
                &mut run.out,
                &mut engine,
                &net,
                stats.delivered,
                stats.events,
            );
            report_arena(&mut run.out);
            if M::TRACED {
                Busy::of(M::tap(engine.recorder())).report(&mut run.out, stats.secs);
                run.out.set("sim.event.queue_peak", stats.queue_peak as f64);
            }
        }
        if plays_after(rep) > 0 {
            tables = compile_all(run, &mut engine, net.n);
            for _ in 0..plays_after(rep) {
                events.play(run, &mut engine, &mut tables, &script);
            }
        }
    }
    let first = reps[0];
    let same = reps.iter().zip(&candidates).all(|(r, &c)| {
        (r.delivered, r.events, r.sim_end.to_bits(), c)
            == (
                first.delivered,
                first.events,
                first.sim_end.to_bits(),
                candidates[0],
            )
    });
    run.out
        .check(same, || format!("boot reps disagree: {reps:?}"));
    let rates: Vec<f64> = reps.iter().map(BootStats::anns_per_s).collect();
    run.out.set("anns_per_s", median(&rates));
    finish_tail(run, &mut engine, &tables, &events, false);
}

fn run_repair<M: Mode>(run: &mut Run<'_>) {
    let (mut net, script) = repeat_setup(run, |sizes| {
        let built = converge::<M::Rec>(sizes.n);
        let script = gen::repair_script(&built.net, sizes.events, sizes.lm_departures);
        (built, script)
    });
    run.out
        .check(net.boot.quiesced, || "set-up boot did not quiesce".into());
    report_boot(
        &mut run.out,
        &mut net.engine,
        &net.net,
        net.boot.delivered,
        net.boot.events,
    );

    let before = Busy::of(M::tap(net.engine.recorder()));
    let script_t0 = Instant::now();
    let mut events = Events::default();
    for _ in 0..PLAYS {
        events.play(run, &mut net.engine, &mut net.tables, &script);
    }
    let script_s = script_t0.elapsed().as_secs_f64();
    events.report(&mut run.out, M::TRACED);
    run.out.unit_s = events.ordinary_s();
    if M::TRACED {
        Busy::of(M::tap(net.engine.recorder()))
            .since(before)
            .report(&mut run.out, script_s);
    }

    // Over every timed event, landmark departures included: at full size
    // they are most of the announcements, so this is where a slower or
    // chattier landmark repair shows.
    let (anns, ctrl_s) = events.control_work();
    run.out.set("anns_per_s", anns / ctrl_s);
    run.out.set("ctrl_msgs_per_node", anns / run.sizes.n as f64);
    run.out
        .set("lookups_per_s", events.probe_walks().lookups_per_s());
    report_arena(&mut run.out);
    serve_tail(run, &mut net.engine, &net.tables);
    run.out.digest = digest(&net.engine, &net.tables);
}

fn run_forward<M: Mode>(run: &mut Run<'_>) {
    let (mut net, script) = repeat_setup(run, |sizes| {
        let built = converge::<M::Rec>(sizes.n);
        let script = gen::repair_script(&built.net, sizes.tail_events, 0);
        (built, script)
    });
    run.out
        .check(net.boot.quiesced, || "set-up boot did not quiesce".into());
    run.out.set("anns_per_s", net.boot.anns_per_s());
    report_boot(
        &mut run.out,
        &mut net.engine,
        &net.net,
        net.boot.delivered,
        net.boot.events,
    );
    report_arena(&mut run.out);
    run.out.set(
        "core.forward.bytes_per_dest",
        net.tables.bytes() as f64 / net.tables.entries() as f64,
    );

    // The tail script's plays go either side of the batches, a timed
    // region apart. Between them the control plane is idle: batches only
    // read the published tables.
    let mut events = Events::default();
    events.play(run, &mut net.engine, &mut net.tables, &script);
    let (batches, walks) = (run.sizes.batches, run.sizes.batch_walks);
    if batches > 0 {
        let served = serve(run, &mut net.engine, &net.tables, batches, walks);
        let all = &served.all;
        run.out.check(all.delivered == all.walks, || {
            format!(
                "{} of {} walks undelivered",
                all.walks - all.delivered,
                all.walks
            )
        });
        run.out.set("lookups_per_s", median(&served.rates));
        if M::TRACED {
            let out = &mut run.out;
            out.set(
                "dynamics.forward.walk_ns_p50",
                percentile(&served.slices, 50.0),
            );
            out.set(
                "dynamics.forward.walk_ns_p99",
                percentile(&served.slices, 99.0),
            );
            let live = live_nodes(&net.engine);
            let addrs = net.engine.addresses(&live);
            let flows = gen::flows(&live, walks, run.seed, 0);
            let direct = probes::direct_walk_ns(&net.engine, &net.tables, &addrs, &flows);
            let walk_ns = all.secs * 1e9 / all.walks as f64;
            out.set("dynamics.forward.clock_share", 1.0 - direct / walk_ns);
            for (name, value) in probes::lookup(&net.tables, run.seed) {
                out.set(name, value);
            }
        }
    }
    for _ in 1..PLAYS {
        events.play(run, &mut net.engine, &mut net.tables, &script);
    }
    finish_tail(run, &mut net.engine, &net.tables, &events, true);
}

fn run_shard2<M: Mode>(run: &mut Run<'_>) {
    // The sequential reference stays alive: the tail runs on it (below).
    let (mut seq, script, seq_digest) = repeat_setup(run, |sizes| {
        let seq = converge::<NoopRecorder>(sizes.n);
        let script = gen::repair_script(&seq.net, sizes.tail_events, 0);
        let digest = digest(&seq.engine, &seq.tables);
        (seq, script, digest)
    });
    let seq_rss_mb = vm_hwm_mb();
    run.out.check(seq.boot.quiesced, || {
        "sequential reference did not quiesce".into()
    });
    // The tail runs on the sequential reference — whose booted state the
    // sharded boot is shown below to equal bit for bit — one play either
    // side of the sharded boot: event latency on the sharded engine is
    // barrier-bound and, on a two-core box, moves by ±50 % with whatever
    // else the host schedules (README, "Noise").
    let mut tail = Events::default();
    tail.play(run, &mut seq.engine, &mut seq.tables, &script);

    let mut engine: ShardedEngine<DiscoProtocol, M::Rec> = ShardedEngine::with_recorder(
        &seq.net.graph,
        SHARDS,
        NETWORK_SEED,
        seq.net.factory(),
        |_| M::Rec::default(),
    );
    let span = run.spans.open("sharded_boot", None, 0);
    engine.start();
    let quiesced = engine.run_until(|_| false);
    let secs = run.spans.close(span);
    run.out.unit_s = secs;
    run.out
        .check(quiesced, || "sharded boot did not quiesce".into());
    let (delivered, events) = (engine.delivered(), engine.events());
    let out = &mut run.out;
    out.set("anns_per_s", delivered as f64 / secs);
    report_boot(out, &mut engine, &seq.net, delivered, events);
    out.set(
        "sim.sharded.speedup",
        delivered as f64 / secs / seq.boot.anns_per_s(),
    );
    out.set(
        "sim.sharded.event_inflation",
        events as f64 / seq.boot.events as f64,
    );
    // The reference is still resident, so what the sharded boot added to
    // the high-water mark is its own footprint.
    out.set(
        "sim.sharded.rss_ratio",
        (vm_hwm_mb() - seq_rss_mb) / seq_rss_mb,
    );

    let mut tables = Tables::new(seq.net.n);
    let compile = run.spans.open("compile_all", None, 0);
    engine.republish(&mut tables, run.spans, compile.id(), 0, false);
    run.spans.close(compile);
    let sharded_digest = digest(&engine, &tables);
    run.out.check(sharded_digest == seq_digest, || {
        format!("shard2 digest {sharded_digest:016x} differs from sequential {seq_digest:016x}")
    });
    // Joins the workers; the merged recorder is all the shards' busy time.
    let summary = engine.finish();
    if let Some(tap) = M::tap(&summary.recorder) {
        let out = &mut run.out;
        out.set(
            "sim.sharded.busy_share",
            tap.busy_ns() as f64 * 1e-9 / (SHARDS as f64 * secs),
        );
        Busy::of(Some(tap)).report(out, SHARDS as f64 * secs);
        out.set(
            "sim.sharded.k1_ratio",
            probes::k1_ratio(&seq.net, &seq.boot),
        );
    }

    for _ in 1..PLAYS {
        tail.play(run, &mut seq.engine, &mut seq.tables, &script);
    }
    finish_tail(run, &mut seq.engine, &seq.tables, &tail, false);
}
