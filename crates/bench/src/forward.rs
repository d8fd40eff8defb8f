//! The `exp_forward` workload: a traffic generator over compiled
//! forwarding tables during boot, churn and drain.
//!
//! Every prior experiment measures the *control* plane. This one forwards
//! packets, on [`scenario::network`]'s boot under [`BOOT_CHURN`]'s
//! schedule: each node's RIB selection column is compiled into a flat
//! [`ForwardingTable`](disco_core::forward::ForwardingTable) behind an
//! epoch-stamped [`TablePublisher`] double-buffer, and batched flat-name lookups (a Zipf mix and a uniform
//! mix of destinations over the live nodes) are driven hop-by-hop through
//! the *published* epochs while the protocol keeps repairing underneath.
//! Reported per phase: lookups/sec (the headline — every table probe a
//! walk performs, over the wall time of the walks), hop stretch against
//! BFS shortest paths on the current active topology, and packets lost to
//! stale epochs (a published hop the topology no longer serves) — turning
//! the availability probe into a served-traffic SLO. After the drain to
//! quiescence every publisher republishes its final revision and the last
//! batch must lose nothing: zero stale loss after drain is the gate.
//!
//! The walk loop itself reads no clock ([`PacketWalker::walk`] only tells
//! its callback which table was probed). Latency is taken here, per
//! **slice of `SLICE_WALKS` walks**: one clock pair around the slice,
//! and the slice's mean ns per probe is one reading in the phase's
//! [`Log2Histogram`] (`p50_ns` / `p90_ns`) and in the recorder's
//! `lookup` class. A probe is 17–140 ns and a clock read ≈ 60 ns here, so
//! a clock pair around each probe would measure the clock.
//!
//! Tables compile on the shard that owns their node (plain-array tables
//! cross threads; interned paths do not), ship to the coordinator and are
//! walked on its topology mirror. Publish decisions are made from the
//! `(published revision, debounce, control revision)` inputs alone, so
//! every deterministic column — walks, deliveries, stale losses, lookup
//! counts, republishes — is identical across shard counts; only
//! wall-clock differs.

use crate::cli::write_trace;
use crate::scenario::{self, BOOT_CHURN};
use disco_core::config::DiscoConfig;
use disco_core::forward::TablePublisher;
use disco_core::protocol::DiscoProtocol;
use disco_dynamics::forward::{hop_distances, FlowAddress, PacketWalker, WalkOutcome};
use disco_graph::{FxHashMap, NodeId};
use disco_sim::rng::rng_for;
use disco_sim::{MergeRecorder, NoopRecorder, Phase, Protocol, Recorder, ShardedEngine};
use disco_telemetry::{FullRecorder, Json, Log2Histogram, MessageClass};
use rand::Rng;
use std::time::Instant;

/// Boot-phase probe times (the protocol's phase timers end around t=110;
/// early checkpoints watch the data plane fill in).
const BOOT_CHECKPOINTS: &[f64] = &[30.0, 60.0, 90.0, 120.0];
/// Churn-phase probe times, inside the Poisson schedule's horizon.
const CHURN_CHECKPOINTS: &[f64] = &[140.0, 160.0, 180.0, 200.0, 220.0, 240.0, 260.0, 280.0];
/// Walk TTL: transient loops across mixed epochs count as stale losses.
pub const TTL: u32 = 128;
/// Flows per checkpoint whose walks feed the hop-stretch estimate (each
/// needs a BFS from its source; the full flow batch would be quadratic).
const STRETCH_SAMPLE: usize = 64;
/// Walks per timed slice: ≈ 50–80 probes, 5–15 µs, between two clock
/// reads — long enough that the reads are 1–2 % of it, short enough that
/// the smoke's drain batch (2,048 walks) still yields 128 readings.
const SLICE_WALKS: usize = 16;

/// Parameters of one `exp_forward` leg.
#[derive(Debug, Clone)]
pub struct ForwardConfig {
    /// Network size.
    pub n: usize,
    /// Experiment seed.
    pub seed: u64,
    /// Flows sampled per checkpoint (half Zipf destinations, half
    /// uniform).
    pub flows: usize,
    /// Publisher debounce in simulation-time units: selection changes
    /// closer than this to the last publish coalesce into one republish.
    pub debounce: f64,
    /// Engine shards (one worker thread each).
    pub shards: usize,
    /// Write the run as a Chrome `trace_event` timeline to this path:
    /// control-plane classes plus the delivered-lookups data-plane track.
    pub trace: Option<String>,
}

/// Per-phase traffic statistics of one leg. All integer columns are
/// deterministic in `(n, seed, flows, debounce)` and identical across
/// shard counts; only the wall-clock-derived columns vary.
#[derive(Debug, Clone)]
pub struct PhaseRow {
    /// Phase name (`boot` / `churn` / `drain`).
    pub phase: &'static str,
    /// Checkpoints aggregated into this row.
    pub checkpoints: u32,
    /// Packets walked.
    pub walks: u64,
    /// Packets that reached their destination.
    pub delivered: u64,
    /// Packets lost to stale epochs: a published hop onto a dead link or
    /// node, or a TTL-expired loop across mixed epochs, while the pair
    /// was actually routable.
    pub stale_loss: u64,
    /// Packets dropped with no stale hop to blame: unpublished table,
    /// unresolved address, or a landmark route not yet learned, while the
    /// pair was routable.
    pub miss: u64,
    /// Packets whose pair had no active path at all (excluded from the
    /// loss SLO — nothing to serve).
    pub unreachable: u64,
    /// Table probes performed by all walks.
    pub lookups: u64,
    /// Wall seconds inside the timed walk batches.
    pub lookup_secs: f64,
    /// The headline: table probes per wall second.
    pub lookups_per_sec: f64,
    /// Hops traversed by delivered packets.
    pub hops: u64,
    /// Delivered hops over the stretch subsample (numerator).
    pub stretch_hops: u64,
    /// BFS shortest-path hops for the same subsample (denominator).
    pub stretch_dist: u64,
    /// Mean ns per probe of a 16-walk slice, median over the phase's
    /// slices (log₂-bucket upper bound).
    pub p50_ns: u64,
    /// The same, 90th percentile — the highest one with ten slices beyond
    /// it in the smoke's 128-slice drain batch.
    pub p90_ns: u64,
    /// Table epochs published during this phase across all nodes.
    pub republishes: u64,
}

impl PhaseRow {
    /// Mean hops of a delivered packet.
    pub fn mean_hops(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.hops as f64 / self.delivered as f64
        }
    }

    /// Mean hop stretch over the per-checkpoint subsample.
    pub fn mean_stretch(&self) -> f64 {
        if self.stretch_dist == 0 {
            0.0
        } else {
            self.stretch_hops as f64 / self.stretch_dist as f64
        }
    }

    /// The deterministic columns (everything but wall clock), for the
    /// shard-count-invariance check.
    pub fn deterministic_key(&self) -> [u64; 10] {
        [
            self.walks,
            self.delivered,
            self.stale_loss,
            self.miss,
            self.unreachable,
            self.lookups,
            self.hops,
            self.stretch_hops,
            self.stretch_dist,
            self.republishes,
        ]
    }

    /// The phase's row of the JSON report.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("phase", Json::str(self.phase)),
            ("checkpoints", Json::Int(self.checkpoints.into())),
            ("walks", Json::Int(self.walks)),
            ("delivered", Json::Int(self.delivered)),
            ("stale_loss", Json::Int(self.stale_loss)),
            ("miss", Json::Int(self.miss)),
            ("unreachable", Json::Int(self.unreachable)),
            ("lookups", Json::Int(self.lookups)),
            ("lookup_secs", Json::Fixed(self.lookup_secs, 4)),
            ("lookups_per_sec", Json::Fixed(self.lookups_per_sec, 0)),
            ("mean_hops", Json::Fixed(self.mean_hops(), 3)),
            ("mean_stretch", Json::Fixed(self.mean_stretch(), 3)),
            ("p50_ns", Json::Int(self.p50_ns)),
            ("p90_ns", Json::Int(self.p90_ns)),
            ("republishes", Json::Int(self.republishes)),
        ])
    }
}

/// Measurements of one `exp_forward` leg.
#[derive(Debug, Clone)]
pub struct ForwardResult {
    /// Network size.
    pub n: usize,
    /// Engine shards the leg ran on.
    pub shards: usize,
    /// Landmarks elected.
    pub landmarks: usize,
    /// Flows per checkpoint.
    pub flows: usize,
    /// The boot-phase row.
    pub boot: PhaseRow,
    /// The churn-phase row.
    pub churn: PhaseRow,
    /// The drain-phase row (one final batch after quiescence +
    /// republish; its `stale_loss` must be zero).
    pub drain: PhaseRow,
    /// Table-resident destinations summed over all published tables at
    /// the end of the run.
    pub table_entries: u64,
    /// Published flat-array bytes summed over all tables at end of run.
    pub table_bytes: u64,
    /// Simulation time at quiescence.
    pub sim_end: f64,
}

impl ForwardResult {
    /// The leg's row of the JSON report.
    pub fn to_json(&self) -> Json {
        let phases = [&self.boot, &self.churn, &self.drain].map(PhaseRow::to_json);
        Json::obj([
            ("n", Json::Int(self.n as u64)),
            ("shards", Json::Int(self.shards as u64)),
            ("landmarks", Json::Int(self.landmarks as u64)),
            ("flows", Json::Int(self.flows as u64)),
            ("table_entries", Json::Int(self.table_entries)),
            ("table_bytes", Json::Int(self.table_bytes)),
            ("sim_end", Json::Fixed(self.sim_end, 6)),
            ("phases", Json::Arr(phases.into())),
        ])
    }
}

/// Phase accumulator (latency histogram included; collapsed into a
/// [`PhaseRow`] at the end).
#[derive(Default)]
struct PhaseAcc {
    checkpoints: u32,
    walks: u64,
    delivered: u64,
    stale_loss: u64,
    miss: u64,
    unreachable: u64,
    lookups: u64,
    lookup_secs: f64,
    hops: u64,
    stretch_hops: u64,
    stretch_dist: u64,
    republishes: u64,
    lat: Log2Histogram,
}

impl PhaseAcc {
    fn into_row(self, phase: &'static str) -> PhaseRow {
        PhaseRow {
            phase,
            checkpoints: self.checkpoints,
            walks: self.walks,
            delivered: self.delivered,
            stale_loss: self.stale_loss,
            miss: self.miss,
            unreachable: self.unreachable,
            lookups: self.lookups,
            lookup_secs: self.lookup_secs,
            lookups_per_sec: self.lookups as f64 / self.lookup_secs.max(1e-9),
            hops: self.hops,
            stretch_hops: self.stretch_hops,
            stretch_dist: self.stretch_dist,
            p50_ns: self.lat.quantile_upper(0.5),
            p90_ns: self.lat.quantile_upper(0.9),
            republishes: self.republishes,
        }
    }
}

/// The engine the traffic generator drives.
type Plane<R> = ShardedEngine<DiscoProtocol, R>;

/// Republish every live node whose control revision moved (modulo
/// debounce); returns the number of new epochs. Each node's
/// publish-decision inputs ship to its owner together with the
/// publisher's spare buffer; the owner evaluates exactly
/// [`TablePublisher::needs_publish`] and compiles — into that buffer, so
/// a republish no larger than the epoch it last held allocates nothing —
/// only the tables that need a new epoch.
fn republish<R: Recorder + Send + 'static>(
    plane: &mut Plane<R>,
    pubs: &mut [TablePublisher],
    now: f64,
) -> u64 {
    let live: Vec<NodeId> = (0..pubs.len())
        .map(NodeId)
        .filter(|&v| plane.is_active(v))
        .collect();
    let asks = live
        .iter()
        .map(|&v| {
            let p = &mut pubs[v.0];
            let ask = (p.published_revision(), p.may_publish_at(now));
            (v, (ask, std::mem::take(p.spare_mut())))
        })
        .collect();
    let tables = plane.gather(asks, |e, v, ((published, may_publish), mut spare)| {
        let node = &e.nodes()[v.0];
        let needs = match published {
            None => true,
            Some(rev) => rev != node.control_revision() && may_publish,
        };
        if needs {
            node.compile_forwarding_into(&mut spare);
        }
        (needs, spare)
    });
    let mut count = 0;
    for (v, (compiled, table)) in live.into_iter().zip(tables) {
        if compiled {
            pubs[v.0].publish_with(now, |slot| *slot = table);
            count += 1;
        } else {
            *pubs[v.0].spare_mut() = table;
        }
    }
    count
}

/// Resolve each flow's destination address (omniscient resolution: the
/// probe reads the destination's current `my_address` on its owner,
/// detached from the path arena).
fn addresses<R: Recorder + Send + 'static>(
    plane: &mut Plane<R>,
    flows: &[(NodeId, NodeId)],
) -> Vec<Option<FlowAddress>> {
    let asks = flows.iter().map(|&(_, t)| (t, ())).collect();
    plane.gather(asks, |e, t, ()| {
        e.nodes()[t.0].my_address().map(|a| a.detach())
    })
}

/// Feed the run's recorder with one checkpoint's data-plane telemetry
/// (skipped when untraced). `slice_ns` holds one reading per timed slice
/// — its mean ns per probe — so the `lookup` class's `event_done` stream
/// is per slice, not per probe.
fn record_lookups<R: Recorder + Send + 'static>(
    plane: &mut Plane<R>,
    now: f64,
    flows: Vec<(NodeId, NodeId)>,
    outcomes: Vec<WalkOutcome>,
    slice_ns: Vec<u64>,
) {
    plane.mark(move |rec| {
        // A lookup "message" is the probe key: 4 bytes on the wire model.
        rec.message_sent(
            now,
            MessageClass::Lookup,
            flows.len() as u64,
            4 * flows.len() as u64,
        );
        let mut dropped = 0;
        for (&(s, t), out) in flows.iter().zip(&outcomes) {
            if out.delivered() {
                rec.message_delivered(now, MessageClass::Lookup, s.0 as u32, t.0 as u32);
            } else {
                dropped += 1;
            }
        }
        if dropped > 0 {
            rec.message_dropped(now, MessageClass::Lookup, dropped);
        }
        for &ns in &slice_ns {
            rec.event_done(MessageClass::Lookup, ns);
        }
    });
}

/// Sample one checkpoint's flows: sources uniform over the live nodes;
/// destinations alternate between a Zipf(1) rank distribution over the
/// live list and a uniform draw. Deterministic in `(seed, checkpoint)`.
pub fn sample_flows(
    live: &[NodeId],
    flows: usize,
    seed: u64,
    checkpoint: u64,
) -> Vec<(NodeId, NodeId)> {
    let mut rng = rng_for(seed, 0xf0, checkpoint);
    // Harmonic CDF over ranks (rank = position in the live list).
    let mut cdf = Vec::with_capacity(live.len());
    let mut acc = 0.0f64;
    for r in 0..live.len() {
        acc += 1.0 / (r + 1) as f64;
        cdf.push(acc);
    }
    let total = acc;
    (0..flows)
        .map(|i| {
            let s = live[rng.gen_range(0..live.len())];
            let zipf = i % 2 == 0;
            let t = loop {
                let t = if zipf {
                    let x = rng.gen::<f64>() * total;
                    let k = cdf.partition_point(|&c| c < x).min(live.len() - 1);
                    live[k]
                } else {
                    live[rng.gen_range(0..live.len())]
                };
                if t != s {
                    break t;
                }
            };
            (s, t)
        })
        .collect()
}

/// Run one checkpoint: republish, sample flows, resolve addresses, walk
/// every packet through the published epochs (the timed batch), then
/// classify outcomes against BFS reachability.
fn checkpoint<R: Recorder + Send + 'static>(
    plane: &mut Plane<R>,
    pubs: &mut [TablePublisher],
    acc: &mut PhaseAcc,
    cfg: &ForwardConfig,
    checkpoint_idx: u64,
    now: f64,
) {
    acc.checkpoints += 1;
    acc.republishes += republish(plane, pubs, now);
    let live: Vec<NodeId> = plane.active_nodes().collect();
    if live.len() < 2 {
        return;
    }
    let flows = sample_flows(&live, cfg.flows, cfg.seed, checkpoint_idx);
    let addrs = addresses(plane, &flows);

    // The timed batch, a slice at a time: one clock pair per
    // `SLICE_WALKS` walks, nothing stored per probe.
    let graph = plane.graph();
    let mut outcomes = Vec::with_capacity(flows.len());
    let mut slice_ns: Vec<u64> = Vec::with_capacity(flows.len().div_ceil(SLICE_WALKS));
    let walker = PacketWalker {
        graph,
        is_active: |v: NodeId| plane.is_active(v),
        table_of: |v: NodeId| {
            let p = &pubs[v.0];
            p.has_published().then(|| p.table())
        },
        ttl: TTL,
    };
    for (slice, slice_addrs) in flows.chunks(SLICE_WALKS).zip(addrs.chunks(SLICE_WALKS)) {
        let mut probes = 0u64;
        let t0 = Instant::now();
        for (&(s, t), addr) in slice.iter().zip(slice_addrs) {
            outcomes.push(walker.walk(s, t, addr.as_ref(), |_| probes += 1));
        }
        let ns = t0.elapsed().as_nanos() as u64;
        acc.lookup_secs += ns as f64 * 1e-9;
        acc.lookups += probes;
        // A slice that probed nothing (no table published yet) has no
        // per-probe reading.
        if let Some(per_probe) = ns.checked_div(probes) {
            acc.lat.record(per_probe);
            slice_ns.push(per_probe);
        }
    }

    // Classification + stretch, outside the timed window. BFS runs once
    // per distinct source that needs it (stretch subsample + drops).
    let mut bfs: FxHashMap<NodeId, Vec<u32>> = FxHashMap::default();
    let mut dist_to = |s: NodeId, t: NodeId| {
        bfs.entry(s)
            .or_insert_with(|| hop_distances(graph, |v| plane.is_active(v), s))[t.0]
    };
    for (i, (&(s, t), out)) in flows.iter().zip(&outcomes).enumerate() {
        acc.walks += 1;
        match out {
            WalkOutcome::Delivered { hops } => {
                acc.delivered += 1;
                acc.hops += u64::from(*hops);
                if i < STRETCH_SAMPLE {
                    let d = dist_to(s, t);
                    if d != u32::MAX && d > 0 {
                        acc.stretch_hops += u64::from(*hops);
                        acc.stretch_dist += u64::from(d);
                    }
                }
            }
            WalkOutcome::StaleLoss { .. } | WalkOutcome::TtlExceeded => {
                if dist_to(s, t) == u32::MAX {
                    acc.unreachable += 1;
                } else {
                    acc.stale_loss += 1;
                }
            }
            WalkOutcome::Miss { .. } => {
                if dist_to(s, t) == u32::MAX {
                    acc.unreachable += 1;
                } else {
                    acc.miss += 1;
                }
            }
        }
    }
    record_lookups(plane, now, flows, outcomes, slice_ns);
}

/// Run one `exp_forward` leg. Deterministic in `(n, seed, flows,
/// debounce)` up to wall-clock columns, including across shard counts.
pub fn run_one(cfg: &ForwardConfig) -> ForwardResult {
    match &cfg.trace {
        Some(path) => {
            let (result, rec) = run_with(cfg, |_| FullRecorder::new());
            write_trace(path, &rec);
            result
        }
        None => run_with(cfg, |_| NoopRecorder).0,
    }
}

fn run_with<R: MergeRecorder + Send + 'static>(
    cfg: &ForwardConfig,
    recorders: impl FnMut(usize) -> R,
) -> (ForwardResult, R) {
    // Static `n`: the estimation gossip is `exp_churn`'s subject and
    // dominates control cost super-linearly (~70x the messages at n=512),
    // while the data plane being measured here — table compile, epoch
    // publish, lookup — is identical either way.
    let dcfg = DiscoConfig::seeded(cfg.seed).with_dynamic_n_estimation(false);
    let (graph, mut plane) = scenario::network(cfg.n, cfg.seed, &dcfg, cfg.shards, recorders);
    let everyone = graph.nodes().map(|v| (v, ())).collect();
    let is_landmark = plane.gather(everyone, |e, v, ()| e.nodes()[v.0].pv.is_landmark());
    let landmarks = is_landmark.into_iter().filter(|&l| l).count();
    let mut pubs: Vec<TablePublisher> = (0..graph.node_count())
        .map(|v| TablePublisher::new(NodeId(v), cfg.debounce))
        .collect();
    BOOT_CHURN.schedule(&graph, cfg.seed).apply_to(&mut plane);

    // Boot, churn, drain: checkpoints at fixed times, then one last batch
    // after quiescence.
    let boot_end = *BOOT_CHECKPOINTS.last().expect("boot checkpoints");
    let churn_end = *CHURN_CHECKPOINTS.last().expect("churn checkpoints");
    let mut ck = 0u64;
    let mut boot = PhaseAcc::default();
    for &t in BOOT_CHECKPOINTS {
        plane.run_to(t);
        checkpoint(&mut plane, &mut pubs, &mut boot, cfg, ck, t);
        ck += 1;
    }
    plane.mark(move |r| {
        r.phase_end(Phase::Boot, boot_end);
        r.phase_begin(Phase::Churn, boot_end);
    });
    let mut churn = PhaseAcc::default();
    for &t in CHURN_CHECKPOINTS {
        plane.run_to(t);
        checkpoint(&mut plane, &mut pubs, &mut churn, cfg, ck, t);
        ck += 1;
    }
    plane.mark(move |r| {
        r.phase_end(Phase::Churn, churn_end);
        r.phase_begin(Phase::Drain, churn_end);
    });
    plane.run_until(|_| false);
    let sim_end = plane.now();
    let mut drain = PhaseAcc::default();
    checkpoint(&mut plane, &mut pubs, &mut drain, cfg, ck, sim_end);
    plane.mark(move |r| r.phase_end(Phase::Drain, sim_end));
    // Clean shutdown: drops the shard engines, compacts their arenas,
    // merges the recorders.
    let recorder = plane.finish().recorder;

    let (mut table_entries, mut table_bytes) = (0u64, 0u64);
    for p in &pubs {
        if p.has_published() {
            let t = p.table();
            table_entries += t.len() as u64;
            table_bytes += t.approx_bytes() as u64;
        }
    }

    let result = ForwardResult {
        n: cfg.n,
        shards: cfg.shards,
        landmarks,
        flows: cfg.flows,
        boot: boot.into_row("boot"),
        churn: churn.into_row("churn"),
        drain: drain.into_row("drain"),
        table_entries,
        table_bytes,
        sim_end,
    };
    (result, recorder)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(shards: usize) -> ForwardConfig {
        ForwardConfig {
            n: 96,
            seed: 5,
            flows: 48,
            debounce: 5.0,
            shards,
            trace: None,
        }
    }

    /// The leg runs, forwards traffic, and loses nothing after the drain.
    #[test]
    fn forward_leg_delivers_after_drain() {
        let r = run_one(&cfg(1));
        assert_eq!(r.n, 96);
        assert!(r.landmarks > 0);
        assert!(r.table_entries > 0 && r.table_bytes > 0);
        assert!(r.drain.walks > 0);
        assert!(r.drain.delivered > 0);
        assert_eq!(
            r.drain.stale_loss, 0,
            "stale losses after drain + republish: {:?}",
            r.drain
        );
        assert_eq!(r.drain.miss, 0, "misses after drain: {:?}", r.drain);
        assert!(r.churn.lookups > 0 && r.churn.lookups_per_sec > 0.0);
        assert!(r.drain.mean_stretch() >= 1.0);
        // `lookups` is the walker's callback count: every hop of a
        // delivered walk probes its table once (direct hit, or a miss on
        // the label) or twice (miss, then the landmark), and this drain
        // batch delivers every walk.
        assert_eq!(r.drain.delivered, r.drain.walks);
        assert!(
            r.drain.hops <= r.drain.lookups && r.drain.lookups <= 2 * r.drain.hops,
            "{:?}",
            r.drain
        );
        // Every phase that probed a table has slice latencies, in order.
        for p in [&r.boot, &r.churn, &r.drain] {
            assert!(p.lookups > 0, "{p:?}");
            assert!(0 < p.p50_ns && p.p50_ns <= p.p90_ns, "{p:?}");
        }
        let j = r.to_json();
        let Some(Json::Arr(phases)) = j.get("phases") else {
            panic!("{j:?}")
        };
        assert_eq!(phases[2].get("walks"), Some(&Json::Int(r.drain.walks)));
    }

    /// The deterministic columns are shard-count invariant — same walks,
    /// deliveries, stale losses, lookup counts and republish decisions
    /// from one shard and from two and three.
    #[test]
    fn deterministic_columns_are_shard_count_invariant() {
        let seq = run_one(&cfg(1));
        for shards in [2, 3] {
            let sh = run_one(&cfg(shards));
            for (a, b) in [
                (&seq.boot, &sh.boot),
                (&seq.churn, &sh.churn),
                (&seq.drain, &sh.drain),
            ] {
                assert_eq!(
                    a.deterministic_key(),
                    b.deterministic_key(),
                    "phase {} diverged at shards {shards}",
                    a.phase
                );
            }
            assert_eq!(seq.table_entries, sh.table_entries);
            assert_eq!(seq.table_bytes, sh.table_bytes);
            assert_eq!(seq.sim_end, sh.sim_end);
        }
    }
}
