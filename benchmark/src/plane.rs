//! The chain a topology event travels: schedule → quiescence → republish
//! moved tables → serve probe walks. [`Plane`] is what the harness reads
//! from either engine once it has booted (counters, compiled tables, RIB
//! sizes); [`Chain`] adds what driving events and walks through it needs.

use crate::gen::{Kind, ScriptEvent};
use crate::net::SeqEngine;
use crate::spans::{SpanId, Spans};
use disco_core::forward::{ForwardingTable, TablePublisher};
use disco_core::protocol::DiscoProtocol;
use disco_dynamics::forward::{hop_distances, FlowAddress, PacketWalker, WalkOutcome};
use disco_graph::{FxHashMap, Graph, NodeId};
use disco_sim::{MergeRecorder, Protocol, Recorder, ShardedEngine, TopologyEvent};
use std::time::Instant;

/// Walk TTL; a converged network never comes near it.
const TTL: u32 = 128;
/// Walks per timed slice (the unit `walk_ns_p50/p99` are taken over).
const WALK_SLICE: usize = 256;
/// Flows of a batch whose hop stretch is checked against BFS.
const STRETCH_SAMPLE: usize = 4096;

/// Every node's published forwarding table (debounce 0: a moved control
/// revision republishes at once).
pub struct Tables {
    pubs: Vec<TablePublisher>,
}

/// What one republish pass did.
#[derive(Debug, Clone, Copy, Default)]
pub struct Republished {
    /// Tables recompiled (their control revision had moved).
    pub tables: u64,
    /// Of those, how many differ from the epoch they replaced. Counted
    /// only when asked for: it costs a copy of every replaced table.
    pub changed: u64,
    /// Entries across the recompiled tables.
    pub entries: u64,
    /// Host seconds the pass spent copying and comparing epochs for
    /// `changed` (0 when not asked for): harness work, taken back out of
    /// the compile stage's time.
    pub compare_s: f64,
}

impl Tables {
    pub fn new(n: usize) -> Self {
        Tables {
            pubs: (0..n)
                .map(|v| TablePublisher::new(NodeId(v), 0.0))
                .collect(),
        }
    }

    pub fn table(&self, v: NodeId) -> Option<&ForwardingTable> {
        let p = self.pubs.get(v.0)?;
        p.has_published().then(|| p.table())
    }

    pub fn len(&self) -> usize {
        self.pubs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pubs.is_empty()
    }

    pub fn entries(&self) -> u64 {
        self.pubs.iter().map(|p| p.table().len() as u64).sum()
    }

    pub fn bytes(&self) -> u64 {
        self.pubs
            .iter()
            .map(|p| p.table().approx_bytes() as u64)
            .sum()
    }

    /// FNV-1a fold of every published table (keys, next hops, path hops,
    /// fallback), in node order.
    pub fn fold_into(&self, h: &mut Fnv) {
        for p in &self.pubs {
            let t = p.table();
            h.u64(t.len() as u64);
            for &k in t.keys() {
                let e = t.entry(NodeId(k as usize)).expect("key is resident");
                h.u64(u64::from(k) << 32 | e.next_hop.0 as u64);
                h.u64(u64::from(e.path_hops));
            }
            let (lm, hop) = t.fallback().map_or((u64::MAX, u64::MAX), |(lm, hop)| {
                (lm.0 as u64, hop.0 as u64)
            });
            h.u64(lm);
            h.u64(hop);
        }
    }
}

fn same_routes(a: &ForwardingTable, b: &ForwardingTable) -> bool {
    a.keys() == b.keys()
        && a.fallback() == b.fallback()
        && a.keys().iter().all(|&k| {
            let d = NodeId(k as usize);
            a.entry(d) == b.entry(d)
        })
}

/// 64-bit FNV-1a over little-endian words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// What the harness reads from a booted engine, sequential or sharded.
pub trait Plane {
    fn now(&self) -> f64;
    fn graph(&self) -> &Graph;
    fn is_active(&self, v: NodeId) -> bool;
    fn delivered(&self) -> u64;
    fn dropped(&self) -> u64;
    fn topology_events(&self) -> u64;
    fn events(&self) -> u64;
    /// Recompile every live node's table whose control revision moved.
    /// `parent`/`group` place the per-table spans of a traced run;
    /// `count_changed` also compares each new epoch with the one it
    /// replaces.
    fn republish(
        &mut self,
        tables: &mut Tables,
        spans: &mut Spans,
        parent: SpanId,
        group: u64,
        count_changed: bool,
    ) -> Republished;
    /// RIB candidates summed over live nodes.
    fn candidates(&mut self) -> u64;
}

/// The rest of the chain — events in, addresses out — which only the
/// sequential engine is driven through.
pub trait Chain: Plane {
    fn schedule(&mut self, at: f64, event: TopologyEvent);
    /// Run to quiescence; false if a safety valve stopped the run first.
    fn quiesce(&mut self) -> bool;
    /// The current address of every live node in `of`, detached from the
    /// path arena (the omniscient resolution `exp_forward` uses); indexed
    /// by node id, `None` for nodes not asked for.
    fn addresses(&mut self, of: &[NodeId]) -> Vec<Option<FlowAddress>>;
}

fn address_of(node: &DiscoProtocol) -> Option<FlowAddress> {
    node.my_address().map(|a| FlowAddress {
        landmark: a.landmark,
        path: a.path.to_vec(),
    })
}

/// The epoch about to be replaced, kept only when the pass counts
/// changed tables.
fn snapshot(
    out: &mut Republished,
    publisher: &TablePublisher,
    count_changed: bool,
) -> Option<ForwardingTable> {
    if !count_changed || !publisher.has_published() {
        return None;
    }
    let t0 = Instant::now();
    let before = publisher.table().clone();
    out.compare_s += t0.elapsed().as_secs_f64();
    Some(before)
}

fn tally(
    out: &mut Republished,
    publisher: &TablePublisher,
    before: Option<ForwardingTable>,
    count_changed: bool,
) {
    out.tables += 1;
    out.entries += publisher.table().len() as u64;
    if count_changed {
        let t0 = Instant::now();
        if before.is_none_or(|b| !same_routes(&b, publisher.table())) {
            out.changed += 1;
        }
        out.compare_s += t0.elapsed().as_secs_f64();
    }
}

impl<R: Recorder> Plane for SeqEngine<R> {
    fn now(&self) -> f64 {
        SeqEngine::now(self)
    }
    fn graph(&self) -> &Graph {
        SeqEngine::graph(self)
    }
    fn is_active(&self, v: NodeId) -> bool {
        SeqEngine::is_active(self, v)
    }
    fn delivered(&self) -> u64 {
        self.messages_delivered()
    }
    fn dropped(&self) -> u64 {
        self.messages_dropped()
    }
    fn topology_events(&self) -> u64 {
        SeqEngine::topology_events(self)
    }
    fn events(&self) -> u64 {
        self.events_processed()
    }

    fn republish(
        &mut self,
        tables: &mut Tables,
        spans: &mut Spans,
        parent: SpanId,
        group: u64,
        count_changed: bool,
    ) -> Republished {
        let now = SeqEngine::now(self);
        let mut out = Republished::default();
        for (v, publisher) in tables.pubs.iter_mut().enumerate() {
            if !SeqEngine::is_active(self, NodeId(v)) {
                continue;
            }
            let node = &self.nodes()[v];
            if publisher.needs_publish(node.control_revision(), now) {
                let before = snapshot(&mut out, publisher, count_changed);
                let table = spans.open("table", parent, group);
                publisher.publish_with(now, |t| node.compile_forwarding_into(t));
                spans.close(table);
                tally(&mut out, publisher, before, count_changed);
            }
        }
        out
    }

    fn candidates(&mut self) -> u64 {
        self.active_nodes()
            .map(|v| self.nodes()[v.0].pv.rib_stats().candidates as u64)
            .sum()
    }
}

impl<R: Recorder> Chain for SeqEngine<R> {
    fn schedule(&mut self, at: f64, event: TopologyEvent) {
        self.schedule_topology(at, event);
    }

    fn quiesce(&mut self) -> bool {
        self.run_until(|_| false)
    }

    fn addresses(&mut self, of: &[NodeId]) -> Vec<Option<FlowAddress>> {
        let nodes = self.nodes();
        let mut out = vec![None; nodes.len()];
        for &v in of {
            if SeqEngine::is_active(self, v) && out[v.0].is_none() {
                out[v.0] = address_of(&nodes[v.0]);
            }
        }
        out
    }
}

impl<R: Recorder + MergeRecorder + Send + 'static> Plane for ShardedEngine<DiscoProtocol, R> {
    fn now(&self) -> f64 {
        ShardedEngine::now(self)
    }
    fn graph(&self) -> &Graph {
        ShardedEngine::graph(self)
    }
    fn is_active(&self, v: NodeId) -> bool {
        ShardedEngine::is_active(self, v)
    }
    fn delivered(&self) -> u64 {
        self.messages_delivered()
    }
    fn dropped(&self) -> u64 {
        self.messages_dropped()
    }
    fn topology_events(&self) -> u64 {
        ShardedEngine::topology_events(self)
    }
    fn events(&self) -> u64 {
        self.events_processed()
    }
    /// Tables compile on their owner shard (the RIB's interned paths are
    /// thread-local) and ship to the coordinator as plain arrays.
    fn republish(
        &mut self,
        tables: &mut Tables,
        spans: &mut Spans,
        parent: SpanId,
        group: u64,
        count_changed: bool,
    ) -> Republished {
        let now = ShardedEngine::now(self);
        let mut out = Republished::default();
        for shard in 0..self.shards() {
            let mine: Vec<(usize, Option<u64>)> = (0..tables.pubs.len())
                .filter(|&v| {
                    self.owner_of(NodeId(v)) == shard && ShardedEngine::is_active(self, NodeId(v))
                })
                .map(|v| (v, tables.pubs[v].published_revision()))
                .collect();
            let visit = spans.open("shard_compile", parent, group);
            let fresh: Vec<(usize, ForwardingTable)> = self.visit(shard, move |e| {
                let nodes = e.nodes();
                mine.into_iter()
                    .filter(|&(v, published)| published != Some(nodes[v].control_revision()))
                    .map(|(v, _)| {
                        let mut t = ForwardingTable::new(NodeId(v));
                        nodes[v].compile_forwarding_into(&mut t);
                        (v, t)
                    })
                    .collect()
            });
            spans.close(visit);
            for (v, table) in fresh {
                let publisher = &mut tables.pubs[v];
                let before = snapshot(&mut out, publisher, count_changed);
                publisher.publish_with(now, |slot| *slot = table);
                tally(&mut out, publisher, before, count_changed);
            }
        }
        out
    }

    /// A shard's replicas of nodes it does not own never receive an
    /// upcall and hold no candidates, so summing every shard's whole node
    /// array counts each live node once.
    fn candidates(&mut self) -> u64 {
        let active: Vec<bool> = (0..ShardedEngine::graph(self).node_count())
            .map(|v| ShardedEngine::is_active(self, NodeId(v)))
            .collect();
        (0..self.shards())
            .map(|shard| {
                let active = active.clone();
                self.visit(shard, move |e| {
                    e.nodes()
                        .iter()
                        .zip(&active)
                        .filter(|&(_, &live)| live)
                        .map(|(node, _)| node.pv.rib_stats().candidates as u64)
                        .sum::<u64>()
                })
            })
            .sum()
    }
}

/// Counters of a batch of walks.
#[derive(Debug, Clone, Default)]
pub struct WalkStats {
    pub walks: u64,
    pub delivered: u64,
    /// Undelivered walks whose pair BFS says was routable.
    pub failed: u64,
    pub lookups: u64,
    pub hops: u64,
    /// Host seconds inside the timed walk loop.
    pub secs: f64,
    /// Mean ns per walk of every [`WALK_SLICE`]-walk slice (kept only
    /// when `keep_slices`).
    pub slice_ns: Vec<f64>,
    /// Delivered hops and BFS hops over the first [`STRETCH_SAMPLE`]
    /// flows (0 when stretch was not asked for).
    pub stretch_hops: u64,
    pub stretch_dist: u64,
}

impl WalkStats {
    pub fn lookups_per_s(&self) -> f64 {
        self.lookups as f64 / self.secs
    }

    pub fn stretch(&self) -> f64 {
        self.stretch_hops as f64 / self.stretch_dist as f64
    }

    pub fn absorb(&mut self, other: &WalkStats) {
        self.walks += other.walks;
        self.delivered += other.delivered;
        self.failed += other.failed;
        self.lookups += other.lookups;
        self.hops += other.hops;
        self.secs += other.secs;
        self.stretch_hops += other.stretch_hops;
        self.stretch_dist += other.stretch_dist;
    }
}

/// Walk `flows` hop by hop through the published tables on the live
/// topology. Only the walk loop is timed; classification (and stretch,
/// when `with_stretch`) runs after the clock stops.
pub fn walk<P: Plane>(
    plane: &P,
    tables: &Tables,
    addrs: &[Option<FlowAddress>],
    flows: &[(NodeId, NodeId)],
    with_stretch: bool,
    keep_slices: bool,
) -> WalkStats {
    let graph = plane.graph();
    let walker = PacketWalker {
        graph,
        is_active: |v: NodeId| plane.is_active(v),
        table_of: |v: NodeId| tables.table(v),
        ttl: TTL,
    };
    let mut stats = WalkStats::default();
    let mut hops_of: Vec<Option<u32>> = Vec::with_capacity(flows.len());
    let mut lookups = 0u64;
    let t0 = Instant::now();
    for slice in flows.chunks(WALK_SLICE) {
        let s0 = keep_slices.then(Instant::now);
        for &(s, t) in slice {
            let out = walker.walk(s, t, addrs[t.0].as_ref(), |_| lookups += 1);
            hops_of.push(match out {
                WalkOutcome::Delivered { hops } => Some(hops),
                _ => None,
            });
        }
        if let Some(s0) = s0 {
            stats
                .slice_ns
                .push(s0.elapsed().as_nanos() as f64 / slice.len() as f64);
        }
    }
    stats.secs = t0.elapsed().as_secs_f64();
    stats.walks = flows.len() as u64;
    stats.lookups = lookups;

    let mut bfs: FxHashMap<NodeId, Vec<u32>> = FxHashMap::default();
    let mut dist = |s: NodeId, t: NodeId| {
        bfs.entry(s)
            .or_insert_with(|| hop_distances(graph, |v| plane.is_active(v), s))[t.0]
    };
    for (i, (&(s, t), hops)) in flows.iter().zip(&hops_of).enumerate() {
        match hops {
            Some(h) => {
                stats.delivered += 1;
                stats.hops += u64::from(*h);
                if with_stretch && i < STRETCH_SAMPLE {
                    stats.stretch_hops += u64::from(*h);
                    stats.stretch_dist += u64::from(dist(s, t));
                }
            }
            None => {
                if dist(s, t) != u32::MAX {
                    stats.failed += 1;
                }
            }
        }
    }
    stats
}

/// One scripted event through the whole chain.
#[derive(Debug, Clone)]
pub struct EventSample {
    pub kind: Kind,
    /// Host ms: schedule → quiescence → republish → last probe served.
    pub total_ms: f64,
    pub ctrl_ms: f64,
    pub compile_ms: f64,
    pub walk_ms: f64,
    /// Announcements delivered while repairing.
    pub anns: u64,
    /// Simulated time from the event to quiescence.
    pub sim: f64,
    pub republished: Republished,
    /// `(tables, entries)` the compile stage behind `compile_ms` rebuilt
    /// (it travels with the host times when a faster play replaces them).
    pub compiled: (u64, u64),
    pub quiesced: bool,
    pub walks: WalkStats,
}

impl EventSample {
    /// Take `other`'s host times if that play of the same event was the
    /// faster one; the simulated counts stay this (the first) play's.
    pub fn keep_faster(&mut self, other: EventSample) {
        if other.total_ms < self.total_ms {
            self.total_ms = other.total_ms;
            self.ctrl_ms = other.ctrl_ms;
            self.compile_ms = other.compile_ms;
            self.walk_ms = other.walk_ms;
            self.compiled = other.compiled;
            self.walks = other.walks;
        }
    }
}

/// Apply `ev` one simulated time unit from now, repair to quiescence,
/// republish every moved table and serve the probe walks `pairs` (drawn
/// by the caller, before the clock starts). `index` groups the event's
/// spans.
pub fn apply_event<P: Chain>(
    plane: &mut P,
    tables: &mut Tables,
    spans: &mut Spans,
    ev: &ScriptEvent,
    index: u64,
    pairs: &[(NodeId, NodeId)],
) -> EventSample {
    let traced = spans.enabled();
    let event = spans.open("event", None, index);
    let (anns0, t_event) = (plane.delivered(), plane.now() + 1.0);
    plane.schedule(t_event, ev.event.clone());
    let (quiesced, ctrl_s) = spans.time("ctrl", event.id(), index, || plane.quiesce());
    let compile = spans.open("compile", event.id(), index);
    let republished = plane.republish(tables, spans, compile.id(), index, traced);
    let compile_s = spans.close(compile) - republished.compare_s;
    let serve = spans.open("walk", event.id(), index);
    let dsts: Vec<NodeId> = pairs.iter().map(|&(_, t)| t).collect();
    let addrs = plane.addresses(&dsts);
    let walks = walk(plane, tables, &addrs, pairs, false, false);
    let walk_s = spans.close(serve);
    let total_s = spans.close(event);
    EventSample {
        kind: ev.kind,
        total_ms: total_s * 1e3,
        ctrl_ms: ctrl_s * 1e3,
        compile_ms: compile_s * 1e3,
        walk_ms: walk_s * 1e3,
        anns: plane.delivered() - anns0,
        sim: plane.now() - t_event,
        republished,
        compiled: (republished.tables, republished.entries),
        quiesced,
        walks,
    }
}
