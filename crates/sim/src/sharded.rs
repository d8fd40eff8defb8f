//! Conservative-lookahead sharded simulation: partition the graph across
//! worker shards and run them in parallel without giving up determinism.
//!
//! ## Model
//!
//! A [`ShardedEngine`] owns `k` worker threads, each running a full
//! [`Engine`] over its own clone of the graph. The seeded [`Partition`]
//! assigns every node to exactly one shard; a shard's engine replays *all*
//! topology events (so its graph replica stays exact) but delivers upcalls
//! only to the nodes it owns. Sends whose receiver lives on another shard
//! are filed into the outbox bucket of the receiver's shard and exchanged
//! at window barriers.
//!
//! ## The lookahead invariant
//!
//! Every message occupies its link for at least the link weight, and no
//! link is lighter than the lookahead `W`: the lightest link of the
//! initial graph or of any link scheduled since
//! ([`ShardedEngine::schedule_topology`] lowers `W` to a lighter link when
//! the link is scheduled, before the link exists in any window). So an
//! event executing at time `s` can only cause another shard's state at
//! `s + W` or later: `W` is a conservative lookahead. The coordinator
//! repeatedly finds the globally earliest pending event `t_min`, lets every
//! shard run `[.., t_min + W)` in parallel, then exchanges the cross-shard
//! sends generated — which all carry timestamps `>= t_min + W`, i.e. never
//! in any shard's past.
//!
//! ## The window protocol: one hop per window
//!
//! A cross-shard send has one form from send to delivery: the
//! `(time, key, EventKind)` entry the engine would have queued locally.
//! At send time one routine files each event either onto the local wheel
//! or into the outbox bucket of the receiving shard. A run of floods (the
//! consecutive floods of one upcall) goes out in the sender's flood groups
//! — its neighbors grouped by link weight and receiving shard, built on
//! its first flood after an adjacency change and kept until the next — so
//! each receiving shard gets one `DeliverFlood` per arrival instant
//! carrying the run once and sharing the group's target list (an `Arc`:
//! the event may cross to another worker thread). Across the barrier only
//! the messages inside the events change form (`ShardProtocol::to_wire`
//! when the outbox is flushed, `ShardProtocol::from_wire` when the mailbox
//! is filed), every message of a run.
//!
//! A window costs each worker one command and one reply. The
//! `Cmd::Window` command carries the window's end *and* the events other
//! shards filed for this worker at the previous barrier; the worker files
//! them into its wheel as one batch ([`crate::event::EventQueue::extend`]),
//! runs the window, and replies with its clock, its next pending time and
//! its outbox buckets, with the earliest arrival time noted. The
//! coordinator never looks inside a bucket: it moves each one to its
//! destination's mailbox and hands the mailbox over with the next
//! `Cmd::Window`. Filing is linear because the wheel's `peek_time` (which
//! every worker answers at every barrier) does not drain the bucket it
//! looks at: arrivals for the tick a shard is about to run take the
//! ordinary O(1) bucket append and are sorted once, with the rest of that
//! tick, when it drains. A worker with a [`Recorder`] attached times the
//! three parts of each window — ingest, work, and the wait for the
//! command — and reports them through [`Recorder::window_done`].
//!
//! ## Why any shard count produces byte-identical runs
//!
//! Events order by `(time, key, seq)` where `key` is the logical key of
//! the engine's `node_event_key` — `(source node, per-source counter)`
//! for node actions, a centrally assigned world counter for scheduled
//! topology. Three facts make the run independent of `k`:
//!
//! 1. No two events in one shard's queue share `(time, key)`: a run of
//!    sends carries its first key, unique (per-source counters never
//!    repeat), and a flood run's events, which all carry the run's first
//!    key, differ in time (link weight) or receiving shard. An event
//!    reaches its receiver's queue under the `(time, key)` it was filed
//!    with, so the arrival `seq` — the only push-order-dependent
//!    tiebreak — never decides between two events.
//! 2. The window boundary `t_min + W` is derived from the global minimum
//!    and `W`, the lightest link of the initial graph or of any link
//!    scheduled since. Both are `k`-independent (`W` moves only in
//!    schedule calls, which do not depend on `k`), so every shard count
//!    executes the same event set in the same windows.
//! 3. Within one event, the order in which *different* receivers run is
//!    unobservable. An upcall reads and writes only its own node's state,
//!    and it files what it sends under its own node's counter at times
//!    after the event's, so what a receiver does depends only on the
//!    sequence of messages it is handed. So any order that hands each
//!    receiver its messages in the same order, with every event kept at
//!    its `(time, key)`, is the same run. A flood event's receivers are
//!    split across the shards that own them, and each shard runs its own
//!    share; the same rule licenses the engine's receiver-major pop,
//!    where each target absorbs a whole run of floods before the next
//!    target gets its first message, and the borrowed run upcall
//!    (`Protocol::on_run`), where a target absorbs its run in one upcall
//!    and the engine files what it sent after the run, in the order
//!    per-message upcalls would have sent it. A run of sends over one
//!    link is one event with one receiver, whose messages would have
//!    popped back to back (consecutive keys at one arrival time), so it
//!    is licensed the same way. Every later action keeps the key it would
//!    have had; messages that per-message upcalls would have ended and
//!    begun back to back may share one event, whose receivers again see
//!    only their own sequences. One caveat: a receiver timer of zero
//!    delay, filed under a key below the run's, fires after the whole
//!    event rather than between two of its messages. `DiscoProtocol`'s
//!    timers are all at least 2.0 long.
//!
//! The barrier fills each mailbox in source-shard order (then send order),
//! which is deterministic too — though by fact 1 the ingestion order
//! cannot matter. `k = 1` runs the exact same code path — one worker
//! thread, an always-empty exchange — and is the engine every dynamic
//! driver runs on by default; the `exp_churn` goldens lock one, two and
//! four shards byte-for-byte equal, and `tests/sharded_equivalence.rs`
//! locks them equal to a bare [`Engine`].

use crate::engine::{Engine, RunReport, MAX_EVENTS};
use crate::event::{EventKind, SimTime, TimerWheel, TopologyEvent};
use crate::rng::splitmix64;
use crate::stats::MessageStats;
use crate::Protocol;
use disco_graph::{Graph, NodeId, PathArena, Weight};
use disco_telemetry::{MergeRecorder, NoopRecorder, Recorder};
use std::collections::VecDeque;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::Instant;

/// Lookahead used when the initial graph has no edges at all: no message
/// can ever cross shards (there are no links), so any positive window
/// works; 1.0 matches the default link weight of the generators.
const EMPTY_GRAPH_LOOKAHEAD: Weight = 1.0;

/// A protocol that can run under the [`ShardedEngine`]: its messages have
/// a thread-portable wire form. Protocols whose messages are `Send`
/// already can use themselves as the wire form; protocols with
/// thread-affine payloads (e.g. paths interned in a thread-local arena)
/// detach them into owned data here and rebuild them on the receiving shard.
///
/// `from_wire(to_wire(m))` must be semantically identity: the receiving
/// node must behave exactly as if `m` had been delivered locally.
pub trait ShardProtocol: Protocol {
    /// The thread-portable form of [`Protocol::Message`].
    type Wire: Send + 'static;

    /// Detach a message into its wire form (sender shard).
    fn to_wire(msg: Self::Message) -> Self::Wire;

    /// Reattach a wire message (receiver shard).
    fn from_wire(wire: Self::Wire) -> Self::Message;
}

/// The seeded, fixed node→shard assignment. Hash-based so it covers nodes
/// that join beyond the initial id space without any resizing, and `Copy`
/// so every shard can resolve destinations locally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partition {
    seed: u64,
    shards: usize,
}

impl Partition {
    /// A partition of the node space into `shards` parts (min 1), keyed by
    /// `seed`.
    pub fn new(seed: u64, shards: usize) -> Self {
        Partition {
            seed,
            shards: shards.max(1),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning node `v`. A single shard owns everything without
    /// hashing.
    #[inline]
    pub fn shard_of(&self, v: NodeId) -> usize {
        if self.shards == 1 {
            return 0;
        }
        (splitmix64(self.seed ^ (v.0 as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            % self.shards as u64) as usize
    }
}

/// An event as the engine files it: the `(time, key, kind)` triple
/// [`crate::event::EventQueue::extend`] takes. A cross-shard send keeps
/// this form from the sender's outbox to the receiver's wheel; only its
/// messages change hands, in wire form, at the barrier.
pub(crate) type Filed<M> = (SimTime, u64, EventKind<M>);

/// Attachment making an [`Engine`] one shard of a sharded run: the
/// partition, this shard's index, and the outbox collecting the current
/// window's cross-shard sends — one bucket per destination shard (index =
/// shard id; this shard's own bucket stays empty), in send order.
pub(crate) struct ShardBinding<M> {
    pub(crate) partition: Partition,
    pub(crate) me: usize,
    pub(crate) outbox: Vec<Vec<Filed<M>>>,
}

/// The engine type each worker thread owns (always on the default
/// [`TimerWheel`] queue — each shard has its own wheel).
pub type ShardEngine<P, R = NoopRecorder> =
    Engine<'static, P, TimerWheel<<P as Protocol>::Message>, R>;

/// A boxed closure shipped to a worker by [`ShardedEngine::visit`].
type VisitFn<P, R> = Box<dyn FnOnce(&mut ShardEngine<P, R>) + Send>;

/// Commands the coordinator sends to a worker (processed strictly in
/// order; only `Window`, `Visit` and `Finish` reply).
enum Cmd<P: ShardProtocol + 'static, R: Recorder + Send + 'static> {
    /// Deliver `on_start` to every owned node.
    Start,
    /// Schedule a topology event under the coordinator-assigned world key.
    Topology {
        at: SimTime,
        key: u64,
        ev: TopologyEvent,
    },
    /// File `ingest` — the cross-shard arrivals other shards produced at
    /// the previous barrier — then run one lookahead window, flush the
    /// outbox and report.
    Window {
        end: SimTime,
        inclusive: bool,
        ingest: Vec<Filed<P::Wire>>,
    },
    /// Run a closure against the shard's engine (probes, stats reads).
    Visit(VisitFn<P, R>),
    /// Finish the recorder at `now` and hand everything back.
    Finish { now: SimTime },
}

/// Cumulative per-shard counters, refreshed at every window barrier.
#[derive(Debug, Clone, Copy, Default)]
struct ShardCounters {
    events: u64,
    delivered: u64,
    dropped: u64,
    stale: u64,
    queue_live: usize,
    queue_dead: usize,
}

/// A worker's report at a window barrier.
struct WindowReport<W> {
    /// The shard's clock (time of its last processed event).
    now: SimTime,
    /// Timestamp of its earliest still-pending local event.
    next: Option<SimTime>,
    counters: ShardCounters,
    /// Cross-shard sends generated this window, in wire form: one bucket
    /// per destination shard.
    outbound: Vec<Vec<Filed<W>>>,
    /// Earliest arrival time in any bucket.
    earliest: Option<SimTime>,
}

struct FinishReport<R> {
    stats: MessageStats,
    recorder: R,
    queue_live: usize,
    queue_dead: usize,
    arena_reclaimed_cells: usize,
}

enum Reply<W, R> {
    Window(WindowReport<W>),
    VisitDone,
    Finished(Box<FinishReport<R>>),
}

/// Merged result of a sharded run, from [`ShardedEngine::finish`].
pub struct ShardedRunSummary<R> {
    /// Per-node message statistics (the shards' tables are row-disjoint,
    /// so their sum is exactly the sequential run's table).
    pub stats: MessageStats,
    /// The merged telemetry recorder.
    pub recorder: R,
    /// Live queue entries left across all shards.
    pub queue_live: usize,
    /// Dead (cancelled) queue residue left across all shards.
    pub queue_dead: usize,
    /// Path-arena capacity cells released across all shards by the
    /// end-of-run [`PathArena::shrink`] (each worker drops its engine —
    /// freeing that shard's routing state — then compacts its
    /// thread-local arena; without this, a sharded run's workers would
    /// exit still pinning `live ≈ peak` arena capacity).
    pub arena_reclaimed_cells: usize,
}

/// Deterministic parallel simulation coordinator, the engine every dynamic
/// driver runs on: steps `k` shard workers — each an [`Engine`] — through
/// conservative-lookahead windows. See the module docs for the
/// synchronization model and the determinism argument.
///
/// The coordinator mirrors the graph and the active set (applying the same
/// topology events the shards apply, at the same barriers), so topology
/// accessors ([`ShardedEngine::graph`], [`ShardedEngine::is_active`], …)
/// answer without crossing threads. Protocol state lives only on the
/// workers; reach it with [`ShardedEngine::visit`] or
/// [`ShardedEngine::gather`].
pub struct ShardedEngine<P: ShardProtocol + 'static, R: Recorder + Send + 'static = NoopRecorder> {
    workers: Vec<WorkerHandle<Cmd<P, R>>>,
    replies: Vec<Receiver<Reply<P::Wire, R>>>,
    partition: Partition,
    /// The conservative lookahead: the lightest link of the initial graph
    /// or of any link scheduled since (see module docs).
    lookahead: Weight,
    /// Coordinator mirror of the simulated graph.
    graph: Graph,
    /// Coordinator mirror of the active set.
    active: Vec<bool>,
    /// Scheduled topology events not yet applied to the mirror, sorted by
    /// `(time, key)`; the same events are already queued on every worker.
    pending_topo: VecDeque<(SimTime, u64, TopologyEvent)>,
    /// Topology events applied to the mirror (equals every shard's count
    /// at barriers — all shards replay all topology).
    applied_topology: u64,
    /// Key counter for world events, mirroring the sequential engine's.
    world_ctr: u64,
    /// Latest per-shard counters (refreshed at barriers).
    counters: Vec<ShardCounters>,
    /// Latest per-shard earliest-pending-event times.
    nexts: Vec<Option<SimTime>>,
    /// Per-shard mailbox: arrivals other shards produced at the last
    /// barrier, delivered with the shard's next `Cmd::Window`.
    mail: Vec<Vec<Filed<P::Wire>>>,
    /// Earliest arrival waiting in `mail` (its receiving shard reports it
    /// in `nexts` only once it has ingested it).
    mail_min: Option<SimTime>,
    now: SimTime,
    started: bool,
}

impl<P: ShardProtocol + 'static> ShardedEngine<P, NoopRecorder> {
    /// A sharded engine over a clone of `graph` with `shards` workers and
    /// a `seed`-keyed partition. `factory` builds each node's protocol
    /// instance *on its owner's thread* (it is cloned into every worker),
    /// so thread-affine protocol state works naturally.
    pub fn new<F>(graph: &Graph, shards: usize, seed: u64, factory: F) -> Self
    where
        F: Fn(NodeId) -> P + Send + Clone + 'static,
    {
        Self::with_recorder(graph, shards, seed, factory, |_| NoopRecorder)
    }
}

impl<P: ShardProtocol + 'static, R: Recorder + Send + 'static> ShardedEngine<P, R> {
    /// Like [`ShardedEngine::new`] with one telemetry recorder per shard
    /// (`recorders(shard_index)`), merged at [`ShardedEngine::finish`].
    pub fn with_recorder<F, G>(
        graph: &Graph,
        shards: usize,
        seed: u64,
        factory: F,
        mut recorders: G,
    ) -> Self
    where
        F: Fn(NodeId) -> P + Send + Clone + 'static,
        G: FnMut(usize) -> R,
    {
        let shards = shards.max(1);
        let partition = Partition::new(seed, shards);
        let lookahead = graph
            .edges()
            .map(|(_, e)| e.weight)
            .fold(f64::INFINITY, f64::min);
        let lookahead = if lookahead.is_finite() {
            lookahead
        } else {
            EMPTY_GRAPH_LOOKAHEAD
        };
        assert!(
            lookahead > 0.0,
            "sharded runs need positive link weights (minimum weight {lookahead} \
             leaves no safe lookahead window)"
        );
        let mut workers = Vec::with_capacity(shards);
        let mut replies = Vec::with_capacity(shards);
        for me in 0..shards {
            let (tx, rx) = channel();
            let g = graph.clone();
            let f = factory.clone();
            let rec = recorders(me);
            workers.push(WorkerHandle::spawn(
                format!("disco-shard-{me}"),
                move |cmds| {
                    worker_loop::<P, R>(cmds, tx, &g, f, rec, partition, me);
                },
            ));
            replies.push(rx);
        }
        ShardedEngine {
            workers,
            replies,
            partition,
            lookahead,
            graph: graph.clone(),
            active: vec![true; graph.node_count()],
            pending_topo: VecDeque::new(),
            applied_topology: 0,
            world_ctr: 0,
            counters: vec![ShardCounters::default(); shards],
            nexts: vec![None; shards],
            mail: (0..shards).map(|_| Vec::new()).collect(),
            mail_min: None,
            now: 0.0,
            started: false,
        }
    }

    /// Number of shard workers.
    pub fn shards(&self) -> usize {
        self.workers.len()
    }

    /// The shard owning node `v` (where [`ShardedEngine::visit`] finds its
    /// protocol instance).
    pub fn owner_of(&self, v: NodeId) -> usize {
        self.partition.shard_of(v)
    }

    /// The conservative lookahead window: the lightest link of the initial
    /// graph or of any link scheduled since.
    pub fn lookahead(&self) -> Weight {
        self.lookahead
    }

    /// The coordinator's mirror of the simulated graph in its current
    /// state (kept in lockstep with the shards' replicas at barriers).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Whether `v` is currently part of the network.
    pub fn is_active(&self, v: NodeId) -> bool {
        self.active.get(v.0).copied().unwrap_or(false)
    }

    /// Ids of the currently active nodes.
    pub fn active_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.active
            .iter()
            .enumerate()
            .filter(|&(_, &a)| a)
            .map(|(i, _)| NodeId(i))
    }

    /// Number of currently active nodes.
    pub fn active_count(&self) -> usize {
        self.active.iter().filter(|&&a| a).count()
    }

    /// Current simulation time (the latest shard clock, refreshed at
    /// barriers; [`ShardedEngine::run_to`] advances it to the target).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Events processed, summed over shards. Unlike every other counter
    /// here this is *not* shard-count-invariant: replayed topology events
    /// count once per shard and a run of floods fans out into one queue
    /// entry per involved shard. Compare runs on delivered/dropped counts,
    /// stats and end time instead.
    pub fn events_processed(&self) -> u64 {
        self.counters.iter().map(|c| c.events).sum()
    }

    /// Messages delivered to the protocol (shard-count-invariant).
    pub fn messages_delivered(&self) -> u64 {
        self.counters.iter().map(|c| c.delivered).sum()
    }

    /// Messages (and cancelled timers) dropped (shard-count-invariant).
    pub fn messages_dropped(&self) -> u64 {
        self.counters.iter().map(|c| c.dropped).sum()
    }

    /// Epoch-dead timers that slipped past eager cancellation, summed.
    pub fn stale_timer_pops(&self) -> u64 {
        self.counters.iter().map(|c| c.stale).sum()
    }

    /// Topology events applied so far (each counted once, as in the
    /// sequential engine — every shard replays the same sequence).
    pub fn topology_events(&self) -> u64 {
        self.applied_topology
    }

    /// `(live, dead)` queue entry counts summed over the shards.
    pub fn queue_stats(&self) -> (usize, usize) {
        self.counters
            .iter()
            .fold((0, 0), |(l, d), c| (l + c.queue_live, d + c.queue_dead))
    }

    /// Schedule a topology mutation at absolute time `at` on every shard.
    /// A link lighter than the lookahead window lowers the window to its
    /// weight here, before any window the link exists in runs; the value
    /// depends only on the schedule calls, so every shard count runs the
    /// same windows.
    pub fn schedule_topology(&mut self, at: SimTime, event: TopologyEvent) {
        let lightest = match &event {
            TopologyEvent::LinkUp { weight, .. } => *weight,
            TopologyEvent::NodeJoin { links, .. } => {
                links.iter().map(|&(_, w)| w).fold(f64::INFINITY, f64::min)
            }
            _ => f64::INFINITY,
        };
        assert!(
            lightest > 0.0,
            "sharded runs need positive link weights (a scheduled link of weight \
             {lightest} leaves no safe lookahead window)"
        );
        self.lookahead = self.lookahead.min(lightest);
        assert!(
            at >= self.now,
            "topology event scheduled in the past ({at} < {})",
            self.now
        );
        let key = self.world_ctr;
        self.world_ctr += 1;
        for w in &self.workers {
            w.send(Cmd::Topology {
                at,
                key,
                ev: event.clone(),
            });
        }
        let pos = self
            .pending_topo
            .partition_point(|&(t, k, _)| t < at || (t == at && k < key));
        self.pending_topo.insert(pos, (at, key, event));
    }

    /// Deliver `on_start` to every node (each on its owner shard) and
    /// exchange any cross-shard sends it produced. Called automatically by
    /// [`ShardedEngine::run`], [`ShardedEngine::run_until`] and
    /// [`ShardedEngine::run_to`] on first use.
    pub fn start(&mut self) {
        self.started = true;
        for w in &self.workers {
            w.send(Cmd::Start);
        }
        // A zero-length window: processes nothing (on_start sends all have
        // positive delay), but flushes the outboxes and primes the
        // per-shard next-event times.
        self.exchange_window(0.0, false);
    }

    /// Run one lookahead window on every shard — each worker's command
    /// carrying its mailbox — and merge the barrier: refresh the per-shard
    /// counters/clocks, then move every outbound bucket to its destination
    /// shard's mailbox — walking the replies in shard-id order, so the
    /// merge is deterministic.
    fn exchange_window(&mut self, end: SimTime, inclusive: bool) {
        self.apply_pending_topology(end, inclusive);
        for (w, mail) in self.workers.iter().zip(&mut self.mail) {
            w.send(Cmd::Window {
                end,
                inclusive,
                ingest: std::mem::take(mail),
            });
        }
        self.mail_min = None;
        for (i, rx) in self.replies.iter().enumerate() {
            let reply = rx.recv().expect("shard worker hung up");
            let Reply::Window(rep) = reply else {
                panic!("unexpected reply at window barrier");
            };
            self.counters[i] = rep.counters;
            self.nexts[i] = rep.next;
            self.now = self.now.max(rep.now);
            if let Some(t) = rep.earliest {
                self.mail_min = Some(self.mail_min.map_or(t, |m| m.min(t)));
            }
            for (mail, mut bucket) in self.mail.iter_mut().zip(rep.outbound) {
                if mail.is_empty() {
                    *mail = bucket;
                } else {
                    mail.append(&mut bucket);
                }
            }
        }
    }

    /// Apply scheduled topology up to `end` to the coordinator's mirror —
    /// the same prefix every shard applies within the window that is about
    /// to run, so mirror and replicas agree at every barrier.
    fn apply_pending_topology(&mut self, end: SimTime, inclusive: bool) {
        while let Some(&(at, _, _)) = self.pending_topo.front() {
            let within = if inclusive { at <= end } else { at < end };
            if !within {
                break;
            }
            let (_, _, ev) = self.pending_topo.pop_front().expect("peeked above");
            self.apply_topology_mirror(ev);
        }
    }

    /// The graph/active-set half of [`Engine`]'s topology application
    /// (no upcalls, timers or epochs here — those live on the shards).
    fn apply_topology_mirror(&mut self, event: TopologyEvent) {
        self.applied_topology += 1;
        match event {
            TopologyEvent::LinkUp { u, v, weight } => {
                if self.is_active(u) && self.is_active(v) {
                    let _ = self.graph.insert_edge(u, v, weight);
                }
            }
            TopologyEvent::LinkDown { u, v } => {
                let _ = self.graph.remove_edge(u, v);
            }
            TopologyEvent::NodeLeave { node } => {
                if self.is_active(node) {
                    self.active[node.0] = false;
                    let _ = self.graph.detach_node(node);
                }
            }
            TopologyEvent::NodeJoin { node, links } => {
                while node.0 >= self.graph.node_count() {
                    self.graph.add_node();
                    self.active.push(false);
                }
                if self.active[node.0] {
                    return;
                }
                self.active[node.0] = true;
                for (peer, weight) in links {
                    if peer.0 < self.graph.node_count() && self.active[peer.0] {
                        let _ = self.graph.insert_edge(node, peer, weight);
                    }
                }
            }
        }
    }

    /// [`ShardedEngine::start`], unless it already ran or events did.
    fn start_once(&mut self) {
        if !self.started && self.events_processed() == 0 {
            self.start();
        }
    }

    /// Timestamp of the globally earliest pending event: the minimum over
    /// every shard's reported next event, arrivals waiting in the
    /// mailboxes, and scheduled topology not yet inside any window.
    fn global_next(&self) -> Option<SimTime> {
        let mut next: Option<SimTime> = None;
        let mut fold = |t: SimTime| {
            next = Some(match next {
                Some(n) if n <= t => n,
                _ => t,
            })
        };
        for t in self.nexts.iter().flatten() {
            fold(*t);
        }
        if let Some(t) = self.mail_min {
            fold(t);
        }
        if let Some(&(t, _, _)) = self.pending_topo.front() {
            fold(t);
        }
        next
    }

    /// Process events until quiescence or the event valve; returns the run
    /// report. Calls [`ShardedEngine::start`] first unless it already ran.
    pub fn run(&mut self) -> RunReport {
        let converged = self.run_until(|_| false);
        self.report(converged)
    }

    /// Process events window by window until quiescence, the event valve
    /// (200 million events summed over shards, checked at barriers; the
    /// sum counts a replayed topology event once per shard), or `stop`
    /// returns true. Unlike the sequential engine's per-event
    /// check, `stop` is evaluated at window barriers — the natural
    /// granularity of a parallel run. Returns true on quiescence. Calls
    /// [`ShardedEngine::start`] first unless it already ran.
    pub fn run_until(&mut self, mut stop: impl FnMut(&Self) -> bool) -> bool {
        self.start_once();
        loop {
            if self.events_processed() >= MAX_EVENTS {
                return false;
            }
            let Some(next) = self.global_next() else {
                return true;
            };
            self.exchange_window(next + self.lookahead, false);
            if stop(self) {
                return false;
            }
        }
    }

    /// Process all events with timestamps `<= t`, then advance the clock
    /// to `t`; returns true if no events remain. The final batch *at*
    /// exactly `t` runs as one inclusive window — safe because anything an
    /// event at `t` causes lands strictly after `t`.
    pub fn run_to(&mut self, t: SimTime) -> bool {
        self.start_once();
        while let Some(next) = self.global_next() {
            if next >= t || self.events_processed() >= MAX_EVENTS {
                break;
            }
            self.exchange_window((next + self.lookahead).min(t), false);
        }
        self.exchange_window(t, true);
        self.now = self.now.max(t);
        self.global_next().is_none()
    }

    /// The run report so far. Gathers the shards' message statistics, so
    /// it costs one barrier round-trip.
    pub fn report(&mut self, converged: bool) -> RunReport {
        let (queue_live, queue_dead) = self.queue_stats();
        RunReport {
            converged,
            end_time: self.now,
            events_processed: self.events_processed(),
            topology_events: self.applied_topology,
            messages_dropped: self.messages_dropped(),
            messages_delivered: self.messages_delivered(),
            stale_timer_pops: self.stale_timer_pops(),
            queue_live,
            queue_dead,
            stats: self.merged_stats(),
        }
    }

    /// The shards' message statistics merged into one table (row-disjoint
    /// by construction: each node's counters live on its owner shard).
    pub fn merged_stats(&mut self) -> MessageStats {
        let mut total = MessageStats::new(self.graph.node_count());
        for shard in 0..self.workers.len() {
            let part = self.visit(shard, |e| e.stats().clone());
            total.absorb(&part);
        }
        total
    }

    /// Run `f` against `shard`'s engine on its worker thread and return
    /// the result. Node `v`'s state lives on shard
    /// [`ShardedEngine::owner_of`]`(v)`; [`ShardedEngine::gather`] does
    /// that routing for a batch.
    pub fn visit<T, F>(&mut self, shard: usize, f: F) -> T
    where
        T: Send + 'static,
        F: FnOnce(&mut ShardEngine<P, R>) -> T + Send + 'static,
    {
        let (tx, rx): (Sender<T>, Receiver<T>) = channel();
        self.workers[shard].send(Cmd::Visit(Box::new(move |e| {
            let _ = tx.send(f(e));
        })));
        match self.replies[shard].recv().expect("shard worker hung up") {
            Reply::VisitDone => {}
            _ => panic!("unexpected reply to visit"),
        }
        rx.recv().expect("visit closure dropped its result")
    }

    /// Evaluate `f(engine, v, item)` for every `(v, item)` on the shard
    /// owning node `v` — the engine whose `nodes()[v]` is `v`'s live
    /// protocol instance (other shards hold only its construction-time
    /// replica) — and return the results in input order. Each owning shard
    /// is visited once, with all of its items.
    pub fn gather<I, T, F>(&mut self, items: Vec<(NodeId, I)>, f: F) -> Vec<T>
    where
        I: Send + 'static,
        T: Send + 'static,
        F: Fn(&ShardEngine<P, R>, NodeId, I) -> T + Send + Clone + 'static,
    {
        let mut rows: Vec<Option<T>> = items.iter().map(|_| None).collect();
        let mut per_shard: Vec<Vec<(usize, NodeId, I)>> =
            self.workers.iter().map(|_| Vec::new()).collect();
        for (i, (v, item)) in items.into_iter().enumerate() {
            per_shard[self.owner_of(v)].push((i, v, item));
        }
        for (shard, mine) in per_shard.into_iter().enumerate() {
            if mine.is_empty() {
                continue;
            }
            let f = f.clone();
            let got: Vec<(usize, T)> = self.visit(shard, move |e| {
                mine.into_iter()
                    .map(|(i, v, item)| (i, f(e, v, item)))
                    .collect()
            });
            for (i, row) in got {
                rows[i] = Some(row);
            }
        }
        rows.into_iter()
            .map(|row| row.expect("every item was routed to its owner"))
            .collect()
    }

    /// Run `f` on shard 0's recorder: the place for marks that belong to
    /// the run rather than to a node — phase spans, a driver's own
    /// counters. [`ShardedEngine::finish`] merges it with the other shards'
    /// recorders. Skipped entirely when the recorder is disabled.
    pub fn mark(&mut self, f: impl FnOnce(&mut R) + Send + 'static) {
        if R::ENABLED {
            self.visit(0, move |e| f(e.recorder_mut()));
        }
    }

    /// Shut the shards down and merge their final state: summed message
    /// statistics, merged telemetry recorders (shard-id order), and the
    /// leftover queue gauges. Each shard's recorder receives
    /// `finish(now)` before merging.
    pub fn finish(mut self) -> ShardedRunSummary<R>
    where
        R: MergeRecorder,
    {
        let now = self.now;
        for w in &self.workers {
            w.send(Cmd::Finish { now });
        }
        let mut stats = MessageStats::new(self.graph.node_count());
        let mut recorder: Option<R> = None;
        // Arrivals still in a mailbox are pending events too: each is one
        // queue entry.
        let mut queue_live: usize = self.mail.iter().map(Vec::len).sum();
        let mut queue_dead = 0;
        let mut arena_reclaimed_cells = 0;
        for rx in &self.replies {
            let Ok(Reply::Finished(fin)) = rx.recv() else {
                panic!("shard worker hung up before finishing");
            };
            let fin = *fin;
            stats.absorb(&fin.stats);
            queue_live += fin.queue_live;
            queue_dead += fin.queue_dead;
            arena_reclaimed_cells += fin.arena_reclaimed_cells;
            match &mut recorder {
                None => recorder = Some(fin.recorder),
                Some(r) => r.absorb(fin.recorder),
            }
        }
        // Workers have exited their loops; dropping the handles joins them.
        self.workers.clear();
        ShardedRunSummary {
            stats,
            recorder: recorder.expect("at least one shard"),
            queue_live,
            queue_dead,
            arena_reclaimed_cells,
        }
    }
}

/// The worker thread: owns one shard's [`Engine`] for the whole run and
/// processes coordinator commands in order.
fn worker_loop<P, R>(
    cmds: Receiver<Cmd<P, R>>,
    replies: Sender<Reply<P::Wire, R>>,
    graph: &Graph,
    factory: impl FnMut(NodeId) -> P + 'static,
    recorder: R,
    partition: Partition,
    me: usize,
) where
    P: ShardProtocol + 'static,
    R: Recorder + Send + 'static,
{
    let mut engine: ShardEngine<P, R> =
        Engine::with_recorder(graph, factory, TimerWheel::new(), recorder);
    engine.bind_shard(partition, me);
    // The coordinator enforces the event valve globally at barriers; a
    // per-shard valve would stall one shard silently and deadlock the
    // window protocol.
    engine.max_events = u64::MAX;
    // Wall-clock spent blocked on the command channel since the last
    // window's reply (only read with a recorder attached).
    let mut wait_ns = 0u64;
    loop {
        let idle = R::ENABLED.then(Instant::now);
        let Ok(cmd) = cmds.recv() else {
            break;
        };
        if let Some(t0) = idle {
            wait_ns += t0.elapsed().as_nanos() as u64;
        }
        match cmd {
            Cmd::Start => engine.start(),
            Cmd::Topology { at, key, ev } => engine.schedule_topology_keyed(at, key, ev),
            Cmd::Window {
                end,
                inclusive,
                ingest,
            } => {
                let t0 = R::ENABLED.then(Instant::now);
                let (wire_in, events_before) = (ingest.len() as u64, engine.events_processed());
                engine.ingest(ingest);
                let t1 = R::ENABLED.then(Instant::now);
                engine.run_window(end, inclusive);
                let outbound = engine.flush_outbox();
                let earliest = outbound.iter().flatten().map(|e| e.0).reduce(SimTime::min);
                let next = engine.peek_time();
                if let (Some(t0), Some(t1)) = (t0, t1) {
                    let wire_out = outbound.iter().map(Vec::len).sum::<usize>() as u64;
                    let events = engine.events_processed() - events_before;
                    engine.recorder_mut().window_done(
                        me as u32,
                        events,
                        t1.elapsed().as_nanos() as u64,
                        (t1 - t0).as_nanos() as u64,
                        std::mem::take(&mut wait_ns),
                        wire_in,
                        wire_out,
                    );
                }
                let (queue_live, queue_dead) = engine.queue_stats();
                let report = WindowReport {
                    now: engine.now(),
                    next,
                    counters: ShardCounters {
                        events: engine.events_processed(),
                        delivered: engine.messages_delivered(),
                        dropped: engine.messages_dropped(),
                        stale: engine.stale_timer_pops(),
                        queue_live,
                        queue_dead,
                    },
                    outbound,
                    earliest,
                };
                if replies.send(Reply::Window(report)).is_err() {
                    break;
                }
            }
            Cmd::Visit(f) => {
                f(&mut engine);
                if replies.send(Reply::VisitDone).is_err() {
                    break;
                }
            }
            Cmd::Finish { now } => {
                engine.recorder_mut().finish(now);
                let (queue_live, queue_dead) = engine.queue_stats();
                let stats = engine.stats().clone();
                let recorder = engine.into_recorder();
                // `into_recorder` consumed the engine and dropped this
                // shard's nodes — their interned paths are dead now, so
                // compact the worker's thread-local arena before the
                // thread parks (otherwise the run exits with
                // `live ≈ peak` capacity still pinned per worker).
                let arena_reclaimed_cells = PathArena::shrink();
                let _ = replies.send(Reply::Finished(Box::new(FinishReport {
                    stats,
                    recorder,
                    queue_live,
                    queue_dead,
                    arena_reclaimed_cells,
                })));
                return;
            }
        }
    }
}

/// One shard's persistent worker thread, fed through an in-order command
/// channel. It lives for the whole run, so it can own thread-affine state
/// (protocol instances whose interned paths live in a thread-local arena).
/// Dropping the handle closes the channel, which ends the worker's receive
/// loop, and joins the thread, propagating any panic.
#[derive(Debug)]
struct WorkerHandle<C> {
    tx: Option<Sender<C>>,
    handle: Option<JoinHandle<()>>,
}

impl<C: Send + 'static> WorkerHandle<C> {
    /// Spawn a named worker running `body` over its command receiver;
    /// `body` loops on `recv()` and returns when the channel disconnects.
    fn spawn<F>(name: String, body: F) -> WorkerHandle<C>
    where
        F: FnOnce(Receiver<C>) + Send + 'static,
    {
        let (tx, rx) = channel();
        let handle = std::thread::Builder::new()
            .name(name)
            .spawn(move || body(rx))
            .expect("spawning worker thread");
        WorkerHandle {
            tx: Some(tx),
            handle: Some(handle),
        }
    }

    /// Enqueue one command. Panics if the worker died (its loop exited or
    /// panicked); the join on drop then surfaces the real cause.
    fn send(&self, cmd: C) {
        self.tx
            .as_ref()
            .expect("worker already shut down")
            .send(cmd)
            .expect("worker thread hung up");
    }
}

impl<C> Drop for WorkerHandle<C> {
    fn drop(&mut self) {
        drop(self.tx.take());
        if let Some(h) = self.handle.take() {
            if let Err(p) = h.join() {
                std::panic::resume_unwind(p);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Context;
    use disco_graph::generators;

    /// Ping-pong with plain `Send` messages: the wire form is the message
    /// itself.
    #[derive(Default)]
    struct PingPong {
        pongs: u32,
    }

    #[derive(Clone)]
    enum Msg {
        Ping,
        Pong,
    }

    impl Protocol for PingPong {
        type Message = Msg;
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            if ctx.node_id() == NodeId(0) {
                ctx.broadcast(Msg::Ping);
            }
        }
        fn on_message(&mut self, from: NodeId, msg: Msg, ctx: &mut Context<'_, Msg>) {
            match msg {
                Msg::Ping => ctx.send(from, Msg::Pong),
                Msg::Pong => self.pongs += 1,
            }
        }
    }

    impl ShardProtocol for PingPong {
        type Wire = Msg;
        fn to_wire(msg: Msg) -> Msg {
            msg
        }
        fn from_wire(wire: Msg) -> Msg {
            wire
        }
    }

    #[test]
    fn worker_processes_commands_in_order_and_joins_on_drop() {
        let (out_tx, out_rx) = channel();
        let w = WorkerHandle::spawn("test-worker".into(), move |rx| {
            while let Ok(v) = rx.recv() {
                out_tx.send(v * 2).unwrap();
            }
        });
        for i in 0..10u64 {
            w.send(i);
        }
        drop(w);
        let got: Vec<u64> = out_rx.iter().collect();
        assert_eq!(got, (0..10).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn partition_is_seeded_and_total() {
        let p = Partition::new(7, 3);
        let q = Partition::new(7, 3);
        for v in 0..1000 {
            assert_eq!(p.shard_of(NodeId(v)), q.shard_of(NodeId(v)));
            assert!(p.shard_of(NodeId(v)) < 3);
        }
        // All shards actually used (splitmix spreads even tiny id ranges).
        let mut used = [false; 3];
        for v in 0..64 {
            used[p.shard_of(NodeId(v))] = true;
        }
        assert!(used.iter().all(|&u| u));
    }

    #[test]
    fn sharded_matches_sequential_ping_pong() {
        let g = generators::gnm_connected(48, 128, 11);
        let mut seq = Engine::new(&g, |_| PingPong::default());
        let seq_report = seq.run();
        for shards in [1, 2, 3, 8] {
            let mut sh = ShardedEngine::new(&g, shards, 42, |_| PingPong::default());
            let report = sh.run();
            assert!(report.converged);
            assert_eq!(report.messages_delivered, seq_report.messages_delivered);
            assert_eq!(report.stats, seq_report.stats, "shards={shards}");
            assert_eq!(report.end_time, seq_report.end_time, "shards={shards}");
            let total_pongs: u32 = (0..shards)
                .map(|s| sh.visit(s, |e| e.nodes().iter().map(|n| n.pongs).sum::<u32>()))
                .sum();
            assert_eq!(total_pongs, g.degree(NodeId(0)) as u32);
        }
    }

    /// Records what each shard's windows reported.
    #[derive(Default)]
    struct WindowLog {
        /// `(shard, events, wire_in, wire_out)` per window.
        windows: Vec<(u32, u64, u64, u64)>,
    }

    impl Recorder for WindowLog {
        fn window_done(
            &mut self,
            shard: u32,
            events: u64,
            _work_ns: u64,
            _ingest_ns: u64,
            _wait_ns: u64,
            wire_in: u64,
            wire_out: u64,
        ) {
            self.windows.push((shard, events, wire_in, wire_out));
        }
    }

    impl MergeRecorder for WindowLog {
        fn absorb(&mut self, other: Self) {
            self.windows.extend(other.windows);
        }
    }

    #[test]
    fn every_window_is_reported_to_the_recorder() {
        let g = generators::ring(8);
        // A partition that separates the pinging node from a neighbor.
        let seed = (0..)
            .find(|&s| {
                let p = Partition::new(s, 2);
                p.shard_of(NodeId(0)) != p.shard_of(NodeId(1))
            })
            .expect("some seed splits two nodes");
        let mut sh = ShardedEngine::with_recorder(
            &g,
            2,
            seed,
            |_| PingPong::default(),
            |_| WindowLog::default(),
        );
        let report = sh.run();
        assert!(report.converged);
        let log = sh.finish().recorder.windows;
        let per_shard = |s: u32| log.iter().filter(|w| w.0 == s).count();
        assert!(per_shard(0) > 1);
        assert_eq!(per_shard(0), per_shard(1), "shards run windows in lockstep");
        let sum = |f: fn(&(u32, u64, u64, u64)) -> u64| log.iter().map(f).sum::<u64>();
        assert_eq!(sum(|w| w.1), report.events_processed);
        assert!(sum(|w| w.3) >= 2, "the ping and its pong cross the cut");
        assert_eq!(
            sum(|w| w.2),
            sum(|w| w.3),
            "quiescent: every send was ingested"
        );
    }

    #[test]
    fn churn_under_sharding_matches_sequential() {
        let g = generators::gnm_connected(32, 96, 5);
        let schedule = vec![
            (0.5, TopologyEvent::NodeLeave { node: NodeId(3) }),
            (
                1.5,
                TopologyEvent::LinkDown {
                    u: NodeId(0),
                    v: g.neighbors(NodeId(0))[0].node,
                },
            ),
            (
                4.0,
                TopologyEvent::NodeJoin {
                    node: NodeId(3),
                    links: vec![(NodeId(1), 1.0), (NodeId(7), 1.0)],
                },
            ),
        ];
        let mut seq = Engine::new(&g, |_| PingPong::default());
        for (at, ev) in &schedule {
            seq.schedule_topology(*at, ev.clone());
        }
        let seq_report = seq.run();
        for shards in [1, 2, 3] {
            let mut sh = ShardedEngine::new(&g, shards, 9, |_| PingPong::default());
            for (at, ev) in &schedule {
                sh.schedule_topology(*at, ev.clone());
            }
            let report = sh.run();
            assert_eq!(report.topology_events, seq_report.topology_events);
            assert_eq!(report.messages_delivered, seq_report.messages_delivered);
            assert_eq!(report.messages_dropped, seq_report.messages_dropped);
            assert_eq!(report.stats, seq_report.stats, "shards={shards}");
            assert_eq!(report.end_time, seq_report.end_time, "shards={shards}");
            assert_eq!(sh.active_count(), seq.active_count());
            assert_eq!(sh.graph().edge_count(), seq.graph().edge_count());
        }
    }

    #[test]
    fn run_until_boots_an_unstarted_engine() {
        // A boot spelled `new` + `run_until` runs the boot, as `run` does,
        // rather than reporting quiescence at t = 0 with nothing run.
        let g = generators::gnm_connected(48, 128, 11);
        let mut seq = Engine::new(&g, |_| PingPong::default());
        let seq_report = seq.run();
        let mut sh = ShardedEngine::new(&g, 2, 42, |_| PingPong::default());
        assert!(sh.run_until(|_| false));
        assert!(sh.events_processed() > 0);
        assert!(sh.now() > 0.0);
        assert_eq!(sh.messages_delivered(), seq_report.messages_delivered);
    }

    #[test]
    fn run_to_interleaves_with_probes() {
        let g = generators::ring(12);
        let mut sh = ShardedEngine::new(&g, 3, 2, |_| PingPong::default());
        sh.schedule_topology(5.0, TopologyEvent::NodeLeave { node: NodeId(6) });
        sh.run_to(2.0);
        assert_eq!(sh.now(), 2.0);
        assert_eq!(sh.active_count(), 12, "leave at t=5 not applied yet");
        sh.run_to(6.0);
        assert_eq!(sh.active_count(), 11);
        assert!(!sh.is_active(NodeId(6)));
        let owner = sh.owner_of(NodeId(6));
        let inactive_on_shard = sh.visit(owner, |e| e.is_active(NodeId(6)));
        assert!(!inactive_on_shard, "mirror and shard replica agree");
    }
}
