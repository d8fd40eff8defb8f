//! The discrete-event simulation engine.
//!
//! Since the dynamics subsystem landed, the engine *owns* its graph (a clone
//! of the one passed to [`Engine::new`]) and can mutate it at runtime by
//! processing [`TopologyEvent`]s: node churn, link failure/recovery and
//! mobility re-attachment. Protocols observe adjacency changes through the
//! [`Protocol::on_neighbor_up`] / [`Protocol::on_neighbor_down`] upcalls.

use crate::context::{Action, Context, DEFAULT_MSG_SIZE};
use crate::event::{EventKind, EventQueue, SimTime, TimerWheel, TopologyEvent};
use crate::sharded::{Filed, ShardBinding, ShardProtocol};
use crate::stats::MessageStats;
use crate::Protocol;
use disco_graph::{EdgeId, Graph, NodeId, Weight};
use disco_telemetry::{MessageClass, NoopRecorder, Recorder};

/// Default event valve of a run (the sequential engine's
/// [`Engine::max_events`], and the sharded engine's summed over shards).
pub(crate) const MAX_EVENTS: u64 = 200_000_000;

/// Fixed per-hop processing delay added to every message in addition to
/// the link weight; keeps zero-weight pathologies out of the queue.
const PROCESSING_DELAY: SimTime = 0.01;

/// Logical event key of the `ctr`-th action taken by `node`: orders events
/// with equal timestamps by `(source node, per-source action counter)`
/// instead of by global push order, making the schedule independent of how
/// pushes interleave across shards. World events (externally scheduled
/// topology mutations and injections) use a bare counter, which sorts
/// below every node key.
#[inline]
pub(crate) fn node_event_key(node: NodeId, ctr: u32) -> u64 {
    ((node.0 as u64 + 1) << 32) | ctr as u64
}

/// Summary of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Whether the simulation reached quiescence (no events left) before
    /// hitting the event limit.
    pub converged: bool,
    /// Simulation time of the last processed event.
    pub end_time: SimTime,
    /// Number of events processed.
    pub events_processed: u64,
    /// Topology-mutation events applied.
    pub topology_events: u64,
    /// Messages lost in flight (link failed or receiver left before
    /// delivery) plus stale-incarnation timers discarded.
    pub messages_dropped: u64,
    /// Messages delivered to `on_message` upcalls. Counts every message —
    /// a delivered batch contributes its full length — so it measures
    /// protocol work independently of how deliveries are packed into
    /// queue entries (an event can carry a whole table dump).
    pub messages_delivered: u64,
    /// Epoch-dead timers that slipped past eager cancellation and were only
    /// discarded at pop time (0 when eager reclamation is airtight; see
    /// [`Engine::stale_timer_pops`]).
    pub stale_timer_pops: u64,
    /// Live (pending) event-queue entries at report time.
    pub queue_live: usize,
    /// Cancelled-but-still-referenced queue residue at report time.
    pub queue_dead: usize,
    /// Message statistics collected during the run.
    pub stats: MessageStats,
}

/// Discrete-event simulator running one [`Protocol`] instance per node of a
/// graph.
///
/// The engine clones the construction graph and owns it for the lifetime of
/// the run so that topology events can mutate it; [`Engine::graph`] exposes
/// the *current* topology. The `'f` lifetime bounds the node factory, which
/// is retained to build fresh protocol instances for nodes that join (or
/// rejoin) at runtime.
///
/// The `R` parameter is the telemetry [`Recorder`]. The default,
/// [`NoopRecorder`], has `Recorder::ENABLED == false`, and every
/// instrumentation site below is guarded by `if R::ENABLED { … }` on that
/// associated constant — monomorphization folds the guards away, so the
/// default engine compiles to exactly the un-instrumented code (the
/// byte-identical churn goldens lock this in).
pub struct Engine<
    'f,
    P: Protocol,
    Q: EventQueue<P::Message> = TimerWheel<<P as Protocol>::Message>,
    R: Recorder = NoopRecorder,
> {
    graph: Graph,
    nodes: Vec<P>,
    factory: Box<dyn FnMut(NodeId) -> P + 'f>,
    /// Whether each node is currently part of the network.
    active: Vec<bool>,
    /// Incarnation counter per node; bumped on rejoin so stale timers from a
    /// previous life are discarded.
    epoch: Vec<u32>,
    queue: Q,
    /// Cancellation handles of each node's pending timers; drained (and the
    /// timers reclaimed from the queue) the moment the node leaves, instead
    /// of letting epoch-dead timers sit in the queue until popped.
    pending_timers: Vec<Vec<Q::Id>>,
    stats: MessageStats,
    /// Recycled action buffer handed to every upcall's [`Context`] and
    /// drained in place afterwards — the zero-allocation upcall path (the
    /// buffer's capacity survives across upcalls).
    action_scratch: Vec<Action<P::Message>>,
    /// Per-node action counters backing the logical event keys (see
    /// [`node_event_key`]); never reset, so keys stay unique across
    /// leave/rejoin cycles.
    push_ctr: Vec<u32>,
    /// Counter keying externally scheduled (world) events: topology
    /// mutations and injected messages.
    world_ctr: u64,
    /// When this engine is one shard of a
    /// [`ShardedEngine`](crate::ShardedEngine): the seeded partition, this
    /// shard's index, and the per-destination outbox of cross-shard events
    /// filed during the current window. `None` for the plain sequential
    /// engine.
    shard: Option<ShardBinding<P::Message>>,
    now: SimTime,
    started: bool,
    events_processed: u64,
    topology_events: u64,
    messages_dropped: u64,
    messages_delivered: u64,
    /// Timers that reached their pop time while their node was inactive or
    /// from a previous incarnation — i.e. epoch-dead timers that the eager
    /// cancellation missed. The reclamation regression tests assert this
    /// stays 0 under churn: every dead timer should instead be cancelled
    /// the moment its node leaves, which counts it into the queue's
    /// dead-entry gauge ([`EventQueue::dead_refs`]) while it waits for its
    /// bucket to drain.
    stale_timer_pops: u64,
    /// Safety valve: stop after this many events (200 million; a shard
    /// worker lifts it, as the coordinator enforces the valve globally).
    pub(crate) max_events: u64,
    /// Telemetry recorder (a zero-sized no-op by default).
    recorder: R,
}

impl<'f, P: Protocol> Engine<'f, P> {
    /// Create an engine over a clone of `graph`, building each node's
    /// protocol instance with `factory`. The factory is kept for the
    /// engine's lifetime so joining nodes can be instantiated later.
    /// Events are scheduled on the default [`TimerWheel`] queue.
    pub fn new(graph: &Graph, factory: impl FnMut(NodeId) -> P + 'f) -> Self {
        Engine::with_recorder(graph, factory, TimerWheel::new(), NoopRecorder)
    }
}

impl<'f, P: Protocol, Q: EventQueue<P::Message>, R: Recorder> Engine<'f, P, Q, R> {
    /// Like [`Engine::new`], but scheduling events on `queue` and
    /// attaching a telemetry [`Recorder`]. The engine reports into it from
    /// every hot-path site; retrieve it afterwards with
    /// [`Engine::recorder`] / [`Engine::into_recorder`].
    pub fn with_recorder(
        graph: &Graph,
        factory: impl FnMut(NodeId) -> P + 'f,
        queue: Q,
        recorder: R,
    ) -> Self {
        let mut factory: Box<dyn FnMut(NodeId) -> P + 'f> = Box::new(factory);
        let nodes: Vec<P> = graph.nodes().map(&mut factory).collect();
        let n = graph.node_count();
        Engine {
            graph: graph.clone(),
            nodes,
            factory,
            active: vec![true; n],
            epoch: vec![0; n],
            queue,
            pending_timers: (0..n).map(|_| Vec::new()).collect(),
            stats: MessageStats::new(n),
            action_scratch: Vec::new(),
            push_ctr: vec![0; n],
            world_ctr: 0,
            shard: None,
            now: 0.0,
            started: false,
            events_processed: 0,
            topology_events: 0,
            messages_dropped: 0,
            messages_delivered: 0,
            stale_timer_pops: 0,
            max_events: MAX_EVENTS,
            recorder,
        }
    }

    /// The attached telemetry recorder.
    pub fn recorder(&self) -> &R {
        &self.recorder
    }

    /// Mutable access to the telemetry recorder (e.g. to mark experiment
    /// phases from the harness driving the engine).
    pub fn recorder_mut(&mut self) -> &mut R {
        &mut self.recorder
    }

    /// Consume the engine and hand back its recorder (for exporting a
    /// trace after the run).
    pub fn into_recorder(self) -> R {
        self.recorder
    }

    /// Immutable access to the per-node protocol instances (indexed by node
    /// id) — used to inspect converged state after a run. Instances of
    /// departed nodes retain their state at departure.
    pub fn nodes(&self) -> &[P] {
        &self.nodes
    }

    /// Mutable access to the per-node protocol instances.
    pub fn nodes_mut(&mut self) -> &mut [P] {
        &mut self.nodes
    }

    /// The simulated graph in its *current* state (reflects all topology
    /// events applied so far).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Whether `v` is currently part of the network. Nodes beyond the
    /// original graph that have not joined yet report `false`.
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

    /// Message statistics so far.
    pub fn stats(&self) -> &MessageStats {
        &self.stats
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Messages (and stale timers) dropped so far.
    pub fn messages_dropped(&self) -> u64 {
        self.messages_dropped
    }

    /// Messages delivered to `on_message` upcalls so far (batch members
    /// counted individually — see [`RunReport::messages_delivered`]).
    pub fn messages_delivered(&self) -> u64 {
        self.messages_delivered
    }

    /// Epoch-dead timers that slipped past eager cancellation and were
    /// only discarded when popped (see the field docs; 0 when eager
    /// reclamation is airtight).
    pub fn stale_timer_pops(&self) -> u64 {
        self.stale_timer_pops
    }

    /// Topology events applied so far.
    pub fn topology_events(&self) -> u64 {
        self.topology_events
    }

    /// Events (queue pops) processed so far. A batched delivery counts
    /// once however many messages it carries; see
    /// [`Engine::messages_delivered`] for the per-message count.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Next logical event key for an action of `node` (see
    /// [`node_event_key`]).
    #[inline]
    fn node_key(&mut self, node: NodeId) -> u64 {
        let c = &mut self.push_ctr[node.0];
        *c += 1;
        node_event_key(node, *c)
    }

    /// Whether this engine runs `v`'s protocol instance. Always true for
    /// the sequential engine; under sharding, true exactly when the seeded
    /// partition assigns `v` to this shard.
    #[inline]
    fn owns(&self, v: NodeId) -> bool {
        match &self.shard {
            None => true,
            Some(s) => s.partition.shard_of(v) == s.me,
        }
    }

    /// The shard running `v`'s protocol instance (0 for the sequential
    /// engine, which runs them all).
    #[inline]
    fn shard_of(&self, v: NodeId) -> usize {
        self.shard.as_ref().map_or(0, |s| s.partition.shard_of(v))
    }

    /// Attach this engine to a sharded run as shard `me` of `partition`:
    /// only owned nodes receive upcalls, and events for another shard's
    /// nodes are filed into that shard's outbox bucket instead of the local
    /// queue.
    pub(crate) fn bind_shard(&mut self, partition: crate::sharded::Partition, me: usize) {
        self.shard = Some(ShardBinding {
            partition,
            me,
            outbox: (0..partition.shards()).map(|_| Vec::new()).collect(),
        });
    }

    /// File an event for shard `dest` (see [`Engine::shard_of`]): onto the
    /// local queue when `dest` is this engine's shard — always, for the
    /// sequential engine — else into `dest`'s outbox bucket, under the same
    /// `(time, key)` it would have been queued under locally.
    #[inline]
    fn file(&mut self, dest: usize, time: SimTime, key: u64, kind: EventKind<P::Message>) {
        match &mut self.shard {
            Some(s) if s.me != dest => s.outbox[dest].push((time, key, kind)),
            _ => {
                let _ = self.queue.push(time, key, kind);
            }
        }
    }

    /// Schedule a topology mutation at absolute simulation time `at`
    /// (must not be in the past).
    pub fn schedule_topology(&mut self, at: SimTime, event: TopologyEvent) {
        let key = self.world_ctr;
        self.world_ctr += 1;
        self.schedule_topology_keyed(at, key, event);
    }

    /// [`Engine::schedule_topology`] with a caller-supplied world key — the
    /// sharded coordinator assigns keys centrally so every shard files the
    /// same event under the same `(time, key)`.
    pub(crate) fn schedule_topology_keyed(&mut self, at: SimTime, key: u64, event: TopologyEvent) {
        assert!(
            at >= self.now,
            "topology event scheduled in the past ({at} < {})",
            self.now
        );
        let _ = self.queue.push(at, key, EventKind::Topology(event));
    }

    /// `(live, dead)` entry counts of the event queue: pending events and
    /// cancelled-but-still-referenced bookkeeping residue. Exposed for the
    /// timer-reclamation regression tests.
    pub fn queue_stats(&self) -> (usize, usize) {
        (self.queue.len(), self.queue.dead_refs())
    }

    /// Whether an in-flight message riding `edge` toward `to` was lost:
    /// the link failed or the receiver departed while it was on the wire.
    /// Edge ids are retired permanently on removal and a departing node
    /// loses all incident edges, so one O(1) liveness-bit read replaces
    /// the former O(degree) `find_edge` scan per delivery: a *live* edge
    /// id still connects the endpoints it was minted for, and a link that
    /// failed and was re-established mid-flight (or a receiver that
    /// rejoined on the same anchor) carries a fresh id, leaving the
    /// message's own edge dead.
    #[inline]
    fn link_died_in_flight(&self, to: NodeId, edge: EdgeId) -> bool {
        !self.is_active(to) || !self.graph.edge_is_live(edge)
    }

    /// Cancel every pending timer of `node`, reclaiming the queue entries
    /// eagerly. Each cancelled timer counts as dropped, exactly as it would
    /// have when popped lazily under the old scheme.
    fn cancel_node_timers(&mut self, node: NodeId) {
        for id in std::mem::take(&mut self.pending_timers[node.0]) {
            if self.queue.cancel(id) {
                self.messages_dropped += 1;
                if R::ENABLED {
                    self.recorder
                        .message_dropped(self.now, MessageClass::Timer, 1);
                }
            }
        }
    }

    /// Turn the actions one upcall recorded into events, draining the
    /// buffer in place (its capacity is recycled), and file each through
    /// [`Engine::file`] — locally, or for the receiver's shard. Sends are
    /// already edge-resolved by the [`Context`], so no per-send adjacency
    /// scan happens here; floods walk the adjacency list exactly once.
    fn apply_actions(&mut self, node: NodeId, actions: &mut Vec<Action<P::Message>>) {
        let now = self.now;
        let arrival = |w: Weight| now + w + PROCESSING_DELAY;
        for a in actions.drain(..) {
            match a {
                Action::Send {
                    to,
                    msg,
                    size_bytes,
                } => {
                    self.stats.record_send(node, size_bytes);
                    if R::ENABLED {
                        self.recorder
                            .message_sent(now, P::classify(&msg), 1, size_bytes as u64);
                    }
                    let key = self.node_key(node);
                    let kind = EventKind::Deliver {
                        from: node,
                        to: to.node,
                        edge: to.edge,
                        msg,
                        size_bytes,
                    };
                    self.file(self.shard_of(to.node), arrival(to.weight), key, kind);
                }
                Action::SendBatch { to, msgs } => {
                    for (msg, size_bytes) in msgs.iter() {
                        self.stats.record_send(node, *size_bytes);
                        if R::ENABLED {
                            let class = MessageClass::shaped(P::classify(msg), MessageClass::Batch);
                            self.recorder
                                .message_sent(now, class, 1, *size_bytes as u64);
                        }
                    }
                    let key = self.node_key(node);
                    let kind = EventKind::DeliverBatch {
                        from: node,
                        to: to.node,
                        edge: to.edge,
                        msgs,
                    };
                    self.file(self.shard_of(to.node), arrival(to.weight), key, kind);
                }
                Action::Flood { msg, size_bytes } => {
                    let key = self.node_key(node);
                    // Group the copies by link weight and receiving shard:
                    // a weight is one arrival instant, so each group is ONE
                    // event carrying the payload once, replicated at the
                    // pop — uniform weights on one shard collapse to a
                    // single event (the common case). Targets keep
                    // adjacency order within a group. One pass sizes the
                    // groups, so each target list is allocated once at
                    // its final length and boxes without a `realloc`.
                    // `(weight, receiving shard, size, targets)`.
                    type FloodGroup = (Weight, usize, usize, Vec<(NodeId, EdgeId)>);
                    let mut groups: Vec<FloodGroup> = Vec::new();
                    let group_of = |groups: &[FloodGroup], w: Weight, dest: usize| {
                        groups.iter().position(|g| g.0 == w && g.1 == dest)
                    };
                    for nb in self.graph.neighbors(node) {
                        self.stats.record_send(node, size_bytes);
                        let dest = self.shard_of(nb.node);
                        match group_of(&groups, nb.weight, dest) {
                            Some(g) => groups[g].2 += 1,
                            None => groups.push((nb.weight, dest, 1, Vec::new())),
                        }
                    }
                    for g in &mut groups {
                        g.3.reserve_exact(g.2);
                    }
                    for nb in self.graph.neighbors(node) {
                        let dest = self.shard_of(nb.node);
                        let g = group_of(&groups, nb.weight, dest).expect("sized above");
                        groups[g].3.push((nb.node, nb.edge));
                    }
                    // Every group carries the flood's key; groups differ in
                    // time or receiving shard, so no two events of one
                    // queue collide on (time, key). The payload moves into
                    // the last group, cloning only for the others.
                    let Some((w, dest, _, targets)) = groups.pop() else {
                        continue; // no neighbors, nothing to send
                    };
                    if R::ENABLED {
                        let class = MessageClass::shaped(P::classify(&msg), MessageClass::Flood);
                        let copies = self.graph.degree(node);
                        self.recorder.message_sent(
                            now,
                            class,
                            copies as u64,
                            (size_bytes * copies) as u64,
                        );
                    }
                    let flood = |msg, targets: Vec<_>| EventKind::DeliverFlood {
                        from: node,
                        msg,
                        targets: targets.into_boxed_slice(),
                        size_bytes,
                    };
                    for (w, dest, _, targets) in groups {
                        self.file(dest, arrival(w), key, flood(msg.clone(), targets));
                    }
                    self.file(dest, arrival(w), key, flood(msg, targets));
                }
                Action::Timer { delay, token } => {
                    let key = self.node_key(node);
                    let id = self.queue.push(
                        self.now + delay,
                        key,
                        EventKind::Timer {
                            node,
                            token,
                            epoch: self.epoch[node.0],
                        },
                    );
                    self.pending_timers[node.0].push(id);
                }
            }
        }
    }

    /// Run `upcall` on node `v` with a context over the engine's recycled
    /// action buffer and apply the actions it records. No allocation after
    /// the buffer's capacity warms up.
    fn upcall(&mut self, v: NodeId, upcall: impl FnOnce(&mut P, &mut Context<'_, P::Message>)) {
        self.upcall_via(v, None, upcall);
    }

    /// [`Self::upcall`] with the arrival link pre-resolved (message
    /// deliveries): the context answers `link_weight(sender)` and reply
    /// resolution in O(1) instead of re-scanning the adjacency list.
    fn upcall_via(
        &mut self,
        v: NodeId,
        via: Option<disco_graph::Neighbor>,
        upcall: impl FnOnce(&mut P, &mut Context<'_, P::Message>),
    ) {
        // Sample the node's selection revision around the upcall: a change
        // means its selected next hops moved, which feeds the repair-latency
        // probe. Folded away entirely under the no-op recorder.
        let rev = if R::ENABLED {
            self.nodes[v.0].control_revision()
        } else {
            0
        };
        let buffer = std::mem::take(&mut self.action_scratch);
        let mut ctx = Context::with_buffer(v, self.now, &self.graph, buffer);
        ctx.set_via(via);
        upcall(&mut self.nodes[v.0], &mut ctx);
        let mut actions = ctx.into_buffer();
        self.apply_actions(v, &mut actions);
        self.action_scratch = actions;
        if R::ENABLED && self.nodes[v.0].control_revision() != rev {
            self.recorder.selection_changed(self.now, v.0 as u32);
        }
    }

    /// Deliver one message `from` → `to` over the link that was `edge` at
    /// send time: every delivery event, whatever its shape, comes through
    /// here once per message. A message whose link died in flight is
    /// counted dropped; otherwise the receive is accounted and the arrival
    /// link (live, so its record still describes the current link) is
    /// handed to the `on_message` upcall. Returns the message's telemetry
    /// class — the protocol's class over `shape`, or `shape` itself under
    /// the no-op recorder.
    fn deliver(
        &mut self,
        from: NodeId,
        to: NodeId,
        edge: EdgeId,
        msg: P::Message,
        size_bytes: usize,
        shape: MessageClass,
    ) -> MessageClass {
        let class = if R::ENABLED {
            MessageClass::shaped(P::classify(&msg), shape)
        } else {
            shape
        };
        if self.link_died_in_flight(to, edge) {
            self.messages_dropped += 1;
            if R::ENABLED {
                self.recorder.message_dropped(self.now, class, 1);
            }
        } else {
            self.stats.record_receive(to, size_bytes);
            self.messages_delivered += 1;
            if R::ENABLED {
                self.recorder
                    .message_delivered(self.now, class, from.0 as u32, to.0 as u32);
            }
            let via = disco_graph::Neighbor {
                node: from,
                edge,
                weight: self.graph.edge(edge).weight,
            };
            self.upcall_via(to, Some(via), |p, ctx| p.on_message(from, msg, ctx));
        }
        class
    }

    /// Apply one topology mutation and deliver the resulting neighbor
    /// up/down upcalls.
    fn apply_topology(&mut self, event: TopologyEvent) {
        self.topology_events += 1;
        if R::ENABLED {
            let (kind, node) = match &event {
                TopologyEvent::NodeJoin { node, .. } => ("join", node.0),
                TopologyEvent::NodeLeave { node } => ("leave", node.0),
                TopologyEvent::LinkUp { u, .. } => ("link_up", u.0),
                TopologyEvent::LinkDown { u, .. } => ("link_down", u.0),
            };
            self.recorder.topology_changed(self.now, kind, node as u32);
        }
        match event {
            TopologyEvent::LinkUp { u, v, weight } => {
                if !self.is_active(u) || !self.is_active(v) {
                    return;
                }
                if self.graph.insert_edge(u, v, weight).is_some() {
                    if self.owns(u) {
                        self.upcall(u, |p, ctx| p.on_neighbor_up(v, ctx));
                    }
                    if self.owns(v) {
                        self.upcall(v, |p, ctx| p.on_neighbor_up(u, ctx));
                    }
                }
            }
            TopologyEvent::LinkDown { u, v } => {
                if self.graph.remove_edge(u, v).is_some() {
                    if self.is_active(u) && self.owns(u) {
                        self.upcall(u, |p, ctx| p.on_neighbor_down(v, ctx));
                    }
                    if self.is_active(v) && self.owns(v) {
                        self.upcall(v, |p, ctx| p.on_neighbor_down(u, ctx));
                    }
                }
            }
            TopologyEvent::NodeLeave { node } => {
                if !self.is_active(node) {
                    return;
                }
                self.active[node.0] = false;
                // The departed incarnation's timers are dead; reclaim them
                // from the queue now instead of dropping them one by one as
                // they pop. (Under sharding only the owner holds handles,
                // so replicas drop nothing here.)
                self.cancel_node_timers(node);
                let former = self.graph.detach_node(node);
                for (peer, _) in former {
                    if self.is_active(peer) && self.owns(peer) {
                        self.upcall(peer, |p, ctx| p.on_neighbor_down(node, ctx));
                    }
                }
            }
            TopologyEvent::NodeJoin { node, links } => {
                // Grow the id space if the joiner is brand new.
                while node.0 >= self.graph.node_count() {
                    let id = self.graph.add_node();
                    self.nodes.push((self.factory)(id));
                    self.active.push(false);
                    self.epoch.push(0);
                    self.pending_timers.push(Vec::new());
                    self.push_ctr.push(0);
                }
                self.stats.grow_to(self.graph.node_count());
                if self.active[node.0] {
                    return; // already present; treat as no-op
                }
                if self.graph.degree(node) > 0 {
                    // A departed node keeps no links; a fresh id starts with
                    // none. Anything else is an engine invariant violation.
                    panic!("joining node {node} already has edges");
                }
                // Rejoining: fresh protocol state, new incarnation. Any
                // timer handle of the previous life that somehow survived
                // the leave-time sweep would become epoch-dead here —
                // cancel it now so it is reclaimed eagerly (and counted in
                // the queue's dead gauge) instead of lingering as a live
                // queue entry until its pop time.
                self.cancel_node_timers(node);
                self.epoch[node.0] += 1;
                self.nodes[node.0] = (self.factory)(node);
                self.active[node.0] = true;
                let mut attached = Vec::new();
                for (peer, weight) in links {
                    if peer.0 < self.graph.node_count()
                        && self.active[peer.0]
                        && self.graph.insert_edge(node, peer, weight).is_some()
                    {
                        attached.push(peer);
                    }
                }
                // The joiner boots first (it sees its links in the context),
                // then both sides observe the new adjacency.
                if self.owns(node) {
                    self.upcall(node, |p, ctx| p.on_start(ctx));
                }
                for peer in attached {
                    if self.owns(node) {
                        self.upcall(node, |p, ctx| p.on_neighbor_up(peer, ctx));
                    }
                    if self.owns(peer) {
                        self.upcall(peer, |p, ctx| p.on_neighbor_up(node, ctx));
                    }
                }
            }
        }
    }

    /// Deliver `on_start` to every node (in id order) at time 0. Called
    /// automatically by [`Engine::run`]; exposed separately so callers can
    /// interleave manual event injection (runs like [`Engine::run_until`]
    /// skip it, preserving full control over the initial events).
    pub fn start(&mut self) {
        self.started = true;
        for id in 0..self.nodes.len() {
            let node = NodeId(id);
            if self.active[id] && self.owns(node) {
                self.upcall(node, |p, ctx| p.on_start(ctx));
            }
        }
    }

    /// Process events until quiescence or a safety limit; returns the run
    /// report. Calls [`Engine::start`] first unless it already ran (so
    /// pre-scheduled topology events don't suppress the boot); call
    /// [`Engine::start`] and [`Engine::run_until`] yourself for full
    /// control over the initial events.
    pub fn run(&mut self) -> RunReport {
        if !self.started && self.events_processed == 0 {
            self.start();
        }
        let converged = self.run_until(|_| false);
        self.report(converged)
    }

    /// The report for the run so far.
    pub fn report(&self, converged: bool) -> RunReport {
        RunReport {
            converged,
            end_time: self.now,
            events_processed: self.events_processed,
            topology_events: self.topology_events,
            messages_dropped: self.messages_dropped,
            messages_delivered: self.messages_delivered,
            stale_timer_pops: self.stale_timer_pops,
            queue_live: self.queue.len(),
            queue_dead: self.queue.dead_refs(),
            stats: self.stats.clone(),
        }
    }

    /// Process all events with timestamps `<= t`, then advance the clock to
    /// `t`. Returns true if the queue is empty afterwards. Useful for
    /// interleaving probes with a running simulation at fixed times.
    pub fn run_to(&mut self, t: SimTime) -> bool {
        if !self.started && self.events_processed == 0 {
            self.start();
        }
        while self.queue.peek_time().is_some_and(|pt| pt <= t) {
            if !self.step() {
                break;
            }
        }
        self.now = self.now.max(t);
        self.queue.is_empty()
    }

    /// Process a single event. Returns false if the queue was empty or a
    /// safety limit tripped.
    fn step(&mut self) -> bool {
        let Some((id, ev)) = self.queue.pop() else {
            return false;
        };
        self.now = ev.time;
        self.events_processed += 1;
        // Wall-clock the event only when a recorder is attached; under the
        // no-op recorder the timer, the per-arm class and the final
        // `event_done` upcall all fold away.
        let wall = if R::ENABLED {
            Some(std::time::Instant::now())
        } else {
            None
        };
        let ev_class = match ev.kind {
            EventKind::Deliver {
                from,
                to,
                edge,
                msg,
                size_bytes,
            } => self.deliver(from, to, edge, msg, size_bytes, MessageClass::Deliver),
            EventKind::DeliverBatch {
                from,
                to,
                edge,
                msgs,
            } => {
                // The messages would have popped back-to-back as singletons
                // (consecutive seqs at one timestamp) and no upcall changes
                // the topology, so checking liveness per message equals
                // one check for the batch: a lost batch loses every message.
                for (msg, size_bytes) in msgs.into_vec() {
                    self.deliver(from, to, edge, msg, size_bytes, MessageClass::Batch);
                }
                MessageClass::Batch
            }
            EventKind::DeliverFlood {
                from,
                msg,
                targets,
                size_bytes,
            } => {
                // Replicate at the fan-out point: one clone (refcount bump
                // for interned payloads) per target, in adjacency order at
                // send time. Liveness stays per target: a single failed
                // link loses only that copy.
                let mut class = MessageClass::Flood;
                for &(to, edge) in targets.iter() {
                    class =
                        self.deliver(from, to, edge, msg.clone(), size_bytes, MessageClass::Flood);
                }
                class
            }
            EventKind::Timer { node, token, epoch } => {
                // This timer fired, so its handle is spent.
                let handles = &mut self.pending_timers[node.0];
                if let Some(pos) = handles.iter().position(|&h| h == id) {
                    handles.swap_remove(pos);
                }
                // Timers of departed nodes and of previous incarnations are
                // discarded (defense in depth: eager cancellation on leave
                // and rejoin should already have reclaimed them — the
                // counter tracks any that slip through).
                if !self.is_active(node) || self.epoch[node.0] != epoch {
                    self.messages_dropped += 1;
                    self.stale_timer_pops += 1;
                    if R::ENABLED {
                        self.recorder
                            .message_dropped(self.now, MessageClass::Timer, 1);
                    }
                } else {
                    if R::ENABLED {
                        self.recorder.message_delivered(
                            self.now,
                            MessageClass::Timer,
                            node.0 as u32,
                            node.0 as u32,
                        );
                    }
                    self.upcall(node, |p, ctx| p.on_timer(token, ctx));
                }
                MessageClass::Timer
            }
            EventKind::Topology(event) => {
                self.apply_topology(event);
                MessageClass::Topology
            }
        };
        if let Some(t0) = wall {
            self.recorder
                .event_done(ev_class, t0.elapsed().as_nanos() as u64);
        }
        self.events_processed < self.max_events
    }

    /// Process events until quiescence, a safety limit, or `stop` returns
    /// true for the engine's current state (checked after each event).
    /// Returns true if the queue drained (quiescence).
    pub fn run_until(&mut self, mut stop: impl FnMut(&Self) -> bool) -> bool {
        while !self.queue.is_empty() {
            if !self.step() || stop(self) {
                return false;
            }
        }
        true
    }

    /// Inject a message delivery from outside the protocol (e.g. a test
    /// injecting the first data packet); `from` must currently be a
    /// neighbor of `to` (the message rides the current link and is lost if
    /// that link fails before delivery).
    pub fn inject_message(&mut self, from: NodeId, to: NodeId, msg: P::Message, delay: SimTime) {
        let edge = self
            .graph
            .find_edge(from, to)
            .expect("inject_message requires an existing link");
        let key = self.world_ctr;
        self.world_ctr += 1;
        let _ = self.queue.push(
            self.now + delay,
            key,
            EventKind::Deliver {
                from,
                to,
                edge,
                msg,
                size_bytes: DEFAULT_MSG_SIZE,
            },
        );
    }

    /// Process every event strictly before `end` (at or before, when
    /// `inclusive`) — one conservative-lookahead window of a sharded run.
    /// Does not auto-start and does not advance the clock past the last
    /// processed event.
    pub(crate) fn run_window(&mut self, end: SimTime, inclusive: bool) {
        while let Some(pt) = self.queue.peek_time() {
            let within = if inclusive { pt <= end } else { pt < end };
            if !within || !self.step() {
                break;
            }
        }
    }

    /// Timestamp of the earliest pending local event, if any.
    pub(crate) fn peek_time(&mut self) -> Option<SimTime> {
        self.queue.peek_time()
    }
}

impl<P: ShardProtocol, Q: EventQueue<P::Message>, R: Recorder> Engine<'_, P, Q, R> {
    /// Drain the outbox — one bucket per destination shard, each in send
    /// order — with every message in wire form.
    pub(crate) fn flush_outbox(&mut self) -> Vec<Vec<Filed<P::Wire>>> {
        let Some(shard) = &mut self.shard else {
            return Vec::new();
        };
        shard
            .outbox
            .iter_mut()
            .map(|bucket| {
                bucket
                    .drain(..)
                    .map(|(time, key, kind)| (time, key, kind.map_msg(P::to_wire)))
                    .collect()
            })
            .collect()
    }

    /// File a barrier's cross-shard arrivals into the local queue, each
    /// under the `(time, key)` its sender assigned, as one batch.
    pub(crate) fn ingest(&mut self, arrivals: Vec<Filed<P::Wire>>) {
        self.queue.extend(
            arrivals
                .into_iter()
                .map(|(time, key, kind)| (time, key, kind.map_msg(P::from_wire))),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disco_graph::generators;

    /// Simple echo protocol: node 0 pings all neighbors; every node replies
    /// to pings once.
    #[derive(Default)]
    struct PingPong {
        pings_received: u32,
        pongs_received: u32,
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
                Msg::Ping => {
                    self.pings_received += 1;
                    ctx.send(from, Msg::Pong);
                }
                Msg::Pong => {
                    self.pongs_received += 1;
                }
            }
        }
    }

    #[test]
    fn ping_pong_converges() {
        let g = generators::star(9); // hub 0 with 8 leaves
        let mut e = Engine::new(&g, |_| PingPong::default());
        let report = e.run();
        assert!(report.converged);
        // 8 pings + 8 pongs.
        assert_eq!(report.stats.total_sent(), 16);
        assert_eq!(e.nodes()[0].pongs_received, 8);
        for leaf in 1..9 {
            assert_eq!(e.nodes()[leaf].pings_received, 1);
        }
    }

    #[test]
    fn latency_orders_deliveries() {
        // Line 0-1 (w=1) and 0-2 via builder weights: use geometric-like weights.
        use disco_graph::GraphBuilder;
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 5.0);
        b.add_edge(NodeId(0), NodeId(2), 1.0);
        let g = b.build();

        struct Recorder {
            arrival: Option<f64>,
        }
        impl Protocol for Recorder {
            type Message = ();
            fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
                if ctx.node_id() == NodeId(0) {
                    ctx.broadcast(());
                }
            }
            fn on_message(&mut self, _from: NodeId, _msg: (), ctx: &mut Context<'_, ()>) {
                self.arrival = Some(ctx.now());
            }
        }

        let mut e = Engine::new(&g, |_| Recorder { arrival: None });
        e.run();
        let t1 = e.nodes()[1].arrival.unwrap();
        let t2 = e.nodes()[2].arrival.unwrap();
        assert!(t2 < t1, "closer neighbor must hear first ({t2} vs {t1})");
    }

    #[test]
    fn timer_fires() {
        struct TimerNode {
            fired: Vec<u64>,
        }
        impl Protocol for TimerNode {
            type Message = ();
            fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
                ctx.set_timer(3.0, 42);
                ctx.set_timer(1.0, 7);
            }
            fn on_message(&mut self, _f: NodeId, _m: (), _c: &mut Context<'_, ()>) {}
            fn on_timer(&mut self, token: u64, _ctx: &mut Context<'_, ()>) {
                self.fired.push(token);
            }
        }
        let g = generators::line(2);
        let mut e = Engine::new(&g, |_| TimerNode { fired: vec![] });
        let report = e.run();
        assert!(report.converged);
        assert_eq!(e.nodes()[0].fired, vec![7, 42]);
        assert!((report.end_time - 3.0).abs() < 1e-9);
    }

    #[test]
    fn max_events_safety_valve() {
        // A protocol that ping-pongs forever between two nodes.
        struct Forever;
        impl Protocol for Forever {
            type Message = ();
            fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
                if ctx.node_id() == NodeId(0) {
                    ctx.send(NodeId(1), ());
                }
            }
            fn on_message(&mut self, from: NodeId, _m: (), ctx: &mut Context<'_, ()>) {
                ctx.send(from, ());
            }
        }
        let g = generators::line(2);
        let mut e = Engine::new(&g, |_| Forever);
        e.max_events = 1000;
        let report = e.run();
        assert!(!report.converged);
        assert_eq!(report.events_processed, 1000);
    }

    #[test]
    fn deterministic_runs() {
        let g = generators::gnm_connected(64, 256, 3);
        let run = |_: ()| {
            let mut e = Engine::new(&g, |_| PingPong::default());
            e.run().stats.total_sent()
        };
        assert_eq!(run(()), run(()));
    }

    #[test]
    fn inject_message_delivers() {
        let g = generators::line(2);
        let mut e = Engine::new(&g, |_| PingPong::default());
        // Suppress normal start: directly inject a ping from 1 to 0.
        e.inject_message(NodeId(1), NodeId(0), Msg::Ping, 0.5);
        let converged = e.run_until(|_| false);
        assert!(converged);
        assert_eq!(e.nodes()[0].pings_received, 1);
    }

    /// A protocol that records every neighbor-up/down observation.
    #[derive(Default)]
    struct AdjacencyWatcher {
        ups: Vec<NodeId>,
        downs: Vec<NodeId>,
        started: u32,
    }

    impl Protocol for AdjacencyWatcher {
        type Message = ();
        fn on_start(&mut self, _ctx: &mut Context<'_, ()>) {
            self.started += 1;
        }
        fn on_message(&mut self, _f: NodeId, _m: (), _c: &mut Context<'_, ()>) {}
        fn on_neighbor_up(&mut self, peer: NodeId, _ctx: &mut Context<'_, ()>) {
            self.ups.push(peer);
        }
        fn on_neighbor_down(&mut self, peer: NodeId, _ctx: &mut Context<'_, ()>) {
            self.downs.push(peer);
        }
    }

    #[test]
    fn link_down_and_up_notify_both_endpoints() {
        let g = generators::ring(4);
        let mut e = Engine::new(&g, |_| AdjacencyWatcher::default());
        e.schedule_topology(
            1.0,
            TopologyEvent::LinkDown {
                u: NodeId(0),
                v: NodeId(1),
            },
        );
        e.schedule_topology(
            2.0,
            TopologyEvent::LinkUp {
                u: NodeId(0),
                v: NodeId(1),
                weight: 2.0,
            },
        );
        let report = e.run();
        assert!(report.converged);
        assert_eq!(report.topology_events, 2);
        assert_eq!(e.nodes()[0].downs, vec![NodeId(1)]);
        assert_eq!(e.nodes()[1].downs, vec![NodeId(0)]);
        assert_eq!(e.nodes()[0].ups, vec![NodeId(1)]);
        assert_eq!(e.nodes()[1].ups, vec![NodeId(0)]);
        assert_eq!(e.graph().edge_weight(NodeId(0), NodeId(1)), Some(2.0));
    }

    #[test]
    fn node_leave_detaches_and_notifies_neighbors() {
        let g = generators::star(5); // hub 0, leaves 1..4
        let mut e = Engine::new(&g, |_| AdjacencyWatcher::default());
        e.schedule_topology(1.0, TopologyEvent::NodeLeave { node: NodeId(0) });
        let report = e.run();
        assert!(report.converged);
        assert!(!e.is_active(NodeId(0)));
        assert_eq!(e.active_count(), 4);
        assert_eq!(e.graph().edge_count(), 0);
        for leaf in 1..5 {
            assert_eq!(e.nodes()[leaf].downs, vec![NodeId(0)]);
        }
        // The departed node itself received no upcall.
        assert!(e.nodes()[0].downs.is_empty());
    }

    /// Regression test for the lazy-cancellation leak: epoch-dead timers
    /// used to sit in the queue (payload and all) until their pop time;
    /// they must now be reclaimed the moment the node leaves.
    #[test]
    fn node_leave_reclaims_pending_timers_eagerly() {
        struct ManyTimers;
        impl Protocol for ManyTimers {
            type Message = ();
            fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
                // The doomed node's timers all fire strictly before the
                // survivors' last one, so every reclaimed queue slot is
                // provably swept by the end of the run.
                let (base, step) = if ctx.node_id() == NodeId(2) {
                    (100.1, 0.5)
                } else {
                    (100.0, 1.0)
                };
                for i in 0..10 {
                    ctx.set_timer(base + i as f64 * step, i);
                }
            }
            fn on_message(&mut self, _f: NodeId, _m: (), _c: &mut Context<'_, ()>) {}
        }
        let g = generators::line(3);
        let mut e = Engine::new(&g, |_| ManyTimers);
        e.schedule_topology(2.0, TopologyEvent::NodeLeave { node: NodeId(2) });
        e.run_to(3.0);
        // The departed node's 10 timers are gone from the queue *now* —
        // not at t≈100 when they would have popped — and were accounted
        // as dropped. The survivors' 20 timers remain live; the 10 dead
        // bucket references carry no payload.
        let (live, dead) = e.queue_stats();
        assert_eq!(live, 20, "20 live timers of the two remaining nodes");
        assert_eq!(dead, 10, "10 reclaimed entries awaiting bucket drain");
        assert_eq!(e.messages_dropped(), 10);
        let report = e.run();
        assert!(report.converged);
        assert_eq!(report.messages_dropped, 10);
        assert_eq!(e.queue_stats(), (0, 0), "drain clears all residue");
    }

    /// High-churn regression for the dead-entry gauge: across many
    /// leave/rejoin cycles of timer-heavy nodes, every epoch-dead timer
    /// must be reclaimed *eagerly* (visible in the dead gauge, counted as
    /// dropped) — none may survive to its pop time as a live queue entry.
    #[test]
    fn high_churn_reclaims_all_epoch_dead_timers_eagerly() {
        struct TimerSpammer;
        impl Protocol for TimerSpammer {
            type Message = ();
            fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
                // Long-lived timers that outlive several churn cycles.
                for i in 0..8 {
                    ctx.set_timer(500.0 + i as f64, i);
                }
            }
            fn on_message(&mut self, _f: NodeId, _m: (), _c: &mut Context<'_, ()>) {}
            fn on_neighbor_up(&mut self, _p: NodeId, ctx: &mut Context<'_, ()>) {
                ctx.set_timer(400.0, 99);
            }
            fn on_neighbor_down(&mut self, _p: NodeId, ctx: &mut Context<'_, ()>) {
                ctx.set_timer(400.0, 98);
            }
        }
        let g = generators::ring(8);
        let mut e = Engine::new(&g, |_| TimerSpammer);
        // 30 churn cycles: each node repeatedly leaves and rejoins, every
        // incarnation spawning fresh long timers.
        let mut t = 1.0;
        for round in 0..30 {
            let v = NodeId(round % 8);
            e.schedule_topology(t, TopologyEvent::NodeLeave { node: v });
            e.schedule_topology(
                t + 1.0,
                TopologyEvent::NodeJoin {
                    node: v,
                    links: vec![(NodeId((v.0 + 1) % 8), 1.0), (NodeId((v.0 + 7) % 8), 1.0)],
                },
            );
            t += 2.0;
        }
        e.run_to(t + 1.0);
        // Mid-run: plenty of eager cancellations happened; every one of
        // them is accounted in the dead gauge or already swept — and no
        // epoch-dead timer ever reached its pop time.
        assert_eq!(e.stale_timer_pops(), 0, "epoch-dead timer popped live");
        assert!(
            e.messages_dropped() >= 30 * 8,
            "expected >=240 eagerly reclaimed timers, got {}",
            e.messages_dropped()
        );
        let report = e.run();
        assert!(report.converged);
        assert_eq!(e.stale_timer_pops(), 0);
        assert_eq!(
            e.queue_stats(),
            (0, 0),
            "all residue must drain by quiescence"
        );
    }

    #[test]
    fn rejoin_resets_protocol_state_and_discards_stale_timers() {
        struct Rejoiner {
            fired: u32,
            started: u32,
        }
        impl Protocol for Rejoiner {
            type Message = ();
            fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
                self.started += 1;
                ctx.set_timer(10.0, 1); // will outlive the first incarnation
            }
            fn on_message(&mut self, _f: NodeId, _m: (), _c: &mut Context<'_, ()>) {}
            fn on_timer(&mut self, _t: u64, _ctx: &mut Context<'_, ()>) {
                self.fired += 1;
            }
        }
        let g = generators::line(3);
        let mut e = Engine::new(&g, |_| Rejoiner {
            fired: 0,
            started: 0,
        });
        e.schedule_topology(1.0, TopologyEvent::NodeLeave { node: NodeId(2) });
        e.schedule_topology(
            5.0,
            TopologyEvent::NodeJoin {
                node: NodeId(2),
                links: vec![(NodeId(0), 1.0)],
            },
        );
        let report = e.run();
        assert!(report.converged);
        // Fresh instance: started once in the new life.
        assert_eq!(e.nodes()[2].started, 1);
        // The timer set at t=0 (old incarnation) was discarded; only the one
        // set on rejoin fired.
        assert_eq!(e.nodes()[2].fired, 1);
        assert!(report.messages_dropped >= 1);
        // Mobility: the node re-attached elsewhere.
        assert!(e.graph().has_edge(NodeId(0), NodeId(2)));
        assert!(!e.graph().has_edge(NodeId(1), NodeId(2)));
    }

    #[test]
    fn join_grows_network_with_new_node() {
        let g = generators::line(2);
        let mut e = Engine::new(&g, |_| AdjacencyWatcher::default());
        e.schedule_topology(
            1.0,
            TopologyEvent::NodeJoin {
                node: NodeId(2),
                links: vec![(NodeId(0), 1.0), (NodeId(1), 2.0)],
            },
        );
        let report = e.run();
        assert!(report.converged);
        assert_eq!(e.graph().node_count(), 3);
        assert_eq!(e.active_count(), 3);
        assert_eq!(e.nodes()[2].started, 1);
        assert_eq!(e.nodes()[2].ups, vec![NodeId(0), NodeId(1)]);
        assert_eq!(e.nodes()[0].ups, vec![NodeId(2)]);
        assert_eq!(e.nodes()[1].ups, vec![NodeId(2)]);
    }

    /// Accounting audit: a batched send must record exactly the same
    /// per-message counts and byte sizes in [`MessageStats`] as the same
    /// messages sent one by one — the churn goldens' `msgs/node` lines
    /// depend on it.
    #[test]
    fn batched_sends_record_identical_per_message_stats() {
        struct Sender {
            batched: bool,
        }
        impl Protocol for Sender {
            type Message = u8;
            fn on_start(&mut self, ctx: &mut Context<'_, u8>) {
                if ctx.node_id() != NodeId(0) {
                    return;
                }
                let msgs = vec![(1u8, 10), (2u8, 25), (3u8, 100)];
                if self.batched {
                    ctx.send_batch(NodeId(1), msgs);
                    ctx.flood_sized(9, 7);
                } else {
                    for (m, s) in msgs {
                        ctx.send_sized(NodeId(1), m, s);
                    }
                    for nb in ctx.neighbors() {
                        ctx.send_sized(nb, 9, 7);
                    }
                }
            }
            fn on_message(&mut self, _f: NodeId, _m: u8, _c: &mut Context<'_, u8>) {}
        }
        let g = generators::star(4); // hub 0, leaves 1..3
        let run = |batched| {
            let mut e = Engine::new(&g, move |_| Sender { batched });
            e.run()
        };
        let single = run(false);
        let batch = run(true);
        assert_eq!(single.stats, batch.stats);
        assert_eq!(batch.stats.sent_by(NodeId(0)), 6); // 3 batched + 3 flooded
        assert_eq!(batch.stats.bytes_sent_by(NodeId(0)), 10 + 25 + 100 + 3 * 7);
        assert_eq!(batch.stats.received_by(NodeId(1)), 4);
        assert_eq!(batch.stats.received_by(NodeId(2)), 1);
        assert_eq!(single.messages_delivered, batch.messages_delivered);
        assert_eq!(batch.messages_delivered, 6);
        // The whole point: the batched run needed fewer queue entries.
        assert!(batch.events_processed < single.events_processed);
    }

    /// A flood is grouped once, at send time, by link weight and receiving
    /// shard: one local `DeliverFlood` per weight, one outbox entry per
    /// (weight, other shard), targets in adjacency order, every copy under
    /// the flood's single key.
    #[test]
    fn flood_files_one_event_per_weight_and_receiving_shard() {
        use crate::sharded::Partition;
        use disco_graph::GraphBuilder;
        struct Flooder;
        impl Protocol for Flooder {
            type Message = u32;
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                if ctx.node_id() == NodeId(0) {
                    ctx.broadcast(7);
                }
            }
            fn on_message(&mut self, _f: NodeId, _m: u32, _c: &mut Context<'_, u32>) {}
        }
        // Hub 0 with twelve leaves over two link weights.
        let mut b = GraphBuilder::new(13);
        for leaf in 1..13 {
            let w = if leaf % 2 == 0 { 2.0 } else { 1.0 };
            b.add_edge(NodeId(0), NodeId(leaf), w);
        }
        let g = b.build();
        let hub = g.neighbors(NodeId(0));
        let weights = [1.0, 2.0];
        let partition = (0..)
            .map(|seed| Partition::new(seed, 3))
            .find(|p| {
                weights.iter().all(|&w| {
                    (0..3).all(|s| {
                        hub.iter()
                            .any(|nb| nb.weight == w && p.shard_of(nb.node) == s)
                    })
                })
            })
            .expect("some seed puts leaves of both weights on every shard");
        let me = partition.shard_of(NodeId(0));
        let mut e = Engine::new(&g, |_| Flooder);
        e.bind_shard(partition, me);
        e.start();

        type FloodCopy = (usize, SimTime, u64, NodeId, u32, Vec<(NodeId, EdgeId)>);
        let copy = |shard: usize, time: SimTime, key: u64, kind: EventKind<u32>| -> FloodCopy {
            let EventKind::DeliverFlood {
                from, msg, targets, ..
            } = kind
            else {
                panic!("a flood files only DeliverFlood events");
            };
            (shard, time, key, from, msg, targets.into_vec())
        };
        let mut filed: Vec<FloodCopy> = std::iter::from_fn(|| e.queue.pop())
            .map(|(_, ev)| copy(me, ev.time, ev.key, ev.kind))
            .collect();
        let outbox = e.shard.take().expect("bound above").outbox;
        assert!(outbox[me].is_empty(), "local copies go to the queue");
        for (shard, bucket) in outbox.into_iter().enumerate() {
            filed.extend(
                bucket
                    .into_iter()
                    .map(|(t, k, kind)| copy(shard, t, k, kind)),
            );
        }
        let mut expected: Vec<FloodCopy> = Vec::new();
        for s in 0..3 {
            for &w in &weights {
                let targets = hub
                    .iter()
                    .filter(|nb| nb.weight == w && partition.shard_of(nb.node) == s)
                    .map(|nb| (nb.node, nb.edge))
                    .collect();
                let key = node_event_key(NodeId(0), 1);
                expected.push((s, 0.0 + w + PROCESSING_DELAY, key, NodeId(0), 7, targets));
            }
        }
        filed.sort_by(|a, b| (a.0, a.1).partial_cmp(&(b.0, b.1)).unwrap());
        assert_eq!(filed, expected);
    }

    /// A batch whose link dies while it is on the wire loses *every*
    /// message in it — one drop per message, like singleton deliveries.
    #[test]
    fn in_flight_batch_loss_counts_every_message() {
        use disco_graph::GraphBuilder;
        struct BatchSender;
        impl Protocol for BatchSender {
            type Message = u8;
            fn on_start(&mut self, ctx: &mut Context<'_, u8>) {
                if ctx.node_id() == NodeId(0) {
                    ctx.send_batch(NodeId(1), (0..5).map(|i| (i, 8)).collect());
                }
            }
            fn on_message(&mut self, _f: NodeId, _m: u8, _c: &mut Context<'_, u8>) {
                panic!("batch should have been lost with the link");
            }
        }
        let mut b = GraphBuilder::new(2);
        b.add_edge(NodeId(0), NodeId(1), 10.0); // slow link: batch in flight
        let g = b.build();
        let mut e = Engine::new(&g, |_| BatchSender);
        e.schedule_topology(
            1.0,
            TopologyEvent::LinkDown {
                u: NodeId(0),
                v: NodeId(1),
            },
        );
        let report = e.run();
        assert!(report.converged);
        assert_eq!(report.stats.total_sent(), 5, "sends recorded per message");
        assert_eq!(report.messages_dropped, 5, "losses counted per message");
        assert_eq!(report.messages_delivered, 0);
    }

    #[test]
    fn in_flight_messages_lost_on_link_failure() {
        // Node 0 sends to 1 over a slow link; the link fails while the
        // message is in flight.
        use disco_graph::GraphBuilder;
        let mut b = GraphBuilder::new(2);
        b.add_edge(NodeId(0), NodeId(1), 10.0);
        let g = b.build();

        struct Sender;
        impl Protocol for Sender {
            type Message = ();
            fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
                if ctx.node_id() == NodeId(0) {
                    ctx.send(NodeId(1), ());
                }
            }
            fn on_message(&mut self, _f: NodeId, _m: (), _c: &mut Context<'_, ()>) {
                panic!("message should have been lost with the link");
            }
        }
        let mut e = Engine::new(&g, |_| Sender);
        e.schedule_topology(
            1.0,
            TopologyEvent::LinkDown {
                u: NodeId(0),
                v: NodeId(1),
            },
        );
        let report = e.run();
        assert!(report.converged);
        assert_eq!(report.messages_dropped, 1);
        assert_eq!(report.stats.total_sent(), 1);
        assert_eq!(report.stats.received_by(NodeId(1)), 0);
    }

    #[test]
    fn run_to_advances_clock_between_events() {
        let g = generators::line(2);
        let mut e = Engine::new(&g, |_| AdjacencyWatcher::default());
        e.schedule_topology(
            5.0,
            TopologyEvent::LinkDown {
                u: NodeId(0),
                v: NodeId(1),
            },
        );
        e.run_to(2.0);
        assert!((e.now() - 2.0).abs() < 1e-12);
        assert_eq!(e.graph().edge_count(), 1);
        e.run_to(6.0);
        assert_eq!(e.graph().edge_count(), 0);
        assert!((e.now() - 6.0).abs() < 1e-12);
    }
}
