//! The per-upcall handle a protocol uses to interact with the simulated
//! world.

use crate::event::SimTime;
use disco_graph::{Graph, Neighbor, NodeId, Weight};

/// Byte size accounted for a message sent without one
/// ([`Context::send`], [`Context::broadcast`]); protocols that care about
/// byte accounting use [`Context::send_sized`].
pub(crate) const DEFAULT_MSG_SIZE: usize = 64;

/// An outgoing action recorded by a [`Context`] during one upcall; the
/// engine turns these into events after the upcall returns.
///
/// The type is public so protocols can *compose*: an outer protocol can run
/// an embedded sub-protocol in a fresh `Context`, drain its actions with
/// [`Context::drain_actions`], and re-wrap the messages in its own message
/// type (see `disco-core`'s `DiscoProtocol`, which embeds the path-vector
/// protocol this way).
///
/// Sends are *edge-resolved*: the context looks the neighbor up once when
/// the action is recorded and the engine schedules the delivery straight
/// off the resolved [`Neighbor`] handle (node, edge id, link weight) —
/// the engine never re-scans the adjacency list per send. Fan-out has a
/// dedicated shape: [`Action::Flood`] carries the payload once and lets
/// the engine replicate it at the adjacency walk (one refcount bump per
/// edge for interned payloads). The engine files consecutive sends over
/// one edge, and consecutive floods, as one queue entry each: a run, which
/// a receiver absorbs in one `Protocol::on_run` upcall (a table dump is
/// such a run of sends).
#[derive(Debug, Clone)]
pub enum Action<M> {
    /// Send `msg` (accounted as `size_bytes`) to the direct neighbor `to`
    /// (already resolved to its adjacency entry).
    Send {
        /// Receiving neighbor, resolved at send time.
        to: Neighbor,
        /// The message.
        msg: M,
        /// Accounted wire size.
        size_bytes: usize,
    },
    /// Send a copy of `msg` (accounted as `size_bytes` each) to *every*
    /// direct neighbor. The engine performs the adjacency walk itself, in
    /// neighbor order — identical delivery schedule to a manual
    /// clone-and-send loop, without the per-send neighbor lookups.
    Flood {
        /// The message (cloned per neighbor by the engine).
        msg: M,
        /// Accounted wire size per copy.
        size_bytes: usize,
    },
    /// Fire a timer on this node after `delay` with the given token.
    Timer {
        /// Relative delay.
        delay: SimTime,
        /// Caller-chosen token passed back to `on_timer`.
        token: u64,
    },
}

/// Handle passed to every protocol upcall.
///
/// A protocol can only observe its own node id, its direct neighborhood
/// (ids and link weights) and the current simulation time; it can only act
/// by sending messages to direct neighbors and by scheduling timers on
/// itself. This enforces the paper's locality assumption (§4.1: "each node
/// knows its own name and its neighbors' names, but nothing else").
pub struct Context<'a, M> {
    node: NodeId,
    now: SimTime,
    graph: &'a Graph,
    pub(crate) actions: Vec<Action<M>>,
    /// For `on_message` / `on_run` upcalls: the link the message (or run)
    /// arrived over, already resolved by the engine (it validated liveness
    /// at pop time). Lets `link_weight(sender)` and replies skip the
    /// adjacency scan.
    pub(crate) via: Option<Neighbor>,
}

impl<'a, M> Context<'a, M> {
    /// Create a context for `node` at time `now` over `graph`. Mostly used
    /// by the engine, but public so protocols can run embedded
    /// sub-protocols (see [`Action`]).
    pub fn new(node: NodeId, now: SimTime, graph: &'a Graph) -> Self {
        Context::with_buffer(node, now, graph, Vec::new())
    }

    /// Like [`Context::new`], but recording actions into a caller-supplied
    /// (typically recycled) buffer — the zero-allocation upcall path: the
    /// engine and composite protocols keep one scratch `Vec` alive and
    /// round-trip it through every upcall instead of allocating a fresh
    /// action list each time. Reclaim the buffer with
    /// [`Context::into_buffer`].
    pub fn with_buffer(
        node: NodeId,
        now: SimTime,
        graph: &'a Graph,
        buffer: Vec<Action<M>>,
    ) -> Self {
        debug_assert!(buffer.is_empty(), "scratch buffer must start drained");
        Context {
            node,
            now,
            graph,
            actions: buffer,
            via: None,
        }
    }

    /// The resolved link the message being processed arrived over
    /// (`on_message` and `on_run` upcalls only; `None` elsewhere). The
    /// engine validated this link's liveness when it delivered the
    /// message, so within the upcall it is a valid send target.
    pub fn via(&self) -> Option<Neighbor> {
        self.via
    }

    /// Record the arrival link (engine and composite protocols relaying a
    /// delivery into an embedded protocol's context).
    pub fn set_via(&mut self, via: Option<Neighbor>) {
        self.via = via;
    }

    /// Consume the context, returning the action buffer (recorded actions
    /// plus its reusable capacity).
    pub fn into_buffer(self) -> Vec<Action<M>> {
        self.actions
    }

    /// The graph this context operates over (exposed so an outer protocol
    /// can construct a sub-context for an embedded protocol).
    pub fn graph(&self) -> &'a Graph {
        self.graph
    }

    /// Drain the actions recorded so far, in order, keeping the buffer's
    /// capacity (used when relaying an embedded protocol's actions into an
    /// outer protocol's context, possibly several times in one upcall).
    pub fn drain_actions(&mut self) -> std::vec::Drain<'_, Action<M>> {
        self.actions.drain(..)
    }

    /// Id of the node this upcall runs on.
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Ids of this node's direct neighbors.
    pub fn neighbors(&self) -> Vec<NodeId> {
        self.graph
            .neighbors(self.node)
            .iter()
            .map(|nb| nb.node)
            .collect()
    }

    /// Number of direct neighbors.
    pub fn degree(&self) -> usize {
        self.graph.degree(self.node)
    }

    /// Resolve the adjacency entry for direct neighbor `to`, if the link
    /// exists: the handle a protocol can hold for repeated
    /// [`Context::send_resolved`] calls without re-scanning the adjacency
    /// list. O(1) for the arrival link of the message being processed;
    /// one O(degree) lookup otherwise.
    pub fn neighbor(&self, to: NodeId) -> Option<Neighbor> {
        if let Some(via) = self.via {
            if via.node == to {
                return Some(via);
            }
        }
        self.graph
            .neighbors(self.node)
            .iter()
            .find(|nb| nb.node == to)
            .copied()
    }

    /// Weight (latency) of the link to direct neighbor `to`, if it exists.
    /// O(1) for the arrival link of the message being processed.
    pub fn link_weight(&self, to: NodeId) -> Option<Weight> {
        if let Some(via) = self.via {
            if via.node == to {
                return Some(via.weight);
            }
        }
        self.graph.edge_weight(self.node, to)
    }

    /// Resolve `to` or panic with the send-validation message.
    fn resolve(&self, to: NodeId) -> Neighbor {
        self.neighbor(to)
            .unwrap_or_else(|| panic!("{} tried to send to non-neighbor {to}", self.node))
    }

    /// Send `msg` to the direct neighbor `to`, with the default message
    /// size. Panics if `to` is not a neighbor.
    pub fn send(&mut self, to: NodeId, msg: M) {
        let size = DEFAULT_MSG_SIZE;
        self.send_sized(to, msg, size);
    }

    /// Send `msg` to neighbor `to`, accounting `size_bytes` for it. The
    /// neighbor is resolved (validated) here, once; the engine schedules
    /// the delivery straight off the resolved edge.
    pub fn send_sized(&mut self, to: NodeId, msg: M, size_bytes: usize) {
        let to = self.resolve(to);
        self.actions.push(Action::Send {
            to,
            msg,
            size_bytes,
        });
    }

    /// Send `msg` to an already-resolved neighbor (obtained from
    /// [`Context::neighbor`], or relayed from an embedded protocol's
    /// [`Action::Send`] over the same graph snapshot), skipping the
    /// per-send adjacency scan.
    pub fn send_resolved(&mut self, to: Neighbor, msg: M, size_bytes: usize) {
        debug_assert_eq!(
            self.graph.find_edge(self.node, to.node),
            Some(to.edge),
            "stale neighbor handle"
        );
        self.actions.push(Action::Send {
            to,
            msg,
            size_bytes,
        });
    }

    /// Send a copy of `msg` (accounted as `size_bytes` each) to every
    /// direct neighbor, as one [`Action::Flood`]: the engine walks the
    /// adjacency list once and replicates at the fan-out point. Identical
    /// delivery schedule and statistics to a manual
    /// clone-per-neighbor loop.
    pub fn flood_sized(&mut self, msg: M, size_bytes: usize) {
        self.actions.push(Action::Flood { msg, size_bytes });
    }

    /// Send a clone of `msg` to every direct neighbor (default message
    /// size).
    pub fn broadcast(&mut self, msg: M)
    where
        M: Clone,
    {
        let size = DEFAULT_MSG_SIZE;
        self.flood_sized(msg, size);
    }

    /// Schedule a timer to fire on this node after `delay` time units; the
    /// protocol's `on_timer` will be invoked with `token`.
    pub fn set_timer(&mut self, delay: SimTime, token: u64) {
        assert!(delay >= 0.0, "timer delay must be non-negative");
        self.actions.push(Action::Timer { delay, token });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disco_graph::generators;

    #[test]
    fn context_exposes_neighborhood() {
        let g = generators::ring(5);
        let ctx: Context<'_, ()> = Context::new(NodeId(0), 1.5, &g);
        assert_eq!(ctx.node_id(), NodeId(0));
        assert_eq!(ctx.now(), 1.5);
        assert_eq!(ctx.degree(), 2);
        let mut nbrs = ctx.neighbors();
        nbrs.sort();
        assert_eq!(nbrs, vec![NodeId(1), NodeId(4)]);
        assert_eq!(ctx.link_weight(NodeId(1)), Some(1.0));
        assert_eq!(ctx.link_weight(NodeId(2)), None);
    }

    #[test]
    fn neighbor_resolves_adjacency_entries() {
        let g = generators::ring(5);
        let ctx: Context<'_, ()> = Context::new(NodeId(0), 0.0, &g);
        let nb = ctx.neighbor(NodeId(1)).expect("direct neighbor");
        assert_eq!(nb.node, NodeId(1));
        assert_eq!(nb.weight, 1.0);
        assert_eq!(g.find_edge(NodeId(0), NodeId(1)), Some(nb.edge));
        assert!(ctx.neighbor(NodeId(2)).is_none());
    }

    #[test]
    #[should_panic]
    fn send_to_non_neighbor_panics() {
        let g = generators::ring(5);
        let mut ctx: Context<'_, u8> = Context::new(NodeId(0), 0.0, &g);
        ctx.send(NodeId(2), 7);
    }

    #[test]
    fn sends_are_edge_resolved_at_record_time() {
        let g = generators::star(4);
        let mut ctx: Context<'_, u8> = Context::new(NodeId(0), 0.0, &g);
        ctx.send(NodeId(2), 9);
        match &ctx.actions[0] {
            Action::Send { to, msg, .. } => {
                assert_eq!(to.node, NodeId(2));
                assert_eq!(g.find_edge(NodeId(0), NodeId(2)), Some(to.edge));
                assert_eq!(*msg, 9);
            }
            other => panic!("expected resolved send, got {other:?}"),
        }
    }

    #[test]
    fn broadcast_records_one_flood_action() {
        let g = generators::star(6);
        let mut ctx: Context<'_, u8> = Context::new(NodeId(0), 0.0, &g);
        ctx.broadcast(9);
        assert_eq!(ctx.actions.len(), 1);
        assert!(matches!(
            ctx.actions[0],
            Action::Flood {
                msg: 9,
                size_bytes: 64
            }
        ));
    }

    #[test]
    fn buffer_round_trips_through_context() {
        let g = generators::star(3);
        let mut buf: Vec<Action<u8>> = Vec::with_capacity(16);
        let cap = buf.capacity();
        let mut ctx = Context::with_buffer(NodeId(0), 0.0, &g, std::mem::take(&mut buf));
        ctx.send(NodeId(1), 5);
        let mut back = ctx.into_buffer();
        assert_eq!(back.len(), 1);
        back.clear();
        assert!(back.capacity() >= cap, "capacity must survive the trip");
    }
}
