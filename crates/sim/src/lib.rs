//! # disco-sim
//!
//! A small, deterministic discrete-event simulation engine.
//!
//! The Disco paper evaluates its protocols with two simulators (§5.1): a
//! *custom discrete event simulator* that runs the actual distributed
//! message exchange (used for convergence/messaging results, Fig. 8), and a
//! *static simulator* that directly computes the post-convergence state
//! (used for state/stretch/congestion on large topologies). This crate is
//! the former; the static simulator lives in `disco-core::static_state` and
//! the baselines crate.
//!
//! ## Model
//!
//! * The network is an undirected weighted [`disco_graph::Graph`]; the edge
//!   weight doubles as the link propagation delay.
//! * Each node runs a [`Protocol`] instance. The engine delivers three kinds
//!   of upcalls: [`Protocol::on_start`] once at time 0, [`Protocol::on_message`]
//!   for every received message — or [`Protocol::on_run`], borrowed, for a
//!   run of messages that arrive together — and [`Protocol::on_timer`] for
//!   timers the node set itself.
//! * Nodes interact with the world only through the [`Context`] handed to
//!   each upcall: sending messages to direct neighbors, scheduling timers,
//!   and reading their own id / adjacency. This mirrors the paper's
//!   assumption that a node initially knows only itself and its neighbors.
//! * Events with equal timestamps are delivered in the order they were
//!   scheduled, so a run is a pure function of (graph, protocol, seed).
//!
//! The engine counts every message and its size, which is exactly the
//! measurement reported in the paper's Fig. 8 ("mean messages per node sent
//! until convergence"). Convergence is detected as quiescence: the event
//! queue containing no more message or timer events.
//!
//! ```
//! use disco_graph::{generators, NodeId};
//! use disco_sim::{Engine, Context, Protocol};
//!
//! /// A toy flooding protocol: node 0 floods a token, everyone re-floods once.
//! struct Flood { seen: bool }
//!
//! impl Protocol for Flood {
//!     type Message = ();
//!     fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
//!         if ctx.node_id() == NodeId(0) {
//!             self.seen = true;
//!             ctx.broadcast(());
//!         }
//!     }
//!     fn on_message(&mut self, _from: NodeId, _msg: (), ctx: &mut Context<'_, ()>) {
//!         if !self.seen {
//!             self.seen = true;
//!             ctx.broadcast(());
//!         }
//!     }
//! }
//!
//! let g = generators::ring(16);
//! let mut engine = Engine::new(&g, |_id| Flood { seen: false });
//! let report = engine.run();
//! assert!(report.converged);
//! assert!(engine.nodes().iter().all(|n| n.seen));
//! ```

pub mod context;
pub mod engine;
pub mod event;
pub mod rng;
pub mod sharded;
pub mod stats;

pub use context::Context;
pub use engine::{Engine, RunReport};
pub use event::{BinaryHeapQueue, EventQueue, SimTime, TimerWheel, TopologyEvent};
pub use rng::seed_for;
pub use sharded::{Partition, ShardEngine, ShardProtocol, ShardedEngine, ShardedRunSummary};
pub use stats::MessageStats;

// Re-exported so protocol crates and bench harnesses can implement
// classification and pick recorders without depending on disco-telemetry
// directly.
pub use disco_telemetry::{MergeRecorder, MessageClass, NoopRecorder, Phase, Recorder};

use disco_graph::NodeId;

/// A protocol instance running on a single node of the simulated network.
///
/// Implementations hold all per-node protocol state (routing tables,
/// pending queries, overlay links, …). The engine owns one instance per
/// node and routes upcalls to it.
pub trait Protocol {
    /// The message type exchanged between nodes. Messages are delivered
    /// reliably and in per-link FIFO order after the link's propagation
    /// delay.
    type Message: Clone;

    /// Called once for every node at simulation time 0.
    fn on_start(&mut self, _ctx: &mut Context<'_, Self::Message>) {}

    /// Called when a message from direct neighbor `from` arrives.
    fn on_message(
        &mut self,
        from: NodeId,
        msg: Self::Message,
        ctx: &mut Context<'_, Self::Message>,
    );

    /// Called when a run of messages from direct neighbor `from` arrives
    /// together: the consecutive sends over one link, or the consecutive
    /// floods, that the sender recorded in one upcall, each
    /// `(message, accounted size)` in send order. A lone sent message
    /// arrives through [`Protocol::on_message`] instead; a lone flood is a
    /// run of one. The engine hands each
    /// receiver its whole run in one upcall, borrowed, so a protocol that
    /// reads messages in place pays no clone per (receiver, message).
    ///
    /// Contract: the outcome must equal [`Protocol::on_message`] called
    /// for every message in order within one context — the default does
    /// exactly that, cloning each message — and the actions recorded must
    /// come in the order those calls would have recorded them. Liveness is
    /// checked once per (receiver, run): no upcall changes the topology,
    /// so a run whose link died in flight is lost whole and a live one is
    /// delivered whole. Every message is still counted received on its
    /// own. Under an enabled [`Recorder`] the engine hands the run over in
    /// maximal stretches of one [`MessageClass`], one upcall each, so its
    /// per-class busy time stays exact.
    #[inline]
    fn on_run(
        &mut self,
        from: NodeId,
        run: &[(Self::Message, usize)],
        ctx: &mut Context<'_, Self::Message>,
    ) {
        for (msg, _) in run {
            self.on_message(from, msg.clone(), ctx);
        }
    }

    /// Called when a timer previously scheduled through
    /// [`Context::set_timer`] fires. `token` is the caller-chosen value.
    fn on_timer(&mut self, _token: u64, _ctx: &mut Context<'_, Self::Message>) {}

    /// Called when a link to `peer` comes up: a new link, a recovered link,
    /// or a (re)joining neighbor. The context already reflects the new
    /// adjacency. Default: ignore (static protocols need no change).
    fn on_neighbor_up(&mut self, _peer: NodeId, _ctx: &mut Context<'_, Self::Message>) {}

    /// Called when the link to `peer` goes down — link failure or the
    /// neighbor leaving the network (the two are indistinguishable locally,
    /// as in a real fail-stop network). The context already reflects the
    /// reduced adjacency. Default: ignore.
    fn on_neighbor_down(&mut self, _peer: NodeId, _ctx: &mut Context<'_, Self::Message>) {}

    /// Classify a message for telemetry. Only consulted when the engine
    /// runs with an enabled [`Recorder`]; the default lumps everything into
    /// [`MessageClass::Deliver`]. Protocols override this to split
    /// withdrawals, refreshes and gossip out of the bulk route traffic.
    fn classify(_msg: &Self::Message) -> MessageClass
    where
        Self: Sized,
    {
        MessageClass::Deliver
    }

    /// A revision counter the engine samples around each upcall to detect
    /// route-selection changes (feeding the repair-latency probe). Bump it
    /// whenever the node's selected next hops change; leave the default
    /// (constant 0) to opt out.
    fn control_revision(&self) -> u64 {
        0
    }
}
