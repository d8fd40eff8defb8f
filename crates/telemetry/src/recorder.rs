//! The [`Recorder`] trait and its zero-cost [`NoopRecorder`] default.
//!
//! The engine is generic over `R: Recorder` and guards every
//! instrumentation call with `if R::ENABLED { … }`. `ENABLED` is an
//! associated *constant*, so the guard is resolved at monomorphization
//! time: with [`NoopRecorder`] the branch folds away entirely and the hot
//! path compiles to the un-instrumented code — tracing is strictly
//! pay-for-what-you-use.

/// Classification of engine events and protocol messages for the
/// per-class counter registry.
///
/// The *shape* classes ([`MessageClass::Flood`], [`MessageClass::Batch`],
/// [`MessageClass::Deliver`]) describe how the message rode the event
/// queue; the *protocol* classes ([`MessageClass::Withdraw`],
/// [`MessageClass::Refresh`], [`MessageClass::Gossip`]) come from the
/// protocol's own `classify` hook and take precedence — a withdrawal is a
/// withdrawal whether it was flooded or sent in a run. [`MessageClass::Timer`]
/// and [`MessageClass::Topology`] label the non-message engine events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum MessageClass {
    /// Plain point-to-point protocol message (the default class).
    Deliver = 0,
    /// Message delivered through a flood fan-out.
    Flood = 1,
    /// Message delivered as a member of a run of two or more consecutive
    /// sends over one link (a table dump, for one).
    Batch = 2,
    /// Route withdrawal.
    Withdraw = 3,
    /// Route-refresh re-solicitation (forgetful routing).
    Refresh = 4,
    /// Synopsis-diffusion gossip.
    Gossip = 5,
    /// Timer pop.
    Timer = 6,
    /// Topology mutation (churn, link failure/recovery).
    Topology = 7,
    /// Data-plane forwarding-table lookup (served traffic, not a control
    /// message — fed by the `exp_forward` traffic generator, never by the
    /// engine itself). Its sent / delivered / dropped counters count
    /// packets; its [`Recorder::event_done`] stream is **one reading per
    /// timed slice of 16 walks** — that slice's mean nanoseconds per table
    /// probe — not one per probe: the walk loop reads no clock, because
    /// two ≈ 60 ns clock reads around a 17–140 ns probe measure the clock.
    Lookup = 8,
}

impl MessageClass {
    /// Number of classes (array-registry size).
    pub const COUNT: usize = 9;

    /// Every class, in index order.
    pub const ALL: [MessageClass; Self::COUNT] = [
        MessageClass::Deliver,
        MessageClass::Flood,
        MessageClass::Batch,
        MessageClass::Withdraw,
        MessageClass::Refresh,
        MessageClass::Gossip,
        MessageClass::Timer,
        MessageClass::Topology,
        MessageClass::Lookup,
    ];

    /// Registry index of this class.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable lowercase name (used in summaries and trace counter tracks).
    pub fn name(self) -> &'static str {
        match self {
            MessageClass::Deliver => "deliver",
            MessageClass::Flood => "flood",
            MessageClass::Batch => "batch",
            MessageClass::Withdraw => "withdraw",
            MessageClass::Refresh => "refresh",
            MessageClass::Gossip => "gossip",
            MessageClass::Timer => "timer",
            MessageClass::Topology => "topology",
            MessageClass::Lookup => "lookup",
        }
    }

    /// Resolve the effective class of a message: the protocol's own class
    /// wins; a protocol-default [`MessageClass::Deliver`] falls back to the
    /// delivery shape (flood fan-out, batch member, or plain deliver).
    #[inline]
    pub fn shaped(protocol_class: MessageClass, shape: MessageClass) -> MessageClass {
        if protocol_class == MessageClass::Deliver {
            shape
        } else {
            protocol_class
        }
    }
}

/// Named experiment phases for the span recorder (and the timeline's top
/// track).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Phase {
    /// Static construction: topology generation, landmark selection.
    Build = 0,
    /// Initial convergence of the protocol on the static topology.
    Boot = 1,
    /// The churn window (schedule applied, probes running).
    Churn = 2,
    /// Post-churn drain to quiescence.
    Drain = 3,
}

impl Phase {
    /// Number of phases.
    pub const COUNT: usize = 4;

    /// Stable lowercase name (used in spans, summaries, the trace).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Build => "build",
            Phase::Boot => "boot",
            Phase::Churn => "churn",
            Phase::Drain => "drain",
        }
    }
}

/// Structured observer of a simulation run.
///
/// Every method has an empty default body, so recorders implement only
/// what they consume. Times are simulation time unless a parameter says
/// otherwise; node ids are plain `u32` (this crate sits below the graph
/// crate). Implementations must not influence the run — the engine calls
/// them strictly after its own state transitions, and the observer-effect
/// tests assert a [`FullRecorder`](crate::FullRecorder) run reproduces the
/// no-op run byte-for-byte.
pub trait Recorder {
    /// Whether the engine's instrumentation sites are live. `false` folds
    /// every `if R::ENABLED { … }` guard away at compile time.
    const ENABLED: bool = true;

    /// `count` copies of a message of class `class` were sent at `now`,
    /// `bytes` accounted wire bytes in total.
    fn message_sent(&mut self, _now: f64, _class: MessageClass, _count: u64, _bytes: u64) {}

    /// One message was delivered to an `on_message` upcall.
    fn message_delivered(&mut self, _now: f64, _class: MessageClass, _from: u32, _to: u32) {}

    /// `count` messages (or timers) of class `class` were dropped.
    fn message_dropped(&mut self, _now: f64, _class: MessageClass, _count: u64) {}

    /// One engine event (queue pop) of class `class` finished; it took
    /// `wall_nanos` nanoseconds of wall-clock to process. An event that
    /// carries messages of several classes (a batch, or a run of floods
    /// mixing routes and withdrawals) reports once per class it carries,
    /// each with the time of its own messages. (For
    /// [`MessageClass::Lookup`] a reading is a slice mean, see there.)
    fn event_done(&mut self, _class: MessageClass, _wall_nanos: u64) {}

    /// Shard `shard` of a sharded run finished one lookahead window: it
    /// processed `events` events in `work_ns` wall-nanoseconds (the window
    /// itself, detaching its outbox into `wire_out` cross-shard wire
    /// events, and finding its next pending time), after spending
    /// `ingest_ns` filing the `wire_in` wire events other shards sent it
    /// and `wait_ns` blocked on the coordinator since its previous window.
    /// The three add up to the shard's wall-clock bar its `visit` closures,
    /// so an idle shard shows up as `wait`, a costly exchange as `ingest`.
    #[allow(clippy::too_many_arguments)]
    fn window_done(
        &mut self,
        _shard: u32,
        _events: u64,
        _work_ns: u64,
        _ingest_ns: u64,
        _wait_ns: u64,
        _wire_in: u64,
        _wire_out: u64,
    ) {
    }

    /// A topology mutation was applied. `kind` is one of `"join"`,
    /// `"leave"`, `"link_up"`, `"link_down"`; `node` is the (first)
    /// affected node.
    fn topology_changed(&mut self, _now: f64, _kind: &'static str, _node: u32) {}

    /// Node `node`'s route-selection state changed during an upcall (the
    /// protocol's `control_revision` moved) — the signal the repair-latency
    /// probe watches for restabilization.
    fn selection_changed(&mut self, _now: f64, _node: u32) {}

    /// A named experiment phase begins at simulation time `now`.
    fn phase_begin(&mut self, _phase: Phase, _now: f64) {}

    /// The phase ends at simulation time `now`.
    fn phase_end(&mut self, _phase: Phase, _now: f64) {}

    /// The run is over (quiescence or budget); `now` is the final clock.
    /// Closes anything still open (repair windows, spans).
    fn finish(&mut self, _now: f64) {}
}

/// A recorder whose per-shard instances can be merged into one — what a
/// sharded run needs to hand back a single recorder at the end. Every
/// shard observes *all* topology events (replicas replay them) but only
/// its own nodes' message traffic and selection changes, so `absorb`
/// combines counters additively and repair windows by worst-case.
pub trait MergeRecorder: Recorder + Sized {
    /// Fold `other` (a later shard, in shard-id order) into `self`. Both
    /// sides have already received [`Recorder::finish`].
    fn absorb(&mut self, other: Self);
}

/// The default recorder: records nothing, costs nothing. Its
/// `ENABLED = false` makes every engine instrumentation site compile away.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    const ENABLED: bool = false;
}

impl MergeRecorder for NoopRecorder {
    fn absorb(&mut self, _other: Self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_indexes_are_dense_and_named() {
        for (i, c) in MessageClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
            assert!(!c.name().is_empty());
        }
    }

    #[test]
    fn shaped_prefers_protocol_class() {
        use MessageClass::*;
        assert_eq!(MessageClass::shaped(Withdraw, Flood), Withdraw);
        assert_eq!(MessageClass::shaped(Gossip, Batch), Gossip);
        assert_eq!(MessageClass::shaped(Deliver, Flood), Flood);
        assert_eq!(MessageClass::shaped(Deliver, Deliver), Deliver);
    }

    #[test]
    fn noop_is_disabled() {
        const { assert!(!NoopRecorder::ENABLED) };
        // The default bodies must be callable (and do nothing).
        let mut r = NoopRecorder;
        r.message_sent(0.0, MessageClass::Flood, 3, 192);
        r.event_done(MessageClass::Timer, 10);
        r.finish(1.0);
    }
}
