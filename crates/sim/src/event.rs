//! Events and event queues of the discrete-event engine.
//!
//! The engine schedules events through the [`EventQueue`] trait. Two
//! implementations exist:
//!
//! * [`TimerWheel`] — the default: a calendar-queue / timer-wheel hybrid
//!   whose push/pop cost is independent of queue size (O(1) push for any
//!   event later than the tick being drained, one sort per drained tick),
//!   with O(1) cancellation of pending events (used to reclaim the timers
//!   of departed nodes eagerly instead of letting them sit in the queue
//!   until popped).
//! * [`BinaryHeapQueue`] — the original `BinaryHeap` scheduler, kept as the
//!   reference implementation: the wheel's pop order is defined as *exactly*
//!   this queue's `(time, key, seq)` order, which the property tests in
//!   `disco-sim` verify on random event streams.
//!
//! Both queues order events by `(time, key, seq)`: the caller-supplied
//! *logical key* breaks timestamp ties, and the insertion sequence number
//! is only the final tie-break. The engine derives keys from the event's
//! logical origin — `(source node, per-source action counter)` for
//! protocol actions, a world counter for externally scheduled events — so
//! the pop order is a pure function of the simulated causality and does
//! **not** depend on the order pushes were interleaved. That is what lets
//! the sharded engine run one queue per shard and still reproduce the
//! single-queue schedule byte-for-byte for any shard count.

use disco_graph::{EdgeId, NodeId, Weight};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap, HashSet};

/// Simulation time, in the same unit as link weights (the paper uses
/// latencies; for unweighted graphs a hop costs 1.0).
pub type SimTime = f64;

/// A runtime change to the simulated topology (churn, failures, mobility).
///
/// Topology events are scheduled like any other event (through
/// [`crate::Engine::schedule_topology`] or a `disco-dynamics` schedule) and
/// applied by the engine when their timestamp fires: the engine mutates its
/// graph, then notifies the affected protocol instances through
/// [`crate::Protocol::on_neighbor_up`] / [`crate::Protocol::on_neighbor_down`].
#[derive(Debug, Clone, PartialEq)]
pub enum TopologyEvent {
    /// `node` (re)joins the network, attaching to the given neighbors.
    /// Joining a brand-new id grows the graph; rejoining a departed id
    /// resets that node's protocol state to a fresh instance. Links whose
    /// peer is absent at fire time are skipped.
    NodeJoin {
        /// The joining node.
        node: NodeId,
        /// Attachment links `(peer, weight)`.
        links: Vec<(NodeId, Weight)>,
    },
    /// `node` leaves abruptly (fail-stop): all its links drop and its
    /// pending timers and in-flight messages are discarded. Neighbors
    /// observe the loss; the departed node itself gets no upcall.
    NodeLeave {
        /// The departing node.
        node: NodeId,
    },
    /// A link between two present nodes comes up (new or recovered).
    LinkUp {
        /// One endpoint.
        u: NodeId,
        /// The other endpoint.
        v: NodeId,
        /// Link weight (propagation delay).
        weight: Weight,
    },
    /// The link `{u, v}` fails. Messages already in flight on it are lost.
    LinkDown {
        /// One endpoint.
        u: NodeId,
        /// The other endpoint.
        v: NodeId,
    },
}

/// What happens when an event fires.
#[derive(Debug, Clone)]
pub enum EventKind<M> {
    /// Deliver a run of messages to `to`, sent by `from` over the link that
    /// was `edge` at send time — the in-queue form of the consecutive sends
    /// to one neighbor that one upcall recorded (a lone send is a run of
    /// one), filed under the run's first key. Edge ids are retired on
    /// removal and freshly minted on (re-)insertion, so an id mismatch at
    /// delivery time means the link the run was riding failed while it was
    /// in flight — even if a link between the same endpoints has since come
    /// back — and every message in it counts as dropped.
    Deliver {
        from: NodeId,
        to: NodeId,
        edge: EdgeId,
        /// The messages with their accounted wire sizes, captured at send
        /// time so delivery can credit the receiver's byte counters.
        run: Run<M>,
    },
    /// Deliver a run of floods from `from` to *every* listed target over
    /// the edges captured at send time, as **one** queue entry — the
    /// in-queue form of the consecutive floods one upcall sent. The engine
    /// files one such entry per flood group (distinct link weight, so one
    /// arrival instant, and receiving shard) under the run's first key,
    /// and pops it receiver-major: each target in adjacency order gets
    /// every message in send order, the whole run borrowed in one
    /// `Protocol::on_run` upcall. The floods would have popped
    /// back-to-back (consecutive keys at one timestamp), and only the
    /// order in which each receiver sees its messages is observable, so
    /// this reproduces the per-flood schedule (save that a receiver's
    /// zero-delay timer fires after the event, not between two of its
    /// messages); liveness is checked per target at pop time — no upcall
    /// changes the topology, so that equals a check per message — and
    /// every message is counted, delivered or lost, on its own.
    DeliverFlood {
        from: NodeId,
        /// The run's messages with their accounted wire size per copy, in
        /// send order.
        run: Run<M>,
        /// `(receiver, edge at send time)`, in adjacency order at send
        /// time — the sender's flood group, shared by every flood it
        /// sends until its adjacency changes.
        targets: std::sync::Arc<[(NodeId, EdgeId)]>,
    },
    /// Fire a timer at `node` with the caller-chosen `token`. `epoch` is the
    /// node's incarnation when the timer was set; timers from a previous
    /// incarnation (before a leave/rejoin) are discarded on delivery.
    Timer {
        node: NodeId,
        token: u64,
        epoch: u32,
    },
    /// Apply a topology mutation.
    Topology(TopologyEvent),
}

impl<M> EventKind<M> {
    /// The same event with every message mapped through `f`, in order —
    /// how a cross-shard event changes hands: `P::to_wire` on the sending
    /// shard, `P::from_wire` on the receiving one.
    pub(crate) fn map_msg<N>(self, f: impl FnMut(M) -> N) -> EventKind<N> {
        match self {
            EventKind::Deliver {
                from,
                to,
                edge,
                run,
            } => EventKind::Deliver {
                from,
                to,
                edge,
                run: run.map(f),
            },
            EventKind::DeliverFlood { from, run, targets } => EventKind::DeliverFlood {
                from,
                run: run.map(f),
                targets,
            },
            EventKind::Timer { node, token, epoch } => EventKind::Timer { node, token, epoch },
            EventKind::Topology(ev) => EventKind::Topology(ev),
        }
    }
}

/// The messages of one [`EventKind::Deliver`] or
/// [`EventKind::DeliverFlood`], each with its accounted wire size: a lone
/// message inline, so it allocates nothing, and a run of several in one
/// exact-size buffer.
#[derive(Debug, Clone)]
pub enum Run<M> {
    /// A run of one message.
    One((M, usize)),
    /// A run of two or more messages, in send order.
    Many(Box<[(M, usize)]>),
}

impl<M> Run<M> {
    /// The run's `(message, size)` pairs, in send order.
    #[inline]
    pub fn as_slice(&self) -> &[(M, usize)] {
        match self {
            Run::One(one) => std::slice::from_ref(one),
            Run::Many(msgs) => msgs,
        }
    }

    /// The same run with every message mapped through `f`, in order.
    fn map<N>(self, mut f: impl FnMut(M) -> N) -> Run<N> {
        match self {
            Run::One((m, s)) => Run::One((f(m), s)),
            Run::Many(msgs) => Run::Many(
                msgs.into_vec()
                    .into_iter()
                    .map(|(m, s)| (f(m), s))
                    .collect(),
            ),
        }
    }
}

/// An event scheduled to fire at `time`. Equal timestamps are ordered by
/// the logical `key` the scheduler supplied at push time; the insertion
/// sequence number makes ordering total when both coincide (which the
/// engine's key scheme never produces for distinct events).
#[derive(Debug, Clone)]
pub struct Event<M> {
    pub time: SimTime,
    pub key: u64,
    pub seq: u64,
    pub kind: EventKind<M>,
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.key == other.key && self.seq == other.seq
    }
}
impl<M> Eq for Event<M> {}

impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; we want the earliest (time, key, seq)
        // first.
        other
            .time
            .partial_cmp(&self.time)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.key.cmp(&self.key))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic priority queue of simulation events.
///
/// Implementations must pop events in strict `(time, key, seq)` order,
/// where `key` is the caller-supplied logical key and `seq` the push
/// sequence number — i.e. key order for equal timestamps, FIFO only as the
/// final tie-break. `peek_time` takes `&mut self` so implementations can
/// discard cancelled residue and cache the answer; it must not change what
/// a later `push` costs (the sharded engine peeks at every window barrier
/// and then ingests the other shards' arrivals).
pub trait EventQueue<M> {
    /// Handle to a pending event, usable for O(1) cancellation. Handles are
    /// generation-checked: a handle to an event that already fired (or was
    /// cancelled) is stale and `cancel` returns `false` for it.
    type Id: Copy + Eq + std::fmt::Debug;

    /// Schedule `kind` to fire at absolute time `time` under the logical
    /// key `key`; returns the cancellation handle.
    fn push(&mut self, time: SimTime, key: u64, kind: EventKind<M>) -> Self::Id;

    /// Schedule a batch of `(time, key, kind)` events, as if each had been
    /// [`EventQueue::push`]ed in iteration order. The handles are dropped,
    /// so this is for events nobody cancels (cross-shard arrivals).
    fn extend(&mut self, events: impl Iterator<Item = (SimTime, u64, EventKind<M>)>) {
        for (time, key, kind) in events {
            let _ = self.push(time, key, kind);
        }
    }

    /// Cancel a pending event, dropping its payload immediately. Returns
    /// `true` if the event was still pending (and is now reclaimed), `false`
    /// if the handle was stale. O(1).
    fn cancel(&mut self, id: Self::Id) -> bool;

    /// Pop the earliest pending event together with its (now spent) handle.
    fn pop(&mut self) -> Option<(Self::Id, Event<M>)>;

    /// Timestamp of the earliest pending event, if any.
    fn peek_time(&mut self) -> Option<SimTime>;

    /// Number of pending (live, non-cancelled) events.
    fn len(&self) -> usize;

    /// Whether there are no pending events.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bookkeeping residue left behind by cancellations: slots still
    /// referenced from internal structures whose payload has already been
    /// reclaimed. The timer wheel skips these lazily; the count exists so
    /// tests can verify cancelled events do not accumulate as live state.
    fn dead_refs(&self) -> usize {
        0
    }
}

// ---------------------------------------------------------------------------
// BinaryHeapQueue — the original heap scheduler (reference implementation)
// ---------------------------------------------------------------------------

/// The original `BinaryHeap`-backed queue. O(log n) push/pop; cancellation
/// is a tombstone (the payload stays queued until popped), which is exactly
/// the lazy-reclamation behavior the timer wheel was introduced to fix.
/// No driver runs on it any more: it is kept as the reference model the
/// wheel's pop order is defined against — `tests/queue_equivalence.rs`
/// drives both through random event streams and requires identical pops.
#[derive(Debug)]
pub struct BinaryHeapQueue<M> {
    heap: BinaryHeap<Event<M>>,
    /// Seqs currently queued and not cancelled.
    pending: HashSet<u64>,
    next_seq: u64,
}

impl<M> Default for BinaryHeapQueue<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> BinaryHeapQueue<M> {
    /// An empty queue.
    pub fn new() -> Self {
        BinaryHeapQueue {
            heap: BinaryHeap::new(),
            pending: HashSet::new(),
            next_seq: 0,
        }
    }
}

impl<M> EventQueue<M> for BinaryHeapQueue<M> {
    type Id = u64;

    fn push(&mut self, time: SimTime, key: u64, kind: EventKind<M>) -> u64 {
        debug_assert!(time.is_finite() && time >= 0.0, "bad event time {time}");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Event {
            time,
            key,
            seq,
            kind,
        });
        self.pending.insert(seq);
        seq
    }

    fn cancel(&mut self, id: u64) -> bool {
        // The payload cannot be extracted from the middle of a heap; unmark
        // the seq and skip the husk on pop (lazy reclamation — exactly the
        // leak the timer wheel fixes).
        self.pending.remove(&id)
    }

    fn pop(&mut self) -> Option<(u64, Event<M>)> {
        while let Some(ev) = self.heap.pop() {
            if !self.pending.remove(&ev.seq) {
                continue; // cancelled husk
            }
            return Some((ev.seq, ev));
        }
        None
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(ev) = self.heap.peek() {
            if !self.pending.contains(&ev.seq) {
                self.heap.pop();
                continue;
            }
            return Some(ev.time);
        }
        None
    }

    fn len(&self) -> usize {
        self.pending.len()
    }

    fn dead_refs(&self) -> usize {
        self.heap.len() - self.pending.len()
    }
}

// ---------------------------------------------------------------------------
// TimerWheel — the default calendar-queue scheduler
// ---------------------------------------------------------------------------

/// Ticks per simulation time unit. A power of two, so `time * TICK_RATE` is
/// an exact float scaling and tick extraction preserves time ordering.
const TICK_RATE: f64 = 64.0;
/// Buckets in the wheel window (must be a power of two). At 64 ticks per
/// unit this spans 128 simulated time units — enough for every delay the
/// protocols schedule; rarer far-future events go to the sorted overflow.
const WHEEL_SLOTS: usize = 8192;
const WORDS: usize = WHEEL_SLOTS / 64;

/// Generation-checked handle to a cancellable wheel event. Events that the
/// engine never cancels (message deliveries, topology mutations) are stored
/// inline in the wheel's buckets and get the sentinel (non-cancellable)
/// handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WheelId {
    slot: u32,
    gen: u32,
}

impl WheelId {
    const NONE: WheelId = WheelId {
        slot: u32::MAX,
        gen: u32::MAX,
    };
}

/// Slab cell holding a cancellable event's payload out-of-line.
#[derive(Debug)]
struct Slab<M> {
    gen: u32,
    kind: Option<EventKind<M>>,
}

#[derive(Debug)]
enum Payload<M> {
    /// Payload stored inline (not cancellable).
    Inline(EventKind<M>),
    /// Payload parked in the slab under a generation-checked slot
    /// (cancellable: timers).
    Parked(WheelId),
}

/// One queued event as stored in a bucket.
#[derive(Debug)]
struct Entry<M> {
    time: SimTime,
    key: u64,
    seq: u64,
    payload: Payload<M>,
}

impl<M> Entry<M> {
    #[inline]
    fn sort_key(&self) -> (SimTime, u64, u64) {
        (self.time, self.key, self.seq)
    }
}

/// A calendar-queue timer wheel: a window of `WHEEL_SLOTS` one-tick buckets
/// starting at `base_tick`, a sorted overflow map for events beyond the
/// window, and the bucket currently being drained, sorted once on drain.
///
/// * `push` is O(1) for every event later than the tick being drained: an
///   append to the target bucket (or an overflow insert, rare — the window
///   spans 128 simulated time units). An event landing *on* the tick being
///   drained must be placed into the sorted `current` buffer: a single
///   `push` pays a binary search plus an O(k) shift there (`k` = events
///   left in that tick), [`EventQueue::extend`] pays one sort-merge for the
///   whole batch.
/// * `pop` is amortized O(log k) with `k` = events in the popped event's
///   tick (the once-per-bucket sort), plus an amortized-O(1) bitmap scan to
///   find the next occupied bucket. Unlike a binary heap, cost never grows
///   with *total* queue size — the property that makes million-node churn
///   runs feasible.
/// * `peek_time` never drains: with `current` empty it scans the next
///   occupied bucket for its earliest live event and caches the answer, so
///   the buckets (and `active_tick`) stay where the last pop left them and
///   pushes that follow a peek still take the O(1) append.
/// * `cancel` is O(1): cancellable events (timers) park their payload in a
///   slab; cancelling drops the payload and bumps the slot generation, and
///   the residual 24-byte bucket entry is skipped (and counted down) when
///   its tick drains.
///
/// Pop order is exactly [`BinaryHeapQueue`]'s `(time, key, seq)` order: ticks
/// a monotone function of time, and each drained bucket is sorted by the
/// full `(time, key, seq)` key before its events are released.
#[derive(Debug)]
pub struct TimerWheel<M> {
    slab: Vec<Slab<M>>,
    free: Vec<u32>,
    /// Live (pending, non-cancelled) events.
    live: usize,
    /// Cancelled-but-still-referenced bucket entries.
    dead: usize,
    next_seq: u64,
    /// Wheel window: bucket `i` holds events of tick `base_tick + i`.
    buckets: Vec<Vec<Entry<M>>>,
    /// Occupancy bitmap over `buckets` (bit set ⇔ bucket non-empty).
    occ: [u64; WORDS],
    base_tick: u64,
    /// Frontier offset into the window: buckets `< cursor` are drained.
    cursor: usize,
    /// The tick currently being drained (`u64::MAX` before the first pop).
    /// New pushes landing on this tick merge into `current` so a tick is
    /// never split between the drained buffer and its bucket.
    active_tick: u64,
    /// Events of `active_tick`, sorted by `(time, key, seq)` DESCENDING so pops
    /// come off the tail in O(1).
    current: Vec<Entry<M>>,
    /// Events beyond the window, keyed by tick.
    overflow: BTreeMap<u64, Vec<Entry<M>>>,
    /// `(tick, time)` of the earliest live event outside `current`, when
    /// known: filled by a `peek_time` that found `current` empty, kept
    /// exact by pushes, forgotten when a bucket drains or a cancel may have
    /// removed the event it names.
    next_min: Option<(u64, SimTime)>,
    /// Pushes that paid the O(k) sorted insert into `current`.
    #[cfg(test)]
    sorted_inserts: usize,
}

fn tick_of(time: SimTime) -> u64 {
    debug_assert!(time >= 0.0 && time.is_finite(), "bad event time {time}");
    (time * TICK_RATE) as u64
}

impl<M> Default for TimerWheel<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> TimerWheel<M> {
    /// An empty wheel positioned at time 0.
    pub fn new() -> Self {
        TimerWheel {
            slab: Vec::new(),
            free: Vec::new(),
            live: 0,
            dead: 0,
            next_seq: 0,
            buckets: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            occ: [0; WORDS],
            base_tick: 0,
            cursor: 0,
            active_tick: u64::MAX,
            current: Vec::new(),
            overflow: BTreeMap::new(),
            next_min: None,
            #[cfg(test)]
            sorted_inserts: 0,
        }
    }

    fn park(&mut self, kind: EventKind<M>) -> WheelId {
        if let Some(slot) = self.free.pop() {
            let s = &mut self.slab[slot as usize];
            debug_assert!(s.kind.is_none());
            s.kind = Some(kind);
            WheelId { slot, gen: s.gen }
        } else {
            let slot = self.slab.len() as u32;
            self.slab.push(Slab {
                gen: 0,
                kind: Some(kind),
            });
            WheelId { slot, gen: 0 }
        }
    }

    /// Resolve an entry's payload, retiring its slab slot if parked.
    /// Returns `None` for the residue of a cancelled event.
    fn unpark(&mut self, e: Entry<M>) -> Option<(WheelId, Event<M>)> {
        let (id, kind) = match e.payload {
            Payload::Inline(kind) => (WheelId::NONE, kind),
            Payload::Parked(id) => {
                let s = &mut self.slab[id.slot as usize];
                if s.gen != id.gen || s.kind.is_none() {
                    self.dead -= 1;
                    return None;
                }
                let kind = s.kind.take().expect("checked above");
                s.gen = s.gen.wrapping_add(1);
                self.free.push(id.slot);
                (id, kind)
            }
        };
        self.live -= 1;
        Some((
            id,
            Event {
                time: e.time,
                key: e.key,
                seq: e.seq,
                kind,
            },
        ))
    }

    /// Whether an entry still carries a live payload.
    fn entry_live(&self, e: &Entry<M>) -> bool {
        match &e.payload {
            Payload::Inline(_) => true,
            Payload::Parked(id) => {
                let s = &self.slab[id.slot as usize];
                s.gen == id.gen && s.kind.is_some()
            }
        }
    }

    fn set_occ(&mut self, idx: usize) {
        self.occ[idx / 64] |= 1u64 << (idx % 64);
    }

    fn clear_occ(&mut self, idx: usize) {
        self.occ[idx / 64] &= !(1u64 << (idx % 64));
    }

    /// Index of the first occupied bucket at or after `from`, if any.
    fn next_occupied(&self, from: usize) -> Option<usize> {
        if from >= WHEEL_SLOTS {
            return None;
        }
        let mut w = from / 64;
        let mut word = self.occ[w] & (!0u64 << (from % 64));
        loop {
            if word != 0 {
                return Some(w * 64 + word.trailing_zeros() as usize);
            }
            w += 1;
            if w >= WORDS {
                return None;
            }
            word = self.occ[w];
        }
    }

    /// Whether `tick` belongs in the sorted `current` buffer: it is the
    /// tick being drained (or earlier), which always pops before any bucket.
    fn in_current(&self, tick: u64) -> bool {
        self.active_tick != u64::MAX && tick <= self.active_tick
    }

    /// Append an entry later than the tick being drained to its window
    /// bucket or the overflow, keeping the cached peek exact.
    fn file_ahead(&mut self, tick: u64, entry: Entry<M>) {
        debug_assert!(!self.in_current(tick) && tick >= self.base_tick);
        if let Some((peeked, min)) = &mut self.next_min {
            if tick < *peeked || (tick == *peeked && entry.time < *min) {
                (*peeked, *min) = (tick, entry.time);
            }
        }
        if tick < self.base_tick + WHEEL_SLOTS as u64 {
            let idx = (tick - self.base_tick) as usize;
            self.buckets[idx].push(entry);
            self.set_occ(idx);
        } else {
            self.overflow.entry(tick).or_default().push(entry);
        }
    }

    /// Build the bucket entry of a new event, parking cancellable payloads.
    fn make_entry(&mut self, time: SimTime, key: u64, kind: EventKind<M>) -> (WheelId, Entry<M>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        // Only timers are cancellable (the engine reclaims them when their
        // node departs); everything else keeps its payload inline.
        let (id, payload) = if matches!(kind, EventKind::Timer { .. }) {
            let id = self.park(kind);
            (id, Payload::Parked(id))
        } else {
            (WheelId::NONE, Payload::Inline(kind))
        };
        self.live += 1;
        let entry = Entry {
            time,
            key,
            seq,
            payload,
        };
        (id, entry)
    }

    /// `(tick, time)` of the earliest live event in the buckets or the
    /// overflow. Reads only: a bucket holding nothing but cancelled residue
    /// is skipped here and reclaimed when it drains.
    fn scan_next_min(&self) -> Option<(u64, SimTime)> {
        let earliest = |entries: &[Entry<M>]| {
            entries
                .iter()
                .filter(|e| self.entry_live(e))
                .map(|e| e.time)
                .reduce(SimTime::min)
        };
        let mut from = self.cursor;
        while let Some(idx) = self.next_occupied(from) {
            if let Some(t) = earliest(&self.buckets[idx]) {
                return Some((self.base_tick + idx as u64, t));
            }
            from = idx + 1;
        }
        self.overflow
            .iter()
            .find_map(|(&tick, entries)| earliest(entries).map(|t| (tick, t)))
    }

    /// Move the next occupied bucket's events into `current`, advancing the
    /// window (and rebasing onto the overflow) as needed. Returns false if
    /// no pending events remain anywhere.
    fn refill_current(&mut self) -> bool {
        debug_assert!(self.current.is_empty());
        loop {
            if let Some(idx) = self.next_occupied(self.cursor) {
                self.drain_bucket(idx);
                return true;
            }
            // Window exhausted: rebase onto the earliest overflow tick.
            let Some((&tick, _)) = self.overflow.iter().next() else {
                return false;
            };
            self.base_tick = tick;
            self.cursor = 0;
            // Pull every overflow tick now inside the window.
            let end = self.base_tick + WHEEL_SLOTS as u64;
            let inside: Vec<u64> = self.overflow.range(..end).map(|(&t, _)| t).collect();
            for t in inside {
                let entries = self.overflow.remove(&t).unwrap();
                let idx = (t - self.base_tick) as usize;
                self.buckets[idx].extend(entries);
                if !self.buckets[idx].is_empty() {
                    self.set_occ(idx);
                }
            }
        }
    }

    fn drain_bucket(&mut self, idx: usize) {
        self.next_min = None;
        self.clear_occ(idx);
        self.cursor = idx + 1;
        self.active_tick = self.base_tick + idx as u64;
        let mut entries = std::mem::take(&mut self.buckets[idx]);
        // Sort once per bucket, descending so pops take from the tail.
        // Within a bucket most keys share the timestamp, where the sort
        // degrades gracefully to ordering by seq.
        entries.sort_unstable_by(|a, b| b.sort_key().partial_cmp(&a.sort_key()).unwrap());
        self.current = entries;
    }
}

impl<M> EventQueue<M> for TimerWheel<M> {
    type Id = WheelId;

    fn push(&mut self, time: SimTime, key: u64, kind: EventKind<M>) -> WheelId {
        let tick = tick_of(time);
        let (id, entry) = self.make_entry(time, key, kind);
        if self.in_current(tick) {
            // One event onto the tick being drained: binary search plus an
            // O(k) shift. Batches of these go through `extend` instead.
            #[cfg(test)]
            {
                self.sorted_inserts += 1;
            }
            let pos = self
                .current
                .partition_point(|e| e.sort_key() > entry.sort_key());
            self.current.insert(pos, entry);
        } else {
            self.file_ahead(tick, entry);
        }
        id
    }

    fn extend(&mut self, events: impl Iterator<Item = (SimTime, u64, EventKind<M>)>) {
        let sorted = self.current.len();
        for (time, key, kind) in events {
            let tick = tick_of(time);
            let (_, entry) = self.make_entry(time, key, kind);
            if self.in_current(tick) {
                self.current.push(entry);
            } else {
                self.file_ahead(tick, entry);
            }
        }
        if self.current.len() > sorted {
            // The batch's share of the tick being drained: one stable sort,
            // which finds the already-sorted prefix as a run and merges the
            // newcomers into it — O(k + m log m), not m sorted inserts.
            self.current
                .sort_by(|a, b| b.sort_key().partial_cmp(&a.sort_key()).unwrap());
        }
    }

    fn cancel(&mut self, id: WheelId) -> bool {
        if id == WheelId::NONE {
            return false;
        }
        let Some(s) = self.slab.get_mut(id.slot as usize) else {
            return false;
        };
        if s.gen != id.gen || s.kind.is_none() {
            return false;
        }
        // Reclaim payload and slot now; the generation bump makes the
        // residual bucket entry recognizably dead, so the slot can be
        // handed out again immediately without the stale entry ever
        // resurrecting it.
        s.kind = None;
        s.gen = s.gen.wrapping_add(1);
        self.free.push(id.slot);
        self.live -= 1;
        self.dead += 1;
        // The cancelled timer may be the one the cached peek names.
        self.next_min = None;
        true
    }

    fn pop(&mut self) -> Option<(WheelId, Event<M>)> {
        loop {
            while let Some(e) = self.current.pop() {
                if let Some(out) = self.unpark(e) {
                    return Some(out);
                }
            }
            if !self.refill_current() {
                return None;
            }
        }
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(e) = self.current.last() {
            if self.entry_live(e) {
                return Some(e.time);
            }
            self.current.pop();
            self.dead -= 1;
        }
        if self.live == 0 {
            return None;
        }
        if self.next_min.is_none() {
            self.next_min = self.scan_next_min();
        }
        self.next_min.map(|(_, time)| time)
    }

    fn len(&self) -> usize {
        self.live
    }

    fn dead_refs(&self) -> usize {
        self.dead
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timer(token: u64) -> EventKind<u32> {
        EventKind::Timer {
            node: NodeId(0),
            token,
            epoch: 0,
        }
    }

    fn drain_tokens<Q: EventQueue<u32>>(q: &mut Q) -> Vec<u64> {
        std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e.kind {
                EventKind::Timer { token, .. } => token,
                _ => unreachable!(),
            })
            .collect()
    }

    #[test]
    fn pops_in_time_order() {
        fn check<Q: EventQueue<u32> + Default>() {
            let mut q = Q::default();
            q.push(3.0, 0, timer(3));
            q.push(1.0, 0, timer(1));
            q.push(2.0, 0, timer(2));
            assert_eq!(drain_tokens(&mut q), vec![1, 2, 3]);
        }
        check::<BinaryHeapQueue<u32>>();
        check::<TimerWheel<u32>>();
    }

    #[test]
    fn equal_times_fifo_by_sequence() {
        fn check<Q: EventQueue<u32> + Default>() {
            let mut q = Q::default();
            for token in 0..10 {
                q.push(5.0, 0, timer(token));
            }
            assert_eq!(drain_tokens(&mut q), (0..10).collect::<Vec<_>>());
        }
        check::<BinaryHeapQueue<u32>>();
        check::<TimerWheel<u32>>();
    }

    #[test]
    fn len_and_empty() {
        fn check<Q: EventQueue<u32> + Default>() {
            let mut q = Q::default();
            assert!(q.is_empty());
            q.push(0.0, 0, timer(0));
            assert_eq!(q.len(), 1);
            assert_eq!(q.peek_time(), Some(0.0));
            q.pop();
            assert!(q.is_empty());
            assert_eq!(q.peek_time(), None);
        }
        check::<BinaryHeapQueue<u32>>();
        check::<TimerWheel<u32>>();
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        fn check<Q: EventQueue<u32> + Default>() {
            let mut q = Q::default();
            q.push(1.0, 0, timer(1));
            q.push(10.0, 0, timer(10));
            let (_, e) = q.pop().unwrap();
            assert_eq!(e.time, 1.0);
            // Push between the popped time and the remaining event — and
            // one at exactly the popped time (same tick as the active one).
            q.push(5.0, 0, timer(5));
            q.push(1.0, 0, timer(2));
            assert_eq!(drain_tokens(&mut q), vec![2, 5, 10]);
        }
        check::<BinaryHeapQueue<u32>>();
        check::<TimerWheel<u32>>();
    }

    #[test]
    fn cancel_reclaims_pending_events() {
        fn check<Q: EventQueue<u32> + Default>() {
            let mut q = Q::default();
            let a = q.push(1.0, 0, timer(1));
            let b = q.push(2.0, 0, timer(2));
            let _c = q.push(3.0, 0, timer(3));
            assert_eq!(q.len(), 3);
            assert!(q.cancel(b));
            assert!(!q.cancel(b), "double cancel must be a no-op");
            assert_eq!(q.len(), 2);
            let (popped_a, e) = q.pop().unwrap();
            assert_eq!(e.time, 1.0);
            assert_eq!(popped_a, a);
            assert!(!q.cancel(a), "cancelling a fired event must fail");
            assert_eq!(drain_tokens(&mut q), vec![3]);
            assert_eq!(q.dead_refs(), 0, "drain must reclaim residue");
        }
        check::<BinaryHeapQueue<u32>>();
        check::<TimerWheel<u32>>();
    }

    #[test]
    fn wheel_slot_not_reused_while_reference_pending() {
        let mut q: TimerWheel<u32> = TimerWheel::new();
        let a = q.push(5.0, 0, timer(1));
        assert!(q.cancel(a));
        assert_eq!(q.dead_refs(), 1);
        // New pushes must not resurrect the cancelled slot.
        for i in 0..4 {
            q.push(6.0 + i as f64, 0, timer(10 + i));
        }
        assert_eq!(drain_tokens(&mut q), vec![10, 11, 12, 13]);
        assert_eq!(q.dead_refs(), 0);
    }

    #[test]
    fn far_future_events_go_through_overflow() {
        let mut q: TimerWheel<u32> = TimerWheel::new();
        // Far beyond the 128-time-unit window, out of order.
        q.push(5000.0, 0, timer(3));
        q.push(0.5, 0, timer(1));
        q.push(1000.0, 0, timer(2));
        q.push(100_000.0, 0, timer(4));
        assert_eq!(drain_tokens(&mut q), vec![1, 2, 3, 4]);
    }

    #[test]
    fn equal_times_order_by_key_before_sequence() {
        fn check<Q: EventQueue<u32> + Default>() {
            let mut q = Q::default();
            // Push keys in descending order: pops must follow key order,
            // not push order.
            for token in 0..8u64 {
                q.push(5.0, 100 - token, timer(token));
            }
            // A later push with a smaller key at the same time wins.
            q.push(5.0, 1, timer(99));
            assert_eq!(drain_tokens(&mut q), vec![99, 7, 6, 5, 4, 3, 2, 1, 0]);
        }
        check::<BinaryHeapQueue<u32>>();
        check::<TimerWheel<u32>>();
    }

    /// Both queues' full pop order as `(time, key, token)`.
    fn drain_keys<Q: EventQueue<u32>>(q: &mut Q) -> Vec<(SimTime, u64, u64)> {
        std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e.kind {
                EventKind::Timer { token, .. } => (e.time, e.key, token),
                _ => unreachable!(),
            })
            .collect()
    }

    #[test]
    fn peek_does_not_drain_and_pushes_at_the_peeked_tick_stay_appends() {
        let mut wheel: TimerWheel<u32> = TimerWheel::new();
        let mut heap: BinaryHeapQueue<u32> = BinaryHeapQueue::new();
        for (time, key, token) in [(1.0, 0, 0), (2.0, 9, 1)] {
            wheel.push(time, key, timer(token));
            heap.push(time, key, timer(token));
        }
        wheel.pop();
        heap.pop();
        // `current` is empty and the next event sits in a bucket: the
        // state every shard is in when it reports at a window barrier.
        assert_eq!(wheel.peek_time(), Some(2.0));
        assert!(wheel.current.is_empty(), "peek must not drain the bucket");
        assert_eq!(wheel.active_tick, tick_of(1.0));
        // The barrier's arrivals nearly all land on exactly that tick.
        for i in 0..10_000u64 {
            let (time, key) = (2.0 + (i % 3) as f64 / 256.0, i % 5);
            wheel.push(time, key, timer(2 + i));
            heap.push(time, key, timer(2 + i));
        }
        assert_eq!(wheel.sorted_inserts, 0);
        assert!(wheel.current.is_empty());
        // The cached peek follows pushes that undercut it, in the peeked
        // bucket or an earlier one.
        wheel.push(2.0 - 1.0 / 512.0, 0, timer(20_000));
        heap.push(2.0 - 1.0 / 512.0, 0, timer(20_000));
        assert_eq!(wheel.peek_time(), heap.peek_time());
        wheel.push(1.5, 0, timer(20_001));
        heap.push(1.5, 0, timer(20_001));
        assert_eq!(wheel.peek_time(), Some(1.5));
        assert_eq!(wheel.sorted_inserts, 0);
        assert_eq!(drain_keys(&mut wheel), drain_keys(&mut heap));
    }

    #[test]
    fn peek_skips_cancelled_residue_without_draining() {
        let mut q: TimerWheel<u32> = TimerWheel::new();
        let a = q.push(1.0, 0, timer(1));
        q.push(1.0 + 1.0 / 256.0, 0, timer(2));
        q.push(3.0, 0, timer(3));
        assert_eq!(q.peek_time(), Some(1.0));
        // Cancelling the peeked event must not leave its time cached…
        assert!(q.cancel(a));
        assert_eq!(q.peek_time(), Some(1.0 + 1.0 / 256.0));
        // …and a bucket of nothing but residue is looked past.
        let b = q.push(2.0, 0, timer(4));
        assert!(q.cancel(b));
        assert_eq!(drain_tokens(&mut q), vec![2, 3]);
        assert_eq!(q.dead_refs(), 0);
    }

    #[test]
    fn extend_onto_the_draining_tick_is_one_merge() {
        let mut wheel: TimerWheel<u32> = TimerWheel::new();
        let mut heap: BinaryHeapQueue<u32> = BinaryHeapQueue::new();
        // One tick (1/64 wide) holding events either side of a window end
        // that falls inside it.
        let in_tick = |i: u64| 2.0 + (i % 4) as f64 / 512.0;
        for i in 0..64u64 {
            wheel.push(in_tick(i), i % 3, timer(i));
            heap.push(in_tick(i), i % 3, timer(i));
        }
        for _ in 0..16 {
            assert_eq!(
                wheel.pop().map(|(_, e)| e.seq),
                heap.pop().map(|(_, e)| e.seq)
            );
        }
        assert_eq!(wheel.active_tick, tick_of(2.0));
        // Arrivals on the tick being drained, plus some beyond it.
        let batch: Vec<(SimTime, u64, u64)> = (0..1000u64)
            .map(|i| {
                (
                    in_tick(i + 1).max(2.0 + 1.0 / 512.0) + (i % 2) as f64,
                    i % 7,
                    100 + i,
                )
            })
            .collect();
        wheel.extend(batch.iter().map(|&(t, k, tok)| (t, k, timer(tok))));
        heap.extend(batch.iter().map(|&(t, k, tok)| (t, k, timer(tok))));
        assert_eq!(wheel.sorted_inserts, 0);
        assert_eq!(wheel.len(), heap.len());
        assert_eq!(drain_keys(&mut wheel), drain_keys(&mut heap));
    }

    #[test]
    fn overflow_ties_stay_fifo() {
        let mut q: TimerWheel<u32> = TimerWheel::new();
        for token in 0..8 {
            q.push(9999.25, 0, timer(token));
        }
        q.push(9999.25 - 500.0, 0, timer(100));
        let order = drain_tokens(&mut q);
        assert_eq!(order, vec![100, 0, 1, 2, 3, 4, 5, 6, 7]);
    }
}
