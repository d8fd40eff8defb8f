//! The distributed Disco protocol for the discrete-event simulator
//! (paper §5.1, "custom discrete event simulator").
//!
//! [`DiscoProtocol`] composes the pieces of §4 into one per-node state
//! machine:
//!
//! 1. **Phase 0 — route learning.** The bounded path-vector protocol of
//!    [`crate::path_vector`] learns landmark routes and the vicinity.
//! 2. **Phase 1 — name resolution insert** (timer). The node source-routes
//!    an *insert* of its `(hash, address)` pair to the landmark owning its
//!    hash (§4.3).
//! 3. **Phase 2 — overlay bootstrap** (timer). The node source-routes
//!    successor / predecessor / finger *lookups* to the owning landmarks,
//!    which reply with the best matching entry they store (§4.4).
//! 4. **Phase 3 — address dissemination** (timer). The node announces its
//!    address to its overlay neighbors; announcements are forwarded inside
//!    the sloppy group following the direction rule (hash-space distance
//!    from the origin strictly increases), each overlay hop source-routed
//!    over the physical network.
//!
//! Every physical transmission — a path-vector announcement, one hop of a
//! source-routed insert, lookup, reply or overlay message — counts as one
//! message in [`disco_sim::MessageStats`]; those per-node totals are what
//! the paper's Fig. 8 plots. The phase timers stand in for the "low rate"
//! periodic refresh of the real protocol: by the time they fire, the
//! previous phase has quiesced on the topologies studied here (the engine's
//! run report still verifies global quiescence).
//!
//! One deliberate approximation: the overlay bootstrap answers successor /
//! predecessor lookups from the single owning landmark's shard, so ring
//! links that straddle a consistent-hashing arc boundary can be slightly
//! off. The *static* simulator ([`crate::static_state`]) builds the exact
//! overlay and is authoritative for all state/stretch results; this
//! distributed form is used for convergence-messaging measurements, where
//! the message counts are unaffected.

use crate::config::DiscoConfig;
use crate::estimate_n::Synopsis;
use crate::forward::ForwardingTable;
use crate::hash::{NameHash, NameHasher};
use crate::landmark::{landmark_set, select_landmarks, LandmarkStatus};
use crate::name::FlatName;
use crate::path_vector::{Announcement, PathVectorNode, TableLimit};
use disco_graph::{FxHashMap, FxHashSet, InternedPath, NodeId};
use disco_sim::context::Action;
use disco_sim::rng::rng_for;
use disco_sim::{Context, Protocol};
use rand::Rng;
use std::cell::Cell;

/// Timer tokens.
const TIMER_INSERT: u64 = 1;
const TIMER_LOOKUP: u64 = 2;
const TIMER_DISSEMINATE: u64 = 3;
const TIMER_REPAIR: u64 = 4;

// Phase start times, in simulation time units: far beyond path-vector
// convergence on the evaluation topologies (unweighted G(n,m) graphs of
// the sizes used have diameter ≤ ~6).
/// Start of the resolution-database insert.
const INSERT_AT: f64 = 50.0;
/// Start of the overlay successor/predecessor/finger lookups.
const LOOKUP_AT: f64 = 80.0;
/// Start of address dissemination.
const DISSEMINATE_AT: f64 = 110.0;
/// Debounce delay between observing a neighbor change and re-running the
/// insert / lookup / dissemination phases to repair higher-layer state.
/// Long enough for the path-vector layer to re-converge first on the
/// evaluation topologies.
const REPAIR_DELAY: f64 = 60.0;
/// Alternate routes a forgetful RIB keeps per table-resident destination
/// besides the selected one ([`DiscoConfig::forgetful_dynamic`]).
pub const FORGETFUL_ALTERNATES: usize = 2;

thread_local! {
    /// The recycled action buffer of the embedded path-vector context
    /// ([`DiscoProtocol::pv_context`]): an inner upcall records into it and
    /// the translation loop drains it in place, so composing the two
    /// protocols costs no per-upcall allocation. One per thread, not per
    /// node — nodes are thread-affine through the path arena — so its
    /// peak capacity (a whole table dump) is paid once, not by every node.
    static PV_SCRATCH: Cell<Vec<Action<Announcement>>> = const { Cell::new(Vec::new()) };
}

/// Carries nothing: the phase timers are the constants above. The type
/// remains only as the last argument of [`DiscoProtocol::new`], because the
/// standalone `benchmark/` harness constructs it with
/// `PhaseTimers::default()` and keeps its source fixed so that runs of
/// different commits stay comparable. Outside this file, code in the
/// workspace builds its nodes with [`DiscoProtocol::network`] and never
/// names this type.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimers {}

/// A node's address as carried in protocol messages: the landmark plus the
/// node path `landmark ; node` (the compact label form is an encoding
/// detail; the simulator carries the node list and accounts bytes
/// accordingly).
///
/// The path is interned in the thread-local path arena, so copying an
/// address is a reference-count bump but the type is `!Send`: it cannot
/// leave the thread (the shard) that built it. [`FlowAddress`] is the same
/// address detached into an owned `Vec`, for crossing shards and for the
/// data plane; [`WireAddress::detach`] and [`FlowAddress::attach`] convert.
#[derive(Debug, Clone, PartialEq)]
pub struct WireAddress {
    /// The owning node.
    pub node: NodeId,
    /// Its closest landmark.
    pub landmark: NodeId,
    /// Node path from the landmark to the node (interned: copying an
    /// address into a resolution store or a group announcement is a
    /// reference-count bump).
    pub path: InternedPath,
}

impl WireAddress {
    /// This address with its path detached from the arena.
    pub fn detach(&self) -> FlowAddress {
        FlowAddress {
            landmark: self.landmark,
            path: self.path.to_vec(),
        }
    }
}

/// A node's address detached from the path arena: its closest landmark
/// and the label path `landmark → … → node`. Plain owned data, so it
/// crosses shards and is what the data plane's packet walks read.
#[derive(Debug, Clone)]
pub struct FlowAddress {
    /// The node's addressing landmark.
    pub landmark: NodeId,
    /// Node path from the landmark to the node (landmark first, the node
    /// last).
    pub path: Vec<NodeId>,
}

impl FlowAddress {
    /// Re-intern the path in this thread's arena. The node is the path's
    /// last hop.
    pub fn attach(&self) -> WireAddress {
        WireAddress {
            node: *self.path.last().expect("an address path ends at its node"),
            landmark: self.landmark,
            path: InternedPath::from_slice(&self.path),
        }
    }
}

/// What an overlay lookup is asking for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupKind {
    /// First stored entry clockwise of the target (successor semantics).
    Successor,
    /// First stored entry counter-clockwise of the target (predecessor).
    Predecessor,
    /// Stored entry with minimum ring distance to the target (fingers).
    Closest,
}

/// Payload delivered at the end of a source-routed transport.
#[derive(Debug, Clone)]
pub enum Payload {
    /// Store `(hash, address)` in the resolution database (handled by
    /// landmarks).
    ResolutionInsert {
        hash: NameHash,
        address: WireAddress,
    },
    /// Ask the owning landmark for a stored entry relative to `target`.
    OverlayLookup {
        target: NameHash,
        kind: LookupKind,
        exclude: NodeId,
        reply_route: InternedPath,
        /// Which overlay slot the requester fills with the answer
        /// (0 = successor, 1 = predecessor, 2.. = fingers).
        slot: usize,
    },
    /// Reply to an [`Payload::OverlayLookup`].
    OverlayReply {
        slot: usize,
        hash: NameHash,
        address: WireAddress,
    },
    /// An address announcement disseminated within the sloppy group.
    /// `up` is the direction of travel in hash space (`None` at the origin).
    GroupAnnouncement {
        origin_hash: NameHash,
        address: WireAddress,
        up: Option<bool>,
    },
}

/// Messages of the distributed Disco protocol.
#[derive(Debug, Clone)]
pub enum DiscoMsg {
    /// Path-vector route announcement (phase 0).
    Route(Announcement),
    /// One hop of a source-routed message; `route` is the remaining path
    /// and starts with the node currently holding the message. Peeling a
    /// hop off an interned path is O(1) and allocation-free.
    Forward {
        route: InternedPath,
        payload: Payload,
    },
    /// Synopsis-diffusion gossip (§4.1): the sender's current union of FM
    /// sketches. Only exchanged when
    /// [`DiscoConfig::dynamic_n_estimation`] is on.
    Gossip(Synopsis),
}

/// Every queued event carries its payload inline, so the size of an event
/// is what the timer wheel moves per entry: a message run (one message
/// inline, or a boxed slice) next to a flood group or a link keeps it at
/// 96 bytes.
const _: () = assert!(std::mem::size_of::<disco_sim::event::EventKind<DiscoMsg>>() == 96);

/// Per-node state of the distributed Disco protocol.
pub struct DiscoProtocol {
    /// The embedded path-vector machinery (landmarks + vicinity).
    pub pv: PathVectorNode,
    cfg: DiscoConfig,
    name: FlatName,
    hasher: NameHasher,
    my_hash: NameHash,
    /// Resolution entries stored here (landmarks only).
    pub resolution_store: FxHashMap<NameHash, WireAddress>,
    /// Overlay neighbors learned in phase 2, indexed by slot
    /// (0 = successor, 1 = predecessor, 2.. = fingers). Slots are dense and
    /// few (`2 + fingers`), so a flat vector replaces the former
    /// `HashMap<usize, _>` — smaller, and iteration is slot-ordered and
    /// deterministic.
    pub overlay_neighbors: Vec<Option<(NameHash, WireAddress)>>,
    /// Addresses of sloppy-group members learned through dissemination,
    /// keyed on the compact 4-byte member id (the same u32 destination
    /// keys the path-vector mirrors use).
    pub group_addresses: FxHashMap<u32, WireAddress>,
    /// `(origin << 1) | direction` keys of announcements this node has
    /// already forwarded — suppresses duplicate floods. The former
    /// `HashMap<(NodeId, bool), bool>` spent ~18 B per always-`true` entry
    /// plus SipHash; this is a compact 8-byte-key `FxHashSet`.
    forwarded: FxHashSet<u64>,
    /// This node's estimate of the network size (live when
    /// `dynamic_n_estimation` is on, otherwise the construction-time
    /// value).
    n_estimate: usize,
    /// Synopsis union for live `n`-estimation (this node's sketch merged
    /// with everything gossiped to it).
    synopsis: Synopsis,
    /// This node's own FM sketch, kept pristine so a synopsis epoch reset
    /// can restart the union from it (the union itself is monotone).
    my_sketch: Synopsis,
    /// Set when a neighbor went down: the next repair pass starts a new
    /// synopsis epoch so departed nodes' sketch contributions age out and
    /// the estimate of `n` can fall. Carries the epoch observed at request
    /// time — if gossip has already moved us to a newer epoch by the time
    /// the repair runs, that epoch was started after the departure and no
    /// further reset is needed.
    epoch_reset_wanted: Option<u64>,
    /// Lower bound applied to the live estimate: set to half the previous
    /// estimate at each epoch reset, so a reset decays the estimate at
    /// most ×2 per epoch instead of collapsing the vicinity cap to the
    /// own-sketch estimate (~1) while the new epoch's union is still
    /// flooding.
    estimate_floor: usize,
    /// Simulation time at which this node last started or adopted a
    /// synopsis epoch. The floor-decay chain in `do_repair` only judges an
    /// epoch's union "too small" (and starts another halving epoch) once
    /// the epoch is at least a repair-delay old — gossip floods in a few
    /// time units, so by then the union has converged. Without the age
    /// guard, repair passes firing mid-flood see a young union, bump a
    /// fresh epoch, and the network chases its own tail forever.
    epoch_started: f64,
    /// Landmark status under the ×2 hysteresis re-election rule; only
    /// consulted when `dynamic_n_estimation` is on.
    lm_status: LandmarkStatus,
    /// Whether a repair pass is already scheduled (debounce).
    repair_pending: bool,
    /// Set once the initial phases have run; address-change repair only
    /// makes sense after there is address-derived state to repair.
    bootstrapped: bool,
    /// Completed repair passes (diagnostics).
    repair_epoch: u64,
    /// Consecutive failed emergency-election attempts while no landmark is
    /// reachable; salts the election RNG and doubles its probability per
    /// attempt. Reset whenever a landmark is known.
    election_attempts: u64,
}

impl DiscoProtocol {
    /// The node factory of an `n`-node network: node `v` is built as by
    /// [`Self::new`], every node estimating the size as `n`, and the
    /// landmarks are [`select_landmarks`]`(n, cfg)` — drawn once, so the
    /// set is never empty (node 0 stands in when nobody elects itself).
    /// Hand it to `Engine::new` or `ShardedEngine::new`; this is how every
    /// simulation in the workspace boots the protocol.
    pub fn network(
        n: usize,
        cfg: &DiscoConfig,
    ) -> impl Fn(NodeId) -> DiscoProtocol + Send + Clone + 'static {
        let landmarks = landmark_set(&select_landmarks(n, cfg));
        let cfg = cfg.clone();
        move |v| DiscoProtocol::new(v, landmarks.contains(&v), n, &cfg, PhaseTimers::default())
    }

    /// Create the protocol instance for `id`. `is_landmark` is the node's
    /// locally drawn landmark status and `n_estimate` its estimate of the
    /// network size. The last argument carries nothing (see
    /// [`PhaseTimers`]); [`Self::network`] builds whole networks.
    pub fn new(
        id: NodeId,
        is_landmark: bool,
        n_estimate: usize,
        cfg: &DiscoConfig,
        _timers: PhaseTimers,
    ) -> Self {
        let name = FlatName::synthetic(id.0);
        let hasher = NameHasher::new(cfg.seed ^ 0x510f);
        let my_hash = hasher.hash_name(&name);
        let vicinity = cfg.vicinity_size(n_estimate);
        let synopsis = Synopsis::for_node(id, cfg.seed);
        let lm_status = LandmarkStatus::assumed(id, is_landmark, n_estimate);
        let mut pv =
            PathVectorNode::new(id, is_landmark, TableLimit::VicinityCap { size: vicinity });
        // Forgetful routing (§4.2): bound the per-destination candidate
        // sets, re-soliciting evicted alternates on demand.
        if cfg.forgetful_dynamic {
            pv.set_forgetful_rib(Some(FORGETFUL_ALTERNATES));
        }
        DiscoProtocol {
            pv,
            my_sketch: synopsis.clone(),
            synopsis,
            epoch_reset_wanted: None,
            estimate_floor: 0,
            epoch_started: 0.0,
            lm_status,
            cfg: cfg.clone(),
            name,
            hasher,
            my_hash,
            resolution_store: FxHashMap::default(),
            overlay_neighbors: vec![None; 2 + cfg.fingers],
            group_addresses: FxHashMap::default(),
            forwarded: FxHashSet::default(),
            n_estimate,
            repair_pending: false,
            bootstrapped: false,
            repair_epoch: 0,
            election_attempts: 0,
        }
    }

    /// This node's flat name.
    pub fn name(&self) -> &FlatName {
        &self.name
    }

    /// This node's position on the hash ring.
    pub fn my_hash(&self) -> NameHash {
        self.my_hash
    }

    /// This node's current estimate of the network size. Tracks the
    /// synopsis-diffusion union when [`DiscoConfig::dynamic_n_estimation`]
    /// is on; otherwise stays at the construction-time value.
    pub fn live_estimate(&self) -> usize {
        self.n_estimate
    }

    /// Landmark status under the ×2 hysteresis re-election rule.
    pub fn landmark_status(&self) -> &LandmarkStatus {
        &self.lm_status
    }

    /// The synopsis reset epoch this node's estimate is based on (0 until
    /// a departure triggers the first reset).
    pub fn synopsis_epoch(&self) -> u64 {
        self.synopsis.epoch()
    }

    /// Compact `forwarded` key: origin id and direction packed into 8
    /// bytes.
    #[inline]
    fn fwd_key(origin: NodeId, up: bool) -> u64 {
        ((origin.0 as u64) << 1) | up as u64
    }

    /// Record an overlay neighbor in its slot (growing the slot vector if
    /// a reply outruns the configured finger count).
    fn set_overlay_slot(&mut self, slot: usize, entry: (NameHash, WireAddress)) {
        if slot >= self.overlay_neighbors.len() {
            self.overlay_neighbors.resize(slot + 1, None);
        }
        self.overlay_neighbors[slot] = Some(entry);
    }

    /// Overlay neighbors currently known (filled slots).
    pub fn overlay_neighbor_count(&self) -> usize {
        self.overlay_neighbors.iter().flatten().count()
    }

    /// The sloppy-group address stored for `member`, if any.
    pub fn group_address(&self, member: NodeId) -> Option<&WireAddress> {
        self.group_addresses.get(&(member.0 as u32))
    }

    /// Approximate heap bytes of the dissemination bookkeeping — the
    /// "dissemination bytes" column of `exp_memory`'s per-component
    /// accounting: the sloppy-group address store, the overlay slots and
    /// the forwarded-announcement dedup set. The resolution shard (§4.3
    /// application state, landmarks only) is deliberately excluded: its
    /// layout is entry-count-driven either way and would dilute the
    /// bookkeeping signal. `WireAddress` paths are interned arena cells,
    /// accounted by the arena.
    pub fn dissemination_bytes(&self) -> usize {
        const ADDR: usize = std::mem::size_of::<WireAddress>();
        // Hash structures are priced at their real SwissTable allocation:
        // `capacity()` is 7/8 of the bucket array, each bucket paying its
        // payload plus one control byte.
        let group_buckets = self.group_addresses.capacity() * 8 / 7;
        let fwd_buckets = self.forwarded.capacity() * 8 / 7;
        group_buckets * (4 + ADDR + 1)
            + self.overlay_neighbors.capacity() * (8 + ADDR + 8)
            + fwd_buckets * (8 + 1)
    }

    /// Send this node's synopsis union to one neighbor.
    fn gossip_to(&self, peer: NodeId, ctx: &mut Context<'_, DiscoMsg>) {
        ctx.send_sized(
            peer,
            DiscoMsg::Gossip(self.synopsis.clone()),
            self.synopsis.wire_bytes(),
        );
    }

    /// Flood this node's synopsis union to every neighbor (one
    /// engine-expanded flood action).
    fn gossip_flood(&self, ctx: &mut Context<'_, DiscoMsg>) {
        ctx.flood_sized(
            DiscoMsg::Gossip(self.synopsis.clone()),
            self.synopsis.wire_bytes(),
        );
    }

    /// Flood path-vector announcements (a landmark promotion) to every
    /// neighbor, wrapped as [`DiscoMsg::Route`] — one flood action per
    /// announcement, replicated by the engine at the adjacency walk.
    fn flood_route_announcements(anns: &[Announcement], ctx: &mut Context<'_, DiscoMsg>) {
        for ann in anns {
            let size = crate::path_vector::announcement_bytes(ann);
            ctx.flood_sized(DiscoMsg::Route(ann.clone()), size);
        }
    }

    /// Re-derive the estimate-dependent parameters from the current
    /// synopsis union (§4.1 / §4.2): vicinity capacity follows
    /// `⌈c·√(n̂ ln n̂)⌉` immediately; landmark status is re-drawn only when
    /// the estimate moved ×2 past the last decision (hysteresis), and a
    /// flip floods the promotion — or exports the demotion — and schedules
    /// a repair pass, since consistent-hashing ownership reshuffles.
    fn apply_estimate(&mut self, ctx: &mut Context<'_, DiscoMsg>) {
        let raw = (self.synopsis.estimate().round() as usize).max(2);
        // Once the epoch's union regrows past the halving floor, the floor
        // has served its purpose (shielding the transient while the epoch
        // flooded) and is released; while the union stays below it — the
        // network genuinely shrank by more than ×2 — the floor holds, and
        // the next repair pass starts another epoch to decay one more
        // halving step (see `do_repair`).
        if self.estimate_floor != 0 && raw >= self.estimate_floor {
            self.estimate_floor = 0;
        }
        let est = raw.max(self.estimate_floor);
        if est == self.n_estimate {
            return;
        }
        self.n_estimate = est;
        self.pv.set_vicinity_cap(self.cfg.vicinity_size(est));
        if self.lm_status.update_estimate(est, &self.cfg) {
            if self.lm_status.is_landmark() {
                let anns = self.pv.promote_to_landmark();
                Self::flood_route_announcements(&anns, ctx);
            } else {
                self.pv.demote_from_landmark();
            }
            if self.bootstrapped {
                self.schedule_repair(ctx);
            }
        }
        // The resize / demotion above queued table changes in the
        // path-vector's pending set; arm its batch flush so they are
        // exported even when no route traffic is flowing (a gossip sketch
        // can arrive long after the route plane quiesced).
        self.run_pv(|pv, c| pv.export_pending(c), ctx);
    }

    /// This node's current address (closest landmark + path), if a landmark
    /// route has been learned.
    pub fn my_address(&self) -> Option<WireAddress> {
        let id = self.pv.id();
        if self.pv.is_landmark() {
            return Some(WireAddress {
                node: id,
                landmark: id,
                path: InternedPath::single(id),
            });
        }
        // Landmark entries come closest first, ties by smaller id.
        let (lm, _) = self.pv.landmark_entries().next()?;
        let entry = self.pv.route(lm)?;
        Some(WireAddress {
            node: id,
            landmark: lm,
            path: entry.path.reversed(), // entry.path runs node → landmark
        })
    }

    /// The landmark responsible for `hash` according to this node's current
    /// view of the landmark set (first landmark position clockwise of the
    /// hash — standard consistent hashing). Public for the same reason as
    /// [`DiscoProtocol::route_to`].
    pub fn owner_landmark(&self, hash: NameHash) -> Option<NodeId> {
        let mut best: Option<(u64, NodeId)> = None;
        for (lm, _) in self.pv.landmark_entries() {
            let pos = self.hasher.hash_u64(lm.0 as u64);
            let d = hash.clockwise_distance(pos);
            match best {
                Some((bd, _)) if bd <= d => {}
                _ => best = Some((d, lm)),
            }
        }
        best.map(|(_, lm)| lm)
    }

    /// Compile this node's data plane into `out` (see [`crate::forward`]):
    /// the RIB's selection column in the sorted key/next-hop/hop-count
    /// arrays (nothing per entry reads the path arena), the landmark ring
    /// at this node's hash positions, and the landmark-fallback entry
    /// (next hop toward the closest landmark,
    /// [`DiscoProtocol::my_address`]'s tie rule).
    ///
    /// What `out` held decides how much work that is, never the result.
    /// If it is this node's own earlier epoch and the path vector's write
    /// journal reaches back to its revision stamp
    /// ([`PathVectorNode::writes_since`]), only the journaled
    /// destinations' rows are set — to their current selection, whatever
    /// happened in between; otherwise every selected row is, in key order,
    /// into a cleared table sized once from the selection count. One row
    /// writer, two row sources. The ring is rebuilt only when the landmark
    /// set moved past the version it was built at.
    ///
    /// Read-only over the RIB — the control plane cannot observe that a
    /// compile happened — and stamped with
    /// [`PathVectorNode::selection_revision`] so
    /// [`crate::forward::TablePublisher`] republishes exactly when
    /// selections actually moved.
    pub fn compile_forwarding_into(&self, out: &mut ForwardingTable) {
        let pv = &self.pv;
        let patched = match pv.writes_since(out.revision()) {
            Some(written) => {
                out.resume(pv.selection_revision());
                for dest in written {
                    out.set_route(dest, pv.route_by_id(dest));
                }
                true
            }
            None => {
                out.begin(pv.id(), pv.selection_revision(), pv.selected_count());
                // The hop count is the label this entry resolves to (path
                // nodes minus the node itself).
                pv.for_each_route_by_id(|dest, hop, hops| out.set_route(dest, Some((hop, hops))));
                false
            }
        };
        if out.ring_version() != pv.landmark_set_version() {
            out.begin_ring(pv.landmark_set_version());
            for (lm, _) in pv.landmark_entries() {
                out.push_landmark(self.hasher.hash_u64(lm.0 as u64).value(), lm);
            }
        }
        // Closest first: the first entry is `my_address`'s landmark. (A
        // landmark's own first entry is itself: nothing to fall back to.)
        let closest = pv.landmark_entries().next().filter(|_| !pv.is_landmark());
        out.set_fallback(closest.map(|(lm, _)| {
            let hop = pv.route(lm).expect("a listed landmark").next_hop;
            (lm, hop)
        }));
        if cfg!(debug_assertions) && patched {
            let mut scratch = ForwardingTable::new(pv.id());
            self.compile_forwarding_into(&mut scratch);
            assert!(*out == scratch, "{}: a patched table diverged", pv.id());
        }
    }

    /// Full path from this node to `target` using learned routes: a table
    /// route if present, otherwise through the target's address. Public so
    /// `disco-dynamics` probes can measure routability under churn exactly
    /// as the protocol itself would forward.
    pub fn route_to(
        &self,
        target: NodeId,
        target_addr: Option<&WireAddress>,
    ) -> Option<InternedPath> {
        if target == self.pv.id() {
            return Some(InternedPath::single(self.pv.id()));
        }
        if let Some(entry) = self.pv.route(target) {
            return Some(entry.path.clone());
        }
        let addr = target_addr?;
        let lm_entry = self.pv.route(addr.landmark)?;
        // `lm_entry.path` ends at the landmark, where the address route
        // starts; the concatenation shares the address suffix.
        Some(lm_entry.path.concat(&addr.path))
    }

    /// Send `payload` along `route` (this node first). The next hop is
    /// resolved once (validation and scheduling share the lookup).
    fn send_along(&self, route: InternedPath, payload: Payload, ctx: &mut Context<'_, DiscoMsg>) {
        let Some(remaining) = route.tail() else {
            return;
        };
        let Some(next) = ctx.neighbor(remaining.first()) else {
            return; // stale route; drop
        };
        let size = 16 + 4 * remaining.len() + payload_bytes(&payload);
        ctx.send_resolved(
            next,
            DiscoMsg::Forward {
                route: remaining,
                payload,
            },
            size,
        );
    }

    /// Answer an overlay lookup from this node's resolution store.
    fn answer_lookup(
        &self,
        target: NameHash,
        kind: LookupKind,
        exclude: NodeId,
    ) -> Option<(NameHash, WireAddress)> {
        self.resolution_store
            .iter()
            .filter(|(_, a)| a.node != exclude)
            .min_by_key(|(&h, _)| match kind {
                LookupKind::Successor => target.clockwise_distance(h),
                LookupKind::Predecessor => h.clockwise_distance(target),
                LookupKind::Closest => h.ring_distance(target),
            })
            .map(|(&h, a)| (h, a.clone()))
    }

    /// Handle a payload that has reached this node.
    fn deliver(&mut self, payload: Payload, ctx: &mut Context<'_, DiscoMsg>) {
        match payload {
            Payload::ResolutionInsert { hash, address } => {
                self.resolution_store.insert(hash, address);
            }
            Payload::OverlayLookup {
                target,
                kind,
                exclude,
                reply_route,
                slot,
            } => {
                if let Some((h, addr)) = self.answer_lookup(target, kind, exclude) {
                    self.send_along(
                        reply_route,
                        Payload::OverlayReply {
                            slot,
                            hash: h,
                            address: addr,
                        },
                        ctx,
                    );
                }
            }
            Payload::OverlayReply {
                slot,
                hash,
                address,
            } => {
                if address.node != self.pv.id() {
                    self.set_overlay_slot(slot, (hash, address));
                }
            }
            Payload::GroupAnnouncement {
                origin_hash,
                address,
                up,
            } => {
                let origin = address.node;
                if origin == self.pv.id() {
                    return;
                }
                let k = self.cfg.group_prefix_bits(self.n_estimate);
                if origin_hash.prefix(k) == self.my_hash.prefix(k) {
                    self.group_addresses
                        .insert(origin.0 as u32, address.clone());
                }
                let directions: Vec<bool> = match up {
                    Some(d) => vec![d],
                    None => vec![true, false],
                };
                for d in directions {
                    if !self.forwarded.insert(Self::fwd_key(origin, d)) {
                        continue;
                    }
                    self.forward_announcement(origin_hash, &address, d, ctx);
                }
            }
        }
    }

    /// Forward an announcement to all overlay neighbors in direction `up`.
    fn forward_announcement(
        &self,
        origin_hash: NameHash,
        address: &WireAddress,
        up: bool,
        ctx: &mut Context<'_, DiscoMsg>,
    ) {
        let k = self.cfg.group_prefix_bits(self.n_estimate);
        for (nb_hash, nb_addr) in self.overlay_neighbors.iter().flatten() {
            if nb_hash.prefix(k) != self.my_hash.prefix(k) {
                continue; // keep the announcement inside the group
            }
            let goes_up = nb_hash.value() > self.my_hash.value();
            if goes_up != up {
                continue;
            }
            if let Some(route) = self.route_to(nb_addr.node, Some(nb_addr)) {
                self.send_along(
                    route,
                    Payload::GroupAnnouncement {
                        origin_hash,
                        address: address.clone(),
                        up: Some(up),
                    },
                    ctx,
                );
            }
        }
    }

    /// Phase 1: insert this node's address into the resolution database.
    fn do_insert(&mut self, ctx: &mut Context<'_, DiscoMsg>) {
        let Some(my_addr) = self.my_address() else {
            return;
        };
        if let Some(owner) = self.owner_landmark(self.my_hash) {
            if owner == self.pv.id() {
                self.resolution_store.insert(self.my_hash, my_addr);
            } else if let Some(route) = self.route_to(owner, None) {
                self.send_along(
                    route,
                    Payload::ResolutionInsert {
                        hash: self.my_hash,
                        address: my_addr,
                    },
                    ctx,
                );
            }
        }
    }

    /// Phase 2: look up overlay successor, predecessor and fingers.
    fn do_lookups(&mut self, ctx: &mut Context<'_, DiscoMsg>) {
        let me = self.pv.id();
        let k = self.cfg.group_prefix_bits(self.n_estimate);
        let arc_bits = 64 - k;
        let arc_size: u128 = 1u128 << arc_bits;
        let mut rng = rng_for(self.cfg.seed, 0x22, me.0 as u64);

        let mut targets: Vec<(usize, NameHash, LookupKind)> = vec![
            (
                0,
                NameHash(self.my_hash.value().wrapping_add(1)),
                LookupKind::Successor,
            ),
            (
                1,
                NameHash(self.my_hash.value().wrapping_sub(1)),
                LookupKind::Predecessor,
            ),
        ];
        for f in 0..self.cfg.fingers {
            let u: f64 = rng.gen();
            let d = (((arc_size as f64).ln() * u).exp() as u128)
                .clamp(1, arc_size.saturating_sub(1).max(1));
            let up: bool = rng.gen();
            let raw = if up {
                self.my_hash.value().wrapping_add(d as u64)
            } else {
                self.my_hash.value().wrapping_sub(d as u64)
            };
            targets.push((2 + f, NameHash(raw), LookupKind::Closest));
        }

        for (slot, target, kind) in targets {
            if let Some(owner) = self.owner_landmark(target) {
                if owner == me {
                    if let Some((h, addr)) = self.answer_lookup(target, kind, me) {
                        self.set_overlay_slot(slot, (h, addr));
                    }
                } else if let Some(route) = self.route_to(owner, None) {
                    let reply = route.reversed();
                    self.send_along(
                        route,
                        Payload::OverlayLookup {
                            target,
                            kind,
                            exclude: me,
                            reply_route: reply,
                            slot,
                        },
                        ctx,
                    );
                }
            }
        }
    }

    /// Phase 3: announce this node's address to its overlay neighbors.
    fn do_disseminate(&mut self, ctx: &mut Context<'_, DiscoMsg>) {
        let Some(my_addr) = self.my_address() else {
            return;
        };
        self.forwarded.insert(Self::fwd_key(self.pv.id(), true));
        self.forwarded.insert(Self::fwd_key(self.pv.id(), false));
        for up in [true, false] {
            self.forward_announcement(self.my_hash, &my_addr, up, ctx);
        }
    }

    /// The context the embedded path-vector machinery records into during
    /// one upcall of this protocol: over the thread's recycled scratch
    /// buffer ([`PV_SCRATCH`]), with the outer upcall's arrival link. Hand
    /// it back, drained, with [`Self::pv_release`].
    fn pv_context<'a>(ctx: &Context<'a, DiscoMsg>) -> Context<'a, Announcement> {
        let buffer = PV_SCRATCH.with(Cell::take);
        let mut inner = Context::with_buffer(ctx.node_id(), ctx.now(), ctx.graph(), buffer);
        inner.set_via(ctx.via());
        inner
    }

    /// Return a drained embedded context's buffer to the thread's scratch.
    fn pv_release(inner: Context<'_, Announcement>) {
        PV_SCRATCH.with(|scratch| scratch.set(inner.into_buffer()));
    }

    /// Run one upcall of the embedded path-vector machinery and re-wrap its
    /// outgoing announcements as [`DiscoMsg::Route`] ([`Self::relay`]).
    fn run_pv(
        &mut self,
        upcall: impl FnOnce(&mut PathVectorNode, &mut Context<'_, Announcement>),
        ctx: &mut Context<'_, DiscoMsg>,
    ) {
        let mut inner = Self::pv_context(ctx);
        upcall(&mut self.pv, &mut inner);
        Self::relay(&mut inner, ctx);
        Self::pv_release(inner);
    }

    /// Move the actions the embedded path-vector context recorded so far
    /// into this protocol's context, in order, re-wrapping announcements
    /// as [`DiscoMsg::Route`]. The inner buffer keeps its capacity, and
    /// the relayed sends reuse the neighbor handles the inner context
    /// already resolved (same graph snapshot) — no second adjacency scan.
    fn relay(inner: &mut Context<'_, Announcement>, ctx: &mut Context<'_, DiscoMsg>) {
        for action in inner.drain_actions() {
            match action {
                Action::Send {
                    to,
                    msg,
                    size_bytes,
                } => {
                    ctx.send_resolved(to, DiscoMsg::Route(msg), size_bytes);
                }
                Action::Flood { msg, size_bytes } => {
                    ctx.flood_sized(DiscoMsg::Route(msg), size_bytes);
                }
                // Path-vector timers (the export batch flush) ride on this
                // protocol's timer space; `on_timer` routes unknown tokens
                // back into the embedded node.
                Action::Timer { delay, token } => ctx.set_timer(delay, token),
            }
        }
    }

    /// Debounce a repair pass: the first neighbor change arms one timer;
    /// further changes before it fires are coalesced into the same pass.
    fn schedule_repair(&mut self, ctx: &mut Context<'_, DiscoMsg>) {
        if !self.repair_pending {
            self.repair_pending = true;
            ctx.set_timer(REPAIR_DELAY, TIMER_REPAIR);
        }
    }

    /// Re-run the higher-layer phases after the path-vector layer had time
    /// to re-converge: landmark re-election if every landmark was lost,
    /// then resolution re-insert, overlay re-lookup and sloppy-group
    /// re-dissemination (the address may have changed with the topology).
    fn do_repair(&mut self, ctx: &mut Context<'_, DiscoMsg>) {
        self.repair_pending = false;
        self.repair_epoch += 1;

        // Synopsis epoch reset (§4.1 follow-on): a departure was observed,
        // and the FM union is monotone — without a reset the estimate of
        // `n` could never fall. Start a new epoch from our own sketch and
        // flood it; every node re-contributes on adoption, so the new
        // union counts live nodes only. Skipped if gossip already moved us
        // to an epoch newer than the one the departure was observed in.
        //
        // The halving floor decays one ×2 step per epoch. If the current
        // epoch's (reconverged — the flood is much faster than the repair
        // debounce) union still estimates *below* the floor, the network
        // shrank by more than ×2 and one halving was not enough: start
        // another epoch and schedule a follow-up pass, so the floor decays
        // geometrically until the union catches up and `apply_estimate`
        // releases it. Without this chain a single >×2 mass departure
        // would pin the estimate at half its pre-departure value forever.
        if self.cfg.dynamic_n_estimation {
            let raw = (self.synopsis.estimate().round() as usize).max(2);
            let departure_reset = self
                .epoch_reset_wanted
                .take()
                .is_some_and(|seen| self.synopsis.epoch() == seen);
            // Only judge an epoch once it has had a repair-delay to flood
            // (see `epoch_started`); a mid-flood union always looks small.
            let epoch_settled = ctx.now() - self.epoch_started >= REPAIR_DELAY;
            let floor_binding = self.estimate_floor > 2 && raw < self.estimate_floor;
            if departure_reset || (floor_binding && epoch_settled) {
                self.estimate_floor = (self.n_estimate / 2).max(2);
                let next = self.synopsis.epoch() + 1;
                self.synopsis = self.my_sketch.clone();
                self.synopsis.set_epoch(next);
                self.epoch_started = ctx.now();
                self.gossip_flood(ctx);
                self.schedule_repair(ctx);
                if floor_binding {
                    // The settled union really is below the floor: adopt the
                    // decayed floor now. On an island no gossip ever arrives
                    // to run `apply_estimate` for us — without this call
                    // `n_estimate` (and hence the next floor) never falls and
                    // the epoch chain re-arms forever instead of converging
                    // in O(log n) halvings. A freshly reset departure epoch
                    // is different: its union is mid-flood (raw ≈ own
                    // sketch), so adopting it here would transiently halve
                    // the estimate on every departure — let gossip receipt
                    // judge that epoch instead.
                    self.apply_estimate(ctx);
                }
            }
        }

        // Emergency landmark re-election (§4.2 keeps election local and
        // random; under churn a partition can lose connectivity to every
        // landmark). Each *consecutive failed election attempt* doubles the
        // probability, so an island elects a replacement within O(log 1/p)
        // passes; the counter resets whenever a landmark is reachable, so a
        // node that merely churned a lot is not pre-boosted and the
        // expected landmark density stays at the paper's √(ln n / n).
        if !self.pv.is_landmark() && self.pv.landmark_entries().next().is_none() {
            self.election_attempts += 1;
            let me = self.pv.id();
            let mut rng = rng_for(
                self.cfg.seed,
                0x1e7,
                (me.0 as u64) ^ (self.election_attempts << 32),
            );
            let p: f64 = rng.gen();
            let boost = f64::powi(2.0, (self.election_attempts - 1).min(60) as i32);
            if p < (self.cfg.landmark_probability(self.n_estimate) * boost).min(1.0) {
                let anns = self.pv.promote_to_landmark();
                Self::flood_route_announcements(&anns, ctx);
            } else {
                // Keep trying until some node in the partition elects
                // itself (or a landmark becomes reachable again).
                self.schedule_repair(ctx);
            }
        } else {
            self.election_attempts = 0;
        }

        // Vicinity re-learning already happened in the path-vector layer;
        // rebuild everything derived from addresses on top of it.
        self.forwarded.clear();
        self.do_insert(ctx);
        self.do_lookups(ctx);
        self.do_disseminate(ctx);
    }
}

fn payload_bytes(p: &Payload) -> usize {
    match p {
        Payload::ResolutionInsert { address, .. } => 12 + 4 * address.path.len(),
        Payload::OverlayLookup { reply_route, .. } => 18 + 4 * reply_route.len(),
        Payload::OverlayReply { address, .. } => 13 + 4 * address.path.len(),
        Payload::GroupAnnouncement { address, .. } => 13 + 4 * address.path.len(),
    }
}

impl Protocol for DiscoProtocol {
    type Message = DiscoMsg;

    fn classify(msg: &DiscoMsg) -> disco_sim::MessageClass {
        match msg {
            DiscoMsg::Route(ann) => PathVectorNode::classify(ann),
            DiscoMsg::Forward { .. } => disco_sim::MessageClass::Deliver,
            DiscoMsg::Gossip(_) => disco_sim::MessageClass::Gossip,
        }
    }

    fn control_revision(&self) -> u64 {
        self.pv.selection_revision()
    }

    fn on_start(&mut self, ctx: &mut Context<'_, DiscoMsg>) {
        self.run_pv(|pv, c| pv.on_start(c), ctx);
        if self.cfg.dynamic_n_estimation {
            self.gossip_flood(ctx);
        }
        ctx.set_timer(INSERT_AT, TIMER_INSERT);
        ctx.set_timer(LOOKUP_AT, TIMER_LOOKUP);
        ctx.set_timer(DISSEMINATE_AT, TIMER_DISSEMINATE);
    }

    fn on_message(&mut self, from: NodeId, msg: DiscoMsg, ctx: &mut Context<'_, DiscoMsg>) {
        match msg {
            // A lone route is a run of one (`on_run` reads no sizes).
            route @ DiscoMsg::Route(_) => self.on_run(from, &[(route, 0)], ctx),
            DiscoMsg::Forward { route, payload } => {
                let Some(remaining) = route.tail() else {
                    self.deliver(payload, ctx);
                    return;
                };
                let Some(next) = ctx.neighbor(remaining.first()) else {
                    return;
                };
                let size = 16 + 4 * remaining.len() + payload_bytes(&payload);
                ctx.send_resolved(
                    next,
                    DiscoMsg::Forward {
                        route: remaining,
                        payload,
                    },
                    size,
                );
            }
            DiscoMsg::Gossip(s) => {
                if !self.cfg.dynamic_n_estimation {
                    return;
                }
                if s.epoch() > self.synopsis.epoch() {
                    // A newer reset epoch supersedes the whole union:
                    // restart from our own sketch (so departed nodes'
                    // contributions age out), adopt the epoch, merge and
                    // re-flood. The halving floor keeps the estimate from
                    // collapsing while the new epoch's union regrows.
                    self.estimate_floor = (self.n_estimate / 2).max(2);
                    self.synopsis = self.my_sketch.clone();
                    self.synopsis.set_epoch(s.epoch());
                    self.synopsis.union(&s);
                    self.epoch_started = ctx.now();
                    self.gossip_flood(ctx);
                    self.apply_estimate(ctx);
                } else if s.epoch() == self.synopsis.epoch() && self.synopsis.would_grow(&s) {
                    // Synopsis diffusion: re-flood only when the union
                    // grew, so gossip quiesces once every node holds the
                    // epoch's global union. Stale-epoch gossip is ignored.
                    self.synopsis.union(&s);
                    self.gossip_flood(ctx);
                    self.apply_estimate(ctx);
                }
            }
        }
    }

    /// A run is absorbed where it lands: one path-vector context for the
    /// whole run, each route read in place. The actions go out in exactly
    /// the order per-message upcalls would record them: a route that
    /// moves the landmark version has what the run recorded so far relayed
    /// before its repair timer, and a gossip message (or any non-route)
    /// has it relayed before its own actions.
    fn on_run(&mut self, from: NodeId, run: &[(DiscoMsg, usize)], ctx: &mut Context<'_, DiscoMsg>) {
        let mut inner = Self::pv_context(ctx);
        for (msg, _) in run {
            let DiscoMsg::Route(ann) = msg else {
                Self::relay(&mut inner, ctx);
                self.on_message(from, msg.clone(), ctx);
                continue;
            };
            // A route update can change this node's *address* (closest
            // landmark or the path to it) without any local adjacency
            // change — e.g. a remote link failure rerouting the landmark
            // path — and a landmark-set change reshuffles
            // consistent-hashing ownership under everyone. Either way the
            // resolution database and overlay hold stale state, so treat
            // it like a neighbor event and schedule a (debounced) repair
            // pass. The path-vector's landmark version covers both causes
            // and costs one integer compare per message.
            let before = self.bootstrapped.then(|| self.pv.landmark_version());
            self.pv.on_announcement(from, ann, &mut inner);
            if before.is_some_and(|v| self.pv.landmark_version() != v) {
                Self::relay(&mut inner, ctx);
                self.schedule_repair(ctx);
            }
        }
        Self::relay(&mut inner, ctx);
        Self::pv_release(inner);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_, DiscoMsg>) {
        match token {
            TIMER_INSERT => self.do_insert(ctx),
            TIMER_LOOKUP => self.do_lookups(ctx),
            TIMER_DISSEMINATE => {
                self.do_disseminate(ctx);
                self.bootstrapped = true;
            }
            TIMER_REPAIR => self.do_repair(ctx),
            // Everything else (e.g. the path-vector batch flush) belongs to
            // the embedded path-vector node.
            other => self.run_pv(|pv, c| pv.on_timer(other, c), ctx),
        }
    }

    fn on_neighbor_up(&mut self, peer: NodeId, ctx: &mut Context<'_, DiscoMsg>) {
        self.run_pv(|pv, c| pv.on_neighbor_up(peer, c), ctx);
        if self.cfg.dynamic_n_estimation {
            // Bring the new neighbor (possibly a fresh joiner with only its
            // own sketch) up to date; it re-floods if its union grows.
            self.gossip_to(peer, ctx);
        }
        self.schedule_repair(ctx);
    }

    fn on_neighbor_down(&mut self, peer: NodeId, ctx: &mut Context<'_, DiscoMsg>) {
        self.run_pv(|pv, c| pv.on_neighbor_down(peer, c), ctx);
        if self.cfg.dynamic_n_estimation {
            // The peer may have departed; let the next repair pass start a
            // fresh synopsis epoch so the estimate can decay. Always record
            // the *current* epoch: a pending request from an older epoch
            // would be discarded at repair time if gossip has since moved
            // us forward, silently dropping this (newer) observation with
            // it — and the departed peer's sketch may be part of the
            // current epoch's union.
            self.epoch_reset_wanted = Some(self.synopsis.epoch());
        }
        self.schedule_repair(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disco_graph::generators;
    use disco_sim::{Engine, TopologyEvent};

    fn run_disco(
        n: usize,
        seed: u64,
        fingers: usize,
    ) -> (disco_sim::RunReport, Vec<usize>, usize, usize) {
        let g = generators::gnm_average_degree(n, 8.0, seed);
        let cfg = DiscoConfig::seeded(seed).with_fingers(fingers);
        let mut engine = Engine::new(&g, DiscoProtocol::network(n, &cfg));
        let report = engine.run();
        let group_counts: Vec<usize> = engine
            .nodes()
            .iter()
            .map(|p| p.group_addresses.len())
            .collect();
        let resolution_total: usize = engine
            .nodes()
            .iter()
            .map(|p| p.resolution_store.len())
            .sum();
        let with_overlay = engine
            .nodes()
            .iter()
            .filter(|p| p.overlay_neighbor_count() > 0)
            .count();
        (report, group_counts, resolution_total, with_overlay)
    }

    /// The factory builds landmarks exactly where `select_landmarks` puts
    /// them, every node anchored at the true `n` — node 0's fallback
    /// included, at a size and seed where no node elects itself.
    #[test]
    fn network_builds_the_selected_landmarks_at_the_true_n() {
        use crate::landmark::elects_itself;
        let small = 4;
        let nobody = (0..1000)
            .find(|&seed| {
                let cfg = DiscoConfig::seeded(seed);
                (0..small).all(|v| !elects_itself(NodeId(v), small, &cfg))
            })
            .expect("some seed elects nobody at n=4");
        for (n, seed) in [(256, 1), (small, nobody)] {
            let cfg = DiscoConfig::seeded(seed);
            let node = DiscoProtocol::network(n, &cfg);
            let nodes: Vec<DiscoProtocol> = (0..n).map(|v| node(NodeId(v))).collect();
            let built: Vec<NodeId> = (0..n)
                .map(NodeId)
                .filter(|v| nodes[v.0].landmark_status().is_landmark())
                .collect();
            assert_eq!(built, select_landmarks(n, &cfg), "n={n} seed={seed}");
            assert!(nodes
                .iter()
                .all(|p| p.landmark_status().n_at_last_decision() == n));
        }
        let cfg = DiscoConfig::seeded(nobody);
        assert_eq!(select_landmarks(small, &cfg), vec![NodeId(0)]);
    }

    /// Synopsis diffusion (§4.1) on the protocol's own gossip: booted to
    /// quiescence with the default config (live `n`-estimation on), every
    /// node of a connected G(n,m) holds the same union, and it estimates
    /// exactly what the union of all per-node synopses does.
    #[test]
    fn gossip_converges_to_the_global_union() {
        use crate::estimate_n::estimate_exact_union;
        for (n, seed) in [(128, 9), (96, 11), (256, 3)] {
            let g = generators::gnm_connected(n, 4 * n, seed);
            let cfg = DiscoConfig::seeded(seed);
            let mut engine = Engine::new(&g, DiscoProtocol::network(n, &cfg));
            assert!(engine.run().converged, "n={n} seed={seed}");
            let union = &engine.nodes()[0].synopsis;
            assert!(
                engine.nodes().iter().all(|p| &p.synopsis == union),
                "n={n} seed={seed}: nodes disagree on the union"
            );
            assert_eq!(union.estimate(), estimate_exact_union(n, seed));
        }
    }

    #[test]
    fn distributed_disco_converges_and_builds_state() {
        let n = 96;
        let (report, group_counts, resolution_total, with_overlay) = run_disco(n, 5, 1);
        assert!(report.converged);
        assert!(report.stats.total_sent() > 0);
        // The resolution database collectively holds (almost) every node.
        assert!(
            resolution_total >= n * 9 / 10,
            "resolution database holds only {resolution_total} entries"
        );
        // Most nodes found at least one overlay neighbor.
        assert!(
            with_overlay > n * 3 / 4,
            "only {with_overlay} nodes have overlay links"
        );
        // Dissemination delivered group addresses to a majority of nodes.
        let with_group_state = group_counts.iter().filter(|&&c| c > 0).count();
        assert!(
            with_group_state > n / 2,
            "only {with_group_state} nodes learned any group address"
        );
    }

    #[test]
    fn my_address_points_back_to_self_via_landmark() {
        let n = 64;
        let seed = 9;
        let g = generators::gnm_average_degree(n, 8.0, seed);
        let cfg = DiscoConfig::seeded(seed);
        let landmarks = select_landmarks(n, &cfg);
        let mut engine = Engine::new(&g, DiscoProtocol::network(n, &cfg));
        let report = engine.run();
        assert!(report.converged);
        for node in engine.nodes() {
            let addr = node.my_address().expect("address after convergence");
            assert_eq!(addr.path.last(), node.pv.id());
            assert_eq!(addr.path.first(), addr.landmark);
            assert!(landmarks.contains(&addr.landmark));
        }
    }

    #[test]
    fn dynamic_estimation_tracks_live_n_and_redraws_landmarks() {
        use crate::landmark::{elects_itself, select_landmarks_with_estimates};
        let n = 96;
        let seed = 11;
        let g = generators::gnm_average_degree(n, 8.0, seed);
        let cfg = DiscoConfig::seeded(seed).with_dynamic_n_estimation(true);
        // Every node boots believing the network is tiny: vicinity caps and
        // the landmark probability start badly mis-sized, and only the
        // synopsis gossip can fix them.
        let wrong = 4;
        let landmarks = select_landmarks_with_estimates(n, &cfg, |_| wrong);
        let lm_set = landmark_set(&landmarks);
        let initial_landmarks = landmarks.len();
        let mut engine = Engine::new(&g, |v| {
            DiscoProtocol::new(v, lm_set.contains(&v), wrong, &cfg, PhaseTimers::default())
        });
        let report = engine.run();
        assert!(report.converged, "gossip + repair must quiesce");
        for node in engine.nodes() {
            let est = node.live_estimate();
            assert!(
                est >= n / 2 && est <= n * 2,
                "estimate {est} far from true n={n}"
            );
            // Vicinity capacity follows the live estimate.
            assert_eq!(
                node.pv.table_limit(),
                crate::path_vector::TableLimit::VicinityCap {
                    size: cfg.vicinity_size(est)
                }
            );
            // Landmark duty agrees with the hysteresis status, whose last
            // decision is anchored within x2 of the final estimate.
            assert_eq!(node.pv.is_landmark(), node.landmark_status().is_landmark());
            let anchor = node.landmark_status().n_at_last_decision();
            assert!(
                (est as f64) < anchor as f64 * 2.0 && (est as f64) > anchor as f64 / 2.0,
                "anchor {anchor} not within x2 of estimate {est}"
            );
            assert_eq!(
                node.landmark_status().is_landmark(),
                elects_itself(node.pv.id(), anchor, &cfg)
            );
        }
        // The mis-sized initial election (p drawn for n=4) over-elected;
        // the re-draws under the real n must thin the landmark set.
        let final_landmarks = engine.nodes().iter().filter(|p| p.pv.is_landmark()).count();
        assert!(
            final_landmarks < initial_landmarks,
            "landmarks did not thin: {initial_landmarks} -> {final_landmarks}"
        );
        assert!(final_landmarks > 0, "someone must still serve as landmark");
    }

    /// Regression test: parameter changes driven by a gossip sketch that
    /// arrives *after* the route plane has quiesced must still be exported
    /// (the resize/demotion queues table changes; `apply_estimate` has to
    /// arm the path-vector batch flush itself, since no route traffic is
    /// flowing to do it as a side effect).
    #[test]
    fn late_gossip_estimate_change_exports_table_changes() {
        let n = 24;
        let seed = 21;
        let g = generators::gnm_average_degree(n, 6.0, seed);
        let cfg = DiscoConfig::seeded(seed).with_dynamic_n_estimation(true);
        let landmarks = select_landmarks(n, &cfg);
        let mut engine = Engine::new(&g, DiscoProtocol::network(n, &cfg));
        assert!(engine.run().converged);

        // A sketch claiming a much larger network arrives at node 0 out of
        // the blue: the estimate jumps far past the x2 threshold and the
        // vicinity cap grows, admitting waiting candidates.
        let mut big = crate::estimate_n::Synopsis::empty();
        for i in 1000..1400 {
            big.union(&crate::estimate_n::Synopsis::for_node(NodeId(i), cfg.seed));
        }
        let nb = g.neighbors(NodeId(0))[0].node;
        engine.inject_message(nb, NodeId(0), DiscoMsg::Gossip(big), 0.1);
        assert!(
            engine.run_until(|_| false),
            "post-gossip repair must quiesce"
        );

        let est = engine.nodes()[0].live_estimate();
        assert!(est > 2 * n, "estimate did not absorb the sketch: {est}");
        assert_eq!(
            engine.nodes()[0].pv.table_limit(),
            TableLimit::VicinityCap {
                size: cfg.vicinity_size(est)
            }
        );
        // The jump drops the landmark probability several-fold, so some of
        // the initially-elected landmarks must have stepped down...
        let demoted: Vec<NodeId> = landmarks
            .iter()
            .copied()
            .filter(|&v| !engine.nodes()[v.0].pv.is_landmark())
            .collect();
        assert!(
            !demoted.is_empty(),
            "expected demotions when the estimate grows {n} -> {est}"
        );
        // ...and — the regression — every demotion was *exported*: at
        // quiescence no other node still flags a demoted node as landmark.
        // Without the explicit export arm in `apply_estimate` the demoted
        // self-entry sits in `pending` forever (no route traffic is
        // flowing to flush it) and this stale flag survives.
        for &v in &demoted {
            for x in g.nodes() {
                if x == v {
                    continue;
                }
                if let Some(e) = engine.nodes()[x.0].pv.route(v) {
                    assert!(
                        !e.dest_is_landmark,
                        "{x} still flags demoted {v} as a landmark"
                    );
                }
            }
        }
    }

    /// The FM union is monotone, so without epoch resets the estimate of
    /// `n` could never fall. Halving the network must halve the estimate
    /// (within FM noise and the per-epoch halving floor).
    #[test]
    fn mass_departure_shrinks_live_estimate() {
        use disco_sim::TopologyEvent;
        let n = 96;
        let seed = 13;
        let g = generators::gnm_average_degree(n, 8.0, seed);
        let cfg = DiscoConfig::seeded(seed).with_dynamic_n_estimation(true);
        let mut engine = Engine::new(&g, DiscoProtocol::network(n, &cfg));
        assert!(engine.run().converged);
        let before = engine.nodes()[0].live_estimate();
        assert!(before >= n / 2, "converged estimate {before} implausible");

        // Half the network leaves for good.
        let t0 = engine.now() + 5.0;
        for (i, v) in (n / 2..n).enumerate() {
            engine.schedule_topology(t0 + i as f64, TopologyEvent::NodeLeave { node: NodeId(v) });
        }
        assert!(
            engine.run_until(|_| false),
            "post-departure repair quiesces"
        );

        let live: Vec<&DiscoProtocol> = engine
            .active_nodes()
            .map(|v| &engine.nodes()[v.0])
            .collect();
        assert_eq!(live.len(), n / 2);
        // Every survivor moved to a reset epoch...
        for p in &live {
            assert!(p.synopsis_epoch() > 0, "no synopsis reset happened");
        }
        // ...and the estimates fell. (Mean over survivors: individual FM
        // unions of islands may vary; the halving floor bounds the decay
        // per epoch.)
        let mean_after: f64 =
            live.iter().map(|p| p.live_estimate() as f64).sum::<f64>() / live.len() as f64;
        assert!(
            mean_after < 0.8 * before as f64,
            "estimate did not fall: {before} -> mean {mean_after:.1}"
        );
        assert!(mean_after >= 2.0);
        // The vicinity cap tracks the fallen estimate.
        for p in &live {
            assert_eq!(
                p.pv.table_limit(),
                TableLimit::VicinityCap {
                    size: cfg.vicinity_size(p.live_estimate())
                }
            );
        }
    }

    /// Regression: the halving floor must *decay* across epochs, not pin
    /// the estimate. A single departure burst shrinking the network by 4×
    /// once left every survivor clamped at half the pre-departure
    /// estimate forever (the floor was set on reset but never released);
    /// the repair-pass decay chain now halves it per epoch until the
    /// fresh union catches up.
    #[test]
    fn floor_decays_past_one_halving_after_4x_shrink() {
        use disco_sim::TopologyEvent;
        let n = 96;
        let seed = 17;
        let g = generators::gnm_average_degree(n, 8.0, seed);
        let cfg = DiscoConfig::seeded(seed).with_dynamic_n_estimation(true);
        let mut engine = Engine::new(&g, DiscoProtocol::network(n, &cfg));
        assert!(engine.run().converged);
        let before = engine.nodes()[0].live_estimate();

        // Three quarters of the network leaves.
        let t0 = engine.now() + 5.0;
        for (i, v) in (n / 4..n).enumerate() {
            engine.schedule_topology(
                t0 + i as f64 * 0.5,
                TopologyEvent::NodeLeave { node: NodeId(v) },
            );
        }
        assert!(
            engine.run_until(|_| false),
            "post-departure repair quiesces"
        );

        let live: Vec<usize> = engine
            .active_nodes()
            .map(|v| engine.nodes()[v.0].live_estimate())
            .collect();
        assert_eq!(live.len(), n / 4);
        let mean = live.iter().map(|&e| e as f64).sum::<f64>() / live.len() as f64;
        // A permanently-pinned floor would sit at exactly before/2; the
        // decay chain must fall well below that, toward the true n/4.
        assert!(
            mean < 0.4 * before as f64,
            "estimate stuck above one halving: {before} -> mean {mean:.1}"
        );
        assert!(mean >= 2.0);
    }

    /// The emergency self-election of `do_repair`, end to end: two cliques
    /// joined by a bridge, static `n`, the only landmark on one side. Cut
    /// the bridge and the far side must notice it lost every landmark,
    /// elect among itself, and have every one of its nodes learn whoever
    /// was elected — flagged by the elected node's own announcement — and
    /// re-derive an address under it. (Seed 3 elects one node, seed 0
    /// three at once.) Restore the bridge and the two sides must merge:
    /// one landmark set, one owner per name, and every name's current
    /// address at its owner.
    #[test]
    fn partitioned_island_elects_a_landmark_and_readdresses() {
        use disco_graph::GraphBuilder;
        use disco_sim::TopologyEvent;
        let k = 6;
        let mut b = GraphBuilder::new(2 * k);
        for side in [0, k] {
            for u in side..side + k {
                for v in u + 1..side + k {
                    b.add_edge(NodeId(u), NodeId(v), 1.0);
                }
            }
        }
        b.add_edge(NodeId(k - 1), NodeId(k), 1.0);
        let g = b.build();
        let landmarks = |p: &DiscoProtocol| -> Vec<NodeId> {
            let mut lms: Vec<NodeId> = p.pv.landmark_entries().map(|(lm, _)| lm).collect();
            lms.sort_unstable();
            lms
        };
        for (seed, elects) in [(3, 1), (0, 3)] {
            let cfg = DiscoConfig::seeded(seed).with_dynamic_n_estimation(false);
            let mut engine = Engine::new(&g, |v| {
                DiscoProtocol::new(v, v == NodeId(0), 2 * k, &cfg, PhaseTimers::default())
            });
            assert!(engine.run().converged);
            for node in engine.nodes() {
                assert_eq!(landmarks(node), vec![NodeId(0)]);
            }

            engine.schedule_topology(
                engine.now() + 5.0,
                TopologyEvent::LinkDown {
                    u: NodeId(k - 1),
                    v: NodeId(k),
                },
            );
            assert!(engine.run_until(|_| false), "the partition must quiesce");

            let (mainland, island) = engine.nodes().split_at(k);
            let elected: Vec<NodeId> = island
                .iter()
                .filter(|p| p.pv.is_landmark())
                .map(|p| p.pv.id())
                .collect();
            assert_eq!(elected.len(), elects, "seed {seed} elected {elected:?}");
            for node in island {
                let v = node.pv.id();
                assert_eq!(landmarks(node), elected, "{v}'s landmark set");
                let addr = node.my_address().expect("an address under the elected");
                assert!(elected.contains(&addr.landmark));
                assert_eq!(addr.path.first(), addr.landmark);
                assert_eq!(addr.path.last(), v);
            }
            // The landmark's own side keeps it and learns nobody new.
            for node in mainland {
                assert_eq!(landmarks(node), vec![NodeId(0)]);
            }

            // Heal the bridge: both sides learn every landmark, agree on
            // which one owns each name, and that owner stores the name's
            // current address.
            engine.schedule_topology(
                engine.now() + 5.0,
                TopologyEvent::LinkUp {
                    u: NodeId(k - 1),
                    v: NodeId(k),
                    weight: 1.0,
                },
            );
            assert!(engine.run_until(|_| false), "the heal must quiesce");
            let mut all = elected;
            all.insert(0, NodeId(0));
            let nodes = engine.nodes();
            for node in nodes {
                assert_eq!(landmarks(node), all, "{}'s landmark set", node.pv.id());
            }
            for target in nodes {
                let v = target.pv.id();
                let hash = target.my_hash();
                let owner = nodes[0].owner_landmark(hash).expect("an owner");
                for node in nodes {
                    assert_eq!(node.owner_landmark(hash), Some(owner), "owner of {v}");
                }
                let addr = target.my_address().expect("an address");
                assert_eq!(
                    nodes[owner.0].resolution_store.get(&hash),
                    Some(&addr),
                    "{owner} stores {v}'s current address"
                );
            }
        }
    }

    #[test]
    fn more_fingers_means_more_messages() {
        let n = 80;
        let (r1, ..) = run_disco(n, 7, 1);
        let (r3, ..) = run_disco(n, 7, 3);
        assert!(r1.converged && r3.converged);
        assert!(
            r3.stats.total_sent() > r1.stats.total_sent(),
            "3 fingers {} should exceed 1 finger {}",
            r3.stats.total_sent(),
            r1.stats.total_sent()
        );
    }

    /// A mixed run handed to `on_run` records exactly what per-message
    /// upcalls on an identical node record, in the same order: a booted
    /// node gets, from the neighbor its closest-landmark route leaves
    /// through, that route's withdrawal (the landmark version moves, so a
    /// repair timer), a gossip round of a newer epoch (a flood) and a
    /// refresh request (a unicast answer).
    #[test]
    fn a_mixed_run_records_what_per_message_upcalls_record() {
        let (n, seed) = (32, 5);
        let g = generators::gnm_average_degree(n, 6.0, seed);
        let cfg = DiscoConfig::seeded(seed);
        let booted = || {
            let mut engine = Engine::new(&g, DiscoProtocol::network(n, &cfg));
            assert!(engine.run().converged);
            engine
        };
        let (mut a, mut b) = (booted(), booted());
        let (v, lm, from) = a
            .nodes()
            .iter()
            .find_map(|p| {
                let me = p.pv.id();
                let (lm, _) = p.pv.landmark_entries().find(|&(l, _)| l != me)?;
                Some((me, lm, p.pv.route(lm)?.next_hop))
            })
            .expect("a node with a route to another landmark");
        assert!(a.nodes()[v.0].bootstrapped);
        let ann = |dest: NodeId, withdrawn: bool, refresh: bool| Announcement {
            dest,
            dist: f64::INFINITY,
            path: InternedPath::from_slice(&[from, dest]),
            dest_is_landmark: false,
            dest_landmark_dist: f64::INFINITY,
            withdrawn,
            refresh,
        };
        let mut gossip = a.nodes()[v.0].synopsis.clone();
        gossip.set_epoch(gossip.epoch() + 1);
        let run = [
            (DiscoMsg::Route(ann(lm, true, false)), 0),
            (DiscoMsg::Gossip(gossip), 0),
            (DiscoMsg::Route(ann(v, false, true)), 0),
        ];
        let via = *g.neighbors(v).iter().find(|nb| nb.node == from).unwrap();
        let context = || {
            let mut ctx = Context::new(v, 500.0, &g);
            ctx.set_via(Some(via));
            ctx
        };
        let (mut by_run, mut by_message) = (context(), context());
        let version = a.nodes()[v.0].pv.landmark_version();
        a.nodes_mut()[v.0].on_run(from, &run, &mut by_run);
        for (msg, _) in &run {
            b.nodes_mut()[v.0].on_message(from, msg.clone(), &mut by_message);
        }
        assert_ne!(a.nodes()[v.0].pv.landmark_version(), version);
        let recorded = |ctx: &mut Context<'_, DiscoMsg>| {
            let actions: Vec<_> = ctx.drain_actions().collect();
            format!("{actions:?}")
        };
        let (got, want) = (recorded(&mut by_run), recorded(&mut by_message));
        assert_eq!(got, want);
        // Not vacuous: the repair timer comes before the gossip flood, and
        // the refresh answer last.
        let at = |needle: &str| got.find(needle).expect(needle);
        let repair = at(&format!("token: {TIMER_REPAIR}"));
        assert!(
            repair < at("Gossip") && at("Gossip") < at("Send {"),
            "{got}"
        );
    }

    /// `DiscoProtocol` with the default `on_run` — every message cloned
    /// into `on_message`.
    struct PerMessage(DiscoProtocol);

    impl Protocol for PerMessage {
        type Message = DiscoMsg;
        fn on_start(&mut self, ctx: &mut Context<'_, DiscoMsg>) {
            self.0.on_start(ctx);
        }
        fn on_message(&mut self, from: NodeId, msg: DiscoMsg, ctx: &mut Context<'_, DiscoMsg>) {
            self.0.on_message(from, msg, ctx);
        }
        fn on_timer(&mut self, token: u64, ctx: &mut Context<'_, DiscoMsg>) {
            self.0.on_timer(token, ctx);
        }
        fn on_neighbor_up(&mut self, peer: NodeId, ctx: &mut Context<'_, DiscoMsg>) {
            self.0.on_neighbor_up(peer, ctx);
        }
        fn on_neighbor_down(&mut self, peer: NodeId, ctx: &mut Context<'_, DiscoMsg>) {
            self.0.on_neighbor_down(peer, ctx);
        }
    }

    /// What a node serves and knows, for comparing two runs.
    fn served(p: &DiscoProtocol) -> String {
        let mut rows = Vec::new();
        p.pv.for_each_route_by_id(|d, hop, hops| rows.push((d, hop, hops)));
        let mut stored: Vec<_> = p.resolution_store.iter().collect();
        stored.sort_by_key(|(hash, _)| **hash);
        let mut group: Vec<_> = p.group_addresses.iter().collect();
        group.sort_by_key(|(id, _)| **id);
        format!(
            "{rows:?} {:?} {stored:?} {:?} {group:?} {} {}",
            p.pv.landmark_entries().collect::<Vec<_>>(),
            p.overlay_neighbors,
            p.live_estimate(),
            p.repair_epoch,
        )
    }

    /// Through the engine, with live n-estimation on (every boot's first
    /// flush is a mixed run: the node's own route, then its gossip) and
    /// links and a node failing after the bootstrap (routes that move
    /// landmark versions mid-run): `on_run` and per-message upcalls end in
    /// the same state, with the same messages.
    #[test]
    fn mixed_runs_absorbed_in_place_equal_per_message_upcalls() {
        let (n, seed) = (40, 3);
        let g = generators::gnm_average_degree(n, 6.0, seed);
        let cfg = DiscoConfig::seeded(seed);
        let node = DiscoProtocol::network(n, &cfg);
        // After the bootstrap (t = 110): node 3's, 13's and 28's first
        // links fail, nodes 8 and 23 leave.
        let script: Vec<(f64, TopologyEvent)> = [3, 8, 13, 23, 28]
            .into_iter()
            .enumerate()
            .map(|(i, k)| {
                let u = NodeId(k);
                let event = if i % 2 == 0 {
                    TopologyEvent::LinkDown {
                        u,
                        v: g.neighbors(u)[0].node,
                    }
                } else {
                    TopologyEvent::NodeLeave { node: u }
                };
                (130.0 + 17.0 * i as f64, event)
            })
            .collect();
        let mut by_run = Engine::new(&g, &node);
        let mut by_message = Engine::new(&g, |v| PerMessage(node(v)));
        for (t, ev) in &script {
            by_run.schedule_topology(*t, ev.clone());
            by_message.schedule_topology(*t, ev.clone());
        }
        let (got, want) = (by_run.run(), by_message.run());
        assert!(got.converged && want.converged);
        assert_eq!(got.stats, want.stats);
        assert_eq!(
            (
                got.messages_delivered,
                got.messages_dropped,
                got.end_time.to_bits()
            ),
            (
                want.messages_delivered,
                want.messages_dropped,
                want.end_time.to_bits()
            )
        );
        assert!(got.messages_dropped > 0, "no message was lost in flight");
        for (a, b) in by_run.nodes().iter().zip(by_message.nodes()) {
            assert_eq!(served(a), served(&b.0), "node {}", a.pv.id());
        }
    }
}
