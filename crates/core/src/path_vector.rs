//! The bounded path-vector protocol that learns landmark and vicinity
//! routes (paper §4.2, "Learning paths to landmarks and vicinities").
//!
//! "Nodes learn shortest paths to landmarks and vicinities via a single,
//! standard path vector routing protocol. When learning paths, a route
//! announcement is accepted into v's routing table if and only if the
//! route's destination is a landmark or one of the Θ(√(n log n)) closest
//! nodes currently advertised to v. The entire routing table is then
//! exported to v's neighbors."
//!
//! The same machinery, with a different acceptance rule, also implements
//! the protocols Disco is compared against:
//!
//! * [`TableLimit::Unlimited`] — classic path-vector / shortest-path
//!   routing (every destination accepted), the paper's `Path-vector` curve,
//! * [`TableLimit::VicinityCap`] — NDDisco / Disco's rule (landmarks plus
//!   the `k` closest destinations),
//! * [`TableLimit::Cluster`] — S4's rule (landmarks plus every destination
//!   closer to the node than to its own landmark), which is what breaks
//!   S4's per-node state bound.
//!
//! Each route announcement forwarded to one neighbor counts as one message;
//! the per-node totals until quiescence are the quantity plotted in the
//! paper's Fig. 8.
//!
//! ## Dynamics
//!
//! Since the dynamics subsystem landed, the node is a *repairing* path
//! vector: it keeps one candidate route per (neighbor, destination) — a
//! per-neighbor Adj-RIB-In, exactly like BGP — and its routing table is
//! always the deterministic best selection over those candidates filtered
//! through the table limit. Any change to the candidate set (a better
//! announcement, an explicit withdrawal, a neighbor link going down) makes
//! the node re-select and export the *difference*: fresh announcements for
//! routes that changed, withdrawals ([`Announcement::withdrawn`]) for
//! routes that disappeared. This is what lets routes heal after the engine
//! applies churn, failure or mobility events — the original seed
//! implementation propagated only monotone improvements and could never
//! un-learn a dead route.
//!
//! ## Forgetful routing (§4.2)
//!
//! The candidate store is the compact [`RibStore`]
//! (struct-of-arrays per-neighbor slabs — see [`crate::rib`]). On top of
//! it, [`PathVectorNode::set_forgetful_rib`] enables the paper's forgetful
//! eviction: for each destination only the *selected* route plus a bounded
//! alternate set is retained — destinations resident in the routing table
//! (landmarks and vicinity members) keep `alternates` failover candidates,
//! everything else keeps the selected route alone — cutting control state
//! from `Θ(δ·dests)` back to the paper's `Θ(√(n log n))` bound. When a
//! withdrawal (or link loss) forces a re-selection for a destination whose
//! alternates were forgotten, the node *re-solicits*: a route-refresh
//! request ([`Announcement::refresh`]) is batched onto the next export
//! flush and flooded to the neighbors, which answer with their current
//! route for that destination. Refreshes ride the same MRAI-style batch as
//! withdrawals, so repair cascades stay polynomial.

use crate::rib::{preferred_parts, Candidate, RibStats, RibStore, SelectedRoute};
use disco_graph::{InternedPath, NodeId, Weight};
use disco_sim::{Context, Protocol};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};

/// Selection writes a node's journal remembers
/// ([`PathVectorNode::writes_since`]): 64 `u32` destination keys, 256 B a
/// node. On `repair` a republish is a median 5 writes behind the buffer it
/// patches and 94 % are within 31; 128 entries compiled no faster.
const JOURNAL_LEN: u64 = 64;

/// Next node incarnation: the high half of a new node's
/// `selection_revision`, so no two nodes this process ever builds — a
/// rejoined node and the dead one whose id (and published tables) it takes
/// over included — count through the same revisions. Starts at 1: revision
/// 0 is a never-compiled table's. `Relaxed`: the counter hands out
/// distinct numbers and publishes nothing else.
static NEXT_INCARNATION: AtomicU64 = AtomicU64::new(1);

/// One ordered mirror of [`PathVectorNode`]'s selections: a sorted array
/// of packed 12-byte `(dist bits hi, dist bits lo, destination id)` keys.
/// Non-negative finite `f64`s order like their bit patterns, so the
/// array's lexicographic order is exactly `(dist, NodeId)`. Gives back
/// half its capacity when its length falls under a quarter of it, so a
/// transient peak (a boot's waiting list) is not held for good.
#[derive(Debug, Clone, Default)]
struct Mirror(Vec<[u32; 3]>);

impl Mirror {
    /// The key `d` at distance `dist` is filed under.
    #[inline]
    fn key(dist: Weight, d: NodeId) -> [u32; 3] {
        debug_assert!(
            dist.is_finite() && dist.is_sign_positive(),
            "route weights are finite and non-negative"
        );
        let bits = dist.to_bits();
        [(bits >> 32) as u32, bits as u32, PathVectorNode::dkey(d)]
    }

    /// The `(destination, distance)` a key encodes.
    #[inline]
    fn entry(k: &[u32; 3]) -> (NodeId, Weight) {
        let bits = (u64::from(k[0]) << 32) | u64::from(k[1]);
        (NodeId(k[2] as usize), f64::from_bits(bits))
    }

    fn insert(&mut self, dist: Weight, d: NodeId) {
        let k = Self::key(dist, d);
        let at = self.0.binary_search(&k).expect_err("a key is filed once");
        self.0.insert(at, k);
    }

    fn remove(&mut self, dist: Weight, d: NodeId) {
        let at = self
            .0
            .binary_search(&Self::key(dist, d))
            .expect("a removed key is filed");
        self.0.remove(at);
        if self.0.len() < self.0.capacity() / 4 {
            self.0.shrink_to(self.0.capacity() / 2);
        }
    }

    #[cfg(test)]
    fn contains(&self, dist: Weight, d: NodeId) -> bool {
        self.0.binary_search(&Self::key(dist, d)).is_ok()
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    /// Heap bytes held: the capacity, not the length.
    fn bytes(&self) -> usize {
        self.0.capacity() * std::mem::size_of::<[u32; 3]>()
    }

    /// The filed destinations with their distances, closest first, ties
    /// by smaller id.
    fn iter(&self) -> impl DoubleEndedIterator<Item = (NodeId, Weight)> + '_ {
        self.0.iter().map(Self::entry)
    }
}

/// Acceptance rule for destinations other than landmarks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TableLimit {
    /// Accept every destination (classic path vector).
    Unlimited,
    /// Accept landmarks plus at most `size` closest destinations
    /// (NDDisco / Disco vicinities).
    VicinityCap {
        /// Maximum number of non-landmark entries.
        size: usize,
    },
    /// Accept landmarks plus destinations closer to this node than to their
    /// own closest landmark (S4 clusters).
    Cluster,
}

/// One route announcement: "I can reach `dest` over `path` at cost `dist`"
/// — or, when `withdrawn` is set, "I no longer export a route to `dest`" —
/// or, when `refresh` is set, "please re-send me your current route to
/// `dest`" (forgetful routing's re-solicitation; the other fields are
/// ignored).
///
/// The path is interned ([`InternedPath`]): cloning an announcement for
/// each neighbor is a reference-count bump, not a `Vec` copy — the
/// dominant allocation of churn runs before interning landed.
#[derive(Debug, Clone)]
pub struct Announcement {
    /// The destination the route leads to.
    pub dest: NodeId,
    /// Distance from the announcing node to `dest`.
    pub dist: Weight,
    /// Path from the announcing node to `dest` (announcer first).
    pub path: InternedPath,
    /// Whether the destination is a landmark.
    pub dest_is_landmark: bool,
    /// The destination's current distance to its own closest landmark
    /// (`∞` until it has one); needed by the S4 cluster rule.
    pub dest_landmark_dist: Weight,
    /// Withdrawal flag: the announcer no longer exports a route to `dest`
    /// (the fields above describe the last exported route).
    pub withdrawn: bool,
    /// Route-refresh request (BGP route-refresh style): the sender
    /// forgot its alternates for `dest` and asks this neighbor to
    /// re-announce its current route. Answered with a unicast
    /// announcement; ignored by nodes with no route to `dest`.
    pub refresh: bool,
}

/// A path-vector node with a configurable acceptance rule.
#[derive(Debug, Clone)]
pub struct PathVectorNode {
    id: NodeId,
    is_landmark: bool,
    limit: TableLimit,
    /// Per-neighbor candidate routes (Adj-RIB-In): the last usable route
    /// each neighbor announced for each destination, with `dist` already
    /// including the link weight and `path` starting at this node. Stored
    /// compactly ([`RibStore`]: per-neighbor SoA slabs over interned
    /// destination indexes) — candidate storage dominates control-plane
    /// memory, so every byte is multiplied by `degree × dests × n`.
    rib: RibStore,
    /// Forgetful routing (§4.2): when set, each destination retains only
    /// the selected route plus this many alternates (table-resident
    /// destinations only; everything else keeps the selected route alone).
    /// `None` = classic full Adj-RIB-In.
    forgetful: Option<usize>,
    /// Destinations whose forgotten alternates must be re-solicited from
    /// the neighbors on the next batch flush.
    pending_refresh: BTreeSet<NodeId>,
    /// Route-refresh requests sent / answered (repair-traffic gauges).
    refreshes_sent: u64,
    refreshes_answered: u64,
    /// This node's own zero-length path, installed by `on_start`; `None`
    /// before, when the node exports nothing — not even itself. The self
    /// route is otherwise derived ([`Self::route`]): distance 0, flag
    /// `is_landmark`, landmark distance `own_landmark_dist`.
    self_path: Option<InternedPath>,
    /// Neither the Loc-RIB nor the routing table is stored here: both are
    /// columns of the [`RibStore`]. The Loc-RIB is the per-destination
    /// selection (see [`RibStore::selected_view`]), maintained
    /// incrementally through [`Self::select_candidate`] and the rescan in
    /// [`Self::update_dest`] so a message costs O(degree), not O(all
    /// candidates); the routing table is the subset of selected routes
    /// [`Self::apply_selection`] marks *resident* — §4.2's acceptance rule
    /// is a filter over the selection, not a second copy of it.
    ///
    /// Ordered mirrors that turn the per-message O(table) / O(best) scans
    /// of cap admission into a binary search and an end read. Together
    /// they partition the selected destinations, each filed as `(dist,
    /// id)` under the selection's `(landmark flag, resident mark)`:
    ///
    /// * flag set → `lm_best` (min = this node's own landmark distance;
    ///   every limit admits landmarks, so outside a re-derivation these
    ///   are all resident),
    /// * flag clear, resident → `locals` (max = the cap's eviction
    ///   candidate),
    /// * flag clear, not resident → `waiting` (min = the cap's best
    ///   waiting candidate).
    ///
    /// [`Self::refile`] is the only writer. A writer reads the `(dist,
    /// flag, resident)` a selection had before it touches either field,
    /// and refiles once after: the key moves only when one of the three
    /// did (most writes during a boot put back the very key they would
    /// have taken out), and a cleared selection loses its key before
    /// anything reads `lm_best` or `waiting`. Until then the old key stays
    /// filed while [`Self::apply_selection`] tests admission, which reads
    /// only `locals` — and only when `d` was not a resident local (that
    /// case short-circuits), so its old key sits in `waiting` or
    /// `lm_best`, never in `locals`. Keys carry destination ids, *not*
    /// interned RIB indexes: the `(dist, id)` order must equal the `(dist,
    /// NodeId)` order — distance ties are everywhere on unit-weight graphs
    /// and the tie-break decides cap admission — and intern order is
    /// arrival order, which would reorder ties and change converged
    /// tables.
    locals: Mirror,
    /// See `locals`.
    waiting: Mirror,
    /// See `locals`.
    lm_best: Mirror,
    /// Distance to this node's own closest landmark (0 for landmarks, `∞`
    /// while none is reachable); re-announced whenever it changes since the
    /// cluster rule keys on it.
    own_landmark_dist: Weight,
    /// Destinations whose exported state changed since the last flush
    /// (flushed by the batch timer, BGP-MRAI style — see `BATCH_TIMER`).
    /// An unordered set: per-change inserts are the hot side (every table
    /// admission/eviction under convergence), so membership is hashed and
    /// the deterministic export order is imposed once per flush by
    /// sorting into the reusable dump scratch.
    pending: disco_graph::FxHashSet<NodeId>,
    /// Bumped whenever a landmark-flagged table entry is added, removed or
    /// updated — membership changes *and* route updates to a landmark that
    /// stays one. Composite protocols watch this to notice that the
    /// landmark set (consistent-hashing ownership of resolution shards) or
    /// this node's own address (closest landmark + path) may have changed,
    /// without recomputing either per message.
    landmark_version: u64,
    /// Bumped only when the landmark *set* this node knows changes: a
    /// destination enters or leaves `lm_best`, or this node's own status
    /// flips. A compiled landmark ring is a function of that set alone, so
    /// a table stamped with this version keeps its ring until it moves.
    landmark_set_version: u64,
    /// Bumped whenever a selection column is (re)written — i.e. whenever
    /// this node's selected next hop for some destination may have moved —
    /// by [`Self::bump_revision`] alone. The engine samples it around
    /// upcalls to feed the repair-latency telemetry probe and the data
    /// plane republishes on it; it never influences protocol behavior.
    /// Only ever compared for equality and distance: the high half is this
    /// node's incarnation (`NEXT_INCARNATION`), the low half counts.
    selection_revision: u64,
    /// The destination key written at each of the last `JOURNAL_LEN`
    /// revision bumps, `journal[r % JOURNAL_LEN]` for the bump from `r`:
    /// what lets a forwarding compile patch a table stamped with a recent
    /// revision instead of rewriting it ([`Self::writes_since`]). One
    /// store per selection write, no stamps, no allocation.
    journal: [u32; JOURNAL_LEN as usize],
    /// Whether a batch flush timer is armed.
    batch_armed: bool,
    /// Reusable scratch for [`Self::send_table_to`]: the sorted export
    /// order of the table's destinations, rebuilt in place per dump
    /// instead of allocating a fresh key vector for every new peer (a
    /// joiner with `k` links triggers `2k` full-table dumps).
    dump_scratch: Vec<NodeId>,
    /// Minimum interval between export floods. Batching is what keeps
    /// withdrawal cascades polynomial: without it, path hunting explores
    /// exponentially many stale alternatives one message at a time; with
    /// it, each node exports at most one coalesced update per destination
    /// per round, so a cascade dies within max-path-length rounds.
    pub batch_delay: f64,
}

/// Timer token used by the path-vector batch flush. Composite protocols
/// embedding a [`PathVectorNode`] must deliver timers with this token back
/// to [`Protocol::on_timer`] (see `DiscoProtocol::run_pv`).
pub const BATCH_TIMER: u64 = 0x7076_0001; // "pv"

impl PathVectorNode {
    /// Create the node. `is_landmark` is this node's own (locally decided)
    /// landmark status; `limit` is the acceptance rule.
    pub fn new(id: NodeId, is_landmark: bool, limit: TableLimit) -> Self {
        PathVectorNode {
            id,
            is_landmark,
            limit,
            rib: RibStore::new(),
            forgetful: None,
            pending_refresh: BTreeSet::new(),
            refreshes_sent: 0,
            refreshes_answered: 0,
            locals: Mirror::default(),
            waiting: Mirror::default(),
            lm_best: Mirror::default(),
            self_path: None,
            own_landmark_dist: if is_landmark { 0.0 } else { Weight::INFINITY },
            pending: disco_graph::FxHashSet::default(),
            landmark_version: 0,
            landmark_set_version: 0,
            selection_revision: NEXT_INCARNATION.fetch_add(1, Ordering::Relaxed) << 32,
            journal: [0; JOURNAL_LEN as usize],
            batch_armed: false,
            dump_scratch: Vec::new(),
            batch_delay: 2.0,
        }
    }

    /// Version counter of this node's landmark *routes*: bumped when a
    /// landmark appears in or disappears from the table and when the route
    /// to one that stays is updated — either can move this node's address.
    pub fn landmark_version(&self) -> u64 {
        self.landmark_version
    }

    /// Version counter of this node's landmark *set*: bumped only when a
    /// landmark appears in or disappears from [`Self::landmark_entries`].
    pub fn landmark_set_version(&self) -> u64 {
        self.landmark_set_version
    }

    /// Monotone counter of selection-column writes (route selection
    /// changes); the engine's telemetry layer reads this through
    /// [`Protocol::control_revision`]. Distinct from every revision of
    /// every other node this process built, an earlier incarnation of this
    /// node id included.
    pub fn selection_revision(&self) -> u64 {
        self.selection_revision
    }

    /// Count one selection write — of `d`'s row, or for `d` = this node
    /// (which never has one) of what a compile emits beside the rows — and
    /// journal it.
    #[inline]
    fn bump_revision(&mut self, d: NodeId) {
        self.journal[(self.selection_revision % JOURNAL_LEN) as usize] = Self::dkey(d);
        self.selection_revision += 1;
    }

    /// The destinations written since this node was at `revision`, oldest
    /// first (one per write, so a destination can repeat): every row of
    /// [`Self::for_each_route_by_id`] that differs from what it was then
    /// is among them. `None` when the journal does not reach that far
    /// back, or `revision` is not one this node was ever at.
    pub fn writes_since(&self, revision: u64) -> Option<impl Iterator<Item = NodeId> + '_> {
        let behind = self.selection_revision.wrapping_sub(revision);
        (behind <= JOURNAL_LEN).then(|| {
            (revision..self.selection_revision)
                .map(|r| NodeId(self.journal[(r % JOURNAL_LEN) as usize] as usize))
        })
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Whether this node is a landmark.
    pub fn is_landmark(&self) -> bool {
        self.is_landmark
    }

    /// Distance to this node's closest landmark (∞ if none learned yet;
    /// 0 for landmarks).
    pub fn own_landmark_distance(&self) -> Weight {
        self.own_landmark_dist
    }

    /// Number of entries in the routing table (excluding the self entry).
    pub fn table_size(&self) -> usize {
        self.locals.len() + self.lm_best.len()
    }

    /// The routing-table entry for `dest` — exactly what this node exports
    /// for it: the selected route if the table limit admitted it, this
    /// node's own zero-length route for `dest == id` (once started).
    pub fn route(&self, dest: NodeId) -> Option<SelectedRoute<'_>> {
        if dest != self.id {
            return self.rib.resident_view(dest);
        }
        Some(SelectedRoute {
            next_hop: self.id,
            dist: 0.0,
            dest_landmark_dist: self.own_landmark_dist,
            dest_is_landmark: self.is_landmark,
            path: self.self_path.as_ref()?,
        })
    }

    /// Converged distance to `dest`, if known.
    pub fn distance_to(&self, dest: NodeId) -> Option<Weight> {
        self.route(dest).map(|r| r.dist)
    }

    /// Landmarks currently in the table with their distances — this node
    /// itself first if it is one, then closest first, ties by smaller id.
    /// Walks the `lm_best` mirror without touching the store;
    /// [`Self::route`] has the rest of an entry.
    pub fn landmark_entries(&self) -> impl Iterator<Item = (NodeId, Weight)> + '_ {
        let own = self.route(self.id).filter(|r| r.dest_is_landmark);
        own.map(|r| (self.id, r.dist))
            .into_iter()
            .chain(self.lm_best.iter())
    }

    /// Non-landmark destinations currently in the table (the vicinity /
    /// cluster) with their distances, closest first, ties by smaller id.
    pub fn local_entries(&self) -> impl Iterator<Item = (NodeId, Weight)> + '_ {
        self.locals.iter()
    }

    /// Number of candidate routes held across all neighbors (control-plane
    /// memory, analogous to the old `knowledge` map).
    pub fn knowledge_size(&self) -> usize {
        self.rib.len()
    }

    /// Enable forgetful routing (§4.2) with the given per-destination
    /// alternate budget, or disable it with `None`. Takes effect for
    /// subsequent updates; already-held candidates are trimmed lazily as
    /// their destinations are touched.
    pub fn set_forgetful_rib(&mut self, alternates: Option<usize>) {
        self.forgetful = alternates;
    }

    /// Candidate-store gauge (per-node candidate count, path nodes and
    /// approximate bytes) for memory experiments.
    pub fn rib_stats(&self) -> RibStats {
        self.rib.stats()
    }

    /// Destinations this node serves a selected route for — the row count
    /// of [`Self::for_each_route_by_id`].
    pub fn selected_count(&self) -> usize {
        self.rib.selected_count()
    }

    /// Visit every destination this node currently serves a selected route
    /// for as `(destination, next hop, path hop count)`, in ascending
    /// destination id — the forwarding-table compile sweep of
    /// [`crate::forward`] ([`RibStore::for_each_route_by_id`]).
    pub fn for_each_route_by_id(&self, f: impl FnMut(NodeId, NodeId, u16)) {
        self.rib.for_each_route_by_id(f)
    }

    /// `dest`'s row of [`Self::for_each_route_by_id`] — `(next hop, path
    /// hop count)` — or `None` when no route to it is selected.
    pub fn route_by_id(&self, dest: NodeId) -> Option<(NodeId, u16)> {
        self.rib.route_by_id(dest)
    }

    /// Visit every destination this node currently serves a selected route
    /// for with the full selected-route view (the RIB's selection column,
    /// in interning order) — what tests check a compiled table against.
    pub fn for_each_selected(&self, f: impl FnMut(NodeId, SelectedRoute<'_>)) {
        self.rib.for_each_selected(f)
    }

    /// Approximate heap bytes of this node's Loc-RIB and routing table:
    /// the per-destination view columns in the [`RibStore`] (selection,
    /// hop count, resident mark, and the id order once a forwarding
    /// compile built it) plus the ordered `locals`/`waiting`/`lm_best`
    /// mirrors, priced at what they hold: their capacity in 12 B keys.
    /// This is the "loc-rib bytes" column of `exp_memory`'s per-component
    /// accounting, and it is all there is: the node keeps no other
    /// per-destination state.
    pub fn loc_rib_bytes(&self) -> usize {
        let mirrored = self.locals.bytes() + self.waiting.bytes() + self.lm_best.bytes();
        self.rib.selection_bytes() + mirrored
    }

    /// Route-refresh requests this node has flooded (forgetful routing's
    /// re-solicitation traffic).
    pub fn refreshes_sent(&self) -> u64 {
        self.refreshes_sent
    }

    /// Route-refresh requests this node has answered.
    pub fn refreshes_answered(&self) -> u64 {
        self.refreshes_answered
    }

    /// Compact 4-byte journal and mirror key for a destination.
    #[inline]
    fn dkey(d: NodeId) -> u32 {
        debug_assert_eq!(d.0 as u32 as usize, d.0, "node ids must fit u32");
        d.0 as u32
    }

    /// The mirror a selection with this `(flag, resident)` pair is filed
    /// in (the partition rule of the `locals` field docs).
    fn mirror_of(&mut self, flag: bool, resident: bool) -> &mut Mirror {
        match (flag, resident) {
            (true, _) => &mut self.lm_best,
            (false, true) => &mut self.locals,
            (false, false) => &mut self.waiting,
        }
    }

    /// File `d`'s selection after a write to it or to its resident mark:
    /// `prev` is the `(distance, flag, resident)` it had before the write
    /// (`None` if nothing was selected), `di` its index now (`None` if the
    /// write cleared it out of the interner). Touches no mirror when the
    /// key did not move; otherwise takes the old key out and files the new
    /// one, if any.
    fn refile(&mut self, d: NodeId, prev: Option<(Weight, bool, bool)>, di: Option<u32>) {
        let now = di.and_then(|i| self.rib.selected_parts_at(i));
        if prev == now {
            return;
        }
        if let Some((dist, flag, resident)) = prev {
            self.mirror_of(flag, resident).remove(dist, d);
        }
        if let Some((dist, flag, resident)) = now {
            self.mirror_of(flag, resident).insert(dist, d);
        }
    }

    /// Move the selected destination `w` into or out of the routing table
    /// (a cap admission or eviction) and queue the change for export.
    fn set_resident(&mut self, w: NodeId, resident: bool) {
        let wi = self.rib.idx(w).expect("a mirrored destination is interned");
        let prev = self.rib.selected_parts_at(wi);
        self.rib.set_resident_at(wi, resident);
        self.refile(w, prev, Some(wi));
        self.pending.insert(w);
    }

    /// Point the Loc-RIB selection at `nbr`'s candidate `cand` for `d`
    /// and re-derive `d`'s table membership. `cand` is the candidate just
    /// recorded in `nbr`'s slab, so the selection columns — the landmark
    /// flag like the distance — are written straight from it, no slab
    /// re-probe.
    fn select_candidate(&mut self, d: NodeId, di: u32, nbr: NodeId, cand: Candidate) {
        self.bump_revision(d);
        let prev = self.rib.selected_parts_at(di);
        let moved = self.rib.select_from_at(di, nbr, cand);
        self.apply_selection(d, Some(di), prev, moved);
    }

    /// Promote this node to a landmark at runtime (emergency self-election
    /// when connectivity to every landmark is lost under churn). Returns
    /// the announcements to flood.
    pub fn promote_to_landmark(&mut self) -> Vec<Announcement> {
        if self.is_landmark {
            return Vec::new();
        }
        self.is_landmark = true;
        self.own_landmark_dist = 0.0;
        self.own_status_flipped();
        let own = self.route(self.id).expect("promotion follows on_start");
        vec![Self::export(self.id, &own)]
    }

    /// Step down from landmark duty (the ×2 hysteresis re-election of §4.2
    /// decided against this node under a fresh estimate of `n`). The self
    /// entry is re-exported without the landmark flag on the next batch
    /// flush, which is what tells the rest of the network: a table entry
    /// carries the flag its selected candidate carries, every route to a
    /// node is rooted at that node's own self-announcement, so the
    /// origin's word — a revocation included — travels the export tree
    /// and converges like the distance does.
    pub fn demote_from_landmark(&mut self) {
        if !self.is_landmark {
            return;
        }
        self.is_landmark = false;
        // As a regular node, the own-landmark distance comes from the best
        // landmark route again.
        self.refresh_own_landmark_dist();
        self.pending.insert(self.id);
        self.landmark_version += 1;
        self.own_status_flipped();
    }

    /// This node's own landmark status flipped: the ring a compile emits
    /// gained or lost this node and its fallback vanished or appeared, so
    /// the data plane must republish although no row moved. The journal
    /// entry is this node's own id, whose row is always absent — a replay
    /// of it changes nothing.
    fn own_status_flipped(&mut self) {
        self.landmark_set_version += 1;
        self.bump_revision(self.id);
    }

    /// Current table limit (vicinity capacity for Disco nodes).
    pub fn table_limit(&self) -> TableLimit {
        self.limit
    }

    /// Re-size the vicinity capacity to `size` (the live estimate of `n`
    /// changed). Shrinking evicts the farthest locals; growing admits the
    /// closest waiting candidates; every change is exported on the next
    /// flush. No-op unless the node runs [`TableLimit::VicinityCap`].
    pub fn set_vicinity_cap(&mut self, size: usize) {
        let TableLimit::VicinityCap { size: old } = self.limit else {
            return;
        };
        if old == size {
            return;
        }
        self.limit = TableLimit::VicinityCap { size };
        while self.locals.len() > size {
            let (w, _) = self.worst_local().expect("locals non-empty");
            self.set_resident(w, false);
        }
        while self.locals.len() < size {
            let Some((w, _)) = self.best_waiting() else {
                break;
            };
            self.set_resident(w, true);
        }
    }

    /// The announcement exporting table entry `e` for `dest`.
    fn export(dest: NodeId, e: &SelectedRoute<'_>) -> Announcement {
        Announcement {
            dest,
            dist: e.dist,
            path: e.path.clone(),
            dest_is_landmark: e.dest_is_landmark,
            dest_landmark_dist: e.dest_landmark_dist,
            withdrawn: false,
            refresh: false,
        }
    }

    /// Record one incoming announcement in the candidate set; returns the
    /// destination whose candidates changed and the new candidate (`None`
    /// for a removal), so the selection step never re-probes the map.
    fn absorb(
        &mut self,
        from: NodeId,
        link_weight: Weight,
        ann: &Announcement,
    ) -> (NodeId, Option<Candidate>, Option<u32>) {
        let d = ann.dest;
        // The usable case first: not a withdrawal, not our own id, and we
        // are not already on the path (loop prevention) — in which case
        // the containment scan and the prepend share one arena pass.
        if !ann.withdrawn && d != self.id {
            if let Some(path) = ann.path.prepend_unless_contains(self.id) {
                let cand = Candidate {
                    dist: ann.dist + link_weight,
                    // Shares the announced path, prefixed with this node.
                    path,
                    dest_is_landmark: ann.dest_is_landmark,
                    dest_landmark_dist: ann.dest_landmark_dist,
                };
                let di = self.rib.intern(d);
                self.rib.insert_at(from, di, &cand);
                return (d, Some(cand), Some(di));
            }
        }
        // Withdrawals and routes through this node make the neighbor
        // unusable for that destination.
        self.rib.remove(from, d);
        // A removal can compact the interner, so no index survives this
        // branch; the (cold) caller path re-resolves.
        (d, None, None)
    }

    /// Update the Loc-RIB best route for `d` after the candidate from
    /// neighbor `from` changed (`removed` = the candidate disappeared),
    /// then re-derive table membership. Incremental: the full O(degree)
    /// rescan — a cache miss per neighbor on large tables — runs only when
    /// the previously-best neighbor's candidate worsened or vanished;
    /// every other case is O(1). The outcome is identical to rescanning:
    /// the preference order is total, so the minimum moves only when a
    /// better candidate arrives (it becomes the minimum) or the minimum
    /// itself degrades (rescan).
    fn update_dest(&mut self, d: NodeId, from: NodeId, new: Option<Candidate>, di: Option<u32>) {
        if d == self.id {
            return;
        }
        let cur_hop = match di {
            Some(i) => self.rib.selected_hop_at(i),
            None => self.rib.selected_hop(d),
        };
        if let Some(cand) = new {
            // An inserted candidate always has its index in hand.
            let di = di.expect("insertions carry the destination index");
            // Compare against the selection's *cached* route: when `from`
            // re-announced over its own selected candidate, the cache still
            // holds the pre-update values.
            //
            // An attribute-only refresh — the selected neighbor re-announcing
            // the very route it is selected for, with only the destination's
            // landmark distance or flag moved (every node causes one while
            // its own landmark distance settles) — leaves the candidate's
            // rank where it was, so it is still the minimum: re-select it in
            // place rather than rescanning every neighbor to find it again.
            let promote = match self.rib.selected_view_at(di) {
                None => true,
                Some(cur) => {
                    (cur_hop == Some(from) && cand.dist == cur.dist && cand.path == *cur.path)
                        || preferred_parts(cand.dist, &cand.path, cur.dist, cur.path)
                }
            };
            if promote {
                self.select_candidate(d, di, from, cand);
                return;
            }
        }
        if cur_hop == Some(from) {
            // The slow path: the selected neighbor's own candidate worsened
            // or disappeared, so scan every neighbor's candidate for the new
            // best, written straight into the selection column (nothing
            // materialized). Selection is a pure function of the candidate
            // set (the preference order is total), so equal-seed runs
            // reselect identically. Re-selection can clear the last
            // selection and compact the interner; `di` is dead past this
            // point.
            self.bump_revision(d);
            let prev = self.rib.idx(d).and_then(|i| self.rib.selected_parts_at(i));
            let moved = self.rib.select_best(d);
            // The selected route vanished with no retained alternate left.
            // If the forgetful policy discarded candidates for this
            // destination, a full RIB might still hold a route — re-solicit
            // the neighbors (batched with the next flush, so refresh storms
            // coalesce like withdrawals). Only total loss triggers this:
            // mere worsening heals through the neighbors' ordinary change
            // exports, and refreshing on every degradation feeds back (the
            // answers themselves get evicted, re-arming the trigger) into
            // a refresh storm that never quiesces.
            if self.forgetful.is_some() && moved.is_none() && self.rib.take_evicted(d) {
                self.pending_refresh.insert(d);
            }
            self.apply_selection(d, None, prev, moved.unwrap_or(true));
        } else {
            // The selected route is untouched — a non-selected neighbor's
            // word changes nothing about it, the landmark flag included —
            // so the table derivation is already at a fixed point: the
            // selection, the limit and the table are all exactly as the
            // last `apply_selection` left them, and re-deriving is pure
            // overhead on the most common message (a non-improving
            // announcement from a non-selected neighbor). Only the
            // landmark-version bump `apply_selection` makes for a
            // still-pending landmark entry is replicated, so the composite
            // protocol's repair triggers fire identically. On the
            // withdrawal / neighbor-down path no index is in hand (and any
            // pre-removal index would be compaction-stale): resolve it.
            let di = di.or_else(|| self.rib.idx(d));
            if matches!(
                di.and_then(|i| self.rib.selected_parts_at(i)),
                Some((_, true, true))
            ) && self.pending.contains(&d)
            {
                self.landmark_version += 1;
            }
        }
    }

    /// Trim `d`'s candidate set to the forgetful budget (no-op unless
    /// [`Self::set_forgetful_rib`] enabled the policy): the selected route
    /// always survives; destinations resident in the table (landmarks and
    /// vicinity members, §4.2's exemption) keep `alternates` failover
    /// candidates on top, everything else keeps the selected route alone.
    fn enforce_forgetful(&mut self, d: NodeId) {
        let Some(alternates) = self.forgetful else {
            return;
        };
        if d == self.id {
            return;
        }
        let keep = if self.rib.is_resident(d) {
            1 + alternates
        } else {
            1
        };
        self.rib.enforce(d, keep);
    }

    /// Whether a route with the given flag / distances qualifies for the
    /// table under the Cluster rule (landmarks always; others iff
    /// d(v, w) < d(w, ℓ_w)).
    fn cluster_accepts(is_landmark: bool, dist: Weight, lm_dist: Weight) -> bool {
        is_landmark || dist + 1e-12 < lm_dist
    }

    /// Vicinity ordering for cap admission over `(destination, distance)`:
    /// smaller distance first, ties by smaller id.
    fn cap_less(a: (NodeId, Weight), b: (NodeId, Weight)) -> bool {
        a.1.partial_cmp(&b.1).unwrap().then_with(|| a.0.cmp(&b.0)) == std::cmp::Ordering::Less
    }

    /// The best selected route not currently in the table (the cap's
    /// waiting list) with its distance, if any: the head of the `waiting`
    /// mirror.
    fn best_waiting(&self) -> Option<(NodeId, Weight)> {
        self.waiting.iter().next()
    }

    /// The worst non-landmark table entry (the cap's eviction candidate)
    /// with its distance: the tail of the `locals` mirror.
    fn worst_local(&self) -> Option<(NodeId, Weight)> {
        self.locals.iter().next_back()
    }

    /// Admit the cap's best waiting candidate, if any, into a freed slot.
    fn admit_best_waiting(&mut self) {
        if let Some((w, _)) = self.best_waiting() {
            self.set_resident(w, true);
        }
    }

    /// Re-derive the table membership of `d` after a write to its
    /// selection, recording export changes in `pending`. Handles the
    /// single admission / eviction the change can cause under
    /// [`TableLimit::VicinityCap`], and keeps `own_landmark_dist`
    /// (exported on the self route) current.
    ///
    /// The second half of every selection write: the caller read `prev`
    /// — what `d`'s selection and table entry were, still filed under
    /// that key — then wrote the selection (`moved` = the store saw the
    /// selected route change); this decides the resident mark and
    /// refiles `d` ([`Self::refile`]).
    fn apply_selection(
        &mut self,
        d: NodeId,
        di: Option<u32>,
        prev: Option<(Weight, bool, bool)>,
        moved: bool,
    ) {
        let di = di.or_else(|| self.rib.idx(d));
        let view = di.and_then(|i| self.rib.selected_view_at(i));
        // `d` entered or left `lm_best`: the landmark set changed.
        let was_flagged = prev.is_some_and(|(_, flag, _)| flag);
        if was_flagged != view.as_ref().is_some_and(|v| v.dest_is_landmark) {
            self.landmark_set_version += 1;
        }
        // The table entry `d` had: its previous selection, if resident.
        let was_resident = prev.is_some_and(|(_, _, resident)| resident);
        let was_landmark_entry = prev.is_some_and(|(_, flag, resident)| flag && resident);
        // The `(distance, flag)` of the entry `d` gets: its selection, if
        // the limit admits it.
        let entry = view
            .filter(|v| match self.limit {
                TableLimit::Unlimited => true,
                TableLimit::Cluster => {
                    Self::cluster_accepts(v.dest_is_landmark, v.dist, v.dest_landmark_dist)
                }
                // Landmarks always; a local stays (unless the update
                // worsened it below the best waiting candidate, checked
                // once it is filed again, below); anything else faces the
                // cap: a free slot, or beating the worst resident.
                TableLimit::VicinityCap { size } => {
                    v.dest_is_landmark
                        || (was_resident && !was_landmark_entry)
                        || self.locals.len() < size
                        || self
                            .worst_local()
                            .is_some_and(|worst| Self::cap_less((d, v.dist), worst))
                }
            })
            .map(|v| (v.dist, v.dest_is_landmark));
        let (Some(di), Some((dist, is_landmark_entry))) = (di, entry) else {
            // Not (or no longer) in the table. The overwhelmingly common
            // apply during convergence at scale ends here having changed
            // nothing: a non-landmark selected route for a destination
            // outside the table that does not beat the cap's worst
            // resident goes back to `waiting`.
            if let Some(i) = di {
                self.rib.set_resident_at(i, false);
            }
            self.refile(d, prev, di);
            if was_resident {
                self.pending.insert(d);
                // A freed cap slot admits the best waiting candidate.
                if matches!(self.limit, TableLimit::VicinityCap { .. }) && !was_landmark_entry {
                    self.admit_best_waiting();
                }
            }
            if was_landmark_entry {
                self.landmark_version += 1;
                self.refresh_own_landmark_dist();
            }
            return;
        };
        self.rib.set_resident_at(di, true);
        self.refile(d, prev, Some(di));
        // `d`'s export changed iff it had no entry, or the entry it had —
        // its previous selection — differs from the new one.
        if !was_resident || moved {
            self.pending.insert(d);
            if let TableLimit::VicinityCap { size } = self.limit {
                if !is_landmark_entry {
                    if self.locals.len() > size {
                        // Admission pushed the cap over: evict the worst
                        // local (possibly d itself on a tie).
                        if let Some((w, _)) = self.worst_local() {
                            self.set_resident(w, false);
                        }
                    } else if was_resident {
                        // d's route worsened in place: the best waiting
                        // candidate may now beat it.
                        if let Some(best) = self.best_waiting() {
                            if Self::cap_less(best, (d, dist)) {
                                self.set_resident(d, false);
                                self.set_resident(best.0, true);
                            }
                        }
                    }
                } else if was_resident && !was_landmark_entry {
                    // A local was re-classified as a landmark, freeing a
                    // cap slot.
                    self.admit_best_waiting();
                }
            }
        }

        // Track changes to landmark routes: membership changes reshuffle
        // consistent-hashing ownership, and any landmark-entry update can
        // move this node's own address. `pending` membership approximates
        // "d's export changed" (it can linger from an earlier un-flushed
        // change; the occasional spurious bump only costs a debounced
        // repair pass).
        if is_landmark_entry != was_landmark_entry
            || (is_landmark_entry && self.pending.contains(&d))
        {
            self.landmark_version += 1;
        }
        if is_landmark_entry || was_landmark_entry {
            self.refresh_own_landmark_dist();
        }
    }

    /// Keep the exported own-landmark distance current after a landmark
    /// route changed; the cluster rule at *other* nodes keys on it. The
    /// head of the `lm_best` mirror instead of a scan over every selection.
    fn refresh_own_landmark_dist(&mut self) {
        if self.is_landmark {
            return;
        }
        let nearest = self
            .lm_best
            .iter()
            .next()
            .map_or(Weight::INFINITY, |(_, w)| w);
        if nearest != self.own_landmark_dist {
            self.own_landmark_dist = nearest;
            if self.self_path.is_some() {
                // (Absent only before on_start: nothing exported yet.)
                self.pending.insert(self.id);
            }
        }
    }

    /// Arm the batch flush for table changes queued by out-of-band
    /// mutations ([`Self::set_vicinity_cap`], [`Self::demote_from_landmark`])
    /// — without this, changes made outside a protocol upcall would sit in
    /// `pending` until some unrelated message happened to arm the batch.
    pub fn export_pending(&mut self, ctx: &mut Context<'_, Announcement>) {
        self.arm_batch(ctx);
    }

    /// Arm the batch flush timer if there are unexported changes or
    /// pending route-refresh requests.
    fn arm_batch(&mut self, ctx: &mut Context<'_, Announcement>) {
        if (!self.pending.is_empty() || !self.pending_refresh.is_empty()) && !self.batch_armed {
            self.batch_armed = true;
            ctx.set_timer(self.batch_delay, BATCH_TIMER);
        }
    }

    /// Export the coalesced state of every pending destination to all
    /// neighbors: the current table entry, or a withdrawal if the
    /// destination dropped out of the table since the last flush. Each
    /// destination is one [`disco_sim::context::Action::Flood`]: the
    /// engine performs the neighbor walk (one refcount bump per edge)
    /// instead of this node resolving the same adjacency `degree` times
    /// per announcement.
    fn flush(&mut self, ctx: &mut Context<'_, Announcement>) {
        self.batch_armed = false;
        self.dump_scratch.clear();
        self.dump_scratch.extend(self.pending.drain());
        self.dump_scratch.sort_unstable();
        let pending = std::mem::take(&mut self.dump_scratch);
        for &d in &pending {
            let ann = match self.route(d) {
                Some(e) => Self::export(d, &e),
                None => Announcement {
                    dest: d,
                    dist: Weight::INFINITY,
                    path: InternedPath::from_slice(&[self.id, d]),
                    dest_is_landmark: false,
                    dest_landmark_dist: Weight::INFINITY,
                    withdrawn: true,
                    refresh: false,
                },
            };
            Self::flood(&ann, ctx);
        }
        self.dump_scratch = pending;
        // Re-solicit forgotten alternates (forgetful routing): one
        // refresh request per destination, flooded to all neighbors.
        let refresh = std::mem::take(&mut self.pending_refresh);
        for d in refresh {
            self.refreshes_sent += 1;
            let ann = Announcement {
                dest: d,
                dist: Weight::INFINITY,
                path: InternedPath::from_slice(&[self.id, d]),
                dest_is_landmark: false,
                dest_landmark_dist: Weight::INFINITY,
                withdrawn: false,
                refresh: true,
            };
            Self::flood(&ann, ctx);
        }
    }

    /// Send this node's entire table (the paper's "the entire routing table
    /// is then exported") to one neighbor, in deterministic order, as a
    /// single batched delivery: one queue entry for the whole dump instead
    /// of one per announcement, with identical per-announcement processing
    /// order and statistics. The sort order is rebuilt in a reusable
    /// scratch vector.
    fn send_table_to(&mut self, peer: NodeId, ctx: &mut Context<'_, Announcement>) {
        self.dump_scratch.clear();
        self.dump_scratch
            .extend(self.self_path.is_some().then_some(self.id));
        let resident = self.locals.iter().chain(self.lm_best.iter());
        self.dump_scratch.extend(resident.map(|(d, _)| d));
        self.dump_scratch.sort_unstable();
        let mut batch = Vec::with_capacity(self.dump_scratch.len());
        for &d in &self.dump_scratch {
            let ann = Self::export(d, &self.route(d).expect("a resident destination"));
            let size = announcement_bytes(&ann);
            batch.push((ann, size));
        }
        ctx.send_batch(peer, batch);
    }

    /// Flood `ann` to every neighbor: one engine-expanded action, no
    /// neighbor list allocation and no per-neighbor adjacency scans.
    fn flood(ann: &Announcement, ctx: &mut Context<'_, Announcement>) {
        let size = announcement_bytes(ann);
        ctx.flood_sized(ann.clone(), size);
    }
}

impl Protocol for PathVectorNode {
    type Message = Announcement;

    fn classify(msg: &Announcement) -> disco_sim::MessageClass {
        if msg.withdrawn {
            disco_sim::MessageClass::Withdraw
        } else if msg.refresh {
            disco_sim::MessageClass::Refresh
        } else {
            disco_sim::MessageClass::Deliver
        }
    }

    fn control_revision(&self) -> u64 {
        self.selection_revision
    }

    fn on_start(&mut self, ctx: &mut Context<'_, Announcement>) {
        // Install the self route.
        self.self_path = Some(InternedPath::single(self.id));
        // Announce ourselves. Under the S4 cluster rule a non-landmark node
        // waits until it knows its own landmark distance (the reselection
        // re-announces the self entry as soon as the first landmark route
        // arrives); otherwise the initial announcement carries an infinite
        // landmark distance and would flood the whole network like plain
        // path vector, which is not how S4 behaves after its landmark phase.
        if self.is_landmark || !matches!(self.limit, TableLimit::Cluster) {
            let ann = Self::export(self.id, &self.route(self.id).expect("just installed"));
            Self::flood(&ann, ctx);
        }
    }

    fn on_message(&mut self, from: NodeId, msg: Announcement, ctx: &mut Context<'_, Announcement>) {
        let Some(w) = ctx.link_weight(from) else {
            return; // link died between send and delivery
        };
        if msg.refresh {
            // Route-refresh request: answer with the current export state
            // for that destination, unicast to the requester (over the
            // already-resolved arrival link). Nothing to say if we hold no
            // route (the requester's slot for us is already empty).
            if let Some(e) = self.route(msg.dest) {
                let ann = Self::export(msg.dest, &e);
                self.refreshes_answered += 1;
                let size = announcement_bytes(&ann);
                match ctx.via() {
                    Some(via) if via.node == from => ctx.send_resolved(via, ann, size),
                    _ => ctx.send_sized(from, ann, size),
                }
            }
            return;
        }
        let (d, removed, di) = self.absorb(from, w, &msg);
        self.update_dest(d, from, removed, di);
        self.enforce_forgetful(d);
        self.arm_batch(ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_, Announcement>) {
        if token == BATCH_TIMER {
            self.flush(ctx);
        }
    }

    fn on_neighbor_up(&mut self, peer: NodeId, ctx: &mut Context<'_, Announcement>) {
        // Full exchange over the new link: the peer does the same, so both
        // sides learn everything the other exports. (Under the cluster rule
        // the self entry still carries our current landmark distance, which
        // is what the peer needs to apply S4's test.)
        self.send_table_to(peer, ctx);
    }

    fn on_neighbor_down(&mut self, peer: NodeId, ctx: &mut Context<'_, Announcement>) {
        // Every candidate learned from that neighbor is gone; re-derive each
        // affected destination (already sorted by destination id —
        // deterministic order) and let the difference (withdrawals
        // included) propagate on the next flush.
        let lost = self.rib.remove_neighbor(peer);
        if lost.is_empty() {
            return;
        }
        for d in lost {
            self.update_dest(d, peer, None, None);
        }
        self.arm_batch(ctx);
    }
}

/// Wire size estimate for an announcement: destination id, distance, flags
/// (landmark + withdrawn) plus 4 bytes per path element.
pub fn announcement_bytes(ann: &Announcement) -> usize {
    4 + 8 + 2 + 4 * ann.path.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DiscoConfig;
    use crate::landmark::select_landmarks;
    use disco_graph::{dijkstra, generators, Graph, NodeId};
    use disco_sim::{Engine, TopologyEvent};

    fn run(
        g: &Graph,
        landmarks: &[NodeId],
        limit_for: impl Fn(NodeId) -> TableLimit,
    ) -> (Vec<PathVectorNode>, disco_sim::MessageStats) {
        let lm_set = crate::landmark::landmark_set(landmarks);
        let mut engine = Engine::new(g, |v| {
            PathVectorNode::new(v, lm_set.contains(&v), limit_for(v))
        });
        let report = engine.run();
        assert!(report.converged, "path vector did not converge");
        assert_consistent(engine.nodes());
        (engine.nodes().to_vec(), report.stats)
    }

    /// The routing-table view's invariants, checked at quiescence: every
    /// selected destination is filed in exactly the mirror its `(flag,
    /// resident)` names (and the mirrors hold nothing else), landmarks are
    /// always resident, `locals` respects the cap, and no destination is
    /// resident without a selection.
    fn assert_consistent(nodes: &[PathVectorNode]) {
        for node in nodes {
            let v = node.id;
            let mut selected = 0;
            for d in (0..nodes.len()).map(NodeId) {
                let parts = node.rib.idx(d).and_then(|i| node.rib.selected_parts_at(i));
                let Some((dist, flag, resident)) = parts else {
                    assert!(!node.rib.is_resident(d), "{v}: {d} resident, not selected");
                    continue;
                };
                selected += 1;
                let filed =
                    [&node.lm_best, &node.locals, &node.waiting].map(|m| m.contains(dist, d));
                let named = [flag, !flag && resident, !flag && !resident];
                assert_eq!(filed, named, "{v}: {d} misfiled (lm_best, locals, waiting)");
                assert!(resident || !flag, "{v}: landmark {d} outside the table");
            }
            let mirrored = node.lm_best.len() + node.locals.len() + node.waiting.len();
            assert_eq!(mirrored, selected, "{v}: mirrors hold stale keys");
            if let TableLimit::VicinityCap { size } = node.limit {
                assert!(node.locals.len() <= size, "{v}: locals over the cap");
            }
        }
    }

    /// The routing-table entries behind an id iterator of `node`.
    fn routes<'a>(
        node: &'a PathVectorNode,
        ids: impl Iterator<Item = (NodeId, Weight)> + 'a,
    ) -> impl Iterator<Item = (NodeId, SelectedRoute<'a>)> {
        ids.map(|(d, dist)| {
            let route = node.route(d).expect("a listed destination is in the table");
            assert_eq!(route.dist, dist, "{d} listed at a stale distance");
            (d, route)
        })
    }

    /// Every routing-table entry of `node`, its own included.
    fn entries(node: &PathVectorNode) -> impl Iterator<Item = (NodeId, SelectedRoute<'_>)> {
        let own = node.route(node.id).map(|r| (node.id, r));
        let landmarks = node.landmark_entries().filter(|&(d, _)| d != node.id);
        let listed = routes(node, landmarks.chain(node.local_entries()));
        own.into_iter().chain(listed)
    }

    #[test]
    fn unlimited_converges_to_shortest_paths() {
        let g = generators::gnm_connected(64, 256, 3);
        let landmarks = vec![NodeId(0)];
        let (nodes, _) = run(&g, &landmarks, |_| TableLimit::Unlimited);
        let truth = dijkstra(&g, NodeId(10));
        for v in g.nodes() {
            let got = nodes[v.0].distance_to(NodeId(10)).unwrap();
            let want = truth.distance(v).unwrap();
            assert!((got - want).abs() < 1e-9, "node {v}: {got} vs {want}");
            // Table holds every destination.
            assert_eq!(nodes[v.0].table_size(), 63);
        }
    }

    #[test]
    fn landmark_routes_always_learned() {
        let g = generators::gnm_connected(128, 512, 5);
        let cfg = DiscoConfig::seeded(5);
        let landmarks = select_landmarks(128, &cfg);
        let (nodes, _) = run(&g, &landmarks, |_| TableLimit::VicinityCap { size: 20 });
        let lm_trees: Vec<_> = landmarks.iter().map(|&lm| dijkstra(&g, lm)).collect();
        for v in g.nodes() {
            for (i, &lm) in landmarks.iter().enumerate() {
                let got = nodes[v.0].distance_to(lm).unwrap();
                let want = lm_trees[i].distance(v).unwrap();
                assert!((got - want).abs() < 1e-9);
            }
            // Own landmark distance matches the closest landmark.
            let want_own = lm_trees
                .iter()
                .map(|t| t.distance(v).unwrap())
                .fold(f64::INFINITY, f64::min);
            assert!((nodes[v.0].own_landmark_distance() - want_own).abs() < 1e-9);
        }
    }

    #[test]
    fn vicinity_cap_limits_table_and_learns_closest() {
        let g = generators::gnm_connected(128, 512, 7);
        let cap = 15;
        let landmarks = vec![NodeId(3)];
        let (nodes, _) = run(&g, &landmarks, |_| TableLimit::VicinityCap { size: cap });
        let truth = dijkstra(&g, NodeId(40));
        // Node 40's non-landmark entries: exactly `cap` of them, and every
        // entry's distance is correct.
        let node = &nodes[40];
        let locals: Vec<_> = routes(node, node.local_entries()).collect();
        assert_eq!(locals.len(), cap);
        for (d, e) in &locals {
            let want = truth.distance(*d).unwrap();
            assert!((e.dist - want).abs() < 1e-9, "dest {d}");
        }
        // The farthest kept entry is not (much) farther than the true k-th
        // closest node. (Distributed eviction can differ on ties.)
        let mut true_dists: Vec<f64> = g
            .nodes()
            .filter(|&v| v != NodeId(40) && v != NodeId(3))
            .map(|v| truth.distance(v).unwrap())
            .collect();
        true_dists.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let kth = true_dists[cap - 1];
        let worst_kept = locals.iter().map(|(_, e)| e.dist).fold(0.0f64, f64::max);
        assert!(
            worst_kept <= kth + 1e-9,
            "kept {worst_kept} vs true kth {kth}"
        );
    }

    #[test]
    fn cluster_rule_matches_cluster_definition() {
        let g = generators::gnm_connected(96, 380, 9);
        let cfg = DiscoConfig::seeded(9);
        let landmarks = select_landmarks(96, &cfg);
        let (nodes, _) = run(&g, &landmarks, |_| TableLimit::Cluster);
        // Check against the static definition: w ∈ cluster(v) iff
        // d(v,w) < d(w, ℓ_w).
        let lm_trees: Vec<_> = landmarks.iter().map(|&lm| dijkstra(&g, lm)).collect();
        let closest_lm_dist = |w: NodeId| -> f64 {
            lm_trees
                .iter()
                .map(|t| t.distance(w).unwrap())
                .fold(f64::INFINITY, f64::min)
        };
        for v in g.nodes().step_by(7) {
            let tree = dijkstra(&g, v);
            for w in g.nodes() {
                if w == v || landmarks.contains(&w) {
                    continue;
                }
                let should_have = tree.distance(w).unwrap() < closest_lm_dist(w) - 1e-12;
                let has = nodes[v.0].route(w).is_some();
                assert_eq!(
                    has, should_have,
                    "cluster membership mismatch v={v} w={w} (have {has}, want {should_have})"
                );
            }
        }
    }

    #[test]
    fn messaging_scales_with_table_size() {
        // The bounded protocols must send far fewer messages than full path
        // vector on the same topology.
        let g = generators::gnm_connected(128, 512, 11);
        let cfg = DiscoConfig::seeded(11);
        let landmarks = select_landmarks(128, &cfg);
        let (_, full) = run(&g, &landmarks, |_| TableLimit::Unlimited);
        let (_, capped) = run(&g, &landmarks, |_| TableLimit::VicinityCap { size: 12 });
        assert!(
            capped.total_sent() * 2 < full.total_sent(),
            "capped {} vs full {}",
            capped.total_sent(),
            full.total_sent()
        );
    }

    #[test]
    fn announcement_size_grows_with_path() {
        let a = Announcement {
            dest: NodeId(1),
            dist: 1.0,
            path: InternedPath::from_slice(&[NodeId(0), NodeId(1)]),
            dest_is_landmark: false,
            dest_landmark_dist: f64::INFINITY,
            withdrawn: false,
            refresh: false,
        };
        let mut b = a.clone();
        b.path = InternedPath::from_slice(&[NodeId(0), NodeId(1), NodeId(2)]);
        assert!(announcement_bytes(&b) > announcement_bytes(&a));
    }

    // ---- dynamics: repair behavior ----

    /// Run to quiescence, apply `events` at staggered times, run to
    /// quiescence again; return the engine.
    fn run_with_events<'g>(
        g: &'g Graph,
        landmarks: &[NodeId],
        limit: TableLimit,
        events: Vec<TopologyEvent>,
    ) -> Engine<'g, PathVectorNode> {
        let lm_set = crate::landmark::landmark_set(landmarks);
        let mut engine = Engine::new(g, move |v| {
            PathVectorNode::new(v, lm_set.contains(&v), limit)
        });
        let report = engine.run();
        assert!(report.converged, "initial convergence failed");
        let t0 = engine.now() + 10.0;
        for (i, ev) in events.into_iter().enumerate() {
            engine.schedule_topology(t0 + i as f64, ev);
        }
        let converged = engine.run_until(|_| false);
        assert!(converged, "repair did not quiesce");
        assert_consistent(engine.nodes());
        engine
    }

    #[test]
    fn link_failure_reroutes_to_alternate_path() {
        // Square 0-1-2-3-0: cutting 0-1 forces 0→1 traffic the long way.
        let g = generators::ring(4);
        let engine = run_with_events(
            &g,
            &[NodeId(0)],
            TableLimit::Unlimited,
            vec![TopologyEvent::LinkDown {
                u: NodeId(0),
                v: NodeId(1),
            }],
        );
        let e = engine.nodes()[0].route(NodeId(1)).expect("repaired route");
        assert_eq!(
            e.path.to_vec(),
            vec![NodeId(0), NodeId(3), NodeId(2), NodeId(1)]
        );
        assert!((e.dist - 3.0).abs() < 1e-9);
        // And the reverse direction healed too.
        let r = engine.nodes()[1].route(NodeId(0)).expect("reverse route");
        assert!((r.dist - 3.0).abs() < 1e-9);
    }

    #[test]
    fn node_leave_withdraws_routes_everywhere() {
        let g = generators::gnm_connected(48, 144, 13);
        let victim = NodeId(17);
        let engine = run_with_events(
            &g,
            &[NodeId(0)],
            TableLimit::Unlimited,
            vec![TopologyEvent::NodeLeave { node: victim }],
        );
        // After the withdrawal cascade no live node still routes to or
        // through the departed node.
        for v in g.nodes() {
            if v == victim || !engine.is_active(v) {
                continue;
            }
            let node = &engine.nodes()[v.0];
            assert!(
                node.route(victim).is_none(),
                "{v} still has a table entry for departed {victim}"
            );
            for (d, e) in entries(node) {
                assert!(
                    !e.path.contains(victim),
                    "{v}'s route to {d} still goes through departed {victim}"
                );
            }
        }
    }

    #[test]
    fn routes_track_current_graph_after_churn() {
        // After a batch of failures and recoveries, every table distance
        // must equal the true shortest path on the *current* graph.
        let g = generators::gnm_connected(40, 160, 21);
        let engine = run_with_events(
            &g,
            &[NodeId(0)],
            TableLimit::Unlimited,
            vec![
                TopologyEvent::LinkDown {
                    u: NodeId(0),
                    v: g.neighbors(NodeId(0))[0].node,
                },
                TopologyEvent::NodeLeave { node: NodeId(30) },
                TopologyEvent::LinkDown {
                    u: NodeId(5),
                    v: g.neighbors(NodeId(5))[0].node,
                },
                TopologyEvent::NodeJoin {
                    node: NodeId(30),
                    links: vec![(NodeId(1), 1.0), (NodeId(2), 1.0)],
                },
            ],
        );
        let current = engine.graph();
        for v in [NodeId(0), NodeId(5), NodeId(30), NodeId(39)] {
            let truth = dijkstra(current, v);
            let node = &engine.nodes()[v.0];
            for (d, e) in entries(node) {
                let want = truth.distance(d).expect("reachable");
                assert!(
                    (e.dist - want).abs() < 1e-9,
                    "{v}→{d}: table {} vs dijkstra {want}",
                    e.dist
                );
            }
            // Unlimited tables must cover every reachable destination.
            let reachable = current
                .nodes()
                .filter(|&w| engine.is_active(w) && truth.distance(w).is_some())
                .count();
            assert_eq!(entries(node).count(), reachable, "{v} table incomplete");
        }
    }

    #[test]
    fn joining_node_learns_vicinity_and_landmarks() {
        let g = generators::gnm_connected(64, 256, 31);
        let cfg = DiscoConfig::seeded(31);
        let landmarks = select_landmarks(64, &cfg);
        let joiner = NodeId(64);
        let engine = run_with_events(
            &g,
            &landmarks,
            TableLimit::VicinityCap { size: 12 },
            vec![TopologyEvent::NodeJoin {
                node: joiner,
                links: vec![(NodeId(3), 1.0), (NodeId(9), 1.0)],
            }],
        );
        let node = &engine.nodes()[joiner.0];
        // The joiner learned a route to every landmark…
        for &lm in &landmarks {
            let got = node.distance_to(lm).expect("landmark route");
            let want = dijkstra(engine.graph(), joiner).distance(lm).unwrap();
            assert!((got - want).abs() < 1e-9);
        }
        // …and filled its vicinity cap with correct distances.
        let truth = dijkstra(engine.graph(), joiner);
        let locals: Vec<_> = routes(node, node.local_entries()).collect();
        assert_eq!(locals.len(), 12);
        for (d, e) in locals {
            assert!((e.dist - truth.distance(d).unwrap()).abs() < 1e-9);
        }
        // Existing nodes adopted the joiner into nearby vicinities.
        let have_joiner = g
            .nodes()
            .filter(|v| engine.nodes()[v.0].route(joiner).is_some())
            .count();
        assert!(have_joiner > 0, "no vicinity adopted the joiner");
    }

    #[test]
    fn vicinity_cap_resize_evicts_and_admits() {
        let g = generators::gnm_connected(64, 256, 17);
        let (mut nodes, _) = run(&g, &[NodeId(0)], |_| TableLimit::VicinityCap { size: 20 });
        let node = &mut nodes[10];
        assert_eq!(node.local_entries().count(), 20);
        let mut before: Vec<(f64, NodeId)> =
            node.local_entries().map(|(d, dist)| (dist, d)).collect();
        before.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));

        node.set_vicinity_cap(8);
        assert_eq!(node.table_limit(), TableLimit::VicinityCap { size: 8 });
        let mut kept: Vec<(f64, NodeId)> =
            node.local_entries().map(|(d, dist)| (dist, d)).collect();
        kept.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        assert_eq!(kept, before[..8], "shrink must keep the closest locals");

        // Growing re-admits from the retained candidate set.
        node.set_vicinity_cap(20);
        assert_eq!(node.local_entries().count(), 20);
        let mut back: Vec<(f64, NodeId)> =
            node.local_entries().map(|(d, dist)| (dist, d)).collect();
        back.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        assert_eq!(back, before);
    }

    /// A demotion is the origin's word and travels like any attribute of
    /// its route: after the demoted node re-exports its self entry, every
    /// node's entry for it loses the flag — not just its neighbors'.
    #[test]
    fn demotion_clears_landmark_flag_and_reexports() {
        let g = generators::ring(6);
        let (lm, other) = (NodeId(2), NodeId(5));
        let lm_set = crate::landmark::landmark_set(&[lm, other]);
        let mut engine = Engine::new(&g, |v| {
            PathVectorNode::new(v, lm_set.contains(&v), TableLimit::Unlimited)
        });
        assert!(engine.run().converged);
        for node in engine.nodes() {
            assert!(node.landmark_entries().any(|(l, _)| l == lm));
        }
        let now = engine.now();
        let node = &mut engine.nodes_mut()[lm.0];
        node.demote_from_landmark();
        assert!(!node.is_landmark());
        // The self entry is queued for re-export without the flag, and the
        // own-landmark distance comes from the remaining landmark again.
        assert!(!node.route(lm).unwrap().dest_is_landmark);
        assert_eq!(node.own_landmark_distance(), 3.0);
        // Arm and fire the export by hand (nothing else delivers a timer to
        // a node mutated out of band) and put its flood on the wire.
        let mut ctx = Context::new(lm, now, &g);
        node.export_pending(&mut ctx);
        node.on_timer(BATCH_TIMER, &mut ctx);
        let mut flooded = 0;
        for action in ctx.into_buffer() {
            if let disco_sim::context::Action::Flood { msg, .. } = action {
                assert!(msg.dest == lm && !msg.dest_is_landmark);
                for nb in [NodeId(1), NodeId(3)] {
                    engine.inject_message(lm, nb, msg.clone(), 0.1);
                }
                flooded += 1;
            }
        }
        assert_eq!(flooded, 1, "the self entry, once");
        assert!(engine.run_until(|_| false));
        assert_consistent(engine.nodes());
        for node in engine.nodes() {
            let v = node.id();
            assert!(
                !node.route(lm).expect("still routed").dest_is_landmark,
                "{v} still flags the demoted node"
            );
            let landmarks: Vec<NodeId> = node.landmark_entries().map(|(l, _)| l).collect();
            assert_eq!(landmarks, vec![other], "{v}'s landmark set");
        }
    }

    /// The split the forwarding compile's ring cache rests on: a repair
    /// that reroutes landmark paths moves `landmark_version` at many
    /// nodes and `landmark_set_version` only where a landmark actually
    /// left or entered the known set; a status flip moves both, and the
    /// revision with them.
    #[test]
    fn landmark_set_version_ignores_landmark_route_updates() {
        let g = generators::gnm_connected(64, 192, 23);
        let lm_set = crate::landmark::landmark_set(&[NodeId(3), NodeId(17), NodeId(40)]);
        let mut engine = Engine::new(&g, |v| {
            PathVectorNode::new(v, lm_set.contains(&v), TableLimit::VicinityCap { size: 16 })
        });
        assert!(engine.run().converged);
        let versions = |e: &Engine<'_, PathVectorNode>| -> Vec<(u64, u64)> {
            let of = |n: &PathVectorNode| (n.landmark_version, n.landmark_set_version);
            e.nodes().iter().map(of).collect()
        };
        let before = versions(&engine);
        // Cut the first hop of node 0's route to a landmark.
        let hop = engine.nodes()[0].route(NodeId(17)).unwrap().next_hop;
        let t = engine.now() + 1.0;
        engine.schedule_topology(
            t,
            TopologyEvent::LinkDown {
                u: NodeId(0),
                v: hop,
            },
        );
        assert!(engine.run_until(|_| false));
        assert_consistent(engine.nodes());
        let after = versions(&engine);
        let moved = |i: usize| (after[i].0 != before[i].0, after[i].1 != before[i].1);
        assert!(
            (0..64).all(|i| moved(i).0 || !moved(i).1),
            "a set change is a route change"
        );
        let routes_only = (0..64).filter(|&i| moved(i) == (true, false)).count();
        assert!(
            routes_only > 0,
            "no node saw a landmark route move under a standing set"
        );
        for node in engine.nodes() {
            assert_eq!(
                node.landmark_entries().count(),
                3,
                "{}: every landmark",
                node.id
            );
        }

        let node = &mut engine.nodes_mut()[0];
        let (rev, set) = (node.selection_revision, node.landmark_set_version);
        assert!(!node.promote_to_landmark().is_empty());
        assert_eq!(
            (node.selection_revision, node.landmark_set_version),
            (rev + 1, set + 1)
        );
        assert_eq!(
            node.writes_since(rev).unwrap().collect::<Vec<_>>(),
            [NodeId(0)]
        );
        node.demote_from_landmark();
        assert_eq!(
            (node.selection_revision, node.landmark_set_version),
            (rev + 2, set + 2)
        );
        assert_eq!(
            node.route_by_id(NodeId(0)),
            None,
            "the journaled id has no row"
        );
    }

    // ---- forgetful routing (§4.2) ----

    /// Forgetful eviction must not change what converges into the routing
    /// table — only how many candidates back it up.
    #[test]
    fn forgetful_converges_to_identical_tables_with_fewer_candidates() {
        let g = generators::gnm_connected(96, 384, 19);
        let cfg = DiscoConfig::seeded(19);
        let landmarks = select_landmarks(96, &cfg);
        let lm_set = crate::landmark::landmark_set(&landmarks);
        let run = |alternates: Option<usize>| {
            let mut engine = Engine::new(&g, |v| {
                let mut pv = PathVectorNode::new(
                    v,
                    lm_set.contains(&v),
                    TableLimit::VicinityCap { size: 15 },
                );
                pv.set_forgetful_rib(alternates);
                pv
            });
            assert!(engine.run().converged);
            assert_consistent(engine.nodes());
            engine.nodes().to_vec()
        };
        let full = run(None);
        let forgetful = run(Some(1));
        let (mut full_cands, mut slim_cands) = (0usize, 0usize);
        for v in g.nodes() {
            let (a, b) = (&full[v.0], &forgetful[v.0]);
            assert_eq!(a.table_size(), b.table_size(), "table size differs at {v}");
            for (d, e) in entries(a) {
                assert_eq!(Some(e), b.route(d), "{v}→{d} entry differs");
            }
            full_cands += a.knowledge_size();
            slim_cands += b.knowledge_size();
        }
        assert!(
            slim_cands * 3 < full_cands * 2,
            "forgetful kept {slim_cands} of {full_cands} candidates (expected < 2/3)"
        );
        // The policy respects its budget: at most selected + 1 alternate
        // per table-resident destination, selected alone for the rest (of
        // which there are at most n).
        for v in g.nodes() {
            let node = &forgetful[v.0];
            assert!(
                node.rib_stats().candidates <= entries(node).count() * 2 + 96,
                "{v} over budget"
            );
        }
    }

    /// Re-solicitation: after the only retained candidate dies with the
    /// link, a route-refresh request recovers the (previously evicted)
    /// alternate route.
    #[test]
    fn forgetful_refresh_recovers_evicted_alternate() {
        let g = generators::ring(4); // 0-1-2-3-0
        let mut engine = Engine::new(&g, |v| {
            let mut pv = PathVectorNode::new(v, v == NodeId(0), TableLimit::Unlimited);
            pv.set_forgetful_rib(Some(0)); // selected route only
            pv
        });
        assert!(engine.run().converged);
        // Node 0 kept only the direct candidate for dest 1; the alternate
        // through 3 was evicted.
        assert!(engine.nodes()[0].rib_stats().evictions > 0);
        engine.schedule_topology(
            engine.now() + 5.0,
            TopologyEvent::LinkDown {
                u: NodeId(0),
                v: NodeId(1),
            },
        );
        assert!(engine.run_until(|_| false), "repair must quiesce");
        assert_consistent(engine.nodes());
        let node = &engine.nodes()[0];
        let e = node.route(NodeId(1)).expect("route re-solicited");
        assert_eq!(
            e.path.to_vec(),
            vec![NodeId(0), NodeId(3), NodeId(2), NodeId(1)]
        );
        assert!(
            node.refreshes_sent() > 0,
            "recovery must have used a route-refresh request"
        );
        let answered: u64 = engine.nodes().iter().map(|n| n.refreshes_answered()).sum();
        assert!(answered > 0);
    }

    /// Under churn with the vicinity cap, forgetful nodes keep repairing
    /// correctly: distances stay shortest-path after quiescence.
    #[test]
    fn forgetful_repairs_track_graph_under_churn() {
        let g = generators::gnm_connected(48, 192, 23);
        let mut engine = Engine::new(&g, |v| {
            let mut pv = PathVectorNode::new(v, v == NodeId(0), TableLimit::Unlimited);
            pv.set_forgetful_rib(Some(1));
            pv
        });
        assert!(engine.run().converged);
        let t0 = engine.now() + 10.0;
        let events = vec![
            TopologyEvent::NodeLeave { node: NodeId(30) },
            TopologyEvent::LinkDown {
                u: NodeId(5),
                v: g.neighbors(NodeId(5))[0].node,
            },
            TopologyEvent::NodeJoin {
                node: NodeId(30),
                links: vec![(NodeId(1), 1.0), (NodeId(2), 1.0)],
            },
            TopologyEvent::LinkDown {
                u: NodeId(9),
                v: g.neighbors(NodeId(9))[1].node,
            },
        ];
        for (i, ev) in events.into_iter().enumerate() {
            engine.schedule_topology(t0 + i as f64 * 3.0, ev);
        }
        assert!(engine.run_until(|_| false), "repair must quiesce");
        assert_consistent(engine.nodes());
        let current = engine.graph();
        for v in [NodeId(0), NodeId(5), NodeId(9), NodeId(30), NodeId(47)] {
            let truth = dijkstra(current, v);
            for (d, e) in entries(&engine.nodes()[v.0]) {
                let want = truth.distance(d).expect("reachable");
                assert!(
                    (e.dist - want).abs() < 1e-9,
                    "{v}→{d}: forgetful table {} vs dijkstra {want}",
                    e.dist
                );
            }
        }
    }

    /// The selected neighbor re-announcing its route with only the
    /// destination's landmark distance moved is re-selected in place (no
    /// rescan): same next hop, the new attribute reaches the table, and
    /// the selection is still what a scan over all candidates would pick.
    #[test]
    fn attribute_only_refresh_from_selected_neighbor_keeps_the_selection() {
        use disco_graph::GraphBuilder;
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId(0), NodeId(1), 1.0);
        b.add_edge(NodeId(0), NodeId(2), 1.0);
        let g = b.build();
        let mut pv = PathVectorNode::new(NodeId(0), false, TableLimit::Unlimited);
        let mut ctx: disco_sim::Context<'_, Announcement> =
            disco_sim::Context::new(NodeId(0), 0.0, &g);
        pv.on_start(&mut ctx);
        let d = NodeId(3);
        let ann = |via: usize, lm_dist: f64| Announcement {
            dest: d,
            dist: 1.0,
            // Built afresh per message: equal content, separate cells.
            path: InternedPath::from_slice(&[NodeId(via), d]),
            dest_is_landmark: false,
            dest_landmark_dist: lm_dist,
            withdrawn: false,
            refresh: false,
        };
        pv.on_message(NodeId(2), ann(2, f64::INFINITY), &mut ctx);
        pv.on_message(NodeId(1), ann(1, f64::INFINITY), &mut ctx);
        let hop = pv.route(d).unwrap().next_hop;
        assert_eq!(hop, NodeId(1), "tie broken by path order");
        let revision = pv.selection_revision();
        let live = disco_graph::PathArena::stats().live_cells;

        pv.on_message(NodeId(1), ann(1, 4.0), &mut ctx);

        let e = pv.route(d).unwrap();
        assert_eq!(e.next_hop, NodeId(1));
        assert_eq!(e.dest_landmark_dist, 4.0, "the refreshed attribute exports");
        assert_eq!(e.path.to_vec(), vec![NodeId(0), NodeId(1), d]);
        assert!(pv.pending.contains(&d));
        assert_eq!(pv.selection_revision(), revision + 1);
        let (best_nbr, best) = pv.rib.best_for(d).expect("candidates remain");
        let sel = pv.rib.selected_view(d).expect("still selected");
        assert_eq!(sel.next_hop, best_nbr);
        assert_eq!(sel.dist, best.dist);
        assert_eq!(*sel.path, best.path);
        assert_eq!(sel.dest_landmark_dist, best.dest_landmark_dist);
        // The replaced candidate's cells were released, not accumulated.
        drop(best);
        assert_eq!(disco_graph::PathArena::stats().live_cells, live);
    }

    #[test]
    fn promotion_floods_new_landmark() {
        let g = generators::ring(8);
        let lm_set = crate::landmark::landmark_set(&[NodeId(0)]);
        let mut engine = Engine::new(&g, |v| {
            PathVectorNode::new(v, lm_set.contains(&v), TableLimit::VicinityCap { size: 2 })
        });
        assert!(engine.run().converged);
        // Promote node 4 out of band and let it flood.
        let anns = engine.nodes_mut()[4].promote_to_landmark();
        assert!(!anns.is_empty());
        for ann in anns {
            for nb in [NodeId(3), NodeId(5)] {
                engine.inject_message(NodeId(4), nb, ann.clone(), 0.1);
            }
        }
        assert!(engine.run_until(|_| false));
        for v in g.nodes() {
            assert!(
                engine.nodes()[v.0]
                    .landmark_entries()
                    .any(|(lm, _)| lm == NodeId(4)),
                "{v} did not learn the promoted landmark"
            );
        }
    }
}
