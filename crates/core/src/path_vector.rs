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
use disco_graph::{FxHashMap, InternedPath, NodeId, Weight};
use disco_sim::{Context, Protocol};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Finite weight with a total order, usable as a BTreeSet key.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrdW(Weight);
impl Eq for OrdW {}
impl PartialOrd for OrdW {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdW {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .partial_cmp(&other.0)
            .expect("route weights are finite")
    }
}

/// Acceptance rule for destinations other than landmarks.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Serialize, Deserialize)]
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

/// A converged routing-table entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouteEntry {
    /// Distance to the destination.
    pub dist: Weight,
    /// Next hop toward the destination.
    pub next_hop: NodeId,
    /// Full path (this node first, destination last), interned.
    pub path: InternedPath,
    /// Whether the destination is a landmark.
    pub dest_is_landmark: bool,
    /// Destination's distance to its own closest landmark (used by the
    /// cluster rule; `∞` if unknown).
    pub dest_landmark_dist: Weight,
}

/// Materialize a routing-table entry from the Loc-RIB view. This is the
/// *only* place a `RouteEntry` is built from the selection — the table
/// (the export/forwarding boundary) and nothing else; everywhere else the
/// selection is read in place through [`RibStore::selected_view`].
fn view_entry(v: &SelectedRoute<'_>) -> RouteEntry {
    RouteEntry {
        dist: v.dist,
        next_hop: v.next_hop,
        path: v.path.clone(),
        dest_is_landmark: v.dest_is_landmark,
        dest_landmark_dist: v.dest_landmark_dist,
    }
}

/// A path-vector node with a configurable acceptance rule.
#[derive(Debug, Clone)]
pub struct PathVectorNode {
    id: NodeId,
    is_landmark: bool,
    limit: TableLimit,
    /// Data-plane routing table: only destinations accepted by the table
    /// limit (plus the self entry). This is exactly what the node exports.
    /// Mutate only through [`Self::tbl_insert`] / [`Self::tbl_remove`],
    /// which keep the ordered mirrors below consistent.
    pub table: FxHashMap<NodeId, RouteEntry>,
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
    /// The Loc-RIB is *not* stored here: it is the [`RibStore`]'s
    /// per-destination selection column (see [`RibStore::selected_view`]),
    /// maintained incrementally through [`Self::select_candidate`] /
    /// [`Self::rescan_best`] so a message costs O(degree), not O(all
    /// candidates). The former `best: FxHashMap<NodeId, RouteEntry>`
    /// duplicated ~56 B per known destination on top of the candidates.
    ///
    /// Ordered mirrors that turn the per-message O(table) / O(best) scans
    /// of cap admission into O(log) lookups — the difference between
    /// per-event cost growing with √n and staying flat. Keyed on compact
    /// 4-byte destination keys (`d.0 as u32`), *not* on interned RIB
    /// indexes: the `(dist, key)` order must equal the `(dist, NodeId)`
    /// order — distance ties are everywhere on unit-weight graphs and the
    /// tie-break decides cap admission — and intern order is arrival
    /// order, which would reorder ties and change converged tables.
    ///
    /// Non-landmark, non-self *table* entries by `(dist, key)`
    /// (max = the cap's eviction candidate).
    locals: BTreeSet<(OrdW, u32)>,
    /// Non-landmark *selected* routes not currently in the table, by
    /// `(dist, key)` (min = the cap's best waiting candidate).
    waiting: BTreeSet<(OrdW, u32)>,
    /// Landmark-flagged *selected* routes by `(dist, key)` (min = this
    /// node's own landmark distance).
    lm_best: BTreeSet<(OrdW, u32)>,
    /// Per-destination count of landmark-flagged candidates across all
    /// neighbors (incremental OR-merge of the landmark flag; absent = 0).
    cand_lm: FxHashMap<NodeId, u32>,
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
    /// updated. Composite protocols watch this to notice that the landmark
    /// set (consistent-hashing ownership of resolution shards) or this
    /// node's own address (closest landmark + path) may have changed,
    /// without recomputing either per message.
    landmark_version: u64,
    /// Bumped whenever a selection column is (re)written — i.e. whenever
    /// this node's selected next hop for some destination may have moved.
    /// The engine samples it around upcalls to feed the repair-latency
    /// telemetry probe; it never influences protocol behavior.
    selection_revision: u64,
    /// Whether the landmark flag of a table entry follows the *selected*
    /// route (origin-authoritative, see
    /// [`Self::set_origin_landmark_flags`]) instead of the legacy OR-merge
    /// over all candidates. Off by default: only needed once landmarks can
    /// step down (dynamic `n`-estimation).
    origin_landmark_flags: bool,
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
            table: FxHashMap::default(),
            rib: RibStore::new(),
            forgetful: None,
            pending_refresh: BTreeSet::new(),
            refreshes_sent: 0,
            refreshes_answered: 0,
            locals: BTreeSet::new(),
            waiting: BTreeSet::new(),
            lm_best: BTreeSet::new(),
            cand_lm: FxHashMap::default(),
            origin_landmark_flags: false,
            own_landmark_dist: if is_landmark { 0.0 } else { Weight::INFINITY },
            pending: disco_graph::FxHashSet::default(),
            landmark_version: 0,
            selection_revision: 0,
            batch_armed: false,
            dump_scratch: Vec::new(),
            batch_delay: 2.0,
        }
    }

    /// Version counter of this node's view of the landmark set (bumped when
    /// a landmark appears in or disappears from the table).
    pub fn landmark_version(&self) -> u64 {
        self.landmark_version
    }

    /// Monotone counter of selection-column writes (route selection
    /// changes); the engine's telemetry layer reads this through
    /// [`Protocol::control_revision`].
    pub fn selection_revision(&self) -> u64 {
        self.selection_revision
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
        self.table.len().saturating_sub(1)
    }

    /// Converged distance to `dest`, if known.
    pub fn distance_to(&self, dest: NodeId) -> Option<Weight> {
        self.table.get(&dest).map(|e| e.dist)
    }

    /// Landmark entries currently in the table.
    pub fn landmark_entries(&self) -> impl Iterator<Item = (&NodeId, &RouteEntry)> {
        self.table.iter().filter(|(_, e)| e.dest_is_landmark)
    }

    /// Non-landmark entries currently in the table (the vicinity / cluster).
    pub fn local_entries(&self) -> impl Iterator<Item = (&NodeId, &RouteEntry)> {
        self.table
            .iter()
            .filter(move |(&d, e)| !e.dest_is_landmark && d != self.id)
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

    /// The forgetful alternate budget, if forgetful routing is on.
    pub fn forgetful_rib(&self) -> Option<usize> {
        self.forgetful
    }

    /// Candidate-store gauge (per-node candidate count, path nodes and
    /// approximate bytes) for memory experiments.
    pub fn rib_stats(&self) -> RibStats {
        self.rib.stats()
    }

    /// Visit every destination this node currently serves a selected route
    /// for (the RIB's selection column, in interning order) — the
    /// forwarding-table compile sweep of [`crate::forward`].
    pub fn for_each_selected(&self, f: impl FnMut(NodeId, SelectedRoute<'_>)) {
        self.rib.for_each_selected(f)
    }

    /// Approximate heap bytes of this node's Loc-RIB *view*: the
    /// selection columns in the [`RibStore`] plus the ordered
    /// `locals`/`waiting`/`lm_best` mirrors (≈12 B keys in B-tree nodes
    /// that amortize to about twice the payload). This is the "loc-rib
    /// bytes" column of `exp_memory`'s per-component accounting — the
    /// state that used to be a materialized `FxHashMap<NodeId,
    /// RouteEntry>` per node.
    pub fn loc_rib_bytes(&self) -> usize {
        self.rib.selection_bytes() + self.mirror_entries() * 24
    }

    /// Entries across the three ordered mirrors (`locals` + `waiting` +
    /// `lm_best`), for the byte-model accounting: the pre-view layout kept
    /// the same mirrors at 16-byte `(dist, NodeId)` keys.
    pub fn mirror_entries(&self) -> usize {
        self.locals.len() + self.waiting.len() + self.lm_best.len()
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

    /// Compact 4-byte mirror key for a destination (order-isomorphic to
    /// `NodeId` — see the mirror field docs).
    #[inline]
    fn dkey(d: NodeId) -> u32 {
        debug_assert_eq!(d.0 as u32 as usize, d.0, "node ids must fit u32");
        d.0 as u32
    }

    /// Insert a table entry, keeping the `locals` / `waiting` mirrors
    /// consistent. Returns the replaced entry, like `HashMap::insert`.
    fn tbl_insert(&mut self, d: NodeId, e: RouteEntry) -> Option<RouteEntry> {
        let is_local = d != self.id && !e.dest_is_landmark;
        let new_key = (OrdW(e.dist), Self::dkey(d));
        let old = self.table.insert(d, e);
        if let Some(o) = &old {
            if d != self.id && !o.dest_is_landmark {
                self.locals.remove(&(OrdW(o.dist), Self::dkey(d)));
            }
        }
        if is_local {
            self.locals.insert(new_key);
        }
        // A destination in the table is never waiting.
        if let Some((dist, flag)) = self.rib.selected_parts(d) {
            if !flag {
                self.waiting.remove(&(OrdW(dist), Self::dkey(d)));
            }
        }
        old
    }

    /// Remove a table entry, keeping the mirrors consistent.
    fn tbl_remove(&mut self, d: NodeId) -> Option<RouteEntry> {
        let old = self.table.remove(&d)?;
        if d != self.id && !old.dest_is_landmark {
            self.locals.remove(&(OrdW(old.dist), Self::dkey(d)));
        }
        // A non-landmark selected route no longer in the table waits for a
        // cap slot again.
        if let Some((dist, flag)) = self.rib.selected_parts(d) {
            if !flag {
                self.waiting.insert((OrdW(dist), Self::dkey(d)));
            }
        }
        Some(old)
    }

    /// Drop the current selection's mirror key (call before any mutation
    /// of the selection for `d`).
    fn unmirror_best(&mut self, d: NodeId) {
        if let Some(di) = self.rib.idx(d) {
            self.unmirror_best_at(d, di);
        }
    }

    /// [`Self::unmirror_best`] with the destination index in hand.
    fn unmirror_best_at(&mut self, d: NodeId, di: u32) {
        if let Some((dist, flag)) = self.rib.selected_parts_at(di) {
            let k = (OrdW(dist), Self::dkey(d));
            if flag {
                self.lm_best.remove(&k);
            } else {
                self.waiting.remove(&k);
            }
        }
    }

    /// Mirror the current selection for `d` (call after the selection
    /// mutation; a destination resident in the table is never `waiting`).
    fn mirror_best(&mut self, d: NodeId) {
        if let Some(di) = self.rib.idx(d) {
            self.mirror_best_at(d, di);
        }
    }

    /// [`Self::mirror_best`] with the destination index in hand.
    fn mirror_best_at(&mut self, d: NodeId, di: u32) {
        if let Some((dist, flag)) = self.rib.selected_parts_at(di) {
            let k = (OrdW(dist), Self::dkey(d));
            if flag {
                self.lm_best.insert(k);
            } else if !self.table.contains_key(&d) {
                self.waiting.insert(k);
            }
        }
    }

    /// Point the Loc-RIB selection at `nbr`'s candidate `cand` for `d`
    /// (the flag policy decides between the candidate's own flag and the
    /// OR-merge), keeping the mirrors consistent. `cand` is the candidate
    /// just recorded in `nbr`'s slab, so the selection columns are written
    /// straight from it — no slab re-probe.
    fn select_candidate(&mut self, d: NodeId, di: u32, nbr: NodeId, cand: Candidate) {
        self.selection_revision += 1;
        let flag = if self.origin_landmark_flags {
            cand.dest_is_landmark
        } else {
            self.cand_is_lm(d)
        };
        self.unmirror_best_at(d, di);
        self.rib.select_from_at(di, nbr, cand, flag);
        self.mirror_best_at(d, di);
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
        let entry = self.self_entry();
        self.tbl_insert(self.id, entry);
        vec![Self::export(self.id, &self.table[&self.id], false)]
    }

    /// Make the landmark flag an attribute of the *selected* route: a
    /// table entry carries the flag its best candidate carries, exactly
    /// like the distance. Since every route to `d` is rooted at `d`'s own
    /// self-announcement, the origin's word — including a revocation —
    /// propagates along the export tree and converges like any other
    /// attribute. The legacy default instead OR-merges the flag over all
    /// candidates, which spreads a promotion faster but is *monotone*: a
    /// demotion could never propagate past one hop, because each node
    /// keeps its neighbors' stale flags alive. Enabled by the dynamic
    /// `n`-estimation mode, the only mode in which landmarks step down.
    pub fn set_origin_landmark_flags(&mut self, enabled: bool) {
        self.origin_landmark_flags = enabled;
    }

    /// Step down from landmark duty (the ×2 hysteresis re-election of §4.2
    /// decided against this node under a fresh estimate of `n`). The self
    /// entry is re-exported without the landmark flag on the next batch
    /// flush, which is what tells the rest of the network.
    pub fn demote_from_landmark(&mut self) {
        if !self.is_landmark {
            return;
        }
        self.is_landmark = false;
        // As a regular node, the own-landmark distance comes from the best
        // landmark route again.
        self.own_landmark_dist = self
            .lm_best
            .first()
            .map_or(Weight::INFINITY, |&(OrdW(w), _)| w);
        let e = self.self_entry();
        self.tbl_insert(self.id, e);
        self.pending.insert(self.id);
        self.landmark_version += 1;
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
            let w = self.worst_local().expect("locals non-empty");
            self.tbl_remove(w);
            self.pending.insert(w);
        }
        while self.locals.len() < size {
            let Some(w) = self.best_waiting() else {
                break;
            };
            let e = self.waiting_entry(w);
            self.tbl_insert(w, e);
            self.pending.insert(w);
        }
    }

    /// This node's own (zero-length) route entry.
    fn self_entry(&self) -> RouteEntry {
        RouteEntry {
            dist: 0.0,
            next_hop: self.id,
            path: InternedPath::single(self.id),
            dest_is_landmark: self.is_landmark,
            dest_landmark_dist: self.own_landmark_dist,
        }
    }

    /// The announcement exporting table entry `e` for `dest`.
    fn export(dest: NodeId, e: &RouteEntry, withdrawn: bool) -> Announcement {
        Announcement {
            dest,
            dist: e.dist,
            path: e.path.clone(),
            dest_is_landmark: e.dest_is_landmark,
            dest_landmark_dist: e.dest_landmark_dist,
            withdrawn,
            refresh: false,
        }
    }

    /// Bump / drop the per-destination count of landmark-flagged
    /// candidates (the OR-merge of the landmark flag, maintained
    /// incrementally).
    fn cand_lm_adjust(&mut self, d: NodeId, was: bool, now: bool) {
        match (was, now) {
            (false, true) => *self.cand_lm.entry(d).or_insert(0) += 1,
            (true, false) => {
                let c = self.cand_lm.get_mut(&d).expect("flag counter underflow");
                *c -= 1;
                if *c == 0 {
                    self.cand_lm.remove(&d);
                }
            }
            _ => {}
        }
    }

    /// Whether any candidate for `d` carries the landmark flag.
    fn cand_is_lm(&self, d: NodeId) -> bool {
        self.cand_lm.contains_key(&d)
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
                let was_lm = self.rib.insert_at(from, di, &cand) == Some(true);
                self.cand_lm_adjust(d, was_lm, ann.dest_is_landmark);
                return (d, Some(cand), Some(di));
            }
        }
        // Withdrawals and routes through this node make the neighbor
        // unusable for that destination.
        if self.rib.remove(from, d) == Some(true) {
            self.cand_lm_adjust(d, true, false);
        }
        // A removal can compact the interner, so no index survives this
        // branch; the (cold) caller path re-resolves.
        (d, None, None)
    }

    /// Recompute the Loc-RIB best route for `d` by scanning every
    /// neighbor's candidate — the slow path, needed only when the current
    /// best neighbor's own candidate worsened or disappeared. Selection is
    /// a pure function of the candidate set (the preference order is
    /// total), so equal-seed runs reselect identically.
    fn rescan_best(&mut self, d: NodeId) {
        self.selection_revision += 1;
        // Best candidate over neighbors, written straight into the
        // selection column (nothing materialized). The landmark flag is
        // OR-merged (via the incremental counter): it is intrinsic to the
        // destination, and candidates disagree only transiently while a
        // promotion floods.
        self.unmirror_best(d);
        if self.rib.select_best(d) && !self.origin_landmark_flags {
            let flag = self.cand_is_lm(d);
            self.rib.set_selected_flag(d, flag);
        }
        self.mirror_best(d);
    }

    /// Re-write the selection's landmark flag if the OR over candidates
    /// changed (the route itself is untouched). Under origin-authoritative
    /// flags this is a no-op: the flag belongs to the selected candidate,
    /// and a non-selected neighbor's word cannot change it.
    /// Returns whether the selection's flag actually changed.
    fn refresh_best_flag(&mut self, d: NodeId) -> bool {
        let di = self.rib.idx(d);
        self.refresh_best_flag_at(d, di)
    }

    /// [`Self::refresh_best_flag`] with the destination index in hand.
    fn refresh_best_flag_at(&mut self, d: NodeId, di: Option<u32>) -> bool {
        if self.origin_landmark_flags {
            return false;
        }
        let Some(di) = di else {
            return false;
        };
        let is_lm = self.cand_is_lm(d);
        if let Some((_, flag)) = self.rib.selected_parts_at(di) {
            if flag != is_lm {
                self.unmirror_best_at(d, di);
                self.rib.set_selected_flag(d, is_lm);
                self.mirror_best_at(d, di);
                return true;
            }
        }
        false
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
            // holds the pre-update values, exactly like the deleted `best`
            // map did.
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
                self.apply_selection(d, Some(di));
                return;
            }
        }
        if cur_hop == Some(from) {
            // Re-selection can clear the last selection and compact the
            // interner; `di` is dead past this point.
            self.rescan_best(d);
            // The selected route vanished with no retained alternate left.
            // If the forgetful policy discarded candidates for this
            // destination, a full RIB might still hold a route — re-solicit
            // the neighbors (batched with the next flush, so refresh storms
            // coalesce like withdrawals). Only total loss triggers this:
            // mere worsening heals through the neighbors' ordinary change
            // exports, and refreshing on every degradation feeds back (the
            // answers themselves get evicted, re-arming the trigger) into
            // a refresh storm that never quiesces.
            if self.forgetful.is_some()
                && self.rib.selected_hop(d).is_none()
                && self.rib.take_evicted(d)
            {
                self.pending_refresh.insert(d);
            }
        } else {
            // The selected route is untouched; only the OR-merged landmark
            // flag can have changed. When it did not, the table derivation
            // is already at a fixed point — the selection, the limit and
            // the table are all exactly as the last `apply_selection` left
            // them — so re-deriving is pure overhead on the most common
            // message (a non-improving announcement from a non-selected
            // neighbor). Only the landmark-version bump `apply_selection`
            // makes for a still-pending landmark entry is replicated, so
            // the composite protocol's repair triggers fire identically.
            // On the withdrawal / neighbor-down path no index is in hand
            // (and any pre-removal index would be compaction-stale) —
            // resolve it here so the flag refresh actually runs.
            let di = di.or_else(|| self.rib.idx(d));
            if !self.refresh_best_flag_at(d, di) {
                if self.table.get(&d).is_some_and(|e| e.dest_is_landmark)
                    && self.pending.contains(&d)
                {
                    self.landmark_version += 1;
                }
                return;
            }
            self.apply_selection(d, di);
            return;
        }
        self.apply_selection(d, None);
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
        let keep = if self.table.contains_key(&d) {
            1 + alternates
        } else {
            1
        };
        // The selected route (read from the selection column) is never
        // evicted, whatever its rank.
        let removed = self.rib.enforce(d, keep);
        if removed.is_empty() {
            return;
        }
        let mut lm_removed = false;
        for (_, was_lm) in removed {
            if was_lm {
                self.cand_lm_adjust(d, true, false);
                lm_removed = true;
            }
        }
        // Evicting the last landmark-flagged candidate can clear the
        // OR-merged flag; re-derive the entry so the table doesn't keep a
        // stale flag alive.
        if lm_removed && !self.origin_landmark_flags {
            self.refresh_best_flag(d);
            self.apply_selection(d, None);
        }
    }

    /// Whether a route with the given flag / distances qualifies for the
    /// table under the Cluster rule (landmarks always; others iff
    /// d(v, w) < d(w, ℓ_w)).
    fn cluster_accepts(is_landmark: bool, dist: Weight, lm_dist: Weight) -> bool {
        is_landmark || dist + 1e-12 < lm_dist
    }

    /// Vicinity ordering for cap admission: smaller distance first, ties by
    /// smaller id.
    fn cap_key(d: NodeId, dist: Weight) -> (Weight, NodeId) {
        (dist, d)
    }

    fn cap_less(a: (Weight, NodeId), b: (Weight, NodeId)) -> bool {
        a.0.partial_cmp(&b.0).unwrap().then_with(|| a.1.cmp(&b.1)) == std::cmp::Ordering::Less
    }

    /// The best selected route not currently in the table (the cap's
    /// waiting list), if any. O(log) via the `waiting` mirror.
    fn best_waiting(&self) -> Option<NodeId> {
        self.waiting.first().map(|&(_, d)| NodeId(d as usize))
    }

    /// The worst non-landmark table entry (the cap's eviction candidate).
    /// O(log) via the `locals` mirror.
    fn worst_local(&self) -> Option<NodeId> {
        self.locals.last().map(|&(_, d)| NodeId(d as usize))
    }

    /// Materialize the selected route of the cap's waiting candidate `w`
    /// for table admission.
    fn waiting_entry(&self, w: NodeId) -> RouteEntry {
        view_entry(
            &self
                .rib
                .selected_view(w)
                .expect("a waiting destination has a selected route"),
        )
    }

    /// Number of non-landmark, non-self table entries. O(1).
    fn local_count(&self) -> usize {
        self.locals.len()
    }

    /// Re-derive the table membership of `d` after its best route changed,
    /// recording export changes in `pending`. Handles the single admission
    /// / eviction the change can cause under [`TableLimit::VicinityCap`],
    /// and keeps `own_landmark_dist` (exported on the self entry) current.
    fn apply_selection(&mut self, d: NodeId, di: Option<u32>) {
        let di = di.or_else(|| self.rib.idx(d));
        // Cap-reject fast path: the overwhelmingly common apply during
        // convergence at scale is "a non-landmark selected route for a
        // destination outside the table that does not beat the cap's
        // worst resident". That case is provably a no-op on the table,
        // the ordered mirrors, the landmark version and the exported
        // own-landmark distance (`desired` derives to `None`, the old
        // entry is `None`, and no landmark flag is involved) — bail
        // before the full re-derivation pays half a dozen hash probes
        // and a materialized-entry compare.
        let parts = di.and_then(|i| self.rib.selected_parts_at(i));
        if let TableLimit::VicinityCap { size } = self.limit {
            if let Some((dist, flag)) = parts {
                if !flag && self.locals.len() >= size && !self.table.contains_key(&d) {
                    if let Some(&(OrdW(wd), wkey)) = self.locals.last() {
                        if !Self::cap_less(Self::cap_key(d, dist), (wd, NodeId(wkey as usize))) {
                            return;
                        }
                    }
                }
            }
        }
        let was_landmark_entry = self.table.get(&d).is_some_and(|e| e.dest_is_landmark);
        let best_is_landmark = parts.is_some_and(|(_, f)| f);
        let view = di.and_then(|i| self.rib.selected_view_at(i));
        let desired: Option<RouteEntry> = match (view, self.limit) {
            (None, _) => None,
            (Some(v), TableLimit::Unlimited) => Some(view_entry(&v)),
            (Some(v), TableLimit::Cluster) => {
                Self::cluster_accepts(v.dest_is_landmark, v.dist, v.dest_landmark_dist)
                    .then(|| view_entry(&v))
            }
            (Some(v), TableLimit::VicinityCap { size }) => {
                if v.dest_is_landmark {
                    Some(view_entry(&v))
                } else if self.table.contains_key(&d) && !was_landmark_entry {
                    // Already a local: keep unless the update worsened it
                    // below the best waiting candidate (checked after the
                    // entry is updated, below).
                    Some(view_entry(&v))
                } else {
                    // Admission test against the cap.
                    let fits = self.local_count() < size;
                    let beats_worst = self.worst_local().is_some_and(|w| {
                        Self::cap_less(
                            Self::cap_key(d, v.dist),
                            Self::cap_key(w, self.table[&w].dist),
                        )
                    });
                    (fits || beats_worst).then(|| view_entry(&v))
                }
            }
        };

        let landmark_involved = was_landmark_entry
            || desired.as_ref().is_some_and(|e| e.dest_is_landmark)
            || best_is_landmark;

        match desired {
            None => {
                if let Some(old) = self.tbl_remove(d) {
                    self.pending.insert(d);
                    // A freed cap slot admits the best waiting candidate.
                    if matches!(self.limit, TableLimit::VicinityCap { .. }) && !old.dest_is_landmark
                    {
                        if let Some(w) = self.best_waiting() {
                            let e = self.waiting_entry(w);
                            self.pending.insert(w);
                            self.tbl_insert(w, e);
                        }
                    }
                }
            }
            Some(entry) => {
                let changed = self.table.get(&d) != Some(&entry);
                if changed {
                    self.pending.insert(d);
                    let is_landmark_entry = entry.dest_is_landmark;
                    let evicted_slot = self.tbl_insert(d, entry);
                    if let TableLimit::VicinityCap { size } = self.limit {
                        if !is_landmark_entry {
                            if self.local_count() > size {
                                // Admission pushed the cap over: evict the
                                // worst local (possibly d itself on a tie).
                                if let Some(w) = self.worst_local() {
                                    self.tbl_remove(w);
                                    self.pending.insert(w);
                                }
                            } else if evicted_slot.is_some() {
                                // d's route worsened in place: the best
                                // waiting candidate may now beat it.
                                if let Some(w) = self.best_waiting() {
                                    let wd = self
                                        .rib
                                        .selected_parts(w)
                                        .expect("waiting dest has a selection")
                                        .0;
                                    let wk = Self::cap_key(w, wd);
                                    let dk = Self::cap_key(d, self.table[&d].dist);
                                    if Self::cap_less(wk, dk) {
                                        self.tbl_remove(d);
                                        let e = self.waiting_entry(w);
                                        self.pending.insert(w);
                                        self.tbl_insert(w, e);
                                    }
                                }
                            }
                        } else if evicted_slot.is_some_and(|p| !p.dest_is_landmark) {
                            // A local was re-classified as a landmark,
                            // freeing a cap slot.
                            if let Some(w) = self.best_waiting() {
                                let e = self.waiting_entry(w);
                                self.pending.insert(w);
                                self.tbl_insert(w, e);
                            }
                        }
                    }
                }
            }
        }

        // Track changes to landmark routes: membership changes reshuffle
        // consistent-hashing ownership, and any landmark-entry update can
        // move this node's own address. `pending` membership approximates
        // "d's export changed" (it can linger from an earlier un-flushed
        // change; the occasional spurious bump only costs a debounced
        // repair pass).
        let is_landmark_entry = self.table.get(&d).is_some_and(|e| e.dest_is_landmark);
        if is_landmark_entry != was_landmark_entry
            || (is_landmark_entry && self.pending.contains(&d))
        {
            self.landmark_version += 1;
        }

        // Keep the exported own-landmark distance current; the cluster rule
        // at *other* nodes keys on it. O(log) via the `lm_best` mirror
        // instead of a scan over every best candidate.
        if landmark_involved && !self.is_landmark {
            let new_old = self
                .lm_best
                .first()
                .map_or(Weight::INFINITY, |&(OrdW(w), _)| w);
            if new_old != self.own_landmark_dist {
                self.own_landmark_dist = new_old;
                if self.table.contains_key(&self.id) {
                    // (Absent only before on_start: nothing exported yet.)
                    let e = self.self_entry();
                    self.tbl_insert(self.id, e);
                    self.pending.insert(self.id);
                }
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
            let ann = match self.table.get(&d) {
                Some(e) => Self::export(d, e, false),
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
        self.dump_scratch.extend(self.table.keys().copied());
        self.dump_scratch.sort_unstable();
        let mut batch = Vec::with_capacity(self.dump_scratch.len());
        for &d in &self.dump_scratch {
            let ann = Self::export(d, &self.table[&d], false);
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
        let e = self.self_entry();
        self.tbl_insert(self.id, e);
        // Announce ourselves. Under the S4 cluster rule a non-landmark node
        // waits until it knows its own landmark distance (the reselection
        // re-announces the self entry as soon as the first landmark route
        // arrives); otherwise the initial announcement carries an infinite
        // landmark distance and would flood the whole network like plain
        // path vector, which is not how S4 behaves after its landmark phase.
        if self.is_landmark || !matches!(self.limit, TableLimit::Cluster) {
            let ann = Self::export(self.id, &self.table[&self.id], false);
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
            if let Some(e) = self.table.get(&msg.dest) {
                self.refreshes_answered += 1;
                let ann = Self::export(msg.dest, e, false);
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
        for (d, was_lm) in lost {
            if was_lm {
                self.cand_lm_adjust(d, true, false);
            }
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
        (engine.nodes().to_vec(), report.stats)
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
        let locals: Vec<_> = node.local_entries().collect();
        assert_eq!(locals.len(), cap);
        for (&d, e) in &locals {
            let want = truth.distance(d).unwrap();
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
                let has = nodes[v.0].table.contains_key(&w);
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
        let e = engine.nodes()[0]
            .table
            .get(&NodeId(1))
            .expect("repaired route");
        assert_eq!(
            e.path.to_vec(),
            vec![NodeId(0), NodeId(3), NodeId(2), NodeId(1)]
        );
        assert!((e.dist - 3.0).abs() < 1e-9);
        // And the reverse direction healed too.
        let r = engine.nodes()[1]
            .table
            .get(&NodeId(0))
            .expect("reverse route");
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
                !node.table.contains_key(&victim),
                "{v} still has a table entry for departed {victim}"
            );
            for (d, e) in &node.table {
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
            for (d, e) in &node.table {
                let want = truth.distance(*d).expect("reachable");
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
            assert_eq!(node.table.len(), reachable, "{v} table incomplete");
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
        let locals: Vec<_> = node.local_entries().collect();
        assert_eq!(locals.len(), 12);
        for (&d, e) in locals {
            assert!((e.dist - truth.distance(d).unwrap()).abs() < 1e-9);
        }
        // Existing nodes adopted the joiner into nearby vicinities.
        let have_joiner = g
            .nodes()
            .filter(|v| engine.nodes()[v.0].table.contains_key(&joiner))
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
            node.local_entries().map(|(&d, e)| (e.dist, d)).collect();
        before.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));

        node.set_vicinity_cap(8);
        assert_eq!(node.table_limit(), TableLimit::VicinityCap { size: 8 });
        let mut kept: Vec<(f64, NodeId)> =
            node.local_entries().map(|(&d, e)| (e.dist, d)).collect();
        kept.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        assert_eq!(kept, before[..8], "shrink must keep the closest locals");

        // Growing re-admits from the retained candidate set.
        node.set_vicinity_cap(20);
        assert_eq!(node.local_entries().count(), 20);
        let mut back: Vec<(f64, NodeId)> =
            node.local_entries().map(|(&d, e)| (e.dist, d)).collect();
        back.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        assert_eq!(back, before);
    }

    #[test]
    fn demotion_clears_landmark_flag_and_reexports() {
        let g = generators::ring(6);
        let lm = NodeId(2);
        let (mut nodes, _) = run(&g, &[lm], |_| TableLimit::Unlimited);
        assert!(nodes[2].is_landmark());
        nodes[2].demote_from_landmark();
        assert!(!nodes[2].is_landmark());
        // The self entry is queued for re-export without the flag, and the
        // own-landmark distance is no longer 0 (no other landmark exists).
        assert!(!nodes[2].table[&lm].dest_is_landmark);
        assert!(nodes[2].own_landmark_distance().is_infinite());
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
            engine.nodes().to_vec()
        };
        let full = run(None);
        let forgetful = run(Some(1));
        let (mut full_cands, mut slim_cands) = (0usize, 0usize);
        for v in g.nodes() {
            let (a, b) = (&full[v.0], &forgetful[v.0]);
            assert_eq!(a.table.len(), b.table.len(), "table size differs at {v}");
            for (d, e) in &a.table {
                let f = b.table.get(d).expect("same destinations");
                assert_eq!(e, f, "{v}→{d} entry differs");
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
                node.rib_stats().candidates <= node.table.len() * 2 + 96,
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
        let node = &engine.nodes()[0];
        let e = node.table.get(&NodeId(1)).expect("route re-solicited");
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
        let current = engine.graph();
        for v in [NodeId(0), NodeId(5), NodeId(9), NodeId(30), NodeId(47)] {
            let truth = dijkstra(current, v);
            for (d, e) in &engine.nodes()[v.0].table {
                let want = truth.distance(*d).expect("reachable");
                assert!(
                    (e.dist - want).abs() < 1e-9,
                    "{v}→{d}: forgetful table {} vs dijkstra {want}",
                    e.dist
                );
            }
        }
    }

    /// Regression: withdrawing the *non-selected* neighbor's candidate —
    /// the only landmark-flagged one — must clear the OR-merged landmark
    /// flag on the selection and the table entry (the index-threaded
    /// refresh once bailed out on the withdrawal path, where no
    /// destination index is in hand, leaving the stale flag alive).
    #[test]
    fn withdrawing_nonselected_landmark_candidate_clears_or_merged_flag() {
        use disco_graph::GraphBuilder;
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId(0), NodeId(1), 1.0);
        b.add_edge(NodeId(0), NodeId(2), 1.0);
        let g = b.build();
        let mut pv = PathVectorNode::new(NodeId(0), false, TableLimit::Unlimited);
        let mut ctx: disco_sim::Context<'_, Announcement> =
            disco_sim::Context::new(NodeId(0), 0.0, &g, 64);
        pv.on_start(&mut ctx);
        let ann = |dist: f64, path: &[NodeId], lm: bool, withdrawn: bool| Announcement {
            dest: NodeId(3),
            dist,
            path: InternedPath::from_slice(path),
            dest_is_landmark: lm,
            dest_landmark_dist: if lm { 0.0 } else { f64::INFINITY },
            withdrawn,
            refresh: false,
        };
        // Neighbor 1: the better route, not landmark-flagged.
        pv.on_message(
            NodeId(1),
            ann(1.0, &[NodeId(1), NodeId(3)], false, false),
            &mut ctx,
        );
        // Neighbor 2: worse route, landmark-flagged (transient disagreement
        // while a promotion floods). The OR-merge flags the selection.
        pv.on_message(
            NodeId(2),
            ann(2.0, &[NodeId(2), NodeId(3)], true, false),
            &mut ctx,
        );
        assert!(pv.table[&NodeId(3)].dest_is_landmark, "OR-merge must flag");
        assert_eq!(pv.own_landmark_distance(), 2.0);
        // Neighbor 2 withdraws: the only landmark-flagged candidate is
        // gone; the selection (still via neighbor 1) must lose the flag.
        pv.on_message(
            NodeId(2),
            ann(2.0, &[NodeId(2), NodeId(3)], true, true),
            &mut ctx,
        );
        assert!(
            !pv.table[&NodeId(3)].dest_is_landmark,
            "stale OR-merged landmark flag survived the withdrawal"
        );
        assert!(pv.own_landmark_distance().is_infinite());
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
            disco_sim::Context::new(NodeId(0), 0.0, &g, 64);
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
        assert_eq!(pv.table[&d].next_hop, NodeId(1), "tie broken by path order");
        let revision = pv.selection_revision();
        let live = disco_graph::PathArena::stats().live_cells;

        pv.on_message(NodeId(1), ann(1, 4.0), &mut ctx);

        let e = &pv.table[&d];
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
                    .any(|(&lm, _)| lm == NodeId(4)),
                "{v} did not learn the promoted landmark"
            );
        }
    }
}
