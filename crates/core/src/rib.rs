//! Compact storage for the path-vector Adj-RIB-In.
//!
//! Candidate routes are the control plane's dominant memory consumer: every
//! byte per candidate is multiplied by `degree × dests × n`. The original
//! layout — `FxHashMap<NodeId, FxHashMap<NodeId, Candidate>>` — pays two
//! hash-map headers, per-entry hashing overhead and pointer-chasing for
//! every candidate. [`RibStore`] replaces it with
//!
//! * a per-node **destination interner** (`NodeId` → dense `u32` index),
//! * one **slab per neighbor**: a dense `Vec` of 24-byte candidate slots
//!   (distance, landmark distance, path, and the destination index with
//!   the landmark flag in its top bit), kept dense with swap-remove, plus
//!   a `dest index → slot` position map. A slot keeps the path *as the
//!   neighbor announced it* (`[neighbor, …, destination]`): absorbing an
//!   announcement is a reference-count bump on the announced path, and
//!   the loop check a scan of it — nothing is built per candidate,
//! * a **forgetful eviction** primitive ([`RibStore::enforce`]) that trims
//!   a destination's candidate set down to the selected route plus a
//!   bounded alternate set, remembering (per destination) that information
//!   was discarded so the protocol can re-solicit it when needed
//!   (paper §4.2, forgetful routing),
//! * one 40-byte **destination record** per interned index — the Loc-RIB
//!   *and the routing table* as a view over the store, created when a
//!   destination is interned and remapped by compaction. A message for a
//!   destination reads one record, not a column per field:
//!   * the destination's id, its candidate count and evicted flag (12 B
//!     with padding, the interner's and eviction policy's share);
//!   * the **selection** (`neighbor, cost, landmark flag, landmark
//!     distance, interned path id`, 25 B), written by the owner through
//!     [`RibStore::select_from_at`] / [`RibStore::select_best`] and read in
//!     place through [`RibStore::selected_view`]. Its path is the store's
//!     owner ([`RibStore::for_owner`]) prepended to the selected
//!     candidate's — the path the owner exports — built, one arena cell,
//!     only when the selected *path* moves (another neighbor, or the same
//!     one announcing a path other than the selection's tail). A
//!     re-announcement that moves only the distance, landmark distance or
//!     flag keeps the cell, so during a boot a cell is paid per selection
//!     change, not per announcement absorbed;
//!   * the selected path's **hop count** (2 B: the announced path's
//!     length), written by the store with the path, and only when the
//!     path moved. It is what lets a forwarding-table compile leave the
//!     path arena alone, and what lets [`RibStore::promotes`] decide a
//!     tie between two neighbors without it;
//!   * the **resident** mark (1 B): the owner's "this selected route is in
//!     the routing table" (§4.2's acceptance rule is a *filter* over the
//!     selection, so the table is the marked subset — nothing is copied).
//!     Only the owner sets it ([`RibStore::set_resident_at`]); the store
//!     clears it with the selection it marks and makes no decision on it.
//!
//!   Beside the records sits the **id order** (4 B per interned
//!   destination once built): the interned indexes sorted by destination
//!   id, which [`RibStore::for_each_route_by_id`] walks to hand a
//!   from-scratch forwarding compile its rows already in published order.
//!   It is built lazily, by the first ordered visit after it was dropped,
//!   and dropped in exactly the two places an interned index appears or
//!   moves — interning a new destination and the compaction remap. It
//!   orders all interned indexes, selected or not, so selections coming
//!   and going never touch it. A republish rarely needs it: the owner
//!   journals which destination each selection write touched
//!   (`PathVectorNode::writes_since`), and a compile that patches an
//!   earlier epoch reads just those rows, one
//!   [`RibStore::route_by_id`] probe each.
//!
//! The selection is a *cache* of the selected candidate's fields, not a
//! pointer into the slabs: after the backing candidate is withdrawn the
//! cached values remain readable until the owner re-selects. That is
//! deliberate — the repairing path vector reads the previous best while
//! deciding how to heal (and, during a neighbor-down sweep, may transiently
//! export a not-yet-reprocessed destination's old route, behavior the churn
//! goldens bake in).
//!
//! The store is policy-free: which destinations are resident or exempt
//! from forgetting (landmarks, vicinity members) and when to send a
//! route-refresh is decided by [`crate::path_vector::PathVectorNode`].
//! Selection order is a pure function of the candidate *set* (the
//! preference order is total), so replacing the nested maps cannot change
//! protocol behavior — the churn golden test locks this. Nor can keeping
//! candidates un-prefixed: every path a store compares shares the owner
//! as its first node, so announced paths order exactly as the prefixed
//! ones did.

use disco_graph::{FxHashMap, InternedPath, NodeId, Weight};
use std::cell::OnceCell;
use std::cmp::Ordering;

/// A candidate route as held in the per-neighbor Adj-RIB-In: a
/// [`SelectedRoute`] minus the next hop (implied by which neighbor's slab
/// the candidate sits in), with the path as the neighbor announced it.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Distance from this node to the destination via the neighbor.
    pub dist: Weight,
    /// Path from the neighbor to the destination, as announced (the
    /// neighbor first): the store prepends its owner only when the
    /// candidate is selected and its path moved.
    pub path: InternedPath,
    /// Whether the destination is a landmark.
    pub dest_is_landmark: bool,
    /// The destination's distance to its own closest landmark.
    pub dest_landmark_dist: Weight,
}

/// Deterministic route preference: smaller distance, then shorter path,
/// then lexicographically smaller path. Total over distinct candidates
/// (paths from different neighbors differ in their first node), which is
/// what makes selection independent of iteration order. Over announced
/// paths it orders exactly as over the same paths with the owner
/// prepended.
fn preferred_parts(
    a_dist: Weight,
    a_path: &InternedPath,
    b_dist: Weight,
    b_path: &InternedPath,
) -> bool {
    if a_dist + 1e-12 < b_dist {
        return true;
    }
    if b_dist + 1e-12 < a_dist {
        return false;
    }
    a_path.cmp_route(b_path) == Ordering::Less
}

const ABSENT: u32 = u32::MAX;

/// The landmark flag's bit in a slot's destination index.
const LM_BIT: u32 = 1 << 31;

/// One candidate in a neighbor's slab: 24 bytes, the landmark flag packed
/// into the top bit of the destination index.
#[derive(Debug, Clone)]
struct Slot {
    /// Distance (link weight already included).
    dist: Weight,
    /// The destination's own-landmark distance.
    lm_dist: Weight,
    /// Destination index, `| LM_BIT` when the destination is a landmark.
    tagged: u32,
    /// Path as announced (the neighbor first).
    path: InternedPath,
}

const _: () = assert!(std::mem::size_of::<Slot>() == 24);

impl Slot {
    fn new(di: u32, cand: &Candidate) -> Self {
        Slot {
            dist: cand.dist,
            lm_dist: cand.dest_landmark_dist,
            tagged: di | (LM_BIT * u32::from(cand.dest_is_landmark)),
            path: cand.path.clone(),
        }
    }

    fn di(&self) -> u32 {
        self.tagged & !LM_BIT
    }

    /// The candidate, materialized (the path copy is a refcount bump).
    fn candidate(&self) -> Candidate {
        Candidate {
            dist: self.dist,
            path: self.path.clone(),
            dest_is_landmark: self.tagged & LM_BIT != 0,
            dest_landmark_dist: self.lm_dist,
        }
    }
}

/// One neighbor's candidates: slots `0..len` are dense (occupied); `pos`
/// maps an interned destination index to its slot. The position index is
/// a compact `u32 → u32` hash map rather than a dense vector: a node's
/// destination universe is the *union* of every neighbor's exports, so
/// per-neighbor occupancy is sparse (δ-fold so under forgetful eviction)
/// and dense position vectors would cost `δ × dests × 4` bytes of
/// mostly-empty slots per node. On top of the records, dense positions
/// read about 5 % more announcements/s on an n=2048 boot (2-vCPU Xeon VM)
/// for 28 MB more peak RSS, and cost more than the hashes when forgetful.
#[derive(Debug, Clone, Default)]
struct NeighborSlab {
    /// Destination index → slot.
    pos: FxHashMap<u32, u32>,
    /// The candidates, dense.
    slots: Vec<Slot>,
}

impl NeighborSlab {
    fn slot_of(&self, di: u32) -> Option<usize> {
        self.pos.get(&di).map(|&s| s as usize)
    }

    fn get(&self, di: u32) -> Option<Candidate> {
        self.slot_of(di).map(|s| self.slots[s].candidate())
    }

    /// Insert or replace; returns whether a candidate was replaced.
    fn insert(&mut self, di: u32, cand: &Candidate) -> bool {
        if let Some(s) = self.slot_of(di) {
            self.slots[s] = Slot::new(di, cand);
            return true;
        }
        self.pos.insert(di, self.slots.len() as u32);
        self.slots.push(Slot::new(di, cand));
        false
    }

    /// Remove the candidate for `di`, keeping slots dense (swap-remove).
    /// Returns whether there was one.
    fn remove(&mut self, di: u32) -> bool {
        let Some(s) = self.slot_of(di) else {
            return false;
        };
        self.pos.remove(&di);
        self.slots.swap_remove(s);
        if let Some(moved) = self.slots.get(s) {
            // The former last slot moved into `s`; update its position.
            self.pos.insert(moved.di(), s as u32);
        }
        true
    }

    /// Approximate heap bytes held by this slab (positions + slots;
    /// interned path cells are accounted by the arena, not here).
    fn approx_bytes(&self) -> usize {
        self.pos.capacity() * 10 // ~(4+4) B payload + control per slot
            + self.slots.capacity() * std::mem::size_of::<Slot>()
    }
}

/// Per-node gauge of the candidate store, used by `exp_memory` to meter
/// control-plane state against the paper's `Θ(√(n log n))` bound.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RibStats {
    /// Candidates currently held across all neighbors.
    pub candidates: usize,
    /// Distinct destinations interned (live + holes awaiting compaction).
    pub dests_interned: usize,
    /// Destinations with a selected route (the Loc-RIB view's occupancy).
    pub selected: usize,
    /// Total path nodes across all candidates, as announced (each
    /// retains arena cells, shared with the announcing neighbor's).
    pub path_nodes: usize,
    /// Approximate heap bytes of the Adj-RIB-In proper (slabs, interner,
    /// and each destination record's id, candidate count, evicted flag
    /// and padding; the record's view fields are accounted separately).
    pub approx_bytes: usize,
    /// Approximate heap bytes of the per-destination view (selection, hop
    /// count and resident mark of each record, and the id order once
    /// built) — the Loc-RIB and routing-table component of `exp_memory`'s
    /// byte accounting.
    pub selection_bytes: usize,
    /// Candidates evicted by the forgetful policy since construction.
    pub evictions: u64,
}

/// Borrowed view of the selected route for one destination — everything
/// the forwarding / export path needs, read in place. A routing-table
/// entry is one of these whose destination the owner marked resident.
/// Unlike a [`Candidate`]'s, its path starts at the store's owner.
#[derive(Debug, PartialEq)]
pub struct SelectedRoute<'a> {
    /// Neighbor the selected route goes through.
    pub next_hop: NodeId,
    /// Distance to the destination via that neighbor.
    pub dist: Weight,
    /// Destination's distance to its own closest landmark.
    pub dest_landmark_dist: Weight,
    /// Whether the destination is a landmark, by the selected candidate.
    pub dest_is_landmark: bool,
    /// Path from this node to the destination (this node first).
    pub path: &'a InternedPath,
}

/// One interned destination (see the module docs): 28 bytes of view —
/// the selection, its hop count and the resident mark — and 12 of
/// bookkeeping.
#[derive(Debug, Clone)]
struct DestRecord {
    /// Selected route's distance.
    sel_dist: Weight,
    /// Selected route's destination-landmark distance.
    sel_lm_dist: Weight,
    /// The destination's node id (compact: simulation node ids fit u32).
    dest: u32,
    /// The selected route's neighbor (`ABSENT` = none selected). The
    /// fields after it are cached, not dereferenced through the slab —
    /// see the module docs for why staleness is load-bearing.
    sel_nbr: u32,
    /// Selected route's path: the owner prepended to the selected
    /// candidate's announced path — one arena cell, built when the
    /// selected path moves and kept while it does not.
    sel_path: Option<InternedPath>,
    /// Candidates held for this destination across neighbors.
    cand_count: u32,
    /// Selected route's hop count (the announced path's length,
    /// saturated): kept beside the selection so a forwarding-table compile
    /// never reads the path arena. Written where the path is
    /// ([`RibStore::select_from_at`]), stale with it.
    sel_hops: u16,
    /// Selected route's landmark flag.
    sel_flag: bool,
    /// The owner's routing-table mark. Only ever set on a destination
    /// with a selection, and cleared with it.
    resident: bool,
    /// The forgetful policy discarded candidates for this destination
    /// since the flag was last taken.
    evicted: bool,
}

const _: () = assert!(std::mem::size_of::<DestRecord>() == 40);

/// Bytes of a [`DestRecord`] that are the view: neighbor 4, distance 8,
/// landmark distance 8, flag 1, path 4, hop count 2, resident mark 1.
const VIEW_BYTES: usize = 28;

impl DestRecord {
    fn new(dest: u32) -> Self {
        DestRecord {
            sel_dist: 0.0,
            sel_lm_dist: 0.0,
            dest,
            sel_nbr: ABSENT,
            sel_path: None,
            cand_count: 0,
            sel_hops: 0,
            sel_flag: false,
            resident: false,
            evicted: false,
        }
    }

    /// Whether this destination must survive compaction.
    fn is_live(&self) -> bool {
        self.cand_count > 0 || self.evicted || self.sel_nbr != ABSENT
    }

    fn view(&self) -> Option<SelectedRoute<'_>> {
        (self.sel_nbr != ABSENT).then(|| SelectedRoute {
            next_hop: NodeId(self.sel_nbr as usize),
            dist: self.sel_dist,
            dest_landmark_dist: self.sel_lm_dist,
            dest_is_landmark: self.sel_flag,
            path: self.sel_path.as_ref().expect("selection holds a path"),
        })
    }
}

/// The compact Adj-RIB-In: per-neighbor slabs over interned destination
/// records. See the module docs.
#[derive(Debug, Clone)]
pub struct RibStore {
    /// The node whose Adj-RIB-In this is: the first node of every
    /// selected path.
    owner: NodeId,
    /// Destination index → record.
    recs: Vec<DestRecord>,
    /// Destination node id → index.
    dest_idx: FxHashMap<u32, u32>,
    /// Per-neighbor slabs. A linear-scan vector, not a map: a node has
    /// `degree` slabs (≈8–20 on the evaluation topologies), and the
    /// per-message slab lookup beats hashing at that size while keeping
    /// perfect cache locality. All outputs derived from iteration are
    /// order-independent (the preference order is total), so the layout
    /// cannot change behavior.
    slabs: Vec<(NodeId, NeighborSlab)>,
    /// Occupied candidates across all slabs.
    total: usize,
    /// The interned indexes sorted by destination id — the order
    /// [`RibStore::for_each_route_by_id`] visits in. It covers every
    /// interned index, selected or not, so only interning a destination
    /// or compacting the interner can change it: those two drop it, the
    /// next ordered visit rebuilds it (under `&self`, hence the cell).
    id_order: OnceCell<Vec<u32>>,
    /// Destinations with a selection (`sel_nbr != ABSENT`).
    sel_count: usize,
    /// Destinations with candidates, a pending evicted flag or a selection
    /// (the ones a compaction must keep) — maintained incrementally so the
    /// compaction trigger is O(1) per mutation.
    live_dests: usize,
    /// Candidates evicted by [`RibStore::enforce`] since construction.
    evictions: u64,
}

impl Default for RibStore {
    fn default() -> Self {
        Self::new()
    }
}

impl RibStore {
    /// An empty store owned by `NodeId(0)` (see [`RibStore::for_owner`]).
    pub fn new() -> Self {
        Self::for_owner(NodeId(0))
    }

    /// An empty store for node `owner`'s Adj-RIB-In: candidates keep the
    /// paths their neighbors announced, and a selection's path is `owner`
    /// prepended to its candidate's.
    pub fn for_owner(owner: NodeId) -> Self {
        RibStore {
            owner,
            recs: Vec::new(),
            dest_idx: FxHashMap::default(),
            slabs: Vec::new(),
            total: 0,
            id_order: OnceCell::new(),
            sel_count: 0,
            live_dests: 0,
            evictions: 0,
        }
    }

    /// Intern `d`, returning its dense index.
    fn dest_id(&mut self, d: NodeId) -> u32 {
        let key = d.0 as u32;
        debug_assert_eq!(key as usize, d.0, "node ids must fit u32");
        if let Some(&i) = self.dest_idx.get(&key) {
            return i;
        }
        let i = self.recs.len() as u32;
        assert!(
            i < LM_BIT,
            "destination index overflows the slots' flag bit"
        );
        self.recs.push(DestRecord::new(key));
        self.id_order.take();
        self.dest_idx.insert(key, i);
        i
    }

    /// Look up the interned index of `d`, if any.
    #[inline]
    fn idx_of(&self, d: NodeId) -> Option<usize> {
        self.dest_idx.get(&(d.0 as u32)).map(|&i| i as usize)
    }

    /// Intern `d` and return its dense destination index — the handle the
    /// hot message path threads through `insert_at` / `selected_*_at` /
    /// `select_from_at` so one interner probe serves the whole
    /// absorb→select→apply chain instead of one per accessor.
    ///
    /// Validity: indexes are stable under insertions and selections but
    /// remapped by the occupancy-triggered compaction, which only the
    /// *removal* paths ([`RibStore::remove`], [`RibStore::remove_neighbor`],
    /// [`RibStore::enforce`], a [`RibStore::select_best`] that clears the
    /// selection) can trigger — so a handle must not be held across those.
    #[inline]
    pub fn intern(&mut self, d: NodeId) -> u32 {
        self.dest_id(d)
    }

    /// The interned index of `d`, if any (see [`RibStore::intern`] for the
    /// validity rules).
    #[inline]
    pub fn idx(&self, d: NodeId) -> Option<u32> {
        self.idx_of(d).map(|i| i as u32)
    }

    #[inline]
    fn slab_of(&self, nbr: NodeId) -> Option<&NeighborSlab> {
        self.slabs.iter().find(|(n, _)| *n == nbr).map(|(_, s)| s)
    }

    #[inline]
    fn slab_mut(&mut self, nbr: NodeId) -> Option<&mut NeighborSlab> {
        self.slabs
            .iter_mut()
            .find(|(n, _)| *n == nbr)
            .map(|(_, s)| s)
    }

    /// The slab for `nbr`, created on first use.
    fn slab_entry(&mut self, nbr: NodeId) -> &mut NeighborSlab {
        match self.slabs.iter().position(|(n, _)| *n == nbr) {
            Some(i) => &mut self.slabs[i].1,
            None => {
                self.slabs.push((nbr, NeighborSlab::default()));
                &mut self.slabs.last_mut().expect("just pushed").1
            }
        }
    }

    /// Candidates currently held across all neighbors.
    pub fn len(&self) -> usize {
        self.total
    }

    /// Whether the store holds no candidates.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Number of candidates held for destination `d` across neighbors.
    pub fn count_for(&self, d: NodeId) -> usize {
        self.idx_of(d)
            .map_or(0, |i| self.recs[i].cand_count as usize)
    }

    /// The candidate neighbor `nbr` holds for `d`, if any (materialized;
    /// the path copy is a reference-count bump).
    pub fn get(&self, nbr: NodeId, d: NodeId) -> Option<Candidate> {
        let di = self.idx_of(d)?;
        self.slab_of(nbr)?.get(di as u32)
    }

    /// Insert or replace the candidate `nbr` announced for `d`.
    pub fn insert(&mut self, nbr: NodeId, d: NodeId, cand: &Candidate) {
        let di = self.dest_id(d);
        self.insert_at(nbr, di, cand)
    }

    /// [`RibStore::insert`] for an already-interned destination index.
    pub fn insert_at(&mut self, nbr: NodeId, di: u32, cand: &Candidate) {
        if self.slab_entry(nbr).insert(di, cand) {
            return;
        }
        self.total += 1;
        let rec = &mut self.recs[di as usize];
        if !rec.is_live() {
            self.live_dests += 1;
        }
        rec.cand_count += 1;
    }

    /// Remove the candidate `nbr` holds for `d`; returns whether it held
    /// one.
    pub fn remove(&mut self, nbr: NodeId, d: NodeId) -> bool {
        let Some(di) = self.idx_of(d) else {
            return false;
        };
        if !self.slab_mut(nbr).is_some_and(|s| s.remove(di as u32)) {
            return false;
        }
        self.drop_count(di as u32);
        self.maybe_compact();
        true
    }

    /// Account for one removed candidate of `di`, tracking liveness.
    fn drop_count(&mut self, di: u32) {
        self.total -= 1;
        let rec = &mut self.recs[di as usize];
        rec.cand_count -= 1;
        if !rec.is_live() {
            self.live_dests -= 1;
        }
    }

    /// Drop every candidate learned from `nbr`; returns the affected
    /// destinations sorted by id (deterministic re-selection order for the
    /// caller).
    pub fn remove_neighbor(&mut self, nbr: NodeId) -> Vec<NodeId> {
        let Some(i) = self.slabs.iter().position(|(n, _)| *n == nbr) else {
            return Vec::new();
        };
        let (_, slab) = self.slabs.swap_remove(i);
        let mut out: Vec<NodeId> = Vec::with_capacity(slab.slots.len());
        for slot in &slab.slots {
            let di = slot.di();
            self.drop_count(di);
            out.push(NodeId(self.recs[di as usize].dest as usize));
        }
        out.sort_unstable();
        self.maybe_compact();
        out
    }

    /// The most-preferred candidate's `(neighbor, slot)` for destination
    /// index `di`. Deterministic: the preference order is total, so the
    /// minimum is independent of slab iteration order.
    fn best_slot(&self, di: u32) -> Option<(NodeId, &Slot)> {
        let mut best: Option<(NodeId, &Slot)> = None;
        for &(nbr, ref slab) in &self.slabs {
            let Some(s) = slab.slot_of(di) else { continue };
            let slot = &slab.slots[s];
            if best.is_none_or(|(_, b)| preferred_parts(slot.dist, &slot.path, b.dist, &b.path)) {
                best = Some((nbr, slot));
            }
        }
        best
    }

    /// The most-preferred candidate for `d` over all neighbors, with the
    /// neighbor that announced it.
    pub fn best_for(&self, d: NodeId) -> Option<(NodeId, Candidate)> {
        let (nbr, slot) = self.best_slot(self.idx_of(d)? as u32)?;
        Some((nbr, slot.candidate()))
    }

    // ---- the Loc-RIB view (the records' selection fields) ----

    /// Whether `cand`, just announced by `from` for the destination
    /// indexed `di`, takes over the selection: nothing is selected, it is
    /// preferred to the selection's *cached* route (`from` may have
    /// re-announced over its own selected candidate), or it is an
    /// attribute-only refresh — the selected neighbor re-announcing the
    /// very route it is selected for, with only the destination's
    /// landmark distance or flag moved — which leaves its rank where it
    /// was, so it is still the minimum.
    ///
    /// `cand`'s announced path starts `[from, …]` like the selection's
    /// tail starts `[selected neighbor, …]`, so a distance tie between two
    /// different neighbors is decided as the path order would decide it —
    /// the shorter path, then the smaller neighbor id — from the record's
    /// hop count, without reading the path arena. Only a re-announcement
    /// by the selected neighbor (or a saturated hop count) compares paths,
    /// the announced one against the selection's tail.
    pub fn promotes(&self, di: u32, from: NodeId, cand: &Candidate) -> bool {
        let rec = &self.recs[di as usize];
        if rec.sel_nbr == ABSENT || cand.dist + 1e-12 < rec.sel_dist {
            return true;
        }
        if rec.sel_dist + 1e-12 < cand.dist {
            return false;
        }
        let same = rec.sel_nbr == from.0 as u32;
        if !same && rec.sel_hops < u16::MAX {
            let hops = cand.path.len();
            let ord = hops.cmp(&usize::from(rec.sel_hops));
            return ord.then(from.0.cmp(&(rec.sel_nbr as usize))) == Ordering::Less;
        }
        let cur = rec.sel_path.as_ref().expect("selection holds a path");
        match cand.path.cmp_route_to_tail(cur) {
            Ordering::Less => true,
            Ordering::Equal => same && cand.dist == rec.sel_dist,
            Ordering::Greater => false,
        }
    }

    /// Point the selection for the destination indexed `di` at `cand`, a
    /// candidate `nbr`'s slab holds for it, caching every field — the
    /// landmark flag like the distance — without re-reading the slab (two
    /// probes on the hottest protocol path, promotion of a fresh
    /// announcement).
    ///
    /// The selection's path is the owner prepended to `cand`'s, built —
    /// one arena cell — only when the selected path moves: another
    /// neighbor, or the same one announcing a path that differs from the
    /// selection's tail. A re-announcement that moves only the distance,
    /// the landmark distance or the flag keeps the cell it had.
    ///
    /// Returns whether the selected route — neighbor, distance, landmark
    /// distance, landmark flag or path — differs from the one the record
    /// held (always, when it held none): the one place that is decided,
    /// before the old values are gone.
    pub fn select_from_at(&mut self, di: u32, nbr: NodeId, cand: Candidate) -> bool {
        debug_assert!(
            self.slab_of(nbr).is_some_and(|s| s.slot_of(di).is_some()),
            "selected neighbor must hold a candidate"
        );
        let owner = self.owner;
        let rec = &mut self.recs[di as usize];
        let nbr = nbr.0 as u32;
        let path_moved = rec.sel_nbr != nbr
            || rec
                .sel_path
                .as_ref()
                .is_none_or(|cur| cand.path.cmp_route_to_tail(cur) != Ordering::Equal);
        let moved = path_moved
            || rec.sel_dist != cand.dist
            || rec.sel_lm_dist != cand.dest_landmark_dist
            || rec.sel_flag != cand.dest_is_landmark;
        if rec.sel_nbr == ABSENT {
            // It holds a candidate, so it was already live.
            self.sel_count += 1;
        }
        if path_moved {
            // An unmoved path keeps its cell, so its hop count; a moved
            // one's is the announced length.
            let hops = cand.path.len();
            rec.sel_hops = hops.min(usize::from(u16::MAX)) as u16;
            rec.sel_path = Some(cand.path.prepend(owner));
        }
        rec.sel_nbr = nbr;
        rec.sel_dist = cand.dist;
        rec.sel_lm_dist = cand.dest_landmark_dist;
        rec.sel_flag = cand.dest_is_landmark;
        moved
    }

    /// Recompute the selection for `d` as the most-preferred candidate
    /// over all neighbors. Returns `None` when no candidate is left (the
    /// selection is cleared), otherwise whether the selected route moved,
    /// like [`RibStore::select_from_at`].
    pub fn select_best(&mut self, d: NodeId) -> Option<bool> {
        let di = self.idx_of(d)?;
        match self.best_slot(di as u32) {
            Some((nbr, slot)) => {
                let cand = slot.candidate();
                Some(self.select_from_at(di as u32, nbr, cand))
            }
            None => {
                self.clear_selected(di);
                None
            }
        }
    }

    /// Drop the selection for destination index `di`, if any, and the
    /// resident mark with it.
    fn clear_selected(&mut self, di: usize) {
        let rec = &mut self.recs[di];
        if rec.sel_nbr == ABSENT {
            return;
        }
        rec.sel_nbr = ABSENT;
        rec.sel_path = None;
        rec.resident = false;
        self.sel_count -= 1;
        if !rec.is_live() {
            self.live_dests -= 1;
        }
        self.maybe_compact();
    }

    /// The selected route's next hop for `d`, if a route is selected.
    #[inline]
    pub fn selected_hop(&self, d: NodeId) -> Option<NodeId> {
        self.selected_hop_at(self.idx_of(d)? as u32)
    }

    /// [`RibStore::selected_hop`] by destination index.
    #[inline]
    pub fn selected_hop_at(&self, di: u32) -> Option<NodeId> {
        let nbr = self.recs[di as usize].sel_nbr;
        (nbr != ABSENT).then_some(NodeId(nbr as usize))
    }

    /// The full selected-route view for `d` (one interner probe).
    #[inline]
    pub fn selected_view(&self, d: NodeId) -> Option<SelectedRoute<'_>> {
        self.selected_view_at(self.idx_of(d)? as u32)
    }

    /// [`RibStore::selected_view`] by destination index.
    #[inline]
    pub fn selected_view_at(&self, di: u32) -> Option<SelectedRoute<'_>> {
        self.recs[di as usize].view()
    }

    /// Destinations with a selected route — how many rows
    /// [`RibStore::for_each_route_by_id`] yields.
    #[inline]
    pub fn selected_count(&self) -> usize {
        self.sel_count
    }

    /// Visit every destination with a selected route as `(destination,
    /// next hop, path hop count)`, in ascending destination id — the
    /// forwarding-table compile sweep, already in the order the table
    /// publishes. The rows are the cached selections (see the module docs
    /// on load-bearing staleness), which is exactly the contract a
    /// compiled data plane wants: the routes this node is currently
    /// *serving*, not the candidates a repair in flight may be about to
    /// select. Reads the records and the id order; never the path arena.
    pub fn for_each_route_by_id(&self, mut f: impl FnMut(NodeId, NodeId, u16)) {
        let order = self.id_order.get_or_init(|| {
            let mut order: Vec<u32> = (0..self.recs.len() as u32).collect();
            order.sort_unstable_by_key(|&i| self.recs[i as usize].dest);
            order
        });
        for &i in order {
            let rec = &self.recs[i as usize];
            if rec.sel_nbr != ABSENT {
                f(
                    NodeId(rec.dest as usize),
                    NodeId(rec.sel_nbr as usize),
                    rec.sel_hops,
                );
            }
        }
    }

    /// `d`'s row of [`RibStore::for_each_route_by_id`] — `(next hop, path
    /// hop count)` — or `None` when no route to it is selected: what a
    /// forwarding compile that patches reads, one interner probe a row.
    pub fn route_by_id(&self, d: NodeId) -> Option<(NodeId, u16)> {
        let rec = &self.recs[self.idx_of(d)?];
        (rec.sel_nbr != ABSENT).then_some((NodeId(rec.sel_nbr as usize), rec.sel_hops))
    }

    /// Visit every destination with a selected route, in interning order,
    /// with the full view (path included) — the reference
    /// [`RibStore::for_each_route_by_id`] is checked against.
    pub fn for_each_selected(&self, mut f: impl FnMut(NodeId, SelectedRoute<'_>)) {
        for rec in &self.recs {
            if let Some(view) = rec.view() {
                f(NodeId(rec.dest as usize), view);
            }
        }
    }

    /// The selected route's `(distance, landmark flag, resident mark)`
    /// for destination index `di` — the three fields the owner's ordered
    /// mirrors key on.
    #[inline]
    pub fn selected_parts_at(&self, di: u32) -> Option<(Weight, bool, bool)> {
        let rec = &self.recs[di as usize];
        (rec.sel_nbr != ABSENT).then_some((rec.sel_dist, rec.sel_flag, rec.resident))
    }

    /// Set or clear the owner's routing-table mark on the selected route
    /// of destination index `di`.
    #[inline]
    pub fn set_resident_at(&mut self, di: u32, resident: bool) {
        let rec = &mut self.recs[di as usize];
        debug_assert!(!resident || rec.sel_nbr != ABSENT);
        rec.resident = resident;
    }

    /// Whether the owner marked `d` resident.
    #[inline]
    pub fn is_resident(&self, d: NodeId) -> bool {
        self.idx_of(d).is_some_and(|di| self.recs[di].resident)
    }

    /// The selected route for `d` if the owner marked it resident — the
    /// routing table, read in place.
    #[inline]
    pub fn resident_view(&self, d: NodeId) -> Option<SelectedRoute<'_>> {
        let rec = &self.recs[self.idx_of(d)?];
        rec.resident.then(|| rec.view()).flatten()
    }

    /// Approximate heap bytes of the per-destination view — the Loc-RIB
    /// and routing table: the records' 28 view bytes per interned
    /// destination (4 nbr + 8 dist + 8 lm-dist + 1 flag + 4 `Option<path
    /// id>` — the path handle's `NonZeroU32` niche keeps the `Option` at 4
    /// bytes — plus 2 hop count and 1 resident mark), and 4 B more for the
    /// id order once an ordered visit has built it.
    pub fn selection_bytes(&self) -> usize {
        self.recs.capacity() * VIEW_BYTES + self.id_order.get().map_or(0, |o| o.capacity() * 4)
    }

    /// All candidates for `d` as `(neighbor, candidate)`, sorted by
    /// preference (best first). Used by the eviction policy and tests.
    ///
    /// The sort key is `(total_cmp(dist), path order)` — a genuine total
    /// order, unlike `preferred_parts`, whose `1e-12` tolerance band is
    /// not transitive and would hand `sort_unstable_by` a comparison
    /// cycle on float-accumulated near-ties (a panic since Rust 1.81).
    /// The two orders agree everywhere outside that band — in particular
    /// on exact ties, the only ties unit-weight topologies produce — and
    /// [`RibStore::enforce`] force-keeps the *selected* candidate
    /// regardless of rank, so a near-tie can only reorder alternates.
    pub fn candidates_for(&self, d: NodeId) -> Vec<(NodeId, Candidate)> {
        let Some(di) = self.idx_of(d) else {
            return Vec::new();
        };
        let mut out: Vec<(NodeId, Candidate)> = self
            .slabs
            .iter()
            .filter_map(|&(nbr, ref slab)| slab.get(di as u32).map(|c| (nbr, c)))
            .collect();
        out.sort_unstable_by(|a, b| {
            a.1.dist
                .total_cmp(&b.1.dist)
                .then_with(|| a.1.path.cmp_route(&b.1.path))
        });
        out
    }

    /// Forgetful eviction (§4.2): keep at most `keep` candidates for `d` —
    /// always including the *selected* candidate (read from the record),
    /// whatever its rank — evicting the least-preferred rest. Marks `d` as
    /// having forgotten information.
    pub fn enforce(&mut self, d: NodeId, keep: usize) {
        let Some(di) = self.idx_of(d) else {
            return;
        };
        if (self.recs[di].cand_count as usize) <= keep {
            return;
        }
        let di = di as u32;
        let mut ranked = self.candidates_for(d);
        // The selected route is never evicted, whatever its rank.
        if let Some(hop) = self.selected_hop_at(di) {
            if let Some(p) = ranked.iter().position(|&(nbr, _)| nbr == hop) {
                let sel = ranked.remove(p);
                ranked.insert(0, sel);
            }
        }
        for (nbr, _) in ranked.drain(keep.max(1)..) {
            let held = self.slab_mut(nbr).is_some_and(|s| s.remove(di));
            debug_assert!(held, "ranked candidate must exist");
            self.drop_count(di);
            self.evictions += 1;
            self.recs[di as usize].evicted = true;
        }
        self.maybe_compact();
    }

    /// Whether the forgetful policy has discarded candidates for `d` since
    /// the flag was last taken; clears the flag. The caller re-solicits
    /// (route-refresh) exactly when this returns true after a loss.
    pub fn take_evicted(&mut self, d: NodeId) -> bool {
        let Some(di) = self.idx_of(d) else {
            return false;
        };
        let rec = &mut self.recs[di];
        let was = std::mem::replace(&mut rec.evicted, false);
        if was && !rec.is_live() {
            self.live_dests -= 1;
        }
        was
    }

    /// Gauge snapshot for `exp_memory`.
    pub fn stats(&self) -> RibStats {
        let slabs = || self.slabs.iter().map(|(_, s)| s);
        RibStats {
            candidates: self.total,
            dests_interned: self.recs.len(),
            selected: self.sel_count,
            path_nodes: slabs().flat_map(|s| &s.slots).map(|s| s.path.len()).sum(),
            approx_bytes: slabs().map(NeighborSlab::approx_bytes).sum::<usize>()
                + self.recs.capacity() * (std::mem::size_of::<DestRecord>() - VIEW_BYTES)
                + self.dest_idx.capacity() * 10,
            selection_bytes: self.selection_bytes(),
            evictions: self.evictions,
        }
    }

    /// Rebuild the destination interner when most interned destinations no
    /// longer hold candidates (long churn runs otherwise grow the records
    /// with the union of every destination ever seen). Triggered from the
    /// mutation paths by occupancy, so behavior stays a pure function of
    /// the operation sequence.
    fn maybe_compact(&mut self) {
        let live = self.live_dests;
        debug_assert_eq!(live, self.recs.iter().filter(|r| r.is_live()).count());
        if self.recs.len() < 64 || live * 4 >= self.recs.len() {
            return;
        }
        let mut remap = vec![ABSENT; self.recs.len()];
        let mut recs = Vec::with_capacity(live);
        let mut dest_idx = FxHashMap::default();
        for (i, rec) in std::mem::take(&mut self.recs).into_iter().enumerate() {
            if !rec.is_live() {
                continue;
            }
            let ni = recs.len() as u32;
            remap[i] = ni;
            dest_idx.insert(rec.dest, ni);
            recs.push(rec);
        }
        for (_, slab) in self.slabs.iter_mut() {
            let mut pos = FxHashMap::default();
            for (s, slot) in slab.slots.iter_mut().enumerate() {
                let ni = remap[slot.di() as usize];
                debug_assert!(ni != ABSENT, "occupied dest must survive compaction");
                slot.tagged = ni | (slot.tagged & LM_BIT);
                pos.insert(ni, s as u32);
            }
            slab.pos = pos;
        }
        self.live_dests = recs.len();
        self.recs = recs;
        self.id_order.take();
        self.dest_idx = dest_idx;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disco_graph::PathArena;

    /// A candidate as neighbor `path[0]` announces it to node 0.
    fn cand(path: &[usize], dist: Weight, lm: bool) -> Candidate {
        let nodes: Vec<NodeId> = path.iter().map(|&i| NodeId(i)).collect();
        Candidate {
            dist,
            path: InternedPath::from_slice(&nodes),
            dest_is_landmark: lm,
            dest_landmark_dist: Weight::INFINITY,
        }
    }

    /// Select the candidate `nbr` holds for `d`, the way the owner does.
    fn select(rib: &mut RibStore, d: NodeId, nbr: NodeId) -> bool {
        let cand = rib.get(nbr, d).expect("selecting a held candidate");
        rib.select_from_at(rib.idx(d).unwrap(), nbr, cand)
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut rib = RibStore::for_owner(NodeId(0));
        let (n1, n2, d) = (NodeId(1), NodeId(2), NodeId(9));
        assert!(rib.is_empty());
        rib.insert(n1, d, &cand(&[1, 9], 2.0, false));
        rib.insert(n2, d, &cand(&[2, 9], 3.0, true));
        assert_eq!(rib.len(), 2);
        assert_eq!(rib.count_for(d), 2);
        // Replacement overwrites in place.
        rib.insert(n2, d, &cand(&[2, 9], 1.0, false));
        assert_eq!(rib.len(), 2);
        let got = rib.get(n2, d).unwrap();
        assert_eq!(got.dist, 1.0);
        assert!(!got.dest_is_landmark);
        assert!(rib.remove(n2, d));
        assert!(!rib.remove(n2, d));
        assert_eq!(rib.len(), 1);
        assert_eq!(rib.count_for(d), 1);
        assert!(rib.remove(n1, d));
        assert!(rib.is_empty());
    }

    #[test]
    fn best_for_is_preference_minimum() {
        let mut rib = RibStore::for_owner(NodeId(0));
        let d = NodeId(9);
        rib.insert(NodeId(1), d, &cand(&[1, 9], 2.0, false));
        rib.insert(NodeId(2), d, &cand(&[2, 9], 1.5, false));
        rib.insert(NodeId(3), d, &cand(&[3, 9], 1.5, false));
        let (nbr, best) = rib.best_for(d).unwrap();
        // 1.5 ties; path [0,2,9] < [0,3,9] lexicographically.
        assert_eq!(nbr, NodeId(2));
        assert_eq!(best.dist, 1.5);
        let ranked = rib.candidates_for(d);
        assert_eq!(
            ranked.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
            vec![NodeId(2), NodeId(3), NodeId(1)]
        );
    }

    #[test]
    fn remove_neighbor_reports_sorted_dests() {
        let mut rib = RibStore::for_owner(NodeId(0));
        rib.insert(NodeId(1), NodeId(7), &cand(&[1, 7], 2.0, true));
        rib.insert(NodeId(1), NodeId(3), &cand(&[1, 3], 2.0, false));
        rib.insert(NodeId(2), NodeId(3), &cand(&[2, 3], 2.0, false));
        let lost = rib.remove_neighbor(NodeId(1));
        assert_eq!(lost, vec![NodeId(3), NodeId(7)]);
        assert_eq!(rib.len(), 1);
        assert!(rib.remove_neighbor(NodeId(1)).is_empty());
    }

    #[test]
    fn enforce_keeps_selected_and_best_alternates() {
        let mut rib = RibStore::for_owner(NodeId(0));
        let d = NodeId(9);
        for (i, dist) in [(1, 4.0), (2, 1.0), (3, 2.0), (4, 3.0)] {
            rib.insert(NodeId(i), d, &cand(&[i, 9], dist, false));
        }
        // Keep 2 (selected + 1 alternate); the selected hop is the worst
        // candidate (forced survivor, read from the selection column).
        select(&mut rib, d, NodeId(1));
        rib.enforce(d, 2);
        assert!(rib.get(NodeId(1), d).is_some(), "selected survives");
        assert!(rib.get(NodeId(2), d).is_some(), "best alternate survives");
        assert_eq!(rib.count_for(d), 2);
        assert!(rib.take_evicted(d));
        assert!(!rib.take_evicted(d), "flag is taken once");
        // Under budget: no-op, flag untouched.
        rib.enforce(d, 2);
        assert!(!rib.take_evicted(d));
        assert_eq!(rib.stats().evictions, 2);
    }

    #[test]
    fn selection_view_tracks_select_and_clear() {
        let mut rib = RibStore::for_owner(NodeId(0));
        let d = NodeId(9);
        rib.insert(NodeId(1), d, &cand(&[1, 9], 2.0, false));
        rib.insert(NodeId(2), d, &cand(&[2, 9], 1.0, true));
        assert!(rib.selected_hop(d).is_none());
        assert_eq!(rib.select_best(d), Some(true));
        assert_eq!(rib.selected_hop(d), Some(NodeId(2)));
        let v = rib.selected_view(d).unwrap();
        assert_eq!(v.dist, 1.0);
        assert!(v.dest_is_landmark);
        // The selection starts at the owner; the candidate stays as its
        // neighbor announced it.
        assert_eq!(v.path.to_vec(), vec![NodeId(0), NodeId(2), NodeId(9)]);
        let held = rib.get(NodeId(2), d).unwrap().path;
        assert_eq!(held.to_vec(), vec![NodeId(2), NodeId(9)]);
        assert_eq!(v.path.tail(), Some(held));
        let di = rib.idx(d).unwrap();
        assert_eq!(rib.selected_parts_at(di), Some((1.0, true, false)));
        // The owner's table mark rides on the selection.
        assert!(rib.resident_view(d).is_none());
        rib.set_resident_at(di, true);
        assert_eq!(rib.selected_parts_at(di), Some((1.0, true, true)));
        assert_eq!(rib.resident_view(d), rib.selected_view(d));
        // Re-selecting the same candidate moves nothing; a re-announcement
        // over it does, whichever field it changed — the flag included —
        // but one of the same path (here built apart: equal nodes, other
        // cells) keeps the selection's cell.
        let cells = || PathArena::stats().interned_total;
        assert_eq!(rib.select_best(d), Some(false));
        let (nearer, unflagged) = (cand(&[2, 9], 0.5, true), cand(&[2, 9], 0.5, false));
        let before = cells();
        rib.insert(NodeId(2), d, &nearer);
        assert_eq!(rib.select_best(d), Some(true));
        rib.insert(NodeId(2), d, &unflagged);
        assert_eq!(rib.select_best(d), Some(true));
        assert!(!rib.selected_view(d).unwrap().dest_is_landmark);
        assert_eq!(cells(), before, "attribute-only moves build no cell");
        // Explicit selection of a non-best candidate is allowed (the owner
        // decides); stats count the occupancy, the mark stays. A moved
        // path is one new cell, the owner on the announced path.
        let before = cells();
        assert!(select(&mut rib, d, NodeId(1)));
        assert_eq!(cells(), before + 1);
        assert!(!select(&mut rib, d, NodeId(1)));
        let v = rib.selected_view(d).unwrap();
        assert_eq!(v.path.to_vec(), vec![NodeId(0), NodeId(1), NodeId(9)]);
        assert_eq!(rib.selected_hop(d), Some(NodeId(1)));
        assert!(rib.is_resident(d));
        assert_eq!(rib.stats().selected, 1);
        // Clearing the selection clears the mark with it.
        rib.clear_selected(di as usize);
        assert!(rib.selected_view(d).is_none());
        assert!(!rib.is_resident(d));
        assert_eq!(rib.stats().selected, 0);
        assert!(rib.stats().selection_bytes > 0);
    }

    /// The selection column is a cache: after the backing candidate is
    /// removed the cached fields stay readable (the repairing path vector
    /// reads the previous best while healing), until a reselect.
    #[test]
    fn selection_survives_candidate_removal_until_reselect() {
        let mut rib = RibStore::for_owner(NodeId(0));
        let d = NodeId(9);
        rib.insert(NodeId(1), d, &cand(&[1, 9], 2.0, false));
        rib.insert(NodeId(2), d, &cand(&[2, 9], 3.0, false));
        assert!(rib.select_best(d).is_some());
        assert_eq!(rib.selected_hop(d), Some(NodeId(1)));
        rib.remove(NodeId(1), d);
        let v = rib.selected_view(d).expect("stale view still readable");
        assert_eq!(v.next_hop, NodeId(1));
        assert_eq!(v.dist, 2.0);
        assert_eq!(
            rib.select_best(d),
            Some(true),
            "falls back to the alternate"
        );
        assert_eq!(rib.selected_hop(d), Some(NodeId(2)));
        // Total loss clears the selection.
        rib.remove_neighbor(NodeId(2));
        assert_eq!(rib.select_best(d), None);
        assert!(rib.selected_hop(d).is_none());
    }

    /// Compaction must keep destinations whose only liveness is a (stale)
    /// selection, and carry every per-destination column — selection, hop
    /// count, resident mark — across the remap.
    #[test]
    fn compaction_preserves_selections() {
        let mut rib = RibStore::for_owner(NodeId(0));
        let (nbr, other) = (NodeId(1), NodeId(2));
        for i in 0..199 {
            rib.insert(nbr, NodeId(1000 + i), &cand(&[1, 1000 + i], 2.0, false));
        }
        // The last destination sits one hop further out than the rest.
        rib.insert(nbr, NodeId(1199), &cand(&[1, 5, 1199], 2.0, false));
        // One destination keeps a candidate from another neighbor.
        rib.insert(other, NodeId(1100), &cand(&[2, 1100], 3.0, true));
        rib.select_best(NodeId(1199));
        rib.select_best(NodeId(1000));
        rib.set_resident_at(rib.idx(NodeId(1199)).unwrap(), true);
        let routes = |rib: &RibStore| {
            let mut rows = Vec::new();
            rib.for_each_route_by_id(|d, hop, hops| rows.push((d, hop, hops)));
            rows
        };
        let want = vec![(NodeId(1000), nbr, 2), (NodeId(1199), nbr, 3)];
        assert_eq!(routes(&rib), want, "by id, not by selection order");
        // Removing the neighbor wholesale leaves the two selections as the
        // only liveness of their destinations; the sweep's removals push
        // occupancy below the compaction threshold.
        rib.remove_neighbor(nbr);
        assert!(rib.stats().dests_interned < 64, "compaction must have run");
        for d in [NodeId(1000), NodeId(1199)] {
            let v = rib.selected_view(d).expect("selection survives compaction");
            assert_eq!(v.next_hop, nbr);
            assert_eq!((v.path.first(), v.path.second()), (NodeId(0), Some(nbr)));
            assert_eq!(v.path.last(), d);
        }
        assert_eq!(routes(&rib), want, "hop counts and id order survive");
        assert_eq!(rib.stats().selected, 2);
        assert!(!rib.is_resident(NodeId(1000)));
        assert!(rib.is_resident(NodeId(1199)), "mark survives compaction");
        assert!(!rib.is_resident(NodeId(1100)));
        assert!(rib.get(other, NodeId(1100)).unwrap().dest_is_landmark);
        // Reselecting after total loss clears them and frees the dests.
        assert_eq!(rib.select_best(NodeId(1000)), None);
        assert_eq!(rib.select_best(NodeId(1199)), None);
        assert_eq!(rib.stats().selected, 0);
        assert!(routes(&rib).is_empty());
        assert!(!rib.is_resident(NodeId(1199)));
    }

    #[test]
    fn compaction_preserves_contents() {
        let mut rib = RibStore::for_owner(NodeId(0));
        let nbr = NodeId(1);
        for i in 0..200 {
            rib.insert(nbr, NodeId(1000 + i), &cand(&[1, 1000 + i], 2.0, false));
        }
        // Remove most destinations to trigger compaction, keep a few.
        for i in 0..190 {
            rib.remove(nbr, NodeId(1000 + i));
        }
        assert!(
            rib.stats().dests_interned < 64,
            "interner must shrink, still {} dests",
            rib.stats().dests_interned
        );
        for i in 190..200 {
            let c = rib.get(nbr, NodeId(1000 + i)).expect("survivor present");
            assert_eq!(c.path.last(), NodeId(1000 + i));
        }
        assert_eq!(rib.len(), 10);
        // Interning new destinations after compaction still works.
        rib.insert(nbr, NodeId(5000), &cand(&[1, 5000], 1.0, false));
        assert_eq!(rib.best_for(NodeId(5000)).unwrap().0, nbr);
    }
}
