//! Compact storage for the path-vector Adj-RIB-In.
//!
//! Candidate routes are the control plane's dominant memory consumer: every
//! byte per candidate is multiplied by `degree × dests × n`. The original
//! layout — `FxHashMap<NodeId, FxHashMap<NodeId, Candidate>>` — pays two
//! hash-map headers, per-entry hashing overhead and pointer-chasing for
//! every candidate. [`RibStore`] replaces it with
//!
//! * a per-node **destination interner** (`NodeId` → dense `u32` index),
//! * one **slab per neighbor**: a struct-of-arrays of `Candidate` fields
//!   (`cost`, `landmark_flag`, `path`, …) addressed by slab slot, kept
//!   dense with swap-remove, plus a `dest index → slot` position vector,
//! * a **forgetful eviction** primitive ([`RibStore::enforce`]) that trims
//!   a destination's candidate set down to the selected route plus a
//!   bounded alternate set, remembering (per destination) that information
//!   was discarded so the protocol can re-solicit it when needed
//!   (paper §4.2, forgetful routing),
//! * per-destination **columns** — the Loc-RIB *and the routing table* as
//!   a view over the store, dense and parallel, created when a destination
//!   is interned and remapped together by compaction:
//!   * the **selection** (`neighbor, cost, landmark flag, landmark
//!     distance, interned path id`, ~25 B), written by the owner through
//!     [`RibStore::select_from_at`] / [`RibStore::select_best`] and read in
//!     place through [`RibStore::selected_view`];
//!   * the selected path's **hop count** (2 B), written by the store with
//!     the path, and only when the selected route actually moved — the
//!     comparison that decides that has just read the path's arena cell,
//!     so the hot message path gains one store and no cold read. It is
//!     what lets a forwarding-table compile leave the path arena alone;
//!   * the **resident** mark (1 B): the owner's "this selected route is in
//!     the routing table" (§4.2's acceptance rule is a *filter* over the
//!     selection, so the table is the marked subset — nothing is copied).
//!     Only the owner sets it ([`RibStore::set_resident_at`]); the store
//!     clears it with the selection it marks and makes no decision on it.
//!
//!   Beside the columns sits the **id order** (4 B per interned
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
//! The selection columns are a *cache* of the selected candidate's fields,
//! not a pointer into the slabs: after the backing candidate is withdrawn
//! the cached values remain readable until the owner re-selects. That is
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
//! protocol behavior — the churn golden test locks this.

use disco_graph::{FxHashMap, InternedPath, NodeId, Weight};
use std::cell::OnceCell;

/// A candidate route as held in the per-neighbor Adj-RIB-In: a
/// [`SelectedRoute`] minus the next hop (implied by which neighbor's slab
/// the candidate sits in).
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Distance from this node to the destination via the neighbor.
    pub dist: Weight,
    /// Path from this node to the destination (this node first).
    pub path: InternedPath,
    /// Whether the destination is a landmark.
    pub dest_is_landmark: bool,
    /// The destination's distance to its own closest landmark.
    pub dest_landmark_dist: Weight,
}

/// Deterministic route preference: smaller distance, then shorter path,
/// then lexicographically smaller path. Total over distinct candidates
/// (paths from different neighbors differ in their second node), which is
/// what makes selection independent of iteration order.
pub(crate) fn preferred_parts(
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
    a_path.cmp_route(b_path) == std::cmp::Ordering::Less
}

const ABSENT: u32 = u32::MAX;

/// Struct-of-arrays slab holding one neighbor's candidates. Slots `0..len`
/// are dense (occupied); `pos` maps an interned destination index to its
/// slot. The position index is a compact `u32 → u32` hash map rather than
/// a dense vector: a node's destination universe is the *union* of every
/// neighbor's exports, so per-neighbor occupancy is sparse (δ-fold so
/// under forgetful eviction) and dense position vectors would cost
/// `δ × dests × 4` bytes of mostly-empty slots per node.
#[derive(Debug, Clone, Default)]
struct NeighborSlab {
    /// Destination index → slot.
    pos: FxHashMap<u32, u32>,
    /// Slot → destination index (for swap-remove fixup and iteration).
    dest: Vec<u32>,
    /// Slot → distance (link weight already included).
    dist: Vec<Weight>,
    /// Slot → destination's own-landmark distance.
    lm_dist: Vec<Weight>,
    /// Slot → path (this node first).
    path: Vec<InternedPath>,
    /// Slot → landmark flag.
    lm_flag: Vec<bool>,
}

impl NeighborSlab {
    fn slot_of(&self, di: u32) -> Option<usize> {
        self.pos.get(&di).map(|&s| s as usize)
    }

    /// The candidate in slot `s`, materialized (the path copy is a
    /// reference-count bump).
    fn at(&self, s: usize) -> Candidate {
        Candidate {
            dist: self.dist[s],
            path: self.path[s].clone(),
            dest_is_landmark: self.lm_flag[s],
            dest_landmark_dist: self.lm_dist[s],
        }
    }

    fn get(&self, di: u32) -> Option<Candidate> {
        self.slot_of(di).map(|s| self.at(s))
    }

    /// Insert or replace; returns whether a candidate was replaced.
    fn insert(&mut self, di: u32, cand: &Candidate) -> bool {
        if let Some(s) = self.slot_of(di) {
            self.dist[s] = cand.dist;
            self.lm_dist[s] = cand.dest_landmark_dist;
            self.path[s] = cand.path.clone();
            self.lm_flag[s] = cand.dest_is_landmark;
            return true;
        }
        let s = self.dest.len() as u32;
        self.pos.insert(di, s);
        self.dest.push(di);
        self.dist.push(cand.dist);
        self.lm_dist.push(cand.dest_landmark_dist);
        self.path.push(cand.path.clone());
        self.lm_flag.push(cand.dest_is_landmark);
        false
    }

    /// Remove the candidate for `di`, keeping slots dense (swap-remove).
    /// Returns whether there was one.
    fn remove(&mut self, di: u32) -> bool {
        let Some(s) = self.slot_of(di) else {
            return false;
        };
        let last = self.dest.len() - 1;
        self.pos.remove(&di);
        self.dest.swap_remove(s);
        self.dist.swap_remove(s);
        self.lm_dist.swap_remove(s);
        self.path.swap_remove(s);
        self.lm_flag.swap_remove(s);
        if s != last {
            // The former last slot moved into `s`; update its position.
            self.pos.insert(self.dest[s], s as u32);
        }
        true
    }

    /// Approximate heap bytes held by this slab (positions + SoA columns;
    /// interned path cells are accounted by the arena, not here).
    fn approx_bytes(&self) -> usize {
        self.pos.capacity() * 10 // ~(4+4) B payload + control per slot
            + self.dest.capacity() * 4
            + self.dist.capacity() * 8
            + self.lm_dist.capacity() * 8
            + self.path.capacity() * 4
            + self.lm_flag.capacity()
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
    /// Total path nodes across all candidates (each retains arena cells).
    pub path_nodes: usize,
    /// Approximate heap bytes of the Adj-RIB-In proper (slabs + interner;
    /// the view columns are accounted separately).
    pub approx_bytes: usize,
    /// Approximate heap bytes of the per-destination view columns
    /// (selection, hop count, resident mark, and the id order once
    /// built) — the Loc-RIB and routing-table component of `exp_memory`'s
    /// byte accounting.
    pub selection_bytes: usize,
    /// Candidates evicted by the forgetful policy since construction.
    pub evictions: u64,
}

/// Borrowed view of the selected route for one destination — everything
/// the forwarding / export path needs, read in place. A routing-table
/// entry is one of these whose destination the owner marked resident.
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

/// The compact Adj-RIB-In: per-neighbor SoA slabs over interned
/// destination indexes. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct RibStore {
    /// Destination index → node id (compact: simulation node ids fit u32).
    dests: Vec<u32>,
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
    /// Per destination index: candidate count across neighbors.
    cand_count: Vec<u32>,
    /// Per destination index: the forgetful policy discarded candidates
    /// for this destination since the flag was last taken.
    evicted: Vec<bool>,
    /// Per destination index: the owner's routing-table mark. Only ever
    /// set on a destination with a selection, and cleared with it.
    resident: Vec<bool>,
    /// Selection column (the Loc-RIB view), indexed by destination index:
    /// the selected route's neighbor (`ABSENT` = none selected) and the
    /// cached fields of its candidate. Cached, not dereferenced through
    /// the slab — see the module docs for why staleness is load-bearing.
    sel_nbr: Vec<u32>,
    /// Selected route's distance.
    sel_dist: Vec<Weight>,
    /// Selected route's destination-landmark distance.
    sel_lm_dist: Vec<Weight>,
    /// Selected route's landmark flag.
    sel_flag: Vec<bool>,
    /// Selected route's path (a reference-count bump on the slab's path).
    sel_path: Vec<Option<InternedPath>>,
    /// Selected route's hop count (`path.len() - 1`, saturated): the one
    /// fact about the path a forwarding-table compile needs, kept beside
    /// the selection so the compile never reads the path arena. Written
    /// where the path is ([`RibStore::select_from_at`]), stale with it.
    sel_hops: Vec<u16>,
    /// The interned indexes sorted by destination id — the order
    /// [`RibStore::for_each_route_by_id`] visits in. It covers every
    /// interned index, selected or not, so only interning a destination
    /// or compacting the interner can change it: those two drop it, the
    /// next ordered visit rebuilds it (under `&self`, hence the cell).
    id_order: OnceCell<Vec<u32>>,
    /// Destinations with a selection (`sel_nbr[i] != ABSENT`).
    sel_count: usize,
    /// Destinations with candidates, a pending evicted flag or a selection
    /// (the ones a compaction must keep) — maintained incrementally so the
    /// compaction trigger is O(1) per mutation.
    live_dests: usize,
    /// Candidates evicted by [`RibStore::enforce`] since construction.
    evictions: u64,
}

impl RibStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether destination index `i` must survive compaction.
    fn is_live_idx(&self, i: usize) -> bool {
        self.cand_count[i] > 0 || self.evicted[i] || self.sel_nbr[i] != ABSENT
    }

    /// Intern `d`, returning its dense index.
    fn dest_id(&mut self, d: NodeId) -> u32 {
        let key = d.0 as u32;
        debug_assert_eq!(key as usize, d.0, "node ids must fit u32");
        if let Some(&i) = self.dest_idx.get(&key) {
            return i;
        }
        let i = self.dests.len() as u32;
        self.dests.push(key);
        self.cand_count.push(0);
        self.evicted.push(false);
        self.resident.push(false);
        self.sel_nbr.push(ABSENT);
        self.sel_dist.push(0.0);
        self.sel_lm_dist.push(0.0);
        self.sel_flag.push(false);
        self.sel_path.push(None);
        self.sel_hops.push(0);
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
        self.idx_of(d).map_or(0, |i| self.cand_count[i] as usize)
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
        let i = di as usize;
        self.total += 1;
        let was_live = self.is_live_idx(i);
        self.cand_count[i] += 1;
        if !was_live {
            self.live_dests += 1;
        }
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
        let i = di as usize;
        self.total -= 1;
        self.cand_count[i] -= 1;
        if !self.is_live_idx(i) {
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
        let mut out: Vec<NodeId> = Vec::with_capacity(slab.dest.len());
        for &di in &slab.dest {
            self.drop_count(di);
            out.push(NodeId(self.dests[di as usize] as usize));
        }
        out.sort_unstable();
        self.maybe_compact();
        out
    }

    /// The most-preferred candidate's `(neighbor, slot)` for destination
    /// index `di`. Deterministic: the preference order is total, so the
    /// minimum is independent of slab iteration order.
    fn best_slot(&self, di: u32) -> Option<(NodeId, usize)> {
        let mut best: Option<(NodeId, usize, &NeighborSlab)> = None;
        for &(nbr, ref slab) in &self.slabs {
            let Some(s) = slab.slot_of(di) else { continue };
            let better = match &best {
                None => true,
                Some((_, bs, bslab)) => preferred_parts(
                    slab.dist[s],
                    &slab.path[s],
                    bslab.dist[*bs],
                    &bslab.path[*bs],
                ),
            };
            if better {
                best = Some((nbr, s, slab));
            }
        }
        best.map(|(nbr, s, _)| (nbr, s))
    }

    /// The most-preferred candidate for `d` over all neighbors, with the
    /// neighbor that announced it.
    pub fn best_for(&self, d: NodeId) -> Option<(NodeId, Candidate)> {
        let di = self.idx_of(d)? as u32;
        let (nbr, s) = self.best_slot(di)?;
        let slab = self.slab_of(nbr).expect("best neighbor has a slab");
        Some((nbr, slab.at(s)))
    }

    // ---- the Loc-RIB view (per-destination selection column) ----

    /// Point the selection for the destination indexed `di` at `cand`, a
    /// candidate `nbr`'s slab holds for it, caching every field — the
    /// landmark flag like the distance — without re-reading the slab (two
    /// probes on the hottest protocol path, promotion of a fresh
    /// announcement). Takes the candidate by value: its path handle moves
    /// into the selection column instead of paying a reference-count
    /// round trip.
    ///
    /// Returns whether the selected route — neighbor, distance, landmark
    /// distance, landmark flag or path — differs from the one the column
    /// held (always, when it held none): the one place that is decided,
    /// before the old values are gone.
    pub fn select_from_at(&mut self, di: u32, nbr: NodeId, cand: Candidate) -> bool {
        debug_assert!(
            self.slab_of(nbr).is_some_and(|s| s.slot_of(di).is_some()),
            "selected neighbor must hold a candidate"
        );
        let di = di as usize;
        let nbr = nbr.0 as u32;
        let moved = self.sel_nbr[di] != nbr
            || self.sel_dist[di] != cand.dist
            || self.sel_lm_dist[di] != cand.dest_landmark_dist
            || self.sel_path[di].as_ref() != Some(&cand.path)
            || self.sel_flag[di] != cand.dest_is_landmark;
        if self.sel_nbr[di] == ABSENT {
            // It holds a candidate, so it was already live.
            self.sel_count += 1;
        }
        if moved {
            // An unmoved route kept its path, so its hop count. A moved
            // one just had this cell read by the comparison above (or
            // built by the caller's prepend): no cold arena access.
            let hops = cand.path.len().saturating_sub(1);
            self.sel_hops[di] = hops.min(usize::from(u16::MAX)) as u16;
        }
        self.sel_nbr[di] = nbr;
        self.sel_dist[di] = cand.dist;
        self.sel_lm_dist[di] = cand.dest_landmark_dist;
        self.sel_flag[di] = cand.dest_is_landmark;
        self.sel_path[di] = Some(cand.path);
        moved
    }

    /// Recompute the selection for `d` as the most-preferred candidate
    /// over all neighbors. Returns `None` when no candidate is left (the
    /// selection is cleared), otherwise whether the selected route moved,
    /// like [`RibStore::select_from_at`].
    pub fn select_best(&mut self, d: NodeId) -> Option<bool> {
        let di = self.idx_of(d)?;
        match self.best_slot(di as u32) {
            Some((nbr, s)) => {
                let cand = self.slab_of(nbr).expect("best neighbor has a slab").at(s);
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
        if self.sel_nbr[di] == ABSENT {
            return;
        }
        self.sel_nbr[di] = ABSENT;
        self.sel_path[di] = None;
        self.resident[di] = false;
        self.sel_count -= 1;
        if !self.is_live_idx(di) {
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
        let nbr = self.sel_nbr[di as usize];
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
        let di = di as usize;
        let nbr = self.sel_nbr[di];
        if nbr == ABSENT {
            return None;
        }
        Some(SelectedRoute {
            next_hop: NodeId(nbr as usize),
            dist: self.sel_dist[di],
            dest_landmark_dist: self.sel_lm_dist[di],
            dest_is_landmark: self.sel_flag[di],
            path: self.sel_path[di].as_ref().expect("selection holds a path"),
        })
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
    /// publishes. The rows are the cached selection column (see the module
    /// docs on load-bearing staleness), which is exactly the contract a
    /// compiled data plane wants: the routes this node is currently
    /// *serving*, not the candidates a repair in flight may be about to
    /// select. Reads three dense columns and the id order; never the path
    /// arena.
    pub fn for_each_route_by_id(&self, mut f: impl FnMut(NodeId, NodeId, u16)) {
        let order = self.id_order.get_or_init(|| {
            let mut order: Vec<u32> = (0..self.dests.len() as u32).collect();
            order.sort_unstable_by_key(|&i| self.dests[i as usize]);
            order
        });
        for &i in order {
            let i = i as usize;
            let nbr = self.sel_nbr[i];
            if nbr != ABSENT {
                f(
                    NodeId(self.dests[i] as usize),
                    NodeId(nbr as usize),
                    self.sel_hops[i],
                );
            }
        }
    }

    /// `d`'s row of [`RibStore::for_each_route_by_id`] — `(next hop, path
    /// hop count)` — or `None` when no route to it is selected: what a
    /// forwarding compile that patches reads, one interner probe a row.
    pub fn route_by_id(&self, d: NodeId) -> Option<(NodeId, u16)> {
        let i = self.idx_of(d)?;
        let nbr = self.sel_nbr[i];
        (nbr != ABSENT).then(|| (NodeId(nbr as usize), self.sel_hops[i]))
    }

    /// Visit every destination with a selected route, in interning order,
    /// with the full view (path included) — the reference
    /// [`RibStore::for_each_route_by_id`] is checked against.
    pub fn for_each_selected(&self, mut f: impl FnMut(NodeId, SelectedRoute<'_>)) {
        for i in 0..self.dests.len() {
            let nbr = self.sel_nbr[i];
            if nbr == ABSENT {
                continue;
            }
            f(
                NodeId(self.dests[i] as usize),
                SelectedRoute {
                    next_hop: NodeId(nbr as usize),
                    dist: self.sel_dist[i],
                    dest_landmark_dist: self.sel_lm_dist[i],
                    dest_is_landmark: self.sel_flag[i],
                    path: self.sel_path[i].as_ref().expect("selection holds a path"),
                },
            );
        }
    }

    /// The selected route's `(distance, landmark flag, resident mark)`
    /// for destination index `di` — the three fields the owner's ordered
    /// mirrors key on.
    #[inline]
    pub fn selected_parts_at(&self, di: u32) -> Option<(Weight, bool, bool)> {
        let di = di as usize;
        (self.sel_nbr[di] != ABSENT)
            .then(|| (self.sel_dist[di], self.sel_flag[di], self.resident[di]))
    }

    /// Set or clear the owner's routing-table mark on the selected route
    /// of destination index `di`.
    #[inline]
    pub fn set_resident_at(&mut self, di: u32, resident: bool) {
        debug_assert!(!resident || self.sel_nbr[di as usize] != ABSENT);
        self.resident[di as usize] = resident;
    }

    /// Whether the owner marked `d` resident.
    #[inline]
    pub fn is_resident(&self, d: NodeId) -> bool {
        self.idx_of(d).is_some_and(|di| self.resident[di])
    }

    /// The selected route for `d` if the owner marked it resident — the
    /// routing table, read in place.
    #[inline]
    pub fn resident_view(&self, d: NodeId) -> Option<SelectedRoute<'_>> {
        let di = self.idx_of(d)?;
        self.resident[di]
            .then(|| self.selected_view_at(di as u32))
            .flatten()
    }

    /// Approximate heap bytes of the per-destination view columns — the
    /// Loc-RIB and routing table: ~28 B per interned destination (4 nbr +
    /// 8 dist + 8 lm-dist + 1 flag + 4 `Option<path id>` — the path
    /// handle's `NonZeroU32` niche keeps the `Option` at 4 bytes — plus
    /// 2 hop count and 1 resident mark), and 4 B more for the id order
    /// once an ordered visit has built it.
    pub fn selection_bytes(&self) -> usize {
        self.sel_nbr.capacity() * 4
            + self.sel_dist.capacity() * 8
            + self.sel_lm_dist.capacity() * 8
            + self.sel_flag.capacity()
            + self.sel_path.capacity() * std::mem::size_of::<Option<InternedPath>>()
            + self.sel_hops.capacity() * 2
            + self.id_order.get().map_or(0, |o| o.capacity() * 4)
            + self.resident.capacity()
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
    /// always including the *selected* candidate (read from the selection
    /// column), whatever its rank — evicting the least-preferred rest.
    /// Marks `d` as having forgotten information.
    pub fn enforce(&mut self, d: NodeId, keep: usize) {
        let Some(di) = self.idx_of(d) else {
            return;
        };
        let di = di as u32;
        if (self.cand_count[di as usize] as usize) <= keep {
            return;
        }
        let mut ranked = self.candidates_for(d);
        // The selected route is never evicted, whatever its rank.
        if let Some(hop) = self.selected_hop(d) {
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
            self.evicted[di as usize] = true;
        }
        self.maybe_compact();
    }

    /// Whether the forgetful policy has discarded candidates for `d` since
    /// the flag was last taken; clears the flag. The caller re-solicits
    /// (route-refresh) exactly when this returns true after a loss.
    pub fn take_evicted(&mut self, d: NodeId) -> bool {
        match self.idx_of(d) {
            Some(di) => {
                let was = std::mem::replace(&mut self.evicted[di], false);
                if was && !self.is_live_idx(di) {
                    self.live_dests -= 1;
                }
                was
            }
            None => false,
        }
    }

    /// Gauge snapshot for `exp_memory`.
    pub fn stats(&self) -> RibStats {
        let path_nodes = self
            .slabs
            .iter()
            .flat_map(|(_, s)| s.path.iter())
            .map(InternedPath::len)
            .sum();
        let approx_bytes = self
            .slabs
            .iter()
            .map(|(_, s)| s.approx_bytes())
            .sum::<usize>()
            + self.dests.capacity() * 4
            + self.cand_count.capacity() * 4
            + self.evicted.capacity()
            + self.dest_idx.capacity() * 10;
        let selection_bytes = self.selection_bytes();
        RibStats {
            candidates: self.total,
            dests_interned: self.dests.len(),
            selected: self.sel_count,
            path_nodes,
            approx_bytes,
            selection_bytes,
            evictions: self.evictions,
        }
    }

    /// Rebuild the destination interner when most interned destinations no
    /// longer hold candidates (long churn runs otherwise grow the position
    /// vectors with the union of every destination ever seen). Triggered
    /// from the mutation paths by occupancy, so behavior stays a pure
    /// function of the operation sequence.
    fn maybe_compact(&mut self) {
        let live = self.live_dests;
        debug_assert_eq!(
            live,
            (0..self.dests.len())
                .filter(|&i| self.is_live_idx(i))
                .count()
        );
        if self.dests.len() < 64 || live * 4 >= self.dests.len() {
            return;
        }
        let mut remap = vec![ABSENT; self.dests.len()];
        let mut dests = Vec::with_capacity(live);
        let mut cand_count = Vec::with_capacity(live);
        let mut evicted = Vec::with_capacity(live);
        let mut resident = Vec::with_capacity(live);
        let mut sel_nbr = Vec::with_capacity(live);
        let mut sel_dist = Vec::with_capacity(live);
        let mut sel_lm_dist = Vec::with_capacity(live);
        let mut sel_flag = Vec::with_capacity(live);
        let mut sel_path = Vec::with_capacity(live);
        let mut sel_hops = Vec::with_capacity(live);
        let mut dest_idx = FxHashMap::default();
        // (Indexing, not iterators: the loop reads the parallel columns
        // and writes `remap` by the same index.)
        #[allow(clippy::needless_range_loop)]
        for i in 0..self.dests.len() {
            if !self.is_live_idx(i) {
                continue;
            }
            let ni = dests.len() as u32;
            remap[i] = ni;
            dests.push(self.dests[i]);
            cand_count.push(self.cand_count[i]);
            evicted.push(self.evicted[i]);
            resident.push(self.resident[i]);
            sel_nbr.push(self.sel_nbr[i]);
            sel_dist.push(self.sel_dist[i]);
            sel_lm_dist.push(self.sel_lm_dist[i]);
            sel_flag.push(self.sel_flag[i]);
            sel_path.push(self.sel_path[i].take());
            sel_hops.push(self.sel_hops[i]);
            dest_idx.insert(self.dests[i], ni);
        }
        for (_, slab) in self.slabs.iter_mut() {
            let mut pos = FxHashMap::default();
            for s in 0..slab.dest.len() {
                let ni = remap[slab.dest[s] as usize];
                debug_assert!(ni != ABSENT, "occupied dest must survive compaction");
                slab.dest[s] = ni;
                pos.insert(ni, s as u32);
            }
            slab.pos = pos;
        }
        self.live_dests = dests.len();
        self.dests = dests;
        self.cand_count = cand_count;
        self.evicted = evicted;
        self.resident = resident;
        self.sel_nbr = sel_nbr;
        self.sel_dist = sel_dist;
        self.sel_lm_dist = sel_lm_dist;
        self.sel_flag = sel_flag;
        self.sel_path = sel_path;
        self.sel_hops = sel_hops;
        self.id_order.take();
        self.dest_idx = dest_idx;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut rib = RibStore::new();
        let (n1, n2, d) = (NodeId(1), NodeId(2), NodeId(9));
        assert!(rib.is_empty());
        rib.insert(n1, d, &cand(&[0, 1, 9], 2.0, false));
        rib.insert(n2, d, &cand(&[0, 2, 9], 3.0, true));
        assert_eq!(rib.len(), 2);
        assert_eq!(rib.count_for(d), 2);
        // Replacement overwrites in place.
        rib.insert(n2, d, &cand(&[0, 2, 9], 1.0, false));
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
        let mut rib = RibStore::new();
        let d = NodeId(9);
        rib.insert(NodeId(1), d, &cand(&[0, 1, 9], 2.0, false));
        rib.insert(NodeId(2), d, &cand(&[0, 2, 9], 1.5, false));
        rib.insert(NodeId(3), d, &cand(&[0, 3, 9], 1.5, false));
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
        let mut rib = RibStore::new();
        rib.insert(NodeId(1), NodeId(7), &cand(&[0, 1, 7], 2.0, true));
        rib.insert(NodeId(1), NodeId(3), &cand(&[0, 1, 3], 2.0, false));
        rib.insert(NodeId(2), NodeId(3), &cand(&[0, 2, 3], 2.0, false));
        let lost = rib.remove_neighbor(NodeId(1));
        assert_eq!(lost, vec![NodeId(3), NodeId(7)]);
        assert_eq!(rib.len(), 1);
        assert!(rib.remove_neighbor(NodeId(1)).is_empty());
    }

    #[test]
    fn enforce_keeps_selected_and_best_alternates() {
        let mut rib = RibStore::new();
        let d = NodeId(9);
        for (i, dist) in [(1, 4.0), (2, 1.0), (3, 2.0), (4, 3.0)] {
            rib.insert(NodeId(i), d, &cand(&[0, i, 9], dist, false));
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
        let mut rib = RibStore::new();
        let d = NodeId(9);
        rib.insert(NodeId(1), d, &cand(&[0, 1, 9], 2.0, false));
        rib.insert(NodeId(2), d, &cand(&[0, 2, 9], 1.0, true));
        assert!(rib.selected_hop(d).is_none());
        assert_eq!(rib.select_best(d), Some(true));
        assert_eq!(rib.selected_hop(d), Some(NodeId(2)));
        let v = rib.selected_view(d).unwrap();
        assert_eq!(v.dist, 1.0);
        assert!(v.dest_is_landmark);
        assert_eq!(v.path.to_vec(), vec![NodeId(0), NodeId(2), NodeId(9)]);
        let di = rib.idx(d).unwrap();
        assert_eq!(rib.selected_parts_at(di), Some((1.0, true, false)));
        // The owner's table mark rides on the selection.
        assert!(rib.resident_view(d).is_none());
        rib.set_resident_at(di, true);
        assert_eq!(rib.selected_parts_at(di), Some((1.0, true, true)));
        assert_eq!(rib.resident_view(d), rib.selected_view(d));
        // Re-selecting the same candidate moves nothing; a re-announcement
        // over it does, whichever field it changed — the flag included.
        assert_eq!(rib.select_best(d), Some(false));
        rib.insert(NodeId(2), d, &cand(&[0, 2, 9], 0.5, true));
        assert_eq!(rib.select_best(d), Some(true));
        rib.insert(NodeId(2), d, &cand(&[0, 2, 9], 0.5, false));
        assert_eq!(rib.select_best(d), Some(true));
        assert!(!rib.selected_view(d).unwrap().dest_is_landmark);
        // Explicit selection of a non-best candidate is allowed (the owner
        // decides); stats count the occupancy, the mark stays.
        assert!(select(&mut rib, d, NodeId(1)));
        assert!(!select(&mut rib, d, NodeId(1)));
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
        let mut rib = RibStore::new();
        let d = NodeId(9);
        rib.insert(NodeId(1), d, &cand(&[0, 1, 9], 2.0, false));
        rib.insert(NodeId(2), d, &cand(&[0, 2, 9], 3.0, false));
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
        let mut rib = RibStore::new();
        let (nbr, other) = (NodeId(1), NodeId(2));
        for i in 0..199 {
            rib.insert(nbr, NodeId(1000 + i), &cand(&[0, 1, 1000 + i], 2.0, false));
        }
        // The last destination sits one hop further out than the rest.
        rib.insert(nbr, NodeId(1199), &cand(&[0, 1, 5, 1199], 2.0, false));
        // One destination keeps a candidate from another neighbor.
        rib.insert(other, NodeId(1100), &cand(&[0, 2, 1100], 3.0, true));
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
        let mut rib = RibStore::new();
        let nbr = NodeId(1);
        for i in 0..200 {
            rib.insert(nbr, NodeId(1000 + i), &cand(&[0, 1, 1000 + i], 2.0, false));
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
        rib.insert(nbr, NodeId(5000), &cand(&[0, 1, 5000], 1.0, false));
        assert_eq!(rib.best_for(NodeId(5000)).unwrap().0, nbr);
    }
}
