//! The data plane: per-node forwarding tables compiled from the RIB's
//! selection column, double-buffered behind an epoch stamp.
//!
//! The control plane ([`crate::path_vector`], [`crate::protocol`]) converges
//! routes; this module *serves* them. A [`ForwardingTable`] is the selection
//! column of one node's [`crate::rib::RibStore`] frozen into flat sorted
//! arrays in the shape of ariadne's `FlatRoute` range table: one sorted
//! `u32` destination-key array probed by a branchless binary search, a
//! parallel dense next-hop array, the landmark ring (sorted hash positions,
//! so the paper's name→owner resolution is one more binary search instead
//! of a landmark-set scan), and a landmark-fallback entry (the next hop
//! toward this node's closest landmark — where a packet goes when the
//! destination is neither table-resident nor resolved yet). Label/shortcut
//! resolution is folded in at compile time: each entry carries the selected
//! path's hop count, so a lookup prices the remaining source-route label
//! without touching the path arena, and a table hit anywhere along a route
//! is exactly the paper's `ToDestination` shortcut (the first node that
//! holds the destination in its vicinity routes directly).
//!
//! Lookups must keep running while churn repairs mutate the RIB, so tables
//! are published, not shared: a [`TablePublisher`] owns two buffers and
//! swaps them atomically (from the simulation's point of view — one `swap`
//! between events) on publish, stamping a monotone `epoch` and the
//! control plane's `revision` ([`crate::protocol::DiscoProtocol`]'s
//! `control_revision`, i.e. the path-vector selection revision). Republish
//! is therefore driven by *actual selection changes* and debounced in
//! simulation time; between publishes the data plane forwards over the last
//! epoch and any hop that churn has since removed shows up as a packet
//! *lost to a stale epoch* — the served-traffic cost of convergence lag
//! that `exp_forward` measures.

use crate::hash::NameHash;
use disco_graph::NodeId;

/// `sel_nbr`-style sentinel for "no fallback hop".
const NO_HOP: u32 = u32::MAX;

/// One resolved forwarding entry: the dense payload behind a key hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlatRoute {
    /// Neighbor the packet leaves on.
    pub next_hop: NodeId,
    /// Hop count of the selected path (the label cost in hops — what the
    /// explicit source route would traverse).
    pub path_hops: u16,
}

/// A node's compiled data plane: flat sorted arrays, immutable between
/// publishes. Plain `u32`/`u64` vectors, so the table is `Send` and a
/// sharded run can compile on the owner shard and ship it to the
/// coordinator (unlike the RIB, whose interned paths are thread-local).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ForwardingTable {
    /// Node this table was compiled on.
    node: u32,
    /// Publisher's monotone swap counter (0 = never published).
    epoch: u64,
    /// Control-plane revision the compile saw
    /// (`DiscoProtocol::control_revision`).
    revision: u64,
    /// Sorted destination node ids.
    keys: Vec<u32>,
    /// Next hop per key (parallel to `keys`).
    hops: Vec<u32>,
    /// Selected-path hop count per key (parallel to `keys`).
    path_hops: Vec<u16>,
    /// Landmark ring positions (`NameHasher::hash_u64(lm)`), sorted.
    lm_pos: Vec<u64>,
    /// Landmark id per ring position (parallel to `lm_pos`).
    lm_id: Vec<u32>,
    /// Landmark-fallback entry: this node's closest landmark and the next
    /// hop toward it (`NO_HOP` = none learned / node is the landmark).
    fallback_lm: u32,
    fallback_hop: u32,
}

impl ForwardingTable {
    /// An empty, never-published table for `node`.
    pub fn new(node: NodeId) -> Self {
        Self {
            node: node.0 as u32,
            fallback_lm: NO_HOP,
            fallback_hop: NO_HOP,
            ..Self::default()
        }
    }

    /// Node this table belongs to.
    pub fn node(&self) -> NodeId {
        NodeId(self.node as usize)
    }

    /// Publisher swap counter (0 = never published).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Control-plane revision this table was compiled at.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Whether the control plane has moved since this table was compiled —
    /// lookups still answer (over the old epoch) but may name hops the RIB
    /// no longer selects.
    pub fn is_stale(&self, current_revision: u64) -> bool {
        self.revision != current_revision
    }

    /// Table-resident destinations.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the table holds no destinations.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Landmarks on the embedded resolution ring.
    pub fn ring_len(&self) -> usize {
        self.lm_pos.len()
    }

    /// Heap bytes of the published arrays (10 B per destination plus 12 B
    /// per ring landmark — the deployment-question number next to the
    /// RIB's ~25 B/dest selection column). They are all the heap a table
    /// holds: a compile writes them in place, with no staging copy.
    pub fn approx_bytes(&self) -> usize {
        self.keys.len() * (4 + 4 + 2) + self.lm_pos.len() * (8 + 4)
    }

    /// Branchless lower-bound probe: index of the slot holding `key`, if
    /// resident. The loop body is a compare + conditional add over a dense
    /// `u32` array — no pointer chasing, and the halving bound means the
    /// branch predictor has nothing to mispredict on the data path.
    #[inline]
    fn position(&self, key: u32) -> Option<usize> {
        let keys = &self.keys[..];
        if keys.is_empty() {
            return None;
        }
        let mut base = 0usize;
        let mut size = keys.len();
        while size > 1 {
            let half = size / 2;
            // cmov, not a branch: `probe < key` selects the upper half.
            base += usize::from(keys[base + half - 1] < key) * half;
            size -= half;
        }
        (keys[base] == key).then_some(base)
    }

    /// Next hop for `dest`, if table-resident.
    #[inline]
    pub fn lookup(&self, dest: NodeId) -> Option<NodeId> {
        self.position(dest.0 as u32)
            .map(|i| NodeId(self.hops[i] as usize))
    }

    /// Full entry for `dest`, if table-resident.
    #[inline]
    pub fn entry(&self, dest: NodeId) -> Option<FlatRoute> {
        self.position(dest.0 as u32).map(|i| FlatRoute {
            next_hop: NodeId(self.hops[i] as usize),
            path_hops: self.path_hops[i],
        })
    }

    /// The landmark owning `hash` on the compiled ring: first ring
    /// position clockwise of the hash (standard consistent hashing) —
    /// the same rule as `DiscoProtocol::owner_landmark`, resolved by one
    /// binary search instead of a landmark-set scan.
    #[inline]
    pub fn owner_landmark(&self, hash: NameHash) -> Option<NodeId> {
        if self.lm_pos.is_empty() {
            return None;
        }
        let h = hash.value();
        let mut i = self.lm_pos.partition_point(|&p| p < h);
        if i == self.lm_pos.len() {
            i = 0; // wrap: smallest position on the ring
        }
        Some(NodeId(self.lm_id[i] as usize))
    }

    /// The landmark-fallback entry: `(closest landmark, next hop toward
    /// it)`. `None` until a landmark route is learned, or when this node
    /// is its own closest landmark (nothing to forward toward).
    pub fn fallback(&self) -> Option<(NodeId, NodeId)> {
        (self.fallback_hop != NO_HOP).then_some((
            NodeId(self.fallback_lm as usize),
            NodeId(self.fallback_hop as usize),
        ))
    }

    /// Sorted destination keys (test/metrics introspection).
    pub fn keys(&self) -> &[u32] {
        &self.keys
    }

    // ---- compile-side builder: `begin` → `push_*`/`set_fallback`,
    // driven by `DiscoProtocol::compile_forwarding_into` (any protocol with
    // a selection column can compile its own). Every push leaves the
    // arrays sorted, so there is no closing step. ----

    /// Reset for a fresh compile of `routes` rows at `revision`, keeping
    /// allocations: a buffer that has held `routes` rows before allocates
    /// nothing, one that has not grows once, to exactly that size.
    pub fn begin(&mut self, node: NodeId, revision: u64, routes: usize) {
        self.node = node.0 as u32;
        self.revision = revision;
        self.keys.clear();
        self.hops.clear();
        self.path_hops.clear();
        self.keys.reserve_exact(routes);
        self.hops.reserve_exact(routes);
        self.path_hops.reserve_exact(routes);
        self.lm_pos.clear();
        self.lm_id.clear();
        self.fallback_lm = NO_HOP;
        self.fallback_hop = NO_HOP;
    }

    /// Append one selection-column row. Rows must arrive in strictly
    /// ascending `dest` order (`RibStore::for_each_route_by_id`'s): the
    /// key array is published as pushed, and the lookup probe relies on
    /// it being sorted.
    pub fn push_route(&mut self, dest: NodeId, next_hop: NodeId, path_hops: u16) {
        let key = dest.0 as u32;
        debug_assert!(
            self.keys.last().is_none_or(|&last| last < key),
            "selection rows must arrive in strictly ascending id order"
        );
        self.keys.push(key);
        self.hops.push(next_hop.0 as u32);
        self.path_hops.push(path_hops);
    }

    /// Add one landmark-ring slot, in any order: it is inserted at its
    /// sorted place, so the ring needs no sort and no temporary. (Distinct
    /// landmarks never share a position — `mix64` is a bijection — so
    /// there are no ties to order.)
    pub fn push_landmark(&mut self, pos: u64, lm: NodeId) {
        let i = self.lm_pos.partition_point(|&p| p < pos);
        self.lm_pos.insert(i, pos);
        self.lm_id.insert(i, lm.0 as u32);
    }

    /// Record the landmark-fallback entry.
    pub fn set_fallback(&mut self, lm: NodeId, hop: NodeId) {
        self.fallback_lm = lm.0 as u32;
        self.fallback_hop = hop.0 as u32;
    }
}

/// Epoch-based double buffer between the control plane and the data plane.
///
/// The publisher owns a *front* table (the published epoch lookups run
/// against) and a *back* scratch buffer. A publish compiles into the back
/// buffer and swaps — one pointer-sized exchange, so readers never observe
/// a half-built table — then stamps the next epoch. Publishes are driven by
/// the control revision ([`TablePublisher::needs_publish`]): no selection
/// change means no recompile, and changes within `debounce` simulation-time
/// units of the last publish are coalesced (churn bursts repair many routes;
/// republishing per flap would recompile the whole column each time).
#[derive(Debug)]
pub struct TablePublisher {
    front: ForwardingTable,
    back: ForwardingTable,
    /// Minimum simulation time between publishes.
    debounce: f64,
    last_pub: f64,
    published: bool,
    republishes: u64,
}

impl TablePublisher {
    /// A publisher for `node` coalescing publishes closer than `debounce`
    /// simulation-time units.
    pub fn new(node: NodeId, debounce: f64) -> Self {
        Self {
            front: ForwardingTable::new(node),
            back: ForwardingTable::new(node),
            debounce,
            last_pub: f64::NEG_INFINITY,
            published: false,
            republishes: 0,
        }
    }

    /// The published table (empty, epoch 0, until the first publish).
    pub fn table(&self) -> &ForwardingTable {
        &self.front
    }

    /// Whether any epoch has been published yet.
    pub fn has_published(&self) -> bool {
        self.published
    }

    /// Publishes performed so far (= the front table's epoch).
    pub fn republishes(&self) -> u64 {
        self.republishes
    }

    /// The published epoch's control revision (`None` until the first
    /// publish). With [`TablePublisher::may_publish_at`], this is the
    /// publisher-side half of [`TablePublisher::needs_publish`] — exposed
    /// so a sharded run can ship the decision inputs to the owner shard
    /// and reach the exact same publish/skip choices as a sequential run.
    pub fn published_revision(&self) -> Option<u64> {
        self.published.then_some(self.front.revision)
    }

    /// Whether the debounce window has passed at `now` (always true before
    /// the first publish).
    pub fn may_publish_at(&self, now: f64) -> bool {
        !self.published || now - self.last_pub >= self.debounce
    }

    /// Whether a publish at `now` would change anything: the control plane
    /// has moved past the published revision and the debounce window has
    /// passed. The first publish is never debounced.
    pub fn needs_publish(&self, revision: u64, now: f64) -> bool {
        match self.published_revision() {
            None => true,
            Some(pr) => pr != revision && self.may_publish_at(now),
        }
    }

    /// The back buffer, for a compile that runs on another thread:
    /// `std::mem::take` it, compile into it there (its capacity is the
    /// last-but-one epoch's, so a republish no larger than that one
    /// allocates nothing), then install it with `publish_with(now, |slot|
    /// *slot = table)` — or put it back here if no publish was needed.
    pub fn spare_mut(&mut self) -> &mut ForwardingTable {
        &mut self.back
    }

    /// Publish a new epoch: `compile` fills the back buffer (via
    /// `DiscoProtocol::compile_forwarding_into`, or by installing a table
    /// compiled on another shard), then the buffers swap. The caller
    /// gates on [`TablePublisher::needs_publish`].
    pub fn publish_with(&mut self, now: f64, compile: impl FnOnce(&mut ForwardingTable)) {
        compile(&mut self.back);
        self.back.epoch = self.front.epoch + 1;
        std::mem::swap(&mut self.front, &mut self.back);
        self.last_pub = now;
        self.published = true;
        self.republishes += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compile(t: &mut ForwardingTable, rows: &[(u32, u32, u16)], ring: &[(u64, u32)]) {
        t.begin(NodeId(0), 1, rows.len());
        for &(k, h, p) in rows {
            t.push_route(NodeId(k as usize), NodeId(h as usize), p);
        }
        for &(pos, lm) in ring {
            t.push_landmark(pos, NodeId(lm as usize));
        }
    }

    fn table_of(rows: &[(u32, u32, u16)], ring: &[(u64, u32)]) -> ForwardingTable {
        let mut t = ForwardingTable::new(NodeId(0));
        compile(&mut t, rows, ring);
        t
    }

    /// The branchless probe agrees with a linear scan on every key and on
    /// misses between, below and above the keys.
    #[test]
    fn lookup_matches_linear_scan() {
        let rows: Vec<(u32, u32, u16)> = (0..97u32).map(|i| (i * 3 + 1, i + 1000, 2)).collect();
        for cut in [0usize, 1, 2, 3, 7, 96, 97] {
            let t = table_of(&rows[..cut], &[]);
            for key in 0..300u32 {
                let want = rows[..cut]
                    .iter()
                    .find(|r| r.0 == key)
                    .map(|r| NodeId(r.1 as usize));
                assert_eq!(t.lookup(NodeId(key as usize)), want, "cut {cut} key {key}");
            }
        }
    }

    /// Ring resolution is first-position-clockwise with wraparound,
    /// whatever order the slots were pushed in.
    #[test]
    fn owner_is_first_clockwise() {
        let t = table_of(&[], &[(900, 3), (100, 1), (500, 2)]);
        assert_eq!(t.owner_landmark(NameHash(50)), Some(NodeId(1)));
        assert_eq!(t.owner_landmark(NameHash(100)), Some(NodeId(1)));
        assert_eq!(t.owner_landmark(NameHash(101)), Some(NodeId(2)));
        assert_eq!(t.owner_landmark(NameHash(899)), Some(NodeId(3)));
        assert_eq!(t.owner_landmark(NameHash(901)), Some(NodeId(1)), "wraps");
        assert!(table_of(&[], &[]).owner_landmark(NameHash(0)).is_none());
    }

    /// A recompile into a buffer that already held a table of that size
    /// allocates nothing: no array's storage moves or grows.
    #[test]
    fn recompile_at_the_same_size_reuses_every_array() {
        fn storage(t: &ForwardingTable) -> [(usize, usize); 5] {
            [
                (t.keys.as_ptr() as usize, t.keys.capacity()),
                (t.hops.as_ptr() as usize, t.hops.capacity()),
                (t.path_hops.as_ptr() as usize, t.path_hops.capacity()),
                (t.lm_pos.as_ptr() as usize, t.lm_pos.capacity()),
                (t.lm_id.as_ptr() as usize, t.lm_id.capacity()),
            ]
        }
        let rows: Vec<(u32, u32, u16)> = (0..97u32).map(|i| (i * 3 + 1, i + 1000, 2)).collect();
        let ring: Vec<(u64, u32)> = (0..23u64)
            .map(|i| (crate::hash::mix64(i), i as u32))
            .collect();
        let mut t = ForwardingTable::new(NodeId(0));
        compile(&mut t, &rows, &ring);
        assert_eq!(t.keys.capacity(), rows.len(), "sized once, exactly");
        let before = storage(&t);
        // Other routes, another ring order: same sizes.
        let rows2: Vec<(u32, u32, u16)> = rows.iter().map(|r| (r.0 + 1, r.1 + 7, 3)).collect();
        let ring2: Vec<(u64, u32)> = ring.iter().rev().map(|r| (!r.0, r.1)).collect();
        compile(&mut t, &rows2, &ring2);
        assert_eq!(storage(&t), before);
        assert_eq!(t.lookup(NodeId(2)), Some(NodeId(1007)));
        assert!(t.lm_pos.is_sorted() && t.ring_len() == ring.len());
    }

    /// Publishes swap epochs atomically, are revision-driven and debounced.
    #[test]
    fn publisher_debounces_and_stamps_epochs() {
        let mut p = TablePublisher::new(NodeId(7), 10.0);
        assert!(p.needs_publish(0, 0.0), "first publish is never debounced");
        p.publish_with(0.0, |t| {
            t.begin(NodeId(7), 3, 1);
            t.push_route(NodeId(1), NodeId(2), 1);
        });
        assert_eq!(p.table().epoch(), 1);
        assert_eq!(p.table().revision(), 3);
        assert!(!p.needs_publish(3, 100.0), "same revision: no republish");
        assert!(!p.needs_publish(4, 5.0), "inside the debounce window");
        assert!(p.needs_publish(4, 10.0));
        p.publish_with(10.0, |t| t.begin(NodeId(7), 4, 0));
        assert_eq!(p.table().epoch(), 2);
        assert!(p.table().is_empty(), "swap published the fresh compile");
        assert!(p.table().is_stale(9) && !p.table().is_stale(4));
        assert_eq!(p.republishes(), 2);
    }
}
