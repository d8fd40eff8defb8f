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
//!
//! A republish compiles what moved. The buffer a compile is handed is
//! usually this node's own earlier epoch (the publisher's back buffer is
//! two publishes old), and its `revision` stamp says how many selection
//! writes ago that was: when the path vector's write journal still reaches
//! that far back, the compile sets only the journaled destinations' rows
//! to their current selection and leaves the rest — and the landmark ring,
//! while the landmark *set* it was built from stands — as they are.
//! Otherwise (a first publish, a fresh or foreign buffer, a rejoined node,
//! more writes than the journal holds) the same row writer,
//! [`ForwardingTable::set_route`], is fed every selected row into a
//! cleared table. Which of the two happened is not observable in the
//! result: debug builds check every patched table against a from-scratch
//! compile.

use crate::hash::NameHash;
use disco_graph::NodeId;

/// `sel_nbr`-style sentinel for "no fallback hop".
const NO_HOP: u32 = u32::MAX;

/// Ring stamp of a table whose ring is yet to be built: no landmark-set
/// version counts this far.
const NO_RING: u64 = u64::MAX;

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
///
/// Equality is over what a table serves and what a later compile may
/// patch — node, revision, routes, ring and its stamp, fallback — not over
/// the publisher's `epoch` or [`ForwardingTable::rows_written`], which
/// record how the table got here.
#[derive(Debug, Clone, Default)]
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
    /// The compiling node's landmark-set version the ring was built at
    /// (`PathVectorNode::landmark_set_version`; `NO_RING` after `begin`).
    ring_version: u64,
    /// Rows the last compile set ([`ForwardingTable::rows_written`]).
    rows_written: usize,
    /// Landmark-fallback entry: this node's closest landmark and the next
    /// hop toward it (`NO_HOP` = none learned / node is the landmark).
    fallback_lm: u32,
    fallback_hop: u32,
}

impl PartialEq for ForwardingTable {
    fn eq(&self, other: &Self) -> bool {
        (self.node, self.revision, self.ring_version)
            == (other.node, other.revision, other.ring_version)
            && (self.fallback_lm, self.fallback_hop) == (other.fallback_lm, other.fallback_hop)
            && self.keys == other.keys
            && self.hops == other.hops
            && self.path_hops == other.path_hops
            && self.lm_pos == other.lm_pos
            && self.lm_id == other.lm_id
    }
}

impl Eq for ForwardingTable {}

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
    /// holds: a compile writes them in place — from scratch or as a patch,
    /// which grows them by exactly the rows it inserts — with no staging
    /// copy.
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

    /// Rows the last compile set: every served row after a from-scratch
    /// compile, one per journaled selection write after a patch — the
    /// "compile what moved" claim as a number.
    pub fn rows_written(&self) -> usize {
        self.rows_written
    }

    /// The landmark-set version the ring was built at (the compiling
    /// node's `PathVectorNode::landmark_set_version`), or a value no
    /// version takes when the ring is yet to be built.
    pub fn ring_version(&self) -> u64 {
        self.ring_version
    }

    // ---- compile-side builder: `begin` or `resume`, then `set_route`
    // per row, `begin_ring` + `push_landmark` when the ring is out of
    // date, `set_fallback` — driven by
    // `DiscoProtocol::compile_forwarding_into` (any protocol with a
    // selection column can compile its own). Every write leaves the arrays
    // sorted, so there is no closing step. ----

    /// Reset for a from-scratch compile of `routes` rows at `revision`,
    /// keeping allocations: a buffer that has held `routes` rows before
    /// allocates nothing, one that has not grows once, to exactly that
    /// size. Nothing of the epoch the buffer held survives.
    pub fn begin(&mut self, node: NodeId, revision: u64, routes: usize) {
        self.node = node.0 as u32;
        self.revision = revision;
        self.rows_written = 0;
        self.keys.clear();
        self.hops.clear();
        self.path_hops.clear();
        self.keys.reserve_exact(routes);
        self.hops.reserve_exact(routes);
        self.path_hops.reserve_exact(routes);
        self.begin_ring(NO_RING);
        self.fallback_lm = NO_HOP;
        self.fallback_hop = NO_HOP;
    }

    /// Re-stamp this node's own earlier epoch for a patch up to
    /// `revision`: everything it holds stays, to be corrected row by row.
    pub fn resume(&mut self, revision: u64) {
        self.revision = revision;
        self.rows_written = 0;
    }

    /// The one row writer: make `dest`'s row `route` (`(next hop, selected
    /// path's hop count)`; `None` = not served). Overwrites, inserts or
    /// removes at the key's `lower_bound`, so the arrays stay sorted
    /// whatever order rows arrive in; a key above every held one — every
    /// row of `RibStore::for_each_route_by_id` into a table `begin`
    /// cleared — is an append. An insert grows the arrays by exactly the
    /// row (they are sized to the table, and amortized doubling would
    /// double the footprint of every table a patch ever grew).
    pub fn set_route(&mut self, dest: NodeId, route: Option<(NodeId, u16)>) {
        self.rows_written += 1;
        let key = dest.0 as u32;
        let i = if self.keys.last().is_none_or(|&last| last < key) {
            self.keys.len()
        } else {
            self.keys.partition_point(|&k| k < key)
        };
        let held = self.keys.get(i) == Some(&key);
        match route {
            Some((hop, path_hops)) if held => {
                self.hops[i] = hop.0 as u32;
                self.path_hops[i] = path_hops;
            }
            Some((hop, path_hops)) => {
                self.keys.reserve_exact(1);
                self.hops.reserve_exact(1);
                self.path_hops.reserve_exact(1);
                self.keys.insert(i, key);
                self.hops.insert(i, hop.0 as u32);
                self.path_hops.insert(i, path_hops);
            }
            None if held => {
                self.keys.remove(i);
                self.hops.remove(i);
                self.path_hops.remove(i);
            }
            None => {}
        }
    }

    /// Empty the landmark ring for a rebuild at landmark-set `version`.
    pub fn begin_ring(&mut self, version: u64) {
        self.lm_pos.clear();
        self.lm_id.clear();
        self.ring_version = version;
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

    /// Record the landmark-fallback entry `(landmark, next hop)`, or that
    /// there is none.
    pub fn set_fallback(&mut self, fallback: Option<(NodeId, NodeId)>) {
        let (lm, hop) = fallback.map_or((NO_HOP, NO_HOP), |(lm, hop)| (lm.0 as u32, hop.0 as u32));
        self.fallback_lm = lm;
        self.fallback_hop = hop;
    }
}

/// Epoch-based double buffer between the control plane and the data plane.
///
/// The publisher owns a *front* table (the published epoch lookups run
/// against) and a *back* buffer: the epoch before it. A publish compiles
/// into the back buffer — patching it, when the compiling node's journal
/// reaches back to its revision (see the module docs) — and swaps — one
/// pointer-sized exchange, so readers never observe a half-built table —
/// then stamps the next epoch. Publishes are driven by
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
    /// `std::mem::take` it, compile into it there, then install it with
    /// `publish_with(now, |slot| *slot = table)` — or put it back here if
    /// no publish was needed. Its *content* is load-bearing, not only its
    /// capacity: it is the last-but-one epoch, which the compile patches
    /// rather than rewrites, so hand the compile this buffer and not a
    /// fresh one (a fresh one is correct, and costs the full compile).
    pub fn spare_mut(&mut self) -> &mut ForwardingTable {
        &mut self.back
    }

    /// Publish a new epoch: `compile` brings the back buffer — the
    /// last-but-one epoch, stamps and rows intact — up to date (via
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

    fn set(t: &mut ForwardingTable, rows: &[(u32, u32, u16)]) {
        for &(k, h, p) in rows {
            t.set_route(NodeId(k as usize), Some((NodeId(h as usize), p)));
        }
    }

    fn compile(t: &mut ForwardingTable, rows: &[(u32, u32, u16)], ring: &[(u64, u32)]) {
        t.begin(NodeId(0), 1, rows.len());
        set(t, rows);
        t.begin_ring(1);
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

    /// The row writer keeps the arrays sorted and parallel whatever order
    /// rows arrive in, and a patched table equals the from-scratch compile
    /// of the same rows.
    #[test]
    fn rows_in_any_order_equal_rows_in_key_order() {
        let rows: Vec<(u32, u32, u16)> = (0..40u32).map(|i| (i * 3 + 1, i + 1000, 2)).collect();
        let want = table_of(&rows, &[(5, 9)]);
        let mut t = table_of(&[(7, 1, 1), (4, 2, 2), (500, 3, 3)], &[(5, 9)]);
        t.resume(1);
        // Overwrite 7 and 4 (both keys of `rows`), remove 500, miss 501.
        t.set_route(NodeId(500), None);
        t.set_route(NodeId(501), None);
        let (evens, odds): (Vec<_>, Vec<_>) = rows.iter().partition(|r| r.0 % 2 == 0);
        set(&mut t, &odds);
        set(&mut t, &evens.into_iter().rev().collect::<Vec<_>>());
        assert_eq!(t, want);
        assert_eq!(t.rows_written(), 2 + rows.len());
        assert_eq!(want.rows_written(), rows.len());
        assert_eq!(t.entry(NodeId(7)).map(|e| e.path_hops), Some(2));
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
        // A patched republish at the same size: rows overwritten, one
        // removed and another inserted, the ring left alone.
        let before = storage(&t);
        t.resume(2);
        set(&mut t, &rows2[..5]);
        t.set_route(NodeId(rows2[9].0 as usize), None);
        t.set_route(NodeId(1), Some((NodeId(8), 1)));
        assert_eq!(storage(&t), before);
        // One key more than the buffer ever held: grown by exactly a row.
        t.set_route(NodeId(0), Some((NodeId(8), 1)));
        assert_eq!(t.len(), rows.len() + 1);
        for (len, cap) in [
            (t.keys.len(), t.keys.capacity()),
            (t.hops.len(), t.hops.capacity()),
            (t.path_hops.len(), t.path_hops.capacity()),
        ] {
            assert_eq!(cap, len, "patch growth is exact");
        }
        assert!(t.keys.is_sorted() && t.lookup(NodeId(0)) == Some(NodeId(8)));
    }

    /// Publishes swap epochs atomically, are revision-driven and debounced.
    #[test]
    fn publisher_debounces_and_stamps_epochs() {
        let mut p = TablePublisher::new(NodeId(7), 10.0);
        assert!(p.needs_publish(0, 0.0), "first publish is never debounced");
        p.publish_with(0.0, |t| {
            t.begin(NodeId(7), 3, 1);
            t.set_route(NodeId(1), Some((NodeId(2), 1)));
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
