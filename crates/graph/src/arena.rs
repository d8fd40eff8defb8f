//! Reference-counted, structurally shared routing paths.
//!
//! Protocol simulations copy node paths constantly: every route
//! announcement carries one, every routing-table entry stores one, every
//! source-routed message peels one hop off at a time. Heap-allocated
//! `Vec<NodeId>` copies dominate the allocation profile of churn runs long
//! before the event queue does.
//!
//! [`PathArena`] fixes this with a slab of cons cells: a path is a cell
//! `(head, tail)` where `tail` is the id of the path holding the remaining
//! nodes, so
//!
//! * cloning a path is a reference-count bump,
//! * prepending a hop (the path-vector operation: `my_id ; received_path`)
//!   is O(1) — one new cell — and shares the entire received path,
//! * dropping the first node (the source-routing operation: forward to
//!   `path[1]` carrying `path[1..]`) is O(1) and allocates nothing.
//!
//! Sharing is by construction, not by lookup: a cell `(v, P)` comes into
//! being when `v` *selects* `P` from one neighbor (a cell per selection
//! whose path moved, not per announcement absorbed: the neighbor's
//! candidate slot holds `P` itself, as announced), and every other holder
//! of that path (table entry, export, each copy of a flood, every
//! neighbor's candidate) is a `clone()` of the one handle. A table keyed by `(head, tail)` would
//! have nothing left to find — it de-duplicated under 2 % of cells on boot
//! and churn runs and cost a random memory probe per prepend and per
//! release — so there is none. Two paths built separately from the same
//! nodes are therefore two chains, and equality is structural: equal ids
//! are equal, otherwise equal lengths and a walk until the chains meet in
//! a shared cell or two heads differ.
//!
//! Cells are reference-counted (handles and child cells both count) and
//! freed into a free list, so the live-cell count tracks real routing
//! state; [`PathArena::stats`] exposes live/peak counts as the simulator's
//! allocation gauge (`exp_scale` reports it as the memory proxy).
//!
//! The arena is a thread-local pool: a discrete-event engine is
//! single-threaded, and messages exchanged by its nodes must share one
//! arena, so per-thread sharing gives exactly the right scope with no
//! handle-threading through every protocol constructor. [`InternedPath`] is
//! accordingly `!Send`; materialize with [`InternedPath::to_vec`] to move
//! path data across threads.

use crate::graph::NodeId;
use std::cell::RefCell;
use std::cmp::Ordering;
use std::fmt;

const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Cell {
    /// First node of the path.
    head: u32,
    /// Id of the path containing the remaining nodes (`NIL` if none).
    tail: u32,
    /// Number of nodes in the path.
    len: u32,
    /// Reference count: live [`InternedPath`] handles plus child cells
    /// whose `tail` points here.
    rc: u32,
}

/// The thread-local cell pool. Use [`PathArena::stats`] to observe it;
/// paths are created through [`InternedPath`].
#[derive(Debug, Default)]
pub struct PathArena {
    cells: Vec<Cell>,
    free: Vec<u32>,
    live: usize,
    peak_live: usize,
    interned_total: u64,
}

/// Allocation gauge of the thread's path arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PathArenaStats {
    /// Cells currently alive (≈ distinct path prefixes referenced by live
    /// routing state).
    pub live_cells: usize,
    /// High-water mark of `live_cells`.
    pub peak_live_cells: usize,
    /// Cells ever created.
    pub interned_total: u64,
    /// Capacity currently held by the arena, in cells (live + free-listed).
    pub capacity_cells: usize,
    /// Heap bytes pinned by live cells (`live_cells × sizeof(Cell)`) — the
    /// per-thread "live path bytes" gauge `exp_memory` charts.
    pub live_bytes: usize,
    /// Heap bytes held by the arena's backing storage (cell vector +
    /// free list).
    pub capacity_bytes: usize,
}

thread_local! {
    static POOL: RefCell<PathArena> = RefCell::new(PathArena::default());
}

impl PathArena {
    /// Snapshot of this thread's arena gauge.
    pub fn stats() -> PathArenaStats {
        POOL.with(|p| {
            let p = p.borrow();
            PathArenaStats {
                live_cells: p.live,
                peak_live_cells: p.peak_live,
                interned_total: p.interned_total,
                capacity_cells: p.cells.len(),
                live_bytes: p.live * std::mem::size_of::<Cell>(),
                capacity_bytes: p.cells.capacity() * std::mem::size_of::<Cell>()
                    + p.free.capacity() * 4,
            }
        })
    }

    /// Post-churn compaction: release the arena capacity that churn peaks
    /// left free-listed. Live cells cannot move (handles hold their ids),
    /// so this truncates the free tail of the cell vector, drops the
    /// truncated ids from the free list and shrinks every backing
    /// allocation to fit. Returns the number of capacity cells released.
    pub fn shrink() -> usize {
        POOL.with(|p| p.borrow_mut().shrink_impl())
    }

    fn shrink_impl(&mut self) -> usize {
        let before = self.cells.len();
        let mut is_free = vec![false; self.cells.len()];
        for &f in &self.free {
            is_free[f as usize] = true;
        }
        while let Some(last) = self.cells.len().checked_sub(1) {
            if !is_free[last] {
                break;
            }
            self.cells.pop();
        }
        let kept = self.cells.len() as u32;
        self.free.retain(|&f| f < kept);
        self.cells.shrink_to_fit();
        self.free.shrink_to_fit();
        before - self.cells.len()
    }

    /// Reset the peak-live high-water mark to the current live count
    /// (between experiment phases).
    pub fn reset_peak() {
        POOL.with(|p| {
            let mut p = p.borrow_mut();
            p.peak_live = p.live;
        });
    }

    /// A new cell `(head, tail)` carrying one fresh reference: pop a free
    /// id or push. The cell owns a reference to `tail`, whose count is
    /// bumped here.
    fn acquire(&mut self, head: u32, tail: u32) -> u32 {
        let mut len = 1;
        if tail != NIL {
            let t = &mut self.cells[tail as usize];
            t.rc += 1;
            len += t.len;
        }
        let cell = Cell {
            head,
            tail,
            len,
            rc: 1,
        };
        let id = if let Some(id) = self.free.pop() {
            self.cells[id as usize] = cell;
            id
        } else {
            let id = self.cells.len() as u32;
            assert!(id != NIL, "path arena exhausted");
            self.cells.push(cell);
            id
        };
        self.live += 1;
        self.peak_live = self.peak_live.max(self.live);
        self.interned_total += 1;
        id
    }

    fn retain(&mut self, id: u32) {
        self.cells[id as usize].rc += 1;
    }

    fn release(&mut self, mut id: u32) {
        while id != NIL {
            let cell = &mut self.cells[id as usize];
            cell.rc -= 1;
            if cell.rc > 0 {
                return;
            }
            let tail = cell.tail;
            self.free.push(id);
            self.live -= 1;
            id = tail; // drop the cell's reference to its tail
        }
    }
}

/// An interned path: a non-empty node sequence stored in the thread's
/// [`PathArena`]. Clone is a reference-count bump; prepending a node and
/// dropping the first node are O(1) and share structure with the original;
/// equality is structural (O(1) between clones and between unequal
/// lengths, otherwise a walk to the first shared cell or differing node).
///
/// `!Send`/`!Sync` (the marker suppresses the auto traits): the id only
/// means something to the arena of the thread that created it, and
/// retain/release on another thread's arena would corrupt both.
pub struct InternedPath {
    /// Cell id plus one (`NonZeroU32` so `Option<InternedPath>` is 4
    /// bytes — each `RibStore` destination record stores one for its
    /// selection). The arena's raw id space is `0..u32::MAX - 1`
    /// (`acquire` asserts), so the +1 cannot wrap.
    id: std::num::NonZeroU32,
    /// Pins the value to its creating thread (raw pointers are `!Send`
    /// and `!Sync`).
    _pool_local: std::marker::PhantomData<*const ()>,
}

impl InternedPath {
    /// Wrap an id whose reference this handle takes ownership of.
    fn wrap(id: u32) -> Self {
        InternedPath {
            id: std::num::NonZeroU32::new(id + 1).expect("cell id overflow"),
            _pool_local: std::marker::PhantomData,
        }
    }

    /// The arena cell id this handle owns a reference to.
    #[inline]
    fn raw(&self) -> u32 {
        self.id.get() - 1
    }

    /// The single-node path `[node]`.
    pub fn single(node: NodeId) -> Self {
        let id = POOL.with(|p| p.borrow_mut().acquire(node.0 as u32, NIL));
        InternedPath::wrap(id)
    }

    /// Build the path with the given node sequence. Panics if empty.
    pub fn from_slice(nodes: &[NodeId]) -> Self {
        assert!(!nodes.is_empty(), "a path must contain at least one node");
        POOL.with(|p| {
            let mut p = p.borrow_mut();
            let mut id = NIL;
            for node in nodes.iter().rev() {
                let next = p.acquire(node.0 as u32, id);
                if id != NIL {
                    // `acquire` gave the new cell its own reference to
                    // `id`; drop the building reference we held.
                    p.release(id);
                }
                id = next;
            }
            InternedPath::wrap(id)
        })
    }

    /// The path `[node] ; self` — the path-vector prepend. O(1).
    pub fn prepend(&self, node: NodeId) -> Self {
        let id = POOL.with(|p| p.borrow_mut().acquire(node.0 as u32, self.raw()));
        InternedPath::wrap(id)
    }

    /// The path without its first node (`self[1..]`), or `None` for a
    /// single-node path. O(1), fully shared.
    pub fn tail(&self) -> Option<Self> {
        POOL.with(|p| {
            let mut p = p.borrow_mut();
            let tail = p.cells[self.raw() as usize].tail;
            if tail == NIL {
                None
            } else {
                p.retain(tail);
                Some(InternedPath::wrap(tail))
            }
        })
    }

    /// First node (the source).
    pub fn first(&self) -> NodeId {
        POOL.with(|p| NodeId(p.borrow().cells[self.raw() as usize].head as usize))
    }

    /// Second node (the next hop of a source route), if any.
    pub fn second(&self) -> Option<NodeId> {
        POOL.with(|p| {
            let p = p.borrow();
            let tail = p.cells[self.raw() as usize].tail;
            if tail == NIL {
                None
            } else {
                Some(NodeId(p.cells[tail as usize].head as usize))
            }
        })
    }

    /// Last node (the destination). O(len): walks the chain.
    pub fn last(&self) -> NodeId {
        POOL.with(|p| {
            let p = p.borrow();
            let mut cell = &p.cells[self.raw() as usize];
            while cell.tail != NIL {
                cell = &p.cells[cell.tail as usize];
            }
            NodeId(cell.head as usize)
        })
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        POOL.with(|p| p.borrow().cells[self.raw() as usize].len as usize)
    }

    /// Interned paths are never empty; this exists for clippy symmetry.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether `node` appears anywhere in the path. O(len).
    pub fn contains(&self, node: NodeId) -> bool {
        let needle = node.0 as u32;
        POOL.with(|p| {
            let p = p.borrow();
            let mut id = self.raw();
            while id != NIL {
                let cell = &p.cells[id as usize];
                if cell.head == needle {
                    return true;
                }
                id = cell.tail;
            }
            false
        })
    }

    /// Call `f` for every node, front to back, without materializing.
    pub fn for_each(&self, mut f: impl FnMut(NodeId)) {
        POOL.with(|p| {
            let p = p.borrow();
            let mut id = self.raw();
            while id != NIL {
                let cell = &p.cells[id as usize];
                f(NodeId(cell.head as usize));
                id = cell.tail;
            }
        })
    }

    /// Materialize the node sequence.
    pub fn to_vec(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.len());
        self.for_each(|n| out.push(n));
        out
    }

    /// The reversed path. O(len) — rebuilds (the arena shares prefixes, not
    /// suffixes).
    pub fn reversed(&self) -> Self {
        let mut nodes = self.to_vec();
        nodes.reverse();
        Self::from_slice(&nodes)
    }

    /// Concatenate with `other`, which must start where `self` ends; the
    /// joint node appears once. Shares `other`'s structure; O(self.len).
    pub fn concat(&self, other: &InternedPath) -> Self {
        POOL.with(|p| {
            let mut p = p.borrow_mut();
            // Collect self's nodes except the last (which must be `other`'s
            // first), then prepend them onto `other` back to front.
            let mut nodes = Vec::with_capacity(p.cells[self.raw() as usize].len as usize);
            let mut id = self.raw();
            loop {
                let cell = &p.cells[id as usize];
                if cell.tail == NIL {
                    assert_eq!(
                        cell.head,
                        p.cells[other.raw() as usize].head,
                        "cannot concatenate paths that do not chain"
                    );
                    break;
                }
                nodes.push(cell.head);
                id = cell.tail;
            }
            let mut id = other.raw();
            p.retain(id);
            for &head in nodes.iter().rev() {
                let next = p.acquire(head, id);
                p.release(id);
                id = next;
            }
            InternedPath::wrap(id)
        })
    }

    /// Route-preference ordering: shorter paths first, ties broken by
    /// lexicographic node order — exactly `(len, nodes) < (len, nodes)` on
    /// materialized vectors, without materializing.
    pub fn cmp_route(&self, other: &InternedPath) -> Ordering {
        if self.id == other.id {
            return Ordering::Equal;
        }
        POOL.with(|p| p.borrow().cmp_chains(self.raw(), other.raw()))
    }

    /// [`InternedPath::cmp_route`] of this path against `other[1..]`, the
    /// path `other` extends by one node (an empty tail sorts first) —
    /// without a handle on the tail. This is how a path as a neighbor
    /// announced it compares with a selection built by prepending the
    /// owner to one: `[v] ; a` against `[v] ; b` orders as `a` against
    /// `b`. O(1) when `other` was built on this very path.
    pub fn cmp_route_to_tail(&self, other: &InternedPath) -> Ordering {
        POOL.with(|p| {
            let p = p.borrow();
            match p.cells[other.raw() as usize].tail {
                NIL => Ordering::Greater,
                tail => p.cmp_chains(self.raw(), tail),
            }
        })
    }
}

impl PathArena {
    /// [`InternedPath::cmp_route`] over two cell ids.
    fn cmp_chains(&self, a: u32, b: u32) -> Ordering {
        if a == b {
            return Ordering::Equal;
        }
        let (ca, cb) = (&self.cells[a as usize], &self.cells[b as usize]);
        ca.len.cmp(&cb.len).then_with(|| {
            let (mut x, mut y) = (a, b);
            while x != NIL && y != NIL {
                if x == y {
                    return Ordering::Equal; // shared suffix
                }
                let (cx, cy) = (&self.cells[x as usize], &self.cells[y as usize]);
                match cx.head.cmp(&cy.head) {
                    Ordering::Equal => {
                        x = cx.tail;
                        y = cy.tail;
                    }
                    ord => return ord,
                }
            }
            Ordering::Equal
        })
    }
}

impl Clone for InternedPath {
    fn clone(&self) -> Self {
        POOL.with(|p| p.borrow_mut().retain(self.raw()));
        InternedPath {
            id: self.id,
            _pool_local: std::marker::PhantomData,
        }
    }
}

impl Drop for InternedPath {
    fn drop(&mut self) {
        // `try_with`: during thread teardown the pool may already be gone,
        // in which case there is nothing left to release.
        let _ = POOL.try_with(|p| p.borrow_mut().release(self.raw()));
    }
}

impl PartialEq for InternedPath {
    fn eq(&self, other: &Self) -> bool {
        // Separately built paths are separate chains: compare structure.
        self.cmp_route(other) == Ordering::Equal
    }
}
impl Eq for InternedPath {}

impl fmt::Debug for InternedPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut list = f.debug_list();
        self.for_each(|n| {
            list.entry(&n);
        });
        list.finish()
    }
}

impl From<&[NodeId]> for InternedPath {
    fn from(nodes: &[NodeId]) -> Self {
        Self::from_slice(nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(ns: &[usize]) -> Vec<NodeId> {
        ns.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn roundtrip_and_accessors() {
        let p = InternedPath::from_slice(&ids(&[3, 1, 4, 1, 5]));
        assert_eq!(p.to_vec(), ids(&[3, 1, 4, 1, 5]));
        assert_eq!(p.len(), 5);
        assert_eq!(p.first(), NodeId(3));
        assert_eq!(p.second(), Some(NodeId(1)));
        assert_eq!(p.last(), NodeId(5));
        assert!(p.contains(NodeId(4)));
        assert!(!p.contains(NodeId(9)));
        assert!(!p.is_empty());
    }

    #[test]
    fn equality_is_structural_across_separately_built_paths() {
        let a = InternedPath::from_slice(&ids(&[1, 2, 3]));
        let b = InternedPath::from_slice(&ids(&[1, 2, 3]));
        let c = InternedPath::from_slice(&ids(&[1, 2, 4]));
        assert_ne!(a.id, b.id, "no lookup: separate builds are separate chains");
        assert_eq!(a, b);
        assert_eq!(a.cmp_route(&b), Ordering::Equal);
        assert_ne!(a, c);
        assert_ne!(a.cmp_route(&c), Ordering::Equal);
        assert_ne!(a, InternedPath::from_slice(&ids(&[1, 2])), "length differs");
        // Pairs meeting in a shared suffix cell: equal heads in front of it
        // are equal paths, a differing head is not.
        let suffix = InternedPath::from_slice(&ids(&[2, 3]));
        let (x, y, z) = (
            suffix.prepend(NodeId(1)),
            suffix.prepend(NodeId(1)),
            suffix.prepend(NodeId(9)),
        );
        assert_ne!(x.id, y.id);
        assert_eq!(x, y);
        assert_eq!(x.cmp_route(&y), Ordering::Equal);
        assert_eq!(x, a, "shared-suffix chain equals a fully separate one");
        assert_ne!(x, z);
        assert_eq!(x.cmp_route(&z), Ordering::Less);
        assert_eq!(x.clone(), x);
    }

    #[test]
    fn prepend_and_tail_share_structure() {
        let base = InternedPath::from_slice(&ids(&[7, 8]));
        let before = PathArena::stats().live_cells;
        let longer = base.prepend(NodeId(6));
        assert_eq!(longer.to_vec(), ids(&[6, 7, 8]));
        // Exactly one new cell for the prepended head.
        assert_eq!(PathArena::stats().live_cells, before + 1);
        let t = longer.tail().unwrap();
        assert_eq!(t, base);
        assert_eq!(PathArena::stats().live_cells, before + 1);
        let single = InternedPath::single(NodeId(9));
        assert!(single.tail().is_none());
        assert_eq!(single.second(), None);
    }

    #[test]
    fn refcounting_frees_cells() {
        let before = PathArena::stats().live_cells;
        {
            let p = InternedPath::from_slice(&ids(&[100, 101, 102]));
            let q = p.clone();
            assert_eq!(PathArena::stats().live_cells, before + 3);
            drop(p);
            assert_eq!(PathArena::stats().live_cells, before + 3);
            drop(q);
        }
        assert_eq!(PathArena::stats().live_cells, before);
        assert!(PathArena::stats().peak_live_cells >= before + 3);
    }

    #[test]
    fn shared_prefix_is_not_shared_but_shared_suffix_is() {
        // Cons cells share suffixes: [1,2,3] and [0,2,3] share [2,3].
        let before = PathArena::stats().live_cells;
        let a = InternedPath::from_slice(&ids(&[201, 202, 203]));
        let _b = a.tail().unwrap().prepend(NodeId(200));
        assert_eq!(PathArena::stats().live_cells, before + 4);
    }

    #[test]
    fn reversed_and_concat() {
        let a = InternedPath::from_slice(&ids(&[1, 2, 3]));
        assert_eq!(a.reversed().to_vec(), ids(&[3, 2, 1]));
        let b = InternedPath::from_slice(&ids(&[3, 4, 5]));
        let c = a.concat(&b);
        assert_eq!(c.to_vec(), ids(&[1, 2, 3, 4, 5]));
        assert_eq!(c.len(), 5);
        assert_eq!(c.last(), NodeId(5));
    }

    #[test]
    #[should_panic]
    fn concat_requires_chaining() {
        let a = InternedPath::from_slice(&ids(&[1, 2]));
        let b = InternedPath::from_slice(&ids(&[3, 4]));
        let _ = a.concat(&b);
    }

    #[test]
    fn route_ordering_matches_vec_ordering() {
        let cases: &[&[usize]] = &[
            &[1],
            &[1, 2],
            &[1, 3],
            &[2, 3],
            &[1, 2, 3],
            &[1, 2, 4],
            &[5, 0, 0],
        ];
        for x in cases {
            for y in cases {
                let a = InternedPath::from_slice(&ids(x));
                let b = InternedPath::from_slice(&ids(y));
                let want = (x.len(), *x).cmp(&(y.len(), *y));
                assert_eq!(a.cmp_route(&b), want, "{x:?} vs {y:?}");
            }
        }
    }

    #[test]
    fn tail_ordering_matches_route_ordering_of_the_tail() {
        let cases: &[&[usize]] = &[&[1], &[1, 2], &[1, 3], &[2, 3], &[1, 2, 3], &[5, 0, 0]];
        for x in cases {
            let a = InternedPath::from_slice(&ids(x));
            // Built on `a` (one shared cell) and built apart.
            let on = a.prepend(NodeId(9));
            assert_eq!(a.cmp_route_to_tail(&on), Ordering::Equal, "{x:?}");
            for y in cases {
                let b = InternedPath::from_slice(&ids(y));
                let apart = InternedPath::from_slice(&ids(&[&[7], *y].concat()));
                assert_eq!(
                    a.cmp_route_to_tail(&apart),
                    a.cmp_route(&b),
                    "{x:?} vs {y:?}"
                );
            }
            let lone = InternedPath::single(NodeId(4));
            assert_eq!(a.cmp_route_to_tail(&lone), Ordering::Greater);
        }
    }

    #[test]
    fn shrink_releases_free_tail_but_keeps_live_cells() {
        // Other tests on this thread may hold arena state; work relative.
        let keep = InternedPath::from_slice(&ids(&[401, 402]));
        let bulk: Vec<InternedPath> = (0..64)
            .map(|i| InternedPath::from_slice(&ids(&[500 + i, 600 + i, 700 + i])))
            .collect();
        let grown = PathArena::stats().capacity_cells;
        drop(bulk);
        let released = PathArena::shrink();
        assert!(released >= 64 * 3 - 2, "released only {released}");
        let after = PathArena::stats();
        assert!(after.capacity_cells <= grown - released);
        assert_eq!(keep.to_vec(), ids(&[401, 402]), "live paths survive");
        assert_eq!(
            after.live_bytes,
            after.live_cells * std::mem::size_of::<Cell>()
        );
        // The arena still works after shrinking: build, prepend, drop.
        let p = keep.prepend(NodeId(400));
        assert_eq!(p.to_vec(), ids(&[400, 401, 402]));
    }

    /// Every constructor and accessor against a `Vec<NodeId>` model through
    /// interleaved building, sharing and dropping: contents, `len` and `==`
    /// agree at every step, and every cell is released at the end.
    #[test]
    fn paths_agree_with_a_vec_model_under_random_ops() {
        let mut rng: u64 = 0x5eed;
        let mut next = || {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (rng >> 33) as usize
        };
        // A small universe so equal contents, shared suffixes and loop
        // hits all occur often.
        let node = |r: usize| NodeId(800 + r % 12);
        let before = PathArena::stats().live_cells;
        let mut held: Vec<(Vec<NodeId>, InternedPath)> = Vec::new();
        for _ in 0..6000 {
            let op = if held.is_empty() { 0 } else { next() % 8 };
            let i = next() % held.len().max(1);
            let made = match op {
                0 => {
                    let nodes: Vec<NodeId> = (0..1 + next() % 5).map(|_| node(next())).collect();
                    Some((InternedPath::from_slice(&nodes), nodes))
                }
                1 => {
                    let v = node(next());
                    let mut nodes = vec![v];
                    nodes.extend(&held[i].0);
                    Some((held[i].1.prepend(v), nodes))
                }
                2 => {
                    // The path-vector loop check, then the prepend.
                    let v = node(next());
                    let looped = held[i].1.contains(v);
                    assert_eq!(looped, held[i].0.contains(&v));
                    (!looped).then(|| {
                        let mut nodes = vec![v];
                        nodes.extend(&held[i].0);
                        (held[i].1.prepend(v), nodes)
                    })
                }
                3 => {
                    let got = held[i].1.tail();
                    assert_eq!(got.is_none(), held[i].0.len() == 1);
                    got.map(|p| (p, held[i].0[1..].to_vec()))
                }
                4 => {
                    // `[front.., joint] ; held[i]`, the joint appearing once.
                    let mut front: Vec<NodeId> = (0..next() % 3).map(|_| node(next())).collect();
                    front.push(held[i].0[0]);
                    let p = InternedPath::from_slice(&front).concat(&held[i].1);
                    front.extend(&held[i].0[1..]);
                    Some((p, front))
                }
                5 => Some((held[i].1.clone(), held[i].0.clone())),
                _ => {
                    held.swap_remove(i);
                    None
                }
            };
            if let Some((p, nodes)) = made {
                assert_eq!(p.to_vec(), nodes);
                assert_eq!(p.len(), nodes.len());
                assert_eq!(p.last(), *nodes.last().unwrap());
                // Against a random held path, or against itself.
                let (other_nodes, other) = match held.get(next() % (held.len() + 1)) {
                    Some((n, q)) => (n, q),
                    None => (&nodes, &p),
                };
                assert_eq!(p == *other, nodes == *other_nodes);
                assert_eq!(
                    p.cmp_route(other),
                    (nodes.len(), &nodes).cmp(&(other_nodes.len(), other_nodes))
                );
                let other_tail = &other_nodes[1..];
                let to_tail = match other_tail {
                    [] => Ordering::Greater,
                    tail => (nodes.len(), &nodes[..]).cmp(&(tail.len(), tail)),
                };
                assert_eq!(p.cmp_route_to_tail(other), to_tail);
                held.push((nodes, p));
            }
        }
        drop(held);
        assert_eq!(PathArena::stats().live_cells, before);
    }

    #[test]
    fn option_interned_path_has_a_niche() {
        // Each RibStore destination record stores one Option<InternedPath>
        // for its selection; the NonZeroU32 id keeps it at 4 bytes.
        assert_eq!(std::mem::size_of::<Option<InternedPath>>(), 4);
        assert_eq!(std::mem::size_of::<InternedPath>(), 4);
    }

    #[test]
    fn cells_are_sixteen_bytes() {
        // Four to a cache line, none straddling one.
        assert_eq!(std::mem::size_of::<Cell>(), 16);
        let _keep = InternedPath::from_slice(&ids(&[900, 901]));
        let st = PathArena::stats();
        assert!(st.capacity_bytes >= st.capacity_cells * 16);
    }

    #[test]
    fn free_list_reuses_capacity() {
        let p = InternedPath::from_slice(&ids(&[301, 302, 303, 304]));
        let cap = PathArena::stats().capacity_cells;
        drop(p);
        let _q = InternedPath::from_slice(&ids(&[305, 306, 307, 308]));
        assert_eq!(PathArena::stats().capacity_cells, cap);
    }
}
