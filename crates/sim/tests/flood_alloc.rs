//! The allocation cost model of a run, as tests. A lone flood in steady
//! state allocates nothing: the sender's flood groups are built once per
//! adjacency change and every later flood files events that share them,
//! the message inline. A run of floods from one upcall allocates one
//! exact-size buffer per flood group for the messages after the first. A
//! lone send allocates nothing either, and a run of sends to one neighbor
//! one exact-size buffer. Counted by a global allocator that tallies the
//! calling thread's allocations and their bytes, over a window of periodic
//! floods or sends on a warmed-up engine. Its own test binary, so no other
//! test binary's allocations count; the tally is per thread, so the tests
//! of this binary do not count each other's.
//!
//! The engine runs on the heap queue, whose storage stops growing once
//! warm. The timer wheel does not: `TimerWheel::drain_bucket` takes each
//! drained bucket's buffer and drops the one it drained before, so it
//! allocates once per tick with events, floods or not. Handing the old
//! buffer back to the emptied bucket would recycle it, but it was measured
//! to buy little `boot` throughput for several MB of resident buffers (see
//! ROADMAP, "Tried, did not pay"), so the wheel keeps its allocation and
//! these tests keep to the heap queue.

use disco_graph::{generators, GraphBuilder, NodeId};
use disco_sim::{BinaryHeapQueue, Context, Engine, NoopRecorder, Protocol};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Count one allocation of `size` bytes on the calling thread.
fn tally(size: usize) {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + size as u64));
}

/// The system allocator, counting the allocations of the calling thread.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's; the counters are `const`
// thread-local `Cell`s, which neither allocate nor unwind (`try_with`
// skips the count during thread teardown).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout` (every
        // allocation here does), as the caller guarantees for this one.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(new_size);
        // SAFETY: as `dealloc` for `ptr` and `layout`; the caller upholds
        // `realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(allocations, bytes)` of the calling thread so far.
fn allocs() -> (u64, u64) {
    (ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}

/// Floods a beacon every time unit, forever; hearing one does nothing.
struct Beacon;

#[derive(Clone)]
struct Ping;

impl Protocol for Beacon {
    type Message = Ping;

    fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
        ctx.set_timer(1.0, 0);
    }

    fn on_message(&mut self, _from: NodeId, _msg: Ping, _ctx: &mut Context<'_, Ping>) {}

    fn on_timer(&mut self, _token: u64, ctx: &mut Context<'_, Ping>) {
        ctx.broadcast(Ping);
        ctx.set_timer(1.0, 0);
    }
}

#[test]
fn steady_state_floods_allocate_nothing() {
    let g = generators::gnm(64, 256, 5);
    let mut engine = Engine::with_recorder(&g, |_| Beacon, BinaryHeapQueue::new(), NoopRecorder);
    // Warm-up: every node's flood groups, the action buffer, the timer
    // handles and the queue reach their working sizes.
    engine.run_to(20.5);
    let sent = engine.stats().total_sent();
    let before = allocs().0;
    engine.run_to(40.5);
    let allocated = allocs().0 - before;
    // Twenty rounds of one flood per node, one copy per link end.
    let floods = 20 * g.node_count();
    let copies = 20 * 2 * g.edge_count() as u64;
    assert_eq!(engine.stats().total_sent() - sent, copies);
    assert_eq!(allocated, 0, "{allocated} allocations over {floods} floods");
}

/// Floods a run of three beacons every time unit, forever.
struct Burst;

impl Protocol for Burst {
    type Message = Ping;

    fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
        ctx.set_timer(1.0, 0);
    }

    fn on_message(&mut self, _from: NodeId, _msg: Ping, _ctx: &mut Context<'_, Ping>) {}

    fn on_timer(&mut self, _token: u64, ctx: &mut Context<'_, Ping>) {
        for _ in 0..3 {
            ctx.broadcast(Ping);
        }
        ctx.set_timer(1.0, 0);
    }
}

#[test]
fn a_run_of_floods_allocates_at_most_one_buffer_per_flood_group() {
    // G(64, 256) with two link weights, so most nodes have two flood
    // groups (one per weight; one shard).
    let mut b = GraphBuilder::new(64);
    for (id, e) in generators::gnm(64, 256, 5).edges() {
        b.add_edge(e.u, e.v, if id.0 % 2 == 0 { 1.0 } else { 2.0 });
    }
    let g = b.build();
    let groups: usize = g
        .nodes()
        .map(|v| {
            let mut weights: Vec<f64> = g.neighbors(v).iter().map(|nb| nb.weight).collect();
            weights.sort_by(f64::total_cmp);
            weights.dedup();
            weights.len()
        })
        .sum();
    assert!(
        groups > g.node_count(),
        "some node has links of both weights"
    );
    let mut engine = Engine::with_recorder(&g, |_| Burst, BinaryHeapQueue::new(), NoopRecorder);
    engine.run_to(20.5);
    let sent = engine.stats().total_sent();
    let before = allocs().0;
    engine.run_to(40.5);
    let allocated = allocs().0 - before;
    // Twenty rounds of one three-flood upcall per node.
    let copies = 20 * 3 * 2 * g.edge_count() as u64;
    assert_eq!(engine.stats().total_sent() - sent, copies);
    let budget = 20 * groups as u64;
    assert!(
        allocated <= budget,
        "{allocated} allocations over 20 rounds of {groups} flood groups"
    );
}

/// Sends a run of `len` pings to its first neighbor every time unit,
/// forever.
struct Unicast {
    len: usize,
    peer: Option<NodeId>,
}

impl Protocol for Unicast {
    type Message = Ping;

    fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
        self.peer = ctx.neighbors().first().copied();
        ctx.set_timer(1.0, 0);
    }

    fn on_message(&mut self, _from: NodeId, _msg: Ping, _ctx: &mut Context<'_, Ping>) {}

    fn on_timer(&mut self, _token: u64, ctx: &mut Context<'_, Ping>) {
        if let Some(peer) = self.peer {
            for _ in 0..self.len {
                ctx.send(peer, Ping);
            }
        }
        ctx.set_timer(1.0, 0);
    }
}

/// Twenty rounds of `Unicast { len }` on a warmed-up G(64, 256):
/// `(allocations, bytes, sending nodes)`.
fn unicast_rounds(len: usize) -> (u64, u64, u64) {
    let g = generators::gnm(64, 256, 5);
    let senders = g.nodes().filter(|&v| g.degree(v) > 0).count() as u64;
    let unicast = |_| Unicast { len, peer: None };
    let mut engine = Engine::with_recorder(&g, unicast, BinaryHeapQueue::new(), NoopRecorder);
    engine.run_to(20.5);
    let sent = engine.stats().total_sent();
    let (n0, b0) = allocs();
    engine.run_to(40.5);
    let (n1, b1) = allocs();
    assert_eq!(
        engine.stats().total_sent() - sent,
        20 * senders * len as u64
    );
    (n1 - n0, b1 - b0, senders)
}

#[test]
fn a_lone_send_allocates_nothing() {
    let (allocated, _, _) = unicast_rounds(1);
    assert_eq!(allocated, 0, "{allocated} allocations over lone sends");
}

#[test]
fn a_run_of_sends_allocates_one_exact_size_buffer() {
    let len = 3;
    let (allocated, bytes, senders) = unicast_rounds(len);
    assert_eq!(allocated, 20 * senders, "one buffer per run");
    let buffer = len * std::mem::size_of::<(Ping, usize)>();
    assert_eq!(
        bytes,
        allocated * buffer as u64,
        "{len} messages per buffer"
    );
}
