//! The allocation cost model of a flood, as tests. A lone flood in steady
//! state allocates nothing: the sender's flood groups are built once per
//! adjacency change and every later flood files events that share them,
//! the message inline. A run of floods from one upcall allocates one
//! exact-size buffer per flood group for the messages after the first.
//! Counted by a global allocator that tallies the calling thread's
//! allocations, over a window of periodic floods on a warmed-up engine.
//! Its own test binary, so no other test binary's allocations count; the
//! tally is per thread, so the tests of this binary do not count each
//! other's.
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
}

/// The system allocator, counting the allocations of the calling thread.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's; the counter is a `const`
// thread-local `Cell`, which neither allocates nor unwinds (`try_with`
// skips the count during thread teardown).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with `layout` (every
        // allocation here does), as the caller guarantees for this one.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: as `dealloc` for `ptr` and `layout`; the caller upholds
        // `realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
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
    let before = allocs();
    engine.run_to(40.5);
    let allocated = allocs() - before;
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
    let before = allocs();
    engine.run_to(40.5);
    let allocated = allocs() - before;
    // Twenty rounds of one three-flood upcall per node.
    let copies = 20 * 3 * 2 * g.edge_count() as u64;
    assert_eq!(engine.stats().total_sent() - sent, copies);
    let budget = 20 * groups as u64;
    assert!(
        allocated <= budget,
        "{allocated} allocations over 20 rounds of {groups} flood groups"
    );
}
