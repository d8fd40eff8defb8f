//! The timer wheel's contract: pop order identical to the reference
//! `BinaryHeap` queue — `(time, key, seq)`, logical key then FIFO on
//! full ties — on arbitrary interleavings of pushes, batch extends, pops,
//! peeks and cancellations.

use disco_graph::NodeId;
use disco_sim::event::{BinaryHeapQueue, Event, EventKind, EventQueue, TimerWheel};
use disco_sim::rng::rng_for;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;

fn timer(token: u64) -> EventKind<u32> {
    EventKind::Timer {
        node: NodeId((token % 7) as usize),
        token,
        epoch: 0,
    }
}

fn key(e: &Event<u32>) -> (f64, u64, u64, u64) {
    let token = match e.kind {
        EventKind::Timer { token, .. } => token,
        _ => unreachable!("stream pushes timers only"),
    };
    (e.time, e.key, e.seq, token)
}

/// A push delay: exact ties, sub-tick fractions, whole ticks and
/// far-future overflow times — or, with `one_tick`, only fractions of one
/// wheel tick (1/64).
fn delay(rng: &mut impl Rng, one_tick: bool) -> f64 {
    if one_tick {
        return rng.gen_range(0..64u64) as f64 / 4096.0;
    }
    match rng.gen_range(0..5u32) {
        0 => 0.0,
        1 => rng.gen_range(0..1000u64) as f64 / 256.0,
        2 => rng.gen_range(0..50u64) as f64,
        3 => 0.01,
        _ => 100.0 + rng.gen_range(0..100_000u64) as f64,
    }
}

/// Drive both queues through the same random schedule of pushes, batch
/// `extend`s, pops, cancels and peeks, requiring identical observable
/// behavior at every step. With `one_tick` the ops pile onto the tick
/// being drained and the one a peek just looked at. A small logical-key
/// space forces plenty of (time, key) ties that fall through to seq order.
fn drive(seed: u64, one_tick: bool) {
    let mut rng = rng_for(seed, 0x9e9e, one_tick as u64);
    let mut wheel: TimerWheel<u32> = TimerWheel::new();
    let mut heap: BinaryHeapQueue<u32> = BinaryHeapQueue::new();
    let mut now = 0.0f64;
    let mut next_token = 0u64;
    // Live handles, kept in push order so cancels hit both queues'
    // view of the same event.
    let mut handles = Vec::new();
    for _ in 0..500 {
        let mut draw = |rng: &mut StdRng| {
            let t = next_token;
            next_token += 1;
            (now + delay(rng, one_tick), rng.gen_range(0..4u64), t)
        };
        let op = rng.gen_range(0..12u32);
        match op {
            0..=4 => {
                let (time, k, t) = draw(&mut rng);
                let w = wheel.push(time, k, timer(t));
                let h = heap.push(time, k, timer(t));
                handles.push((w, h));
            }
            // A batch through `extend` (no handles: nobody cancels these).
            5 | 6 => {
                let len = rng.gen_range(1..8usize);
                let batch: Vec<_> = (0..len).map(|_| draw(&mut rng)).collect();
                wheel.extend(batch.iter().map(|&(time, k, t)| (time, k, timer(t))));
                heap.extend(batch.iter().map(|&(time, k, t)| (time, k, timer(t))));
            }
            7 | 8 => {
                let a = wheel.pop();
                let b = heap.pop();
                match (a, b) {
                    (None, None) => {}
                    (Some((_, ea)), Some((_, eb))) => {
                        prop_assert_eq!(key(&ea), key(&eb));
                        now = ea.time;
                    }
                    (a, b) => {
                        prop_assert!(false, "pop divergence: {} vs {}", a.is_some(), b.is_some())
                    }
                }
            }
            9 => {
                if !handles.is_empty() {
                    let i = rng.gen_range(0..handles.len());
                    let (w, h) = handles.swap_remove(i);
                    prop_assert_eq!(wheel.cancel(w), heap.cancel(h));
                }
            }
            _ => {
                prop_assert_eq!(wheel.peek_time(), heap.peek_time());
            }
        }
        prop_assert_eq!(wheel.len(), heap.len());
    }
    // Drain to empty: the full remaining order must agree.
    loop {
        match (wheel.pop(), heap.pop()) {
            (None, None) => break,
            (Some((_, ea)), Some((_, eb))) => prop_assert_eq!(key(&ea), key(&eb)),
            (a, b) => prop_assert!(
                false,
                "drain divergence: {} vs {}",
                a.is_some(),
                b.is_some()
            ),
        }
    }
    prop_assert_eq!(wheel.dead_refs(), 0, "drained wheel must hold no residue");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, max_shrink_iters: 0 })]

    /// Delays spread over ties, ticks, the window and the overflow.
    fn wheel_matches_heap_ordering(seed in 0u64..1_000_000) {
        drive(seed, false);
    }

    /// Push/extend/pop/cancel/peek interleavings piled onto one tick: the
    /// tick being drained and the one a non-draining peek just scanned.
    fn wheel_matches_heap_within_one_tick(seed in 0u64..1_000_000) {
        drive(seed, true);
    }
}
