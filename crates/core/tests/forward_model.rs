//! Property test: compiled [`ForwardingTable`] epochs are a faithful,
//! revision-stamped snapshot of the live RIB selection column under
//! random churn.
//!
//! The harness boots a small distributed Disco network, injects a random
//! sequence of fail-stop leaves and rejoins, and at every probe time
//! compiles each active node's table from its live RIB. Invariants:
//!
//! 1. **Faithful**: for every destination the selection column holds, the
//!    compiled table returns exactly the selected next hop, and the table
//!    holds nothing else (`len` == selection count); its keys are strictly
//!    ascending (the compile publishes them as the store's ordered visit
//!    yields them, unsorted).
//! 2. **Epoch semantics**: a table retained from an earlier probe either
//!    carries the node's *current* `control_revision` — in which case it
//!    is bit-identical to a fresh compile (same keys, hops, fallback) —
//!    or `is_stale` reports the revision moved. Unchanged revision ⇒
//!    unchanged data plane, which is what lets `TablePublisher` debounce
//!    republishing on the revision stamp alone — so a landmark promotion
//!    or demotion, which moves the ring and the fallback and no row, must
//!    move the revision too. A compile into a reused buffer that last held
//!    another node's larger table equals the fresh one in every array:
//!    nothing of the old epoch survives `begin`.
//! 3. **Landmark fallback**: a non-landmark node with any landmark entry
//!    compiles a usable fallback hop; the fallback landmark is one the
//!    node actually knows.
//! 4. **A patch is not observable**: through a real [`TablePublisher`] —
//!    whose back buffer is the node's own epoch of two publishes ago,
//!    which the compile patches from the write journal — every published
//!    table equals a compile into `ForwardingTable::new`, after leaves,
//!    rejoins, link flaps and a landmark departure, publishing at random
//!    times; the run must have patched, overflowed the journal, rebuilt a
//!    ring inside a patch and compiled into another node's buffer.
//! 5. **Compile what moved**: after one `LinkDown` at n = 256 the
//!    republished tables set at most a twentieth of the rows they serve
//!    ([`ForwardingTable::rows_written`]).
//! 6. **Incarnations**: a rejoined node is a fresh protocol instance
//!    behind the publisher its dead predecessor filled; its revisions
//!    never meet the predecessor's, so it is republished at once and never
//!    patched from the dead epochs.
//! 7. **The table is the routing table** (ignored; ROADMAP item 13): a
//!    quiesced node's table holds exactly the destinations `pv.route`
//!    answers for. Invariant 1 pins what the compile does today, which
//!    is to serve every selected route.

use disco_core::config::DiscoConfig;
use disco_core::forward::{ForwardingTable, TablePublisher};
use disco_core::landmark::select_landmarks;
use disco_core::protocol::DiscoProtocol;
use disco_graph::{generators, NodeId};
use disco_sim::rng::rng_for;
use disco_sim::{Engine, TopologyEvent};
use proptest::prelude::*;
use rand::Rng;

/// Compile a fresh table for node `v` and check it against the live
/// selection column, entry by entry.
fn check_faithful(proto: &DiscoProtocol, table: &ForwardingTable) {
    assert!(
        table.keys().windows(2).all(|w| w[0] < w[1]),
        "node {:?}: keys not strictly ascending",
        table.node()
    );
    let mut selected = 0usize;
    proto.pv.for_each_selected(|dest, sel| {
        selected += 1;
        assert_eq!(
            table.lookup(dest),
            Some(sel.next_hop),
            "node {:?} dest {:?}: table hop diverges from RIB selection",
            table.node(),
            dest
        );
        let entry = table.entry(dest).expect("selected dest must be resident");
        assert_eq!(
            usize::from(entry.path_hops) + 1,
            sel.path.len().max(1),
            "path-length hint diverges"
        );
    });
    assert_eq!(
        table.len(),
        selected,
        "table holds destinations the selection column does not"
    );
    if !proto.pv.is_landmark() && proto.pv.landmark_entries().next().is_some() {
        let (lm, hop) = table
            .fallback()
            .expect("non-landmark with landmark entries must compile a fallback");
        assert!(
            proto.pv.landmark_entries().any(|(l, _)| l == lm)
                && proto.pv.route(lm).is_some_and(|e| e.next_hop == hop),
            "fallback must be a known landmark route"
        );
    }
}

type Network = (
    disco_graph::Graph,
    Vec<NodeId>,
    Engine<'static, DiscoProtocol>,
);

/// A seeded G(n, m) with static `n`, its landmarks, and the engine over
/// it, not yet started.
fn network(n: usize, seed: u64) -> Network {
    let graph = generators::gnm_average_degree(n, 6.0, seed);
    let dcfg = DiscoConfig::seeded(seed).with_dynamic_n_estimation(false);
    let landmarks = select_landmarks(n, &dcfg);
    let engine = Engine::new(&graph, DiscoProtocol::network(n, &dcfg));
    (graph, landmarks, engine)
}

/// [`network`], booted to quiescence.
fn booted(n: usize, seed: u64) -> (disco_graph::Graph, Engine<'static, DiscoProtocol>) {
    let (graph, _, mut engine) = network(n, seed);
    assert!(engine.run().converged, "initial convergence failed");
    (graph, engine)
}

/// A publisher a node, republishing on every revision change.
fn publishers(n: usize) -> Vec<TablePublisher> {
    (0..n)
        .map(|v| TablePublisher::new(NodeId(v), 0.0))
        .collect()
}

fn links_of(graph: &disco_graph::Graph, v: NodeId) -> Vec<(NodeId, f64)> {
    let nbrs = graph.neighbors(v).iter();
    nbrs.map(|nb| (nb.node, nb.weight)).collect()
}

fn from_scratch(proto: &DiscoProtocol) -> ForwardingTable {
    let mut fresh = ForwardingTable::new(proto.pv.id());
    proto.compile_forwarding_into(&mut fresh);
    fresh
}

/// What one publishing pass exercised (invariant 4's coverage).
#[derive(Default)]
struct Coverage {
    patched: usize,
    overflowed: usize,
    ring_rebuilt_in_patch: usize,
}

/// Publish every live node that needs it, as a harness does, and hold
/// each new epoch against a from-scratch compile.
fn publish_all(
    engine: &Engine<'_, DiscoProtocol>,
    pubs: &mut [TablePublisher],
    seen: &mut Coverage,
) {
    let now = engine.now();
    for (v, publisher) in pubs.iter_mut().enumerate() {
        let proto = &engine.nodes()[v];
        let rev = proto.pv.selection_revision();
        if !engine.is_active(NodeId(v)) || !publisher.needs_publish(rev, now) {
            continue;
        }
        let spare = publisher.spare_mut();
        match proto.pv.writes_since(spare.revision()) {
            Some(_) => {
                seen.patched += 1;
                let stale_ring = spare.ring_version() != proto.pv.landmark_set_version();
                seen.ring_rebuilt_in_patch += usize::from(stale_ring);
            }
            // Out of reach, yet this incarnation's own epoch (a revision's
            // high half): the journal overflowed.
            None => seen.overflowed += usize::from(spare.revision() >> 32 == rev >> 32),
        }
        publisher.publish_with(now, |t| proto.compile_forwarding_into(t));
        assert_eq!(*publisher.table(), from_scratch(proto), "node {v} at {now}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        ..ProptestConfig::default()
    })]

    #[test]
    fn compiled_epochs_track_the_selection_column(
        seed in 0u64..1_000_000,
        n in 24usize..56,
        churn_events in 1usize..5,
    ) {
        let (graph, mut engine) = booted(n, seed);

        // Inject random fail-stop leaves, each followed by a rejoin with
        // the node's original links.
        let mut rng = rng_for(seed, 0xf05d, 0);
        let start = engine.now();
        let mut last = start;
        for k in 0..churn_events {
            let victim = NodeId(rng.gen_range(0..n));
            let t = start + 5.0 * (k as f64 + rng.gen::<f64>());
            let links = links_of(&graph, victim);
            engine.schedule_topology(t, TopologyEvent::NodeLeave { node: victim });
            let back = t + 3.0 + 10.0 * rng.gen::<f64>();
            engine.schedule_topology(back, TopologyEvent::NodeJoin { node: victim, links });
            last = last.max(back);
        }

        // Probe mid-churn and after quiescence. Tables retained from the
        // previous probe must either still carry the current revision and
        // compile identically, or report stale.
        let mut retained: Vec<Option<ForwardingTable>> = (0..n).map(|_| None).collect();
        let probes = [start + 4.0, start + 11.0, last + 1.0, f64::INFINITY];
        for &t in &probes {
            if t.is_finite() {
                engine.run_to(t);
            } else {
                engine.run_until(|_| false);
            }
            // The live node serving the most routes: what the reused
            // buffer holds before every recompile into it.
            let largest = (0..n)
                .filter(|&v| engine.is_active(NodeId(v)))
                .max_by_key(|&v| engine.nodes()[v].pv.selected_count())
                .expect("a live node");
            let mut reused = ForwardingTable::new(NodeId(largest));
            for (v, slot) in retained.iter_mut().enumerate() {
                if !engine.is_active(NodeId(v)) {
                    *slot = None;
                    continue;
                }
                let proto = &engine.nodes()[v];
                let fresh = from_scratch(proto);
                check_faithful(proto, &fresh);
                engine.nodes()[largest].compile_forwarding_into(&mut reused);
                proto.compile_forwarding_into(&mut reused);
                prop_assert_eq!(&reused, &fresh, "reused buffer, node {}", v);
                let rev = proto.pv.selection_revision();
                if let Some(old) = slot {
                    if old.is_stale(rev) {
                        prop_assert_ne!(old.revision(), rev);
                    } else {
                        // Same revision ⇒ the epochs are interchangeable.
                        prop_assert_eq!(old.keys(), fresh.keys(), "node {}", v);
                        prop_assert_eq!(old.fallback(), fresh.fallback());
                        let mut same_hops = true;
                        proto.pv.for_each_selected(|dest, _| {
                            same_hops &= old.lookup(dest) == fresh.lookup(dest);
                        });
                        prop_assert!(
                            same_hops,
                            "same revision but different next hops at node {}",
                            v
                        );
                    }
                }
                *slot = Some(fresh);
            }
        }

        // A status flip moves what a compile emits beside the rows — the
        // ring gains or loses this node, the fallback vanishes or appears
        // — so it must move the revision: the retained tables go stale.
        for (v, slot) in retained.iter().enumerate() {
            let Some(old) = slot else { continue };
            let pv = &mut engine.nodes_mut()[v].pv;
            let was_landmark = pv.is_landmark();
            if was_landmark {
                pv.demote_from_landmark();
            } else {
                pv.promote_to_landmark();
            }
            let proto = &engine.nodes()[v];
            prop_assert!(old.is_stale(proto.pv.selection_revision()), "node {}", v);
            let fresh = from_scratch(proto);
            check_faithful(proto, &fresh);
            prop_assert_eq!(fresh.keys(), old.keys(), "a flip moves no row");
            let ring = if was_landmark { old.ring_len() - 1 } else { old.ring_len() + 1 };
            prop_assert_eq!(fresh.ring_len(), ring, "node {}", v);
            prop_assert!(was_landmark || fresh.fallback().is_none());
            // The stale table is this node's earlier epoch: patched.
            let mut patched = old.clone();
            proto.compile_forwarding_into(&mut patched);
            prop_assert_eq!(patched.rows_written(), 1, "the journaled own id");
            prop_assert_eq!(&patched, &fresh, "node {}", v);
        }
    }

    #[test]
    fn a_patched_publish_equals_a_from_scratch_compile(
        seed in 0u64..1_000_000,
        n in 64usize..96,
        churn_events in 3usize..8,
    ) {
        let (graph, landmarks, mut engine) = network(n, seed);
        let mut pubs = publishers(n);
        let mut seen = Coverage::default();

        // Two publishes in the first moments of the boot fill both buffers
        // of every publisher with early epochs; the convergence that
        // follows writes more selections than a journal holds (at these
        // sizes: a node of n = 64 writes up to 109 in a boot, of 24, 41).
        engine.start();
        for t in [1.0, 2.0] {
            engine.run_to(t);
            publish_all(&engine, &mut pubs, &mut seen);
        }
        prop_assert!(engine.run_until(|_| false), "initial convergence failed");
        publish_all(&engine, &mut pubs, &mut seen);
        prop_assert!(seen.overflowed > 0, "no journal overflow");

        // Leaves with rejoins, link flaps, and one landmark that goes for
        // good (every node that knew it loses a ring slot).
        let mut rng = rng_for(seed, 0xf05e, 0);
        let start = engine.now();
        let mut last = start + 5.0;
        engine.schedule_topology(start + 5.0 * rng.gen::<f64>(), TopologyEvent::NodeLeave {
            node: landmarks[rng.gen_range(0..landmarks.len())],
        });
        for k in 0..churn_events {
            let t = start + 5.0 * (k as f64 + rng.gen::<f64>());
            let back = t + 3.0 + 10.0 * rng.gen::<f64>();
            let u = NodeId(rng.gen_range(0..n));
            if rng.gen::<bool>() {
                let links = links_of(&graph, u);
                engine.schedule_topology(t, TopologyEvent::NodeLeave { node: u });
                engine.schedule_topology(back, TopologyEvent::NodeJoin { node: u, links });
            } else if let Some(nb) = graph.neighbors(u).first() {
                let (v, weight) = (nb.node, nb.weight);
                engine.schedule_topology(t, TopologyEvent::LinkDown { u, v });
                engine.schedule_topology(back, TopologyEvent::LinkUp { u, v, weight });
            }
            last = last.max(back);
        }

        // Publish at random times through the churn and once quiesced.
        // Now and then two publishers trade back buffers: a compile must
        // not trust a buffer for being handed to it.
        let mut foreign = 0;
        let mut t = start;
        while t.is_finite() {
            t += 0.2 + 4.0 * rng.gen::<f64>();
            if t > last + 1.0 {
                t = f64::INFINITY;
                engine.run_until(|_| false);
            } else {
                engine.run_to(t);
            }
            let (a, b) = (rng.gen_range(0..n - 1), n - 1);
            if engine.is_active(NodeId(a)) && engine.is_active(NodeId(b)) {
                let (head, tail) = pubs.split_at_mut(b);
                std::mem::swap(head[a].spare_mut(), tail[0].spare_mut());
                foreign += 1;
            }
            publish_all(&engine, &mut pubs, &mut seen);
        }
        prop_assert!(foreign > 0 && seen.patched > 0, "{} {}", foreign, seen.patched);
        prop_assert!(seen.ring_rebuilt_in_patch > 0, "no landmark-set change under a patch");
    }
}

/// Invariant 6. At the parent of this test the rejoined node counted its
/// revisions from 0 again, through the window its predecessor's published
/// epochs were stamped in: it went unpublished while the counters were
/// equal and would have been patched from a dead node's table after.
#[test]
fn a_rejoined_node_never_meets_its_predecessors_revisions() {
    let n = 40;
    let (graph, mut engine) = booted(n, 11);
    let victim = (0..n)
        .map(NodeId)
        .find(|&v| !engine.nodes()[v.0].pv.is_landmark())
        .expect("a non-landmark");
    let mut pubs = publishers(n);
    let mut seen = Coverage::default();
    publish_all(&engine, &mut pubs, &mut seen);
    let dead = engine.nodes()[victim.0].pv.selection_revision();

    let start = engine.now();
    let links = links_of(&graph, victim);
    engine.schedule_topology(start + 1.0, TopologyEvent::NodeLeave { node: victim });
    engine.schedule_topology(
        start + 2.0,
        TopologyEvent::NodeJoin {
            node: victim,
            links: links.clone(),
        },
    );
    // Flaps of its links keep the new incarnation reselecting.
    for (k, &(v, weight)) in links.iter().cycle().take(8).enumerate() {
        let t = start + 10.0 + 6.0 * k as f64;
        engine.schedule_topology(t, TopologyEvent::LinkDown { u: victim, v });
        engine.schedule_topology(
            t + 3.0,
            TopologyEvent::LinkUp {
                u: victim,
                v,
                weight,
            },
        );
    }
    engine.run_to(start + 2.0);
    let reborn = &engine.nodes()[victim.0].pv;
    assert!(reborn.writes_since(dead).is_none() && reborn.selection_revision() != dead);
    assert!(pubs[victim.0].needs_publish(reborn.selection_revision(), engine.now()));

    // Drive the new counter past where the old one got, an epoch at every
    // step: each equals a from-scratch compile (`publish_all`).
    let mut t = start + 2.0;
    while t < start + 70.0 {
        t += 0.25;
        engine.run_to(t);
        publish_all(&engine, &mut pubs, &mut seen);
    }
    engine.run_until(|_| false);
    publish_all(&engine, &mut pubs, &mut seen);
    let reborn = &engine.nodes()[victim.0].pv;
    let written = |rev: u64| rev & u64::from(u32::MAX);
    assert!(
        written(reborn.selection_revision()) > written(dead),
        "the rejoin wrote too little: {} vs {}",
        written(reborn.selection_revision()),
        written(dead)
    );
    assert_ne!(
        reborn.selection_revision() >> 32,
        dead >> 32,
        "one incarnation"
    );
    assert_eq!(
        *pubs[victim.0].table(),
        from_scratch(&engine.nodes()[victim.0])
    );
}

/// Invariant 5: the republish after a single link failure writes the rows
/// that moved, not the tables that hold them.
#[test]
fn one_link_down_republishes_a_twentieth_of_the_rows() {
    let n = 256;
    let (graph, mut engine) = booted(n, 5);
    let mut pubs = publishers(n);
    // Steady state: both buffers of every publisher hold a booted epoch.
    for (proto, publisher) in engine.nodes().iter().zip(&mut pubs) {
        for _ in 0..2 {
            publisher.publish_with(engine.now(), |t| proto.compile_forwarding_into(t));
        }
        assert_eq!(publisher.table().rows_written(), publisher.table().len());
    }
    let u = NodeId(0);
    let v = graph.neighbors(u)[0].node;
    engine.schedule_topology(engine.now() + 1.0, TopologyEvent::LinkDown { u, v });
    assert!(engine.run_until(|_| false));

    let (mut tables, mut written, mut served) = (0, 0, 0);
    for (proto, publisher) in engine.nodes().iter().zip(&mut pubs) {
        if publisher.needs_publish(proto.pv.selection_revision(), engine.now()) {
            publisher.publish_with(engine.now(), |t| proto.compile_forwarding_into(t));
            tables += 1;
            written += publisher.table().rows_written();
            served += publisher.table().len();
        }
    }
    assert!(tables >= n / 20, "the failure reached {tables} tables");
    assert!(
        written * 20 <= served,
        "{tables} tables republished: {written} rows written of {served} served"
    );
}

/// The compiled table is the routing table: after a quiesced boot, each
/// node's table holds exactly the destinations `pv.route` answers for —
/// its vicinity and the landmarks (`rib.rs`: "the table is the marked
/// subset"). The compile sweeps the whole selection column instead, the
/// `resident` mark unread, so the table also serves every selected
/// route outside V(v) ∪ L.
#[test]
#[ignore = "ROADMAP item 13: the compile serves every selected route, not the routing table"]
fn the_compiled_table_is_the_routing_table() {
    let (n, seed) = (1024, 1);
    let graph = generators::gnm_average_degree(n, 8.0, seed);
    let cfg = DiscoConfig::seeded(seed).with_dynamic_n_estimation(false);
    let mut engine = Engine::new(&graph, DiscoProtocol::network(n, &cfg));
    assert!(engine.run().converged, "initial convergence failed");
    let nodes = engine.nodes();
    // The surplus rows are learned from neighbours: each is a neighbour
    // or in a neighbour's vicinity.
    let in_vicinity = |v: NodeId, d: u32| {
        let mut vicinity = nodes[v.0].pv.local_entries();
        v.0 as u32 == d || vicinity.any(|(w, _)| w.0 as u32 == d)
    };
    let (mut rows, mut vicinity, mut landmarks, mut differ, mut foreign) = (0, 0, 0, 0, 0);
    for proto in nodes {
        let me = proto.pv.id();
        let routed: Vec<u32> = (0..n as u32)
            .filter(|&d| d != me.0 as u32 && proto.pv.route(NodeId(d as usize)).is_some())
            .collect();
        let table = from_scratch(proto);
        rows += table.len();
        vicinity += proto.pv.local_entries().count();
        landmarks += proto
            .pv
            .landmark_entries()
            .filter(|&(l, _)| l != me)
            .count();
        differ += usize::from(table.keys() != routed.as_slice());
        foreign += table
            .keys()
            .iter()
            .filter(|&&d| routed.binary_search(&d).is_err())
            .filter(|&&d| !graph.neighbors(me).iter().any(|nb| in_vicinity(nb.node, d)))
            .count();
    }
    let per_node = |x: usize| x as f64 / n as f64;
    assert_eq!(
        differ,
        0,
        "{differ} of {n} tables are not the routing table: {:.1} compiled rows a node \
         against {:.1} vicinity + {:.1} landmarks; {foreign} surplus rows lie outside \
         every neighbour's vicinity",
        per_node(rows),
        per_node(vicinity),
        per_node(landmarks)
    );
}
