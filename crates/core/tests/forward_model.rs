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
//!    republishing on the revision stamp alone. A compile into a reused
//!    buffer that last held another node's larger table equals the fresh
//!    one in every array: nothing of the old epoch survives `begin`.
//! 3. **Landmark fallback**: a non-landmark node with any landmark entry
//!    compiles a usable fallback hop; the fallback landmark is one the
//!    node actually knows.

use disco_core::config::DiscoConfig;
use disco_core::forward::ForwardingTable;
use disco_core::landmark::{landmark_set, select_landmarks};
use disco_core::protocol::{DiscoProtocol, PhaseTimers};
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
        let graph = generators::gnm_average_degree(n, 6.0, seed);
        let dcfg = DiscoConfig::seeded(seed).with_dynamic_n_estimation(false);
        let landmarks = select_landmarks(n, &dcfg);
        let lm_set = landmark_set(&landmarks);
        let mut engine = Engine::new(&graph, |v| {
            DiscoProtocol::new(v, lm_set.contains(&v), n, &dcfg, PhaseTimers::default())
        });
        prop_assert!(engine.run().converged, "initial convergence failed");

        // Inject random fail-stop leaves, each followed by a rejoin with
        // the node's original links.
        let mut rng = rng_for(seed, 0xf05d, 0);
        let start = engine.now();
        let mut last = start;
        for k in 0..churn_events {
            let victim = NodeId(rng.gen_range(0..n));
            let t = start + 5.0 * (k as f64 + rng.gen::<f64>());
            let links: Vec<_> = graph
                .neighbors(victim)
                .iter()
                .map(|nb| (nb.node, nb.weight))
                .collect();
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
                let mut fresh = ForwardingTable::new(NodeId(v));
                proto.compile_forwarding_into(&mut fresh);
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
    }
}
