//! Property test: the [`RibStore`] protocol — select, withdraw, evict,
//! refresh — and its derived Loc-RIB *view* (the per-destination selection
//! column) agree with a naive full-RIB reference model over random update
//! sequences, in both full and forgetful modes.
//!
//! The harness mirrors how `PathVectorNode` drives the store since the
//! Loc-RIB became a view: the selection lives *in* the store (written via
//! `select_from_at` / `select_best`, read via `selected_view`), budget
//! enforcement runs after inserts, and a refresh is answered from the
//! reference model the way neighbors answer from their tables. The naive
//! model tracks its own best-route selection; invariants checked after
//! every operation:
//!
//! 1. the store never *loses* a destination the full RIB can still reach
//!    (in forgetful mode, refresh recovers it within the same step),
//! 2. any selected candidate is one the full model also holds, verbatim:
//!    the store keeps the path as announced (`held.path == model path`)
//!    and the selection is the owner on it (`view.path == [owner] ++
//!    model path`) — the selection column is a faithful cache of a real
//!    candidate,
//! 3. the per-destination candidate budget is respected (forgetful mode),
//! 4. the derived Loc-RIB view equals the model's best selection — after
//!    *every* op in full mode, and after a settle round (every neighbor
//!    re-announces, as their periodic table-change exports would) in
//!    forgetful mode,
//! 5. the resident mark agrees with the set the harness's residency
//!    stand-in marked and un-marked (and that the store cleared with a
//!    selection), and every selection's landmark flag is the one its
//!    source candidate carried when it was selected — also while the
//!    selection is stale, its candidate withdrawn or announced over and
//!    the reselect not yet run,
//! 6. the ordered visitor (`for_each_route_by_id`, the forwarding-table
//!    compile sweep) yields strictly ascending destination ids and exactly
//!    `for_each_selected`'s rows, each with the hop count of the model's
//!    candidate (its announced path's length; announced paths vary in
//!    length).
//!
//! 7. one level up, where the owner counts the writes: between any two
//!    revisions of a `PathVectorNode` its journal (`writes_since`) names
//!    every destination whose `for_each_route_by_id` row differs — or
//!    says it does not reach that far back
//!    (`journal_names_every_row_that_moved`).
//! 8. `promotes`, the owner's promote test, answers exactly as the
//!    expression it replaced — the same-neighbor equal-route test, or
//!    the preference order over the full paths — for every candidate the
//!    store holds for a selected destination, and for probes from every
//!    neighbor around the selection of the step's destination: exact
//!    ties (the only ties unit weights produce), distances inside and
//!    just outside the `1e-12` band, and paths one hop shorter, as long
//!    and one hop longer.
//! 9. also one level up, under a vicinity cap: at every quiescence of a
//!    booting and link-flapping network, `local_entries` and
//!    `landmark_entries` list exactly the resident selections, ordered by
//!    `(dist, NodeId)`, and no waiting selection outranks the worst local
//!    (`cap_mirrors_match_a_reference_order`).
//!
//! A neighbor of its own announces filler destinations — a handful before
//! anything else is interned, a burst halfway through — and then goes, so
//! the interner compacts, every tracked destination's index moves and
//! every column is remapped under the checks.

use disco_core::path_vector::{PathVectorNode, TableLimit};
use disco_core::rib::{Candidate, RibStore};
use disco_graph::{generators, InternedPath, NodeId, Weight};
use disco_sim::{Engine, TopologyEvent};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

const ME: usize = 0;
const ALTERNATES: usize = 1;

fn better(a: &Candidate, b: &Candidate) -> bool {
    if a.dist + 1e-12 < b.dist {
        return true;
    }
    if b.dist + 1e-12 < a.dist {
        return false;
    }
    a.path.cmp_route(&b.path) == std::cmp::Ordering::Less
}

/// Naive reference: every candidate ever announced and not withdrawn,
/// with best-route selection recomputed from scratch on demand.
#[derive(Default)]
struct FullRib {
    cands: BTreeMap<(NodeId, NodeId), Candidate>, // (nbr, dest) → candidate
    /// Destinations the harness marked resident and neither it nor a
    /// cleared selection un-marked since.
    resident: BTreeSet<NodeId>,
    /// Per selected destination: the landmark flag of the candidate the
    /// selection was last written from, as it was at that write.
    sel_flag: BTreeMap<NodeId, bool>,
}

impl FullRib {
    fn best(&self, d: NodeId) -> Option<(NodeId, &Candidate)> {
        self.cands
            .iter()
            .filter(|((_, dest), _)| *dest == d)
            .fold(None, |acc, ((nbr, _), c)| match acc {
                Some((_, bc)) if !better(c, bc) => acc,
                _ => Some((*nbr, c)),
            })
    }

    fn for_dest(&self, d: NodeId) -> Vec<(NodeId, Candidate)> {
        self.cands
            .iter()
            .filter(|((_, dest), _)| *dest == d)
            .map(|((nbr, _), c)| (*nbr, c.clone()))
            .collect()
    }
}

/// The driven side, exercised exactly like `PathVectorNode` drives its
/// store: the selection column is the only best-route state (no shadow
/// map), enforcement after inserts when forgetful, refresh on total loss
/// when the evicted flag is set.
struct Driven {
    rib: RibStore,
    forgetful: bool,
    refreshes: u64,
}

impl Driven {
    /// Resident destinations keep alternates, the rest keep the selected
    /// route alone — `PathVectorNode::enforce_forgetful`'s rule.
    fn keep(&self, d: NodeId) -> usize {
        if self.rib.is_resident(d) {
            1 + ALTERNATES
        } else {
            1
        }
    }

    /// Stand-in for table admission / eviction: mark or un-mark `d`'s
    /// selected route (no-op without one), then re-trim to the budget the
    /// mark now grants.
    fn set_resident(&mut self, d: NodeId, resident: bool, model: &mut FullRib) {
        if self.rib.selected_hop(d).is_none() {
            return;
        }
        self.rib
            .set_resident_at(self.rib.idx(d).expect("selected"), resident);
        if resident {
            model.resident.insert(d);
        } else {
            model.resident.remove(&d);
        }
        if self.forgetful {
            self.rib.enforce(d, self.keep(d));
        }
    }

    /// The flag invariant (5), for one destination: the selection's flag
    /// is the one recorded when it was written.
    fn check_flag(&self, d: NodeId, model: &FullRib) {
        let flag = self.rib.selected_view(d).map(|v| v.dest_is_landmark);
        assert_eq!(flag, model.sel_flag.get(&d).copied(), "flag for {d}");
    }

    fn reselect(&mut self, d: NodeId, model: &mut FullRib) {
        // Stale: the selection still caches what it was written from.
        self.check_flag(d, model);
        if self.rib.select_best(d).is_some() {
            // Whatever the store picked, the model holds it verbatim.
            let hop = self.rib.selected_hop(d).expect("just selected");
            model
                .sel_flag
                .insert(d, model.cands[&(hop, d)].dest_is_landmark);
        } else {
            model.sel_flag.remove(&d);
            // The store cleared the mark with the selection.
            model.resident.remove(&d);
            // Total loss: re-solicit if the policy forgot candidates.
            if self.rib.take_evicted(d) {
                self.refreshes += 1;
                for (nbr, c) in model.for_dest(d) {
                    self.insert(nbr, d, c, model);
                }
            }
        }
    }

    fn insert(&mut self, nbr: NodeId, d: NodeId, c: Candidate, model: &mut FullRib) {
        let cur_hop = self.rib.selected_hop(d);
        let promote = match self.rib.selected_view(d) {
            None => true,
            Some(cur) => {
                // The selection's path is the owner on the candidate's.
                let held = Candidate {
                    dist: cur.dist,
                    path: cur.path.tail().expect("a selection extends its candidate"),
                    dest_is_landmark: cur.dest_is_landmark,
                    dest_landmark_dist: cur.dest_landmark_dist,
                };
                better(&c, &held)
            }
        };
        let di = self.rib.intern(d);
        self.rib.insert_at(nbr, di, &c);
        if promote {
            model.sel_flag.insert(d, c.dest_is_landmark);
            self.rib.select_from_at(di, nbr, c);
            if cur_hop.is_none() {
                // A fresh selection: even destinations are admitted.
                self.set_resident(d, d.0.is_multiple_of(2), model);
            }
        } else if cur_hop == Some(nbr) {
            self.reselect(d, model);
        }
        if self.forgetful {
            self.rib.enforce(d, self.keep(d));
        }
    }

    fn remove(&mut self, nbr: NodeId, d: NodeId, model: &mut FullRib) {
        if self.rib.remove(nbr, d) && self.rib.selected_hop(d) == Some(nbr) {
            self.reselect(d, model);
        }
    }

    fn neighbor_down(&mut self, nbr: NodeId, model: &mut FullRib) {
        for d in self.rib.remove_neighbor(nbr) {
            if self.rib.selected_hop(d) == Some(nbr) {
                self.reselect(d, model);
            }
        }
    }
}

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `[owner] ++ path`: what a selection of the announced `path` holds.
fn owned(path: &InternedPath) -> Vec<NodeId> {
    let mut nodes = vec![NodeId(ME)];
    nodes.extend(path.to_vec());
    nodes
}

fn check_invariants(dr: &Driven, model: &FullRib, dests: &[NodeId], settled: bool) {
    // In full mode the incremental selection is the exact minimum at all
    // times; in forgetful mode eviction can hide the global best until a
    // settle round re-announces it.
    let view_exact = settled || !dr.forgetful;
    for &d in dests {
        let model_best = model.best(d);
        let view = dr.rib.selected_view(d);
        // (1) never lose a reachable destination.
        assert_eq!(
            model_best.is_some(),
            view.is_some(),
            "reachability diverged for {d}: model {:?} vs view {:?}",
            model_best.map(|(n, _)| n),
            view.as_ref().map(|v| v.next_hop)
        );
        if let Some(v) = &view {
            // (2) the view is a faithful cache of a real model candidate.
            let model_c = model
                .cands
                .get(&(v.next_hop, d))
                .expect("selected candidate must exist in the full model");
            assert_eq!(v.dist, model_c.dist, "stale distance for {d}");
            assert_eq!(v.path.to_vec(), owned(&model_c.path), "stale path for {d}");
            // The candidate is also physically retained in the store.
            let held = dr
                .rib
                .get(v.next_hop, d)
                .expect("selected candidate in store");
            assert_eq!(held.dist, v.dist);
            assert_eq!(held.path, model_c.path, "held as announced for {d}");
        }
        // (3) budget respected.
        if dr.forgetful {
            assert!(
                dr.rib.count_for(d) <= dr.keep(d),
                "budget exceeded for {d}: {}",
                dr.rib.count_for(d)
            );
        } else {
            assert_eq!(dr.rib.count_for(d), model.for_dest(d).len());
        }
        // (5) the selection's flag and the resident mark.
        dr.check_flag(d, model);
        let resident = model.resident.contains(&d);
        assert_eq!(dr.rib.is_resident(d), resident, "resident mark for {d}");
        assert!(!resident || view.is_some(), "{d} resident, not selected");
        assert_eq!(dr.rib.resident_view(d).is_some(), resident);
        // (4) the derived Loc-RIB view equals the model's best selection.
        if view_exact {
            if let (Some((mn, mc)), Some(v)) = (model_best, &view) {
                assert_eq!(
                    (v.next_hop, v.dist, v.path.to_vec()),
                    (mn, mc.dist, owned(&mc.path)),
                    "selection diverged for {d}"
                );
            }
        }
    }
    // (6) the ordered visitor: ascending ids, `for_each_selected`'s rows,
    // the model's hop counts.
    let mut ordered = Vec::new();
    dr.rib
        .for_each_route_by_id(|d, hop, hops| ordered.push((d, hop, hops)));
    assert!(
        ordered.windows(2).all(|w| w[0].0 < w[1].0),
        "ordered visit not strictly ascending: {ordered:?}"
    );
    let mut selected = Vec::new();
    dr.rib.for_each_selected(|d, sel| {
        let hops = model.cands[&(sel.next_hop, d)].path.len();
        selected.push((d, sel.next_hop, hops.min(usize::from(u16::MAX)) as u16));
    });
    selected.sort_unstable();
    assert_eq!(ordered, selected, "ordered visit diverged from the column");
    assert_eq!(ordered.len(), dr.rib.selected_count());
}

/// Invariant (8): `promotes` against `better` over the full paths, for
/// every held candidate of every selected destination and for probes
/// around the selection of `probed`.
fn check_promotes(rib: &RibStore, dests: &[NodeId], neighbors: &[NodeId], probed: NodeId) {
    for &d in dests {
        let Some(view) = rib.selected_view(d) else {
            continue;
        };
        let di = rib.idx(d).expect("selected");
        let sel = Candidate {
            dist: view.dist,
            path: view.path.tail().expect("a selection extends its candidate"),
            dest_is_landmark: view.dest_is_landmark,
            dest_landmark_dist: view.dest_landmark_dist,
        };
        let mut probes = rib.candidates_for(d);
        if d == probed {
            // Paths nbr → fillers → d; fillers below the salts for
            // even neighbors, above them for odd ones, so the selected
            // neighbor's probes order both ways against its own path.
            let hops = view.path.len() - 1;
            for &nbr in neighbors {
                let base = if nbr.0 % 2 == 0 { 150 } else { 300 };
                for len in [hops - 1, hops, hops + 1] {
                    let mut nodes = vec![nbr];
                    nodes.extend((2..len).map(|k| NodeId(base + k)));
                    nodes.push(d);
                    for delta in [0.0, 5e-13, -5e-13, 2e-12, -2e-12] {
                        let c = Candidate {
                            dist: view.dist + delta,
                            path: InternedPath::from_slice(&nodes),
                            ..sel.clone()
                        };
                        probes.push((nbr, c));
                    }
                }
            }
            probes.push((view.next_hop, sel.clone()));
        }
        for (from, c) in &probes {
            let head = (view.next_hop == *from && c.dist == sel.dist && c.path == sel.path)
                || better(c, &sel);
            assert_eq!(
                rib.promotes(di, *from, c),
                head,
                "promotes for {d} from {from}: {:?} at {} against {:?} at {} via {}",
                c.path,
                c.dist,
                sel.path,
                sel.dist,
                view.next_hop
            );
        }
    }
}

fn run_model(seed: u64, forgetful: bool) -> u64 {
    let mut rng = seed;
    let neighbors: Vec<NodeId> = (1..=6).map(NodeId).collect();
    let dests: Vec<NodeId> = (100..116).map(NodeId).collect();
    let mut model = FullRib::default();
    let mut dr = Driven {
        rib: RibStore::for_owner(NodeId(ME)),
        forgetful,
        refreshes: 0,
    };

    // The fillers: never-selected destinations from a neighbor of their
    // own. A few are interned ahead of every tracked destination, so the
    // compaction that drops them moves every tracked index down; the
    // burst at step 150 is what makes losing the neighbor compact at all.
    let filler = NodeId(7);
    let fill = |dr: &mut Driven, ids: std::ops::Range<usize>| {
        for i in ids {
            let path = InternedPath::from_slice(&[filler, NodeId(i)]);
            let c = Candidate {
                dist: 2.0,
                path,
                dest_is_landmark: i % 3 == 0,
                dest_landmark_dist: Weight::INFINITY,
            };
            dr.rib.insert(filler, NodeId(i), &c);
        }
    };
    fill(&mut dr, 990..1000);

    for step in 0..400 {
        let r = splitmix(&mut rng);
        let nbr = neighbors[(r % neighbors.len() as u64) as usize];
        let d = dests[((r >> 8) % dests.len() as u64) as usize];
        match (r >> 16) % 11 {
            // Announce: route nbr → (one to three salts) → d, as nbr
            // announces it, salted so re-announcements change the path
            // and its length, not just the distance.
            0..=5 => {
                let dist = 1.0 + ((r >> 24) % 32) as Weight;
                let salt = 200 + ((r >> 32) % 8) as usize;
                let mut nodes = vec![nbr];
                nodes.extend((0..=(r >> 36) % 3).map(|k| NodeId(salt + 10 * k as usize)));
                nodes.push(d);
                let path = InternedPath::from_slice(&nodes);
                let c = Candidate {
                    dist,
                    path,
                    dest_is_landmark: (r >> 40).is_multiple_of(4),
                    dest_landmark_dist: Weight::INFINITY,
                };
                model.cands.insert((nbr, d), c.clone());
                dr.insert(nbr, d, c, &mut model);
            }
            // Withdraw one candidate.
            6..=8 => {
                model.cands.remove(&(nbr, d));
                dr.remove(nbr, d, &mut model);
            }
            // Link loss: the neighbor's whole slab goes.
            9 => {
                model.cands.retain(|&(n, _), _| n != nbr);
                dr.neighbor_down(nbr, &mut model);
            }
            // A cap admission or eviction flips the resident mark.
            _ => {
                let resident = dr.rib.is_resident(d);
                dr.set_resident(d, !resident, &mut model);
            }
        }
        if step == 150 {
            fill(&mut dr, 1000..1100);
        }
        if step == 250 {
            dr.rib.remove_neighbor(filler);
            let interned = dr.rib.stats().dests_interned;
            assert!(interned < 64, "no compaction: {interned} dests interned");
        }
        let settle = step % 25 == 24;
        if settle {
            // Periodic exports: every neighbor re-announces its
            // current route for every destination it still has.
            let all: Vec<(NodeId, NodeId, Candidate)> = model
                .cands
                .iter()
                .map(|(&(n, dd), c)| (n, dd, c.clone()))
                .collect();
            for (n, dd, c) in all {
                dr.insert(n, dd, c, &mut model);
            }
        }
        check_invariants(&dr, &model, &dests, settle);
        check_promotes(&dr.rib, &dests, &neighbors, d);
    }
    let stats = dr.rib.stats();
    assert_eq!(
        stats.selected,
        dests
            .iter()
            .filter(|&&d| dr.rib.selected_hop(d).is_some())
            .count(),
        "selection occupancy gauge out of sync"
    );
    if forgetful {
        stats.evictions
    } else {
        assert_eq!(stats.evictions, 0, "full mode must not evict");
        dr.refreshes
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, max_shrink_iters: 0 })]
    #[test]
    fn forgetful_rib_agrees_with_full_rib_model(seed in 0u64..1_000_000) {
        let evictions = run_model(seed, true);
        // The run must actually have exercised the forgetful machinery.
        prop_assert!(evictions > 0, "no evictions happened");
    }

    #[test]
    fn full_rib_view_is_always_the_exact_best(seed in 0u64..1_000_000) {
        let refreshes = run_model(seed, false);
        prop_assert_eq!(refreshes, 0, "full mode must never re-solicit");
    }
}

/// Invariant (7): sample every node's served rows through a boot and a
/// run of link flaps — even nodes at short intervals, odd ones at long
/// ones; between consecutive samples the journal either names every destination whose row changed — one entry
/// per revision in between — or reports that it does not reach back.
#[test]
fn journal_names_every_row_that_moved() {
    type Rows = BTreeMap<NodeId, (NodeId, u16)>;
    let n = 48;
    let graph = generators::gnm_average_degree(n, 5.0, 9);
    let mut engine = Engine::new(&graph, |v| {
        PathVectorNode::new(v, v.0 % 8 == 0, TableLimit::VicinityCap { size: 12 })
    });
    engine.start();
    let mut rng = 9u64;
    for k in 0..12 {
        let u = NodeId((splitmix(&mut rng) % n as u64) as usize);
        let Some(nb) = graph.neighbors(u).first() else {
            continue;
        };
        let (v, weight, t) = (nb.node, nb.weight, 40.0 + 7.0 * k as f64);
        engine.schedule_topology(t, TopologyEvent::LinkDown { u, v });
        engine.schedule_topology(t + 3.0, TopologyEvent::LinkUp { u, v, weight });
    }

    let sample = |node: &PathVectorNode| {
        let mut rows = Rows::new();
        node.for_each_route_by_id(|d, hop, hops| {
            rows.insert(d, (hop, hops));
        });
        (node.selection_revision(), rows)
    };
    let mut last: Vec<(u64, Rows)> = engine.nodes().iter().map(sample).collect();
    let (mut reached, mut lost) = (0, 0);
    for step in 1..=600 {
        engine.run_to(0.25 * step as f64);
        for (node, (rev, rows)) in engine.nodes().iter().zip(&mut last) {
            if node.id().0 % 2 == 1 && step % 120 != 0 {
                continue;
            }
            let (now_rev, now_rows) = sample(node);
            let moved: BTreeSet<NodeId> = rows
                .keys()
                .chain(now_rows.keys())
                .filter(|d| rows.get(d) != now_rows.get(d))
                .copied()
                .collect();
            match node.writes_since(*rev) {
                Some(written) => {
                    let written: Vec<NodeId> = written.collect();
                    assert_eq!(written.len() as u64, now_rev - *rev);
                    let named: BTreeSet<NodeId> = written.into_iter().collect();
                    assert!(moved.is_subset(&named), "{moved:?} moved, {named:?} named");
                    reached += 1;
                }
                None => {
                    assert!(
                        now_rev - *rev > 64,
                        "{} writes are within reach",
                        now_rev - *rev
                    );
                    lost += 1;
                }
            }
            (*rev, *rows) = (now_rev, now_rows);
        }
    }
    assert!(
        reached > 0 && lost > 0,
        "{reached} in reach, {lost} out of it"
    );
    assert!(
        engine.nodes()[0].writes_since(0).is_none(),
        "a stamp this node never had"
    );
}

/// A selection's rank under the vicinity cap: distance, ties by smaller
/// id, compared as floats (not as the mirrors' packed keys).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Rank(Weight, NodeId);

impl Eq for Rank {}

impl PartialOrd for Rank {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rank {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        let by_dist = self.0.partial_cmp(&other.0).expect("finite distances");
        by_dist.then(self.1.cmp(&other.1))
    }
}

/// Invariant (9) for one node: the ordered entry lists against a
/// reference rebuilt from the selection column and the table.
fn check_cap_order(node: &PathVectorNode, cap: usize) {
    let v = node.id();
    let (mut locals, mut landmarks, mut waiting) =
        (BTreeSet::new(), BTreeSet::new(), BTreeSet::new());
    node.for_each_selected(|d, sel| {
        let rank = Rank(sel.dist, d);
        match (node.route(d).is_some(), sel.dest_is_landmark) {
            (true, true) => landmarks.insert(rank),
            (true, false) => locals.insert(rank),
            (false, false) => waiting.insert(rank),
            (false, true) => panic!("{v}: landmark {d} outside the table"),
        };
    });
    let listed = |ranks: &BTreeSet<Rank>| ranks.iter().map(|r| (r.1, r.0)).collect::<Vec<_>>();
    let own = node.is_landmark().then_some((v, 0.0));
    let expect_landmarks: Vec<_> = own.into_iter().chain(listed(&landmarks)).collect();
    assert_eq!(
        node.local_entries().collect::<Vec<_>>(),
        listed(&locals),
        "{v}: locals"
    );
    assert_eq!(
        node.landmark_entries().collect::<Vec<_>>(),
        expect_landmarks,
        "{v}: landmarks"
    );
    assert!(
        locals.len() <= cap,
        "{v}: {} locals over the cap {cap}",
        locals.len()
    );
    if let (Some(worst), Some(best)) = (locals.last(), waiting.first()) {
        assert!(
            best >= worst,
            "{v}: waiting {best:?} outranks local {worst:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, max_shrink_iters: 0 })]
    #[test]
    fn cap_mirrors_match_a_reference_order(
        n in 6usize..40,
        degree in 2usize..5,
        cap in 1usize..8,
        landmark_every in 3usize..9,
        seed in 0u64..1_000_000,
    ) {
        let graph = generators::gnm(n, n * degree / 2, seed);
        let limit = TableLimit::VicinityCap { size: cap };
        let mut engine = Engine::new(&graph, |v| {
            PathVectorNode::new(v, v.0 % landmark_every == 0, limit)
        });
        prop_assert!(engine.run().converged);
        engine.nodes().iter().for_each(|node| check_cap_order(node, cap));
        // Flap links one event at a time, each to quiescence.
        let edges: Vec<(NodeId, NodeId)> = graph
            .nodes()
            .flat_map(|u| graph.neighbors(u).iter().map(move |nb| (u, nb.node)))
            .filter(|(u, v)| u < v)
            .collect();
        let (mut down, mut rng) = (Vec::new(), seed);
        for _ in 0..8 {
            let pick = splitmix(&mut rng) as usize;
            let event = if down.is_empty() || !pick.is_multiple_of(3) {
                let (u, v) = edges[pick % edges.len()];
                if down.contains(&(u, v)) {
                    continue;
                }
                down.push((u, v));
                TopologyEvent::LinkDown { u, v }
            } else {
                let (u, v) = down.swap_remove(pick % down.len());
                TopologyEvent::LinkUp { u, v, weight: 1.0 }
            };
            engine.schedule_topology(engine.now() + 1.0, event);
            prop_assert!(engine.run().converged);
            engine.nodes().iter().for_each(|node| check_cap_order(node, cap));
        }
    }
}
