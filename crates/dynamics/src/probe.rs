//! Route availability and stretch measurement under dynamics.
//!
//! The paper's Fig. 8 measures control traffic until convergence on a
//! static topology. Under churn the interesting quantities are instead
//! *route availability* — can a live source still construct a working
//! route to a live destination right now? — and *stretch under churn*,
//! both measured against the engine's **current** graph. The probes here
//! are measurement-plane only: they read protocol state omnisciently but
//! never mutate it, and sample deterministically from a seed.

use disco_core::hash::NameHash;
use disco_core::path_vector::PathVectorNode;
use disco_core::protocol::DiscoProtocol;
use disco_graph::{dijkstra, Graph, NodeId};
use disco_sim::rng::rng_for;
use disco_sim::{Recorder, ShardProtocol, ShardedEngine, SimTime};
use rand::Rng;

/// Outcome of one batch of route probes.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeReport {
    /// Simulation time of the probe.
    pub time: SimTime,
    /// Sampled (source, destination) pairs.
    pub pairs: usize,
    /// Pairs connected in the current graph (the denominator: routing can
    /// not be blamed for a partition).
    pub routable: usize,
    /// Pairs for which a working route was found.
    pub delivered: usize,
    /// Sum of stretch over delivered pairs.
    sum_stretch: f64,
}

impl ProbeReport {
    /// Fraction of routable pairs that were delivered (1.0 when nothing
    /// was routable).
    pub fn availability(&self) -> f64 {
        if self.routable == 0 {
            1.0
        } else {
            self.delivered as f64 / self.routable as f64
        }
    }

    /// Mean stretch over delivered pairs (1.0 when nothing was delivered).
    pub fn mean_stretch(&self) -> f64 {
        if self.delivered == 0 {
            1.0
        } else {
            self.sum_stretch / self.delivered as f64
        }
    }
}

/// Sample `count` ordered pairs of distinct currently-live nodes,
/// deterministically from `(seed, topology events applied so far)` — read
/// off the coordinator's mirror, so every shard count probes the same
/// pairs at the same probe point.
pub fn sample_live_pairs<P, R>(
    engine: &ShardedEngine<P, R>,
    count: usize,
    seed: u64,
) -> Vec<(NodeId, NodeId)>
where
    P: ShardProtocol + 'static,
    R: Recorder + Send + 'static,
{
    let live: Vec<NodeId> = engine.active_nodes().collect();
    if live.len() < 2 {
        return Vec::new();
    }
    let mut rng = rng_for(seed, 0xb0, engine.topology_events());
    let mut pairs = Vec::with_capacity(count);
    for _ in 0..count {
        let s = live[rng.gen_range(0..live.len())];
        let mut t = live[rng.gen_range(0..live.len())];
        while t == s {
            t = live[rng.gen_range(0..live.len())];
        }
        pairs.push((s, t));
    }
    pairs
}

/// Probe each pair: ask `route_of` for candidate routes in preference
/// order, validate each hop-by-hop against the engine's current graph,
/// count the pair delivered if any candidate walks, and compare the first
/// walking route's length to the true shortest path.
///
/// `route_of(nodes, s, t)` returns node sequences `s..=t`. It is a
/// *source-local* oracle: it runs on the shard owning `s`, where only
/// `nodes[s]` (and the shard's other owned nodes) carry live state — every
/// other entry is the construction-time replica. An oracle that must read
/// several nodes' live state is several gathers (see [`disco_probe`]).
pub fn probe<P, R, F>(
    engine: &mut ShardedEngine<P, R>,
    pairs: &[(NodeId, NodeId)],
    route_of: F,
) -> ProbeReport
where
    P: ShardProtocol + 'static,
    R: Recorder + Send + 'static,
    F: Fn(&[P], NodeId, NodeId) -> Vec<Vec<NodeId>> + Send + Clone + 'static,
{
    let candidates = engine.gather(pairs.to_vec(), move |e, s, t| route_of(e.nodes(), s, t));
    validate_candidates(engine, pairs, &candidates)
}

/// The measurement half of a probe: given each pair's candidate routes (in
/// preference order), validate them hop-by-hop against the coordinator's
/// mirror of the current graph and active set, count delivered pairs and
/// accumulate stretch against the true shortest paths.
fn validate_candidates<P, R>(
    engine: &ShardedEngine<P, R>,
    pairs: &[(NodeId, NodeId)],
    candidates: &[Vec<Vec<NodeId>>],
) -> ProbeReport
where
    P: ShardProtocol + 'static,
    R: Recorder + Send + 'static,
{
    let graph = engine.graph();
    let is_active = |v| engine.is_active(v);
    let mut report = ProbeReport {
        time: engine.now(),
        pairs: pairs.len(),
        routable: 0,
        delivered: 0,
        sum_stretch: 0.0,
    };
    // One shortest-path tree per distinct source.
    let mut sources: Vec<NodeId> = pairs.iter().map(|&(s, _)| s).collect();
    sources.sort_unstable();
    sources.dedup();
    let trees: std::collections::HashMap<NodeId, _> = sources
        .into_iter()
        .map(|s| (s, dijkstra(graph, s)))
        .collect();
    for (&(s, t), cands) in pairs.iter().zip(candidates) {
        let Some(true_dist) = trees[&s].distance(t) else {
            continue; // partitioned: not the routing layer's fault
        };
        report.routable += 1;
        let Some(len) = cands
            .iter()
            .find_map(|route| walk_length(graph, is_active, route, s, t))
        else {
            continue; // no candidate, or all stale (broken link / dead hop)
        };
        report.delivered += 1;
        report.sum_stretch += if true_dist <= 0.0 {
            1.0
        } else {
            len / true_dist
        };
    }
    report
}

/// Validate `route` as a walk `s..=t` over `graph` with every hop active;
/// returns its length.
fn walk_length(
    graph: &Graph,
    is_active: impl Fn(NodeId) -> bool,
    route: &[NodeId],
    s: NodeId,
    t: NodeId,
) -> Option<f64> {
    if route.first() != Some(&s) || route.last() != Some(&t) {
        return None;
    }
    let mut len = 0.0;
    for w in route.windows(2) {
        if !is_active(w[0]) || !is_active(w[1]) {
            return None;
        }
        len += graph.edge_weight(w[0], w[1])?;
    }
    Some(len)
}

/// Route oracle for plain path-vector nodes: the table route, if any.
pub fn path_vector_route(nodes: &[PathVectorNode], s: NodeId, t: NodeId) -> Vec<Vec<NodeId>> {
    nodes[s.0]
        .route(t)
        .map(|e| e.path.to_vec())
        .into_iter()
        .collect()
}

/// [`probe`] emulating Disco's first packet (§4.3), in the protocol's
/// preference order: a vicinity route if the source has one; the address
/// known through the source's sloppy group; and name resolution — the
/// destination's flat-name hash resolved at the owning landmark (which the
/// source must be able to reach and which must hold an address for the
/// hash), followed as `s ; ℓ_t ; t`.
///
/// That reads the live state of two nodes — the source and the owning
/// landmark — so the candidates are collected in three gathers:
///
/// 1. on `owner(s)`: the vicinity route and the sloppy-group route, plus
///    whether the owner landmark of `H(t)` is reachable from `s` (the
///    hash itself is construction-time constant, so the local replica of
///    `t` can supply it);
/// 2. on `owner(ℓ)`: the owning landmark's resolution-store entry for
///    `H(t)`, detached from its shard-local path arena;
/// 3. on `owner(s)` again: the resolution route `s ; ℓ_t ; t` built from
///    the re-interned address, appended after the phase-1 candidates.
pub fn disco_probe<R>(
    engine: &mut ShardedEngine<DiscoProtocol, R>,
    pairs: &[(NodeId, NodeId)],
) -> ProbeReport
where
    R: Recorder + Send + 'static,
{
    // Phase 1: source-local candidates + resolution reachability
    // (owning landmark, H(t)).
    type Phase1 = (Vec<Vec<NodeId>>, Option<(NodeId, NameHash)>);
    let phase1: Vec<Phase1> = engine.gather(pairs.to_vec(), |e, s, t| {
        let nodes = e.nodes();
        let src = &nodes[s.0];
        let mut cands = Vec::new();
        if let Some(direct) = src.pv.route(t) {
            cands.push(direct.path.to_vec());
        }
        if let Some(addr) = src.group_address(t) {
            cands.extend(src.route_to(t, Some(addr)).map(|p| p.to_vec()));
        }
        let t_hash = nodes[t.0].my_hash();
        let lookup = src
            .owner_landmark(t_hash)
            .filter(|&owner| src.route_to(owner, None).is_some())
            .map(|owner| (owner, t_hash));
        (cands, lookup)
    });
    let (mut candidates, lookups): (Vec<_>, Vec<_>) = phase1.into_iter().unzip();

    // Phase 2: resolution-store reads on the owning landmarks. Addresses
    // come back detached (interned paths are pinned to their shard's
    // arena).
    let asks = lookups
        .iter()
        .enumerate()
        .filter_map(|(i, q)| q.map(|(owner, hash)| (owner, (i, hash, pairs[i].1))))
        .collect();
    let resolved = engine.gather(asks, |e, owner, (i, hash, t)| {
        e.nodes()[owner.0]
            .resolution_store
            .get(&hash)
            .filter(|addr| addr.node == t)
            .map(|addr| (i, addr.detach()))
    });

    // Phase 3: back on the sources, build the resolution route from the
    // re-interned address; it lands after the phase-1 candidates.
    let asks = resolved
        .into_iter()
        .flatten()
        .map(|(i, addr)| (pairs[i].0, (i, pairs[i].1, addr)))
        .collect();
    let routes = engine.gather(asks, |e, s, (i, t, addr)| {
        let addr = addr.attach();
        (
            i,
            e.nodes()[s.0].route_to(t, Some(&addr)).map(|p| p.to_vec()),
        )
    });
    for (i, route) in routes {
        candidates[i].extend(route);
    }

    validate_candidates(engine, pairs, &candidates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use disco_core::path_vector::TableLimit;
    use disco_graph::generators;
    use disco_sim::TopologyEvent;

    fn pv_engine(n: usize, m: usize, seed: u64, shards: usize) -> ShardedEngine<PathVectorNode> {
        let g = generators::gnm_connected(n, m, seed);
        let mut engine = ShardedEngine::new(&g, shards, seed, |v| {
            PathVectorNode::new(v, v == NodeId(0), TableLimit::Unlimited)
        });
        assert!(engine.run().converged);
        engine
    }

    #[test]
    fn converged_network_has_full_availability_and_unit_stretch() {
        for shards in [1, 2] {
            let mut engine = pv_engine(48, 192, 3, shards);
            let pairs = sample_live_pairs(&engine, 64, 3);
            assert_eq!(pairs.len(), 64);
            let report = probe(&mut engine, &pairs, path_vector_route);
            assert_eq!(report.routable, 64);
            assert_eq!(report.delivered, 64);
            assert!((report.availability() - 1.0).abs() < 1e-12);
            assert!((report.mean_stretch() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn availability_recovers_after_churn() {
        let mut engine = pv_engine(48, 192, 5, 1);
        let t0 = engine.now() + 1.0;
        let peer = engine.graph().neighbors(NodeId(1))[0].node;
        engine.schedule_topology(t0, TopologyEvent::NodeLeave { node: NodeId(7) });
        engine.schedule_topology(
            t0 + 1.0,
            TopologyEvent::LinkDown {
                u: NodeId(1),
                v: peer,
            },
        );
        assert!(engine.run_until(|_| false), "repair did not quiesce");
        let pairs = sample_live_pairs(&engine, 64, 5);
        let report = probe(&mut engine, &pairs, path_vector_route);
        assert_eq!(report.routable, report.pairs);
        assert_eq!(
            report.delivered, report.routable,
            "unlimited path vector must fully heal"
        );
        assert!((report.mean_stretch() - 1.0).abs() < 1e-9);
        // Sampling never picks the departed node.
        assert!(pairs.iter().all(|&(s, t)| s != NodeId(7) && t != NodeId(7)));
    }

    #[test]
    fn stale_routes_fail_validation() {
        let mut engine = pv_engine(16, 48, 9, 1);
        // Freeze state, then break a link WITHOUT letting repair run: routes
        // through it must count as undelivered.
        let route_of = |e: &mut ShardedEngine<PathVectorNode>, s: NodeId, t: NodeId| {
            e.visit(0, move |e| e.nodes()[s.0].route(t).map(|r| r.path.to_vec()))
        };
        let (u, v) = engine.visit(0, |e| {
            let node = &e.nodes()[2];
            let (d, _) = node.local_entries().next().unwrap();
            let path = node.route(d).unwrap().path.to_vec();
            (path[0], path[1])
        });
        let before = probe(&mut engine, &[(u, v)], path_vector_route);
        assert_eq!(before.delivered, 1);
        let t0 = engine.now() + 1.0;
        engine.schedule_topology(t0, TopologyEvent::LinkDown { u, v });
        // Advance exactly past the event; the repair traffic it triggers is
        // still in flight, so u's direct route to v is stale.
        engine.run_to(t0 + 1e-6);
        let report = probe(&mut engine, &[(u, v)], path_vector_route);
        if let Some(path) = route_of(&mut engine, u, v) {
            // If u still exports a (stale or alternate) route, the probe
            // must only count it when it walks on the current graph.
            let walks = path
                .windows(2)
                .all(|w| engine.graph().edge_weight(w[0], w[1]).is_some());
            assert_eq!(report.delivered == 1, walks);
        } else {
            assert_eq!(report.delivered, 0);
        }
    }
}
