//! Compilers from churn models to deterministic [`Schedule`]s.
//!
//! Each model is a pure function of `(graph, parameters, seed)`: the same
//! inputs always compile to the same event stream. The compilers track the
//! liveness they themselves induce (who is up at each instant), so joins
//! attach to anchors that are actually present when the event fires.

use crate::schedule::Schedule;
use disco_graph::{Graph, NodeId, Weight};
use disco_sim::rng::rng_for;
use disco_sim::TopologyEvent;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// RNG stream ids (see `disco_sim::rng`).
const STREAM_CHURN: u64 = 0xc0;
const STREAM_LINKS: u64 = 0xc1;
const STREAM_CROWD: u64 = 0xc2;
const STREAM_WAYPOINT: u64 = 0xc3;

/// Exponential draw with the given rate (mean `1/rate`).
fn exp_draw(rng: &mut StdRng, rate: f64) -> f64 {
    debug_assert!(rate > 0.0);
    let u: f64 = rng.gen();
    -(1.0 - u).ln() / rate
}

/// Pick `k` distinct elements of `pool` (uniformly, without replacement).
/// Returns fewer when the pool is smaller than `k`.
fn pick_distinct(rng: &mut StdRng, pool: &[NodeId], k: usize) -> Vec<NodeId> {
    let mut pool = pool.to_vec();
    let k = k.min(pool.len());
    let mut out = Vec::with_capacity(k);
    for _ in 0..k {
        let i = rng.gen_range(0..pool.len());
        out.push(pool.swap_remove(i));
    }
    out.sort_unstable();
    out
}

/// Poisson node churn: nodes leave at exponential inter-arrival times and
/// rejoin after an exponential downtime, re-attaching to fresh anchors —
/// the classic P2P churn model (e.g. Stutzbach & Rejaie, IMC'06), here
/// compiled to a deterministic event stream.
#[derive(Debug, Clone)]
pub struct PoissonChurn {
    /// Per-node leave rate λ (events per unit time per live node).
    pub leave_rate_per_node: f64,
    /// Mean downtime before a departed node rejoins.
    pub mean_downtime: f64,
    /// Anchors a rejoining node attaches to.
    pub attach_links: usize,
    /// Weight of the new attachment links.
    pub link_weight: Weight,
    /// Length of the churn window.
    pub horizon: f64,
    /// Leaves are suppressed while the live fraction is at or below this
    /// floor, bounding how much of the network can be down at once.
    pub min_live_fraction: f64,
}

impl Default for PoissonChurn {
    fn default() -> Self {
        PoissonChurn {
            leave_rate_per_node: 0.001,
            mean_downtime: 40.0,
            attach_links: 3,
            link_weight: 1.0,
            horizon: 400.0,
            min_live_fraction: 0.75,
        }
    }
}

impl PoissonChurn {
    /// Churn at `leave_rate_per_node` with mean downtime `mean_downtime`
    /// over `horizon`; attachment and live floor as in [`Default`].
    pub fn new(leave_rate_per_node: f64, mean_downtime: f64, horizon: f64) -> Self {
        PoissonChurn {
            leave_rate_per_node,
            mean_downtime,
            horizon,
            ..PoissonChurn::default()
        }
    }

    /// Compile to a schedule over the nodes of `graph`.
    pub fn compile(&self, graph: &Graph, seed: u64) -> Schedule {
        let n = graph.node_count();
        let mut rng = rng_for_model(seed, STREAM_CHURN);
        let mut schedule = Schedule::new();
        let mut live: Vec<bool> = vec![true; n];
        let mut live_count = n;
        // Pending rejoins, kept sorted by time descending (pop from the end).
        let mut rejoins: Vec<(f64, NodeId)> = Vec::new();
        let mut t = 0.0;
        loop {
            let leave_rate = self.leave_rate_per_node * live_count as f64;
            let next_leave = t + exp_draw(&mut rng, leave_rate.max(1e-12));
            let next_rejoin = rejoins.last().map(|&(rt, _)| rt);
            let (event_time, is_rejoin) = match next_rejoin {
                Some(rt) if rt <= next_leave => (rt, true),
                _ => (next_leave, false),
            };
            if event_time > self.horizon {
                break;
            }
            t = event_time;
            if is_rejoin {
                let (_, v) = rejoins.pop().unwrap();
                let pool: Vec<NodeId> = (0..n)
                    .map(NodeId)
                    .filter(|&w| live[w.0] && w != v)
                    .collect();
                let links: Vec<(NodeId, Weight)> =
                    pick_distinct(&mut rng, &pool, self.attach_links)
                        .into_iter()
                        .map(|a| (a, self.link_weight))
                        .collect();
                schedule.push(t, TopologyEvent::NodeJoin { node: v, links });
                live[v.0] = true;
                live_count += 1;
            } else {
                if (live_count as f64) <= self.min_live_fraction * n as f64 {
                    continue; // too many down already; suppress this leave
                }
                let pool: Vec<NodeId> = (0..n).map(NodeId).filter(|&w| live[w.0]).collect();
                let v = pool[rng.gen_range(0..pool.len())];
                schedule.push(t, TopologyEvent::NodeLeave { node: v });
                live[v.0] = false;
                live_count -= 1;
                let back = t + exp_draw(&mut rng, 1.0 / self.mean_downtime.max(1e-12));
                let pos = rejoins
                    .iter()
                    .position(|&(rt, _)| rt < back)
                    .unwrap_or(rejoins.len());
                rejoins.insert(pos, (back, v));
            }
        }
        schedule
    }
}

/// Rolling link failures: each edge independently alternates between up and
/// down with exponential times (mean time between failures / mean time to
/// repair), the standard availability model for links.
#[derive(Debug, Clone)]
pub struct LinkFailures {
    /// Mean up-time of a link before it fails.
    pub mtbf: f64,
    /// Mean repair time before the link comes back (with its old weight).
    pub mttr: f64,
    /// Length of the failure window.
    pub horizon: f64,
}

impl Default for LinkFailures {
    fn default() -> Self {
        LinkFailures {
            mtbf: 2000.0,
            mttr: 50.0,
            horizon: 400.0,
        }
    }
}

impl LinkFailures {
    /// Compile to a schedule over the edges of `graph`.
    pub fn compile(&self, graph: &Graph, seed: u64) -> Schedule {
        // Per-edge streams interleave arbitrarily in time, so collect and
        // sort once instead of insertion-sorting every push.
        let mut events = Vec::new();
        for (id, e) in graph.edges() {
            // One independent renewal process per edge, each on its own
            // deterministic stream.
            let mut rng = rng_for(seed, STREAM_LINKS, id.0 as u64);
            let mut t = 0.0;
            loop {
                t += exp_draw(&mut rng, 1.0 / self.mtbf.max(1e-12));
                if t > self.horizon {
                    break;
                }
                events.push((t, TopologyEvent::LinkDown { u: e.u, v: e.v }));
                t += exp_draw(&mut rng, 1.0 / self.mttr.max(1e-12));
                if t > self.horizon {
                    break;
                }
                events.push((
                    t,
                    TopologyEvent::LinkUp {
                        u: e.u,
                        v: e.v,
                        weight: e.weight,
                    },
                ));
            }
        }
        Schedule::from_events(events)
    }
}

/// A flash crowd: a burst of brand-new nodes joins within a short window,
/// each attaching to random anchors among the original population.
#[derive(Debug, Clone)]
pub struct FlashCrowd {
    /// Number of arriving nodes.
    pub arrivals: usize,
    /// Start of the burst.
    pub at: f64,
    /// Arrivals are spread uniformly over `[at, at + spread)`.
    pub spread: f64,
    /// Anchors each arrival attaches to.
    pub attach_links: usize,
    /// Weight of the attachment links.
    pub link_weight: Weight,
}

impl Default for FlashCrowd {
    fn default() -> Self {
        FlashCrowd {
            arrivals: 32,
            at: 10.0,
            spread: 50.0,
            attach_links: 3,
            link_weight: 1.0,
        }
    }
}

impl FlashCrowd {
    /// Compile to a schedule; arrivals get the fresh ids
    /// `graph.node_count()..graph.node_count() + arrivals`.
    pub fn compile(&self, graph: &Graph, seed: u64) -> Schedule {
        let n = graph.node_count();
        let mut rng = rng_for_model(seed, STREAM_CROWD);
        let anchors_pool: Vec<NodeId> = (0..n).map(NodeId).collect();
        let mut arrivals: Vec<(f64, NodeId)> = (0..self.arrivals)
            .map(|i| {
                let dt: f64 = rng.gen::<f64>() * self.spread;
                (self.at + dt, NodeId(n + i))
            })
            .collect();
        arrivals.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        let mut schedule = Schedule::new();
        for (t, v) in arrivals {
            let links: Vec<(NodeId, Weight)> =
                pick_distinct(&mut rng, &anchors_pool, self.attach_links)
                    .into_iter()
                    .map(|a| (a, self.link_weight))
                    .collect();
            schedule.push(t, TopologyEvent::NodeJoin { node: v, links });
        }
        schedule
    }
}

/// Waypoint mobility for one node: at each waypoint the node tears down its
/// current attachment links and attaches to fresh anchors, keeping its
/// protocol identity (name, hash, sloppy group) — the schedule-driven form
/// of the re-attachment trick in `examples/flat_name_mobility.rs`.
#[derive(Debug, Clone)]
pub struct Waypoints {
    /// The mobile node. May be a fresh id (`>= graph.node_count()`), in
    /// which case the first waypoint is a join.
    pub node: NodeId,
    /// Number of moves.
    pub moves: usize,
    /// Time of the first move.
    pub start: f64,
    /// Time between moves.
    pub period: f64,
    /// Anchors attached to at each waypoint.
    pub attach_links: usize,
    /// Weight of the attachment links.
    pub link_weight: Weight,
}

impl Waypoints {
    /// Compile to a schedule over the anchor population of `graph`.
    pub fn compile(&self, graph: &Graph, seed: u64) -> Schedule {
        let n = graph.node_count();
        let mut rng = rng_for_model(seed ^ self.node.0 as u64, STREAM_WAYPOINT);
        let pool: Vec<NodeId> = (0..n).map(NodeId).filter(|&v| v != self.node).collect();
        let mut schedule = Schedule::new();
        let mut current: Vec<NodeId> = if self.node.0 < n {
            graph
                .neighbors(self.node)
                .iter()
                .map(|nb| nb.node)
                .collect()
        } else {
            Vec::new()
        };
        let fresh_join = self.node.0 >= n;
        for m in 0..self.moves {
            let t = self.start + m as f64 * self.period;
            let next = pick_distinct(&mut rng, &pool, self.attach_links);
            if m == 0 && fresh_join {
                let links: Vec<(NodeId, Weight)> =
                    next.iter().map(|&a| (a, self.link_weight)).collect();
                schedule.push(
                    t,
                    TopologyEvent::NodeJoin {
                        node: self.node,
                        links,
                    },
                );
            } else {
                for &old in &current {
                    if !next.contains(&old) {
                        schedule.push(
                            t,
                            TopologyEvent::LinkDown {
                                u: self.node,
                                v: old,
                            },
                        );
                    }
                }
                for &a in &next {
                    if !current.contains(&a) {
                        schedule.push(
                            t,
                            TopologyEvent::LinkUp {
                                u: self.node,
                                v: a,
                                weight: self.link_weight,
                            },
                        );
                    }
                }
            }
            current = next;
        }
        schedule
    }
}

/// A seeded model RNG decorrelated from the per-purpose streams used by the
/// protocols themselves.
fn rng_for_model(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(disco_sim::seed_for(seed, stream, 0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use disco_graph::generators;

    #[test]
    fn poisson_churn_is_deterministic_and_balanced() {
        let g = generators::gnm_connected(128, 512, 3);
        let model = PoissonChurn {
            leave_rate_per_node: 0.01,
            horizon: 200.0,
            ..PoissonChurn::default()
        };
        let a = model.compile(&g, 9);
        let b = model.compile(&g, 9);
        assert_eq!(a, b, "same seed must compile identically");
        let c = model.compile(&g, 10);
        assert_ne!(a, c, "different seed must differ");
        assert!(!a.is_empty());
        assert!(a.horizon() <= 200.0);
        // Leaves and joins roughly balance (downtime ≪ horizon).
        let leaves = a
            .events()
            .iter()
            .filter(|(_, e)| matches!(e, TopologyEvent::NodeLeave { .. }))
            .count();
        let joins = a
            .events()
            .iter()
            .filter(|(_, e)| matches!(e, TopologyEvent::NodeJoin { .. }))
            .count();
        assert!(leaves > 10, "expected real churn, got {leaves} leaves");
        assert!(joins > leaves / 2, "joins {joins} vs leaves {leaves}");
    }

    #[test]
    fn poisson_churn_never_leaves_dead_nodes_as_anchors() {
        let g = generators::gnm_connected(64, 256, 5);
        let model = PoissonChurn {
            leave_rate_per_node: 0.02,
            mean_downtime: 30.0,
            horizon: 300.0,
            ..PoissonChurn::default()
        };
        let s = model.compile(&g, 4);
        // Replay the liveness the schedule itself induces; every join must
        // attach only to nodes that are live at that instant.
        let mut live = vec![true; g.node_count()];
        for (_, ev) in s.events() {
            match ev {
                TopologyEvent::NodeLeave { node } => live[node.0] = false,
                TopologyEvent::NodeJoin { node, links } => {
                    for (a, _) in links {
                        assert!(live[a.0], "join of {node} attaches to dead anchor {a}");
                    }
                    live[node.0] = true;
                }
                _ => {}
            }
        }
    }

    #[test]
    fn poisson_churn_respects_live_floor() {
        let g = generators::gnm_connected(40, 160, 7);
        let model = PoissonChurn {
            leave_rate_per_node: 0.5, // extreme: would empty the network
            mean_downtime: 1e6,       // nobody comes back
            horizon: 100.0,
            min_live_fraction: 0.75,
            ..PoissonChurn::default()
        };
        let s = model.compile(&g, 1);
        // Replay the schedule: the live count must never drop below the
        // floor (leaves beyond it are suppressed until someone rejoins).
        let mut live = 40i64;
        let mut min_live = live;
        for (_, ev) in s.events() {
            match ev {
                TopologyEvent::NodeLeave { .. } => live -= 1,
                TopologyEvent::NodeJoin { .. } => live += 1,
                _ => {}
            }
            min_live = min_live.min(live);
        }
        assert!(
            min_live >= 30,
            "live count fell to {min_live} (< 75% floor)"
        );
        assert!(
            min_live == 30,
            "extreme rate should drive the network to the floor, got {min_live}"
        );
    }

    #[test]
    fn link_failures_pair_down_with_up() {
        let g = generators::ring(32);
        let model = LinkFailures {
            mtbf: 100.0,
            mttr: 10.0,
            horizon: 300.0,
        };
        let s = model.compile(&g, 11);
        assert_eq!(s, model.compile(&g, 11));
        assert!(!s.is_empty());
        // Per edge: alternating down/up starting with down.
        let mut down: std::collections::HashMap<(usize, usize), bool> = Default::default();
        for (_, ev) in s.events() {
            match ev {
                TopologyEvent::LinkDown { u, v } => {
                    let was = down.insert((u.0, v.0), true);
                    assert_ne!(was, Some(true), "double failure of {u}-{v}");
                }
                TopologyEvent::LinkUp { u, v, weight } => {
                    assert_eq!(down.insert((u.0, v.0), false), Some(true));
                    assert_eq!(*weight, 1.0, "recovery must restore the old weight");
                }
                _ => unreachable!("only link events expected"),
            }
        }
    }

    #[test]
    fn flash_crowd_assigns_fresh_ids_in_order() {
        let g = generators::gnm_connected(50, 200, 13);
        let model = FlashCrowd {
            arrivals: 10,
            attach_links: 2,
            ..FlashCrowd::default()
        };
        let s = model.compile(&g, 2);
        assert_eq!(s.len(), 10);
        let mut seen = std::collections::HashSet::new();
        for (t, ev) in s.events() {
            let TopologyEvent::NodeJoin { node, links } = ev else {
                panic!("expected only joins");
            };
            assert!(node.0 >= 50 && node.0 < 60);
            assert!(seen.insert(node.0), "duplicate joiner {node}");
            assert_eq!(links.len(), 2);
            assert!(*t >= model.at && *t < model.at + model.spread);
        }
    }

    #[test]
    fn waypoints_rotate_attachment_links() {
        let g = generators::gnm_connected(60, 240, 17);
        let mobile = NodeId(60); // fresh id: first waypoint is a join
        let model = Waypoints {
            node: mobile,
            moves: 4,
            start: 5.0,
            period: 50.0,
            attach_links: 2,
            link_weight: 1.5,
        };
        let s = model.compile(&g, 3);
        // Replay: track the mobile node's links; after every waypoint it has
        // exactly `attach_links` links, all to anchors in the base graph.
        let mut links: std::collections::HashSet<usize> = Default::default();
        let mut moves_seen = 0;
        let mut last_links: Vec<usize> = Vec::new();
        for (t, ev) in s.events() {
            match ev {
                TopologyEvent::NodeJoin { node, links: l } => {
                    assert_eq!(*node, mobile);
                    for (a, w) in l {
                        assert!(a.0 < 60);
                        assert_eq!(*w, 1.5);
                        links.insert(a.0);
                    }
                }
                TopologyEvent::LinkDown { u, v } => {
                    assert_eq!(*u, mobile);
                    assert!(links.remove(&v.0));
                }
                TopologyEvent::LinkUp { u, v, weight } => {
                    assert_eq!(*u, mobile);
                    assert_eq!(*weight, 1.5);
                    assert!(links.insert(v.0));
                }
                _ => unreachable!(),
            }
            let expected_move = ((t - 5.0) / 50.0).round() as usize;
            if expected_move != moves_seen {
                moves_seen = expected_move;
            }
            last_links = links.iter().copied().collect();
        }
        assert_eq!(last_links.len(), 2);
        assert!(moves_seen >= 3, "expected several distinct waypoints");
    }
}
