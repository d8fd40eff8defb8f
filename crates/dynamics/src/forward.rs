//! Stale-loss probe: hop-by-hop packet walks over *published* forwarding
//! tables against the *current* topology.
//!
//! [`crate::probe`] measures whether the control plane still has a route;
//! this module measures whether the data plane still *delivers* — the two
//! diverge exactly when churn has moved selections that the last published
//! [`ForwardingTable`] epoch has not picked up. A walk forwards one packet
//! the way a Disco router would: table hit on the destination anywhere
//! along the way routes directly (the paper's `ToDestination` shortcut),
//! otherwise the packet rides toward the destination's addressing landmark
//! and then down the address label, with the table's landmark-fallback
//! entry as the last resort. Every hop is validated against the live graph
//! and active set; a hop onto a dead link or node is a packet **lost to a
//! stale epoch** — the served-traffic cost `exp_forward` turns into an SLO.
//!
//! **The serving loop reads no clock.** [`PacketWalker::walk`] tells its
//! `on_lookup` observer *which node's table* each probe hit and nothing
//! about time: a probe is 17 ns cache-hot and 115–140 ns cold, a clock
//! read ≈ 60 ns on the VMs this runs on, so two reads around one probe
//! measure the clock — and cost 42 % of a walk on the repository
//! benchmark's `forward` workload. Latency is therefore a per-slice quantity, taken by whoever wants it:
//! time a run of walks with one clock pair and divide by the probes the
//! callback counted, as `exp_forward`'s checkpoint and the repository
//! benchmark do.
//!
//! Tables and addresses are plain arrays/`Vec<NodeId>` (no interned paths),
//! so a sharded run can compile them on owner shards, ship them to the
//! coordinator and walk there.

use disco_core::forward::ForwardingTable;
use disco_graph::{Graph, NodeId};

/// A destination's address detached from the path arena: its closest
/// landmark and the label path `landmark → … → destination`.
#[derive(Debug, Clone)]
pub struct FlowAddress {
    /// The destination's addressing landmark.
    pub landmark: NodeId,
    /// Node path from the landmark to the destination (landmark first).
    pub path: Vec<NodeId>,
}

/// How one packet walk ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalkOutcome {
    /// Reached the destination in `hops` hops.
    Delivered {
        /// Hops traversed.
        hops: u32,
    },
    /// A published table named a next hop that the current topology no
    /// longer serves (node down or link gone) after `hops` good hops —
    /// the packet is lost to a stale epoch.
    StaleLoss {
        /// Good hops before the stale one.
        hops: u32,
    },
    /// No table entry and no address to fall back on (unpublished node,
    /// unresolved destination, or a landmark route not yet learned).
    Miss {
        /// Hops traversed before the dead end.
        hops: u32,
    },
    /// The TTL ran out — transient loop across mixed epochs.
    TtlExceeded,
}

impl WalkOutcome {
    /// Whether the packet reached its destination.
    pub fn delivered(self) -> bool {
        matches!(self, WalkOutcome::Delivered { .. })
    }

    /// Whether the packet was lost to stale forwarding state (a dead hop
    /// or an epoch-mixing loop) — the numerator of the stale-loss SLO.
    pub fn stale_loss(self) -> bool {
        matches!(
            self,
            WalkOutcome::StaleLoss { .. } | WalkOutcome::TtlExceeded
        )
    }
}

/// The forwarding environment a batch of packet walks runs against: the
/// current topology and active set, the published-epoch resolver and the
/// TTL. Built once per checkpoint; [`PacketWalker::walk`] forwards one
/// packet.
pub struct PacketWalker<'a, A, T> {
    /// The live topology every hop is validated against.
    pub graph: &'a Graph,
    /// The live active set (a hop onto an inactive node is a stale loss).
    pub is_active: A,
    /// A node's last published epoch (`None` = the node never published).
    pub table_of: T,
    /// Hop budget: exceeding it means a transient loop across mixed
    /// epochs, counted as a stale loss.
    pub ttl: u32,
}

impl<'a, 't, A, T> PacketWalker<'a, A, T>
where
    A: Fn(NodeId) -> bool,
    T: Fn(NodeId) -> Option<&'t ForwardingTable>,
{
    /// Forward one packet from `src` to `dst` hop-by-hop through the
    /// published tables. `addr` is the destination's resolved address
    /// (`None` models an unresolved name: only direct table hits can
    /// deliver). `on_lookup` is called once per table probe with **the
    /// node whose table was probed** — a closure that only counts
    /// compiles to an increment, one that indexes by node gets the
    /// per-node probe load. It is told nothing about time: the loop reads
    /// no clock (see the module doc), and a caller that wants latency
    /// times a slice of walks and divides by the probes it counted.
    ///
    /// At each node the forwarding decision is, in order: direct table
    /// hit on `dst`; explicit label step if the node sits on the address
    /// path; table route toward the address landmark; the table's
    /// landmark-fallback hop.
    pub fn walk(
        &self,
        src: NodeId,
        dst: NodeId,
        addr: Option<&FlowAddress>,
        mut on_lookup: impl FnMut(NodeId),
    ) -> WalkOutcome {
        if src == dst {
            return WalkOutcome::Delivered { hops: 0 };
        }
        let mut cur = src;
        for hops in 0..self.ttl {
            let Some(tab) = (self.table_of)(cur) else {
                return WalkOutcome::Miss { hops };
            };
            on_lookup(cur);
            let next = if let Some(h) = tab.lookup(dst) {
                h
            } else if let Some(addr) = addr {
                match addr.path.iter().position(|&p| p == cur) {
                    // On the label: follow the explicit source route.
                    Some(i) if i + 1 < addr.path.len() => addr.path[i + 1],
                    _ => {
                        on_lookup(cur);
                        let lm_hop = tab.lookup(addr.landmark);
                        match lm_hop.or_else(|| tab.fallback().map(|(_, hop)| hop)) {
                            Some(h) => h,
                            None => return WalkOutcome::Miss { hops },
                        }
                    }
                }
            } else {
                return WalkOutcome::Miss { hops };
            };
            if !(self.is_active)(next) || self.graph.edge_weight(cur, next).is_none() {
                return WalkOutcome::StaleLoss { hops };
            }
            cur = next;
            if cur == dst {
                return WalkOutcome::Delivered { hops: hops + 1 };
            }
        }
        WalkOutcome::TtlExceeded
    }
}

/// Breadth-first hop distances from `src` over the active subgraph
/// (`u32::MAX` = unreachable) — the denominator of per-walk hop stretch,
/// and the routability oracle the stale-loss SLO conditions on (a pair no
/// path serves cannot be *lost*, only unreachable).
pub fn hop_distances(graph: &Graph, is_active: impl Fn(NodeId) -> bool, src: NodeId) -> Vec<u32> {
    let n = graph.node_count();
    let mut dist = vec![u32::MAX; n];
    if !is_active(src) {
        return dist;
    }
    dist[src.0] = 0;
    let mut frontier = vec![src];
    let mut next = Vec::new();
    let mut d = 0u32;
    while !frontier.is_empty() {
        d += 1;
        for &v in &frontier {
            for nb in graph.neighbors(v) {
                let w = nb.node;
                if dist[w.0] == u32::MAX && is_active(w) {
                    dist[w.0] = d;
                    next.push(w);
                }
            }
        }
        std::mem::swap(&mut frontier, &mut next);
        next.clear();
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use disco_graph::GraphBuilder;

    /// A 0–1–2–3 path graph with tables routing left-to-right.
    fn line() -> Graph {
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId(0), NodeId(1), 1.0);
        b.add_edge(NodeId(1), NodeId(2), 1.0);
        b.add_edge(NodeId(2), NodeId(3), 1.0);
        b.build()
    }

    fn table(node: usize, rows: &[(usize, usize)]) -> ForwardingTable {
        let mut t = ForwardingTable::new(NodeId(node));
        t.begin(NodeId(node), 1, rows.len());
        for &(dest, hop) in rows {
            t.set_route(NodeId(dest), Some((NodeId(hop), 1)));
        }
        t
    }

    /// Delivered along the line, hop count and lookup stream correct.
    #[test]
    fn walks_deliver_over_direct_routes() {
        let g = line();
        let tabs: Vec<ForwardingTable> = (0..4).map(|v| table(v, &[(3, (v + 1).min(3))])).collect();
        let mut lookups = 0;
        let walker = PacketWalker {
            graph: &g,
            is_active: |_| true,
            table_of: |v: NodeId| Some(&tabs[v.0]),
            ttl: 16,
        };
        let out = walker.walk(NodeId(0), NodeId(3), None, |_| lookups += 1);
        assert_eq!(out, WalkOutcome::Delivered { hops: 3 });
        assert_eq!(lookups, 3);
        let mut probed = Vec::new();
        walker.walk(NodeId(0), NodeId(3), None, |v| probed.push(v.0));
        assert_eq!(probed, [0, 1, 2], "one direct probe per hop, at that hop");
    }

    /// A hop onto an inactive node is a stale loss, not a miss.
    #[test]
    fn dead_hop_is_stale_loss() {
        let g = line();
        let tabs: Vec<ForwardingTable> = (0..4).map(|v| table(v, &[(3, (v + 1).min(3))])).collect();
        let walker = PacketWalker {
            graph: &g,
            is_active: |v: NodeId| v != NodeId(2),
            table_of: |v: NodeId| Some(&tabs[v.0]),
            ttl: 16,
        };
        let out = walker.walk(NodeId(0), NodeId(3), None, |_| {});
        assert_eq!(out, WalkOutcome::StaleLoss { hops: 1 });
        assert!(out.stale_loss() && !out.delivered());
    }

    /// With no direct route, the packet rides the label path from the
    /// landmark; with no address at all, it is a miss.
    #[test]
    fn label_leg_and_miss() {
        let g = line();
        // Node 0 only knows the landmark (node 1); 1 and 2 know nothing
        // directly and sit on the label path 1 → 2 → 3.
        let tabs = [
            table(0, &[(1, 1)]),
            table(1, &[]),
            table(2, &[]),
            table(3, &[]),
        ];
        let addr = FlowAddress {
            landmark: NodeId(1),
            path: vec![NodeId(1), NodeId(2), NodeId(3)],
        };
        let walker = PacketWalker {
            graph: &g,
            is_active: |_| true,
            table_of: |v: NodeId| Some(&tabs[v.0]),
            ttl: 16,
        };
        let out = walker.walk(NodeId(0), NodeId(3), Some(&addr), |_| {});
        assert_eq!(out, WalkOutcome::Delivered { hops: 3 });
        // Node 0: direct miss, then the landmark probe; nodes 1 and 2:
        // one direct miss each before the label step (which probes nothing).
        let mut probed = Vec::new();
        walker.walk(NodeId(0), NodeId(3), Some(&addr), |v| probed.push(v.0));
        assert_eq!(probed, [0, 0, 1, 2]);
        let out = walker.walk(NodeId(0), NodeId(3), None, |_| {});
        assert_eq!(out, WalkOutcome::Miss { hops: 0 });
    }

    /// Two tables pointing at each other (mixed epochs): the walk spends
    /// its whole hop budget, one probe per hop, and counts as a stale loss.
    #[test]
    fn ttl_exceeded_on_a_two_node_loop() {
        let g = line();
        let tabs = [table(0, &[(3, 1)]), table(1, &[(3, 0)])];
        let ttl = 16;
        let walker = PacketWalker {
            graph: &g,
            is_active: |_| true,
            table_of: |v: NodeId| tabs.get(v.0),
            ttl,
        };
        let mut lookups = 0;
        let out = walker.walk(NodeId(0), NodeId(3), None, |_| lookups += 1);
        assert_eq!(out, WalkOutcome::TtlExceeded);
        assert_eq!(lookups, ttl);
        assert!(out.stale_loss() && !out.delivered());
    }

    /// BFS hop distances respect the active set.
    #[test]
    fn hop_distances_skip_inactive() {
        let g = line();
        let d = hop_distances(&g, |_| true, NodeId(0));
        assert_eq!(d, vec![0, 1, 2, 3]);
        let d = hop_distances(&g, |v| v != NodeId(1), NodeId(0));
        assert_eq!(d[3], u32::MAX, "cut by the inactive node");
    }
}
