//! Topology generators.
//!
//! The paper's evaluation (§5.1) uses four topology families:
//!
//! 1. a 30,610-node AS-level map of the Internet,
//! 2. a 192,244-node router-level map of the Internet,
//! 3. `G(n, m)` random graphs with average degree 8,
//! 4. geometric random graphs with average degree 8 and Euclidean link
//!    latencies.
//!
//! The two CAIDA Internet maps are not redistributable, so this crate
//! substitutes synthetic power-law graphs ([`internet_as_like`] and
//! [`internet_router_like`]) generated by preferential attachment — the
//! property that matters for the paper's conclusions is the heavy-tailed
//! degree distribution with a few highly central nodes, which is exactly
//! what explodes S4's per-node cluster state while Disco's fixed-size
//! vicinities stay bounded (see README, "Substitutions").
//!
//! In addition, several deterministic pathological topologies used by tests
//! and the theory-oriented benchmarks are provided: [`ring`], [`line()`],
//! [`star`], [`grid`], [`complete`], and [`s4_adversarial_tree`] — the
//! two-level tree from the paper's footnote 6 on which S4 provably needs
//! `Θ(n)` state at the root.
//!
//! Every generator is deterministic in its `seed` argument.

use crate::builder::GraphBuilder;
use crate::graph::{Graph, NodeId};
use crate::properties;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// `G(n, m)`: `n` nodes and `m` distinct uniform-random edges.
///
/// The graph may be disconnected; the paper's experiments require connected
/// graphs, so most callers want [`gnm_connected`].
pub fn gnm(n: usize, m: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let max_edges = n * n.saturating_sub(1) / 2;
    let m = m.min(max_edges);
    let mut b = GraphBuilder::new(n);
    while b.edge_count() < m {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u != v {
            b.add_unit_edge(NodeId(u), NodeId(v));
        }
    }
    b.build()
}

/// `G(n, m)` conditioned on connectivity: edges are drawn uniformly at
/// random, then any disconnected fragments are patched by adding one edge
/// from each non-root component to a random node of the giant component.
///
/// For the densities used in the paper (average degree 8) the patching step
/// adds at most a handful of edges, so the degree distribution is virtually
/// identical to plain `G(n, m)`.
pub fn gnm_connected(n: usize, m: usize, seed: u64) -> Graph {
    let g = gnm(n, m, seed);
    connect_components(g, seed ^ 0x9e3779b97f4a7c15)
}

/// `G(n, m)` with average degree `avg_degree` (i.e. `m = n * avg_degree / 2`),
/// conditioned on connectivity. This is the paper's "random graphs of
/// various sizes, with m set so that the average degree is 8".
pub fn gnm_average_degree(n: usize, avg_degree: f64, seed: u64) -> Graph {
    let m = ((n as f64) * avg_degree / 2.0).round() as usize;
    gnm_connected(n, m, seed)
}

/// Geometric random graph: `n` nodes placed uniformly in the unit square,
/// connected when their Euclidean distance is below a radius chosen so that
/// the expected average degree is `avg_degree`. Edge weights are the
/// Euclidean distances scaled by 1000 (so they read as "latencies"), which
/// reproduces the paper's latency-annotated geometric graphs.
///
/// Returns the graph; node positions can be regenerated from the same seed
/// via [`geometric_positions`] when needed (e.g. for plotting).
pub fn geometric(n: usize, avg_degree: f64, seed: u64) -> Graph {
    let pos = geometric_positions(n, seed);
    // Expected degree for radius r in a unit square is ~ n * pi * r^2.
    let r = (avg_degree / (n as f64 * std::f64::consts::PI)).sqrt();
    geometric_from_positions(&pos, r)
}

/// Geometric random graph conditioned on connectivity (see [`geometric`]);
/// isolated fragments are patched by connecting each fragment's closest
/// pair of nodes across the cut, preserving the geometric flavour of edge
/// weights.
pub fn geometric_connected(n: usize, avg_degree: f64, seed: u64) -> Graph {
    let pos = geometric_positions(n, seed);
    let r = (avg_degree / (n as f64 * std::f64::consts::PI)).sqrt();
    let mut radius = r;
    // Grow the radius (up to a few retries) if the graph is badly
    // fragmented; then patch any remaining fragments geometrically.
    for _ in 0..6 {
        let g = geometric_from_positions(&pos, radius);
        let comps = properties::connected_components(&g);
        if comps.len() == 1 {
            return g;
        }
        if comps.len() <= (n / 50).max(2) {
            return connect_components_geometric(g, &pos);
        }
        radius *= 1.3;
    }
    let g = geometric_from_positions(&pos, radius);
    connect_components_geometric(g, &pos)
}

/// The node positions used by [`geometric`] for a given `(n, seed)`.
pub fn geometric_positions(n: usize, seed: u64) -> Vec<(f64, f64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
        .collect()
}

fn geometric_from_positions(pos: &[(f64, f64)], radius: f64) -> Graph {
    let n = pos.len();
    // Grid bucketing for O(n) expected neighbor candidate generation.
    let cell = radius.max(1e-9);
    let cells = (1.0 / cell).ceil() as usize + 1;
    let mut grid: Vec<Vec<usize>> = vec![Vec::new(); cells * cells];
    let idx = |x: f64, y: f64| -> (usize, usize) {
        (
            ((x / cell) as usize).min(cells - 1),
            ((y / cell) as usize).min(cells - 1),
        )
    };
    for (i, &(x, y)) in pos.iter().enumerate() {
        let (cx, cy) = idx(x, y);
        grid[cx * cells + cy].push(i);
    }
    let mut b = GraphBuilder::new(n);
    for (i, &(x, y)) in pos.iter().enumerate() {
        let (cx, cy) = idx(x, y);
        for dx in -1i64..=1 {
            for dy in -1i64..=1 {
                let nx = cx as i64 + dx;
                let ny = cy as i64 + dy;
                if nx < 0 || ny < 0 || nx >= cells as i64 || ny >= cells as i64 {
                    continue;
                }
                for &j in &grid[(nx as usize) * cells + ny as usize] {
                    if j <= i {
                        continue;
                    }
                    let (x2, y2) = pos[j];
                    let d = ((x - x2).powi(2) + (y - y2).powi(2)).sqrt();
                    if d <= radius && d > 0.0 {
                        b.add_edge(NodeId(i), NodeId(j), d * 1000.0);
                    }
                }
            }
        }
    }
    b.build()
}

/// Synthetic AS-level-Internet-like topology: a power-law graph generated by
/// preferential attachment where each new node attaches to `attach = 2`
/// existing nodes, plus extra peering edges between random existing nodes to
/// bring the average degree near the AS graph's (~4–5). Unweighted edges.
///
/// Substitutes the paper's 30,610-node CAIDA AS-level map (see README,
/// "Substitutions").
pub fn internet_as_like(n: usize, seed: u64) -> Graph {
    preferential_attachment(n, 2, 0.4, seed)
}

/// Synthetic router-level-Internet-like topology: preferential attachment
/// with `attach = 2` and a small amount of extra meshing, giving a
/// heavy-tailed degree distribution with a few very high-degree "core"
/// routers. Unweighted edges.
///
/// Substitutes the paper's 192,244-node CAIDA router-level map at a
/// configurable (laptop-scale) size.
pub fn internet_router_like(n: usize, seed: u64) -> Graph {
    preferential_attachment(n, 2, 0.15, seed)
}

/// Barabási–Albert-style preferential attachment with `attach` edges per new
/// node and an extra `extra_edge_fraction * n` random "peering" edges chosen
/// with preferential bias at the end. Always connected by construction.
pub fn preferential_attachment(
    n: usize,
    attach: usize,
    extra_edge_fraction: f64,
    seed: u64,
) -> Graph {
    assert!(n >= 2, "preferential attachment needs at least 2 nodes");
    let attach = attach.max(1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    // Repeated-endpoints list: picking a uniform element is preferential.
    let mut endpoints: Vec<usize> = Vec::with_capacity(2 * n * attach);

    // Seed clique of (attach + 1) nodes.
    let seed_size = (attach + 1).min(n);
    for i in 0..seed_size {
        for j in (i + 1)..seed_size {
            if b.add_unit_edge(NodeId(i), NodeId(j)) {
                endpoints.push(i);
                endpoints.push(j);
            }
        }
    }
    for v in seed_size..n {
        let mut added = 0;
        let mut guard = 0;
        while added < attach && guard < 100 * attach {
            guard += 1;
            let target = if endpoints.is_empty() {
                rng.gen_range(0..v)
            } else {
                endpoints[rng.gen_range(0..endpoints.len())]
            };
            if target != v && b.add_unit_edge(NodeId(v), NodeId(target)) {
                endpoints.push(v);
                endpoints.push(target);
                added += 1;
            }
        }
        if added == 0 {
            // Guarantee connectivity.
            let target = rng.gen_range(0..v);
            b.add_unit_edge(NodeId(v), NodeId(target));
            endpoints.push(v);
            endpoints.push(target);
        }
    }
    // Extra peering edges with preferential bias on both endpoints.
    let extra = (extra_edge_fraction * n as f64) as usize;
    let mut added = 0;
    let mut guard = 0;
    while added < extra && guard < 50 * extra.max(1) {
        guard += 1;
        let u = endpoints[rng.gen_range(0..endpoints.len())];
        let v = endpoints[rng.gen_range(0..endpoints.len())];
        if u != v && b.add_unit_edge(NodeId(u), NodeId(v)) {
            added += 1;
        }
    }
    b.build()
}

/// Ring of `n` nodes with unit edges. The paper mentions the ring as the
/// worst case for explicit-route length (`O~(√n)` bits).
pub fn ring(n: usize) -> Graph {
    assert!(n >= 3, "a ring needs at least 3 nodes");
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        b.add_unit_edge(NodeId(i), NodeId((i + 1) % n));
    }
    b.build()
}

/// Simple path (line) of `n` nodes with unit edges.
pub fn line(n: usize) -> Graph {
    assert!(n >= 2, "a line needs at least 2 nodes");
    let mut b = GraphBuilder::new(n);
    for i in 0..n - 1 {
        b.add_unit_edge(NodeId(i), NodeId(i + 1));
    }
    b.build()
}

/// Star: node 0 is the hub connected to every other node.
pub fn star(n: usize) -> Graph {
    assert!(n >= 2, "a star needs at least 2 nodes");
    let mut b = GraphBuilder::new(n);
    for i in 1..n {
        b.add_unit_edge(NodeId(0), NodeId(i));
    }
    b.build()
}

/// `rows × cols` grid with unit edges.
pub fn grid(rows: usize, cols: usize) -> Graph {
    assert!(rows >= 1 && cols >= 1);
    let n = rows * cols;
    let mut b = GraphBuilder::new(n);
    let id = |r: usize, c: usize| NodeId(r * cols + c);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                b.add_unit_edge(id(r, c), id(r, c + 1));
            }
            if r + 1 < rows {
                b.add_unit_edge(id(r, c), id(r + 1, c));
            }
        }
    }
    b.build()
}

/// Complete graph on `n` nodes with unit edges.
pub fn complete(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            b.add_unit_edge(NodeId(i), NodeId(j));
        }
    }
    b.build()
}

/// The adversarial two-level tree from the paper's footnote 6: a root with
/// `√n` children at distance 1, each child with `√n` children along edges of
/// distance 2. On this graph S4's clusters make the root store `Θ(n)`
/// entries, while Disco's fixed vicinities stay at `O~(√n)`.
///
/// `branch` is the branching factor (`√n`); total nodes = `1 + b + b²`.
/// Node 0 is the root, nodes `1..=b` are the children, the rest are
/// grandchildren.
pub fn s4_adversarial_tree(branch: usize) -> Graph {
    assert!(branch >= 1);
    let n = 1 + branch + branch * branch;
    let mut b = GraphBuilder::new(n);
    for c in 0..branch {
        let child = NodeId(1 + c);
        b.add_edge(NodeId(0), child, 1.0);
        for g in 0..branch {
            let grandchild = NodeId(1 + branch + c * branch + g);
            b.add_edge(child, grandchild, 2.0);
        }
    }
    b.build()
}

/// A balanced binary tree with `depth` levels (root at level 0) and unit
/// edges; used by state/stretch unit tests.
pub fn binary_tree(depth: usize) -> Graph {
    let n = (1usize << (depth + 1)) - 1;
    let mut b = GraphBuilder::new(n);
    for i in 1..n {
        b.add_unit_edge(NodeId(i), NodeId((i - 1) / 2));
    }
    b.build()
}

/// Patch a possibly disconnected graph into a connected one by linking every
/// non-giant component to the giant component with one unit edge.
fn connect_components(g: Graph, seed: u64) -> Graph {
    let comps = properties::connected_components(&g);
    if comps.len() <= 1 {
        return g;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let giant = comps
        .iter()
        .enumerate()
        .max_by_key(|(_, c)| c.len())
        .map(|(i, _)| i)
        .unwrap();
    let mut b = GraphBuilder::new(g.node_count());
    for (_, e) in g.edges() {
        b.add_edge(e.u, e.v, e.weight);
    }
    for (i, comp) in comps.iter().enumerate() {
        if i == giant {
            continue;
        }
        let u = *comp.choose(&mut rng).unwrap();
        let v = *comps[giant].choose(&mut rng).unwrap();
        b.add_unit_edge(u, v);
    }
    b.build()
}

/// Patch a disconnected geometric graph by joining each fragment to the
/// giant component through the geometrically closest pair of nodes.
fn connect_components_geometric(g: Graph, pos: &[(f64, f64)]) -> Graph {
    let comps = properties::connected_components(&g);
    if comps.len() <= 1 {
        return g;
    }
    let giant = comps
        .iter()
        .enumerate()
        .max_by_key(|(_, c)| c.len())
        .map(|(i, _)| i)
        .unwrap();
    let mut b = GraphBuilder::new(g.node_count());
    for (_, e) in g.edges() {
        b.add_edge(e.u, e.v, e.weight);
    }
    for (i, comp) in comps.iter().enumerate() {
        if i == giant {
            continue;
        }
        // Closest pair across the cut (brute force over the small fragment).
        let mut best = (f64::INFINITY, comp[0], comps[giant][0]);
        for &u in comp {
            for &v in comps[giant].iter().step_by(1 + comps[giant].len() / 512) {
                let (x1, y1) = pos[u.0];
                let (x2, y2) = pos[v.0];
                let d = ((x1 - x2).powi(2) + (y1 - y2).powi(2)).sqrt();
                if d < best.0 {
                    best = (d, u, v);
                }
            }
        }
        b.add_edge(best.1, best.2, (best.0 * 1000.0).max(1e-6));
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::properties::{connected_components, is_connected};

    #[test]
    fn gnm_has_requested_size() {
        let g = gnm(100, 400, 1);
        assert_eq!(g.node_count(), 100);
        assert_eq!(g.edge_count(), 400);
    }

    #[test]
    fn gnm_caps_at_complete_graph() {
        let g = gnm(5, 1000, 1);
        assert_eq!(g.edge_count(), 10);
    }

    #[test]
    fn gnm_connected_is_connected() {
        for seed in 0..5 {
            let g = gnm_connected(200, 300, seed);
            assert!(is_connected(&g), "seed {seed}");
        }
    }

    #[test]
    fn gnm_average_degree_matches() {
        let g = gnm_average_degree(1000, 8.0, 3);
        assert!(is_connected(&g));
        let avg = g.average_degree();
        assert!((avg - 8.0).abs() < 0.5, "avg degree {avg}");
    }

    #[test]
    fn gnm_deterministic() {
        let a = gnm_connected(128, 512, 99);
        let b = gnm_connected(128, 512, 99);
        assert_eq!(a.edge_count(), b.edge_count());
        for ((_, e1), (_, e2)) in a.edges().zip(b.edges()) {
            assert_eq!((e1.u, e1.v), (e2.u, e2.v));
        }
    }

    #[test]
    fn geometric_connected_and_weighted() {
        let g = geometric_connected(500, 8.0, 17);
        assert!(is_connected(&g));
        assert_eq!(g.node_count(), 500);
        // Every weight is a positive latency.
        for (_, e) in g.edges() {
            assert!(e.weight > 0.0);
        }
        let avg = g.average_degree();
        assert!(avg > 4.0 && avg < 16.0, "avg degree {avg}");
    }

    #[test]
    fn geometric_deterministic() {
        let a = geometric_connected(300, 8.0, 5);
        let b = geometric_connected(300, 8.0, 5);
        assert_eq!(a.edge_count(), b.edge_count());
    }

    #[test]
    fn internet_like_graphs_are_heavy_tailed() {
        let g = internet_router_like(2000, 21);
        assert!(is_connected(&g));
        let max_deg = g.max_degree();
        let avg = g.average_degree();
        // Heavy tail: max degree far above the average.
        assert!(
            max_deg as f64 > 8.0 * avg,
            "max degree {max_deg} vs avg {avg}"
        );
    }

    #[test]
    fn as_like_graph_connected_and_denser() {
        let g_as = internet_as_like(2000, 4);
        let g_router = internet_router_like(2000, 4);
        assert!(is_connected(&g_as));
        assert!(g_as.average_degree() >= g_router.average_degree());
    }

    #[test]
    fn ring_line_star_shapes() {
        let r = ring(10);
        assert_eq!(r.edge_count(), 10);
        assert!(r.nodes().all(|v| r.degree(v) == 2));

        let l = line(10);
        assert_eq!(l.edge_count(), 9);
        assert_eq!(l.degree(NodeId(0)), 1);
        assert_eq!(l.degree(NodeId(5)), 2);

        let s = star(10);
        assert_eq!(s.degree(NodeId(0)), 9);
        assert!((1..10).all(|i| s.degree(NodeId(i)) == 1));
    }

    #[test]
    fn grid_shape() {
        let g = grid(4, 5);
        assert_eq!(g.node_count(), 20);
        assert_eq!(g.edge_count(), 4 * 4 + 3 * 5);
        assert!(is_connected(&g));
    }

    #[test]
    fn complete_shape() {
        let g = complete(8);
        assert_eq!(g.edge_count(), 28);
        assert!(g.nodes().all(|v| g.degree(v) == 7));
    }

    #[test]
    fn s4_tree_shape() {
        let b = 10;
        let g = s4_adversarial_tree(b);
        assert_eq!(g.node_count(), 1 + b + b * b);
        assert!(is_connected(&g));
        assert_eq!(g.degree(NodeId(0)), b);
        // Grandchild edges have weight 2.
        assert_eq!(g.edge_weight(NodeId(1), NodeId(1 + b)), Some(2.0));
    }

    #[test]
    fn binary_tree_shape() {
        let g = binary_tree(4);
        assert_eq!(g.node_count(), 31);
        assert_eq!(g.edge_count(), 30);
        assert!(is_connected(&g));
        assert_eq!(connected_components(&g).len(), 1);
    }

    #[test]
    fn preferential_attachment_connected() {
        for seed in 0..3 {
            let g = preferential_attachment(500, 3, 0.2, seed);
            assert!(is_connected(&g), "seed {seed}");
            assert!(g.average_degree() >= 5.0);
        }
    }
}
