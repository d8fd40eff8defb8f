//! The one search routine against an independent reference: Floyd–Warshall
//! over the adjacency matrix of small seeded graphs. Weights are small
//! integers, so equal-length paths are common and every tie rule is
//! exercised; integer sums are exact in `f64`, so distances compare with
//! `==`.

use disco_graph::{search, Graph, GraphBuilder, NodeId, Stop};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const GRAPHS: u64 = 60;

/// A graph of 2–14 nodes with up to ~2n edges of weight 1–3, connected or
/// not.
fn random_graph(seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(2..15usize);
    let mut b = GraphBuilder::new(n);
    for _ in 0..rng.gen_range(0..2 * n + 1) {
        let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
        b.add_edge(NodeId(u), NodeId(v), rng.gen_range(1..4u32) as f64);
    }
    b.build()
}

/// All-pairs distances, `INFINITY` where unreachable.
fn floyd_warshall(g: &Graph) -> Vec<Vec<f64>> {
    let n = g.node_count();
    let mut d = vec![vec![f64::INFINITY; n]; n];
    for v in g.nodes() {
        d[v.0][v.0] = 0.0;
        for nb in g.neighbors(v) {
            d[v.0][nb.node.0] = nb.weight;
        }
    }
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                if d[i][k] + d[k][j] < d[i][j] {
                    d[i][j] = d[i][k] + d[k][j];
                }
            }
        }
    }
    d
}

/// What a search from `sources` must report, derived from the distance
/// matrix alone: per node, the distance to the nearest source, the lowest
/// such source, and the lowest-id tight predecessor reached from that same
/// source; plus the reachable nodes in (distance, id) order.
struct Reference {
    dist: Vec<f64>,
    source: Vec<Option<NodeId>>,
    parent: Vec<Option<NodeId>>,
    order: Vec<NodeId>,
}

fn reference(g: &Graph, d: &[Vec<f64>], sources: &[NodeId]) -> Reference {
    let n = g.node_count();
    let dist: Vec<f64> = (0..n)
        .map(|v| {
            sources
                .iter()
                .map(|s| d[s.0][v])
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    let source: Vec<Option<NodeId>> = (0..n)
        .map(|v| {
            sources
                .iter()
                .filter(|s| dist[v].is_finite() && d[s.0][v] == dist[v])
                .min()
                .copied()
        })
        .collect();
    let parent = (0..n)
        .map(|v| {
            if dist[v] == 0.0 {
                return None; // a source
            }
            g.neighbors(NodeId(v))
                .iter()
                .filter(|nb| {
                    dist[nb.node.0] + nb.weight == dist[v] && source[nb.node.0] == source[v]
                })
                .map(|nb| nb.node)
                .min()
        })
        .collect();
    let mut order: Vec<NodeId> = g.nodes().filter(|v| dist[v.0].is_finite()).collect();
    order.sort_by(|a, b| dist[a.0].total_cmp(&dist[b.0]).then(a.cmp(b)));
    Reference {
        dist,
        source,
        parent,
        order,
    }
}

fn check(g: &Graph, sources: &[NodeId], r: &Reference, stop: Stop, expect: &[NodeId]) {
    let tree = search(g, sources, stop);
    assert_eq!(tree.settled_order(), expect, "{stop:?} from {sources:?}");
    for v in g.nodes() {
        let settled = expect.contains(&v);
        let dist = Some(r.dist[v.0]);
        assert_eq!(
            tree.distance(v),
            dist.filter(|_| settled),
            "distance of {v}"
        );
        let source = r.source[v.0].filter(|_| settled);
        assert_eq!(tree.source_of(v), source, "source of {v}");
        let parent = r.parent[v.0].filter(|_| settled);
        assert_eq!(tree.parent(v), parent, "parent of {v}");
    }
}

fn check_all_stops(g: &Graph, d: &[Vec<f64>], sources: &[NodeId]) {
    let r = reference(g, d, sources);
    check(g, sources, &r, Stop::All, &r.order);
    for k in 1..=r.order.len() + 1 {
        let prefix = &r.order[..k.min(r.order.len())];
        check(g, sources, &r, Stop::Settled(k), prefix);
    }
    for bound in [0.0, 0.5, 1.0, 2.0, 2.5, 3.0, 5.0, 8.0] {
        let below: Vec<NodeId> = r
            .order
            .iter()
            .copied()
            .filter(|v| r.dist[v.0] < bound)
            .collect();
        check(g, sources, &r, Stop::Below(bound), &below);
    }
}

#[test]
fn single_source_search_matches_floyd_warshall() {
    for seed in 0..GRAPHS {
        let g = random_graph(seed);
        let d = floyd_warshall(&g);
        for s in g.nodes() {
            check_all_stops(&g, &d, &[s]);
        }
    }
}

#[test]
fn multi_source_search_matches_floyd_warshall() {
    for seed in 0..GRAPHS {
        let g = random_graph(seed);
        let d = floyd_warshall(&g);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        for _ in 0..4 {
            // Sources in arbitrary order: the result must not depend on it.
            let mut sources: Vec<NodeId> =
                g.nodes().filter(|_| rng.gen_range(0..3u32) == 0).collect();
            if sources.is_empty() {
                sources.push(NodeId(g.node_count() - 1));
            }
            sources.reverse();
            check_all_stops(&g, &d, &sources);
        }
    }
}
