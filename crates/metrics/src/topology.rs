//! The topology catalogue of the paper's evaluation (§5.1).
//!
//! | Paper topology | Here |
//! |---|---|
//! | 30,610-node AS-level Internet map | [`Topology::AsLevel`] — synthetic power-law graph (see README, "Substitutions") |
//! | 192,244-node router-level Internet map | [`Topology::RouterLevel`] — synthetic power-law graph |
//! | `G(n, m)` random graphs, average degree 8 | [`Topology::Gnm`] |
//! | geometric random graphs, average degree 8, link latencies | [`Topology::Geometric`] |

use disco_graph::{generators, Graph};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// A topology family from the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Topology {
    /// `G(n, m)` random graph with average degree 8 (unweighted).
    Gnm,
    /// Geometric random graph with average degree 8 and Euclidean link
    /// latencies.
    Geometric,
    /// Synthetic stand-in for the CAIDA AS-level Internet map (unweighted,
    /// power-law, denser core).
    AsLevel,
    /// Synthetic stand-in for the CAIDA router-level Internet map
    /// (unweighted, power-law).
    RouterLevel,
}

impl Topology {
    /// All families, in the order the paper lists them.
    pub const ALL: [Topology; 4] = [
        Topology::AsLevel,
        Topology::RouterLevel,
        Topology::Gnm,
        Topology::Geometric,
    ];

    /// Build an `n`-node instance with the given seed.
    pub fn build(self, n: usize, seed: u64) -> Graph {
        match self {
            Topology::Gnm => generators::gnm_average_degree(n, 8.0, seed),
            Topology::Geometric => generators::geometric_connected(n, 8.0, seed),
            Topology::AsLevel => generators::internet_as_like(n, seed),
            Topology::RouterLevel => generators::internet_router_like(n, seed),
        }
    }

    /// Whether the topology has meaningful (non-unit) link latencies.
    pub fn weighted(self) -> bool {
        matches!(self, Topology::Geometric)
    }

    /// The label used in figure/table output.
    pub fn label(self) -> &'static str {
        match self {
            Topology::Gnm => "GNM",
            Topology::Geometric => "Geometric",
            Topology::AsLevel => "AS-Level",
            Topology::RouterLevel => "Router-Level",
        }
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for Topology {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "gnm" | "random" => Ok(Topology::Gnm),
            "geometric" | "geo" => Ok(Topology::Geometric),
            "as" | "as-level" | "aslevel" => Ok(Topology::AsLevel),
            "router" | "router-level" | "routerlevel" => Ok(Topology::RouterLevel),
            _ => Err(format!("unknown topology: {s}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disco_graph::properties::is_connected;

    #[test]
    fn all_topologies_build_connected_graphs() {
        for topo in Topology::ALL {
            let g = topo.build(512, 3);
            assert_eq!(g.node_count(), 512, "{topo}");
            assert!(is_connected(&g), "{topo}");
        }
    }

    #[test]
    fn weighted_flag_matches_edge_weights() {
        let geo = Topology::Geometric.build(256, 1);
        assert!(Topology::Geometric.weighted());
        assert!(geo.edges().any(|(_, e)| (e.weight - 1.0).abs() > 1e-9));
        let gnm = Topology::Gnm.build(256, 1);
        assert!(!Topology::Gnm.weighted());
        assert!(gnm.edges().all(|(_, e)| (e.weight - 1.0).abs() < 1e-9));
    }

    #[test]
    fn parse_labels() {
        for topo in Topology::ALL {
            assert_eq!(topo.label().parse::<Topology>().unwrap(), topo);
        }
        assert!("nope".parse::<Topology>().is_err());
    }

    #[test]
    fn internet_like_topologies_have_heavier_tails_than_gnm() {
        let router = Topology::RouterLevel.build(2048, 5);
        let gnm = Topology::Gnm.build(2048, 5);
        assert!(router.max_degree() > 3 * gnm.max_degree());
    }
}
