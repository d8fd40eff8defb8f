//! # disco-graph
//!
//! Graph substrate for the Disco compact-routing reproduction
//! (*Scalable Routing on Flat Names*, CoNEXT 2010).
//!
//! The paper evaluates routing protocols over undirected, connected,
//! possibly edge-weighted networks: Internet AS-level and router-level maps,
//! `G(n, m)` random graphs, and geometric random graphs with Euclidean link
//! latencies. This crate provides:
//!
//! * [`Graph`] — a compact adjacency-list representation of an undirected
//!   weighted graph,
//! * [`GraphBuilder`] — incremental construction with duplicate-edge
//!   handling,
//! * [`generators`] — all topology families used in the paper's evaluation
//!   plus pathological topologies used to exercise worst cases (ring, star,
//!   the two-level tree from the paper's footnote 6 that breaks S4's state
//!   bound),
//! * [`shortest_path`] — one Dijkstra routine from one or more sources,
//!   run to completion, to the `k` nearest nodes (vicinities) or below a
//!   distance bound, plus path reconstruction and the per-source
//!   [`TreeCache`] the static routers share,
//! * [`properties`] — connectivity checks.
//!
//! All generators are deterministic given a seed, so every experiment in the
//! paper reproduction is replayable bit-for-bit.
//!
//! ```
//! use disco_graph::{generators, shortest_path};
//!
//! // A 256-node G(n, m) random graph with average degree 8.
//! let g = generators::gnm_connected(256, 1024, 42);
//! assert!(disco_graph::properties::is_connected(&g));
//!
//! // Shortest-path tree from node 0.
//! let spt = shortest_path::dijkstra(&g, disco_graph::NodeId(0));
//! assert!(spt.distance(disco_graph::NodeId(17)).is_some());
//! ```

pub mod arena;
pub mod builder;
pub mod fxhash;
pub mod generators;
pub mod graph;
pub mod path;
pub mod properties;
pub mod shortest_path;

pub use arena::{InternedPath, PathArena, PathArenaStats};
pub use builder::GraphBuilder;
pub use fxhash::{FxHashMap, FxHashSet};
pub use graph::{EdgeId, Graph, Neighbor, NodeId, Weight};
pub use path::Path;
pub use shortest_path::{dijkstra, search, ShortestPathTree, Stop, TreeCache};
