//! # disco-baselines
//!
//! The routing protocols the Disco paper compares against in §5:
//!
//! * [`s4`] — S4 (Mao et al., NSDI 2007): a distributed adaptation of the
//!   Thorup–Zwick *cluster* scheme with uniform-random landmarks, routed
//!   over the same landmark trees as Disco (each builds one
//!   `disco_core::landmark::LandmarkForest`). Its clusters have no size
//!   cap, which is exactly what breaks the per-node state bound on
//!   topologies with central nodes (paper §4.2 and Fig. 2);
//!   its first packet detours through a directory landmark, which is what
//!   breaks first-packet stretch.
//! * [`vrr`] — Virtual Ring Routing (Caesar et al., SIGCOMM 2006): routing
//!   on flat identifiers by maintaining physical paths between virtual-ring
//!   neighbors and forwarding greedily in identifier space. Provides no
//!   bound on state or stretch (paper §3, Figs. 4–5).
//! * [`shortest_path`] — classic shortest-path / path-vector routing:
//!   optimal stretch, `Θ(n)` state per node, used as the yardstick for
//!   state, congestion and messaging.
//!
//! All three expose the same shape of API as `disco-core`: a *state*
//! constructor (the static post-convergence simulator) plus a *router* that
//! produces concrete routes whose length, node sequence and per-node state
//! the `disco-metrics` crate measures. Every router keeps its per-source
//! shortest-path trees in a `disco_graph::TreeCache`.

pub mod s4;
pub mod shortest_path;
pub mod vrr;

pub use s4::{S4Router, S4State};
pub use shortest_path::{ShortestPathRouter, ShortestPathState};
pub use vrr::{VrrRouter, VrrState};
