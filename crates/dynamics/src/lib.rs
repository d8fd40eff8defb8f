//! # disco-dynamics
//!
//! Churn, failure and mobility workloads for the discrete-event simulator.
//!
//! The Disco paper's headline claim is a *dynamic*, distributed routing
//! protocol, yet a static simulation can only exercise the converged state.
//! This crate turns `disco-sim` into a dynamic-network simulator:
//!
//! * [`Schedule`] — a deterministic, seeded stream of
//!   [`disco_sim::TopologyEvent`]s applied to a
//!   [`disco_sim::ShardedEngine`] — the one engine this crate drives, at
//!   any shard count;
//! * [`models`] — compilers from churn models to schedules: Poisson
//!   join/leave churn ([`models::PoissonChurn`]), rolling link failures
//!   ([`models::LinkFailures`]), flash-crowd arrival
//!   ([`models::FlashCrowd`]) and waypoint mobility that re-attaches a node
//!   to new anchors ([`models::Waypoints`], the schedule-driven form of
//!   `examples/flat_name_mobility.rs`);
//! * [`probe`] — measurement of route availability and stretch-under-churn
//!   against the *current* topology, extending the paper's Fig. 8
//!   messaging methodology to steady-state churn; protocol state is read
//!   on the shard that owns it ([`disco_sim::ShardedEngine::gather`]).
//!
//! Everything is a pure function of `(graph, model parameters, seed)`, so
//! churn experiments replay bit-for-bit, exactly like the static ones.
//!
//! ```
//! use disco_dynamics::{models::PoissonChurn, probe};
//! use disco_graph::{generators, NodeId};
//! use disco_core::path_vector::{PathVectorNode, TableLimit};
//! use disco_sim::ShardedEngine;
//!
//! let g = generators::gnm_connected(64, 256, 7);
//! let schedule = PoissonChurn::default().compile(&g, 7);
//! let mut engine = ShardedEngine::new(&g, 1, 7, |v| {
//!     PathVectorNode::new(v, v == NodeId(0), TableLimit::Unlimited)
//! });
//! assert!(engine.run().converged);           // initial convergence
//! schedule.apply_to(&mut engine);            // inject the churn
//! assert!(engine.run_until(|_| false));      // repair to quiescence
//! let pairs = probe::sample_live_pairs(&engine, 64, 7);
//! let report = probe::probe(&mut engine, &pairs, probe::path_vector_route);
//! assert!(report.availability() > 0.9);
//! ```

pub mod forward;
pub mod models;
pub mod probe;
pub mod schedule;

pub use probe::ProbeReport;
pub use schedule::Schedule;
