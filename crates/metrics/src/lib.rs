//! # disco-metrics
//!
//! Measurement harness for the Disco reproduction: the three quantities the
//! paper's evaluation (§5) reports — per-node **state**, per-pair
//! **stretch**, and per-edge **congestion** — plus the topology catalogue,
//! pair sampling, CDF utilities, and the experiment runners behind every
//! figure and table.
//!
//! The `disco-bench` crate's `paper` binary is a thin wrapper around
//! [`experiment`]: each figure calls a runner with the paper-scale
//! parameters and prints the series/rows; the same runners at smaller sizes are exercised
//! by this crate's tests and by the workspace integration tests, so the
//! figure pipeline itself is under test.

pub mod cdf;
pub mod congestion;
pub mod control;
pub mod experiment;
pub mod report;
pub mod sampling;
pub mod state;
pub mod stretch;
pub mod topology;

pub use cdf::Cdf;
pub use sampling::{sample_nodes, sample_pairs};
pub use topology::Topology;
