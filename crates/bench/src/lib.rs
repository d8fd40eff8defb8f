//! # disco-bench
//!
//! Benchmark and figure-regeneration harness. The `paper` binary
//! regenerates every table and figure of the paper's evaluation (§5), one
//! per run (`paper <figure>`). The cost of the core operations (topology
//! generation, state construction, routing, the forwarding tables) is
//! timed by the repo benchmark's per-layer lines (`benchmark/`).
//!
//! The four dynamic drivers — [`churn`], [`memory`], [`scale`] and
//! [`forward`] — boot the protocol through [`scenario`], which holds the
//! one network boot and the one churn window they share; [`cli`] holds the
//! one flag reader and the report files every binary shares. README's
//! "Reproducing the paper" lists the figures.

pub mod churn;
pub mod cli;
pub mod forward;
pub mod memory;
pub mod scale;
pub mod scenario;

pub use cli::CommonArgs;
