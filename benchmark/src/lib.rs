//! One benchmark for the whole chain a topology event travels — boot,
//! repair, forward and shard2 workloads, end-to-end metrics and a traced
//! per-layer run. See `README.md`; `BENCHMARK.json` at the repository
//! root is the machine-readable contract.

pub mod cli;
pub mod gen;
pub mod json;
pub mod metrics;
pub mod net;
pub mod plane;
pub mod probes;
pub mod spans;
pub mod stats;
pub mod workloads;
