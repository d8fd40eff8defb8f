//! Fig. 5 — State, stretch and congestion on a 1,024-node geometric random
//! graph with link latencies, including VRR and path-vector routing.

use disco_bench::{figures, CommonArgs};
use disco_metrics::Topology;

fn main() {
    let params = CommonArgs::parse(1024).params();
    let stretch = "stretch (latency-weighted)";
    figures::state_stretch_congestion(5, Topology::Geometric, stretch, &params);
}
