//! Fig. 4 — State, stretch and congestion on a 1,024-node G(n,m) random
//! graph, including VRR and path-vector routing.

use disco_bench::{figures, CommonArgs};
use disco_metrics::Topology;

fn main() {
    let params = CommonArgs::parse(1024).params();
    figures::state_stretch_congestion(4, Topology::Gnm, "stretch", &params);
}
