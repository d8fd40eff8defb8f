//! Fig. 2 — State CDF (entries per node) for Disco, NDDisco and S4 on the
//! geometric, AS-level and router-level topologies.
//!
//! Paper: 16,384-node geometric graph plus the CAIDA AS-level and
//! router-level maps. Default here: 8,192 nodes per topology (see
//! README, "Substitutions"); pass `--nodes 16384` for the paper scale.

use disco_bench::CommonArgs;
use disco_metrics::experiment::{state_comparison, ExperimentParams};
use disco_metrics::{report, Topology};

fn main() {
    let args = CommonArgs::parse(8192);
    for topology in [
        Topology::Geometric,
        Topology::AsLevel,
        Topology::RouterLevel,
    ] {
        let params = ExperimentParams::for_nodes(args.nodes, args.seed);
        let cmp = state_comparison(topology, &params, false);
        let disco = cmp.disco.cdf();
        let nddisco = cmp.nddisco.cdf();
        let s4 = cmp.s4.cdf();
        let series = [("Disco", &disco), ("ND-Disco", &nddisco), ("S4", &s4)];
        println!(
            "{}",
            report::render_summary(
                &format!("Fig. 2 — state at a node, {topology}, n={}", cmp.nodes),
                &series
            )
        );
        println!(
            "{}",
            report::render_cdf_series("CDF over nodes", &series, args.points)
        );
    }
}
