//! Figure bodies that more than one `fig*` binary prints.

use disco_metrics::experiment::{
    congestion_comparison, state_comparison, stretch_comparison, ExperimentParams,
};
use disco_metrics::{report, Cdf, Topology};

/// Figs. 4 and 5: state, stretch and congestion of Disco against ND-Disco,
/// S4, VRR and path-vector routing on one topology. `stretch` titles the
/// middle panel (Fig. 5's is latency-weighted).
pub fn state_stretch_congestion(
    fig: u8,
    topology: Topology,
    stretch: &str,
    params: &ExperimentParams,
) {
    let panel = |title: &str, series: &[(&str, &Cdf)]| {
        println!("{}", report::render_summary(title, series));
    };

    let st = state_comparison(topology, params, true);
    let d = st.disco.cdf();
    let nd = st.nddisco.cdf();
    let s4 = st.s4.cdf();
    let vrr = st.vrr.as_ref().unwrap().cdf();
    panel(
        &format!("Fig. {fig} (left) — state, {topology}, n={}", st.nodes),
        &[("Disco", &d), ("ND-Disco", &nd), ("S4", &s4), ("VRR", &vrr)],
    );

    let sr = stretch_comparison(topology, params, true);
    let df = sr.disco.first_cdf();
    let dl = sr.disco.later_cdf();
    let sf = sr.s4.first_cdf();
    let sl = sr.s4.later_cdf();
    let vs = sr.vrr.as_ref().unwrap().first_cdf();
    panel(
        &format!("Fig. {fig} (middle) — {stretch}"),
        &[
            ("Disco First", &df),
            ("Disco Later", &dl),
            ("S4 First", &sf),
            ("S4 Later", &sl),
            ("VRR", &vs),
        ],
    );

    let cg = congestion_comparison(topology, params, true);
    let dc = cg.disco.cdf();
    let pc = cg.path_vector.cdf();
    let sc = cg.s4.cdf();
    let vc = cg.vrr.as_ref().unwrap().cdf();
    panel(
        &format!("Fig. {fig} (right) — congestion (paths per edge)"),
        &[
            ("Disco", &dc),
            ("Path-vector", &pc),
            ("S4", &sc),
            ("VRR", &vc),
        ],
    );
}
