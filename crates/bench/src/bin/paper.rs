//! The paper's evaluation (§4–§5): one figure or table per run, printed as
//! deterministic text.
//!
//! ```text
//! paper <figure> [--nodes N --seed S --sources K --dests K --points K]
//! ```
//!
//! `<figure>` names one row of [`FIGURES`]; `paper --help` lists them with
//! their default n, and `paper <figure> --help` the flags (see
//! `disco_bench::cli`). The static-simulator figures build one
//! [`Instance`] per topology and read every panel from it.
//!
//! Paper scale: Fig. 2 ran on a 16,384-node geometric graph plus the CAIDA
//! AS- and router-level maps; Figs. 2, 3, 7 and 10 default here to 8,192
//! synthetic nodes per topology (README, "Substitutions"). Pass
//! `--nodes 16384` for the paper's size.
//!
//! Run with: `cargo run --release -p disco-bench --bin paper -- fig04_gnm_1024`

use disco_bench::cli::Flags;
use disco_bench::CommonArgs;
use disco_metrics::experiment::{
    address_size_experiment, congestion_comparison, estimation_error_experiment, messaging_point,
    overlay_hops_experiment, scaling_point, shortcut_sweep, state_bytes_table, state_comparison,
    static_accuracy_experiment, stretch_comparison, Instance,
};
use disco_metrics::report::{fmt3, render_cdf_series, render_summary, render_table};
use disco_metrics::{Cdf, Topology};

/// Prints one figure or table.
type Body = fn(&CommonArgs);

/// `(name, default n, body)` of every figure and table.
const FIGURES: &[(&str, usize, Body)] = &[
    ("fig02_state_cdf", 8192, fig02),
    ("fig03_stretch_cdf", 8192, fig03),
    ("fig04_gnm_1024", 1024, fig04),
    ("fig05_geometric_1024", 1024, fig05),
    ("fig06_shortcutting", 4096, fig06),
    ("fig07_state_bytes", 8192, fig07),
    ("fig08_messaging", 1024, fig08),
    ("fig09_scaling", 16384, fig09),
    ("fig10_congestion_as", 8192, fig10),
    ("exp_address_size", 16384, exp_address_size),
    ("exp_estimation_error", 1024, exp_estimation_error),
    ("exp_overlay_hops", 1024, exp_overlay_hops),
    ("exp_static_accuracy", 1024, exp_static_accuracy),
];

fn main() {
    let mut flags = Flags::from_env();
    let figure = flags.command();
    let Some(&(_, nodes, body)) = FIGURES.iter().find(|f| Some(f.0) == figure.as_deref()) else {
        let mut usage = String::from(
            "usage: paper <figure> [--nodes N --seed S --sources K --dests K --points K]\n\
             figures (default n):",
        );
        for (name, n, _) in FIGURES {
            usage += &format!("\n  {name:<22} n={n}");
        }
        if figure.is_none() && flags.switch("--help") {
            eprintln!("{usage}");
            return;
        }
        eprintln!("unknown figure {:?}\n{usage}", figure.unwrap_or_default());
        std::process::exit(2);
    };
    body(&CommonArgs::from_flags(flags, nodes));
}

/// Print `series` summarized under `title`, then as CDFs under `cdf`.
fn summary_and_cdf(title: &str, cdf: &str, series: &[(&str, &Cdf)], args: &CommonArgs) {
    println!("{}", render_summary(title, series));
    println!("{}", render_cdf_series(cdf, series, args.points));
}

/// Print a table whose column `headers` are `|`-separated.
fn table(title: &str, headers: &str, rows: &[Vec<String>]) {
    let headers: Vec<&str> = headers.split('|').collect();
    println!("{}", render_table(title, &headers, rows));
}

/// A table row: `label`, then `numbers` to three decimals.
fn row<const K: usize>(label: impl ToString, numbers: [f64; K]) -> Vec<String> {
    let numbers = numbers.map(fmt3);
    std::iter::once(label.to_string()).chain(numbers).collect()
}

/// The three topologies of Figs. 2 and 3.
const INTERNET_LIKE: [Topology; 3] = [
    Topology::Geometric,
    Topology::AsLevel,
    Topology::RouterLevel,
];

/// Fig. 2 — state CDF (entries per node) for Disco, ND-Disco and S4.
fn fig02(args: &CommonArgs) {
    for topology in INTERNET_LIKE {
        let cmp = state_comparison(&Instance::build(topology, &args.params()));
        let (disco, nddisco, s4) = (cmp.disco.cdf(), cmp.nddisco.cdf(), cmp.s4.cdf());
        let series = [("Disco", &disco), ("ND-Disco", &nddisco), ("S4", &s4)];
        let title = format!("Fig. 2 — state at a node, {topology}, n={}", cmp.nodes);
        summary_and_cdf(&title, "CDF over nodes", &series, args);
    }
}

/// Fig. 3 — stretch CDF (first and later packets) for Disco and S4.
fn fig03(args: &CommonArgs) {
    for topology in INTERNET_LIKE {
        let cmp = stretch_comparison(&Instance::build(topology, &args.params()));
        let (df, dl) = (cmp.disco.first_cdf(), cmp.disco.later_cdf());
        let (sf, sl) = (cmp.s4.first_cdf(), cmp.s4.later_cdf());
        let series = [
            ("Disco-First", &df),
            ("Disco-Later", &dl),
            ("S4-First", &sf),
            ("S4-Later", &sl),
        ];
        let title = format!("Fig. 3 — path stretch, {topology}, n={}", cmp.nodes);
        summary_and_cdf(&title, "CDF over src-dest pairs", &series, args);
    }
}

/// Fig. 4 — state, stretch and congestion on a G(n,m) random graph,
/// including VRR and path-vector routing.
fn fig04(args: &CommonArgs) {
    state_stretch_congestion(4, Topology::Gnm, "stretch", args);
}

/// Fig. 5 — Fig. 4 on a geometric graph with link latencies.
fn fig05(args: &CommonArgs) {
    let stretch = "stretch (latency-weighted)";
    state_stretch_congestion(5, Topology::Geometric, stretch, args);
}

/// Figs. 4 and 5: three panels from one instance with VRR. `stretch`
/// titles the middle panel.
fn state_stretch_congestion(fig: u8, topology: Topology, stretch: &str, args: &CommonArgs) {
    let panel = |title: &str, series: &[(&str, &Cdf)]| {
        println!("{}", render_summary(title, series));
    };
    let inst = Instance::build(topology, &args.params()).with_vrr();

    let st = state_comparison(&inst);
    let (d, nd, s4) = (st.disco.cdf(), st.nddisco.cdf(), st.s4.cdf());
    let vrr = st.vrr.as_ref().unwrap().cdf();
    panel(
        &format!("Fig. {fig} (left) — state, {topology}, n={}", st.nodes),
        &[("Disco", &d), ("ND-Disco", &nd), ("S4", &s4), ("VRR", &vrr)],
    );

    let sr = stretch_comparison(&inst);
    let (df, dl) = (sr.disco.first_cdf(), sr.disco.later_cdf());
    let (sf, sl) = (sr.s4.first_cdf(), sr.s4.later_cdf());
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

    let cg = congestion_comparison(&inst);
    let (dc, pc, sc) = (cg.disco.cdf(), cg.path_vector.cdf(), cg.s4.cdf());
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

/// Fig. 6 — mean first-packet stretch per shortcutting heuristic.
fn fig06(args: &CommonArgs) {
    use Topology::{AsLevel, Geometric, Gnm, RouterLevel};
    let sweeps = [AsLevel, RouterLevel, Geometric, Gnm]
        .map(|t| shortcut_sweep(&Instance::build(t, &args.params())));
    let rows: Vec<Vec<String>> = (sweeps[0].means.iter().enumerate())
        .map(|(i, (mode, _))| row(mode.paper_label(), sweeps.each_ref().map(|s| s.means[i].1)))
        .collect();
    let headers = sweeps.each_ref().map(|s| s.topology.label()).join("|");
    let title = format!(
        "Fig. 6 — mean stretch per shortcutting heuristic (n={})",
        args.nodes
    );
    table(&title, &format!("Heuristic|{headers}"), &rows);
}

/// Fig. 7 — state in entries and kilobytes (IPv4- and IPv6-sized
/// identifiers) on the router-level topology.
fn fig07(args: &CommonArgs) {
    let inst = Instance::build(Topology::RouterLevel, &args.params());
    let rows: Vec<Vec<String>> = (state_bytes_table(&inst).iter())
        .map(|r| {
            let kb = [r.mean_kb_v4, r.max_kb_v4, r.mean_kb_v6, r.max_kb_v6];
            row(
                r.protocol,
                [r.mean_entries, r.max_entries, kb[0], kb[1], kb[2], kb[3]],
            )
        })
        .collect();
    let title = format!(
        "Fig. 7 — state at a node, router-level topology, n={}",
        args.nodes
    );
    let headers = "Protocol|Entries mean|Entries max|KB(IPv4) mean|KB(IPv4) max|\
                   KB(IPv6) mean|KB(IPv6) max";
    table(&title, headers, &rows);
}

/// Fig. 8 — mean messages per node until convergence, from the
/// discrete-event simulator on G(n,m) graphs up to `--nodes` (the slowest
/// figure).
fn fig08(args: &CommonArgs) {
    let sizes = [128usize, 256, 512, 768, 1024];
    let rows: Vec<Vec<String>> = (sizes.into_iter().filter(|&n| n <= args.nodes))
        .map(|n| {
            let p = messaging_point(n, args.seed);
            let (pv, s4, nd) = (p.path_vector, p.s4, p.nddisco);
            row(n, [pv, s4, nd, p.disco_1_finger, p.disco_3_finger])
        })
        .collect();
    let title = "Fig. 8 — mean messages per node until convergence (G(n,m))";
    let headers = "nodes|Path-vector|S4|ND-Disco|Disco-1-Finger|Disco-3-Finger";
    table(title, headers, &rows);
}

/// Fig. 9 — mean stretch (left) and mean state (right) on geometric graphs
/// of increasing size, up to `--nodes`.
fn fig09(args: &CommonArgs) {
    let sizes = [2048usize, 4096, 8192, 12288, 16384];
    let (mut stretch, mut state) = (Vec::new(), Vec::new());
    for n in sizes.into_iter().filter(|&n| n <= args.nodes) {
        let p = scaling_point(&args.params_at(n));
        stretch.push(row(
            n,
            [p.disco_first, p.disco_later, p.s4_first, p.s4_later],
        ));
        state.push(row(n, [p.disco_state, p.nddisco_state, p.s4_state]));
    }
    let title = "Fig. 9 (left) — mean path stretch vs n (geometric graphs)";
    table(
        title,
        "nodes|Disco First|Disco Later|S4 First|S4 Later",
        &stretch,
    );
    let title = "Fig. 9 (right) — mean state (entries) vs n";
    table(title, "nodes|Disco|ND-Disco|S4", &state);
}

/// Fig. 10 — congestion CDF on the AS-level topology, each node routing
/// to one random destination.
fn fig10(args: &CommonArgs) {
    let cg = congestion_comparison(&Instance::build(Topology::AsLevel, &args.params()));
    let (dc, pc, sc) = (cg.disco.cdf(), cg.path_vector.cdf(), cg.s4.cdf());
    let series = [("Disco", &dc), ("Path Vector", &pc), ("S4", &sc)];
    let title = format!(
        "Fig. 10 — congestion on the AS-level topology, n={}",
        cg.nodes
    );
    summary_and_cdf(&title, "CDF over edges", &series, args);
    let heavy = cg.path_vector.max() * 4;
    println!(
        "# fraction of edges loaded more than 4x the shortest-path maximum: Disco {:.5}, S4 {:.5}",
        cg.disco.fraction_above(heavy),
        cg.s4.fraction_above(heavy)
    );
}

/// §4.2 — size of the compact explicit-route encoding on the router-level
/// topology (paper: mean 2.93 B, 95th percentile 5 B, max 10.6 B).
fn exp_address_size(args: &CommonArgs) {
    let inst = Instance::build(Topology::RouterLevel, &args.params());
    let stats = address_size_experiment(&inst);
    println!(
        "# §4.2 — explicit-route size on the router-level topology (n={})\n\
         mean bytes:           {:.3}\n\
         95th percentile bytes: {:.3}\n\
         max bytes:            {:.3}\n\
         mean address bytes (IPv4 landmark id + route): {:.3}",
        args.nodes, stats.mean_bytes, stats.p95_bytes, stats.max_bytes, stats.mean_address_bytes_v4
    );
}

/// §5.2 — inject up to 60 % random error into every node's estimate of n
/// and measure reachability (resolution-database fallbacks) and mean
/// first-packet stretch.
fn exp_estimation_error(args: &CommonArgs) {
    let rows = [0.0, 0.2, 0.4, 0.6].map(|e| {
        let out = estimation_error_experiment(&args.params(), e);
        vec![
            format!("{:.0}%", e * 100.0),
            format!("{}/{}", out.fallback_pairs, out.total_pairs),
            fmt3(out.mean_first_stretch),
        ]
    });
    let title = format!("§5.2 — error in estimating n (G(n,m), n={})", args.nodes);
    let headers = "injected error|fallback pairs|mean first-packet stretch";
    table(&title, headers, &rows);
}

/// §4.4 — overlay dissemination hop counts with 1 vs 3 fingers (paper,
/// 1,024-node G(n,m): mean 5.77 / max 24 with 1 finger, mean 3.04 / max
/// 16 with 3).
fn exp_overlay_hops(args: &CommonArgs) {
    let rows = [1usize, 3].map(|f| {
        let out = overlay_hops_experiment(&args.params(), f);
        let (hops, max_hops) = (fmt3(out.mean_hops), out.max_hops.to_string());
        let coverage = format!("{:.4}", out.coverage);
        vec![
            f.to_string(),
            hops,
            max_hops,
            fmt3(out.mean_messages),
            coverage,
        ]
    });
    let title = format!(
        "§4.4 — address dissemination over the overlay (n={})",
        args.nodes
    );
    let headers = "fingers|mean hops|max hops|mean messages/announcement|coverage";
    table(&title, headers, &rows);
}

/// §5.2 — mean later-packet stretch over the static simulator's state vs
/// the discrete-event protocol's converged tables (paper: within ~1 %).
fn exp_static_accuracy(args: &CommonArgs) {
    let out = static_accuracy_experiment(&args.params());
    println!(
        "# §5.2 — static vs discrete-event simulation (G(n,m), n={})\n\
         static simulator mean later-packet stretch: {:.4}\n\
         event-driven protocol mean later-packet stretch: {:.4}\n\
         relative difference: {:.3}%",
        args.nodes,
        out.static_mean_stretch,
        out.event_mean_stretch,
        out.relative_difference * 100.0
    );
}
