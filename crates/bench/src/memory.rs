//! The `exp_memory` workload: control-state memory under churn, charted
//! against the paper's `Θ(√(n log n))` bound (§4.2, forgetful routing).
//!
//! One *leg* boots the distributed Disco protocol to convergence on
//! [`scenario::network`], runs a [`ChurnWindow`] (Poisson churn schedule,
//! availability probes at fixed times, drain), and then meters per-node
//! control state: path-vector candidates (the Adj-RIB-In,
//! `exp_scale`'s memory wall), RIB bytes, interned-path arena cells, and
//! the process's peak RSS (`VmHWM`). Every protocol-visible number is a
//! pure function of the parameters; only wall-clock and RSS vary.
//!
//! Peak RSS is a *process-wide high-water mark*, so comparing legs in one
//! process would let the first leg's peak mask the second's. The
//! `exp_memory` binary therefore re-executes itself (`--leg`) so each leg
//! owns a fresh address space; [`run_leg`] is the in-process form used by
//! tests and the `--smoke` gate, where candidate counts — not RSS — are
//! the gated quantity.

use crate::cli::write_trace;
use crate::scenario::{self, ChurnWindow};
use disco_core::config::DiscoConfig;
use disco_graph::PathArena;
use disco_metrics::control::{ControlAccounting, ControlBytes};
use disco_sim::{MergeRecorder, NoopRecorder};
use disco_telemetry::FullRecorder;
use std::time::Instant;

/// Parameters of one `exp_memory` leg.
#[derive(Debug, Clone)]
pub struct MemoryParams {
    /// Network size.
    pub n: usize,
    /// Experiment seed.
    pub seed: u64,
    /// The churn window and its probes.
    pub window: ChurnWindow,
    /// Run with forgetful eviction (`DiscoConfig::forgetful_dynamic`).
    pub forgetful: bool,
    /// Engine shards (one worker thread each). Every protocol-visible
    /// number is shard-count invariant; the arena gauges are sums over the
    /// shards' thread-local arenas.
    pub shards: usize,
}

impl MemoryParams {
    /// Defaults at one grid point. The horizon is shorter than
    /// `exp_churn`'s (the sweep multiplies legs) but long enough for
    /// hundreds of topology events at the default rate and n ≥ 1k.
    pub fn grid_point(n: usize, seed: u64, leave_rate: f64, forgetful: bool) -> Self {
        MemoryParams {
            n,
            seed,
            window: ChurnWindow {
                leave_rate_per_node: leave_rate,
                mean_downtime: 150.0,
                horizon: 500.0,
                probes: 4,
                pairs_per_probe: 64,
            },
            forgetful,
            shards: 1,
        }
    }
}

/// Measurements of one `exp_memory` leg.
#[derive(Debug, Clone, Default)]
pub struct MemoryResult {
    /// Network size.
    pub n: usize,
    /// Leave rate of this grid point.
    pub leave_rate: f64,
    /// Whether forgetful eviction was on.
    pub forgetful: bool,
    /// Availability over the in-churn probes.
    pub availability: f64,
    /// Availability after the network quiesced.
    pub final_availability: f64,
    /// Mean path-vector candidates per live node at the end of the run.
    pub cand_mean: f64,
    /// Maximum candidates at any live node.
    pub cand_max: usize,
    /// Mean Adj-RIB-In bytes per live node (store only; paths are arena
    /// cells).
    pub rib_bytes_mean: f64,
    /// Mean Loc-RIB and routing-table bytes per live node: the store's
    /// per-destination view columns (selection, landmark-candidate count,
    /// resident mark) plus the ordered mirrors — all the per-destination
    /// state a node keeps outside the Adj-RIB-In.
    pub loc_rib_bytes_mean: f64,
    /// Mean dissemination/resolution bookkeeping bytes per live node
    /// (group address store, overlay slots, forwarded dedup; the
    /// resolution shard is application state, excluded on both sides).
    pub dissem_bytes_mean: f64,
    /// Mean non-RIB control bytes per live node: Loc-RIB view +
    /// dissemination.
    pub non_rib_bytes_mean: f64,
    /// Mean interned destinations per live node (the denominator of the
    /// control-bytes-per-destination CI gate).
    pub dests_mean: f64,
    /// Mean interned-path nodes referenced per live node's RIB.
    pub path_nodes_mean: f64,
    /// Peak live path-arena cells over the run.
    pub arena_peak_cells: usize,
    /// Live path-arena cells at the end.
    pub arena_live_cells: usize,
    /// Arena capacity cells released by `PathArena::shrink` once the run's
    /// state is dropped (post-churn compaction yield, summed over shards).
    pub arena_shrunk_cells: usize,
    /// Control messages per node spent on repair during the window.
    pub repair_msgs_per_node: f64,
    /// Route-refresh requests flooded (forgetful re-solicitation).
    pub refreshes_sent: u64,
    /// Candidates evicted by the forgetful policy.
    pub evictions: u64,
    /// Topology events applied.
    pub topology_events: u64,
    /// Peak RSS (`VmHWM`) of the *churn phase* — the watermark is reset
    /// after initial convergence (see [`reset_peak_rss`]); 0 where
    /// unreadable.
    pub peak_rss_bytes: u64,
    /// Peak RSS of the boot phase (graph + initial convergence flood),
    /// identical workload in both RIB modes.
    pub boot_rss_bytes: u64,
    /// Wall time of the whole leg.
    pub wall_secs: f64,
    /// Whether the run quiesced.
    pub quiesced: bool,
}

/// `√(n ln n)` — the paper's per-node state scale, printed next to every
/// grid row so the sweep charts candidates/node against it.
pub fn sqrt_n_log_n(n: usize) -> f64 {
    let n = n.max(2) as f64;
    (n * n.ln()).sqrt()
}

/// The configured candidates-per-node bound the smoke gate asserts:
/// selected + alternates for each of the `Θ(√(n log n))` table-resident
/// destinations (vicinity + landmarks ≈ 2√(n ln n)), plus one retained
/// candidate for each destination a neighbor exports that the table
/// rejects — bounded by the same scale, since neighbors only export their
/// own `Θ(√(n log n))` tables and adjacent vicinities overlap heavily.
/// Measured across n ∈ {192..4096}: 6.6–7.6 × √(n ln n), flat in n; the
/// constant carries that with ~30% headroom.
pub fn candidate_bound(n: usize, alternates: usize) -> f64 {
    (8.0 + alternates as f64) * sqrt_n_log_n(n)
}

/// The non-RIB-control-bytes-per-destination bound the smoke gate asserts
/// (mean non-RIB control bytes per node over mean interned destinations
/// per node). Measured 46.2 B/dest at the smoke point (n=512, heavy churn,
/// forgetful, 427 dests/node): ~43.2 B of Loc-RIB and routing table (view
/// columns at 28 B/dest plus vector growth slack, and the ordered mirrors'
/// 12 B keys priced at their arrays' capacity) and ~3 B of dissemination.
/// The bound leaves 15 % over that reading, so a regression that
/// re-materializes per-destination state still fails CI. The store's id
/// order (4 B per interned destination) is priced as well once built —
/// which only a forwarding compile does, so not in this experiment; with
/// it the point would read ≈ 50.2, also under the bound.
///
/// The meter is complete: `loc_rib_bytes` prices every per-destination
/// byte a node keeps outside the Adj-RIB-In (the routing table is the
/// store's 1 B resident mark, not a second map).
pub fn control_bytes_per_dest_bound() -> f64 {
    53.0
}

/// Reset the kernel's peak-RSS watermark (`VmHWM`) to the current RSS
/// (`echo 5 > /proc/self/clear_refs`). `run_leg` does this right after
/// initial convergence, so the reported peak reflects the *churn phase* —
/// retained control state plus repair transients — instead of being
/// masked by the one-time boot flood, which peaks higher and identically
/// in both RIB modes. Best-effort: unsupported kernels keep the boot
/// peak.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Read this process's peak resident set size (`VmHWM`) in bytes.
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// Run one leg in-process. Protocol-visible numbers are deterministic in
/// the parameters; `peak_rss_bytes` reflects everything this process did
/// before, so sweep legs run in child processes.
pub fn run_leg(p: &MemoryParams) -> MemoryResult {
    // The no-op recorder monomorphizes the leg to the uninstrumented
    // engine — this is the measured configuration.
    run_leg_with(p, |_| NoopRecorder).0
}

/// [`run_leg`] with the full telemetry recorder on every shard, exporting a
/// Chrome `trace_event` timeline of the leg to `trace_path`. The timeline
/// carries the leg's phase spans (build/boot/churn/drain) with wall-clock
/// and RSS deltas — the memory story of the leg, phase by phase.
pub fn run_leg_traced(p: &MemoryParams, trace_path: &str) -> MemoryResult {
    let (result, rec) = run_leg_with(p, |_| FullRecorder::new());
    write_trace(trace_path, &rec);
    result
}

/// One live node's control-state gauges, read on the shard that owns it
/// (plain data — crosses the shard boundary by value).
struct NodeGauge {
    bytes: ControlBytes,
    candidates: usize,
    path_nodes: usize,
    dests: usize,
    refreshes: u64,
    evictions: u64,
}

fn run_leg_with<R: MergeRecorder + Send + 'static>(
    p: &MemoryParams,
    recorders: impl FnMut(usize) -> R,
) -> (MemoryResult, R) {
    let t0 = Instant::now();
    let cfg = DiscoConfig::seeded(p.seed).with_forgetful_dynamic(p.forgetful);
    let (graph, mut engine) = scenario::network(p.n, p.seed, &cfg, p.shards, recorders);
    let report = engine.run();
    assert!(report.converged, "initial convergence failed");
    let convergence_msgs = report.stats.total_sent();
    let boot_rss = peak_rss_bytes();
    reset_peak_rss();
    let window = p.window.run(&mut engine, &graph, p.seed);

    // Control-state gauges over the live nodes, each read on its owner and
    // folded through the per-component accounting (Adj-RIB-In vs Loc-RIB
    // view vs dissemination).
    let live_nodes = engine.active_nodes().map(|v| (v, ())).collect();
    let gauges = engine.gather(live_nodes, |e, v, ()| {
        let node = &e.nodes()[v.0];
        let st = node.pv.rib_stats();
        NodeGauge {
            bytes: ControlBytes {
                rib: st.approx_bytes,
                loc_rib: node.pv.loc_rib_bytes(),
                dissemination: node.dissemination_bytes(),
            },
            candidates: st.candidates,
            path_nodes: st.path_nodes,
            dests: st.dests_interned,
            refreshes: node.pv.refreshes_sent(),
            evictions: st.evictions,
        }
    });
    let mut cand_total = 0usize;
    let mut cand_max = 0usize;
    let mut path_nodes = 0usize;
    let mut dests_total = 0usize;
    let mut refreshes = 0u64;
    let mut evictions = 0u64;
    let mut acct = ControlAccounting::default();
    for g in &gauges {
        cand_total += g.candidates;
        cand_max = cand_max.max(g.candidates);
        path_nodes += g.path_nodes;
        dests_total += g.dests;
        refreshes += g.refreshes;
        evictions += g.evictions;
        acct.push(g.bytes);
    }

    // Path arenas are thread-local: each shard gauges its own (the
    // coordinator's stays empty when the shards are threads — probes
    // detach paths to `Vec<NodeId>` before crossing).
    let (mut arena_peak_cells, mut arena_live_cells) = (0usize, 0usize);
    for shard in 0..engine.shards() {
        let arena = engine.visit(shard, |_| PathArena::stats());
        arena_peak_cells += arena.peak_live_cells;
        arena_live_cells += arena.live_cells;
    }

    let live_f = gauges.len().max(1) as f64;
    let (rib_bytes_mean, loc_rib_bytes_mean, dissem_bytes_mean) = acct.mean();
    let repair_msgs = engine.merged_stats().total_sent() - convergence_msgs;
    let topology_events = engine.topology_events();
    // Post-churn compaction: each shard drops its state, then lets its
    // arena release the capacity the churn peak left free-listed.
    let summary = engine.finish();

    let result = MemoryResult {
        n: p.n,
        leave_rate: p.window.leave_rate_per_node,
        forgetful: p.forgetful,
        availability: window.availability,
        final_availability: window.final_availability,
        cand_mean: cand_total as f64 / live_f,
        cand_max,
        rib_bytes_mean,
        loc_rib_bytes_mean,
        dissem_bytes_mean,
        non_rib_bytes_mean: loc_rib_bytes_mean + dissem_bytes_mean,
        dests_mean: dests_total as f64 / live_f,
        path_nodes_mean: path_nodes as f64 / live_f,
        arena_peak_cells,
        arena_live_cells,
        arena_shrunk_cells: summary.arena_reclaimed_cells,
        repair_msgs_per_node: repair_msgs as f64 / p.n as f64,
        refreshes_sent: refreshes,
        evictions,
        topology_events,
        peak_rss_bytes: peak_rss_bytes(),
        boot_rss_bytes: boot_rss,
        wall_secs: t0.elapsed().as_secs_f64(),
        quiesced: window.quiesced,
    };
    (result, summary.recorder)
}

impl MemoryResult {
    /// Render as one `key=value` line (the child → parent protocol of the
    /// sweep binary; the parent renders JSON).
    pub fn to_kv_line(&self) -> String {
        format!(
            "MEMLEG n={} rate={} forgetful={} availability={:.4} final_availability={:.4} \
             cand_mean={:.1} cand_max={} rib_bytes_mean={:.0} loc_rib_bytes_mean={:.0} \
             dissem_bytes_mean={:.0} non_rib_bytes_mean={:.0} dests_mean={:.1} \
             path_nodes_mean={:.0} \
             arena_peak_cells={} arena_live_cells={} arena_shrunk_cells={} \
             repair_msgs_per_node={:.1} refreshes_sent={} evictions={} topology_events={} \
             peak_rss_bytes={} boot_rss_bytes={} wall_secs={:.2} quiesced={}",
            self.n,
            self.leave_rate,
            self.forgetful as u8,
            self.availability,
            self.final_availability,
            self.cand_mean,
            self.cand_max,
            self.rib_bytes_mean,
            self.loc_rib_bytes_mean,
            self.dissem_bytes_mean,
            self.non_rib_bytes_mean,
            self.dests_mean,
            self.path_nodes_mean,
            self.arena_peak_cells,
            self.arena_live_cells,
            self.arena_shrunk_cells,
            self.repair_msgs_per_node,
            self.refreshes_sent,
            self.evictions,
            self.topology_events,
            self.peak_rss_bytes,
            self.boot_rss_bytes,
            self.wall_secs,
            self.quiesced as u8,
        )
    }

    /// Parse a [`Self::to_kv_line`] line (child-process output).
    pub fn from_kv_line(line: &str) -> Option<MemoryResult> {
        let line = line.strip_prefix("MEMLEG ")?;
        let mut r = MemoryResult::default();
        for kv in line.split_whitespace() {
            let (k, v) = kv.split_once('=')?;
            match k {
                "n" => r.n = v.parse().ok()?,
                "rate" => r.leave_rate = v.parse().ok()?,
                "forgetful" => r.forgetful = v == "1",
                "availability" => r.availability = v.parse().ok()?,
                "final_availability" => r.final_availability = v.parse().ok()?,
                "cand_mean" => r.cand_mean = v.parse().ok()?,
                "cand_max" => r.cand_max = v.parse().ok()?,
                "rib_bytes_mean" => r.rib_bytes_mean = v.parse().ok()?,
                "loc_rib_bytes_mean" => r.loc_rib_bytes_mean = v.parse().ok()?,
                "dissem_bytes_mean" => r.dissem_bytes_mean = v.parse().ok()?,
                "non_rib_bytes_mean" => r.non_rib_bytes_mean = v.parse().ok()?,
                "dests_mean" => r.dests_mean = v.parse().ok()?,
                "path_nodes_mean" => r.path_nodes_mean = v.parse().ok()?,
                "arena_peak_cells" => r.arena_peak_cells = v.parse().ok()?,
                "arena_live_cells" => r.arena_live_cells = v.parse().ok()?,
                "arena_shrunk_cells" => r.arena_shrunk_cells = v.parse().ok()?,
                "repair_msgs_per_node" => r.repair_msgs_per_node = v.parse().ok()?,
                "refreshes_sent" => r.refreshes_sent = v.parse().ok()?,
                "evictions" => r.evictions = v.parse().ok()?,
                "topology_events" => r.topology_events = v.parse().ok()?,
                "peak_rss_bytes" => r.peak_rss_bytes = v.parse().ok()?,
                "boot_rss_bytes" => r.boot_rss_bytes = v.parse().ok()?,
                "wall_secs" => r.wall_secs = v.parse().ok()?,
                "quiesced" => r.quiesced = v == "1",
                _ => {}
            }
        }
        Some(r)
    }

    /// One JSON object literal for the sweep report (hand-rolled; the
    /// serde stand-in does not serialize).
    pub fn to_json(&self) -> String {
        format!(
            "{{ \"n\": {}, \"leave_rate\": {}, \"forgetful\": {}, \
             \"availability\": {:.4}, \"final_availability\": {:.4}, \
             \"cand_mean\": {:.1}, \"cand_max\": {}, \"sqrt_n_log_n\": {:.1}, \
             \"rib_bytes_mean\": {:.0}, \"loc_rib_bytes_mean\": {:.0}, \
             \"dissem_bytes_mean\": {:.0}, \
             \"non_rib_bytes_mean\": {:.0}, \"dests_mean\": {:.1}, \
             \"path_nodes_mean\": {:.0}, \
             \"arena_peak_cells\": {}, \"arena_live_cells\": {}, \
             \"arena_shrunk_cells\": {}, \"repair_msgs_per_node\": {:.1}, \
             \"refreshes_sent\": {}, \"evictions\": {}, \"topology_events\": {}, \
             \"peak_rss_mb\": {:.1}, \"boot_rss_mb\": {:.1}, \"wall_secs\": {:.2}, \
             \"quiesced\": {} }}",
            self.n,
            self.leave_rate,
            self.forgetful,
            self.availability,
            self.final_availability,
            self.cand_mean,
            self.cand_max,
            sqrt_n_log_n(self.n),
            self.rib_bytes_mean,
            self.loc_rib_bytes_mean,
            self.dissem_bytes_mean,
            self.non_rib_bytes_mean,
            self.dests_mean,
            self.path_nodes_mean,
            self.arena_peak_cells,
            self.arena_live_cells,
            self.arena_shrunk_cells,
            self.repair_msgs_per_node,
            self.refreshes_sent,
            self.evictions,
            self.topology_events,
            self.peak_rss_bytes as f64 / (1024.0 * 1024.0),
            self.boot_rss_bytes as f64 / (1024.0 * 1024.0),
            self.wall_secs,
            self.quiesced,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny smoke of the leg itself: runs, quiesces, meters real state,
    /// and the kv line round-trips.
    #[test]
    fn memory_leg_runs_and_roundtrips() {
        let mut p = MemoryParams::grid_point(128, 3, 0.001, true);
        p.window.horizon = 200.0;
        p.window.probes = 2;
        let r = run_leg(&p);
        assert!(r.quiesced);
        assert!(r.topology_events > 5, "expected churn");
        assert!(r.cand_mean > 0.0 && r.cand_max > 0);
        assert!(r.evictions > 0, "forgetful leg must evict");
        assert!(r.availability > 0.8);
        // The per-component byte columns meter real state.
        assert!(r.loc_rib_bytes_mean > 0.0 && r.dissem_bytes_mean > 0.0);
        assert!(r.dests_mean > 0.0);
        // Keys of columns since retired (checked-in rows still carry them)
        // are skipped, not rejected.
        let line = format!("{} non_rib_reduction=1.54 intern_bytes=7", r.to_kv_line());
        let parsed = MemoryResult::from_kv_line(&line).expect("kv parse");
        assert_eq!(parsed.n, r.n);
        assert_eq!(parsed.cand_max, r.cand_max);
        assert_eq!(parsed.forgetful, r.forgetful);
        assert!((parsed.availability - r.availability).abs() < 1e-3);
        assert!((parsed.non_rib_bytes_mean - r.non_rib_bytes_mean).abs() < 1.0);
        assert!((parsed.dests_mean - r.dests_mean).abs() < 0.1);
        assert!(r.to_json().contains("\"sqrt_n_log_n\""));
    }

    /// The shard count does not change the simulation: every
    /// protocol-visible gauge of the one-shard leg matches the
    /// two-shard leg exactly (only arena cells and wall-clock/RSS may
    /// differ — paths crossing shards are rebuilt in the receiving
    /// shard's arena).
    #[test]
    fn protocol_numbers_are_shard_count_invariant() {
        let mut p = MemoryParams::grid_point(128, 3, 0.001, true);
        p.window.horizon = 200.0;
        p.window.probes = 2;
        let seq = run_leg(&p);
        p.shards = 2;
        let sh = run_leg(&p);
        assert_eq!(seq.cand_max, sh.cand_max);
        assert!((seq.cand_mean - sh.cand_mean).abs() < 1e-9);
        assert!((seq.availability - sh.availability).abs() < 1e-12);
        assert!((seq.final_availability - sh.final_availability).abs() < 1e-12);
        assert_eq!(seq.topology_events, sh.topology_events);
        assert_eq!(seq.refreshes_sent, sh.refreshes_sent);
        assert_eq!(seq.evictions, sh.evictions);
        assert!((seq.repair_msgs_per_node - sh.repair_msgs_per_node).abs() < 1e-9);
        assert!((seq.rib_bytes_mean - sh.rib_bytes_mean).abs() < 1e-6);
        assert!((seq.loc_rib_bytes_mean - sh.loc_rib_bytes_mean).abs() < 1e-6);
        assert!((seq.dissem_bytes_mean - sh.dissem_bytes_mean).abs() < 1e-6);
        assert!((seq.dests_mean - sh.dests_mean).abs() < 1e-9);
        assert_eq!(seq.quiesced, sh.quiesced);
    }

    /// Forgetful keeps strictly fewer candidates than the full RIB on the
    /// same workload, with availability within 0.01.
    #[test]
    fn forgetful_leg_cuts_candidates_within_availability_budget() {
        let mk = |forgetful| {
            let mut p = MemoryParams::grid_point(192, 7, 0.0005, forgetful);
            p.window.horizon = 200.0;
            p.window.probes = 2;
            run_leg(&p)
        };
        let full = mk(false);
        let slim = mk(true);
        assert!(
            slim.cand_mean * 3.0 < full.cand_mean * 2.0,
            "forgetful {:.1} vs full {:.1} candidates/node",
            slim.cand_mean,
            full.cand_mean
        );
        assert!(
            (full.availability - slim.availability).abs() <= 0.01 + 1e-9,
            "availability diverged: full {:.4} vs forgetful {:.4}",
            full.availability,
            slim.availability
        );
        assert!(slim.cand_mean <= candidate_bound(192, 2));
    }
}
