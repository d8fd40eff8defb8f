//! The metric tables: every name the benchmark may print, with its unit,
//! direction and — for end-to-end metrics — the regression bound. A test
//! keeps `BENCHMARK.json` equal to these tables, and a run fails if a
//! workload leaves a listed end-to-end metric unset.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression (end-to-end metrics only).
    pub bound: f64,
    /// Simulated quantity: a function of the seed and the code alone,
    /// which must repeat bit for bit across reps and runs of one commit.
    pub exact: bool,
}

const fn timed(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
        exact: false,
    }
}

const fn simulated(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound,
        exact: true,
    }
}

/// End-to-end metrics, reported untraced by every workload. Each is
/// measured where the workload does that work: in its timed region when
/// the workload exists for it, otherwise in its set-up boot or in the
/// repair-and-serve tail every workload ends with (README, "What each
/// workload reports").
///
/// Host timings carry the contract's widest bound, 25 %: on the reference
/// box their inter-quartile spread over ten seeds is 1–12 % in a quiet
/// stretch and 15–25 % when the host is busy, and a bound below the
/// noise rejects good changes (README, "Noise"). The simulated metrics
/// repeat exactly and keep the issue's 2 %.
pub const END_TO_END: &[Metric] = &[
    timed("setup_s", "s", Better::Lower, 0.25),
    timed("anns_per_s", "1/s", Better::Higher, 0.25),
    timed("lookups_per_s", "1/s", Better::Higher, 0.25),
    timed("repair_ms_p50", "ms", Better::Lower, 0.25),
    timed("repair_ms_p90", "ms", Better::Lower, 0.25),
    timed("peak_rss_mb", "MB", Better::Lower, 0.05),
    simulated("ctrl_msgs_per_node", "count", 0.02),
    simulated("state_per_node", "ratio", 0.02),
    simulated("repair_msgs_per_event", "count", 0.02),
    simulated("repair_sim_p50", "sim_units", 0.02),
    simulated("stretch_mean", "ratio", 0.02),
];

/// Metrics only the harness's own report carries (`--all`, `--repeat`):
/// the contract a driver runs the benchmark under wants every end-to-end
/// metric from every workload and never 0, which a landmark departure
/// (only `repair` at full size can afford one) and a failure share (0 on
/// a healthy run) cannot be.
pub const HARNESS_ONLY: &[Metric] = &[
    timed("lm_leave_s", "s", Better::Lower, 0.25),
    simulated("failed_share", "ratio", 0.0),
    // The event-latency distribution as the guide states one: the highest
    // percentile with ten samples beyond it, which percentile that is,
    // and the sample count (`repair_ms_p50` is its median).
    timed("repair_ms_tail", "ms", Better::Lower, 0.25),
    simulated("repair_ms_tail_pct", "%", 0.0),
    simulated("repair_ms_n", "count", 0.0),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
        exact: false,
    }
}

use Better::{Higher, Lower};

/// Per-layer metrics, reported by the traced run (layer = module path).
/// A metric a workload does not exercise reads 0 there.
pub const PER_LAYER: &[Metric] = &[
    layer("graph.generators.gnm_ms", "ms", Lower),
    layer("graph.arena.prepend_ns", "ns", Lower),
    layer("graph.arena.release_ns", "ns", Lower),
    layer("graph.arena.peak_cells", "count", Lower),
    layer("graph.arena.live_cells", "count", Lower),
    layer("sim.event.push_ns", "ns", Lower),
    layer("sim.event.pop_ns", "ns", Lower),
    layer("sim.event.cancel_ns", "ns", Lower),
    layer("sim.event.queue_peak", "count", Lower),
    layer("sim.engine.events", "count", Lower),
    layer("sim.engine.anns_per_event", "ratio", Higher),
    layer("sim.engine.dispatch_ns", "ns", Lower),
    layer("sim.engine.busy_ns.flood", "ns", Lower),
    layer("sim.engine.busy_ns.batch", "ns", Lower),
    layer("sim.engine.busy_ns.deliver", "ns", Lower),
    layer("sim.engine.busy_ns.withdraw", "ns", Lower),
    layer("sim.engine.busy_ns.timer", "ns", Lower),
    layer("sim.engine.busy_ns.topology", "ns", Lower),
    layer("sim.engine.count.flood", "count", Lower),
    layer("sim.engine.count.batch", "count", Lower),
    layer("sim.engine.count.deliver", "count", Lower),
    layer("sim.engine.count.withdraw", "count", Lower),
    layer("sim.engine.count.timer", "count", Lower),
    layer("sim.engine.count.topology", "count", Lower),
    layer("sim.engine.self_share", "ratio", Lower),
    layer("sim.sharded.speedup", "ratio", Higher),
    layer("sim.sharded.k1_ratio", "ratio", Higher),
    layer("sim.sharded.event_inflation", "ratio", Lower),
    layer("sim.sharded.busy_share", "ratio", Higher),
    layer("sim.sharded.rss_ratio", "ratio", Lower),
    layer("core.static_state.build_s", "s", Lower),
    layer("core.static_state.build_par_s", "s", Lower),
    layer("core.routing.first_packet_us", "us", Lower),
    layer("core.routing.later_packet_us", "us", Lower),
    layer("core.rib.insert_ns", "ns", Lower),
    layer("core.rib.select_best_ns", "ns", Lower),
    layer("core.rib.remove_ns", "ns", Lower),
    layer("core.rib.remove_neighbor_us", "us", Lower),
    layer("core.rib.cand_per_node", "count", Lower),
    layer("core.path_vector.boot_s", "s", Lower),
    layer("core.protocol.selection_changes", "count", Lower),
    layer("core.protocol.repair_anns_per_s", "1/s", Higher),
    layer("core.forward.compile_us", "us", Lower),
    layer("core.forward.compile_ns_per_entry", "ns", Lower),
    layer("core.forward.republish_per_event", "count", Lower),
    layer("core.forward.republish_changed_share", "ratio", Higher),
    layer("core.forward.lookup_hit_ns", "ns", Lower),
    layer("core.forward.lookup_miss_ns", "ns", Lower),
    layer("core.forward.bytes_per_dest", "B", Lower),
    layer("core.wire.to_wire_ns", "ns", Lower),
    layer("core.wire.from_wire_ns", "ns", Lower),
    layer("dynamics.forward.walk_ns_p50", "ns", Lower),
    layer("dynamics.forward.walk_ns_p99", "ns", Lower),
    layer("dynamics.forward.lookups_per_walk", "ratio", Lower),
    layer("dynamics.forward.hops_per_walk", "ratio", Lower),
    layer("dynamics.forward.clock_share", "ratio", Lower),
    layer("repair.ctrl_ms_p50", "ms", Lower),
    layer("repair.compile_ms_p50", "ms", Lower),
    layer("repair.walk_ms_p50", "ms", Lower),
    layer("repair.ms_p50.link_down", "ms", Lower),
    layer("repair.ms_p50.link_up", "ms", Lower),
    layer("repair.ms_p50.node_leave", "ms", Lower),
    layer("repair.ms_p50.node_join", "ms", Lower),
    layer("repair.lm_leave_s", "s", Lower),
    layer("telemetry.full.overhead.boot", "ratio", Lower),
    layer("telemetry.full.overhead.repair", "ratio", Lower),
    layer("telemetry.full.overhead.shard2", "ratio", Lower),
];

/// Layer metrics the untraced run prints too (exact counts and the
/// harness's own stage split; they cost nothing to take).
pub const ALSO_UNTRACED: &[&str] = &[
    "graph.arena.peak_cells",
    "graph.arena.live_cells",
    "sim.engine.events",
    "sim.engine.anns_per_event",
    "core.rib.cand_per_node",
    "dynamics.forward.lookups_per_walk",
    "dynamics.forward.hops_per_walk",
    "repair.ctrl_ms_p50",
    "repair.compile_ms_p50",
    "repair.walk_ms_p50",
    "repair.ms_p50.link_down",
    "repair.ms_p50.link_up",
    "repair.ms_p50.node_leave",
    "repair.ms_p50.node_join",
];

/// Look a name up in every table.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(HARNESS_ONLY)
        .chain(PER_LAYER)
        .find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let all: Vec<&Metric> = END_TO_END
            .iter()
            .chain(HARNESS_ONLY)
            .chain(PER_LAYER)
            .collect();
        for (i, m) in all.iter().enumerate() {
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(all[..i].iter().all(|o| o.name != m.name), "{}", m.name);
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(ALSO_UNTRACED.iter().all(|n| find(n).is_some()));
    }
}
