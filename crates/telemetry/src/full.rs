//! The everything-on recorder composing registry, repair probe, flight
//! ring and phase spans, with Chrome-trace export.

use crate::flight::{FlightEvent, FlightRecorder};
use crate::json::Json;
use crate::recorder::{MergeRecorder, MessageClass, Phase, Recorder};
use crate::registry::ClassRegistry;
use crate::repair::RepairProbe;
use crate::spans::PhaseSpans;
use crate::trace::{ChromeTrace, US_PER_SIM_UNIT};
use crate::windows::ShardWindows;

/// Default flight-ring capacity (last N engine events kept for dumps).
const FLIGHT_CAPACITY: usize = 256;

/// Most samples one shard's window counter track puts on the timeline.
const WINDOW_TRACK_POINTS: usize = 512;

/// The full recorder behind the bench binaries' `--telemetry` / `--trace`
/// flags. Deterministic outputs ([`FullRecorder::summary_lines`], the
/// repair distribution, all message counters) are pure functions of the
/// run's seed; wall-clock latency histograms and RSS deltas are not and
/// stay out of them.
#[derive(Debug, Clone)]
pub struct FullRecorder {
    /// Per-class counters and wall-latency histograms.
    pub registry: ClassRegistry,
    /// Repair-latency probe (sim time, deterministic).
    pub repair: RepairProbe,
    /// Bounded ring of the last engine events.
    pub flight: FlightRecorder,
    /// Phase spans (wall + RSS annotated).
    pub phases: PhaseSpans,
    /// Lookahead-window accounting of a sharded run, indexed by shard id
    /// (empty for sequential runs; wall-clock, so not in the summaries).
    pub windows: Vec<ShardWindows>,
    /// Simulation time of the latest delivery or topology event — the
    /// timestamp window samples get, since a window reports wall-clock only.
    clock: f64,
    /// Cumulative delivered-by-class samples taken at every topology event
    /// (the counter track of the timeline).
    samples: Vec<(f64, [u64; MessageClass::COUNT])>,
    /// Topology instants `(time, kind, node)` for the timeline.
    topo_marks: Vec<(f64, &'static str, u32)>,
    /// Final simulation clock (set by [`Recorder::finish`]).
    end_time: f64,
}

impl Default for FullRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl FullRecorder {
    /// A recorder with the default repair settle gap and flight capacity.
    pub fn new() -> Self {
        FullRecorder {
            registry: ClassRegistry::new(),
            repair: RepairProbe::default(),
            flight: FlightRecorder::new(FLIGHT_CAPACITY),
            phases: PhaseSpans::new(),
            windows: Vec::new(),
            clock: 0.0,
            samples: Vec::new(),
            topo_marks: Vec::new(),
            end_time: 0.0,
        }
    }

    /// Override the repair probe's settle gap (sim-time units).
    pub fn with_settle_gap(mut self, gap: f64) -> Self {
        self.repair = RepairProbe::new(gap);
        self
    }

    /// Final simulation clock recorded by [`Recorder::finish`].
    pub fn end_time(&self) -> f64 {
        self.end_time
    }

    /// Deterministic summary appended to an experiment's output when
    /// telemetry is on: per-class message counters and the repair-latency
    /// distribution. No wall-clock or RSS numbers — two same-seed runs
    /// render byte-identical lines.
    pub fn summary_lines(&self) -> String {
        let mut out = self.registry.summary_line();
        out.push_str(&self.repair.summary_line());
        out
    }

    /// Render the run as a Chrome `trace_event` JSON document (open in
    /// `chrome://tracing` or perfetto). Call [`Recorder::finish`] first so
    /// open repair windows and spans are closed.
    pub fn chrome_trace_json(&self) -> String {
        let us = |t: f64| t * US_PER_SIM_UNIT;
        let mut tr = ChromeTrace::new();
        tr.thread_name(1, "phases");
        tr.thread_name(2, "repairs");
        tr.thread_name(3, "topology");

        for sp in self.phases.spans() {
            let args = Json::obj([
                ("wall_ms", Json::Fixed(sp.wall_secs * 1e3, 3)),
                ("rss_start_bytes", Json::Int(sp.rss_start)),
                ("rss_end_bytes", Json::Int(sp.rss_end)),
                ("rss_delta_bytes", Json::Num(sp.rss_delta() as f64)),
            ]);
            tr.complete(
                sp.phase.name(),
                1,
                us(sp.sim_start),
                us(sp.sim_end - sp.sim_start),
                Some(&args.compact()),
            );
        }

        // Repair windows: one span per closed window on the repair track.
        // Start times are reconstructed from the topology marks (windows
        // close in open order — both vectors are chronological).
        for (i, &lat) in self.repair.latencies().iter().enumerate() {
            let start = self.topo_marks.get(i).map_or(0.0, |&(t, ..)| t);
            tr.complete("repair", 2, us(start), us(lat), None);
        }

        for &(t, kind, node) in &self.topo_marks {
            tr.instant(&format!("{kind} n{node}"), 3, us(t));
        }

        // Cumulative delivered-by-class counter track, sampled at topology
        // events plus one final sample.
        let series_names: Vec<&str> = MessageClass::ALL.iter().map(|c| c.name()).collect();
        let mut plot = |t: f64, sample: &[u64; MessageClass::COUNT]| {
            let series: Vec<(&str, u64)> = series_names
                .iter()
                .zip(sample.iter())
                .filter(|&(_, &v)| v > 0)
                .map(|(&n, &v)| (n, v))
                .collect();
            if !series.is_empty() {
                tr.counter("delivered by class", us(t), &series);
            }
        };
        for (t, sample) in &self.samples {
            plot(*t, sample);
        }
        plot(self.end_time, &self.registry.delivered_by_class());

        // Data-plane track: cumulative delivered lookups on their own
        // counter (the served-traffic SLO line `exp_forward` feeds),
        // separate from the control-plane class plot above.
        let lk = MessageClass::Lookup.index();
        let mut plot_lookups = |t: f64, delivered: u64| {
            if delivered > 0 {
                tr.counter("delivered lookups", us(t), &[("lookup", delivered)]);
            }
        };
        for (t, sample) in &self.samples {
            plot_lookups(*t, sample[lk]);
        }
        plot_lookups(self.end_time, self.registry.delivered_by_class()[lk]);

        // Sharded runs: one counter track per shard of its cumulative
        // wall-clock by window part — the slopes are the shard's busy,
        // ingest and idle shares at that point of the run.
        for (shard, w) in self.windows.iter().enumerate() {
            let name = format!("shard {shard} wall ns");
            for &(t, [work, ingest, wait]) in w.samples(WINDOW_TRACK_POINTS) {
                let series = [("work", work), ("ingest", ingest), ("wait", wait)];
                tr.counter(&name, us(t), &series);
            }
        }

        // Summary block next to traceEvents: per-class totals, the wall
        // latency histogram buckets, the repair distribution, and the
        // per-shard window accounting.
        let classes = MessageClass::ALL.into_iter().filter_map(|c| {
            let s = self.registry.stats(c);
            if s.sent == 0 && s.delivered == 0 && s.dropped == 0 {
                return None;
            }
            let lat = self.registry.latency(c);
            let buckets = lat
                .nonzero_buckets()
                .map(|(upper, count)| Json::Arr(vec![Json::Int(upper), Json::Int(count)]));
            let stats = Json::obj([
                ("sent", Json::Int(s.sent)),
                ("sent_bytes", Json::Int(s.sent_bytes)),
                ("delivered", Json::Int(s.delivered)),
                ("dropped", Json::Int(s.dropped)),
                ("event_wall_ns_log2_buckets", Json::Arr(buckets.collect())),
                ("event_wall_ns_p50", Json::Int(lat.quantile_upper(0.50))),
                ("event_wall_ns_p99", Json::Int(lat.quantile_upper(0.99))),
            ]);
            Some((c.name(), stats))
        });
        let repair = Json::obj([
            ("events", Json::Int(self.repair.latencies().len() as u64)),
            ("p50", Json::Fixed(self.repair.quantile(0.50), 3)),
            ("p90", Json::Fixed(self.repair.quantile(0.90), 3)),
            ("p99", Json::Fixed(self.repair.quantile(0.99), 3)),
            ("settle_gap", Json::Num(self.repair.settle_gap())),
        ]);
        let shards = self.windows.iter().enumerate().map(|(shard, w)| {
            let counts = [
                ("shard", shard as u64),
                ("windows", w.windows()),
                ("events", w.events),
                ("wire_in", w.wire_in),
                ("wire_out", w.wire_out),
            ];
            let mut members: Vec<_> = counts.map(|(k, v)| (k.to_string(), Json::Int(v))).into();
            for (part, h) in [("work", &w.work), ("ingest", &w.ingest), ("wait", &w.wait)] {
                members.push((format!("{part}_ns"), Json::Int(h.sum())));
                members.push((format!("{part}_ns_p50"), Json::Int(h.quantile_upper(0.50))));
                members.push((format!("{part}_ns_p99"), Json::Int(h.quantile_upper(0.99))));
            }
            Json::Obj(members)
        });
        let summary = Json::obj([
            ("classes", Json::obj(classes)),
            ("repair", repair),
            ("shards", Json::Arr(shards.collect())),
        ]);
        tr.into_json(&[("disco_summary", summary.compact())])
    }
}

impl Recorder for FullRecorder {
    fn message_sent(&mut self, _now: f64, class: MessageClass, count: u64, bytes: u64) {
        self.registry.sent(class, count, bytes);
    }

    fn message_delivered(&mut self, now: f64, class: MessageClass, from: u32, to: u32) {
        self.clock = now;
        self.registry.delivered(class);
        self.flight.push(FlightEvent {
            now,
            class,
            from,
            to,
        });
    }

    fn message_dropped(&mut self, _now: f64, class: MessageClass, count: u64) {
        self.registry.dropped(class, count);
    }

    fn event_done(&mut self, class: MessageClass, wall_nanos: u64) {
        self.registry.event_done(class, wall_nanos);
    }

    fn window_done(
        &mut self,
        shard: u32,
        events: u64,
        work_ns: u64,
        ingest_ns: u64,
        wait_ns: u64,
        wire_in: u64,
        wire_out: u64,
    ) {
        let shard = shard as usize;
        if self.windows.len() <= shard {
            self.windows.resize_with(shard + 1, ShardWindows::default);
        }
        self.windows[shard].record(
            self.clock,
            events,
            [work_ns, ingest_ns, wait_ns],
            [wire_in, wire_out],
        );
    }

    fn topology_changed(&mut self, now: f64, kind: &'static str, node: u32) {
        self.clock = now;
        self.registry.delivered(MessageClass::Topology);
        self.repair.on_topology(now);
        self.topo_marks.push((now, kind, node));
        self.samples.push((now, self.registry.delivered_by_class()));
        self.flight.push(FlightEvent {
            now,
            class: MessageClass::Topology,
            from: node,
            to: u32::MAX,
        });
    }

    fn selection_changed(&mut self, now: f64, _node: u32) {
        self.repair.on_selection(now);
    }

    fn phase_begin(&mut self, phase: Phase, now: f64) {
        self.phases.begin(phase, now);
    }

    fn phase_end(&mut self, phase: Phase, now: f64) {
        self.phases.end(phase, now);
    }

    fn finish(&mut self, now: f64) {
        self.end_time = now;
        self.repair.finish(now);
        self.phases.finish(now);
    }
}

impl MergeRecorder for FullRecorder {
    /// Merge a sharded run's per-shard recorders. Every shard replays all
    /// topology events but records only its own nodes' traffic, so:
    /// counters and latency histograms add, repair windows take the
    /// slowest shard per event, flight rings interleave by time, phase
    /// spans concatenate, window accounting lines up by shard id. The
    /// topology marks are identical on every shard (one per replayed
    /// event) and are kept once; the delivered-by-class
    /// samples taken at those marks add elementwise into the global
    /// cumulative track. Topology deliveries are replayed per shard, so
    /// their registry row is rescaled back to one count per event.
    fn absorb(&mut self, other: Self) {
        self.registry.absorb(&other.registry);
        // `other` replayed the same topology events this recorder already
        // counted (its marks are a copy of ours) — rescale the topology
        // delivered row back to one count per event.
        self.registry
            .undo_delivered(MessageClass::Topology, other.topo_marks.len() as u64);
        self.repair.absorb(&other.repair);
        self.flight.absorb(&other.flight);
        self.phases.absorb(&other.phases);
        if self.windows.len() < other.windows.len() {
            self.windows
                .resize_with(other.windows.len(), ShardWindows::default);
        }
        for (mine, theirs) in self.windows.iter_mut().zip(other.windows) {
            mine.absorb(theirs);
        }
        let topo_idx = MessageClass::Topology.index();
        for (i, (t, sample)) in other.samples.into_iter().enumerate() {
            match self.samples.get_mut(i) {
                Some((_, mine)) => {
                    for (j, (a, b)) in mine.iter_mut().zip(sample.iter()).enumerate() {
                        // The topology column is the replayed event count
                        // itself — identical on both sides, not additive.
                        if j != topo_idx {
                            *a += b;
                        }
                    }
                }
                None => self.samples.push((t, sample)),
            }
        }
        if self.topo_marks.len() < other.topo_marks.len() {
            self.topo_marks = other.topo_marks;
        }
        self.end_time = self.end_time.max(other.end_time);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::validate_json;

    /// Drive a synthetic run through the full recorder and validate the
    /// exported timeline end-to-end.
    #[test]
    fn synthetic_run_exports_valid_trace() {
        let mut r = FullRecorder::new().with_settle_gap(5.0);
        r.phase_begin(Phase::Build, 0.0);
        r.phase_end(Phase::Build, 0.0);
        r.phase_begin(Phase::Boot, 0.0);
        for t in 0..10 {
            r.message_sent(t as f64, MessageClass::Flood, 4, 256);
            r.message_delivered(t as f64, MessageClass::Flood, t, t + 1);
            r.event_done(MessageClass::Flood, 800 + t as u64);
        }
        r.phase_end(Phase::Boot, 10.0);
        r.phase_begin(Phase::Churn, 10.0);
        r.topology_changed(12.0, "leave", 3);
        r.selection_changed(13.0, 4);
        r.message_dropped(13.5, MessageClass::Withdraw, 2);
        r.topology_changed(30.0, "join", 3);
        r.selection_changed(30.5, 4);
        r.finish(60.0);

        assert_eq!(r.registry.stats(MessageClass::Flood).delivered, 10);
        assert_eq!(r.repair.latencies(), &[1.0, 0.5]);
        assert_eq!(r.flight.total_recorded(), 12);

        let summary = r.summary_lines();
        assert!(summary.contains("flood=40/10/0"), "{summary}");
        assert!(summary.contains("events=2"), "{summary}");

        let json = r.chrome_trace_json();
        validate_json(&json).expect("trace must be valid JSON");
        for needle in [
            "\"build\"",
            "\"boot\"",
            "\"churn\"",
            "\"repair\"",
            "delivered by class",
            "disco_summary",
        ] {
            assert!(json.contains(needle), "missing {needle}");
        }
    }

    /// Two shards' recorders fold their own windows; the merge lines them
    /// up by shard id and the trace grows one counter track per shard.
    #[test]
    fn window_accounting_merges_by_shard_and_exports() {
        let shard = |id: u32| {
            let mut r = FullRecorder::new();
            for t in 0..4u32 {
                r.message_delivered(t as f64, MessageClass::Flood, 0, 1);
                r.window_done(id, 5, 1_000 * (id as u64 + 1), 100, 10, 2, 3);
            }
            r.finish(4.0);
            r
        };
        let mut merged = shard(0);
        merged.absorb(shard(1));
        assert_eq!(merged.windows.len(), 2);
        assert_eq!(merged.windows[0].totals_ns(), [4_000, 400, 40]);
        assert_eq!(merged.windows[1].totals_ns(), [8_000, 400, 40]);
        assert_eq!(merged.windows[1].windows(), 4);
        assert_eq!(merged.windows[1].wire_out, 12);
        assert!(
            !merged.summary_lines().contains("shard"),
            "wall-clock stays out of the deterministic summary"
        );
        let json = merged.chrome_trace_json();
        validate_json(&json).expect("trace must be valid JSON");
        for needle in [
            "shard 0 wall ns",
            "shard 1 wall ns",
            "\"shards\":[{\"shard\":0",
        ] {
            assert!(json.contains(needle), "missing {needle}");
        }
    }

    /// Two identical synthetic runs produce byte-identical deterministic
    /// summaries (wall-clock only lives in the trace args).
    #[test]
    fn summary_lines_are_deterministic() {
        let run = || {
            let mut r = FullRecorder::new();
            r.message_sent(1.0, MessageClass::Gossip, 2, 64);
            r.message_delivered(1.5, MessageClass::Gossip, 0, 1);
            r.topology_changed(2.0, "link_down", 5);
            r.selection_changed(3.0, 1);
            r.finish(100.0);
            r.summary_lines()
        };
        assert_eq!(run(), run());
    }
}
