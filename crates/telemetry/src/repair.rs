//! Repair-latency probe: sim-time from a topology event until route
//! selection restabilizes.
//!
//! Every [`topology event`](crate::Recorder::topology_changed) opens a
//! *window*. Every [`selection change`](crate::Recorder::selection_changed)
//! stamps the activity time of all open windows. A window closes once no
//! selection change has happened for [`SETTLE_GAP`] simulation-time units
//! after its last activity; its latency is `last_activity − start` (zero if
//! the event provoked no selection change at all — the failure was
//! invisible to routing). This turns the churn experiment's availability
//! point-probes into a distribution: *how long* the control plane took to
//! restabilize after each of the run's topology events.
//!
//! Everything here is simulation time, so the distribution is a pure
//! function of the run's seed — the determinism test compares two
//! same-seed runs' rendered histograms byte-for-byte.

use std::fmt::Write as _;

/// Simulation time without selection activity after which a window is
/// settled. It sits well above the path-vector batch delay (2.0) and below
/// the protocols' repair debounce (60.0), so one window tracks one repair
/// wave.
pub const SETTLE_GAP: f64 = 25.0;

/// One still-open repair window.
#[derive(Debug, Clone, Copy)]
struct Window {
    start: f64,
    last: Option<f64>,
}

/// The probe. Feed it topology and selection-change events in
/// non-decreasing time order; read the closed-window latencies at the end.
#[derive(Debug, Clone, Default)]
pub struct RepairProbe {
    open: Vec<Window>,
    latencies: Vec<f64>,
}

impl RepairProbe {
    /// Close every open window whose last activity is at least
    /// [`SETTLE_GAP`] before `now`.
    fn sweep(&mut self, now: f64) {
        let latencies = &mut self.latencies;
        self.open.retain(|w| {
            if w.last.unwrap_or(w.start) + SETTLE_GAP <= now {
                latencies.push(w.last.map_or(0.0, |l| l - w.start));
                false
            } else {
                true
            }
        });
    }

    /// A topology event fired at `now`: open a window.
    pub fn on_topology(&mut self, now: f64) {
        self.sweep(now);
        self.open.push(Window {
            start: now,
            last: None,
        });
    }

    /// A selection column changed at `now`: stamp all open windows.
    pub fn on_selection(&mut self, now: f64) {
        self.sweep(now);
        for w in &mut self.open {
            w.last = Some(now);
        }
    }

    /// The run ended: close everything still open, whether or not its
    /// settle gap has elapsed (quiescence is as settled as it gets).
    pub fn finish(&mut self, _now: f64) {
        for w in self.open.drain(..) {
            self.latencies.push(w.last.map_or(0.0, |l| l - w.start));
        }
    }

    /// Merge another probe's closed windows into this one by elementwise
    /// *maximum*. In a sharded run every shard opens a window for every
    /// topology event (replicas replay them all) but stamps it only with
    /// its own nodes' selection changes — so window `i` exists on every
    /// shard and the global repair latency of event `i` is the slowest
    /// shard's: the control plane has restabilized only once the last node
    /// anywhere stops reselecting. Call after [`RepairProbe::finish`] on
    /// both sides.
    pub fn absorb(&mut self, other: &RepairProbe) {
        for (i, &lat) in other.latencies.iter().enumerate() {
            match self.latencies.get_mut(i) {
                Some(mine) => *mine = mine.max(lat),
                None => self.latencies.push(lat),
            }
        }
    }

    /// Closed-window latencies, in window-open order.
    pub fn latencies(&self) -> &[f64] {
        &self.latencies
    }

    /// Windows still open (0 after [`RepairProbe::finish`]).
    pub fn open_windows(&self) -> usize {
        self.open.len()
    }

    /// Exact `q`-quantile over the closed latencies (nearest-rank on a
    /// sorted copy); 0 when empty. Repair events number in the hundreds,
    /// so exact beats bucketed here.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.latencies.is_empty() {
            return 0.0;
        }
        let mut sorted = self.latencies.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1);
        sorted[rank - 1]
    }

    /// Deterministic summary line: event count, quantiles and max of the
    /// repair-latency distribution, in sim-time units.
    pub fn summary_line(&self) -> String {
        let n = self.latencies.len();
        let max = self.latencies.iter().copied().fold(0.0f64, f64::max);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "telemetry repair latency: events={} p50={:.2} p90={:.2} p99={:.2} max={:.2} (sim units, settle_gap={})",
            n,
            self.quantile(0.50),
            self.quantile(0.90),
            self.quantile(0.99),
            max,
            SETTLE_GAP,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_closes_after_settle_gap() {
        let mut p = RepairProbe::default();
        p.on_topology(100.0);
        p.on_selection(101.0);
        p.on_selection(105.0);
        // Activity at 105 keeps the window open until 105 + SETTLE_GAP…
        p.on_topology(114.0);
        assert_eq!(p.open_windows(), 2);
        // …but by then the first window (last activity 105) has settled.
        p.on_selection(106.0 + SETTLE_GAP);
        assert_eq!(p.latencies(), &[5.0]);
        p.finish(1000.0);
        assert_eq!(p.open_windows(), 0);
        // Second window: opened at 114, last stamped at 106 + SETTLE_GAP.
        assert_eq!(p.latencies(), &[5.0, SETTLE_GAP - 8.0]);
    }

    #[test]
    fn invisible_event_scores_zero() {
        let mut p = RepairProbe::default();
        p.on_topology(1.0);
        p.finish(100.0);
        assert_eq!(p.latencies(), &[0.0]);
    }

    #[test]
    fn quantiles_are_exact() {
        let mut p = RepairProbe::default();
        // Window i sees its one selection change (i + 1) / 8 after it
        // opens: at most 12.5, inside the settle gap.
        for i in 0..100 {
            p.on_topology(i as f64 * 1000.0);
            p.on_selection(i as f64 * 1000.0 + (i + 1) as f64 / 8.0);
        }
        p.finish(1e9);
        assert_eq!(p.latencies().len(), 100);
        assert_eq!(p.quantile(0.5), 6.25);
        assert_eq!(p.quantile(0.99), 12.375);
        assert_eq!(p.quantile(1.0), 12.5);
        let line = p.summary_line();
        assert!(line.contains("events=100"), "{line}");
    }
}
