//! Phase spans: named experiment phases with simulation-time bounds plus
//! wall-clock and RSS deltas.

use crate::recorder::Phase;
use std::time::Instant;

/// Current resident set size (`VmRSS`) of this process in bytes; 0 where
/// `/proc` is unavailable (non-Linux). Best-effort by design: RSS numbers
/// annotate the timeline and never feed a deterministic summary.
pub fn current_rss_bytes() -> u64 {
    proc_status_kb("VmRSS:") * 1024
}

/// Peak resident set size (`VmHWM`) of this process in bytes; 0 where
/// unreadable.
pub fn peak_rss_bytes() -> u64 {
    proc_status_kb("VmHWM:") * 1024
}

/// The kB value of the `field` line of `/proc/self/status` (0 if absent).
fn proc_status_kb(field: &str) -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    let line = status.lines().find_map(|l| l.strip_prefix(field));
    let kb = line.map(|rest| rest.trim().trim_end_matches("kB").trim().parse());
    kb.and_then(Result::ok).unwrap_or(0)
}

/// One closed phase span.
#[derive(Debug, Clone, Copy)]
pub struct PhaseSpan {
    /// Which phase.
    pub phase: Phase,
    /// Simulation time at begin.
    pub sim_start: f64,
    /// Simulation time at end.
    pub sim_end: f64,
    /// Wall-clock seconds spent in the phase.
    pub wall_secs: f64,
    /// `VmRSS` at begin (bytes; 0 where unreadable).
    pub rss_start: u64,
    /// `VmRSS` at end.
    pub rss_end: u64,
}

impl PhaseSpan {
    /// RSS growth over the phase (bytes; clamps at 0 when RSS shrank).
    pub fn rss_delta(&self) -> i64 {
        self.rss_end as i64 - self.rss_start as i64
    }
}

/// Span collector. Phases may nest or interleave freely; `end` closes the
/// most recent open span of that phase.
#[derive(Debug, Clone, Default)]
pub struct PhaseSpans {
    open: Vec<(Phase, f64, Instant, u64)>,
    closed: Vec<PhaseSpan>,
}

impl PhaseSpans {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Open a span of `phase` at simulation time `now`.
    pub fn begin(&mut self, phase: Phase, now: f64) {
        self.open
            .push((phase, now, Instant::now(), current_rss_bytes()));
    }

    /// Close the most recent open span of `phase` at simulation time
    /// `now`. Unmatched ends are ignored.
    pub fn end(&mut self, phase: Phase, now: f64) {
        let Some(pos) = self.open.iter().rposition(|&(p, ..)| p == phase) else {
            return;
        };
        let (phase, sim_start, t0, rss_start) = self.open.remove(pos);
        self.closed.push(PhaseSpan {
            phase,
            sim_start,
            sim_end: now,
            wall_secs: t0.elapsed().as_secs_f64(),
            rss_start,
            rss_end: current_rss_bytes(),
        });
    }

    /// Close anything still open at `now`.
    pub fn finish(&mut self, now: f64) {
        while let Some(&(phase, ..)) = self.open.last() {
            self.end(phase, now);
        }
    }

    /// Append another collector's closed spans (merge of a sharded run's
    /// per-shard span sets; open spans should be closed via
    /// [`PhaseSpans::finish`] first).
    pub fn absorb(&mut self, other: &PhaseSpans) {
        self.closed.extend_from_slice(&other.closed);
    }

    /// Closed spans, in close order.
    pub fn spans(&self) -> &[PhaseSpan] {
        &self.closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn begin_end_pairs_by_phase() {
        let mut s = PhaseSpans::new();
        s.begin(Phase::Build, 0.0);
        s.end(Phase::Build, 0.0);
        s.begin(Phase::Boot, 0.0);
        s.end(Phase::Boot, 42.0);
        s.end(Phase::Drain, 99.0); // unmatched: ignored
        assert_eq!(s.spans().len(), 2);
        assert_eq!(s.spans()[1].phase, Phase::Boot);
        assert_eq!(s.spans()[1].sim_end, 42.0);
        assert!(s.spans()[0].wall_secs >= 0.0);
    }

    #[test]
    fn finish_closes_open_spans() {
        let mut s = PhaseSpans::new();
        s.begin(Phase::Churn, 10.0);
        s.begin(Phase::Drain, 20.0);
        s.finish(30.0);
        assert_eq!(s.spans().len(), 2);
        assert!(s.spans().iter().all(|sp| sp.sim_end == 30.0));
    }

    #[test]
    fn rss_reads_do_not_panic() {
        let now = current_rss_bytes();
        assert!(
            peak_rss_bytes() >= now,
            "the high-water mark is at least the RSS"
        );
    }
}
