//! Harness-side spans: one row per call into a layer, recorded from the
//! benchmark's own files (nothing under `crates/` is instrumented). Rows
//! stay in memory during the run and are written as a Chrome
//! `trace_event` document when it ends. A span always measures — callers
//! use the returned seconds for the untraced metrics too — but it only
//! keeps a row when tracing is on.

use disco_telemetry::ChromeTrace;
use std::time::Instant;

/// Row id of a kept span; `None` when tracing is off.
pub type SpanId = Option<u32>;

struct Row {
    name: &'static str,
    start_ns: u64,
    dur_ns: u64,
    parent: SpanId,
    /// Spans of one operation (one repair event, one batch) share it.
    group: u64,
}

/// An opened span: close it with [`Spans::close`].
pub struct Open {
    id: SpanId,
    start: Instant,
}

impl Open {
    /// The id to hand to child spans as their parent.
    pub fn id(&self) -> SpanId {
        self.id
    }
}

pub struct Spans {
    on: bool,
    t0: Instant,
    rows: Vec<Row>,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            t0: Instant::now(),
            rows: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    pub fn open(&mut self, name: &'static str, parent: SpanId, group: u64) -> Open {
        let start = Instant::now();
        let id = self.on.then(|| {
            self.rows.push(Row {
                name,
                start_ns: start.duration_since(self.t0).as_nanos() as u64,
                dur_ns: 0,
                parent,
                group,
            });
            (self.rows.len() - 1) as u32
        });
        Open { id, start }
    }

    /// End the span; returns its duration in seconds.
    pub fn close(&mut self, open: Open) -> f64 {
        let dur = open.start.elapsed();
        if let Some(id) = open.id {
            self.rows[id as usize].dur_ns = dur.as_nanos() as u64;
        }
        dur.as_secs_f64()
    }

    /// Time one call as a leaf span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        group: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let open = self.open(name, parent, group);
        let out = f();
        (out, self.close(open))
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Self time of every row: its duration minus what its direct
    /// children cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.rows.iter().map(|r| r.dur_ns).collect();
        for r in &self.rows {
            if let Some(p) = r.parent {
                own[p as usize] = own[p as usize].saturating_sub(r.dur_ns);
            }
        }
        own
    }

    /// Total self time per span name, in seconds, largest first.
    pub fn self_seconds_by_name(&self) -> Vec<(&'static str, f64)> {
        let mut by_name: Vec<(&'static str, u64)> = Vec::new();
        for (r, own) in self.rows.iter().zip(self.self_ns()) {
            match by_name.iter_mut().find(|(n, _)| *n == r.name) {
                Some(slot) => slot.1 += own,
                None => by_name.push((r.name, own)),
            }
        }
        by_name.sort_by_key(|&(_, ns)| std::cmp::Reverse(ns));
        by_name
            .into_iter()
            .map(|(n, ns)| (n, ns as f64 * 1e-9))
            .collect()
    }

    /// Add every row to `trace` on track `tid`; `args` carry the span's
    /// id, parent, group and self time.
    pub fn export(&self, trace: &mut ChromeTrace, tid: u32) {
        for (id, (r, own)) in self.rows.iter().zip(self.self_ns()).enumerate() {
            let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
            let args = format!(
                "{{\"id\":{id},\"parent\":{parent},\"group\":{},\"self_us\":{:.3}}}",
                r.group,
                own as f64 / 1e3
            );
            trace.complete(
                r.name,
                tid,
                r.start_ns as f64 / 1e3,
                r.dur_ns as f64 / 1e3,
                Some(&args),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disco_telemetry::validate_json;

    #[test]
    fn off_measures_but_keeps_nothing() {
        let mut s = Spans::new(false);
        let open = s.open("event", None, 1);
        assert_eq!(open.id(), None);
        assert!(s.close(open) >= 0.0);
        assert!(s.is_empty());
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut s = Spans::new(true);
        let event = s.open("event", None, 7);
        let ((), _) = s.time("ctrl", event.id(), 7, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        s.close(event);
        assert_eq!(s.len(), 2);
        let own = s.self_ns();
        assert!(own[1] >= 2_000_000);
        assert_eq!(own[0], s.rows[0].dur_ns - s.rows[1].dur_ns);
        let mut trace = ChromeTrace::new();
        s.export(&mut trace, 1);
        validate_json(&trace.into_json(&[])).unwrap();
    }
}
