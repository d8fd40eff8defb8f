//! Chrome `trace_event` timeline export.
//!
//! The emitted file is the JSON object format
//! (`{"traceEvents": [...], ...}`) understood by `chrome://tracing` and
//! <https://ui.perfetto.dev>. Simulation time maps to trace microseconds
//! at 1 sim unit = 1 ms, so a 2000-unit churn window renders as a 2 s
//! timeline.

use crate::json::Json;
pub use crate::json::{escape_json, validate_json};
use std::fmt::Write as _;

/// Microseconds per simulation time unit in the exported timeline.
pub const US_PER_SIM_UNIT: f64 = 1000.0;

/// A timestamp or duration in trace microseconds, as the viewers read it.
fn num(v: f64) -> String {
    Json::Fixed(v, 3).compact()
}

/// Incremental builder of a `trace_event` JSON document. All events share
/// pid 1; tracks are separated by `tid`.
#[derive(Debug, Clone, Default)]
pub struct ChromeTrace {
    events: Vec<String>,
}

impl ChromeTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Name a thread track (metadata event).
    pub fn thread_name(&mut self, tid: u32, name: &str) {
        self.events.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
             \"args\":{{\"name\":\"{}\"}}}}",
            escape_json(name)
        ));
    }

    /// A complete span (`ph:"X"`): `ts`/`dur` in trace microseconds.
    /// `args_json` is a ready-made JSON object literal or `None`.
    pub fn complete(
        &mut self,
        name: &str,
        tid: u32,
        ts_us: f64,
        dur_us: f64,
        args_json: Option<&str>,
    ) {
        let args = args_json.unwrap_or("{}");
        self.events.push(format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\
             \"ts\":{},\"dur\":{},\"args\":{args}}}",
            escape_json(name),
            num(ts_us),
            num(dur_us.max(0.0)),
        ));
    }

    /// An instant event (`ph:"i"`, thread scope).
    pub fn instant(&mut self, name: &str, tid: u32, ts_us: f64) {
        self.events.push(format!(
            "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{tid},\"ts\":{}}}",
            escape_json(name),
            num(ts_us),
        ));
    }

    /// A counter sample (`ph:"C"`): `series` is `(name, value)` pairs
    /// plotted as a stacked track.
    pub fn counter(&mut self, name: &str, ts_us: f64, series: &[(&str, u64)]) {
        let args = Json::obj(series.iter().map(|&(k, v)| (k, Json::Int(v)))).compact();
        self.events.push(format!(
            "{{\"name\":\"{}\",\"ph\":\"C\",\"pid\":1,\"ts\":{},\"args\":{args}}}",
            escape_json(name),
            num(ts_us),
        ));
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events were queued.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Render the document. `extra` adds top-level `"key": value` members
    /// next to `traceEvents` (values must be valid JSON; viewers ignore
    /// unknown keys).
    pub fn into_json(self, extra: &[(&str, String)]) -> String {
        let mut out = String::from("{\n\"traceEvents\":[\n");
        for (i, e) in self.events.iter().enumerate() {
            out.push_str(e);
            if i + 1 < self.events.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("],\n\"displayTimeUnit\":\"ms\"");
        for (k, v) in extra {
            let _ = write!(out, ",\n\"{}\":{v}", escape_json(k));
        }
        out.push_str("\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_builder_emits_valid_json() {
        let mut t = ChromeTrace::new();
        t.thread_name(1, "engine phases");
        t.complete("churn", 1, 0.0, 2_000_000.0, Some("{\"wall_ms\":12.5}"));
        t.instant("leave node 7", 3, 1234.5);
        t.counter(
            "delivered by class",
            1000.0,
            &[("flood", 42), ("deliver", 7)],
        );
        let json = t.into_json(&[("disco_summary", "{\"n\":192}".to_string())]);
        validate_json(&json).expect("trace JSON must validate");
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"disco_summary\""));
        assert!(json.contains("\"ph\":\"C\""));
    }
}
