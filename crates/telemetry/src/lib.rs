//! # disco-telemetry
//!
//! Zero-cost-when-off structured observability for the deterministic
//! engine.
//!
//! The repo's experiments can *summarize* a run ([`disco_sim`'s
//! `MessageStats`], control-bytes gauges, peak RSS) but could not *explain*
//! one: which message classes dominate a churn storm, how long each repair
//! actually takes, where wall-clock goes between boot and convergence. This
//! crate adds that visibility as a [`Recorder`] trait the engine is generic
//! over:
//!
//! * [`NoopRecorder`] — the default. Its `ENABLED` constant is `false`, so
//!   every instrumentation site in the engine's hot path is guarded by
//!   `if R::ENABLED { … }` and monomorphizes to *nothing*: the off path
//!   compiles to exactly the un-instrumented engine, and the byte-identical
//!   churn goldens lock that in.
//! * [`FullRecorder`] — the everything-on composition used by the bench
//!   binaries' `--telemetry` / `--trace` flags:
//!   a per-[`MessageClass`] counter registry with log₂-bucketed
//!   event-latency histograms ([`ClassRegistry`]), a repair-latency probe
//!   turning availability from a point probe into a sim-time latency
//!   distribution ([`RepairProbe`]), a bounded flight recorder of the last
//!   N engine events for postmortems ([`FlightRecorder`]), phase spans
//!   carrying wall-clock and RSS deltas ([`PhaseSpans`]), and — for sharded
//!   runs — each worker's wall-clock split into work, cross-shard ingest
//!   and barrier wait per lookahead window ([`ShardWindows`]).
//!
//! A [`FullRecorder`] run can be exported as a Chrome `trace_event` JSON
//! timeline ([`FullRecorder::chrome_trace_json`]) and opened in
//! `chrome://tracing` or <https://ui.perfetto.dev>; [`Json`] is the one
//! JSON tree every summary and report is rendered from and parsed into.
//! Everything derived from *simulation* time or message counts is
//! deterministic in the run's seed; wall-clock and RSS numbers are the only
//! non-deterministic fields and are kept out of the deterministic
//! summaries.
//!
//! The crate is dependency-free (node ids are plain `u32`, simulation time
//! is `f64`), so it sits below `disco-sim` in the workspace graph.

pub mod flight;
pub mod histogram;
pub mod json;
pub mod recorder;
pub mod registry;
pub mod repair;
pub mod spans;
pub mod trace;
pub mod windows;

mod full;

pub use flight::{FlightEvent, FlightRecorder};
pub use full::FullRecorder;
pub use histogram::Log2Histogram;
pub use json::{parse_json, validate_json, Json};
pub use recorder::{MergeRecorder, MessageClass, NoopRecorder, Phase, Recorder};
pub use registry::{ClassRegistry, ClassStats};
pub use repair::RepairProbe;
pub use spans::{current_rss_bytes, peak_rss_bytes, PhaseSpan, PhaseSpans};
pub use trace::ChromeTrace;
pub use windows::ShardWindows;
