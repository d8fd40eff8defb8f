//! Observer-effect freedom: attaching the full telemetry recorder must not
//! change anything the protocol can see. The engine's instrumentation is
//! guarded by `R::ENABLED`, consumes no RNG, and never touches event
//! ordering — so a churn run observed by [`FullRecorder`] must produce a
//! summary byte-identical to the [`NoopRecorder`] (golden-locked) run, and
//! the telemetry itself (histograms, repair quantiles) must be a pure
//! function of `(nodes, seed)`.

use disco_bench::churn::{churn_experiment, ChurnOutcome, ChurnParams};
use disco_sim::NoopRecorder;
use disco_telemetry::{validate_json, FullRecorder};

fn observed(params: &ChurnParams) -> (ChurnOutcome, FullRecorder) {
    churn_experiment(params, 1, |_| FullRecorder::new())
}

/// The full recorder observes without perturbing: summary bytes match the
/// no-op run (which is itself locked by `churn_golden.rs`).
#[test]
fn full_recorder_is_observer_effect_free() {
    let params = ChurnParams::sized(96, 11);
    let (baseline, NoopRecorder) = churn_experiment(&params, 1, |_| NoopRecorder);
    let baseline = baseline.summary(&params);
    let (outcome, rec) = observed(&params);
    assert_eq!(
        outcome.summary(&params),
        baseline,
        "attaching the full recorder changed protocol-visible output"
    );
    // And the recorder actually saw the run.
    assert!(rec.registry.messages_delivered() > 0);
    assert!(!rec.repair.latencies().is_empty());
}

/// Telemetry is deterministic: two same-seed runs yield byte-identical
/// summary lines (message-class counters, wall-free repair quantiles) and
/// identical repair-latency samples.
#[test]
fn telemetry_is_deterministic_across_same_seed_runs() {
    let params = ChurnParams::sized(96, 11);
    let (_, a) = observed(&params);
    let (_, b) = observed(&params);
    assert_eq!(a.repair.latencies(), b.repair.latencies());
    assert_eq!(a.summary_lines(), b.summary_lines());
    assert_eq!(
        a.registry.delivered_by_class(),
        b.registry.delivered_by_class()
    );
}

/// The exported Chrome trace is valid JSON and carries all four phase
/// spans plus the deterministic summary object.
#[test]
fn chrome_trace_is_valid_and_carries_phases() {
    let params = ChurnParams::sized(96, 11);
    let (_, rec) = observed(&params);
    let json = rec.chrome_trace_json();
    validate_json(&json).expect("trace must be valid JSON");
    for phase in ["\"build\"", "\"boot\"", "\"churn\"", "\"drain\""] {
        assert!(json.contains(phase), "trace missing phase span {phase}");
    }
    assert!(json.contains("\"disco_summary\""));
    assert!(json.contains("\"traceEvents\""));
}
