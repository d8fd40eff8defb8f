//! Dynamics — route availability, stretch and repair traffic under
//! steady-state Poisson churn (extends the paper's Fig. 8 messaging
//! methodology from one-shot convergence to a dynamic network).
//!
//! The summary is a pure function of `(--nodes, --seed)`: the same
//! invocation reproduces byte-identical output, which is how churn
//! regressions are caught.
//!
//! Run with: `cargo run --release -p disco-bench --bin exp_churn`
//! (defaults: 512 nodes, seed 1).
//!
//! Pass `--forgetful` to run the path-vector layer with forgetful
//! eviction (`DiscoConfig::forgetful_dynamic`); the summary then carries a
//! `forgetful=on` marker and is locked by its own golden file.
//!
//! Pass `--static-n` to pin every node to its construction-time estimate
//! of `n` (`DiscoConfig::dynamic_n_estimation` is on by default); the
//! summary then carries a `static_n=on` marker.
//!
//! Pass `--shards K` (default 1) to run on `K` engine shards. The summary
//! is byte-identical for every shard count — that invariant is
//! golden-locked; `--shards` exists to exercise and time the parallel
//! path, and combines with every flag below.
//!
//! Telemetry flags (all optional; with none of them the engine runs the
//! no-op recorder and the output is the golden-locked summary alone):
//!
//! * `--telemetry` — run with the full recorder and append the
//!   deterministic telemetry summary (msgs by class, repair latency
//!   quantiles).
//! * `--trace PATH` — additionally export the run as a Chrome
//!   `trace_event` JSON timeline (open in `chrome://tracing` or perfetto).
//! * `--smoke` — CI mode: small run (192 nodes unless `--nodes` is given),
//!   asserts quiescence/availability, validates the emitted trace JSON and
//!   its phase spans, dumps the flight recorder and exits non-zero on
//!   failure.

use disco_bench::churn::{churn_experiment, ChurnParams};
use disco_bench::cli::{exit_on_failures, write_trace, Flags};
use disco_bench::CommonArgs;
use disco_sim::NoopRecorder;
use disco_telemetry::{validate_json, FullRecorder};

fn main() {
    let mut flags = Flags::from_env();
    let forgetful = flags.switch("--forgetful");
    let static_n = flags.switch("--static-n");
    let telemetry = flags.switch("--telemetry");
    let smoke = flags.switch("--smoke");
    let shards = flags.shards();
    let trace: Option<String> = flags.value("--trace");
    let args = CommonArgs::from_flags(flags, if smoke { 192 } else { 512 });
    let params = ChurnParams::sized(args.nodes, args.seed)
        .with_forgetful(forgetful)
        .with_static_n(static_n);

    if !(telemetry || smoke || trace.is_some()) {
        // Telemetry off: the engine monomorphizes with the no-op recorder —
        // exactly the golden-locked code path.
        let (outcome, NoopRecorder) = churn_experiment(&params, shards, |_| NoopRecorder);
        print!("{}", outcome.summary(&params));
        return;
    }

    let (outcome, rec) = churn_experiment(&params, shards, |_| FullRecorder::new());
    print!("{}", outcome.summary(&params));
    print!("{}", rec.summary_lines());

    if let Some(path) = &trace {
        write_trace(path, &rec);
    }

    if smoke {
        let window = &outcome.window;
        let mut failures: Vec<String> = Vec::new();
        if !window.quiesced {
            failures.push("network failed to quiesce after churn".into());
        }
        if window.availability < 0.90 {
            failures.push(format!(
                "availability under churn {:.4} < 0.90",
                window.availability
            ));
        }
        if window.final_availability < 0.99 {
            failures.push(format!(
                "post-repair availability {:.4} < 0.99",
                window.final_availability
            ));
        }
        if rec.repair.latencies().is_empty() {
            failures.push("repair probe recorded no windows despite churn".into());
        }
        if let Some(path) = &trace {
            match std::fs::read_to_string(path) {
                Ok(json) => {
                    if let Err(e) = validate_json(&json) {
                        failures.push(format!("trace JSON invalid: {e}"));
                    }
                    for phase in ["\"build\"", "\"boot\"", "\"churn\"", "\"drain\""] {
                        if !json.contains(phase) {
                            failures.push(format!("trace missing phase span {phase}"));
                        }
                    }
                }
                Err(e) => failures.push(format!("re-reading trace {path}: {e}")),
            }
        }
        if !failures.is_empty() {
            eprint!("{}", rec.flight.dump());
        }
        exit_on_failures(&failures);
        println!("smoke OK");
    }
}
