//! Cross-refactor determinism lock: the churn experiment's summary must be
//! byte-identical to the output recorded *before* the million-node hot-path
//! refactor (timer-wheel event queue, interned paths, incremental route
//! selection). Any change to event ordering, RNG consumption or float
//! arithmetic in the hot path shows up here as a diff.
//!
//! To regenerate after an *intentional* behavior change:
//! `cargo run --release -p disco-bench --bin exp_churn -- --nodes 192 --seed 7`
//! and replace `tests/golden/exp_churn_n192_s7.txt` — but byte-identity is
//! the point, so think twice.

use disco_bench::churn::{churn_experiment, ChurnOutcome, ChurnParams};
use disco_sim::NoopRecorder;
use disco_telemetry::{validate_json, FullRecorder};

fn run(params: &ChurnParams, shards: usize) -> ChurnOutcome {
    churn_experiment(params, shards, |_| NoopRecorder).0
}

const GOLDEN: &str = include_str!("golden/exp_churn_n192_s7.txt");
const GOLDEN_FORGETFUL: &str = include_str!("golden/exp_churn_forgetful_n192_s7.txt");

#[test]
fn exp_churn_summary_matches_pre_refactor_golden() {
    let params = ChurnParams::sized(192, 7);
    let outcome = run(&params, 1);
    let summary = outcome.summary(&params);
    assert!(
        summary == GOLDEN,
        "exp_churn(n=192, seed=7) diverged from the pre-refactor golden.\n\
         --- golden ---\n{GOLDEN}\n--- got ---\n{summary}"
    );
}

/// Forgetful eviction gets its own golden (`exp_churn --forgetful`): the
/// bounded-RIB repair dynamics are locked the same way the full-RIB
/// baseline is, and the two goldens' availability lines document that
/// forgetting alternates does not cost availability (0.9805 forgetful vs
/// 0.9727 full-RIB at this size).
#[test]
fn exp_churn_forgetful_summary_matches_golden() {
    let params = ChurnParams::sized(192, 7).with_forgetful(true);
    let outcome = run(&params, 1);
    let summary = outcome.summary(&params);
    assert!(
        summary == GOLDEN_FORGETFUL,
        "exp_churn(n=192, seed=7, forgetful) diverged from its golden.\n\
         --- golden ---\n{GOLDEN_FORGETFUL}\n--- got ---\n{summary}"
    );
}

/// The shard count is an implementation detail, not a different
/// simulation: `exp_churn --shards K` must reproduce the golden
/// byte-for-byte at every shard count (1, 2, 4). Conservative-lookahead
/// windows, logical event keys and the owner-side probe gathers together
/// make every schedule observationally identical.
#[test]
fn exp_churn_sharded_summary_is_shard_count_invariant() {
    let params = ChurnParams::sized(192, 7);
    for shards in [2usize, 4] {
        let summary = run(&params, shards).summary(&params);
        assert!(
            summary == GOLDEN,
            "exp_churn(n=192, seed=7, shards={shards}) diverged from the \
             golden.\n--- golden ---\n{GOLDEN}\n--- got ---\n{summary}"
        );
    }
}

/// Shards and telemetry compose: two threaded shards, each under a full
/// recorder, still reproduce the golden, and the merged recorder exports a
/// valid timeline carrying the run's four phase spans (marked on shard 0)
/// and both shards' window tracks.
#[test]
fn exp_churn_traced_at_two_shards_matches_golden_and_exports_phases() {
    let params = ChurnParams::sized(192, 7);
    let (outcome, rec) = churn_experiment(&params, 2, |_| FullRecorder::new());
    let summary = outcome.summary(&params);
    assert!(
        summary == GOLDEN,
        "exp_churn(n=192, seed=7, shards=2, full recorder) diverged from the \
         golden.\n--- golden ---\n{GOLDEN}\n--- got ---\n{summary}"
    );
    assert_eq!(
        rec.registry.messages_delivered(),
        outcome.messages_delivered
    );
    assert!(!rec.repair.latencies().is_empty());
    let json = rec.chrome_trace_json();
    validate_json(&json).expect("trace must be valid JSON");
    for needle in [
        "\"build\"",
        "\"boot\"",
        "\"churn\"",
        "\"drain\"",
        "shard 0 wall ns",
        "shard 1 wall ns",
    ] {
        assert!(json.contains(needle), "trace missing {needle}");
    }
}

/// Same invariance for the forgetful-eviction golden: bounded candidate
/// sets and route-refresh re-solicitation survive sharding unchanged.
#[test]
fn exp_churn_forgetful_sharded_summary_is_shard_count_invariant() {
    let params = ChurnParams::sized(192, 7).with_forgetful(true);
    for shards in [2usize, 4] {
        let summary = run(&params, shards).summary(&params);
        assert!(
            summary == GOLDEN_FORGETFUL,
            "exp_churn(n=192, seed=7, forgetful, shards={shards}) diverged \
             from its golden.\n--- golden ---\n{GOLDEN_FORGETFUL}\n--- got ---\n{summary}"
        );
    }
}

/// `--static-n` (construction-time `n`, no synopsis gossip) must not move
/// the forgetful golden's availability: the live estimation changes
/// control traffic but not which routes survive churn at this scale. This
/// pins the default-on flip of `DiscoConfig::dynamic_n_estimation` — if
/// enabling the gossip had shifted availability, the flip would not have
/// been a pure default change.
#[test]
fn static_n_preserves_forgetful_availability() {
    let params = ChurnParams::sized(192, 7)
        .with_forgetful(true)
        .with_static_n(true);
    let outcome = run(&params, 1);
    let line = format!(
        "availability under churn: {:.4}",
        outcome.window.availability
    );
    assert!(
        GOLDEN_FORGETFUL.contains(&line),
        "static-n forgetful availability {:.4} differs from the forgetful \
         golden's (expected the golden to contain {line:?})",
        outcome.window.availability
    );
}
