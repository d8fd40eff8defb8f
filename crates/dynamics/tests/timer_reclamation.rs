//! High-churn regression for the event queue's dead-entry accounting with
//! the *real* protocol: under a dense Poisson churn schedule, every timer
//! of a departed incarnation must be reclaimed eagerly (counted into the
//! timer wheel's dead gauge at leave time) — the engine's stale-timer
//! defense-in-depth path must never fire, and the gauge must drain to
//! zero by quiescence.

use disco_core::config::DiscoConfig;
use disco_core::landmark::select_landmarks;
use disco_core::protocol::{DiscoProtocol, PhaseTimers};
use disco_dynamics::models::PoissonChurn;
use disco_graph::{generators, NodeId};
use disco_sim::ShardedEngine;
use std::collections::HashSet;

#[test]
fn high_churn_never_pops_epoch_dead_timers() {
    let n = 128;
    let seed = 11;
    let graph = generators::gnm_average_degree(n, 8.0, seed);
    let cfg = DiscoConfig::seeded(seed).with_forgetful_dynamic(true);
    let landmarks = select_landmarks(n, &cfg);
    let lm_set: HashSet<NodeId> = landmarks.iter().copied().collect();
    let mut engine = ShardedEngine::new(&graph, 1, seed, move |v| {
        DiscoProtocol::new(v, lm_set.contains(&v), n, &cfg, PhaseTimers::default())
    });
    assert!(engine.run().converged, "initial convergence");

    // An order of magnitude more churn than the recorded baselines: every
    // node leaves ~once per 250 time units, so hundreds of incarnations
    // die with timers pending (repair debounce, batch flushes, phase
    // timers all outlive a short incarnation).
    let model = PoissonChurn {
        leave_rate_per_node: 0.004,
        mean_downtime: 60.0,
        horizon: 500.0,
        ..PoissonChurn::default()
    };
    let schedule = model.compile(&graph, seed);
    schedule.apply_to(&mut engine);

    let mut max_dead = 0usize;
    while !engine.run_to(engine.now() + 50.0) {
        let (_, dead) = engine.queue_stats();
        max_dead = max_dead.max(dead);
        assert_eq!(
            engine.stale_timer_pops(),
            0,
            "an epoch-dead timer survived to its pop time at t={}",
            engine.now()
        );
        if engine.now() > 4000.0 {
            panic!("churn run did not quiesce");
        }
    }
    assert!(engine.topology_events() > 200, "expected heavy churn");
    assert!(
        max_dead > 0,
        "eager cancellation should have left (counted) residue in the wheel"
    );
    assert_eq!(engine.stale_timer_pops(), 0);
    assert_eq!(
        engine.queue_stats(),
        (0, 0),
        "gauge must drain to zero at quiescence"
    );
}
