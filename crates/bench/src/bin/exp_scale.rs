//! Scale sweep for the million-node hot path: delivered announcements/sec
//! under churn (the headline — see below), queue pops/sec, static-build
//! wall time, and live path-arena cells (the allocation gauge), across
//! n ∈ {1k, 4k, 16k} (+64k with `--full`).
//!
//! The engine workload is a fixed budget (default 3M) of **delivered
//! announcements** of the distributed Disco protocol booting under a
//! Poisson churn schedule, so the measurement cost is independent of n and
//! runs are comparable across sizes. Since the batched message plane packs
//! a whole table dump into one queue entry, raw events/sec could be gamed
//! by packing more work per event; a delivered announcement is the same
//! protocol work in every configuration, so announcements/sec is what the
//! `--smoke` gates use. The budget is checked at window barriers, so a leg
//! delivers up to one window more than the budget — the same overshoot at
//! every shard count.
//!
//! ```text
//! --sizes 1024,4096     comma-separated sweep sizes
//! --full                append 65536 to the sweep
//! --seed S              experiment seed (default 1)
//! --events N            delivered-announcement budget per size
//!                       (default 3000000)
//! --json PATH           write the JSON report of this sweep to PATH (not
//!                       with --shards K --smoke, K > 1: that gate measures
//!                       a ratio, not a sweep; README "Performance" says
//!                       how BENCH_exp_scale.json is assembled)
//! --trace PATH          export the first sweep size's engine leg as a
//!                       Chrome trace_event timeline (adds recorder
//!                       overhead to that leg's numbers): the shards'
//!                       recorders merged, one work/ingest/wait counter
//!                       track per shard
//! --shards K            run the engine legs on K engine shards, one worker
//!                       thread each (default 1)
//! --smoke               n=1024 regression gate: run the recorded leg
//!                       (same budget), read `min_announcements_per_sec`
//!                       — 0.7× the recorded n=1024 rate — from
//!                       BENCH_exp_scale.json and exit non-zero if the
//!                       measured rate falls below it. With --shards K
//!                       (K > 1) it instead gates the sharded path: three
//!                       interleaved repeats of the same leg at --shards 1
//!                       and --shards K, bit-identical
//!                       delivered/topology/sim-end numbers required of
//!                       every run (cross-shard determinism), and the
//!                       median K-over-1 rate ratio required to reach 0.7×
//!                       the `sharded_ratio` recorded in
//!                       BENCH_exp_scale.json whenever the runner has a
//!                       core per shard (with fewer cores the throughput is
//!                       reported as UNMEASURED: time-sliced shards say
//!                       nothing about parallel speed). Refuses --sizes
//!                       and --full, which would gate another size.
//! ```
//!
//! Run with: `cargo run --release -p disco-bench --bin exp_scale`

use disco_bench::cli::{exit_on_failures, recorded, write_report, Flags};
use disco_bench::scale::{run_one, ScaleConfig, ScaleResult};
use disco_telemetry::Json;

const USAGE: &str = "flags: --sizes a,b,c --full --seed S --events N \
                     --json PATH --trace PATH --shards K --smoke";

fn main() {
    let mut flags = Flags::from_env();
    let smoke = flags.switch("--smoke");
    if let Some(flag) = flags.find(&["--sizes", "--full"]).filter(|_| smoke) {
        panic!("--smoke gates n=1024: it takes no {flag}");
    }
    let default_sizes = if smoke {
        vec![1024]
    } else {
        vec![1024, 4096, 16384]
    };
    let mut sizes = flags.list("--sizes").unwrap_or(default_sizes);
    if flags.switch("--full") {
        sizes.push(65_536);
    }
    // Every leg's configuration but its size.
    let base = ScaleConfig {
        n: sizes[0],
        seed: flags.value("--seed").unwrap_or(1),
        announcement_budget: flags.value("--events").unwrap_or(3_000_000),
        trace: flags.value("--trace"),
        shards: flags.shards(),
    };
    let json: Option<String> = flags.value("--json");
    flags.finish(USAGE);
    assert!(
        !(smoke && base.shards > 1 && json.is_some()),
        "--shards K --smoke measures a ratio, not a sweep: it writes no --json \
         (record its printed median as sharded_ratio; see README \"Performance\")"
    );
    // Read before the legs run: a smoke that cannot read its floor fails
    // (`recorded` exits), it does not run ungated.
    let floor = smoke.then(|| {
        if base.shards > 1 {
            0.7 * recorded("BENCH_exp_scale.json", "sharded_ratio")
        } else {
            recorded("BENCH_exp_scale.json", "min_announcements_per_sec")
        }
    });
    let mut results = Vec::new();
    println!(
        "{:>7} {:>10} {:>12} {:>13} {:>13} {:>12}",
        "n", "landmarks", "build_secs", "events/sec", "anns/sec", "peak_cells"
    );
    for &n in &sizes {
        let cfg = ScaleConfig {
            n,
            // Trace only the first size in the sweep (the file would
            // otherwise be overwritten per size).
            trace: base.trace.clone().filter(|_| results.is_empty()),
            ..base.clone()
        };
        let r = run_one(&cfg);
        println!(
            "{:>7} {:>10} {:>12.3} {:>13.0} {:>13.0} {:>12}",
            r.n,
            r.landmarks,
            r.build_secs,
            r.events_per_sec,
            r.announcements_per_sec,
            r.peak_arena_cells,
        );
        results.push(r);
    }

    match floor {
        Some(floor) if base.shards > 1 => smoke_shard_ratio(&base, &results[0], floor),
        Some(floor) => smoke_rate(&results[0], floor),
        None => {}
    }

    if let Some(path) = &json {
        let mut header = vec![
            ("seed", Json::Int(base.seed)),
            ("announcement_budget", Json::Int(base.announcement_budget)),
        ];
        // The smoke gate: 70% of the measured one-shard 1k announcement
        // rate, rounded down — CI fails an exp_scale --smoke run that
        // regresses delivered announcements/sec by >30%.
        if let Some(r1k) = results.iter().find(|r| r.n == 1024 && r.shards == 1) {
            let floor = (r1k.announcements_per_sec * 0.7) as u64;
            header.push(("min_announcements_per_sec", Json::Int(floor)));
        }
        let rows = results.iter().map(ScaleResult::to_json).collect();
        write_report(path, "exp_scale", header, rows);
    }
}

/// The throughput smoke gate: the recorded leg's announcement rate against
/// the recorded `min_announcements_per_sec` floor.
fn smoke_rate(leg: &ScaleResult, floor: f64) {
    let got = leg.announcements_per_sec;
    if got < floor {
        eprintln!(
            "smoke FAIL: {got:.0} announcements/sec at n=1024 is below the \
             recorded floor {floor:.0} (>30% regression)"
        );
        std::process::exit(1);
    }
    eprintln!("smoke OK: {got:.0} announcements/sec >= floor {floor:.0}");
}

/// Repeats of the sharded smoke gate's K-vs-1 comparison; the gate reads
/// their median.
const SHARDED_SMOKE_REPEATS: usize = 3;

/// The sharded smoke gate (`--shards K --smoke`, K > 1): run the same leg
/// at `--shards 1` and `--shards K` in interleaved repeats (the sweep's own
/// K-shard leg is the first) and require (a) bit-identical delivered
/// announcements, topology events and simulation end time from every run —
/// the cross-shard determinism contract, a hard failure — and (b) the
/// median K-over-1 announcement-rate ratio to reach `floor`, 0.7× the
/// recorded `sharded_ratio`. One pair of runs reads
/// 1.0 ± the box's noise; the median of interleaved pairs against a
/// recorded value with a stated tolerance still catches the 0.03–0.06×
/// class of regression without flipping on that noise. The throughput bar
/// applies whenever the runner has a core per shard (the coordinator is
/// parked while the shards run). With fewer cores the shards time-slice,
/// which measures the scheduler and not the engine: the ratio is then
/// reported as unmeasured, in so many words, so a one-core runner cannot be
/// read as having passed it. The printed median is what gets recorded as
/// `sharded_ratio`.
fn smoke_shard_ratio(base: &ScaleConfig, first: &ScaleResult, floor: f64) {
    let leg = |shards| {
        run_one(&ScaleConfig {
            n: first.n,
            trace: None,
            shards,
            ..base.clone()
        })
    };
    let mut failures = Vec::new();
    let mut ratios = Vec::new();
    for rep in 0..SHARDED_SMOKE_REPEATS {
        let multi = if rep == 0 {
            first.clone()
        } else {
            leg(base.shards)
        };
        let single = leg(1);
        if multi.announcements != single.announcements
            || multi.topology_events != single.topology_events
            || multi.sim_end != single.sim_end
        {
            failures.push(format!(
                "shards={} diverged from shards=1: announcements {} vs {}, \
                 topology {} vs {}, sim_end {} vs {}",
                base.shards,
                multi.announcements,
                single.announcements,
                multi.topology_events,
                single.topology_events,
                multi.sim_end,
                single.sim_end
            ));
        }
        let ratio = multi.announcements_per_sec / single.announcements_per_sec.max(1e-9);
        eprintln!(
            "smoke: repeat {}: shards={} {:.0} vs shards=1 {:.0} announcements/sec ({ratio:.2}x)",
            rep + 1,
            base.shards,
            multi.announcements_per_sec,
            single.announcements_per_sec
        );
        ratios.push(ratio);
    }
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("rates are finite"));
    let ratio = ratios[ratios.len() / 2];

    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let measured = cores >= base.shards;
    if measured && ratio < floor {
        failures.push(format!(
            "shards={} throughput is {ratio:.2}x single-shard on {cores} cores \
             (median of {SHARDED_SMOKE_REPEATS}), below the floor {floor:.2}x \
             (0.7x the recorded sharded_ratio)",
            base.shards
        ));
    }
    exit_on_failures(&failures);
    eprintln!(
        "smoke OK: shards={} matches shards=1 bit-for-bit in all {SHARDED_SMOKE_REPEATS} repeats",
        base.shards
    );
    if measured {
        eprintln!(
            "smoke OK: throughput {ratio:.3}x single-shard on {cores} cores \
             (median of {SHARDED_SMOKE_REPEATS}, gated >= {floor:.2}x)"
        );
    } else {
        eprintln!(
            "smoke: throughput UNMEASURED — {} shards on {cores} core(s) time-slice \
             (ratio {ratio:.2}x is not a parallel measurement and gates nothing)",
            base.shards
        );
    }
}
