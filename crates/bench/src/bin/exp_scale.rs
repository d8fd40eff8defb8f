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
//! speedup columns and the `--smoke` gate use. Two recorded baselines ride
//! along in the JSON: the pre-refactor hot path (BinaryHeap queue,
//! `Vec<NodeId>` paths) and the pre-batching message plane (per-message
//! wheel entries, O(degree) send resolution — where announcements/sec ≤
//! events/sec by construction).
//!
//! ```text
//! --sizes 1024,4096     comma-separated sweep sizes
//! --full                append 65536 to the sweep
//! --seed S              experiment seed (default 1)
//! --events N            delivered-announcement budget per size
//!                       (default 3000000)
//! --threads T           static-build worker threads (default 0 = one/CPU)
//! --queue wheel|heap    event-queue implementation (default wheel)
//! --json PATH           write the JSON report to PATH
//! --trace PATH          export the first sweep size's engine leg as a
//!                       Chrome trace_event timeline (adds recorder
//!                       overhead to that leg's numbers); with --shards K
//!                       the shards' recorders are merged and the timeline
//!                       gains a work/ingest/wait counter track per shard
//! --shards K            run the engine legs on the sharded engine with K
//!                       worker shards (default 0 = sequential engine)
//! --smoke               n=1024 regression gate: run the recorded leg
//!                       (same budget), read `min_announcements_per_sec`
//!                       — 0.7× the recorded n=1024 rate — from
//!                       BENCH_exp_scale.json and exit non-zero if the
//!                       measured rate falls below it. With
//!                       --shards K it instead gates the sharded path:
//!                       re-runs the same leg at --shards 1, requires
//!                       bit-identical delivered/topology/sim-end numbers
//!                       (cross-shard determinism), and requires the
//!                       K-shard rate to be >= single-shard's whenever the
//!                       runner has a core per shard (with fewer cores the
//!                       throughput is reported as UNMEASURED: time-sliced
//!                       shards say nothing about parallel speed)
//! ```
//!
//! Run with: `cargo run --release -p disco-bench --bin exp_scale`

use disco_bench::scale::{
    run_one, ScaleConfig, ScaleResult, BASELINE_NOTE, BASELINE_RESULTS, PRE_BATCH_NOTE,
    PRE_BATCH_RESULTS,
};
use std::fmt::Write as _;

struct Args {
    sizes: Vec<usize>,
    seed: u64,
    budget: u64,
    threads: usize,
    heap_queue: bool,
    json: Option<String>,
    smoke: Option<String>,
    trace: Option<String>,
    shards: usize,
}

fn parse_args() -> Args {
    let mut out = Args {
        sizes: vec![1024, 4096, 16384],
        seed: 1,
        budget: 3_000_000,
        threads: 0,
        heap_queue: false,
        json: None,
        smoke: None,
        trace: None,
        shards: 0,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next()
                .unwrap_or_else(|| panic!("missing value for {name}"))
        };
        match flag.as_str() {
            "--sizes" => {
                out.sizes = value("--sizes")
                    .split(',')
                    .map(|s| s.trim().parse().expect("--sizes"))
                    .collect();
            }
            "--full" => out.sizes.push(65_536),
            "--seed" | "-s" => out.seed = value("--seed").parse().expect("--seed"),
            "--events" => out.budget = value("--events").parse().expect("--events"),
            "--threads" => out.threads = value("--threads").parse().expect("--threads"),
            "--queue" => {
                out.heap_queue = match value("--queue").as_str() {
                    "heap" => true,
                    "wheel" => false,
                    other => panic!("unknown queue {other} (wheel|heap)"),
                };
            }
            "--json" => out.json = Some(value("--json")),
            "--trace" => out.trace = Some(value("--trace")),
            "--shards" => out.shards = value("--shards").parse().expect("--shards"),
            "--smoke" => {
                out.sizes = vec![1024];
                out.smoke = Some("BENCH_exp_scale.json".to_string());
            }
            "--help" | "-h" => {
                eprintln!(
                    "flags: --sizes a,b,c --full --seed S --events N --threads T \
                     --queue wheel|heap --json PATH --trace PATH --shards K --smoke"
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag {other}; try --help"),
        }
    }
    out
}

fn render_json(args: &Args, results: &[ScaleResult]) -> String {
    let mut j = String::new();
    let _ = writeln!(j, "{{");
    let _ = writeln!(j, "  \"experiment\": \"exp_scale\",");
    let _ = writeln!(j, "  \"seed\": {},", args.seed);
    let _ = writeln!(j, "  \"announcement_budget\": {},", args.budget);
    let _ = writeln!(
        j,
        "  \"queue\": \"{}\",",
        if args.heap_queue { "heap" } else { "wheel" }
    );
    // The smoke gate: 70% of the measured 1k announcement rate, rounded
    // down — CI fails an exp_scale --smoke run that regresses delivered
    // announcements/sec by >30%.
    if let Some(r1k) = results.iter().find(|r| r.n == 1024) {
        let _ = writeln!(
            j,
            "  \"min_announcements_per_sec\": {},",
            (r1k.announcements_per_sec * 0.7) as u64
        );
    }
    let _ = writeln!(j, "  \"baseline_note\": \"{BASELINE_NOTE}\",");
    let _ = writeln!(j, "  \"baseline\": [");
    for (i, b) in BASELINE_RESULTS.iter().enumerate() {
        let comma = if i + 1 < BASELINE_RESULTS.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(
            j,
            "    {{ \"n\": {}, \"events_per_sec\": {}, \"build_secs\": {} }}{comma}",
            b.0, b.1, b.2
        );
    }
    let _ = writeln!(j, "  ],");
    let _ = writeln!(j, "  \"pre_batch_note\": \"{PRE_BATCH_NOTE}\",");
    let _ = writeln!(j, "  \"pre_batch\": [");
    for (i, b) in PRE_BATCH_RESULTS.iter().enumerate() {
        let comma = if i + 1 < PRE_BATCH_RESULTS.len() {
            ","
        } else {
            ""
        };
        let _ = writeln!(
            j,
            "    {{ \"n\": {}, \"events_per_sec\": {} }}{comma}",
            b.0, b.1
        );
    }
    let _ = writeln!(j, "  ],");
    let _ = writeln!(j, "  \"results\": [");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        let _ = writeln!(j, "    {}{comma}", r.to_json());
    }
    let _ = writeln!(j, "  ]");
    let _ = writeln!(j, "}}");
    j
}

fn main() {
    let args = parse_args();
    let mut results = Vec::new();
    println!(
        "{:>7} {:>10} {:>12} {:>13} {:>13} {:>12} {:>9}",
        "n", "landmarks", "build_secs", "events/sec", "anns/sec", "peak_cells", "speedup"
    );
    for &n in &args.sizes {
        let cfg = ScaleConfig {
            n,
            seed: args.seed,
            announcement_budget: args.budget,
            build_threads: args.threads,
            heap_queue: args.heap_queue,
            // Trace only the first size in the sweep (the file would
            // otherwise be overwritten per size).
            trace: args.trace.clone().filter(|_| results.is_empty()),
            shards: args.shards,
        };
        let r = run_one(&cfg);
        // Speedup in *delivered announcements*/sec against the pre-batching
        // recording, where every delivered announcement was one event.
        let speedup = PRE_BATCH_RESULTS
            .iter()
            .find(|b| b.0 == n)
            .map(|b| r.announcements_per_sec / b.1)
            .map_or("-".to_string(), |s| format!("{s:.2}x"));
        println!(
            "{:>7} {:>10} {:>12.3} {:>13.0} {:>13.0} {:>12} {:>9}",
            r.n,
            r.landmarks,
            r.build_secs,
            r.events_per_sec,
            r.announcements_per_sec,
            r.peak_arena_cells,
            speedup
        );
        results.push(r);
    }

    if let Some(path) = &args.json {
        std::fs::write(path, render_json(&args, &results)).expect("write json");
        eprintln!("wrote {path}");
    }

    if let Some(baseline_path) = &args.smoke {
        if args.shards > 0 {
            smoke_sharded(&args, &results[0]);
            return;
        }
        let floor = std::fs::read_to_string(baseline_path).ok().and_then(|s| {
            s.lines()
                .find(|l| l.contains("\"min_announcements_per_sec\""))
                .and_then(|l| {
                    l.split(':')
                        .nth(1)?
                        .trim()
                        .trim_end_matches(',')
                        .parse::<f64>()
                        .ok()
                })
        });
        match floor {
            None => {
                eprintln!("smoke: no min_announcements_per_sec in {baseline_path}; skipping gate");
            }
            Some(floor) => {
                let got = results[0].announcements_per_sec;
                if got < floor {
                    eprintln!(
                        "smoke FAIL: {got:.0} announcements/sec at n=1024 is below the \
                         recorded floor {floor:.0} (>30% regression)"
                    );
                    std::process::exit(1);
                }
                eprintln!("smoke OK: {got:.0} announcements/sec >= floor {floor:.0}");
            }
        }
    }
}

/// The sharded smoke gate (`--shards K --smoke`): re-run the same leg at
/// `--shards 1` and require (a) bit-identical delivered announcements,
/// topology events and simulation end time — the cross-shard determinism
/// contract — and (b) the K-shard announcement rate to be at least
/// single-shard's. The throughput bar applies whenever the runner has a
/// core per shard (the coordinator is parked while the shards run). With
/// fewer cores the shards time-slice, which measures the scheduler and not
/// the engine: the ratio is then reported as unmeasured, in so many words,
/// so a one-core runner cannot be read as having passed it.
fn smoke_sharded(args: &Args, multi: &ScaleResult) {
    let single = run_one(&ScaleConfig {
        n: multi.n,
        seed: args.seed,
        announcement_budget: args.budget,
        build_threads: args.threads,
        heap_queue: false,
        trace: None,
        shards: 1,
    });
    let mut failures = Vec::new();
    if multi.announcements != single.announcements
        || multi.topology_events != single.topology_events
        || multi.sim_end != single.sim_end
    {
        failures.push(format!(
            "shards={} diverged from shards=1: announcements {} vs {}, \
             topology {} vs {}, sim_end {} vs {}",
            args.shards,
            multi.announcements,
            single.announcements,
            multi.topology_events,
            single.topology_events,
            multi.sim_end,
            single.sim_end
        ));
    }
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let ratio = multi.announcements_per_sec / single.announcements_per_sec.max(1e-9);
    let measured = cores >= args.shards;
    if measured && ratio < 1.0 {
        failures.push(format!(
            "shards={} throughput is {ratio:.2}x single-shard on {cores} \
             cores (parallel shards must not be slower than one)",
            args.shards
        ));
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("smoke FAIL: {f}");
        }
        std::process::exit(1);
    }
    eprintln!(
        "smoke OK: shards={} matches shards=1 bit-for-bit",
        args.shards
    );
    if measured {
        eprintln!(
            "smoke OK: throughput {ratio:.2}x single-shard on {cores} cores (gated >= 1.00x)"
        );
    } else {
        eprintln!(
            "smoke: throughput UNMEASURED — {} shards on {cores} core(s) time-slice \
             (ratio {ratio:.2}x is not a parallel measurement and gates nothing)",
            args.shards
        );
    }
}
