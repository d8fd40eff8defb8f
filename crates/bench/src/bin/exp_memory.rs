//! Memory-instrumented churn scaling sweep: control state (path-vector
//! candidates, RIB bytes, arena cells) and peak RSS across an
//! `n × churn-rate × {full, forgetful}` grid, charted against the paper's
//! `√(n ln n)` per-node state bound (§4.2).
//!
//! Peak RSS (`VmHWM`) is a process-wide high-water mark, so the sweep
//! re-executes this binary once per leg (its own command line plus
//! `--leg I`) and each child owns a fresh address space; the parent reads
//! back the report row each child prints, prints the grid table, and
//! writes `BENCH_exp_memory.json`.
//!
//! ```text
//! --sizes a,b,c        sweep sizes (default 512,1024,2048,4096)
//! --rates a,b          leave rates (default 0.0002)
//! --seed S             experiment seed (default 1)
//! --horizon T          churn-window length (default 500)
//! --json PATH          write the JSON report to PATH
//! --in-process         run legs in-process (no RSS isolation; CI-friendly)
//! --trace PATH         run one in-process leg (first size/rate, forgetful)
//!                      with full telemetry and export a Chrome trace_event
//!                      timeline of its build/boot/churn/drain phases (at
//!                      any --shards K, plus one window track per shard)
//! --smoke              gate: one forgetful leg at n=512 under high churn,
//!                      asserting candidates/node stays under the
//!                      configured bound; exits non-zero on violation
//! --shards K           run legs on K engine shards (default 1;
//!                      protocol-visible numbers are shard-count
//!                      invariant, arena gauges sum the shards'
//!                      thread-local arenas)
//! --leg I              (internal) run only leg I of the sweep (size, then
//!                      rate, then full before forgetful) and print its
//!                      report row
//! ```
//!
//! Run with: `cargo run --release -p disco-bench --bin exp_memory`

use disco_bench::cli::{exit_on_failures, write_report, Flags};
use disco_bench::memory::{
    candidate_bound, control_bytes_per_dest_bound, run_leg, run_leg_traced, sqrt_n_log_n,
    MemoryParams, MemoryResult,
};
use disco_core::protocol::FORGETFUL_ALTERNATES;
use disco_telemetry::{parse_json, Json};
use std::process::Command;

/// The in-churn availability floor `--smoke` asserts: the recorded value
/// minus 0.05. The smoke point (n=512, leave rate 0.001, horizon 300,
/// forgetful) measures 0.8972 — deterministic, 227 of 253 routable probes
/// (0.9012 under static `n`; the longer-horizon sweep row of
/// `BENCH_exp_memory.json` at the same rate reads 0.7961). One probe is
/// 0.004, so the tolerance passes a dozen probes of drift from legitimate
/// protocol changes — a bare 0.9 here went red on a one-probe move — and
/// still fails a repair regression.
const SMOKE_AVAILABILITY_FLOOR: f64 = 0.8972 - 0.05;

const USAGE: &str = "flags: --sizes a,b,c --rates a,b --seed S --horizon T --json PATH \
                     --in-process --smoke --trace PATH --shards K";

/// Run leg `i` of the sweep in a child process — this binary, given the
/// sweep's own command line `argv` plus `--leg i` — and read back the row
/// it prints.
fn run_child(argv: &[String], i: usize, p: &MemoryParams) -> MemoryResult {
    let exe = std::env::current_exe().expect("current_exe");
    let output = Command::new(exe)
        .args(argv)
        .args(["--leg", &i.to_string()])
        .output()
        .expect("spawn leg");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "leg {i} {p:?} failed:\n{stderr}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let row = stdout.lines().last().and_then(|l| parse_json(l).ok());
    row.as_ref()
        .and_then(MemoryResult::from_json)
        .unwrap_or_else(|| panic!("no result row in leg output:\n{stdout}"))
}

fn main() {
    let mut flags = Flags::from_env();
    let argv = flags.args().to_vec();
    let sizes = flags.list("--sizes").unwrap_or(vec![512, 1024, 2048, 4096]);
    let rates: Vec<f64> = flags.list("--rates").unwrap_or(vec![0.0002]);
    let seed = flags.value("--seed").unwrap_or(1);
    let horizon = flags.value("--horizon").unwrap_or(500.0);
    let json: String = flags
        .value("--json")
        .unwrap_or("BENCH_exp_memory.json".into());
    let in_process = flags.switch("--in-process");
    let smoke = flags.switch("--smoke");
    let trace: Option<String> = flags.value("--trace");
    let leg: Option<usize> = flags.value("--leg");
    let shards = flags.shards();
    flags.finish(USAGE);

    // The sweep's legs in report order: size, then rate, then full before
    // forgetful.
    let mut legs = Vec::new();
    for &n in &sizes {
        for &rate in &rates {
            for forgetful in [false, true] {
                let mut p = MemoryParams::grid_point(n, seed, rate, forgetful);
                p.window.horizon = horizon;
                p.shards = shards;
                legs.push(p);
            }
        }
    }

    // Child mode: run exactly one leg and print its report row.
    if let Some(i) = leg {
        println!("{}", run_leg(&legs[i]).to_json().compact());
        return;
    }

    // Smoke mode: one in-process forgetful leg at n=512 under heavy churn.
    // Gated: candidates/node vs the √(n ln n) bound; non-RIB control bytes
    // per interned destination — so a regression that re-materializes
    // per-destination state (a Loc-RIB map, a fatter selection column)
    // fails CI even while candidate counts stay flat; and quiescence with
    // in-churn availability within tolerance of the recorded value.
    if smoke {
        let mut p = MemoryParams::grid_point(512, seed, 0.001, true);
        p.window.horizon = 300.0;
        p.shards = shards;
        let r = run_leg(&p);
        let bound = candidate_bound(512, FORGETFUL_ALTERNATES);
        let per_dest = r.non_rib_bytes_mean / r.dests_mean.max(1.0);
        let per_dest_bound = control_bytes_per_dest_bound();
        println!(
            "smoke: n=512 churn rate=0.001 candidates/node mean {:.1} (max {}) vs bound {:.1}; \
             availability {:.4} vs floor {:.4}; non-RIB control bytes/dest {:.1} vs bound {:.1} \
             (loc-rib {:.0} + dissem {:.0} B/node over {:.1} dests)",
            r.cand_mean,
            r.cand_max,
            bound,
            r.availability,
            SMOKE_AVAILABILITY_FLOOR,
            per_dest,
            per_dest_bound,
            r.loc_rib_bytes_mean,
            r.dissem_bytes_mean,
            r.dests_mean,
        );
        let mut failures = Vec::new();
        if r.cand_mean > bound {
            failures.push(format!(
                "mean candidates/node {:.1} exceeds the configured bound {bound:.1}",
                r.cand_mean
            ));
        }
        if per_dest > per_dest_bound {
            failures.push(format!(
                "non-RIB control bytes per destination {per_dest:.1} exceeds the \
                 configured bound {per_dest_bound:.1} — per-destination state re-materialized?"
            ));
        }
        if !r.quiesced || r.availability < SMOKE_AVAILABILITY_FLOOR {
            failures.push(format!(
                "quiesced={} availability={:.4} (floor {SMOKE_AVAILABILITY_FLOOR:.4})",
                r.quiesced, r.availability
            ));
        }
        exit_on_failures(&failures);
        eprintln!("smoke OK");
        return;
    }

    // Trace mode: one in-process leg with the full recorder, exporting a
    // phase-span timeline. Traced numbers include the recorder overhead
    // and are not comparable to the sweep's, so this mode stands alone.
    if let Some(path) = &trace {
        // The first size and rate, forgetful.
        let r = run_leg_traced(&legs[1], path);
        println!(
            "traced leg: n={} rate={} forgetful=true availability={:.4} quiesced={}",
            r.n, r.leave_rate, r.availability, r.quiesced
        );
        return;
    }

    println!(
        "{:>6} {:>8} {:>10} {:>11} {:>9} {:>11} {:>10} {:>9} {:>12} {:>10} {:>8}",
        "n",
        "rate",
        "forgetful",
        "cands/node",
        "√(nlnn)",
        "rib_kb/node",
        "nonrib_kb",
        "peak_mb",
        "avail",
        "repair/n",
        "secs"
    );
    let mut results = Vec::new();
    for (i, p) in legs.iter().enumerate() {
        let r = if in_process {
            run_leg(p)
        } else {
            run_child(&argv, i, p)
        };
        println!(
            "{:>6} {:>8} {:>10} {:>11.1} {:>9.1} {:>11.1} {:>10.1} {:>9.1} {:>12.4} {:>10.1} {:>8.1}",
            r.n,
            r.leave_rate,
            r.forgetful,
            r.cand_mean,
            sqrt_n_log_n(r.n),
            r.rib_bytes_mean / 1024.0,
            r.non_rib_bytes_mean / 1024.0,
            r.peak_rss_mb,
            r.availability,
            r.repair_msgs_per_node,
            r.wall_secs
        );
        results.push(r);
    }

    let mut header = vec![
        ("seed", Json::Int(seed)),
        ("horizon", Json::Num(horizon)),
        (
            "note",
            Json::str(
                "control state under churn vs sqrt(n ln n); peak_rss_mb is per-leg \
                 (child process) VmHWM with the watermark reset after the boot flood; \
                 non_rib_bytes_mean splits into loc-rib view + dissemination",
            ),
        ),
    ];
    // Headline acceptance numbers, if the grid contains the 4096 pair.
    let find = |forgetful: bool| {
        results
            .iter()
            .find(|r| r.n == 4096 && r.leave_rate == rates[0] && r.forgetful == forgetful)
    };
    if let (Some(full), Some(slim)) = (find(false), find(true)) {
        if full.peak_rss_mb > 0.0 && slim.peak_rss_mb > 0.0 {
            let ratio = full.peak_rss_mb / slim.peak_rss_mb;
            header.push(("rss_reduction_n4096", Json::Fixed(ratio, 2)));
        }
        let delta = (full.availability - slim.availability).abs();
        header.push(("availability_delta_n4096", Json::Fixed(delta, 4)));
        let ratio = full.cand_mean / slim.cand_mean.max(1.0);
        header.push(("candidate_reduction_n4096", Json::Fixed(ratio, 2)));
    }
    let rows = results.iter().map(MemoryResult::to_json).collect();
    write_report(&json, "exp_memory", header, rows);
}
