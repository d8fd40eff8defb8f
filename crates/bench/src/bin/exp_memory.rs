//! Memory-instrumented churn scaling sweep: control state (path-vector
//! candidates, RIB bytes, arena cells) and peak RSS across an
//! `n × churn-rate × {full, forgetful}` grid, charted against the paper's
//! `√(n ln n)` per-node state bound (§4.2).
//!
//! Peak RSS (`VmHWM`) is a process-wide high-water mark, so the sweep
//! re-executes this binary once per leg (`--leg ...`) and each child owns
//! a fresh address space; the parent parses the children's key=value
//! lines, prints the grid table, and writes `BENCH_exp_memory.json`.
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
//! --leg k=v ...        (internal) run one leg and print its key=value line
//! ```
//!
//! Run with: `cargo run --release -p disco-bench --bin exp_memory`

use disco_bench::cli::parse_shards;
use disco_bench::memory::{
    candidate_bound, control_bytes_per_dest_bound, run_leg, run_leg_traced, sqrt_n_log_n,
    MemoryParams, MemoryResult,
};
use disco_core::config::DiscoConfig;
use std::fmt::Write as _;
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

struct Args {
    sizes: Vec<usize>,
    rates: Vec<f64>,
    seed: u64,
    horizon: f64,
    json: Option<String>,
    in_process: bool,
    smoke: bool,
    trace: Option<String>,
    leg: Option<MemoryParams>,
    shards: usize,
}

fn parse_args() -> Args {
    let mut out = Args {
        sizes: vec![512, 1024, 2048, 4096],
        rates: vec![0.0002],
        seed: 1,
        horizon: 500.0,
        json: Some("BENCH_exp_memory.json".to_string()),
        in_process: false,
        smoke: false,
        trace: None,
        leg: None,
        shards: 1,
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
            "--rates" => {
                out.rates = value("--rates")
                    .split(',')
                    .map(|s| s.trim().parse().expect("--rates"))
                    .collect();
            }
            "--seed" | "-s" => out.seed = value("--seed").parse().expect("--seed"),
            "--horizon" => out.horizon = value("--horizon").parse().expect("--horizon"),
            "--json" => out.json = Some(value("--json")),
            "--in-process" => out.in_process = true,
            "--smoke" => out.smoke = true,
            "--trace" => out.trace = Some(value("--trace")),
            "--shards" => out.shards = parse_shards(&value("--shards")),
            "--leg" => {
                // Internal: --leg n=4096 rate=0.0002 forgetful=1 seed=1 horizon=500
                let mut p = MemoryParams::grid_point(512, 1, 0.0002, false);
                for kv in it.by_ref() {
                    let (k, v) = kv.split_once('=').expect("--leg takes k=v pairs");
                    match k {
                        "n" => p.n = v.parse().expect("leg n"),
                        "rate" => p.window.leave_rate_per_node = v.parse().expect("leg rate"),
                        "forgetful" => p.forgetful = v == "1",
                        "seed" => p.seed = v.parse().expect("leg seed"),
                        "horizon" => p.window.horizon = v.parse().expect("leg horizon"),
                        "shards" => p.shards = parse_shards(v),
                        other => panic!("unknown leg key {other}"),
                    }
                }
                out.leg = Some(p);
            }
            "--help" | "-h" => {
                eprintln!(
                    "flags: --sizes a,b,c --rates a,b --seed S --horizon T --json PATH \
                     --in-process --smoke --trace PATH --shards K"
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag {other}; try --help"),
        }
    }
    out
}

fn run_child(
    n: usize,
    rate: f64,
    forgetful: bool,
    seed: u64,
    horizon: f64,
    shards: usize,
) -> MemoryResult {
    let exe = std::env::current_exe().expect("current_exe");
    let output = Command::new(exe)
        .args([
            "--leg",
            &format!("n={n}"),
            &format!("rate={rate}"),
            &format!("forgetful={}", forgetful as u8),
            &format!("seed={seed}"),
            &format!("horizon={horizon}"),
            &format!("shards={shards}"),
        ])
        .output()
        .expect("spawn leg");
    assert!(
        output.status.success(),
        "leg n={n} rate={rate} forgetful={forgetful} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    stdout
        .lines()
        .find_map(MemoryResult::from_kv_line)
        .unwrap_or_else(|| panic!("no MEMLEG line in leg output:\n{stdout}"))
}

fn render_json(args: &Args, results: &[MemoryResult]) -> String {
    let mut j = String::new();
    let _ = writeln!(j, "{{");
    let _ = writeln!(j, "  \"experiment\": \"exp_memory\",");
    let _ = writeln!(j, "  \"seed\": {},", args.seed);
    let _ = writeln!(j, "  \"horizon\": {},", args.horizon);
    let _ = writeln!(
        j,
        "  \"note\": \"control state under churn vs sqrt(n ln n); peak_rss_mb is per-leg \
         (child process) VmHWM with the watermark reset after the boot flood; \
         non_rib_bytes_mean splits into loc-rib view + dissemination\","
    );
    // Headline acceptance numbers, if the grid contains the 4096 pair.
    let find = |n: usize, rate: f64, forgetful: bool| {
        results
            .iter()
            .find(|r| r.n == n && r.leave_rate == rate && r.forgetful == forgetful)
    };
    if let (Some(full), Some(slim)) = (
        find(4096, args.rates[0], false),
        find(4096, args.rates[0], true),
    ) {
        if full.peak_rss_bytes > 0 && slim.peak_rss_bytes > 0 {
            let _ = writeln!(
                j,
                "  \"rss_reduction_n4096\": {:.2},",
                full.peak_rss_bytes as f64 / slim.peak_rss_bytes as f64
            );
        }
        let _ = writeln!(
            j,
            "  \"availability_delta_n4096\": {:.4},",
            (full.availability - slim.availability).abs()
        );
        let _ = writeln!(
            j,
            "  \"candidate_reduction_n4096\": {:.2},",
            full.cand_mean / slim.cand_mean.max(1.0)
        );
    }
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

    // Child mode: run exactly one leg and emit its key=value line.
    if let Some(p) = &args.leg {
        let r = run_leg(p);
        println!("{}", r.to_kv_line());
        return;
    }

    // Smoke mode: one in-process forgetful leg at n=512 under heavy churn.
    // Gated: candidates/node vs the √(n ln n) bound; non-RIB control bytes
    // per interned destination — so a regression that re-materializes
    // per-destination state (a Loc-RIB map, a fatter selection column)
    // fails CI even while candidate counts stay flat; and quiescence with
    // in-churn availability within tolerance of the recorded value.
    if args.smoke {
        let mut p = MemoryParams::grid_point(512, args.seed, 0.001, true);
        p.window.horizon = 300.0;
        p.shards = args.shards;
        let r = run_leg(&p);
        let bound = candidate_bound(512, DiscoConfig::default().forgetful_alternates);
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
        if r.cand_mean > bound {
            eprintln!(
                "smoke FAIL: mean candidates/node {:.1} exceeds the configured bound {:.1}",
                r.cand_mean, bound
            );
            std::process::exit(1);
        }
        if per_dest > per_dest_bound {
            eprintln!(
                "smoke FAIL: non-RIB control bytes per destination {per_dest:.1} exceeds the \
                 configured bound {per_dest_bound:.1} — per-destination state re-materialized?"
            );
            std::process::exit(1);
        }
        if !r.quiesced || r.availability < SMOKE_AVAILABILITY_FLOOR {
            eprintln!(
                "smoke FAIL: quiesced={} availability={:.4} (floor {:.4})",
                r.quiesced, r.availability, SMOKE_AVAILABILITY_FLOOR
            );
            std::process::exit(1);
        }
        eprintln!("smoke OK");
        return;
    }

    // Trace mode: one in-process leg with the full recorder, exporting a
    // phase-span timeline. Traced numbers include the recorder overhead
    // and are not comparable to the sweep's, so this mode stands alone.
    if let Some(path) = &args.trace {
        let mut p = MemoryParams::grid_point(args.sizes[0], args.seed, args.rates[0], true);
        p.window.horizon = args.horizon;
        p.shards = args.shards;
        let r = run_leg_traced(&p, path);
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
    for &n in &args.sizes {
        for &rate in &args.rates {
            for forgetful in [false, true] {
                let r = if args.in_process {
                    let mut p = MemoryParams::grid_point(n, args.seed, rate, forgetful);
                    p.window.horizon = args.horizon;
                    p.shards = args.shards;
                    run_leg(&p)
                } else {
                    run_child(n, rate, forgetful, args.seed, args.horizon, args.shards)
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
                    r.peak_rss_bytes as f64 / (1024.0 * 1024.0),
                    r.availability,
                    r.repair_msgs_per_node,
                    r.wall_secs
                );
                results.push(r);
            }
        }
    }

    if let Some(path) = &args.json {
        std::fs::write(path, render_json(&args, &results)).expect("write json");
        eprintln!("wrote {path}");
    }
}
