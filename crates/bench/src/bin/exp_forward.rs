//! Data-plane traffic benchmark: batched flat-name lookups through
//! compiled forwarding tables while the protocol boots, churns and drains
//! underneath. Each node's RIB selection is compiled into a flat
//! [`disco_core::forward::ForwardingTable`] behind an epoch-stamped
//! double-buffer; checkpoints republish (debounced on the control
//! revision), sample Zipf+uniform flows over the live nodes and walk every
//! packet hop-by-hop through the *published* epochs. Reported per phase:
//! lookups/sec (headline), mean hop stretch vs BFS shortest paths, p50/p90
//! ns per probe over 16-walk slices (the walk loop reads no clock; one
//! clock pair times a slice), and packets lost to stale epochs — which
//! must be **zero** after the drain.
//!
//! ```text
//! --nodes N             network size (default 4096)
//! --seed S              experiment seed (default 1)
//! --flows F             flows per checkpoint (default 4096)
//! --shards K            run on K engine shards (default 1; tables compile
//!                       on their owner shards and ship to the
//!                       coordinator)
//! --json PATH           write the JSON report to PATH
//! --trace PATH          export the run as a Chrome trace_event timeline
//!                       with the delivered-lookups data-plane track (at
//!                       any --shards K)
//! --smoke               n=256 regression gate: the drain batch must clear
//!                       the `min_lookups_per_sec` floor recorded in
//!                       BENCH_exp_forward.json (0.7x the recorded drain
//!                       rate) and lose zero packets to stale epochs, and
//!                       the trace export must validate as JSON. With
//!                       --shards K (K > 1) it also re-runs the leg at
//!                       --shards 1 and requires every deterministic
//!                       column to match bit-for-bit. Refuses --nodes.
//! ```
//!
//! Every node keeps its construction-time estimate of `n`: the live
//! n-estimation gossip is `exp_churn`'s subject, dominates control cost
//! ~70x at n=512 and does not change the data plane being measured.
//!
//! Run with: `cargo run --release -p disco-bench --bin exp_forward`

use disco_bench::cli::{exit_on_failures, recorded, write_report, Flags};
use disco_bench::forward::{run_one, ForwardConfig, ForwardResult, DEBOUNCE};
use disco_telemetry::Json;

const USAGE: &str = "flags: --nodes N --seed S --flows F --shards K --json PATH --trace PATH \
                     --smoke";

fn print_table(r: &ForwardResult) {
    println!(
        "{:>6} {:>6} {:>9} {:>9} {:>6} {:>6} {:>7} {:>13} {:>8} {:>8} {:>7} {:>7} {:>6}",
        "phase",
        "walks",
        "delivered",
        "stale",
        "miss",
        "unrch",
        "hops",
        "lookups/sec",
        "stretch",
        "p50_ns",
        "p90_ns",
        "repubs",
        "ckpts"
    );
    for p in [&r.boot, &r.churn, &r.drain] {
        println!(
            "{:>6} {:>6} {:>9} {:>9} {:>6} {:>6} {:>7.2} {:>13.0} {:>8.3} {:>8} {:>7} {:>7} {:>6}",
            p.phase,
            p.walks,
            p.delivered,
            p.stale_loss,
            p.miss,
            p.unreachable,
            p.mean_hops(),
            p.lookups_per_sec,
            p.mean_stretch(),
            p.p50_ns,
            p.p90_ns,
            p.republishes,
            p.checkpoints
        );
    }
    eprintln!(
        "n={} shards={} landmarks={} table_entries={} table_bytes={} sim_end={:.1}",
        r.n, r.shards, r.landmarks, r.table_entries, r.table_bytes, r.sim_end
    );
}

/// Smoke gates of any leg: the recorded lookups/sec floor, zero stale
/// loss after drain, and a validating trace export.
fn smoke_failures(r: &ForwardResult, floor: f64, trace_path: &str) -> Vec<String> {
    let mut failures = Vec::new();
    // Like for like: the recorded floor comes from a drain batch, so it
    // gates the drain batch (boot batches walk half-filled tables and
    // their rate moves more from run to run).
    let got = r.drain.lookups_per_sec;
    if got < floor {
        failures.push(format!(
            "{got:.0} lookups/sec (drain batch) is below the recorded floor {floor:.0}"
        ));
    }
    if r.drain.stale_loss != 0 || r.drain.miss != 0 {
        failures.push(format!(
            "drain batch lost packets on a quiesced network: stale_loss={} miss={}",
            r.drain.stale_loss, r.drain.miss
        ));
    }
    match std::fs::read_to_string(trace_path) {
        Err(e) => failures.push(format!("trace export missing at {trace_path}: {e}")),
        Ok(s) => {
            if let Err(e) = disco_telemetry::validate_json(&s) {
                failures.push(format!("trace export is not valid JSON: {e}"));
            }
        }
    }
    if failures.is_empty() {
        eprintln!(
            "smoke OK: drain {got:.0} lookups/sec >= floor {floor:.0}, drain lost 0/{} \
             walks, trace validates",
            r.drain.walks
        );
    }
    failures
}

/// The extra gate of a multi-shard smoke (`--shards K --smoke`, K > 1):
/// re-run the same leg on one shard and require every deterministic column
/// — walks, deliveries, stale losses, misses, lookup counts, hop sums,
/// republish decisions, table totals and simulation end — to match
/// bit-for-bit.
fn shard_invariance_failures(cfg: &ForwardConfig, multi: &ForwardResult) -> Vec<String> {
    let one = run_one(&ForwardConfig {
        shards: 1,
        trace: None,
        ..cfg.clone()
    });
    let mut failures = Vec::new();
    for (a, b) in [
        (&one.boot, &multi.boot),
        (&one.churn, &multi.churn),
        (&one.drain, &multi.drain),
    ] {
        if a.deterministic_key() != b.deterministic_key() {
            failures.push(format!(
                "phase {} diverged at shards={}: one shard {:?} vs {:?}",
                a.phase,
                cfg.shards,
                a.deterministic_key(),
                b.deterministic_key()
            ));
        }
    }
    if one.table_entries != multi.table_entries
        || one.table_bytes != multi.table_bytes
        || one.sim_end != multi.sim_end
    {
        failures.push(format!(
            "end-state diverged at shards={}: entries {} vs {}, bytes {} vs {}, \
             sim_end {} vs {}",
            cfg.shards,
            one.table_entries,
            multi.table_entries,
            one.table_bytes,
            multi.table_bytes,
            one.sim_end,
            multi.sim_end
        ));
    }
    if failures.is_empty() {
        eprintln!(
            "smoke OK: shards={} matches shards=1 bit-for-bit on every deterministic column",
            cfg.shards
        );
    }
    failures
}

fn main() {
    let mut flags = Flags::from_env();
    let smoke = flags.switch("--smoke");
    if let Some(flag) = flags.find(&["--nodes"]).filter(|_| smoke) {
        panic!("--smoke gates n=256: it takes no {flag}");
    }
    let flows = flags.value("--flows").unwrap_or(4096);
    let cfg = ForwardConfig {
        n: flags
            .value("--nodes")
            .unwrap_or(if smoke { 256 } else { 4096 }),
        seed: flags.value("--seed").unwrap_or(1),
        flows: if smoke { flows.min(2048) } else { flows },
        shards: flags.shards(),
        // A smoke leg always exports a trace so the gate can validate it;
        // an explicit --trace keeps the user's path.
        trace: flags.value("--trace").or_else(|| {
            let default = std::env::temp_dir().join("exp_forward_trace.json");
            smoke.then(|| default.to_string_lossy().into_owned())
        }),
    };
    let json: Option<String> = flags.value("--json");
    flags.finish(USAGE);
    // Read before the leg runs: a smoke that cannot read its floor fails
    // (`recorded` exits), it does not fall back to a weaker gate.
    let floor = smoke.then(|| recorded("BENCH_exp_forward.json", "min_lookups_per_sec"));
    let r = run_one(&cfg);
    print_table(&r);

    if let Some(path) = &json {
        // The smoke gate: 70% of the drain batch's measured lookup rate,
        // rounded down — CI fails an exp_forward --smoke run whose drain
        // batch regresses below it. The drain batch walks the converged
        // tables, so its rate is the steady-state one.
        let floor = (r.drain.lookups_per_sec * 0.7) as u64;
        let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
        let header = vec![
            ("seed", Json::Int(cfg.seed)),
            ("flows", Json::Int(cfg.flows as u64)),
            ("debounce", Json::Num(DEBOUNCE)),
            ("nproc", Json::Int(nproc as u64)),
            ("min_lookups_per_sec", Json::Int(floor)),
        ];
        write_report(path, "exp_forward", header, vec![r.to_json()]);
    }

    if let Some(floor) = floor {
        let trace_path = cfg.trace.as_deref().expect("smoke legs always trace");
        let mut failures = smoke_failures(&r, floor, trace_path);
        if cfg.shards > 1 {
            failures.extend(shard_invariance_failures(&cfg, &r));
        }
        exit_on_failures(&failures);
    }
}
