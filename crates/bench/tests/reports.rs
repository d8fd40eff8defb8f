//! The reports the dynamic bins write and the ones they read back: the
//! `exp_memory` sweep's child-process path (its default mode, the one that
//! writes `BENCH_exp_memory.json`) and the checked-in `BENCH_*.json` files
//! whose floors the smokes gate on.

use disco_bench::cli::recorded;
use disco_bench::memory::{run_leg, MemoryParams, MemoryResult};
use disco_telemetry::{parse_json, Json};
use std::path::PathBuf;
use std::process::Command;

/// The repository root, where the `BENCH_*.json` files are checked in.
fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read_report(path: &std::path::Path) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    parse_json(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"))
}

fn rows(report: &Json) -> &[Json] {
    match report.get("results") {
        Some(Json::Arr(rows)) => rows,
        other => panic!("no results array: {other:?}"),
    }
}

/// The sweep runs each leg in a child process for its own peak RSS; the
/// rows the children hand back are the in-process legs' rows, but for the
/// columns that belong to the process.
#[test]
fn memory_sweep_children_report_the_in_process_legs() {
    let dir = std::env::temp_dir().join(format!("disco-reports-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("memory.json");
    let output = Command::new(env!("CARGO_BIN_EXE_exp_memory"))
        .current_dir(&dir)
        .args([
            "--sizes",
            "128",
            "--rates",
            "0.001",
            "--horizon",
            "100",
            "--json",
        ])
        .arg(&path)
        .output()
        .expect("spawn exp_memory");
    let report = output.status.success().then(|| read_report(&path));
    std::fs::remove_dir_all(&dir).unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr);
    let report = report.unwrap_or_else(|| panic!("exp_memory failed:\n{stderr}"));

    let rows = rows(&report);
    assert_eq!(rows.len(), 2, "one full and one forgetful leg");
    for (row, forgetful) in rows.iter().zip([false, true]) {
        let mut p = MemoryParams::grid_point(128, 1, 0.001, forgetful);
        p.window.horizon = 100.0;
        let expect = parse_json(&run_leg(&p).to_json().compact()).unwrap();
        let (Json::Obj(got), Json::Obj(expect)) = (row, &expect) else {
            panic!("rows are objects: {row:?}")
        };
        let keys =
            |m: &[(String, Json)]| -> Vec<String> { m.iter().map(|(k, _)| k.clone()).collect() };
        assert_eq!(keys(got), keys(expect));
        for ((key, got), (_, expect)) in got.iter().zip(expect) {
            if !["peak_rss_mb", "boot_rss_mb", "wall_secs"].contains(&key.as_str()) {
                assert_eq!(got, expect, "column {key} of the forgetful={forgetful} leg");
            }
        }
        assert!(row.get("peak_rss_mb").and_then(Json::as_f64).unwrap() > 0.0);
    }
}

#[test]
fn checked_in_reports_parse_and_hold_their_floors() {
    let mut reports = 0;
    for entry in std::fs::read_dir(repo_root()).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if name.starts_with("BENCH_") && name.ends_with(".json") {
            assert!(!rows(&read_report(&path)).is_empty(), "{name} has no rows");
            reports += 1;
        }
    }
    assert!(reports >= 3, "found {reports} BENCH_*.json files");

    let floor = |file: &str, key: &str| recorded(repo_root().join(file).to_str().unwrap(), key);
    assert_eq!(
        floor("BENCH_exp_forward.json", "min_lookups_per_sec"),
        5404147.0
    );
    assert_eq!(
        floor("BENCH_exp_scale.json", "min_announcements_per_sec"),
        2593210.0
    );
    assert_eq!(floor("BENCH_exp_scale.json", "sharded_ratio"), 1.252);
}

/// A checked-in sweep row still reads into a `MemoryResult`: the columns
/// it carries that have since been retired (`intern_bytes`,
/// `legacy_non_rib_bytes_mean`, `non_rib_reduction`) are skipped.
#[test]
fn checked_in_memory_rows_read_back() {
    let report = read_report(&repo_root().join("BENCH_exp_memory.json"));
    let first = &rows(&report)[0];
    assert!(
        first.get("intern_bytes").is_some(),
        "a row with retired columns"
    );
    let r = MemoryResult::from_json(first).expect("row reads into a MemoryResult");
    assert_eq!(
        (r.n, r.forgetful, r.cand_max, r.quiesced),
        (512, false, 1493, true)
    );
    assert_eq!(
        (r.availability, r.dests_mean, r.peak_rss_mb),
        (0.9688, 327.8, 61.8)
    );
    for row in rows(&report) {
        assert!(MemoryResult::from_json(row).is_some(), "{row:?}");
    }
}
