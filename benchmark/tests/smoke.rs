//! The whole suite at smoke size, through the real binary: every named
//! metric comes out finite, digests repeat, `shard2` matches its
//! sequential reference (the binary exits non-zero otherwise), nothing
//! fails, and every file written is valid JSON.

use disco_benchmark::metrics::{END_TO_END, HARNESS_ONLY, PER_LAYER};
use disco_benchmark::workloads::Workload;
use disco_telemetry::validate_json;
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::Command;

/// A directory of this test's own for the files the binary writes
/// (tests run in parallel and must not share one).
fn out_dir(test: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test)
}

fn bench(test: &str, args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_disco-benchmark"))
        .args(args)
        .env("DISCO_BENCHMARK_OUT", out_dir(test))
        .output()
        .expect("benchmark binary runs");
    assert!(
        out.status.success(),
        "{args:?} exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// `(workload, metric) → value as printed`.
fn rows(stdout: &str) -> HashMap<(String, String), String> {
    stdout
        .lines()
        .filter_map(|l| match l.split(' ').collect::<Vec<_>>()[..] {
            [w, name, value, _unit] => Some(((w.to_owned(), name.to_owned()), value.to_owned())),
            _ => None,
        })
        .collect()
}

fn out_file(test: &str, name: &str) -> String {
    let path = out_dir(test).join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn smoke_suite_reports_every_metric_and_repeats_its_digests() {
    let traced = rows(&bench("suite", &["--all", "--smoke", "--trace"]));
    let again = rows(&bench("suite", &["--all", "--smoke"]));
    let number = |w: &str, m: &str| -> Option<f64> {
        traced
            .get(&(w.to_owned(), m.to_owned()))
            .map(|v| v.parse().unwrap_or_else(|_| panic!("{w} {m} = {v}")))
    };

    for w in Workload::ALL.map(Workload::name) {
        for m in END_TO_END {
            let v = number(w, m.name).unwrap_or_else(|| panic!("{w} lacks {}", m.name));
            assert!(v.is_finite() && v > 0.0, "{w} {} = {v}", m.name);
            if m.exact {
                let key = (w.to_owned(), m.name.to_owned());
                assert_eq!(
                    traced[&key], again[&key],
                    "{w} {} must repeat exactly",
                    m.name
                );
            }
        }
        assert_eq!(number(w, "failed_share"), Some(0.0));
        assert_eq!(number(w, "failed"), Some(0.0));
        let digest = (w.to_owned(), "digest".to_owned());
        assert_eq!(traced[&digest], again[&digest], "{w} digest must repeat");
        validate_json(&out_file("suite", &format!("{w}.trace.json"))).unwrap();
    }
    assert!(HARNESS_ONLY.iter().any(|m| m.name == "lm_leave_s"));
    assert!(number("repair", "lm_leave_s").unwrap() > 0.0);
    for m in PER_LAYER {
        let measured = Workload::ALL
            .iter()
            .filter_map(|w| number(w.name(), m.name))
            .any(|v| v.is_finite() && v != 0.0);
        assert!(measured, "no workload measured {}", m.name);
    }
    validate_json(&out_file("suite", "results.json")).unwrap();
}

#[test]
fn driver_form_ends_with_one_complete_result_line() {
    for (trace, table) in [("0", END_TO_END), ("1", PER_LAYER)] {
        let stdout = bench(
            "driver",
            &[
                "--workload",
                "repair",
                "--seed",
                "3",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--smoke",
            ],
        );
        let last = stdout.lines().last().expect("a result line");
        validate_json(last).unwrap();
        assert!(last.starts_with("{\"correct\":true,\"attempted\":"));
        assert!(last.contains("\"failed\":0,\"metrics\":{"));
        for m in table {
            let member = format!("\"{}\":{{\"value\":", m.name);
            assert!(last.contains(&member), "result line lacks {}", m.name);
        }
        assert_eq!(last.matches("\"unit\":").count(), table.len());
    }
}

#[test]
fn benchmark_json_matches_the_metric_tables() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    validate_json(&on_disk).unwrap();
    assert_eq!(on_disk, disco_benchmark::cli::contract_json());
}
