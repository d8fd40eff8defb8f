//! Command line. Three ways in:
//!
//! * `--workload W --seed S --seconds T --trace 0|1` runs one workload in
//!   this process and ends its output with one JSON result line (the form
//!   a driver calls);
//! * `--all [--trace]` runs the four workloads, each in a child process
//!   of its own (self re-exec, so `VmHWM` and the thread-local path arena
//!   are per workload), and writes `out/results.json`;
//! * `--repeat N` runs the untraced suite N times and judges every
//!   (metric, workload) pair's spread against the metric's own bound.

use crate::json::Json;
use crate::metrics::{self, Metric, ALSO_UNTRACED, END_TO_END, HARNESS_ONLY, PER_LAYER};
use crate::stats::{median, quartiles, spread};
use crate::workloads::{self, Outcome, Sizes, Workload, FULL_SECONDS};
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// `run_seconds` of `BENCHMARK.json`: what a driver passes as
/// `--seconds`. Sized so the driver's runs fit its total-time cap
/// (README, "Sizes").
const DRIVER_SECONDS: u64 = 16;

/// `BENCHMARK.json`, rendered from the tables in this package so the two
/// cannot drift (a test compares the file with this text).
pub fn contract_json() -> String {
    let listed = |m: &Metric| {
        vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.name())),
        ]
    };
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    Json::obj([
        ("command", Json::Arr(command.map(Json::str).to_vec())),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Int(DRIVER_SECONDS)),
        (
            "workloads",
            Json::Arr(
                Workload::ALL
                    .map(|w| {
                        Json::obj([("name", Json::str(w.name())), ("why", Json::str(w.why()))])
                    })
                    .to_vec(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        let mut members = listed(m);
                        members.push(("bound", Json::Num(m.bound)));
                        Json::obj(members)
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(|m| Json::obj(listed(m))).collect()),
        ),
    ])
    .pretty()
}

const USAGE: &str = "\
usage: disco-benchmark --workload <boot|repair|forward|shard2> [--seed S] [--seconds T] [--trace 0|1] [--smoke]
       disco-benchmark --all [--seed S] [--seconds T] [--trace] [--smoke]
       disco-benchmark --repeat N [--seed S] [--seconds T] [--smoke]
       disco-benchmark --print-contract";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<Workload>,
    all: bool,
    repeat: Option<usize>,
    seed: u64,
    seconds: Option<u64>,
    trace: bool,
    smoke: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        all: false,
        repeat: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
    };
    let mut it = argv.iter().peekable();
    let number = |flag: &str, v: Option<&String>| -> Result<u64, String> {
        v.and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("{flag} needs a whole number"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let name = it.next().ok_or("--workload needs a name")?;
                args.workload =
                    Some(Workload::parse(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--all" => args.all = true,
            "--smoke" => args.smoke = true,
            "--repeat" => args.repeat = Some(number("--repeat", it.next())?.max(2) as usize),
            "--seed" => args.seed = number("--seed", it.next())?,
            "--seconds" => args.seconds = Some(number("--seconds", it.next())?.clamp(1, 60)),
            // `--trace 0|1` (driver form) or a bare `--trace`.
            "--trace" => match it.peek().map(|v| v.as_str()) {
                Some("0") => {
                    it.next();
                    args.trace = false;
                }
                Some("1") => {
                    it.next();
                    args.trace = true;
                }
                _ => args.trace = true,
            },
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let modes = [args.workload.is_some(), args.all, args.repeat.is_some()];
    if modes.iter().filter(|&&m| m).count() != 1 {
        return Err("give exactly one of --workload, --all, --repeat".into());
    }
    Ok(args)
}

/// Where traces and `results.json` go: `out/` beside this package's
/// manifest, wherever the checkout it was built in lives, unless
/// `DISCO_BENCHMARK_OUT` names another directory.
fn out_dir() -> PathBuf {
    std::env::var_os("DISCO_BENCHMARK_OUT").map_or_else(
        || PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
        PathBuf::from,
    )
}

fn write_out(file: &str, text: &str) -> Result<PathBuf, String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(file);
    std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path)
}

pub fn main() -> i32 {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--print-contract"] {
        print!("{}", contract_json());
        return 0;
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return 2;
        }
    };
    let result = match (args.workload, args.repeat) {
        (Some(w), _) => run_one(w, &args),
        (None, Some(n)) => repeat(n, &args),
        (None, None) => all(&args),
    };
    match result {
        Ok(()) => 0,
        Err(reason) => {
            eprintln!("benchmark failed: {reason}");
            1
        }
    }
}

// ---------------------------------------------------------------------
// One workload in this process
// ---------------------------------------------------------------------

/// The `metrics` member of a result line: every metric of `table`. An
/// end-to-end metric must have been measured (`required`); a layer the
/// workload does not exercise reads 0.
fn metric_json(
    values: &[(&'static str, f64)],
    table: &[Metric],
    required: bool,
) -> Result<Json, String> {
    let mut members = Vec::new();
    for m in table {
        let value = match values.iter().find(|(n, _)| *n == m.name) {
            Some(&(_, v)) => v,
            None if required => return Err(format!("workload left {} unset", m.name)),
            None => 0.0,
        };
        if !value.is_finite() {
            return Err(format!("{} is not finite", m.name));
        }
        members.push((
            m.name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(m.unit))]),
        ));
    }
    Ok(Json::obj(members))
}

fn run_one(workload: Workload, args: &Args) -> Result<(), String> {
    let seconds = args.seconds.unwrap_or(FULL_SECONDS);
    let sizes = Sizes::new(workload, seconds, args.smoke);
    let out: Outcome = workloads::run(workload, args.seed, &sizes, args.trace);
    let name = workload.name();

    for (key, value) in sizes.describe(workload) {
        println!("{name} size.{key} {value} count");
    }
    println!("{name} digest {:016x} hex", out.digest);
    println!("{name} attempted {} count", out.attempted);
    println!("{name} failed {} count", out.failed);
    for (metric, value) in &out.values {
        let m = metrics::find(metric).expect("set() admits listed metrics only");
        let is_layer = PER_LAYER.iter().any(|l| l.name == m.name);
        if args.trace || !is_layer || ALSO_UNTRACED.contains(&m.name) {
            println!("{name} {metric} {value} {}", m.unit);
        }
    }
    if let Some(trace) = &out.trace {
        disco_telemetry::validate_json(trace).map_err(|e| format!("trace of {name}: {e}"))?;
        let path = write_out(&format!("{name}.trace.json"), trace)?;
        eprintln!("trace written to {}", path.display());
    }

    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let line = Json::obj([
        ("correct", Json::Bool(out.correct())),
        ("attempted", Json::Int(out.attempted.max(1))),
        ("failed", Json::Int(out.failed)),
        ("metrics", metric_json(&out.values, table, !args.trace)?),
    ]);
    println!("{}", line.compact());
    if out.correct() {
        Ok(())
    } else {
        Err(format!("{name}: {}", out.reasons.join("; ")))
    }
}

// ---------------------------------------------------------------------
// The suite, one child process per workload
// ---------------------------------------------------------------------

/// What a child printed: `workload name value unit` lines.
#[derive(Debug, Default, Clone)]
struct Report {
    /// `(name, value as printed, unit)`; values stay text so exact
    /// metrics can be compared bit for bit.
    rows: Vec<(String, String, String)>,
}

impl Report {
    fn text(&self, name: &str) -> Option<&str> {
        self.rows.iter().find(|r| r.0 == name).map(|r| r.1.as_str())
    }
}

fn run_child(workload: Workload, args: &Args, seconds: u64, trace: bool) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .spawn()
        .and_then(|child| child.wait_with_output())
        .map_err(|e| format!("running {}: {e}", workload.name()))?;
    if !output.status.success() {
        return Err(format!(
            "workload {} exited with {}",
            workload.name(),
            output.status
        ));
    }
    let mut report = Report::default();
    for line in String::from_utf8_lossy(&output.stdout).lines() {
        let cols: Vec<&str> = line.split(' ').collect();
        if let [w, name, value, unit] = cols[..] {
            if w == workload.name() {
                report.rows.push((name.into(), value.into(), unit.into()));
            }
        }
    }
    Ok(report)
}

fn print_report(workload: Workload, report: &Report) {
    for (name, value, unit) in &report.rows {
        println!("{} {name} {value} {unit}", workload.name());
    }
}

fn first_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Where and on what a result was recorded.
fn stamp(args: &Args, seconds: u64) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1).map(|m| m.trim().to_owned()))
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |p| p.get() as u64);
    Json::obj([
        ("nproc", Json::Int(nproc)),
        ("cpu", Json::str(cpu)),
        ("rustc", Json::str(first_line("rustc", &["-V"]))),
        (
            "commit",
            Json::str(first_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::Int(args.seed)),
        ("seconds", Json::Int(seconds)),
        ("smoke", Json::Bool(args.smoke)),
        ("loop", Json::str("closed")),
    ])
}

fn rows_json(report: &Report, keep: impl Fn(&str) -> bool) -> Json {
    Json::obj(
        report
            .rows
            .iter()
            .filter(|r| keep(&r.0))
            .map(|(name, value, unit)| {
                let value = value.parse().map_or(Json::str(value.as_str()), Json::Num);
                (
                    name.trim_start_matches("size.").to_owned(),
                    Json::obj([("value", value), ("unit", Json::str(unit.as_str()))]),
                )
            }),
    )
}

fn all(args: &Args) -> Result<(), String> {
    let seconds = args.seconds.unwrap_or(FULL_SECONDS);
    let mut records = Vec::new();
    for workload in Workload::ALL {
        let untraced = run_child(workload, args, seconds, false)?;
        print_report(workload, &untraced);
        let is_meta = |n: &str| n.starts_with("size.") || n == "digest";
        let mut record = vec![
            ("name".to_owned(), Json::str(workload.name())),
            ("threads".to_owned(), Json::Int(workload.threads() as u64)),
            (
                "sizes".to_owned(),
                rows_json(&untraced, |n| n.starts_with("size.")),
            ),
            (
                "digest".to_owned(),
                Json::str(untraced.text("digest").unwrap_or("")),
            ),
            ("metrics".to_owned(), rows_json(&untraced, |n| !is_meta(n))),
        ];
        if args.trace {
            let traced = run_child(workload, args, seconds, true)?;
            print_report(workload, &traced);
            if traced.text("digest") != untraced.text("digest") {
                return Err(format!(
                    "{}: traced digest differs from untraced",
                    workload.name()
                ));
            }
            let layers = |n: &str| PER_LAYER.iter().any(|m| m.name == n);
            record.push(("per_layer".to_owned(), rows_json(&traced, layers)));
        }
        records.push(Json::Obj(record));
    }
    let doc = Json::obj([
        ("stamp", stamp(args, seconds)),
        ("workloads", Json::Arr(records)),
    ]);
    let path = write_out("results.json", &doc.pretty())?;
    eprintln!("results written to {}", path.display());
    Ok(())
}

// ---------------------------------------------------------------------
// --repeat: run-to-run agreement against each metric's own bound
// ---------------------------------------------------------------------

fn repeat(n: usize, args: &Args) -> Result<(), String> {
    let seconds = args.seconds.unwrap_or(FULL_SECONDS);
    let mut runs: Vec<Vec<Report>> = Vec::new();
    for i in 0..n {
        eprintln!("suite run {} of {n}", i + 1);
        let mut suite = Vec::new();
        for workload in Workload::ALL {
            suite.push(run_child(workload, args, seconds, false)?);
        }
        runs.push(suite);
    }
    let mut failures = 0;
    println!("workload metric median q1 q3 spread bound verdict");
    for (w, workload) in Workload::ALL.into_iter().enumerate() {
        let digests: Vec<&str> = runs.iter().filter_map(|s| s[w].text("digest")).collect();
        let same = digests.windows(2).all(|d| d[0] == d[1]);
        println!(
            "{} digest {} - - - exact {}",
            workload.name(),
            digests[0],
            if same { "PASS" } else { "FAIL" }
        );
        failures += usize::from(!same);
        for m in END_TO_END.iter().chain(HARNESS_ONLY) {
            let texts: Vec<&str> = runs.iter().filter_map(|s| s[w].text(m.name)).collect();
            if texts.len() != n {
                // `lm_leave_s` exists on `repair` only.
                continue;
            }
            let values: Vec<f64> = texts.iter().filter_map(|t| t.parse().ok()).collect();
            let (q1, q3) = quartiles(&values);
            let (verdict, bound) = if m.exact {
                (texts.windows(2).all(|t| t[0] == t[1]), "exact".to_owned())
            } else {
                (spread(&values) <= m.bound, m.bound.to_string())
            };
            // Set-up time is bounded between commits (median against
            // median), not run to run: a 3 ms set-up doubles on a page
            // fault. Its spread is shown, not judged.
            let judged = m.name != "setup_s";
            println!(
                "{} {} {} {q1} {q3} {} {bound} {}",
                workload.name(),
                m.name,
                median(&values),
                spread(&values),
                match (judged, verdict) {
                    (false, _) => "INFO",
                    (true, true) => "PASS",
                    (true, false) => "FAIL",
                }
            );
            failures += usize::from(judged && !verdict);
        }
    }
    if failures == 0 {
        Ok(())
    } else {
        Err(format!(
            "{failures} (metric, workload) pairs outside their bound"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn driver_and_suite_forms_parse() {
        let a = parse(&argv("--workload repair --seed 7 --seconds 16 --trace 1")).unwrap();
        assert_eq!(a.workload, Some(Workload::Repair));
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(16), true));
        let a = parse(&argv("--workload boot --trace 0")).unwrap();
        assert!(!a.trace && a.seed == 1);
        let a = parse(&argv("--all --trace --smoke")).unwrap();
        assert!(a.all && a.trace && a.smoke);
        assert_eq!(parse(&argv("--repeat 3")).unwrap().repeat, Some(3));
        assert!(parse(&argv("--all --repeat 2")).is_err());
        assert!(parse(&argv("--workload nope")).is_err());
        assert!(parse(&argv("")).is_err());
    }

    #[test]
    fn contract_is_within_the_driver_limits() {
        for w in Workload::ALL {
            assert!(w.why().len() <= 200 && !w.why().contains('\n'), "{w:?}");
        }
        let text = contract_json();
        disco_telemetry::validate_json(&text).unwrap();
        assert!(text.len() <= 64 * 1024);
        assert!((1..=60).contains(&DRIVER_SECONDS));
    }

    #[test]
    fn result_metrics_need_every_end_to_end_metric() {
        let some = [("setup_s", 1.5)];
        assert!(metric_json(&some, END_TO_END, true).is_err());
        let layers = metric_json(&some, PER_LAYER, false).unwrap();
        disco_telemetry::validate_json(&layers.compact()).unwrap();
        assert!(layers
            .compact()
            .contains("\"graph.generators.gnm_ms\":{\"value\":0,"));
    }
}
