//! The command line and the files of the `paper` / `exp*` binaries.
//!
//! [`Flags`] is the one flag reader: each bin takes its leading
//! [`Flags::command`], switches, values and comma lists out of it by name
//! and then [`Flags::finish`]es it, which prints the bin's usage for
//! `--help` and rejects anything left over. No external argument-parsing
//! crate is used (the offline dependency list is deliberately small).
//! Every `paper` figure (and `exp_churn`) reads [`CommonArgs`]:
//!
//! ```text
//! --nodes N      topology size (each figure has a paper-appropriate default)
//! --seed S       experiment seed (default 1)
//! --sources K    number of sampled stretch sources (default 50, at most n/2)
//! --dests K      destinations per sampled source (default 40, at most n/4)
//! --points K     number of CDF points to print (default 20)
//! ```
//!
//! The dynamic bins write their reports with [`write_report`], export
//! traces with [`write_trace`], and their `--smoke` gates read floors back
//! out of the checked-in reports with [`recorded`] — all through the one
//! [`Json`] tree.

use disco_metrics::experiment::ExperimentParams;
use disco_telemetry::{parse_json, FullRecorder, Json};
use std::fmt::Debug;
use std::str::FromStr;

/// Short aliases: a token matches its flag or the flag's alias.
const ALIASES: &[(&str, &str)] = &[("--nodes", "-n"), ("--seed", "-s"), ("--help", "-h")];

/// The flags of one command line, taken out one reader call at a time.
#[derive(Debug)]
pub struct Flags(Vec<String>);

impl Flags {
    /// This process's command line.
    pub fn from_env() -> Self {
        Self::new(std::env::args().skip(1))
    }

    /// An explicit command line (testable).
    pub fn new(args: impl IntoIterator<Item = String>) -> Self {
        Flags(args.into_iter().collect())
    }

    /// The arguments no reader has taken yet.
    pub fn args(&self) -> &[String] {
        &self.0
    }

    fn position(&self, flag: &str) -> Option<usize> {
        self.0
            .iter()
            .position(|a| a == flag || ALIASES.contains(&(flag, a.as_str())))
    }

    /// The leading positional argument (`paper <figure> …`), if the
    /// command line starts with one.
    pub fn command(&mut self) -> Option<String> {
        let first = self.0.first()?;
        (!first.starts_with('-')).then(|| self.0.remove(0))
    }

    /// The first token naming one of `flags` (as spelled), still untaken.
    pub fn find(&self, flags: &[&str]) -> Option<&str> {
        let first = flags.iter().filter_map(|f| self.position(f)).min()?;
        Some(&self.0[first])
    }

    /// Whether the switch `flag` was given.
    pub fn switch(&mut self, flag: &str) -> bool {
        let mut given = false;
        while let Some(i) = self.position(flag) {
            self.0.remove(i);
            given = true;
        }
        given
    }

    /// The value of `flag VALUE` (the last one, if repeated), parsed.
    pub fn value<T: FromStr>(&mut self, flag: &str) -> Option<T>
    where
        T::Err: Debug,
    {
        let mut value = None;
        while let Some(i) = self.position(flag) {
            self.0.remove(i);
            assert!(i < self.0.len(), "missing value for {flag}");
            value = Some(self.0.remove(i));
        }
        value.map(|v| parse(flag, &v))
    }

    /// The comma-separated values of `flag a,b,c`, parsed.
    pub fn list<T: FromStr>(&mut self, flag: &str) -> Option<Vec<T>>
    where
        T::Err: Debug,
    {
        let list = self.value::<String>(flag)?;
        Some(list.split(',').map(|s| parse(flag, s.trim())).collect())
    }

    /// `--shards K`: the number of engine shards, K ≥ 1 (there is no
    /// second, shard-less engine for 0 to select); 1 when not given.
    pub fn shards(&mut self) -> usize {
        let shards = self.value("--shards").unwrap_or(1);
        assert!(shards >= 1, "--shards takes K >= 1");
        shards
    }

    /// End of the command line: `--help` prints `usage` and exits 0; a
    /// flag no reader took aborts with a usage hint.
    pub fn finish(self, usage: &str) {
        if self.position("--help").is_some() {
            eprintln!("{usage}");
            std::process::exit(0);
        }
        if let Some(other) = self.0.first() {
            panic!("unknown flag {other}; try --help");
        }
    }
}

fn parse<T: FromStr>(flag: &str, value: &str) -> T
where
    T::Err: Debug,
{
    value.parse().unwrap_or_else(|e| panic!("{flag}: {e:?}"))
}

/// Parsed common arguments.
#[derive(Debug, Clone)]
pub struct CommonArgs {
    /// Topology size.
    pub nodes: usize,
    /// Experiment seed.
    pub seed: u64,
    /// Sampled stretch sources, if `--sources` was given.
    pub sources: Option<usize>,
    /// Destinations per source, if `--dests` was given.
    pub dests: Option<usize>,
    /// CDF points to print.
    pub points: usize,
}

/// Export a finished run's recorder as a Chrome `trace_event` timeline at
/// `path` (what every bin's `--trace PATH` does).
pub fn write_trace(path: &str, rec: &FullRecorder) {
    let json = rec.chrome_trace_json();
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    eprintln!("trace written to {path} ({} bytes)", json.len());
}

/// Write a bin's JSON report to `path`: its `experiment` name, then the
/// bin's `header` members, then one `results` row per leg.
pub fn write_report(path: &str, experiment: &str, header: Vec<(&str, Json)>, rows: Vec<Json>) {
    let mut members = vec![("experiment", Json::str(experiment))];
    members.extend(header);
    members.push(("results", Json::Arr(rows)));
    std::fs::write(path, Json::obj(members).pretty()).expect("write json");
    eprintln!("wrote {path}");
}

/// End a `--smoke` gate: print each failure, and exit 1 if there is any.
pub fn exit_on_failures(failures: &[String]) {
    for f in failures {
        eprintln!("smoke FAIL: {f}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}

/// The top-level number `key` of the recorded `BENCH_*.json` report at
/// `path` — where the `--smoke` gates read their floors. Every such report
/// is checked in, so a floor that cannot be read is a wrong working
/// directory (the path is relative to it) or a renamed key, and the gate
/// fails: exits non-zero naming both rather than passing ungated.
pub fn recorded(path: &str, key: &str) -> f64 {
    let report = std::fs::read_to_string(path).ok();
    let report = report.and_then(|text| parse_json(&text).ok());
    let floor = report.as_ref().and_then(|r| r.get(key)?.as_f64());
    floor.unwrap_or_else(|| {
        eprintln!(
            "smoke FAIL: cannot read the floor \"{key}\" from {path} \
             (looked up relative to the working directory)"
        );
        std::process::exit(1);
    })
}

impl CommonArgs {
    /// Take the common flags out of `flags` and finish it: a bin with
    /// flags of its own takes those first.
    pub fn from_flags(mut flags: Flags, default_nodes: usize) -> Self {
        let out = CommonArgs {
            nodes: flags.value("--nodes").unwrap_or(default_nodes),
            seed: flags.value("--seed").unwrap_or(1),
            sources: flags.value("--sources"),
            dests: flags.value("--dests"),
            points: flags.value("--points").unwrap_or(20),
        };
        flags.finish(&format!(
            "flags: --nodes N --seed S --sources K --dests K --points K (defaults: nodes={default_nodes}, seed=1)"
        ));
        out
    }

    /// The experiment parameters at `--nodes`.
    pub fn params(&self) -> ExperimentParams {
        self.params_at(self.nodes)
    }

    /// The experiment parameters at `nodes` (a sweep's sizes):
    /// [`ExperimentParams::for_nodes`] with the flags' sample sizes.
    pub fn params_at(&self, nodes: usize) -> ExperimentParams {
        let defaults = ExperimentParams::for_nodes(nodes, self.seed);
        ExperimentParams {
            stretch_sources: self.sources.unwrap_or(defaults.stretch_sources),
            stretch_dests_per_source: self.dests.unwrap_or(defaults.stretch_dests_per_source),
            ..defaults
        }
        .clamped()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_apply() {
        let a = CommonArgs::from_flags(Flags::new(v(&[])), 1024);
        assert_eq!(a.nodes, 1024);
        assert_eq!(a.seed, 1);
        assert_eq!(a.points, 20);
    }

    #[test]
    fn flags_override() {
        let args = v(&["--nodes", "256", "--seed", "9", "--points", "5"]);
        let a = CommonArgs::from_flags(Flags::new(args), 1024);
        assert_eq!(a.nodes, 256);
        assert_eq!(a.seed, 9);
        assert_eq!(a.points, 5);
        let p = a.params();
        assert_eq!(p.nodes, 256);
        assert_eq!(p.seed, 9);
    }

    #[test]
    fn params_default_to_for_nodes_and_take_the_overrides() {
        for n in [2, 256, 16384] {
            let a = CommonArgs::from_flags(Flags::new(v(&["--seed", "3"])), n);
            assert_eq!(a.params(), ExperimentParams::for_nodes(n, 3), "n={n}");
        }
        let args = v(&["--sources", "7", "--dests", "5"]);
        let a = CommonArgs::from_flags(Flags::new(args), 256);
        let p = a.params();
        assert_eq!((p.stretch_sources, p.stretch_dests_per_source), (7, 5));
        // A sweep's smaller size clamps the same overrides.
        let p = a.params_at(12);
        assert_eq!(
            (p.nodes, p.stretch_sources, p.stretch_dests_per_source),
            (12, 6, 3)
        );
    }

    #[test]
    fn command_takes_only_a_leading_positional() {
        let mut flags = Flags::new(v(&["fig02_state_cdf", "--nodes", "64"]));
        assert_eq!(flags.command().as_deref(), Some("fig02_state_cdf"));
        assert_eq!(flags.command(), None);
        assert_eq!(flags.value::<usize>("--nodes"), Some(64));
        assert_eq!(Flags::new(v(&["--nodes", "64"])).command(), None);
    }

    #[test]
    #[should_panic]
    fn unknown_flag_panics() {
        let _ = CommonArgs::from_flags(Flags::new(v(&["--bogus"])), 10);
    }

    #[test]
    #[should_panic(expected = "unknown flag --bogus; try --help")]
    fn flags_reject_what_no_reader_took() {
        let mut flags = Flags::new(v(&["--smoke", "--bogus", "--json", "r.json"]));
        assert!(flags.switch("--smoke"));
        assert_eq!(flags.value::<String>("--json").as_deref(), Some("r.json"));
        flags.finish("usage");
    }

    #[test]
    #[should_panic(expected = "missing value for --trace")]
    fn flags_reject_a_missing_value() {
        let _ = Flags::new(v(&["--smoke", "--trace"])).value::<String>("--trace");
    }

    #[test]
    fn flags_read_aliases_and_keep_the_spelling_for_refusals() {
        let mut flags = Flags::new(v(&["-s", "7", "--smoke", "-n", "128", "--nodes", "64"]));
        assert_eq!(flags.find(&["--sizes", "--nodes"]), Some("-n"));
        assert_eq!(flags.value::<u64>("--seed"), Some(7));
        // The last of a repeated value wins, whichever spelling it has.
        assert_eq!(flags.value::<usize>("--nodes"), Some(64));
        assert!(!flags.switch("--full") && flags.switch("--smoke"));
        assert_eq!(flags.shards(), 1);
        flags.finish("usage");
    }

    #[test]
    fn flags_read_comma_lists() {
        let mut flags = Flags::new(v(&["--sizes", "128, 256,512", "--rates", "0.001"]));
        assert_eq!(flags.list::<usize>("--sizes"), Some(vec![128, 256, 512]));
        assert_eq!(flags.list::<f64>("--rates"), Some(vec![0.001]));
        assert_eq!(flags.list::<f64>("--rates"), None);
        flags.finish("usage");
    }
}
