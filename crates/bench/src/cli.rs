//! Minimal command-line argument handling shared by the `fig*` / `exp*`
//! binaries, plus the two file chores the dynamic bins share: exporting a
//! trace and reading a recorded floor.
//!
//! Every binary accepts the same flags so a full figure sweep can be
//! scripted uniformly:
//!
//! ```text
//! --nodes N      topology size (each binary has a paper-appropriate default)
//! --seed S       experiment seed (default 1)
//! --sources K    number of sampled stretch sources
//! --dests K      destinations per sampled source
//! --points K     number of CDF points to print (default 20)
//! ```
//!
//! No external argument-parsing crate is used (the offline dependency list
//! is deliberately small); unknown flags abort with a usage message.

use disco_metrics::experiment::ExperimentParams;
use disco_telemetry::FullRecorder;

/// Parsed common arguments.
#[derive(Debug, Clone)]
pub struct CommonArgs {
    /// Topology size.
    pub nodes: usize,
    /// Experiment seed.
    pub seed: u64,
    /// Sampled stretch sources.
    pub sources: usize,
    /// Destinations per source.
    pub dests: usize,
    /// CDF points to print.
    pub points: usize,
}

/// Parse the value of a `--shards K` flag: the number of engine shards,
/// K ≥ 1 (there is no second, shard-less engine for 0 to select).
pub fn parse_shards(value: &str) -> usize {
    let shards: usize = value.parse().expect("--shards");
    assert!(shards >= 1, "--shards takes K >= 1");
    shards
}

/// Export a finished run's recorder as a Chrome `trace_event` timeline at
/// `path` (what every bin's `--trace PATH` does).
pub fn write_trace(path: &str, rec: &FullRecorder) {
    let json = rec.chrome_trace_json();
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    eprintln!("trace written to {path} ({} bytes)", json.len());
}

/// A top-level numeric `key` of the recorded `BENCH_*.json` report at
/// `path` (one `"key": value,` per line, as the bins write them) — where
/// the `--smoke` gates read their floors. Every such report is checked
/// in, so a floor that cannot be read is a wrong working directory (the
/// path is relative to it) or a renamed key, and the gate fails: exits
/// non-zero naming both rather than passing ungated.
pub fn recorded(path: &str, key: &str) -> f64 {
    let parse = |report: String| -> Option<f64> {
        let line = report.lines().find(|l| l.contains(&format!("\"{key}\"")))?;
        let value = line.split(':').nth(1)?;
        value.trim().trim_end_matches(',').parse().ok()
    };
    let floor = std::fs::read_to_string(path).ok().and_then(parse);
    floor.unwrap_or_else(|| {
        eprintln!(
            "smoke FAIL: cannot read the floor \"{key}\" from {path} \
             (looked up relative to the working directory)"
        );
        std::process::exit(1);
    })
}

impl CommonArgs {
    /// Parse `std::env::args` with the given default node count.
    pub fn parse(default_nodes: usize) -> Self {
        Self::parse_from(std::env::args().skip(1), default_nodes)
    }

    /// Parse from an explicit iterator (testable).
    pub fn parse_from(args: impl IntoIterator<Item = String>, default_nodes: usize) -> Self {
        let mut out = CommonArgs {
            nodes: default_nodes,
            seed: 1,
            sources: 50,
            dests: 40,
            points: 20,
        };
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| -> String {
                it.next()
                    .unwrap_or_else(|| panic!("missing value for {name}"))
            };
            match flag.as_str() {
                "--nodes" | "-n" => out.nodes = value("--nodes").parse().expect("--nodes"),
                "--seed" | "-s" => out.seed = value("--seed").parse().expect("--seed"),
                "--sources" => out.sources = value("--sources").parse().expect("--sources"),
                "--dests" => out.dests = value("--dests").parse().expect("--dests"),
                "--points" => out.points = value("--points").parse().expect("--points"),
                "--help" | "-h" => {
                    eprintln!(
                        "flags: --nodes N --seed S --sources K --dests K --points K (defaults: nodes={default_nodes}, seed=1)"
                    );
                    std::process::exit(0);
                }
                other => panic!("unknown flag {other}; try --help"),
            }
        }
        out
    }

    /// Convert to experiment parameters.
    pub fn params(&self) -> ExperimentParams {
        ExperimentParams {
            nodes: self.nodes,
            seed: self.seed,
            state_samples: usize::MAX,
            stretch_sources: self.sources.min(self.nodes / 2).max(1),
            stretch_dests_per_source: self.dests.min(self.nodes / 4).max(1),
        }
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
        let a = CommonArgs::parse_from(v(&[]), 1024);
        assert_eq!(a.nodes, 1024);
        assert_eq!(a.seed, 1);
        assert_eq!(a.points, 20);
    }

    #[test]
    fn flags_override() {
        let a =
            CommonArgs::parse_from(v(&["--nodes", "256", "--seed", "9", "--points", "5"]), 1024);
        assert_eq!(a.nodes, 256);
        assert_eq!(a.seed, 9);
        assert_eq!(a.points, 5);
        let p = a.params();
        assert_eq!(p.nodes, 256);
        assert_eq!(p.seed, 9);
    }

    #[test]
    #[should_panic]
    fn unknown_flag_panics() {
        let _ = CommonArgs::parse_from(v(&["--bogus"]), 10);
    }
}
