//! The `paper` binary's command line: a figure name selects one figure,
//! and anything else is refused with the list of names.

use std::process::{Command, Output};

const FIGURES: [&str; 13] = [
    "fig02_state_cdf",
    "fig03_stretch_cdf",
    "fig04_gnm_1024",
    "fig05_geometric_1024",
    "fig06_shortcutting",
    "fig07_state_bytes",
    "fig08_messaging",
    "fig09_scaling",
    "fig10_congestion_as",
    "exp_address_size",
    "exp_estimation_error",
    "exp_overlay_hops",
    "exp_static_accuracy",
];

fn paper(args: &[&str]) -> Output {
    let paper = Command::new(env!("CARGO_BIN_EXE_paper"))
        .args(args)
        .output();
    paper.expect("run paper")
}

#[test]
fn an_unknown_figure_fails_and_lists_every_figure() {
    for args in [&["no_such_figure"][..], &[], &["--nodes", "64"]] {
        let out = paper(args);
        assert!(!out.status.success(), "{args:?} exited 0");
        let stderr = String::from_utf8_lossy(&out.stderr);
        for name in FIGURES {
            assert!(
                stderr.contains(name),
                "{args:?}: {name} not listed:\n{stderr}"
            );
        }
        assert!(out.stdout.is_empty(), "{args:?} printed a figure");
    }
    let help = paper(&["--help"]);
    assert!(help.status.success());
    assert!(String::from_utf8_lossy(&help.stderr).contains("exp_overlay_hops"));
}

#[test]
fn a_figure_prints_its_table() {
    let out = paper(&["exp_overlay_hops", "--nodes", "64"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("§4.4 — address dissemination over the overlay (n=64)"),
        "{stdout}"
    );
    // One row per finger count.
    let rows = stdout
        .lines()
        .filter(|l| l.trim_start().starts_with(['1', '3']));
    assert_eq!(rows.count(), 2, "{stdout}");
}
