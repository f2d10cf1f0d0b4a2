//! Usage errors across the bench binaries: every bad invocation must be
//! rejected up front with exit 2 and a stderr message naming the
//! offending flag or name, before any work (or empty export) happens.

use std::process::Command;

fn rejects(bin: &str, args: &[&str], needle: &str) {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?} must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(needle),
        "{bin} {args:?}: stderr {stderr:?} must name {needle}"
    );
}

#[test]
fn every_usage_error_exits_2_naming_the_flag() {
    let repro = env!("CARGO_BIN_EXE_repro");
    let campaign = env!("CARGO_BIN_EXE_campaign");
    let cases: &[(&str, &[&str], &str)] = &[
        // `repro` needs a known experiment name first, and nothing else.
        (repro, &[], "missing experiment name"),
        (repro, &["--smoke"], "missing experiment name"),
        (repro, &["fig8"], "unknown experiment \"fig8\""),
        (repro, &["table1", "--bogus"], "--bogus"),
        (repro, &["fig5", "extra"], "extra"),
        // Dangling values and repeated flags.
        (repro, &["validation", "--export-json"], "--export-json"),
        (repro, &["fig5", "--export-csv", "--smoke"], "--export-csv"),
        (repro, &["fig5", "--smoke", "--smoke"], "--smoke"),
        (
            campaign,
            &["--deterministic", "--seed", "1", "--seed", "2"],
            "--seed",
        ),
        (campaign, &["--deterministic", "--seed", "x"], "--seed"),
        // Degenerate sizes and cross-flag requirements.
        (campaign, &["--deterministic", "--points", "0"], "--points"),
        (
            campaign,
            &["--deterministic", "--workers", "0"],
            "--workers",
        ),
        (
            campaign,
            &["--deterministic", "--resume"],
            "--checkpoint-dir",
        ),
        (
            env!("CARGO_BIN_EXE_conformance"),
            &["--case-seed", "0x1"],
            "--family",
        ),
        (
            env!("CARGO_BIN_EXE_cosim"),
            &["--sensor-faults"],
            "--closed-loop",
        ),
        (
            env!("CARGO_BIN_EXE_perf_check"),
            &["--fresh", "fresh.json"],
            "--baseline",
        ),
        (
            env!("CARGO_BIN_EXE_fleet"),
            &["--deterministic", "--clients"],
            "--clients",
        ),
        (env!("CARGO_BIN_EXE_perf"), &["--bogus"], "--bogus"),
    ];
    for (bin, args, needle) in cases {
        rejects(bin, args, needle);
    }
}
