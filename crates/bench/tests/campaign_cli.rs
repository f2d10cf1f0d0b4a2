//! Command-line validation of the `campaign` binary: degenerate sweep
//! sizes must be rejected up front (exit 2, flag named), not produce an
//! empty export with NaN headline figures.

use std::process::Command;

fn rejects(args: &[&str], flag: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args(args)
        .output()
        .expect("campaign binary runs");
    assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(flag),
        "{args:?}: stderr {stderr:?} must name {flag}"
    );
}

#[test]
fn zero_points_and_zero_workers_are_usage_errors() {
    rejects(&["--deterministic", "--points", "0"], "--points");
    rejects(&["--deterministic", "--workers", "0"], "--workers");
}
