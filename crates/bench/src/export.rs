//! Shared metrics-export plumbing for the bench binaries.
//!
//! The paper experiments (`repro`), `campaign`, `conformance` and `cosim`
//! accept the same three flags, read by [`ExportOptions::from_cli`]:
//!
//! * `--smoke` — shrink the workload to a seconds-scale run (the CI
//!   gate uses this);
//! * `--export-json <path>` — write the registry as schema-tagged JSON;
//! * `--export-csv <path>` — write the registry as CSV.
//!
//! Every metrics file any binary writes goes through [`write_json`] or
//! [`write_csv`], which validate against the `autoplat.metrics.v1`
//! schema before touching the disk, so a drifting exporter fails the run
//! that produced the file rather than some later consumer.

use std::path::{Path, PathBuf};

use autoplat_sim::metrics::{validate_csv_export, validate_json_export, MetricsRegistry};

use crate::cli::Args;

/// Parsed export-related command-line options.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExportOptions {
    /// Run a reduced workload (CI smoke mode).
    pub smoke: bool,
    /// Where to write the JSON export, if requested.
    pub json: Option<PathBuf>,
    /// Where to write the CSV export, if requested.
    pub csv: Option<PathBuf>,
}

impl ExportOptions {
    /// Reads `--smoke`, `--export-json <path>` and `--export-csv <path>`.
    ///
    /// # Errors
    ///
    /// Returns a usage message when a path operand is missing.
    pub fn from_cli(args: &mut Args) -> Result<ExportOptions, String> {
        Ok(ExportOptions {
            smoke: args.flag("--smoke"),
            json: args.value("--export-json")?,
            csv: args.value("--export-csv")?,
        })
    }

    /// Writes the requested exports, validating each against the shared
    /// schema first. A no-op when neither path was given.
    ///
    /// # Errors
    ///
    /// Returns a description of a schema violation or I/O failure.
    pub fn write(&self, registry: &MetricsRegistry) -> Result<(), String> {
        if let Some(path) = &self.json {
            write_json(path, registry)?;
            eprintln!("metrics JSON written to {}", path.display());
        }
        if let Some(path) = &self.csv {
            write_csv(path, registry)?;
            eprintln!("metrics CSV written to {}", path.display());
        }
        Ok(())
    }
}

/// Writes `registry` to `path` as schema-tagged JSON, validated first.
///
/// # Errors
///
/// Returns a description of a schema violation or I/O failure.
pub fn write_json(path: &Path, registry: &MetricsRegistry) -> Result<(), String> {
    write_validated(path, registry.to_json(), validate_json_export, "JSON")
}

/// Writes `registry` to `path` as CSV, validated first.
///
/// # Errors
///
/// Returns a description of a schema violation or I/O failure.
pub fn write_csv(path: &Path, registry: &MetricsRegistry) -> Result<(), String> {
    write_validated(path, registry.to_csv(), validate_csv_export, "CSV")
}

fn write_validated(
    path: &Path,
    contents: String,
    validate: fn(&str) -> Result<(), String>,
    format: &str,
) -> Result<(), String> {
    validate(&contents).map_err(|e| format!("refusing to write invalid {format} export: {e}"))?;
    std::fs::write(path, contents).map_err(|e| format!("writing {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(items: &[&str]) -> Result<ExportOptions, String> {
        let mut args = Args::new(items.iter().map(|i| i.to_string()));
        let opts = ExportOptions::from_cli(&mut args)?;
        args.finish().map(|()| opts)
    }

    #[test]
    fn parses_all_flags() {
        let opts = parse(&[
            "--smoke",
            "--export-json",
            "m.json",
            "--export-csv",
            "m.csv",
        ])
        .expect("valid args");
        assert!(opts.smoke);
        assert_eq!(opts.json, Some(PathBuf::from("m.json")));
        assert_eq!(opts.csv, Some(PathBuf::from("m.csv")));
    }

    #[test]
    fn empty_args_are_default() {
        assert_eq!(parse(&[]).expect("empty ok"), ExportOptions::default());
    }

    #[test]
    fn rejects_unknown_and_dangling_flags() {
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--export-json"]).is_err());
        assert!(parse(&["--export-csv"]).is_err());
    }

    #[test]
    fn write_without_paths_is_noop() {
        let opts = ExportOptions::default();
        opts.write(&MetricsRegistry::new()).expect("no-op");
    }
}
